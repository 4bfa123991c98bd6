package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

func recorderWith(n int) *FlightRecorder {
	fr := NewFlightRecorder(FlightRecConfig{})
	for i := 1; i <= n; i++ {
		fr.Record(sampleTick(uint64(i)))
	}
	return fr
}

func TestTraceHandlerChrome(t *testing.T) {
	srv := httptest.NewServer(TraceHandler(recorderWith(150)))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?n=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 100 ticks × (1 tick event + 3 spans).
	if len(decoded.TraceEvents) != 400 {
		t.Fatalf("got %d events, want 400", len(decoded.TraceEvents))
	}
}

func TestTraceHandlerJSONL(t *testing.T) {
	srv := httptest.NewServer(TraceHandler(recorderWith(5)))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?n=3&format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var tt TickRecord
	if err := json.Unmarshal([]byte(lines[0]), &tt); err != nil {
		t.Fatal(err)
	}
	if tt.Tick != 3 || len(tt.Tasks) != 3 { // last 3 of 5: ticks 3,4,5
		t.Fatalf("first exported record = %+v, want tick 3 with 3 tasks", tt)
	}
}

func TestTraceHandlerBadParams(t *testing.T) {
	srv := httptest.NewServer(TraceHandler(recorderWith(1)))
	defer srv.Close()
	for _, q := range []string{"?n=-1", "?n=abc", "?format=xml"} {
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestFlightRecHandlerBadParams(t *testing.T) {
	srv := httptest.NewServer(FlightRecHandler(NewFlightRecorder(FlightRecConfig{})))
	defer srv.Close()
	for _, q := range []string{"?n=-1", "?n=abc", "?n=1.5"} {
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
	// Absent and zero n still serve.
	for _, q := range []string{"", "?n=0", "?n=2"} {
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status = %d, want 200", q, resp.StatusCode)
		}
	}
}

func TestQueryIntParam(t *testing.T) {
	parse := func(raw string) url.Values {
		v, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if n, err := QueryIntParam(parse(""), "n", 7); err != nil || n != 7 {
		t.Errorf("absent = %d,%v, want default 7", n, err)
	}
	if n, err := QueryIntParam(parse("n=42"), "n", 7); err != nil || n != 42 {
		t.Errorf("present = %d,%v", n, err)
	}
	for _, raw := range []string{"n=-1", "n=abc", "n=1.5", "n="} {
		if _, err := QueryIntParam(parse(raw), "n", 0); err == nil {
			t.Errorf("%s: accepted, want error", raw)
		}
	}
}

func TestQueryFloatParam(t *testing.T) {
	parse := func(raw string) url.Values {
		v, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if f, err := QueryFloatParam(parse(""), "since", 300); err != nil || f != 300 {
		t.Errorf("absent = %g,%v, want default 300", f, err)
	}
	if f, err := QueryFloatParam(parse("since=0.5"), "since", 300); err != nil || f != 0.5 {
		t.Errorf("present = %g,%v", f, err)
	}
	for _, raw := range []string{"since=-1", "since=abc", "since=NaN", "since=Inf", "since="} {
		if _, err := QueryFloatParam(parse(raw), "since", 0); err == nil {
			t.Errorf("%s: accepted, want error", raw)
		}
	}
}

func TestReadyHandler(t *testing.T) {
	ready := false
	srv := httptest.NewServer(ReadyHandler(func() bool { return ready }))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 || !strings.Contains(string(body), "not ready") {
		t.Fatalf("unready: status %d body %q, want 503 not ready", resp.StatusCode, body)
	}
	ready = true
	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("ready: status %d body %q, want 200 ok", resp.StatusCode, body)
	}
}

func TestMetricsHandlerComposes(t *testing.T) {
	fr := NewFlightRecorder(FlightRecConfig{})
	fr.Record(TickRecord{WallMS: 5, DeadlineMS: 40})
	srv := httptest.NewServer(MetricsHandler(`zone="1"`, fr.WriteMetrics, WriteRuntimeMetrics))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		`roia_tick_wall_q_ms{zone="1",q="p50"} 5`,
		`roia_go_goroutines{zone="1"} `,
		"# TYPE roia_go_gc_runs_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("composed metrics missing %q:\n%s", want, out)
		}
	}
}

func TestWriteRuntimeMetricsNoLabels(t *testing.T) {
	var sb strings.Builder
	if err := WriteRuntimeMetrics(&sb, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "roia_go_heap_alloc_bytes ") {
		t.Fatalf("unlabeled runtime metrics missing:\n%s", sb.String())
	}
}
