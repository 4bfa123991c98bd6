package fleet_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"roia/internal/model"
	"roia/internal/rtf/fleet"
	"roia/internal/telemetry"
)

// queryLine is one decoded /fleet/query JSONL line.
type queryLine struct {
	Family string            `json:"family"`
	Labels map[string]string `json:"labels"`
	Kind   string            `json:"kind"`
	T      float64           `json:"t"`
	V      float64           `json:"v"`
}

// query GETs /fleet/query with the given parameters and decodes the lines.
func query(t *testing.T, base, params string) []queryLine {
	t.Helper()
	resp, err := http.Get(base + "/fleet/query?" + params)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %s: status = %d: %s", params, resp.StatusCode, body)
	}
	var out []queryLine
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" {
			continue
		}
		var ql queryLine
		if err := json.Unmarshal([]byte(line), &ql); err != nil {
			t.Fatalf("bad JSONL %q: %v", line, err)
		}
		out = append(out, ql)
	}
	return out
}

// status GETs path and returns the response status.
func status(t *testing.T, base, path string) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCollectorRecordsHistory drives the collector's one history writer:
// /fleet/metrics scrapes append nothing, every Record(t) lands one sample
// per point stamped with the session second t, and /fleet/query serves
// every family the scrape carries.
func TestCollectorRecordsHistory(t *testing.T) {
	h := newObsHarness(t)
	for i := 0; i < 3; i++ {
		h.addBot(t, "server-1")
	}
	for i := 0; i < 5; i++ {
		h.step()
	}

	col := fleet.NewCollector(fleet.CollectorConfig{
		Fleets: []*fleet.Fleet{h.fl},
		Model:  tinyModel(t),
		ClientLatency: func() telemetry.LatencySnapshot {
			return telemetry.LatencySnapshot{Count: 100, Violations: 2}
		},
	})
	ts := httptest.NewServer(col.Handler())
	t.Cleanup(ts.Close)

	// Scrapes serve the model ceilings but do not record.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/fleet/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range []string{
			"# TYPE roia_fleet_nmax gauge",
			`roia_fleet_nmax{zone="1"}`,
			`roia_fleet_lmax{zone="1"}`,
		} {
			if !strings.Contains(string(body), want) {
				t.Fatalf("scrape with a model missing %q:\n%s", want, body)
			}
		}
	}
	if got := col.Recorded(); got != 0 {
		t.Fatalf("Recorded after two scrapes = %d, want 0: only Record writes history", got)
	}
	if got := query(t, ts.URL, "family=roia_fleet_ticks_total"); len(got) != 0 {
		t.Fatalf("history after two scrapes = %+v, want none", got)
	}
	// healthz refuses before the first Record.
	if code := status(t, ts.URL, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz before the first record: status = %d, want 503", code)
	}

	// Three control seconds, session seconds 7, 8, 9.
	for sec := 7; sec <= 9; sec++ {
		col.Record(float64(sec))
	}
	if got := col.Recorded(); got != 3 {
		t.Fatalf("Recorded = %d, want 3", got)
	}
	if code := status(t, ts.URL, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after record: status = %d, want 200", code)
	}

	// The history serves range queries per replica, on the session clock.
	var times []float64
	for _, ql := range query(t, ts.URL, "family=roia_fleet_ticks_total&label=replica=server-1&since=10") {
		if ql.Labels["replica"] != "server-1" || ql.Labels["zone"] != "1" || ql.Kind != "counter" {
			t.Fatalf("line = %+v, want counter {zone=1, replica=server-1}", ql)
		}
		times = append(times, ql.T)
	}
	if len(times) != 3 || times[0] != 7 || times[2] != 9 {
		t.Fatalf("retained timestamps = %v, want the session seconds [7 8 9]", times)
	}
	// since counts back from the newest stamp, not from the wall clock.
	if got := query(t, ts.URL, "family=roia_fleet_ticks_total&since=1"); len(got) != 2 {
		t.Fatalf("since=1 back from second 9 = %d samples, want 2 (seconds 8, 9)", len(got))
	}

	// Every family of the scrape is stored, the ones the old second list
	// left out included.
	for _, q := range []struct{ params, want string }{
		{"family=roia_client_rtt_count", `"roia_client_rtt_count"`},
		{"family=roia_fleet_nmax&label=zone=1", `"roia_fleet_nmax"`},
		{"family=roia_fleet_tick_wall_q_ms&label=q=p999", "p999"},
		{"family=roia_fleet_deadline_ms&label=replica=server-1", "server-1"},
		{"family=roia_fleet_flightrec_captures_total", "server-1"},
		{"family=roia_fleet_draining", "server-1"},
		{"family=roia_fleet_migrations&label=state=incomplete", "incomplete"},
		{"family=roia_client_rtt_ms&label=stat=p99", "p99"},
	} {
		got := query(t, ts.URL, q.params)
		if len(got) != 3 {
			t.Fatalf("%s: %d samples, want 3", q.params, len(got))
		}
		line, _ := json.Marshal(got[0])
		if !strings.Contains(string(line), q.want) {
			t.Fatalf("%s: %s, want %s", q.params, line, q.want)
		}
	}

	// Bad query parameters are rejected, not served; step is gone.
	for _, params := range []string{"family=roia_fleet_ticks_total&since=-1", "family=roia_fleet_ticks_total&since=60&step=10"} {
		if code := status(t, ts.URL, "/fleet/query?"+params); code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", params, code)
		}
	}

	// Dashboards scrape and query while the control loop records, as in
	// roiarms (run under -race).
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := col.WriteMetrics(io.Discard, ""); err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Get(ts.URL + "/fleet/query?family=roia_fleet_users")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query during Record: status = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for sec := 10; sec < 30; sec++ {
		col.Record(float64(sec))
	}
	wg.Wait()
	if got := col.Recorded(); got != 23 {
		t.Fatalf("Recorded = %d, want 23", got)
	}
}

// TestSLOBurnOnSessionClock runs 400 control seconds of one replica in a
// fraction of a wall second: every tick of the first minute misses the
// deadline, none after it. On the session clock the 1 m burn window
// (seconds 340..400) is clean while the 12 m window still holds the bad
// minute; stamped with the wall clock, both windows would span the run.
func TestSLOBurnOnSessionClock(t *testing.T) {
	h := newTailHarness(t)
	srv, _ := h.fl.Server("server-1")
	col := fleet.NewCollector(fleet.CollectorConfig{Fleets: []*fleet.Fleet{h.fl}})
	for sec := 0; sec < 400; sec++ {
		wall := 2.0
		if sec < 60 {
			wall = 50
		}
		for tick := 0; tick < 25; tick++ {
			srv.FlightRecorder().Record(telemetry.TickRecord{WallMS: wall, DeadlineMS: 40, Users: 1})
		}
		col.Record(float64(sec))
	}
	var b strings.Builder
	if err := col.WriteMetrics(&b, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if burn := metricValue(t, out, "roia_slo_burn_rate", `slo="tick_deadline",window="1m"`); burn != 0 {
		t.Fatalf("1m burn = %g, want 0: the last 60 session seconds were clean", burn)
	}
	if burn := metricValue(t, out, "roia_slo_burn_rate", `slo="tick_deadline",window="12m"`); burn <= 0 {
		t.Fatalf("12m burn = %g, want > 0: the bad first minute is inside the 12 minutes", burn)
	}
}

// newSessionCollector wires a collector the way roiarms -fleet-metrics
// does: the model ceilings, the client RTT source, the retained history
// and its two SLOs.
func newSessionCollector(fl *fleet.Fleet, mdl *model.Model, rtt *telemetry.Latency) *fleet.Collector {
	return fleet.NewCollector(fleet.CollectorConfig{
		Fleets:        []*fleet.Fleet{fl},
		Model:         mdl,
		ClientLatency: rtt.Snapshot,
	})
}
