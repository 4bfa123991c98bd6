package tsdb

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestQueryHandlerValidation(t *testing.T) {
	st := NewStore()
	appendAt(st, 100, "roia_x", Gauge, 1)
	h := QueryHandler(st)
	cases := []struct {
		url  string
		code int
	}{
		{"/fleet/query", http.StatusBadRequest},                                // family required
		{"/fleet/query?family=Robots;DROP", http.StatusBadRequest},             // grammar
		{"/fleet/query?family=http_requests", http.StatusBadRequest},           // wrong prefix
		{"/fleet/query?family=roia_x&since=abc", http.StatusBadRequest},        // non-numeric
		{"/fleet/query?family=roia_x&since=-5", http.StatusBadRequest},         // negative
		{"/fleet/query?family=roia_x&since=1e300", http.StatusBadRequest},      // over the cap
		{"/fleet/query?family=roia_x&since=NaN", http.StatusBadRequest},        // NaN
		{"/fleet/query?family=roia_x&step=nope", http.StatusBadRequest},        // step is gone
		{"/fleet/query?family=roia_x&since=60&step=10", http.StatusBadRequest}, // step is gone
		{"/fleet/query?family=roia_x&label=broken", http.StatusBadRequest},     // label not k=v
		{"/fleet/query?family=roia_y", http.StatusOK},                          // empty result is fine
		{"/fleet/query?family=roia_x&since=60&label=zone=1", http.StatusOK},    // fully specified
		{"/fleet/query?family=fleet_y&since=0.5", http.StatusOK},               // fleet_ prefix ok
	}
	for _, tc := range cases {
		req := httptest.NewRequest("GET", tc.url, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.code {
			t.Errorf("%s: status = %d, want %d (body %q)", tc.url, rec.Code, tc.code, rec.Body.String())
		}
	}
}

// TestQueryHandlerRawSamples pins /fleet/query's JSONL: one line per raw
// sample, chronological per series, selected by label and by a lookback
// measured back from the store's newest stamp.
func TestQueryHandlerRawSamples(t *testing.T) {
	st := NewStore()
	for i := 1; i <= 20; i++ {
		appendAt(st, float64(i), "roia_fleet_tick_wall_q_ms", Gauge, float64(i), "zone", "1", "q", "p99")
		appendAt(st, float64(i), "roia_fleet_tick_wall_q_ms", Gauge, 2, "zone", "2", "q", "p99")
	}

	req := httptest.NewRequest("GET", "/fleet/query?family=roia_fleet_tick_wall_q_ms&label=zone=1&since=5", nil)
	rec := httptest.NewRecorder()
	QueryHandler(st).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var times []float64
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var ql struct {
			Family string            `json:"family"`
			Labels map[string]string `json:"labels"`
			Kind   string            `json:"kind"`
			T      *float64          `json:"t"`
			V      *float64          `json:"v"`
		}
		if err := json.Unmarshal([]byte(line), &ql); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ql.Family != "roia_fleet_tick_wall_q_ms" || ql.Labels["zone"] != "1" || ql.Labels["q"] != "p99" {
			t.Fatalf("series filter leaked: %q", line)
		}
		if ql.Kind != "gauge" {
			t.Errorf("kind = %q, want gauge", ql.Kind)
		}
		if ql.T == nil || ql.V == nil || *ql.T != *ql.V {
			t.Fatalf("line %q: want a raw sample with v = t", line)
		}
		times = append(times, *ql.T)
	}
	// since=5 back from the newest stamp 20 covers [15, 20].
	if len(times) != 6 || times[0] != 15 || times[5] != 20 {
		t.Fatalf("sample times = %v, want 15..20", times)
	}
}
