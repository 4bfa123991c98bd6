package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func sampleTick(tick uint64) TickRecord {
	return TickRecord{
		Tick:           tick,
		StartUnixMicro: int64(tick) * 40_000,
		WallMS:         1.2,
		CPUMS:          1.0,
		Tasks: []Span{
			{Name: "t_ua", StartMS: 0, DurMS: 0.5, Items: 10},
			{Name: "t_aoi", StartMS: 0.5, DurMS: 0.3, Items: 10},
			{Name: "t_su", StartMS: 0.8, DurMS: 0.2, Items: 10},
		},
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	traces := []TickRecord{sampleTick(1), sampleTick(2)}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, traces); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("not valid trace_event JSON: %v\n%s", err, sb.String())
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", decoded.DisplayTimeUnit)
	}
	// 2 ticks × (1 enclosing event + 3 spans).
	if len(decoded.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(decoded.TraceEvents))
	}
	// Per tick: the span events must sum to the breakdown total, and every
	// event must be a complete ("X") event inside its tick window.
	spanSum := 0.0
	var tickDur float64
	for _, ev := range decoded.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has ph=%q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "tick" {
			tickDur = ev.Dur
			continue
		}
		if ev.TID != 1 {
			t.Fatalf("span %q on tid %d", ev.Name, ev.TID)
		}
		spanSum += ev.Dur
	}
	wantSum := 2 * sampleTick(1).CPUMS * 1000 // µs
	if math.Abs(spanSum-wantSum) > 1e-9 {
		t.Fatalf("span durations sum to %g µs, want %g", spanSum, wantSum)
	}
	if tickDur != 1.2*1000 {
		t.Fatalf("tick event dur = %g µs, want 1200", tickDur)
	}
}

func TestWriteTraceJSONLRoundTrip(t *testing.T) {
	traces := []TickRecord{sampleTick(1), sampleTick(2), sampleTick(3)}
	var sb strings.Builder
	if err := WriteTraceJSONL(&sb, traces); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var tt TickRecord
		if err := json.Unmarshal([]byte(line), &tt); err != nil {
			t.Fatalf("line %d invalid: %v", i, err)
		}
		if tt.Tick != traces[i].Tick || len(tt.Tasks) != 3 {
			t.Fatalf("line %d round-trip mismatch: %+v", i, tt)
		}
	}
}
