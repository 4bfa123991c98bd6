package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Span is one timed section of a tick (one of the paper's t_* tasks, or an
// application-defined section). StartMS is the offset from the start of the
// tick, so spans compose into a flame chart without absolute clocks.
type Span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	// Items is the task's per-tick item count (inputs deserialized, users
	// updated, ...), carried into the trace viewer's args pane.
	Items int `json:"items,omitempty"`
}

// traceEvent is one Chrome trace_event entry (the "X" complete-event form).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format of the trace_event specification,
// loadable in Perfetto and chrome://tracing.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace renders tick records as Chrome trace_event JSON. Each
// tick becomes one enclosing "tick" event on tid 0 plus one event per task
// span on tid 1, positioned on the tick's wall-clock timebase so
// consecutive ticks lay out as a timeline.
func WriteChromeTrace(w io.Writer, recs []TickRecord) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]traceEvent, 0, len(recs)*4)}
	for _, t := range recs {
		base := float64(t.StartUnixMicro)
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "tick", Ph: "X", TS: base, Dur: t.WallMS * 1000, PID: 1, TID: 0,
			Args: map[string]any{"tick": t.Tick, "tasks_ms": t.CPUMS},
		})
		for _, s := range t.Tasks {
			ev := traceEvent{
				Name: s.Name, Ph: "X",
				TS: base + s.StartMS*1000, Dur: s.DurMS * 1000,
				PID: 1, TID: 1,
			}
			if s.Items > 0 {
				ev.Args = map[string]any{"items": s.Items}
			}
			out.TraceEvents = append(out.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteTraceJSONL renders tick records as JSONL, one TickRecord object per
// line: the grep/jq-friendly export.
func WriteTraceJSONL(w io.Writer, recs []TickRecord) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("telemetry: encode tick %d: %w", recs[i].Tick, err)
		}
	}
	return nil
}

// TraceHandler serves the flight recorder's recent tick records over HTTP
// (the /debug/ticktrace endpoint). Query parameters:
//
//	n       number of most recent ticks to export (default 100, 0 = all)
//	format  "chrome" (default; trace_event JSON for Perfetto) or "jsonl"
func TraceHandler(r *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n, err := QueryIntParam(req.URL.Query(), "n", 100)
		if err != nil {
			http.Error(w, "ticktrace: "+err.Error(), http.StatusBadRequest)
			return
		}
		write, ctype := WriteChromeTrace, "application/json"
		switch req.URL.Query().Get("format") {
		case "", "chrome":
		case "jsonl":
			write, ctype = WriteTraceJSONL, "application/x-ndjson"
		default:
			http.Error(w, "ticktrace: format must be chrome or jsonl", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", ctype)
		if err := write(w, r.Last(n)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
