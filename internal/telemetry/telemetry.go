// Package telemetry is the observability layer of the reproduction: the
// paper's whole contribution is making the real-time loop legible —
// decomposing a tick into timed tasks (Section III-C) and using those
// measurements to drive RTF-RMS decisions — and this package turns that
// legibility into machine-readable exhaust:
//
//   - FlightRecorder keeps every server's one tick history: a bounded
//     ring of TickRecords (task spans, workload gauges, GC and allocation
//     cost, egress, migration phases), summarised for the resource
//     manager, /metrics and the alert rules (Summary), exportable as
//     Chrome trace_event JSON or JSONL (trace.go), with pre/post captures
//     around deadline misses and hiccups (flightrec.go);
//   - DecisionRecord / AuditLog capture every RTF-RMS control-loop step —
//     its inputs, the model thresholds that gated the choice, and the
//     resulting actions with reasons — as JSONL (audit.go);
//   - LogHistogram is a mergeable log-bucketed histogram for the clients'
//     input→update round trips (loghist.go, latency.go);
//   - WriteRuntimeMetrics exposes Go runtime health (goroutines, heap, GC)
//     next to the application metrics (this file).
//
// The package depends only on the standard library and the leaf package
// stats, so that monitor, rms and server can all import it without cycles.
package telemetry

import (
	"fmt"
	"io"
	"runtime"
	"strings"
)

// FormatLabels renders an optional comma-separated label set plus extra
// labels into the {...} form of the Prometheus text exposition. Both
// arguments may be empty.
func FormatLabels(labels, extra string) string {
	parts := make([]string, 0, 2)
	if labels != "" {
		parts = append(parts, labels)
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteRuntimeMetrics writes Go runtime health metrics in the Prometheus
// text exposition format: goroutine count, heap usage, and GC activity.
// labels is an optional comma-separated label set rendered into every
// sample.
//
// Exported families:
//
//	roia_go_goroutines            current goroutine count
//	roia_go_heap_alloc_bytes      live heap bytes
//	roia_go_heap_objects          live heap object count
//	roia_go_gc_runs_total         completed GC cycles
//	roia_go_gc_pause_total_ms     cumulative stop-the-world pause time
//	roia_go_gc_pause_last_ms      most recent stop-the-world pause
func WriteRuntimeMetrics(w io.Writer, labels string) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lbl := FormatLabels(labels, "")
	lastPause := 0.0
	if ms.NumGC > 0 {
		lastPause = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e6
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_go_goroutines gauge\nroia_go_goroutines%s %d\n", lbl, runtime.NumGoroutine())
	fmt.Fprintf(&b, "# TYPE roia_go_heap_alloc_bytes gauge\nroia_go_heap_alloc_bytes%s %d\n", lbl, ms.HeapAlloc)
	fmt.Fprintf(&b, "# TYPE roia_go_heap_objects gauge\nroia_go_heap_objects%s %d\n", lbl, ms.HeapObjects)
	fmt.Fprintf(&b, "# TYPE roia_go_gc_runs_total counter\nroia_go_gc_runs_total%s %d\n", lbl, ms.NumGC)
	fmt.Fprintf(&b, "# TYPE roia_go_gc_pause_total_ms counter\nroia_go_gc_pause_total_ms%s %g\n", lbl, float64(ms.PauseTotalNs)/1e6)
	fmt.Fprintf(&b, "# TYPE roia_go_gc_pause_last_ms gauge\nroia_go_gc_pause_last_ms%s %g\n", lbl, lastPause)
	_, err := io.WriteString(w, b.String())
	return err
}
