// Package metricname holds metricname fixtures: exposition grammar
// violations, TYPE conflicts, label drift, and the clean shapes.
package metricname

import (
	"fmt"
	"io"
	"strings"
)

// Bad: family casing breaks the grammar; kind "count" is not a metric type.
func badHeaders(w io.Writer) {
	fmt.Fprintf(w, "# TYPE roia_BadCase_total counter\nroia_BadCase_total %d\n", 1)
	fmt.Fprintf(w, "# TYPE myapp_ticks counter\n")
	fmt.Fprintf(w, "# TYPE roia_thing_total count\nroia_thing_total %d\n", 2)
}

// Bad: the same family declared with two different types.
func conflict(w io.Writer) {
	fmt.Fprintf(w, "# TYPE roia_conflict_total counter\nroia_conflict_total %d\n", 1)
	fmt.Fprintf(w, "# TYPE roia_conflict_total gauge\nroia_conflict_total %d\n", 2)
}

// Bad: one family written with two different label-key sets.
func labelDrift(w io.Writer) {
	fmt.Fprintf(w, "# TYPE roia_label_ms gauge\n")
	fmt.Fprintf(w, "roia_label_ms{stat=\"p95\"} %g\n", 1.0)
	fmt.Fprintf(w, "roia_label_ms{zone=\"1\"} %g\n", 2.0)
}

// Bad: a sample family that is never TYPE-declared anywhere.
func undeclared(w io.Writer) {
	fmt.Fprintf(w, "roia_undeclared_total %d\n", 3)
}

// Bad: a tail-quantile family whose label key drifts from "q" to
// "quantile" between samples.
func quantileDrift(w io.Writer) {
	fmt.Fprintf(w, "# TYPE roia_fleet_tick_wall_q_ms gauge\n")
	fmt.Fprintf(w, "roia_fleet_tick_wall_q_ms{q=\"p50\"} %g\n", 1.0)
	fmt.Fprintf(w, "roia_fleet_tick_wall_q_ms{quantile=\"0.99\"} %g\n", 2.0)
}

// Bad: an egress family whose label key drifts from "type" to "kind".
func egressDrift(w io.Writer) {
	fmt.Fprintf(w, "# TYPE roia_egress_bytes_total counter\n")
	fmt.Fprintf(w, "roia_egress_bytes_total{type=\"state_update\"} %d\n", 1)
	fmt.Fprintf(w, "roia_egress_bytes_total{kind=\"input\"} %d\n", 2)
}

// Good: the cost observability families — per-stage allocation counters,
// GC pause totals and quantile gauges, per-type egress counters, and AoI
// churn quantiles, each with one constant label-key set.
func costClean(w io.Writer) {
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_alloc_bytes_total counter\n")
	fmt.Fprintf(&b, "roia_alloc_bytes_total%s %d\n", fmt.Sprintf("stage=%q", "decode"), 10)
	fmt.Fprintf(&b, "roia_alloc_bytes_total%s %d\n", fmt.Sprintf("stage=%q", "publish"), 20)
	fmt.Fprintf(&b, "# TYPE roia_gc_cycles_total counter\nroia_gc_cycles_total %d\n", 3)
	fmt.Fprintf(&b, "# TYPE roia_gc_pause_ms_total counter\nroia_gc_pause_ms_total %g\n", 0.5)
	fmt.Fprintf(&b, "# TYPE roia_gc_pause_q_ms gauge\n")
	fmt.Fprintf(&b, "roia_gc_pause_q_ms{q=\"0.99\"} %g\n", 0.1)
	fmt.Fprintf(&b, "roia_gc_pause_q_ms{q=\"1\"} %g\n", 0.4)
	fmt.Fprintf(&b, "# TYPE roia_egress_client_bytes_total counter\nroia_egress_client_bytes_total %d\n", 512)
	fmt.Fprintf(&b, "# TYPE roia_egress_payload_q_bytes gauge\n")
	fmt.Fprintf(&b, "roia_egress_payload_q_bytes{q=\"0.5\"} %g\n", 96.0)
	fmt.Fprintf(&b, "# TYPE roia_aoi_churn_enter_q gauge\n")
	fmt.Fprintf(&b, "roia_aoi_churn_enter_q{q=\"0.99\"} %g\n", 2.0)
	_, _ = io.WriteString(w, b.String())
}

// Good: well-formed families, consistent kinds and labels.
func clean(w io.Writer, labels string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_ok_total counter\nroia_ok_total %d\n", 1)
	fmt.Fprintf(&b, "# TYPE fleet_ok_users gauge\n")
	fmt.Fprintf(&b, "fleet_ok_users%s %d\n", fmt.Sprintf("zone=%q", "1"), 4)
	fmt.Fprintf(&b, "fleet_ok_users%s %d\n", fmt.Sprintf("zone=%q", "2"), 5)
	// Dynamic label sets are out of static reach and stay unflagged.
	fmt.Fprintf(&b, "# TYPE roia_dyn_total counter\n")
	fmt.Fprintf(&b, "roia_dyn_total%s %d\n", labels, 6)
	// Good: the tail observability families — one gauge family carrying its
	// quantile in a constant "q" label, and plain hiccup/capture counters.
	fmt.Fprintf(&b, "# TYPE roia_tick_wall_q_ms gauge\n")
	fmt.Fprintf(&b, "roia_tick_wall_q_ms{q=\"p50\"} %g\n", 0.2)
	fmt.Fprintf(&b, "roia_tick_wall_q_ms{q=\"p999\"} %g\n", 1.4)
	fmt.Fprintf(&b, "# TYPE roia_tick_hiccups_total counter\nroia_tick_hiccups_total %d\n", 7)
	fmt.Fprintf(&b, "# TYPE roia_flightrec_captures_total counter\nroia_flightrec_captures_total %d\n", 1)
	_, err := io.WriteString(w, b.String())
	return err
}
