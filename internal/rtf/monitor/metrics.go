package monitor

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"roia/internal/telemetry"
)

// WriteMetrics writes the monitor's current state in the Prometheus text
// exposition format (stdlib only), so a standard monitoring stack can
// scrape a live RTF server. labels is an optional comma-separated label
// set rendered into every sample (e.g. `server="s1",zone="1"`).
//
// Exported families:
//
//	roia_ticks_total                       counter, processed ticks
//	roia_tick_stat_ms{stat=...}            mean/p50/p95/p99/max of recent
//	                                       tick wall durations
//	roia_tick_wall_q_ms{q=...}             windowed tail gauges of tick wall
//	                                       durations (p50/p90/p99/p999 over
//	                                       the last ~1–2k ticks)
//	roia_tick_cpu_stat_ms{stat=...}        mean/p95 of recent tick CPU sums
//	                                       (across workers; ÷ wall = live
//	                                       pipeline speedup)
//	roia_task_ms{task=...,stat=...}        per-item cost of each model parameter
//	roia_zone_users / roia_active_users    the model's n and a
//	roia_npcs / roia_replicas              the model's m and l
//	roia_tick_bytes{direction=...}         wire bytes of the last tick
//	roia_tick_deadline_ms                  QoS tick deadline 1/U (0 = off)
//	roia_tick_deadline_violations_total    ticks that exceeded the deadline
//	roia_monitor_dropped_samples_total     calibration observations discarded
//	                                       at the sample-log cap
//
// WriteMetrics matches telemetry.MetricsWriter, so it composes with the
// drift and runtime sections via telemetry.MetricsHandler.
func (m *Monitor) WriteMetrics(w io.Writer, labels string) error {
	m.mu.Lock()
	ticks := m.ticks
	dropped := m.dropped
	deadline := m.deadlineMS
	violations := m.violations
	tickSummary := m.tickTotals.Summary()
	cpuSummary := m.tickCPU.Summary()
	tailQ := m.tail.Quantiles()
	last := m.lastBreak
	type taskStat struct {
		task Task
		sum  struct{ mean, p95 float64 }
		n    int
	}
	var tasks []taskStat
	for t := Task(0); t < numTasks; t++ {
		s := m.perTask[t].Summary()
		if s.Count == 0 {
			continue
		}
		ts := taskStat{task: t, n: s.Count}
		ts.sum.mean, ts.sum.p95 = s.Mean, s.P95
		tasks = append(tasks, ts)
	}
	m.mu.Unlock()

	lbl := func(extra string) string { return telemetry.FormatLabels(labels, extra) }

	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_ticks_total counter\n")
	fmt.Fprintf(&b, "roia_ticks_total%s %d\n", lbl(""), ticks)

	fmt.Fprintf(&b, "# TYPE roia_tick_stat_ms gauge\n")
	for _, st := range []struct {
		name string
		v    float64
	}{
		{"mean", tickSummary.Mean}, {"p50", tickSummary.P50},
		{"p95", tickSummary.P95}, {"p99", tickSummary.P99}, {"max", tickSummary.Max},
	} {
		fmt.Fprintf(&b, "roia_tick_stat_ms%s %g\n", lbl(fmt.Sprintf("stat=%q", st.name)), st.v)
	}

	fmt.Fprintf(&b, "# TYPE roia_tick_wall_q_ms gauge\n")
	for _, st := range []struct {
		name string
		v    float64
	}{
		{"p50", tailQ.P50}, {"p90", tailQ.P90}, {"p99", tailQ.P99}, {"p999", tailQ.P999},
	} {
		fmt.Fprintf(&b, "roia_tick_wall_q_ms%s %g\n", lbl(fmt.Sprintf("q=%q", st.name)), st.v)
	}

	fmt.Fprintf(&b, "# TYPE roia_tick_cpu_stat_ms gauge\n")
	for _, st := range []struct {
		name string
		v    float64
	}{
		{"mean", cpuSummary.Mean}, {"p95", cpuSummary.P95},
	} {
		fmt.Fprintf(&b, "roia_tick_cpu_stat_ms%s %g\n", lbl(fmt.Sprintf("stat=%q", st.name)), st.v)
	}

	fmt.Fprintf(&b, "# TYPE roia_task_ms gauge\n")
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].task < tasks[j].task })
	for _, ts := range tasks {
		fmt.Fprintf(&b, "roia_task_ms%s %g\n",
			lbl(fmt.Sprintf("task=%q,stat=\"mean\"", ts.task)), ts.sum.mean)
		fmt.Fprintf(&b, "roia_task_ms%s %g\n",
			lbl(fmt.Sprintf("task=%q,stat=\"p95\"", ts.task)), ts.sum.p95)
	}

	fmt.Fprintf(&b, "# TYPE roia_zone_users gauge\nroia_zone_users%s %d\n", lbl(""), last.Users)
	fmt.Fprintf(&b, "# TYPE roia_active_users gauge\nroia_active_users%s %d\n", lbl(""), last.ActiveUsers)
	fmt.Fprintf(&b, "# TYPE roia_npcs gauge\nroia_npcs%s %d\n", lbl(""), last.NPCs)
	fmt.Fprintf(&b, "# TYPE roia_replicas gauge\nroia_replicas%s %d\n", lbl(""), last.Replicas)
	fmt.Fprintf(&b, "# TYPE roia_tick_bytes gauge\n")
	fmt.Fprintf(&b, "roia_tick_bytes%s %d\n", lbl(`direction="in"`), last.BytesIn)
	fmt.Fprintf(&b, "roia_tick_bytes%s %d\n", lbl(`direction="out"`), last.BytesOut)
	fmt.Fprintf(&b, "# TYPE roia_tick_deadline_ms gauge\nroia_tick_deadline_ms%s %g\n", lbl(""), deadline)
	fmt.Fprintf(&b, "# TYPE roia_tick_deadline_violations_total counter\n")
	fmt.Fprintf(&b, "roia_tick_deadline_violations_total%s %d\n", lbl(""), violations)
	fmt.Fprintf(&b, "# TYPE roia_monitor_dropped_samples_total counter\n")
	fmt.Fprintf(&b, "roia_monitor_dropped_samples_total%s %d\n", lbl(""), dropped)

	_, err := io.WriteString(w, b.String())
	return err
}

// MetricsHandler serves WriteMetrics over HTTP, for a /metrics endpoint on
// a live server (see cmd/roiaserver -metrics). To add the model-drift and
// Go-runtime sections to the same scrape, compose with
// telemetry.MetricsHandler instead.
func MetricsHandler(m *Monitor, labels string) http.Handler {
	return telemetry.MetricsHandler(labels, m.WriteMetrics)
}
