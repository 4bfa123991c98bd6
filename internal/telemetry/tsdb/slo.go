// The SLO engine turns the paper's QoS definition — sustain the update
// rate U, i.e. finish every tick (and deliver every input→update round
// trip) within 1/U — into an error-budget contract over retained history.
// A point-in-time violation-rate alert answers "is it bad right now?"; the
// burn-rate rules answer the operational question "at this rate, will the
// objective survive the window?", using the multi-window multi-burn-rate
// discipline (a fast 10s/2m page and a slow 1m/12m warn) so a lone spike
// neither pages nor hides a slow bleed.
package tsdb

import (
	"fmt"
	"io"
	"strings"

	"roia/internal/telemetry"
)

// Selector names the counter series an SLI reads: every series of Family
// whose labels include the Match pairs is summed.
type Selector struct {
	Family string
	Match  map[string]string
}

// SLO declares one service-level objective over two cumulative counter
// families in the store: Total counts events, Bad counts the events that
// missed the contract. The error budget is 1-Objective of the events in
// BudgetWindowSec.
type SLO struct {
	// Name keys the SLO in metrics, rules and queries (e.g. "tick_deadline").
	Name string
	// Objective is the required good fraction in (0,1), e.g. 0.99: at most
	// 1% of events may miss the deadline.
	Objective float64
	// Total and Bad select the event and violation counters.
	Total, Bad Selector
}

// Burn-rate windows and thresholds: the Google SRE workbook's two-window
// pairs, scaled to the history the store retains. The budget horizon is
// that history, SeriesCapacity samples at one record per control second
// (12 minutes), and the windows keep the workbook's ratios to it (5m, 1h,
// 30m and 6h of a 6h budget): 10 s, 2 m, 1 m and 12 m. The fast pair pages
// on a budget-destroying burst (14.4×: the budget gone in under a minute);
// the slow pair warns on a sustained bleed. The error budget is accounted
// over BudgetWindowSec, the slow rule's long window, so "budget exhausted"
// and "slow burn at 1×" agree. Windows are in seconds of the store's clock.
const (
	FastShortSec    = historySec / 72
	FastLongSec     = historySec / 6
	FastThreshold   = 14.4
	SlowShortSec    = historySec / 12
	SlowLongSec     = historySec
	SlowThreshold   = 6
	BudgetWindowSec = SlowLongSec
	// historySec is the retained history at the 1 s record interval.
	historySec = SeriesCapacity * 1
)

// Rule names exported by SLOEngine.Rules.
const (
	RuleSLOBurnFast = "slo_burn_fast"
	RuleSLOBurnSlow = "slo_burn_slow"
)

// SLOEngine evaluates SLOs against the store's retained counter history.
// It is stateless between calls — every number is recomputed from the
// store, so the engine inherits the store's bounded retention and clock.
type SLOEngine struct {
	store *Store
	slos  []SLO
}

// NewSLOEngine returns an engine over the given SLOs.
func NewSLOEngine(st *Store, slos ...SLO) *SLOEngine {
	return &SLOEngine{store: st, slos: slos}
}

// IncreaseOver computes the reset-aware increase summed over every series
// matching sel in the window (now-windowSec, now]. The sample at or before
// the window start is the delta baseline, so a window that opens between
// two scrapes still measures the growth that landed inside it.
func (e *SLOEngine) IncreaseOver(sel Selector, windowSec, now float64) float64 {
	// Query one extra window back so the baseline sample is in hand; the
	// store bounds retention anyway.
	from := now - 2*windowSec
	start := now - windowSec
	var total float64
	for _, sd := range e.store.Query(sel.Family, sel.Match, from, now) {
		// Trim to the run starting at the last sample with T <= start.
		lo := 0
		for i, s := range sd.Samples {
			if s.T <= start {
				lo = i
			} else {
				break
			}
		}
		total += Increase(sd.Samples[lo:])
	}
	return total
}

// Increase computes the reset-aware increase of a cumulative counter over
// the given chronological samples: the sum of the positive deltas, with a
// decrease read as a restart contributing the new value (the Prometheus
// increase() convention). Fewer than two samples yield 0 — no
// extrapolation is attempted.
func Increase(samples []Sample) float64 {
	if len(samples) < 2 {
		return 0
	}
	var inc float64
	prev := samples[0].V
	for _, s := range samples[1:] {
		if s.V >= prev {
			inc += s.V - prev
		} else {
			inc += s.V // counter reset: the new value is all growth
		}
		prev = s.V
	}
	return inc
}

// holds reports whether the history of sel reaches back a full window
// before now.
func (e *SLOEngine) holds(sel Selector, windowSec, now float64) bool {
	for _, sd := range e.store.Query(sel.Family, sel.Match, now-2*windowSec, now) {
		if sd.Samples[0].T <= now-windowSec {
			return true
		}
	}
	return false
}

// BurnRate reports how fast the SLO consumes its error budget over the
// trailing window: the bad-event fraction divided by the budget fraction
// 1-Objective. 1.0 means "exactly sustainable"; 14.4 means the budget
// burns 14.4× faster than allotted. A window with no total events burns 0.
func (e *SLOEngine) BurnRate(s SLO, windowSec, now float64) float64 {
	total := e.IncreaseOver(s.Total, windowSec, now)
	if total <= 0 {
		return 0
	}
	bad := e.IncreaseOver(s.Bad, windowSec, now)
	budget := 1 - s.Objective
	if budget <= 0 {
		return 0
	}
	return (bad / total) / budget
}

// BudgetRemaining reports the unburned fraction of the SLO's error budget
// over BudgetWindowSec: 1 means untouched, 0 exhausted, negative
// overspent. (This is 1 minus the burn rate over the budget window.)
func (e *SLOEngine) BudgetRemaining(s SLO, now float64) float64 {
	return 1 - e.BurnRate(s, BudgetWindowSec, now)
}

// Rules returns the multi-window burn-rate rules for the alert engine, new
// telemetry.Rule kinds flowing through the same pending→firing→resolved
// lifecycle as the model-threshold rules:
//
//   - slo_burn_fast: burn rate over BOTH the fast short (10s) and fast
//     long (2m) windows exceeds FastThreshold (14.4×) — page-worthy; at
//     this rate the budget is gone within a minute. The short window makes
//     the rule resolve quickly once the burst ends; the long window keeps
//     a lone spike from paging.
//   - slo_burn_slow: burn rate over both the slow short (1m) and slow
//     long (12m) windows exceeds SlowThreshold (6×) — a sustained bleed
//     that will exhaust the budget within two minutes; warn-worthy.
//
// One instance per SLO (key = SLO name). A rule stays quiet until the
// store holds its short window, so a fresh store's first seconds cannot
// stand in for a whole window. The windows end at the store's now, the
// newest stamp, so the rules judge the history as its writer timed it,
// whatever timestamps the alert engine passes.
func (e *SLOEngine) Rules(pendingFor int) []telemetry.Rule {
	burn := func(shortSec, longSec, threshold float64) func(float64) []telemetry.RuleResult {
		return func(_ float64) []telemetry.RuleResult {
			now := e.store.Now()
			var out []telemetry.RuleResult
			for _, s := range e.slos {
				if !e.holds(s.Total, shortSec, now) {
					continue // too little history to judge the short window
				}
				short := e.BurnRate(s, shortSec, now)
				long := e.BurnRate(s, longSec, now)
				if short <= threshold || long <= threshold {
					continue
				}
				out = append(out, telemetry.RuleResult{
					Key:       s.Name,
					Value:     short,
					Threshold: threshold,
					Detail: fmt.Sprintf("error budget burning at %.1fx/%.1fx over %s/%s (budget %.2g, remaining %.0f%%)",
						short, long, fmtWindow(shortSec), fmtWindow(longSec),
						1-s.Objective, 100*e.BudgetRemaining(s, now)),
				})
			}
			return out
		}
	}
	return []telemetry.Rule{
		{Name: RuleSLOBurnFast, PendingFor: pendingFor, Eval: burn(FastShortSec, FastLongSec, FastThreshold)},
		{Name: RuleSLOBurnSlow, PendingFor: pendingFor, Eval: burn(SlowShortSec, SlowLongSec, SlowThreshold)},
	}
}

// fmtWindow renders a window length in seconds as a compact duration
// ("10s", "2m", "12m").
func fmtWindow(sec float64) string {
	switch {
	case sec >= 3600 && sec == float64(int(sec/3600))*3600:
		return fmt.Sprintf("%dh", int(sec/3600))
	case sec >= 60 && sec == float64(int(sec/60))*60:
		return fmt.Sprintf("%dm", int(sec/60))
	default:
		return fmt.Sprintf("%gs", sec)
	}
}

// WriteMetrics exports the live SLO state in the Prometheus text
// exposition format; it matches telemetry.MetricsWriter.
//
// Exported families:
//
//	roia_slo_objective{slo}          gauge, the declared good fraction
//	roia_slo_budget_remaining{slo}   gauge, unburned budget over the
//	                                 budget window (1 full … <0 overspent)
//	roia_slo_burn_rate{slo,window}   gauge, burn rate over each rule
//	                                 window, shortest first
func (e *SLOEngine) WriteMetrics(w io.Writer, labels string) error {
	now := e.store.Now()
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_slo_objective gauge\n")
	for _, s := range e.slos {
		fmt.Fprintf(&b, "roia_slo_objective%s %g\n",
			telemetry.FormatLabels(labels, fmt.Sprintf("slo=%q", s.Name)), s.Objective)
	}
	fmt.Fprintf(&b, "# TYPE roia_slo_budget_remaining gauge\n")
	for _, s := range e.slos {
		fmt.Fprintf(&b, "roia_slo_budget_remaining%s %g\n",
			telemetry.FormatLabels(labels, fmt.Sprintf("slo=%q", s.Name)), e.BudgetRemaining(s, now))
	}
	fmt.Fprintf(&b, "# TYPE roia_slo_burn_rate gauge\n")
	for _, s := range e.slos {
		for _, win := range []float64{FastShortSec, SlowShortSec, FastLongSec, SlowLongSec} {
			fmt.Fprintf(&b, "roia_slo_burn_rate%s %g\n",
				telemetry.FormatLabels(labels, fmt.Sprintf("slo=%q,window=%q", s.Name, fmtWindow(win))),
				e.BurnRate(s, win, now))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
