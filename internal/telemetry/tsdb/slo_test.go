package tsdb

import (
	"math"
	"strings"
	"testing"

	"roia/internal/telemetry"
)

// approx absorbs float division rounding (0.2/0.01 ≠ exactly 20).
func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// feedTicks appends one scrape of the tick counters: cumulative ticks and
// cumulative deadline violations at time t.
func feedTicks(st *Store, t, ticks, violations float64) {
	lbl := []string{"zone", "1", "replica", "r1"}
	st.Append(t,
		Point{Family: "roia_fleet_ticks_total", Kind: Counter, Labels: lbl, V: ticks},
		Point{Family: "roia_fleet_deadline_violations_total", Kind: Counter, Labels: lbl, V: violations})
}

func tickSLO() SLO {
	return SLO{
		Name:      "tick_deadline",
		Objective: 0.99,
		Total:     Selector{Family: "roia_fleet_ticks_total"},
		Bad:       Selector{Family: "roia_fleet_deadline_violations_total"},
	}
}

func TestBurnRateHandComputed(t *testing.T) {
	// The whole synthetic session fits in the rings.
	st := NewStore()
	s := tickSLO()
	e := NewSLOEngine(st, s)

	// 25 ticks/s for 600 s; violations appear only in (300, 600]: 5 of the
	// 25 ticks each second miss the deadline → bad fraction 0.2.
	var viol float64
	for sec := 0; sec <= 600; sec++ {
		if sec > 300 {
			viol += 5
		}
		feedTicks(st, float64(sec), float64(25*sec), viol)
	}
	now := 600.0
	// Over the last 300 s: bad = 5*300 = 1500, total = 25*300 = 7500 →
	// fraction 0.2; budget 0.01 → burn 20.
	if burn := e.BurnRate(s, 300, now); !approx(burn, 20) {
		t.Errorf("BurnRate(5m) = %g, want 20", burn)
	}
	// Over the last 600 s: bad 1500, total 15000 → fraction 0.1 → burn 10.
	if burn := e.BurnRate(s, 600, now); !approx(burn, 10) {
		t.Errorf("BurnRate(10m) = %g, want 10", burn)
	}
	// Budget over the 6 h window: only 600 s of history exists, so
	// the increase-based accounting sees the same 1500/15000 → burn 10 →
	// remaining 1-10 = -9 (overspent).
	if rem := e.BudgetRemaining(s, now); !approx(rem, -9) {
		t.Errorf("BudgetRemaining = %g, want -9", rem)
	}
	// A healthy window burns 0: all violations stopped by t=300 in reverse —
	// query the clean prefix via a shifted now.
	if burn := e.BurnRate(s, 300, 300); burn != 0 {
		t.Errorf("BurnRate over the clean prefix = %g, want 0", burn)
	}
}

// TestSLOBurstLifecycle drives a synthetic deadline-violation burst
// through the alert engine and asserts the burn rules pass pending →
// firing → resolved at both the fast and slow windows. The rings retain
// SeriesCapacity (720) seconds at 1 Hz, so the 1h, 30m and 6h windows read
// the whole retained history and the 5m window is the only one shorter.
func TestSLOBurstLifecycle(t *testing.T) {
	st := NewStore()
	e := NewSLOEngine(st, tickSLO())

	sink := &telemetry.MemoryAlerts{}
	engine := telemetry.NewAlertEngine(sink, e.Rules(1)...)

	var ticks, viol float64
	step := func(sec int, badPerSec float64) {
		ticks += 25
		viol += badPerSec
		feedTicks(st, float64(sec), ticks, viol)
		engine.Eval(float64(sec))
	}

	// Phase 1 — healthy for 200 s: no transitions.
	sec := 0
	for ; sec < 200; sec++ {
		step(sec, 0)
	}
	if n := len(sink.Snapshot()); n != 0 {
		t.Fatalf("healthy phase emitted %d transitions", n)
	}

	// Phase 2 — burst: every second 10 of 25 ticks violate (fraction 0.4 →
	// burn 40× ≫ 14.4 and 6). Run long enough to fill the retained
	// history (720 s), so fast AND slow fire.
	for ; sec < 940; sec++ {
		step(sec, 10)
	}
	active := engine.Active()
	var fastFiring, slowFiring bool
	for _, a := range active {
		if a.Key != "tick_deadline" || a.State != telemetry.AlertFiring {
			continue
		}
		switch a.Rule {
		case RuleSLOBurnFast:
			fastFiring = true
		case RuleSLOBurnSlow:
			slowFiring = true
		}
	}
	if !fastFiring || !slowFiring {
		t.Fatalf("after the burst want both burn rules firing, got %+v", active)
	}

	// Phase 3 — recovery: no further violations. The fast rule must
	// resolve once the 5 m window drains below 14.4× (about 190 s); the
	// slow rule once the retained 720 s drain below 6× (about 610 s).
	for ; sec < 1740; sec++ {
		step(sec, 0)
	}
	if n := len(engine.Active()); n != 0 {
		t.Fatalf("after recovery want no active alerts, got %+v", engine.Active())
	}

	// The JSONL event sequence per rule must be pending → firing →
	// resolved, in that order.
	for _, rule := range []string{RuleSLOBurnFast, RuleSLOBurnSlow} {
		var states []string
		for _, ev := range sink.Snapshot() {
			if ev.Rule == rule {
				states = append(states, ev.State)
			}
		}
		want := []string{"pending", "firing", "resolved"}
		if len(states) != len(want) {
			t.Fatalf("%s transitions = %v, want %v", rule, states, want)
		}
		for i := range want {
			if states[i] != want[i] {
				t.Fatalf("%s transitions = %v, want %v", rule, states, want)
			}
		}
	}
	// The fast rule must have resolved before the slow one (its short
	// window is shorter), pinning the multi-window semantics.
	var fastResolved, slowResolved float64
	for _, ev := range sink.Snapshot() {
		if ev.State == "resolved" {
			switch ev.Rule {
			case RuleSLOBurnFast:
				fastResolved = ev.Time
			case RuleSLOBurnSlow:
				slowResolved = ev.Time
			}
		}
	}
	if !(fastResolved < slowResolved) {
		t.Errorf("fast resolved at %g, slow at %g: fast must resolve first", fastResolved, slowResolved)
	}
}

func TestSLOWriteMetrics(t *testing.T) {
	st := NewStore()
	// Objective 0.5 and a 0.25 bad fraction keep every division exact in
	// binary floating point, so the exposition values are byte-predictable.
	slo := tickSLO()
	slo.Objective = 0.5
	e := NewSLOEngine(st, slo)
	for sec := 0; sec <= 100; sec++ {
		feedTicks(st, float64(sec), float64(16*sec), float64(4*sec)) // 25% bad
	}
	var b strings.Builder
	if err := e.WriteMetrics(&b, `zone="1"`); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE roia_slo_objective gauge",
		`roia_slo_objective{zone="1",slo="tick_deadline"} 0.5`,
		"# TYPE roia_slo_budget_remaining gauge",
		`roia_slo_budget_remaining{zone="1",slo="tick_deadline"} 0.5`,
		"# TYPE roia_slo_burn_rate gauge",
		`roia_slo_burn_rate{zone="1",slo="tick_deadline",window="5m"} 0.5`,
		`roia_slo_burn_rate{zone="1",slo="tick_deadline",window="30m"} 0.5`,
		`roia_slo_burn_rate{zone="1",slo="tick_deadline",window="1h"} 0.5`,
		`roia_slo_burn_rate{zone="1",slo="tick_deadline",window="6h"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
