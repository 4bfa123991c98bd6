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
	// Budget over the 720 s window: only 600 s of history exists, so
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

// burstSchedule feeds the store until the given second: 200 healthy
// seconds, then 740 in which 10 of every 25 ticks miss the deadline
// (fraction 0.4, a 40× burn at objective 0.99), then recovery. at runs
// after each second's scrape.
func burstSchedule(st *Store, until int, at func(sec int)) {
	var ticks, viol float64
	for sec := 0; sec < until; sec++ {
		ticks += 25
		if sec >= 200 && sec < 940 {
			viol += 10
		}
		feedTicks(st, float64(sec), ticks, viol)
		at(sec)
	}
}

// TestSLOBurstLifecycle drives a synthetic deadline-violation burst
// through the alert engine and asserts the burn rules pass pending →
// firing → resolved at both the fast and slow windows.
func TestSLOBurstLifecycle(t *testing.T) {
	st := NewStore()
	e := NewSLOEngine(st, tickSLO())

	sink := &telemetry.MemoryAlerts{}
	engine := telemetry.NewAlertEngine(sink, e.Rules(1)...)
	burstSchedule(st, 1740, func(sec int) {
		engine.Eval(float64(sec))
		switch sec {
		case 199: // healthy phase: no transitions
			if n := len(sink.Snapshot()); n != 0 {
				t.Fatalf("healthy phase emitted %d transitions", n)
			}
		case 939: // the burst (40× ≫ 14.4 and 6) fills the 720 s history
			var fastFiring, slowFiring bool
			for _, a := range engine.Active() {
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
				t.Fatalf("after the burst want both burn rules firing, got %+v", engine.Active())
			}
		}
	})
	// Recovery: the fast rule resolves once its 10 s window drains below
	// 14.4× (about 7 s), the slow rule once its 1 m window drains below 6×
	// (about 52 s).
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

// TestSLOSlowPairReadsTwoWindows checks that the slow rule's two windows
// see different history: a minute into recovery the short window is
// clean while the long one still holds most of the burst. Windows longer
// than the retained history would both read all of it and agree.
func TestSLOSlowPairReadsTwoWindows(t *testing.T) {
	st := NewStore()
	e := NewSLOEngine(st, tickSLO())
	burstSchedule(st, 1000, func(int) {})
	now := st.Now()
	short, long := e.BurnRate(tickSLO(), SlowShortSec, now), e.BurnRate(tickSLO(), SlowLongSec, now)
	if short != 0 || long <= SlowThreshold {
		t.Fatalf("slow burns at %g = %.2f/%.2f, want a clean short window and the long one above %d×",
			now, short, long, SlowThreshold)
	}
}

// TestSLOBurnWaitsForShortWindow bursts on a fresh store from its first
// second: a rule must not fire before the store holds its short window,
// or two scrapes would stand in for a whole window.
func TestSLOBurnWaitsForShortWindow(t *testing.T) {
	st := NewStore()
	e := NewSLOEngine(st, tickSLO())
	sink := &telemetry.MemoryAlerts{}
	engine := telemetry.NewAlertEngine(sink, e.Rules(0)...)
	short := map[string]float64{RuleSLOBurnFast: FastShortSec, RuleSLOBurnSlow: SlowShortSec}
	for sec := 0; sec < 2*SlowShortSec; sec++ {
		feedTicks(st, float64(sec), float64(25*sec), float64(10*sec))
		engine.Eval(float64(sec))
	}
	fired := map[string]bool{}
	for _, ev := range sink.Snapshot() {
		if ev.State != "firing" {
			continue
		}
		fired[ev.Rule] = true
		if ev.Time < short[ev.Rule] {
			t.Errorf("%s fired at second %g, before the store held its %gs short window", ev.Rule, ev.Time, short[ev.Rule])
		}
	}
	if !fired[RuleSLOBurnFast] || !fired[RuleSLOBurnSlow] {
		t.Fatalf("fired = %v, want both rules once their windows are held", fired)
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
		`roia_slo_burn_rate{zone="1",slo="tick_deadline",window="10s"} 0.5`,
		`roia_slo_burn_rate{zone="1",slo="tick_deadline",window="1m"} 0.5`,
		`roia_slo_burn_rate{zone="1",slo="tick_deadline",window="2m"} 0.5`,
		`roia_slo_burn_rate{zone="1",slo="tick_deadline",window="12m"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
