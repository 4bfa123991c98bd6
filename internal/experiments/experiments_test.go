package experiments

import (
	"strings"
	"testing"
)

func TestFig4FitTracksTruth(t *testing.T) {
	res, err := Fig4(1)
	if err != nil {
		t.Fatal(err)
	}
	// 8 series: measured + fit for each of the four plotted parameters.
	if got := len(res.Table.Series); got != 8 {
		t.Fatalf("series = %d, want 8", got)
	}
	if res.MaxRelErr > 0.10 {
		t.Fatalf("fitted curves drift %.1f%% from truth, want < 10%%", res.MaxRelErr*100)
	}
	// Quadratic shape recovered for t_ua and t_aoi.
	if res.Recovered.UA.Degree() != 2 || res.Recovered.AOI.Degree() != 2 {
		t.Fatal("quadratic parameters not fitted as quadratics")
	}
}

func TestFig5MatchesPaperShape(t *testing.T) {
	res := Fig5()
	if res.LMax != 8 {
		t.Fatalf("l_max = %d, paper: 8", res.LMax)
	}
	if res.MaxUsers[0] != 235 {
		t.Fatalf("n_max(1) = %d, paper: 235", res.MaxUsers[0])
	}
	if res.Triggers[0] != 188 {
		t.Fatalf("trigger(1) = %d, paper: 188", res.Triggers[0])
	}
	// Monotone capacity growth with shrinking increments.
	prevGain := 1 << 30
	for l := 1; l < len(res.MaxUsers); l++ {
		gain := res.MaxUsers[l] - res.MaxUsers[l-1]
		if gain <= 0 || gain > prevGain {
			t.Fatalf("capacity gains not monotonically diminishing: %v", res.MaxUsers)
		}
		prevGain = gain
	}
	// Trigger line sits strictly below capacity.
	for i := range res.Triggers {
		if res.Triggers[i] >= res.MaxUsers[i] {
			t.Fatalf("trigger %d >= capacity %d at l=%d", res.Triggers[i], res.MaxUsers[i], i+1)
		}
	}
}

func TestFig6IniAboveRcv(t *testing.T) {
	res, err := Fig6(1)
	if err != nil {
		t.Fatal(err)
	}
	for n := 10.0; n <= 300; n += 10 {
		if res.IniCurve.Eval(n) <= res.RcvCurve.Eval(n) {
			t.Fatalf("t_mig_ini(%g) not above t_mig_rcv — Fig. 6 shape broken", n)
		}
	}
	// Both linear.
	if res.IniCurve.Degree() != 1 || res.RcvCurve.Degree() != 1 {
		t.Fatal("migration parameters not linear")
	}
}

func TestFig7ShapeAndBudgets(t *testing.T) {
	res := Fig7()
	// Monotone: more headroom at lower tick durations.
	for t1 := 1; t1 < 40; t1++ {
		if res.IniAt[t1] > res.IniAt[t1-1] || res.RcvAt[t1] > res.RcvAt[t1-1] {
			t.Fatalf("x_max increased with tick duration at %d ms", t1)
		}
	}
	// Receiving is cheaper than initiating, so budgets are larger.
	for tick := 0; tick < 40; tick++ {
		if res.RcvAt[tick] < res.IniAt[tick] {
			t.Fatalf("x_rcv < x_ini at %d ms", tick)
		}
	}
	// At the threshold no migrations are allowed.
	if res.IniAt[39] > 4 {
		t.Fatalf("x_ini near U = %d, want small", res.IniAt[39])
	}
}

func TestFig8ReproducesHeadlineResult(t *testing.T) {
	res, err := Fig8(1)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Session
	// "The tick duration on all application servers did not exceed 40 ms."
	if s.TotalViolations != 0 || s.PeakTickMS >= 40 {
		t.Fatalf("violations=%d peak=%.2f — paper reports none", s.TotalViolations, s.PeakTickMS)
	}
	// Replication enactment happened and was undone.
	if s.PeakReplicas < 2 {
		t.Fatal("replication never enacted")
	}
	if s.Stats[len(s.Stats)-1].ReadyReplicas != 1 {
		t.Fatal("resources not removed at session end")
	}
	// "The CPU load grows initially with the number of users": correlated
	// growth in the ramp phase.
	if s.Stats[300].AvgCPU <= s.Stats[60].AvgCPU {
		t.Fatal("CPU load does not grow with users")
	}
	// "Servers are not fully loaded": intentional headroom.
	if res.Session.MaxAvgCPU() >= 100 {
		t.Fatal("CPU saturated despite the 80% trigger")
	}
	if got := len(res.Table.Series); got != 3 {
		t.Fatalf("series = %d, want 3", got)
	}
}

func TestAnchorsMatchPaper(t *testing.T) {
	a := Anchors()
	want := AnchorsResult{
		NMax1: 235, Trigger80: 188,
		LMaxC005: 48, LMaxC015: 8, LMaxC100: 1,
		XIniAt35MS: 3, XRcvAt15MS: 34,
	}
	if a != want {
		t.Fatalf("anchors = %+v, want %+v", a, want)
	}
	if !strings.Contains(a.String(), "235") {
		t.Fatal("anchor rendering broken")
	}
}

func TestBaselineComparison(t *testing.T) {
	rows, err := BaselineComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]BaselineRow, len(rows))
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["model-rms"].Violations != 0 {
		t.Fatalf("model-rms violated: %+v", byName["model-rms"])
	}
	// Without any balancing a single server must violate at 300 users.
	if byName["no-balancing"].Violations == 0 {
		t.Fatal("no-balancing run never violated")
	}
	if byName["no-balancing"].PeakTickMS <= byName["model-rms"].PeakTickMS {
		t.Fatal("no-balancing peak tick not worse than managed")
	}
	if out := FormatBaselines(rows); !strings.Contains(out, "model-rms") {
		t.Fatal("table rendering broken")
	}
}

func TestPacingAblationIsolatesContribution(t *testing.T) {
	rows, err := PacingAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	paced, unpaced := rows[0], rows[1]
	if paced.Violations != 0 {
		t.Fatalf("paced arm violated %d times", paced.Violations)
	}
	if unpaced.Violations == 0 {
		t.Fatal("unpaced arm never violated — ablation shows nothing")
	}
	if unpaced.PeakTickMS <= paced.PeakTickMS {
		t.Fatalf("unpaced peak %.2f not above paced %.2f", unpaced.PeakTickMS, paced.PeakTickMS)
	}
	// The budgets are the mechanism: the paced arm's burst rate must be
	// far below the unpaced arm's.
	if paced.MaxMigrationsPerSecond*2 >= unpaced.MaxMigrationsPerSecond {
		t.Fatalf("pacing did not bound burst rate: %d vs %d",
			paced.MaxMigrationsPerSecond, unpaced.MaxMigrationsPerSecond)
	}
}

func TestTrafficModelFromLiveFleet(t *testing.T) {
	res, err := Traffic(1)
	if err != nil {
		t.Fatal(err)
	}
	// Outbound traffic dominates (state updates fan out to every user,
	// inputs are small) — Kim et al.'s asymmetry.
	if res.AsymmetryAt150 <= 1 {
		t.Fatalf("out/in asymmetry = %.2f, want > 1", res.AsymmetryAt150)
	}
	// Bandwidth grows with the user count.
	in50, out50 := res.Model.PerTick(50)
	in250, out250 := res.Model.PerTick(250)
	if in250 <= in50 || out250 <= out50 {
		t.Fatal("traffic does not grow with users")
	}
	// Outbound grows superlinearly (denser worlds → bigger updates).
	if out250/out50 <= 250.0/50.0*0.9 {
		t.Fatalf("outbound growth not superlinear: %g → %g", out50, out250)
	}
	if res.CapacityOutBPS <= 0 {
		t.Fatal("no capacity bandwidth prediction")
	}
}

func TestProfileComparison(t *testing.T) {
	rows := ProfileComparison()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fps, rpg := rows[0], rows[1]
	// Section III-C: the RPG's higher tolerated tick duration and cheaper
	// input processing yield (much) higher thresholds than the FPS.
	if !rpg.Unbounded && rpg.NMax1 <= fps.NMax1 {
		t.Fatalf("rpg capacity %d not above fps %d", rpg.NMax1, fps.NMax1)
	}
	if rpg.XIni200 <= fps.XIni200 {
		t.Fatalf("rpg migration budget %d not above fps %d", rpg.XIni200, fps.XIni200)
	}
}

func TestSpeedupFigure(t *testing.T) {
	res, err := Speedup(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Rows[0].Workers != 1 {
		t.Fatalf("bad sweep shape: %+v", res.Rows)
	}
	// The w=1 edge of the figure is the paper's sequential model exactly.
	w1 := res.Rows[0]
	if w1.Speedup != 1 {
		t.Fatalf("S(1) = %g, want exactly 1", w1.Speedup)
	}
	if w1.NMax != 235 {
		t.Fatalf("n_max(1, w=1) = %d, want the paper anchor 235", w1.NMax)
	}
	// Monotone capacity: more workers never lower the ceiling.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].NMax < res.Rows[i-1].NMax {
			t.Fatalf("n_max dropped: %+v", res.Rows)
		}
		if res.Rows[i].TickMS > res.Rows[i-1].TickMS {
			t.Fatalf("tick time rose with workers: %+v", res.Rows)
		}
	}
	// The calibration round-trip recovers the generating coefficients.
	if d := res.Fitted.Sigma - res.Truth.Sigma; d > 0.05 || d < -0.05 {
		t.Fatalf("σ recovery off: %+v vs %+v", res.Fitted, res.Truth)
	}
}
