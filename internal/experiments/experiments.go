// Package experiments regenerates every evaluation artifact of the paper
// (Figures 4–8 plus the in-text anchor numbers of Section V) from this
// repository's implementation. Each driver returns both the raw series
// (as stats.Table, renderable as CSV or ASCII) and the headline values the
// paper quotes, so cmd/roiabench, the test suite and the benchmark harness
// share one code path.
//
// Substitution note: the paper measures its parameters on an Intel Core
// Duo testbed; absolute milliseconds here come from the calibrated RTFDemo
// profile (params.RTFDemo), which anchors the paper's thresholds
// (n_max(1)=235 at U=40 ms, l_max(c=0.15)=8, ...) rather than its
// hardware. Shapes and crossovers are the reproduction target.
package experiments

import (
	"fmt"

	"roia/internal/calibrate"
	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rms"
	"roia/internal/rtf/monitor"
	"roia/internal/sim"
	"roia/internal/stats"
	"roia/internal/telemetry"
	"roia/internal/workload"
)

// DefaultModel returns the RTFDemo scalability model used across all
// figure reproductions (U = 40 ms, c = 0.15).
func DefaultModel() (*params.Set, *model.Model) {
	p := params.RTFDemo()
	mdl, err := model.New(p, params.UFirstPersonShooter, params.CDefault)
	if err != nil {
		panic(err) // static defaults are validated by tests
	}
	return p, mdl
}

// --- Fig. 4: model parameters for replication -------------------------

// Fig4Result carries the parameter-determination reproduction: noisy
// per-task measurements (up to 300 bots, as in the paper) and the
// Levenberg–Marquardt fits through them.
type Fig4Result struct {
	// Table holds one measured series and one fitted series per
	// parameter (t_ua, t_ua_dser, t_aoi, t_su — the four curves Fig. 4
	// plots).
	Table *stats.Table
	// Recovered is the parameter set fitted from the measurements.
	Recovered *params.Set
	// MaxRelErr is the worst relative deviation of a fitted curve from
	// the generating truth over the measured range.
	MaxRelErr float64
}

// Fig4 reproduces "Model parameters for replication in the RTFDemo
// application": synthetic measurements with 5 % noise stand in for the
// testbed samples, and the calibration pipeline fits the paper's curve
// shapes through them.
func Fig4(seed int64) (*Fig4Result, error) {
	truth, _ := DefaultModel()
	tasks := []monitor.Task{monitor.UA, monitor.UADeser, monitor.AOI, monitor.SU}
	var counts []int
	for n := 10; n <= 300; n += 10 {
		counts = append(counts, n)
	}
	samples := calibrate.Synthesize(truth, monitor.Tasks(), counts, 5, 0.05, seed)
	res, err := calibrate.FromSamples("rtfdemo-recovered", samples, nil)
	if err != nil {
		return nil, err
	}

	table := &stats.Table{
		Title:  "Fig. 4: model parameters for replication (RTFDemo)",
		XLabel: "users",
		YLabel: "CPU time per item [ms]",
	}
	evalTruth := taskEval(truth)
	evalFit := taskEval(res.Set)
	maxRel := 0.0
	for _, task := range tasks {
		meas := table.AddSeries(task.String() + " measured")
		for _, s := range samples {
			if s.Task == task {
				meas.Add(s.X, s.Y)
			}
		}
		fitted := table.AddSeries(task.String() + " fit")
		for _, n := range counts {
			y := evalFit[task](n)
			fitted.Add(float64(n), y)
			if want := evalTruth[task](n); want > 0 {
				rel := abs(y-want) / want
				if rel > maxRel {
					maxRel = rel
				}
			}
		}
	}
	return &Fig4Result{Table: table, Recovered: res.Set, MaxRelErr: maxRel}, nil
}

func taskEval(s *params.Set) map[monitor.Task]func(n int) float64 {
	return map[monitor.Task]func(n int) float64{
		monitor.UADeser: func(n int) float64 { return s.UADeserAt(n, 0) },
		monitor.UA:      func(n int) float64 { return s.UAAt(n, 0) },
		monitor.FADeser: func(n int) float64 { return s.FADeserAt(n, 0) },
		monitor.FA:      func(n int) float64 { return s.FAAt(n, 0) },
		monitor.NPC:     func(n int) float64 { return s.NPCAt(n, 0) },
		monitor.AOI:     func(n int) float64 { return s.AOIAt(n, 0) },
		monitor.SU:      func(n int) float64 { return s.SUAt(n, 0) },
		monitor.MigIni:  func(n int) float64 { return s.MigIniAt(n) },
		monitor.MigRcv:  func(n int) float64 { return s.MigRcvAt(n) },
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// --- Fig. 5: effect of replication on scalability ---------------------

// Fig5Result carries the replication-scalability reproduction.
type Fig5Result struct {
	Table *stats.Table
	// MaxUsers[l-1] is n_max(l) for l = 1..LMax (Eq. 2).
	MaxUsers []int
	// Triggers[l-1] is the 80 % replication trigger per replica count.
	Triggers []int
	// LMax is the model's maximum useful replica count (Eq. 3, c=0.15).
	LMax int
}

// Fig5 reproduces "The effect of replication on scalability of the
// RTFDemo application": maximum supported users per replica count and the
// 80 % trigger line RTF-RMS uses for replication enactment.
func Fig5() *Fig5Result {
	_, mdl := DefaultModel()
	lmax, _ := mdl.MaxReplicas(0)
	sched := mdl.MaxUsersSchedule(0, lmax)
	res := &Fig5Result{
		Table: &stats.Table{
			Title:  "Fig. 5: effect of replication on scalability (RTFDemo)",
			XLabel: "replicas",
			YLabel: "users",
		},
		MaxUsers: sched,
		LMax:     lmax,
	}
	maxSeries := res.Table.AddSeries("maximum # users")
	trigSeries := res.Table.AddSeries("replication trigger (80%)")
	for l := 1; l <= lmax; l++ {
		nmax := sched[l-1]
		trig := model.ReplicationTrigger(nmax, model.DefaultTriggerFraction)
		res.Triggers = append(res.Triggers, trig)
		maxSeries.Add(float64(l), float64(nmax))
		trigSeries.Add(float64(l), float64(trig))
	}
	return res
}

// --- Fig. 6: model parameters for user migration ----------------------

// Fig6Result carries the migration-parameter reproduction.
type Fig6Result struct {
	Table *stats.Table
	// IniCurve and RcvCurve are the fitted linear approximations.
	IniCurve, RcvCurve params.Curve
}

// Fig6 reproduces "Model parameters for user migration": noisy
// measurements of t_mig_ini and t_mig_rcv against the user count, with
// linear least-squares fits; initiating is costlier than receiving.
func Fig6(seed int64) (*Fig6Result, error) {
	truth, _ := DefaultModel()
	var counts []int
	for n := 10; n <= 300; n += 10 {
		counts = append(counts, n)
	}
	tasks := []monitor.Task{monitor.MigIni, monitor.MigRcv}
	samples := calibrate.Synthesize(truth, tasks, counts, 5, 0.05, seed)

	table := &stats.Table{
		Title:  "Fig. 6: model parameters for user migration (RTFDemo)",
		XLabel: "users",
		YLabel: "CPU time per migration [ms]",
	}
	res := &Fig6Result{Table: table}
	for _, task := range tasks {
		var ts []monitor.Sample
		meas := table.AddSeries(task.String() + " measured")
		for _, s := range samples {
			if s.Task == task {
				ts = append(ts, s)
				meas.Add(s.X, s.Y)
			}
		}
		curve, _, err := calibrate.FitTask(ts, 1)
		if err != nil {
			return nil, err
		}
		fitted := table.AddSeries(task.String() + " fit")
		for _, n := range counts {
			fitted.Add(float64(n), curve.Eval(float64(n)))
		}
		if task == monitor.MigIni {
			res.IniCurve = curve
		} else {
			res.RcvCurve = curve
		}
	}
	return res, nil
}

// --- Fig. 7: migration thresholds vs tick duration --------------------

// Fig7Result carries the migration-threshold reproduction.
type Fig7Result struct {
	Table *stats.Table
	// IniAt and RcvAt map integer tick durations (ms) to x_max values.
	IniAt, RcvAt map[int]int
}

// Fig7 reproduces "Number of user migrations for the RTFDemo
// application": the maximum migrations per second that can be initiated
// and received for a given current tick duration without violating U.
// For each tick duration T the server's user count n is inferred from the
// model (the n whose Eq. 1 tick time is T), then Eq. 5 yields
// x = max{x | T + x·t_mig < U}.
func Fig7() *Fig7Result {
	p, mdl := DefaultModel()
	res := &Fig7Result{
		Table: &stats.Table{
			Title:  "Fig. 7: migration thresholds (RTFDemo)",
			XLabel: "tick duration [ms]",
			YLabel: "max migrations per second",
		},
		IniAt: make(map[int]int),
		RcvAt: make(map[int]int),
	}
	ini := res.Table.AddSeries("x_max_ini")
	rcv := res.Table.AddSeries("x_max_rcv")
	for t := 0; t < int(mdl.U); t++ {
		n := usersForTick(mdl, float64(t))
		xi := maxMigrations(float64(t), p.MigIniAt(n), mdl.U)
		xr := maxMigrations(float64(t), p.MigRcvAt(n), mdl.U)
		res.IniAt[t] = xi
		res.RcvAt[t] = xr
		ini.Add(float64(t), float64(xi))
		rcv.Add(float64(t), float64(xr))
	}
	return res
}

// usersForTick inverts Eq. (1): the largest single-replica user count
// whose predicted tick duration stays at or below t ms.
func usersForTick(mdl *model.Model, t float64) int {
	lo, hi := 0, 4096
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if mdl.TickTime(1, mid, 0) <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// maxMigrations solves Eq. (5) in closed form for a given base tick.
func maxMigrations(base, perMig, u float64) int {
	if perMig <= 0 || base >= u {
		return 0
	}
	x := int((u - base) / perMig)
	if base+float64(x)*perMig >= u {
		x--
	}
	if x < 0 {
		return 0
	}
	return x
}

// --- Fig. 8: dynamic load balancing ------------------------------------

// Fig8Result carries the dynamic-session reproduction.
type Fig8Result struct {
	Table   *stats.Table
	Session sim.SessionResult
}

// Fig8 reproduces "Dynamic load balancing of the RTFDemo application for
// a changing number of users": a session with users growing to 300 and
// back, managed by the model-driven RTF-RMS. The paper's findings hold
// when Session.TotalViolations == 0 while replicas are added and removed.
func Fig8(seed int64) (*Fig8Result, error) {
	return Fig8Audited(seed, nil)
}

// Fig8Audited is Fig8 with an optional RTF-RMS decision audit sink: every
// control-loop step of the session is recorded as a
// telemetry.DecisionRecord (typically into a telemetry.AuditLog writing
// JSONL), so the controller's choices are explainable and diffable across
// runs. A nil sink disables auditing.
func Fig8Audited(seed int64, sink telemetry.DecisionSink) (*Fig8Result, error) {
	p, mdl := DefaultModel()
	cluster, err := sim.NewCluster(sim.Config{Params: p, Model: mdl, Seed: seed})
	if err != nil {
		return nil, err
	}
	mgr := rms.NewManager(cluster, rms.Config{Model: mdl, Audit: sink})
	session := sim.RunSession(cluster, mgr, workload.PaperSession())

	table := &stats.Table{
		Title:  "Fig. 8: dynamic load balancing (RTFDemo)",
		XLabel: "time [s]",
		YLabel: "users / CPU% / replicas",
	}
	users := table.AddSeries("# users")
	cpu := table.AddSeries("avg CPU load [%]")
	replicas := table.AddSeries("replicas ×100")
	for _, s := range session.Stats {
		users.Add(s.Time, float64(s.Users))
		cpu.Add(s.Time, s.AvgCPU)
		replicas.Add(s.Time, float64(s.ReadyReplicas)*100)
	}
	return &Fig8Result{Table: table, Session: session}, nil
}

// --- In-text anchors (Section V-A) --------------------------------------

// AnchorsResult carries the paper's quoted threshold numbers.
type AnchorsResult struct {
	NMax1      int // n_max(1, U=40ms) — paper: 235
	Trigger80  int // 80 % replication trigger — paper: 188
	LMaxC005   int // l_max at c = 0.05 — paper: 48
	LMaxC015   int // l_max at c = 0.15 — paper: 8
	LMaxC100   int // l_max at c = 1.0  — paper: 1
	XIniAt35MS int // migrations/s a 35 ms / 180-user server initiates — paper: 3
	XRcvAt15MS int // migrations/s a 15 ms / 80-user server receives — paper: 34
}

// Anchors recomputes every in-text number of Section V-A from the
// calibrated profile.
func Anchors() AnchorsResult {
	p, _ := DefaultModel()
	var res AnchorsResult
	for _, c := range []struct {
		c   float64
		dst *int
	}{{0.05, &res.LMaxC005}, {0.15, &res.LMaxC015}, {1.0, &res.LMaxC100}} {
		mdl, _ := model.New(p, params.UFirstPersonShooter, c.c)
		*c.dst, _ = mdl.MaxReplicas(0)
	}
	mdl, _ := model.New(p, params.UFirstPersonShooter, params.CDefault)
	res.NMax1, _ = mdl.MaxUsers(1, 0)
	res.Trigger80 = model.ReplicationTrigger(res.NMax1, model.DefaultTriggerFraction)
	res.XIniAt35MS = maxMigrations(35, p.MigIniAt(180), mdl.U)
	res.XRcvAt15MS = maxMigrations(15, p.MigRcvAt(80), mdl.U)
	return res
}

// String renders the anchors against the paper's values.
func (a AnchorsResult) String() string {
	return fmt.Sprintf(`Section V-A anchors (measured vs paper):
  n_max(1)             = %3d   (paper: 235)
  replication trigger  = %3d   (paper: 188 = 80%% of 235)
  l_max(c=0.05)        = %3d   (paper: 48)
  l_max(c=0.15)        = %3d   (paper: 8)
  l_max(c=1.00)        = %3d   (paper: 1)
  x_ini @ 35ms, 180u   = %3d   (paper: 3)
  x_rcv @ 15ms, 80u    = %3d   (paper: 34)`,
		a.NMax1, a.Trigger80, a.LMaxC005, a.LMaxC015, a.LMaxC100, a.XIniAt35MS, a.XRcvAt15MS)
}
