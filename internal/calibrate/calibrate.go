// Package calibrate turns monitoring samples into a scalability-model
// parameter set, reproducing the measurement procedure of Section V-A:
// per-task CPU times are sampled at varying user counts (bots generate the
// workload), an approximation-function shape is chosen per parameter
// (linear or quadratic, following the paper's analysis of RTFDemo), and
// the coefficients are fitted with nonlinear least squares
// (Levenberg–Marquardt, as the paper does in gnuplot).
package calibrate

import (
	"fmt"
	"math/rand"
	"sort"

	"roia/internal/fit"
	"roia/internal/params"
	"roia/internal/rtf/monitor"
)

// DefaultDegrees returns the approximation-function degree per task for an
// RTFDemo-like shooter, as argued in Section V-A: quadratic input
// application (attack scans over all users) and area-of-interest
// computation (Euclidean algorithm with duplicate-checked update lists),
// linear everything else.
func DefaultDegrees() map[monitor.Task]int {
	return map[monitor.Task]int{
		monitor.UADeser: 1,
		monitor.UA:      2,
		monitor.FADeser: 1,
		monitor.FA:      1,
		monitor.NPC:     1,
		monitor.AOI:     2,
		monitor.SU:      1,
		monitor.MigIni:  1,
		monitor.MigRcv:  1,
	}
}

// GameDegrees returns the degrees for this repository's shooter
// (internal/game) on the RTF server, whose hit scans read the tick's spatial
// index instead of walking all users: what an input costs then follows the
// number of users near the shooter — on a world of fixed size, a linear
// function of n — so t_ua is linear where RTFDemo's is quadratic. The other
// tasks keep their DefaultDegrees. That the model takes whichever shape the
// application has is the paper's point about approximation functions.
func GameDegrees() map[monitor.Task]int {
	d := DefaultDegrees()
	d[monitor.UA] = 1
	return d
}

// FitTask fits one task's samples with a polynomial of the given degree.
// The direct least-squares solution seeds a Levenberg–Marquardt refinement
// (the paper's fitting algorithm); both agree on polynomial models, so the
// LM pass doubles as a consistency check.
func FitTask(samples []monitor.Sample, degree int) (params.Curve, fit.Result, error) {
	if len(samples) <= degree {
		return params.Curve{}, fit.Result{}, fmt.Errorf(
			"calibrate: %d samples cannot determine a degree-%d curve", len(samples), degree)
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.X
		ys[i] = s.Y
	}
	direct, err := fit.Polyfit(xs, ys, degree)
	if err != nil {
		return params.Curve{}, fit.Result{}, fmt.Errorf("calibrate: %w", err)
	}
	res, err := fit.LevMar(fit.PolyModel(), xs, ys, direct.Coeffs, fit.LMOptions{})
	if err != nil || res.SSR > direct.SSR {
		res = direct // LM must not make the solution worse
	}
	return params.Curve{Coeffs: res.Coeffs}, res, nil
}

// Result reports one calibration run.
type Result struct {
	// Set is the fitted parameter profile.
	Set *params.Set
	// Fits records per-task goodness of fit.
	Fits map[monitor.Task]fit.Result
	// Missing lists tasks that had no samples; their curves are zero. The
	// four real-time-loop tasks are mandatory and cause an error instead.
	Missing []monitor.Task
	// DroppedSamples is how many observations the monitors refused because
	// a log was at monitor.DefaultSampleLimit (FromMonitor only): the fit
	// saw only the samples collected before the cap.
	DroppedSamples uint64
}

// FromSamples fits a full parameter set from a calibration sample log.
// degrees may be nil, defaulting to DefaultDegrees. The mandatory tasks of
// the real-time loop (t_ua_dser, t_ua, t_aoi, t_su) must have samples;
// forwarded-input, NPC and migration parameters may be absent (e.g. a
// single-server measurement run) and yield zero curves, reported in
// Missing.
func FromSamples(name string, samples []monitor.Sample, degrees map[monitor.Task]int) (*Result, error) {
	if degrees == nil {
		degrees = DefaultDegrees()
	}
	byTask := make(map[monitor.Task][]monitor.Sample)
	for _, s := range samples {
		byTask[s.Task] = append(byTask[s.Task], s)
	}
	res := &Result{Set: &params.Set{Name: name}, Fits: make(map[monitor.Task]fit.Result)}
	assign := map[monitor.Task]*params.Curve{
		monitor.UADeser: &res.Set.UADeser,
		monitor.UA:      &res.Set.UA,
		monitor.FADeser: &res.Set.FADeser,
		monitor.FA:      &res.Set.FA,
		monitor.NPC:     &res.Set.NPC,
		monitor.AOI:     &res.Set.AOI,
		monitor.SU:      &res.Set.SU,
		monitor.MigIni:  &res.Set.MigIni,
		monitor.MigRcv:  &res.Set.MigRcv,
	}
	mandatory := map[monitor.Task]bool{
		monitor.UADeser: true, monitor.UA: true, monitor.AOI: true, monitor.SU: true,
	}
	for _, task := range monitor.Tasks() {
		ts := byTask[task]
		if len(ts) == 0 {
			if mandatory[task] {
				return nil, fmt.Errorf("calibrate: no samples for mandatory parameter %s", task)
			}
			*assign[task] = params.Constant(0)
			res.Missing = append(res.Missing, task)
			continue
		}
		deg, ok := degrees[task]
		if !ok {
			deg = 1
		}
		curve, fr, err := FitTask(ts, deg)
		if err != nil {
			return nil, fmt.Errorf("calibrate: %s: %w", task, err)
		}
		*assign[task] = curve
		res.Fits[task] = fr
	}
	sort.Slice(res.Missing, func(i, j int) bool { return res.Missing[i] < res.Missing[j] })
	return res, nil
}

// FromMonitor calibrates from the collected samples of one or more live
// servers — pooled, as the paper pools both replicas of its testbed — with
// the live game's degrees, and reports the monitors' dropped samples.
func FromMonitor(name string, ms ...*monitor.Monitor) (*Result, error) {
	var samples []monitor.Sample
	var dropped uint64
	for _, m := range ms {
		samples = append(samples, m.Samples()...)
		dropped += m.DroppedSamples()
	}
	res, err := FromSamples(name, samples, GameDegrees())
	if err != nil {
		return nil, err
	}
	res.DroppedSamples = dropped
	return res, nil
}

// Synthesize generates noisy calibration samples from a known ground-truth
// profile: for every task and user count it emits repeat samples with
// multiplicative Gaussian noise. This stands in for the paper's testbed
// measurements when reproducing the parameter-determination figures
// (Fig. 4 and Fig. 6) deterministically, and it validates that the fitting
// pipeline recovers the generating coefficients.
func Synthesize(truth *params.Set, tasks []monitor.Task, userCounts []int, repeats int, noise float64, seed int64) []monitor.Sample {
	rng := rand.New(rand.NewSource(seed))
	eval := map[monitor.Task]func(n int) float64{
		monitor.UADeser: func(n int) float64 { return truth.UADeserAt(n, 0) },
		monitor.UA:      func(n int) float64 { return truth.UAAt(n, 0) },
		monitor.FADeser: func(n int) float64 { return truth.FADeserAt(n, 0) },
		monitor.FA:      func(n int) float64 { return truth.FAAt(n, 0) },
		monitor.NPC:     func(n int) float64 { return truth.NPCAt(n, 0) },
		monitor.AOI:     func(n int) float64 { return truth.AOIAt(n, 0) },
		monitor.SU:      func(n int) float64 { return truth.SUAt(n, 0) },
		monitor.MigIni:  func(n int) float64 { return truth.MigIniAt(n) },
		monitor.MigRcv:  func(n int) float64 { return truth.MigRcvAt(n) },
	}
	var out []monitor.Sample
	for _, task := range tasks {
		f := eval[task]
		if f == nil {
			continue
		}
		for _, n := range userCounts {
			base := f(n)
			for r := 0; r < repeats; r++ {
				y := base * (1 + noise*rng.NormFloat64())
				if y < 0 {
					y = 0
				}
				out = append(out, monitor.Sample{Task: task, X: float64(n), Y: y})
			}
		}
	}
	return out
}
