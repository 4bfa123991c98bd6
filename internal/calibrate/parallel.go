package calibrate

import (
	"fmt"
	"math/rand"
	"sort"

	"roia/internal/fit"
	"roia/internal/params"
)

// ParSample is one observation of a parallel-executor calibration sweep:
// the measured tick speedup at a worker count, relative to the one-worker
// run of the same workload (speedup = wall(w=1) / wall(w), or
// equivalently mean tick CPU / mean tick wall for a single configuration).
type ParSample struct {
	// Workers is the executor worker count w (≥ 1).
	Workers int
	// Speedup is the measured wall-time speedup over the sequential run.
	Speedup float64
}

// FitParallel fits the USL coefficients σ, κ from a worker sweep, the
// parallel analogue of FitTask: run the same workload at several
// Parallelism settings, record the tick wall-time speedups, and fit
// Gunther's rational function through them. The sweep must cover at least
// two distinct worker counts above 1 — below that the two coefficients are
// not identifiable.
func FitParallel(samples []ParSample) (params.USL, fit.Result, error) {
	distinct := map[int]bool{}
	workers := make([]int, 0, len(samples))
	speedups := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.Workers > 1 {
			distinct[s.Workers] = true
		}
		workers = append(workers, s.Workers)
		speedups = append(speedups, s.Speedup)
	}
	if len(distinct) < 2 {
		return params.USL{}, fit.Result{}, fmt.Errorf(
			"calibrate: parallel sweep needs >= 2 distinct worker counts above 1, got %d", len(distinct))
	}
	sigma, kappa, res, err := fit.FitUSL(workers, speedups)
	if err != nil {
		return params.USL{}, res, fmt.Errorf("calibrate: %w", err)
	}
	return params.USL{Sigma: sigma, Kappa: kappa}, res, nil
}

// SynthesizeParallel generates a noisy worker sweep from known ground-truth
// coefficients, mirroring Synthesize for the per-task curves: it validates
// that FitParallel recovers the generating σ, κ and stands in for a
// multi-core testbed when reproducing the speedup figure deterministically.
func SynthesizeParallel(truth params.USL, workerCounts []int, repeats int, noise float64, seed int64) []ParSample {
	rng := rand.New(rand.NewSource(seed))
	counts := append([]int(nil), workerCounts...)
	sort.Ints(counts)
	var out []ParSample
	for _, w := range counts {
		if w < 1 {
			continue
		}
		ww := float64(w)
		base := ww / (1 + truth.Sigma*(ww-1) + truth.Kappa*ww*(ww-1))
		for r := 0; r < repeats; r++ {
			s := base * (1 + noise*rng.NormFloat64())
			if s < 0.1 {
				s = 0.1
			}
			out = append(out, ParSample{Workers: w, Speedup: s})
		}
	}
	return out
}
