// Package stats provides the lightweight measurement plumbing used across
// the repository: summaries and nearest-rank percentiles of float samples,
// time series for experiment output, and CSV / ASCII-chart rendering for
// the figure reproductions.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary aggregates a set of float64 samples.
type Summary struct {
	Count          int
	Min, Max, Mean float64
	// P50, P95, P99 are percentiles computed by nearest-rank.
	P50, P95, P99 float64
	// StdDev is the population standard deviation.
	StdDev float64
}

// Summarize computes a Summary of the samples. It returns a zero Summary
// for an empty input. The input slice is not modified.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s := Summary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   Percentile(sorted, 50),
		P95:   Percentile(sorted, 95),
		P99:   Percentile(sorted, 99),
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	varSum := 0.0
	for _, v := range sorted {
		d := v - s.Mean
		varSum += d * d
	}
	s.StdDev = math.Sqrt(varSum / float64(len(sorted)))
	return s
}

// Percentile returns the p-th percentile (0..100) of the already-sorted
// samples using the nearest-rank method. It returns 0 for empty input and
// clamps out-of-range p.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// String renders the summary in a compact single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3f mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f sd=%.3f",
		s.Count, s.Min, s.Mean, s.P50, s.P95, s.P99, s.Max, s.StdDev)
}
