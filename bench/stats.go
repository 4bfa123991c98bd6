package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"roia/internal/stats"
)

// clock is the one place the benchmark takes wall time from: the
// repository's idiom outside the tick loop is to hold time.Now as a value
// (roialint's tickclock check enforces it), and a benchmark reads it often.
var clock = time.Now

type allocSample struct{ objects, bytes uint64 }

var allocBuf = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readAllocs reads the process's cumulative heap allocation counts. The
// runtime adds a span's allocations to them only when the span fills up or
// a collection flushes it, so a single difference of two reads can be off by
// a few hundred objects; sums of many differences are not biased.
func readAllocs() allocSample {
	metrics.Read(allocBuf)
	return allocSample{objects: allocBuf[0].Value.Uint64(), bytes: allocBuf[1].Value.Uint64()}
}

// exactAllocs forces a collection first, which flushes every allocation made
// so far into the counts.
func exactAllocs() allocSample {
	runtime.GC()
	return readAllocs()
}

// percentile is the nearest-rank p-th percentile (0..100); it sorts a copy.
func percentile(fs []float64, p float64) float64 {
	fs = slices.Clone(fs)
	slices.Sort(fs)
	return stats.Percentile(fs, p)
}

// quantileMS is the p-th percentile of durations given in ns, in ms.
func quantileMS(ns []int64, p float64) float64 {
	fs := make([]float64, len(ns))
	for i, v := range ns {
		fs[i] = float64(v) / 1e6
	}
	return percentile(fs, p)
}

func mean(fs []float64) float64 {
	if len(fs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range fs {
		sum += v
	}
	return sum / float64(len(fs))
}

// ratio is a ÷ b, and 0 where the workload has no b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
