package telemetry

import (
	"math"
	"math/bits"
)

// LogHistogram is a log-bucketed (HDR-style) histogram over positive
// millisecond values. Values are quantized to microseconds and bucketed by
// octave with 16 linear sub-buckets per octave, so every recorded value is
// represented with at most ~6 % relative error across the full range
// (1 µs … minutes) — precise enough for p50…p999 latency analysis without
// choosing bounds up front.
//
// Two LogHistograms always share the same bucket layout, which makes them
// mergeable: per-replica (or per-client) recorders can be combined into a
// fleet-wide distribution with Merge and the quantiles of the merged
// histogram are exact over the union of observations (up to bucket
// resolution). LogHistogram is not synchronized; Latency wraps it with a
// mutex for concurrent recording.
type LogHistogram struct {
	counts [numLogBuckets]uint64
	count  uint64
	sum    float64
	max    float64
}

// Bucket layout: microsecond value u maps to index u for u < 32 (exact),
// and to octave/sub-bucket (e-3)*16 + ((u >> (e-4)) & 15) for u >= 32,
// where e is the zero-based position of u's most significant bit. The
// highest octave of a uint64 ends at index (63-3)*16 + 15.
const (
	logSubBuckets = 16
	numLogBuckets = (63-3)*logSubBuckets + logSubBuckets
)

// NewLogHistogram returns an empty histogram.
func NewLogHistogram() *LogHistogram { return &LogHistogram{} }

// logBucket maps a microsecond value to its bucket index.
func logBucket(us uint64) int {
	if us < 2*logSubBuckets {
		return int(us)
	}
	e := bits.Len64(us) - 1 // >= 5
	return (e-3)*logSubBuckets + int((us>>(e-4))&(logSubBuckets-1))
}

// logBucketLow returns the inclusive lower bound (µs) of a bucket.
func logBucketLow(i int) uint64 {
	if i < 2*logSubBuckets {
		return uint64(i)
	}
	g := i / logSubBuckets // octave group, >= 2
	sub := uint64(i % logSubBuckets)
	return (logSubBuckets + sub) << (g - 1)
}

// logBucketWidth returns the width (µs) of a bucket.
func logBucketWidth(i int) uint64 {
	if i < 2*logSubBuckets {
		return 1
	}
	return 1 << (i/logSubBuckets - 1)
}

// Observe records one value in milliseconds. Non-finite and negative
// values are ignored; sub-microsecond values land in the lowest bucket.
func (h *LogHistogram) Observe(ms float64) {
	if math.IsNaN(ms) || math.IsInf(ms, 0) || ms < 0 {
		return
	}
	us := uint64(ms * 1000)
	h.counts[logBucket(us)]++
	h.count++
	h.sum += ms
	if ms > h.max {
		h.max = ms
	}
}

// Count reports the number of observations.
func (h *LogHistogram) Count() uint64 { return h.count }

// Sum reports the sum of all observed values (ms).
func (h *LogHistogram) Sum() float64 { return h.sum }

// Max reports the largest observed value (ms), tracked exactly.
func (h *LogHistogram) Max() float64 { return h.max }

// Mean reports the mean observed value (ms), or 0 when empty.
func (h *LogHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile in milliseconds: the midpoint of the
// bucket holding the rank-⌈q·count⌉ observation. When that bucket is the
// highest occupied one, the exact tracked maximum is returned instead of
// the midpoint — so a single-bucket histogram (all observations equal)
// reports exactly its observed value at every q, and no quantile ever
// exceeds Max().
//
// Edge cases are total, not panics:
//   - an empty histogram returns 0 for every q;
//   - q <= 0 clamps to rank 1, i.e. the lowest occupied bucket (a
//     bucket-resolution estimate of the minimum);
//   - q >= 1 returns Max(), which is tracked exactly rather than at
//     bucket resolution.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	seen := uint64(0)
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if seen == h.count {
				// No occupied bucket above this one: it holds the maximum,
				// which is tracked exactly.
				return h.max
			}
			mid := float64(logBucketLow(i)) + float64(logBucketWidth(i))/2
			v := mid / 1000
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds every observation of o into h. Both histograms keep their
// identities; o is read but not modified. Merging a nil or empty histogram
// is a no-op, and merging anything into an empty histogram yields a copy
// of o's distribution — Merge never invents observations, so quantiles of
// the merge are exactly the quantiles of the union.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if o == nil {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Clone returns an independent copy.
func (h *LogHistogram) Clone() *LogHistogram {
	c := *h
	return &c
}
