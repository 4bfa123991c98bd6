package telemetry

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

// metricLineRE matches one sample line of the Prometheus text format:
// name{label="value",...} number.
var metricLineRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.eE+-]+(e[+-]?[0-9]+)?$`)

// assertExposition checks every non-comment line against the exposition
// line grammar so a malformed label set or missing value fails loudly.
func assertExposition(t *testing.T, out string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLineRE.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestLogBucketMonotoneAndBounded(t *testing.T) {
	prev := -1
	for us := uint64(0); us < 1<<14; us++ {
		b := logBucket(us)
		if b < prev {
			t.Fatalf("bucket index not monotone at %dµs: %d < %d", us, b, prev)
		}
		if b < 0 || b >= numLogBuckets {
			t.Fatalf("bucket index out of range at %dµs: %d", us, b)
		}
		prev = b
	}
	if b := logBucket(math.MaxUint64); b != numLogBuckets-1 {
		t.Fatalf("max uint64 should land in the last bucket, got %d of %d", b, numLogBuckets)
	}
}

func TestLogBucketBoundsContainValue(t *testing.T) {
	for _, us := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 12345, 1 << 20, 1<<40 + 12345} {
		i := logBucket(us)
		lo := logBucketLow(i)
		hi := lo + logBucketWidth(i)
		if us < lo || us >= hi {
			t.Fatalf("value %dµs not inside bucket %d [%d, %d)", us, i, lo, hi)
		}
	}
}

func TestLogBucketRelativeError(t *testing.T) {
	for _, us := range []uint64{32, 100, 999, 4096, 65537, 1 << 22} {
		i := logBucket(us)
		w := logBucketWidth(i)
		if rel := float64(w) / float64(logBucketLow(i)); rel > 1.0/logSubBuckets {
			t.Fatalf("bucket %d for %dµs has relative width %.4f > %.4f", i, us, rel, 1.0/logSubBuckets)
		}
	}
}

func TestLogHistogramExactBelow32us(t *testing.T) {
	h := NewLogHistogram()
	// 0.005 ms = 5 µs: exact bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.005)
	}
	// Bucket midpoint is 5.5 µs but quantiles are clamped to the exact max.
	if got := h.Quantile(0.5); math.Abs(got-0.005) > 1e-9 {
		t.Fatalf("p50 of exact bucket = %g, want 0.005 (midpoint clamped to max)", got)
	}
}

func TestLogHistogramQuantiles(t *testing.T) {
	h := NewLogHistogram()
	// 1..1000 ms uniformly.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	checks := []struct{ q, want float64 }{{0.50, 500}, {0.95, 950}, {0.99, 990}, {0.999, 999}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if rel := math.Abs(got-c.want) / c.want; rel > 0.07 {
			t.Errorf("q%g = %g, want %g ± 7%%", c.q, got, c.want)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("q1 = %g, want exact max %g", h.Quantile(1), h.Max())
	}
	if mean := h.Mean(); math.Abs(mean-500.5) > 1e-6 {
		t.Errorf("mean = %g, want exact 500.5", mean)
	}
}

func TestLogHistogramIgnoresBadValues(t *testing.T) {
	h := NewLogHistogram()
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(-1)
	if h.Count() != 0 {
		t.Fatalf("bad values recorded: count = %d", h.Count())
	}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty quantile = %g", h.Quantile(0.5))
	}
}

func TestLogHistogramMerge(t *testing.T) {
	a, b := NewLogHistogram(), NewLogHistogram()
	for i := 1; i <= 500; i++ {
		a.Observe(float64(i))
	}
	for i := 501; i <= 1000; i++ {
		b.Observe(float64(i))
	}
	whole := NewLogHistogram()
	for i := 1; i <= 1000; i++ {
		whole.Observe(float64(i))
	}
	a.Merge(b)
	a.Merge(nil) // no-op
	if a.Count() != whole.Count() || a.Sum() != whole.Sum() || a.Max() != whole.Max() {
		t.Fatalf("merge totals diverge: count %d/%d sum %g/%g max %g/%g",
			a.Count(), whole.Count(), a.Sum(), whole.Sum(), a.Max(), whole.Max())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q%g: merged %g != whole %g", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

// TestLogHistogramQuantileEdges pins the documented edge cases of
// Quantile: empty histograms, q at and beyond both ends of [0, 1], and
// single-bucket histograms, where the midpoint clamp must keep the answer
// at the exact observed value.
func TestLogHistogramQuantileEdges(t *testing.T) {
	empty := NewLogHistogram()
	for _, q := range []float64{-1, 0, 0.5, 0.999, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}

	// Single-bucket histogram: every observation is the same value, so
	// every quantile — including the q<=0 and q>=1 clamps — must report
	// exactly that value (midpoint clamped to the tracked max).
	single := NewLogHistogram()
	for i := 0; i < 7; i++ {
		single.Observe(5)
	}
	for _, q := range []float64{-0.5, 0, 0.001, 0.5, 0.999, 1, 1.5} {
		if got := single.Quantile(q); got != 5 {
			t.Errorf("single-bucket Quantile(%g) = %g, want 5", q, got)
		}
	}

	// Interpolation ends of a spread distribution: q<=0 estimates the
	// minimum at bucket resolution, q>=1 is the exact maximum.
	h := NewLogHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0); math.Abs(got-1) > 0.07 {
		t.Errorf("Quantile(0) = %g, want ≈ minimum 1", got)
	}
	if got, lo := h.Quantile(0), h.Quantile(0.5); got > lo {
		t.Errorf("Quantile(0) = %g above Quantile(0.5) = %g", got, lo)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %g, want exact max 100", got)
	}
	if got := h.Quantile(2); got != 100 {
		t.Errorf("Quantile(2) = %g, want clamp to max 100", got)
	}
}

// TestLogHistogramMergeWithEmpty pins merge-with-empty in both directions:
// neither direction may invent or lose observations.
func TestLogHistogramMergeWithEmpty(t *testing.T) {
	h := NewLogHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	want := h.Clone()

	// Merging an empty histogram into a full one changes nothing.
	h.Merge(NewLogHistogram())
	if h.Count() != want.Count() || h.Sum() != want.Sum() || h.Max() != want.Max() {
		t.Fatalf("merge(empty) changed totals: count %d/%d sum %g/%g max %g/%g",
			h.Count(), want.Count(), h.Sum(), want.Sum(), h.Max(), want.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if h.Quantile(q) != want.Quantile(q) {
			t.Errorf("merge(empty) moved Quantile(%g): %g != %g", q, h.Quantile(q), want.Quantile(q))
		}
	}

	// Merging into an empty histogram reproduces the source distribution.
	into := NewLogHistogram()
	into.Merge(want)
	if into.Count() != want.Count() || into.Sum() != want.Sum() || into.Max() != want.Max() {
		t.Fatalf("empty.Merge(h) totals: count %d/%d sum %g/%g max %g/%g",
			into.Count(), want.Count(), into.Sum(), want.Sum(), into.Max(), want.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if into.Quantile(q) != want.Quantile(q) {
			t.Errorf("empty.Merge(h) Quantile(%g): %g != %g", q, into.Quantile(q), want.Quantile(q))
		}
	}
}

func TestLogHistogramClone(t *testing.T) {
	h := NewLogHistogram()
	h.Observe(42)
	c := h.Clone()
	c.Observe(100)
	if h.Count() != 1 || c.Count() != 2 {
		t.Fatalf("clone not independent: %d / %d", h.Count(), c.Count())
	}
}

func TestLatencyDeadlineAccounting(t *testing.T) {
	l := NewLatency(40)
	for i := 0; i < 95; i++ {
		l.Observe(10)
	}
	for i := 0; i < 5; i++ {
		l.Observe(80)
	}
	s := l.Snapshot()
	if s.Count != 100 || s.Violations != 5 {
		t.Fatalf("count=%d violations=%d, want 100/5", s.Count, s.Violations)
	}
	if got := s.ViolationRate(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("violation rate = %g", got)
	}
	if s.DeadlineMS != 40 {
		t.Fatalf("deadline = %g", s.DeadlineMS)
	}
	// Exactly at the deadline is not a violation.
	l2 := NewLatency(40)
	l2.Observe(40)
	if v := l2.Snapshot().Violations; v != 0 {
		t.Fatalf("observation at deadline counted as violation: %d", v)
	}
	// Disabled deadline never counts.
	l3 := NewLatency(0)
	l3.Observe(1e6)
	if v := l3.Snapshot().Violations; v != 0 {
		t.Fatalf("disabled deadline counted violation: %d", v)
	}
}

func TestLatencyMerge(t *testing.T) {
	a, b := NewLatency(40), NewLatency(40)
	a.Observe(10)
	b.Observe(90)
	b.Observe(95)
	a.Merge(b)
	a.Merge(nil)
	a.Merge(a) // self-merge must not double
	s := a.Snapshot()
	if s.Count != 3 || s.Violations != 2 {
		t.Fatalf("merged count=%d violations=%d, want 3/2", s.Count, s.Violations)
	}
}
