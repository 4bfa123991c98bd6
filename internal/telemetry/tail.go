package telemetry

// DefaultTailWindow is the tail tracker's rotation window: with two live
// windows, quantiles reflect the last ~1–2k observations (≈40–80 s of
// ticks at 25 Hz) rather than the whole process lifetime.
const DefaultTailWindow = 1024

// TailQuantiles is one snapshot of a windowed tick-duration distribution.
// All values are in milliseconds.
type TailQuantiles struct {
	// Count is the number of observations the snapshot covers.
	Count uint64
	P50   float64
	P90   float64
	P99   float64
	P999  float64
	Max   float64
}

// TailTracker maintains *windowed* latency quantiles over a stream of
// observations. A cumulative histogram answers "what was p99 since boot",
// which buries a ten-minute incident under hours of healthy samples; the
// tracker instead keeps two LogHistograms — the filling current window and
// the last full one — and reports quantiles over their union, so gauges
// scraped from /metrics track the recent distribution (between one and two
// windows of history) and recover after an incident passes.
//
// Like LogHistogram, TailTracker is not synchronized: the monitor's mutex
// (or any single-writer discipline) must guard Observe against snapshots.
type TailTracker struct {
	window uint64
	cur    *LogHistogram
	prev   *LogHistogram
}

// NewTailTracker returns a tracker rotating every window observations
// (DefaultTailWindow when window is not positive).
func NewTailTracker(window int) *TailTracker {
	if window <= 0 {
		window = DefaultTailWindow
	}
	return &TailTracker{
		window: uint64(window),
		cur:    NewLogHistogram(),
		prev:   NewLogHistogram(),
	}
}

// Observe records one value (ms), rotating the windows when the current
// one is full. Rotation recycles the retired window's histogram in place,
// so Observe never allocates.
func (t *TailTracker) Observe(ms float64) {
	if t.cur.Count() >= t.window {
		t.prev, t.cur = t.cur, t.prev
		*t.cur = LogHistogram{}
	}
	t.cur.Observe(ms)
}

// Histogram returns an independent histogram of the tracked window (the
// union of the current and previous windows). The result is mergeable
// across replicas, which is how the fleet collector builds zone-level
// quantiles from per-replica trackers.
func (t *TailTracker) Histogram() *LogHistogram {
	h := t.prev.Clone()
	h.Merge(t.cur)
	return h
}

// Quantiles snapshots the windowed distribution's headline quantiles.
func (t *TailTracker) Quantiles() TailQuantiles {
	h := t.Histogram()
	return TailQuantiles{
		Count: h.Count(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}
