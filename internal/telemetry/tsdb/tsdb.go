// Package tsdb is an embedded, bounded, in-memory time-series store for
// the fleet's observability surface. Every scrape the collector takes is a
// point-in-time snapshot; QoS — sustaining the update rate U — is a
// property over *time*, so judging it needs retained history: burn rates
// over minutes and tail quantiles over a session. The store keeps that
// history without any external dependency: a fixed-capacity ring of
// samples per {family, label set}, drop-oldest with dropped counters. It
// has no clock of its own: its writer stamps every sample (the fleet
// collector stamps the session second), and the store's now is the newest
// stamp, so a simulated session runs on its own timeline and stays
// deterministic (the repo-wide tickclock invariant).
package tsdb

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"roia/internal/telemetry"
)

// Kind is a sample family's semantic: gauges are instantaneous values,
// counters are cumulative monotone values whose information is in their
// deltas (the SLOs read their reset-aware increases). String gives the
// Prometheus type name.
type Kind uint8

// The sample kinds.
const (
	Gauge Kind = iota
	Counter
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Gauge:
		return "gauge"
	case Counter:
		return "counter"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Retention bounds: 720 samples per series (12 minutes at the 1 Hz
// control cadence) and 4096 series. Appends to new series beyond
// MaxSeries are dropped and counted, so a label cardinality explosion
// degrades to a counter, not OOM.
const (
	SeriesCapacity = 720
	MaxSeries      = 4096
)

// Point is one observation of a scrape: its family, type, label pairs and
// value. Labels holds name, value, name, value, … in exposition order.
type Point struct {
	Family string
	Kind   Kind
	Labels []string
	V      float64
}

// Sample is one timestamped observation. T is in seconds on the writer's
// clock.
type Sample struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Series is a fixed-capacity ring of samples for one {family, label set}.
// Appends past the capacity overwrite the oldest sample and count it as
// dropped — retention is bounded by design, the same discipline as every
// other long-lived telemetry buffer in the repo.
type Series struct {
	family  string
	labels  map[string]string
	kind    Kind
	buf     []Sample
	next    int
	dropped uint64
}

// append adds one sample, overwriting the oldest when the ring is full.
func (s *Series) append(smp Sample) {
	if len(s.buf) < SeriesCapacity {
		s.buf = append(s.buf, smp)
		return
	}
	s.buf[s.next] = smp
	s.next = (s.next + 1) % SeriesCapacity
	s.dropped++
}

// samples returns the retained samples in chronological order.
func (s *Series) samples() []Sample {
	out := make([]Sample, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// SeriesData is one series' query result: identity plus the retained
// samples in the requested range, chronological.
type SeriesData struct {
	Family  string
	Labels  map[string]string
	Kind    Kind
	Samples []Sample
}

// Store holds bounded time series keyed by {family, label set}. It is safe
// for concurrent use: the collector appends while HTTP query handlers and
// the SLO engine read.
type Store struct {
	mu            sync.Mutex
	series        map[string]*Series
	now           float64
	droppedSeries uint64
	appends       uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{series: make(map[string]*Series)}
}

// Now reports the store's clock: the newest stamp appended (0 while
// empty). Query windows and burn rates are measured back from it.
func (st *Store) Now() float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.now
}

// seriesKey renders the canonical identity of a series: the family plus
// the label pairs sorted by key.
func seriesKey(family string, labels map[string]string) string {
	if len(labels) == 0 {
		return family
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(family)
	for _, k := range keys {
		b.WriteByte('\x00')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// Append records one sample per point, every one stamped t (seconds on the
// writer's clock).
func (st *Store) Append(t float64, pts ...Point) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.now = max(st.now, t)
	for _, p := range pts {
		lbl := make(map[string]string, len(p.Labels)/2)
		for i := 0; i+1 < len(p.Labels); i += 2 {
			lbl[p.Labels[i]] = p.Labels[i+1]
		}
		key := seriesKey(p.Family, lbl)
		sr := st.series[key]
		if sr == nil {
			if len(st.series) >= MaxSeries {
				st.droppedSeries++
				continue
			}
			sr = &Series{family: p.Family, labels: lbl, kind: p.Kind}
			st.series[key] = sr
		}
		sr.append(Sample{T: t, V: p.V})
		st.appends++
	}
}

// Query returns every series of the given family whose labels include all
// match pairs, with the samples falling in [since, until] (chronological).
// until <= 0 means "no upper bound". Series with no samples in range are
// omitted; results are ordered by canonical series key, so a query is
// deterministic for a given store state.
func (st *Store) Query(family string, match map[string]string, since, until float64) []SeriesData {
	st.mu.Lock()
	defer st.mu.Unlock()
	type keyed struct {
		key string
		sd  SeriesData
	}
	var out []keyed
	for key, sr := range st.series {
		if sr.family != family || !labelsMatch(sr.labels, match) {
			continue
		}
		all := sr.samples()
		lo := sort.Search(len(all), func(i int) bool { return all[i].T >= since })
		hi := len(all)
		if until > 0 {
			hi = sort.Search(len(all), func(i int) bool { return all[i].T > until })
		}
		if lo >= hi {
			continue
		}
		lbl := make(map[string]string, len(sr.labels))
		for k, v := range sr.labels {
			lbl[k] = v
		}
		out = append(out, keyed{key: key, sd: SeriesData{
			Family:  sr.family,
			Labels:  lbl,
			Kind:    sr.kind,
			Samples: append([]Sample(nil), all[lo:hi]...),
		}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	res := make([]SeriesData, len(out))
	for i, k := range out {
		res[i] = k.sd
	}
	return res
}

// labelsMatch reports whether have includes every want pair.
func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// WriteMetrics exports the store's own health in the Prometheus text
// exposition format (observability of the observability substrate), so a
// cardinality explosion or eviction churn is itself visible on the scrape.
//
// Exported families:
//
//	roia_tsdb_series                  gauge, retained series
//	roia_tsdb_samples_total           counter, samples ever accepted
//	roia_tsdb_dropped_samples_total   counter, samples evicted by the rings
//	roia_tsdb_dropped_series_total    counter, appends refused at MaxSeries
func (st *Store) WriteMetrics(w io.Writer, labels string) error {
	st.mu.Lock()
	series := len(st.series)
	appends := st.appends
	droppedSeries := st.droppedSeries
	var droppedSamples uint64
	for _, sr := range st.series {
		droppedSamples += sr.dropped
	}
	st.mu.Unlock()
	lbl := telemetry.FormatLabels(labels, "")
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_tsdb_series gauge\nroia_tsdb_series%s %d\n", lbl, series)
	fmt.Fprintf(&b, "# TYPE roia_tsdb_samples_total counter\nroia_tsdb_samples_total%s %d\n", lbl, appends)
	fmt.Fprintf(&b, "# TYPE roia_tsdb_dropped_samples_total counter\nroia_tsdb_dropped_samples_total%s %d\n", lbl, droppedSamples)
	fmt.Fprintf(&b, "# TYPE roia_tsdb_dropped_series_total counter\nroia_tsdb_dropped_series_total%s %d\n", lbl, droppedSeries)
	_, err := io.WriteString(w, b.String())
	return err
}
