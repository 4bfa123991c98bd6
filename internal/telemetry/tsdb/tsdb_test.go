package tsdb

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// appendAt appends one sample of family at time t.
func appendAt(st *Store, t float64, family string, kind Kind, v float64, labels ...string) {
	st.Append(t, Point{Family: family, Kind: kind, Labels: labels, V: v})
}

// storeMetric returns the value of one roia_tsdb_* family on the store's
// own exposition.
func storeMetric(t *testing.T, st *Store, family string) string {
	t.Helper()
	var b strings.Builder
	if err := st.WriteMetrics(&b, ""); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, family+" "); ok {
			return v
		}
	}
	t.Fatalf("%s missing from:\n%s", family, b.String())
	return ""
}

func TestSeriesRingRetention(t *testing.T) {
	st := NewStore()
	const n = SeriesCapacity + 10
	for i := 0; i < n; i++ {
		appendAt(st, float64(i), "roia_x_total", Counter, float64(i))
	}
	got := st.Query("roia_x_total", nil, 0, 0)
	if len(got) != 1 {
		t.Fatalf("series = %d, want 1", len(got))
	}
	s := got[0].Samples
	if len(s) != SeriesCapacity {
		t.Fatalf("retained = %d, want %d (ring capacity)", len(s), SeriesCapacity)
	}
	for i, smp := range s {
		if want := float64(10 + i); smp.T != want || smp.V != want {
			t.Fatalf("sample %d = (%g,%g), want (%g,%g): newest must survive, oldest drop", i, smp.T, smp.V, want, want)
		}
	}
	if got := storeMetric(t, st, "roia_tsdb_dropped_samples_total"); got != "10" {
		t.Errorf("dropped samples = %s, want 10", got)
	}
	if got := storeMetric(t, st, "roia_tsdb_samples_total"); got != fmt.Sprint(n) {
		t.Errorf("samples = %s, want %d", got, n)
	}
}

func TestStoreSeriesCap(t *testing.T) {
	st := NewStore()
	for i := 0; i < MaxSeries+2; i++ {
		appendAt(st, 1, "roia_x", Gauge, 1, "id", fmt.Sprint(i))
	}
	if got := storeMetric(t, st, "roia_tsdb_series"); got != fmt.Sprint(MaxSeries) {
		t.Errorf("series = %s, want %d (MaxSeries)", got, MaxSeries)
	}
	if got := storeMetric(t, st, "roia_tsdb_dropped_series_total"); got != "2" {
		t.Errorf("dropped series = %s, want 2", got)
	}
	// Existing series still accept samples at the cap.
	appendAt(st, 2, "roia_x", Gauge, 2, "id", "0")
	got := st.Query("roia_x", map[string]string{"id": "0"}, 0, 0)
	if len(got) != 1 || len(got[0].Samples) != 2 {
		t.Fatalf("existing series must keep accepting samples at the series cap: %+v", got)
	}
}

func TestQueryRangeAndMatch(t *testing.T) {
	st := NewStore()
	for i := 0; i < 10; i++ {
		appendAt(st, float64(i), "roia_g", Gauge, float64(10*i), "zone", "1", "replica", "a")
		appendAt(st, float64(i), "roia_g", Gauge, float64(100*i), "zone", "2", "replica", "b")
	}
	if now := st.Now(); now != 9 {
		t.Errorf("Now = %g, want 9 (the newest stamp)", now)
	}
	got := st.Query("roia_g", map[string]string{"zone": "1"}, 3, 6)
	if len(got) != 1 {
		t.Fatalf("series = %d, want 1 (zone match)", len(got))
	}
	if got[0].Labels["replica"] != "a" {
		t.Errorf("labels = %v", got[0].Labels)
	}
	if n := len(got[0].Samples); n != 4 {
		t.Fatalf("samples in [3,6] = %d, want 4", n)
	}
	if got[0].Samples[0].T != 3 || got[0].Samples[3].T != 6 {
		t.Errorf("range bounds inclusive: got %v", got[0].Samples)
	}
	if got := st.Query("roia_g", map[string]string{"zone": "3"}, 0, 0); len(got) != 0 {
		t.Errorf("unmatched labels must return no series, got %v", got)
	}
	if got := st.Query("roia_missing", nil, 0, 0); len(got) != 0 {
		t.Errorf("unknown family must return no series, got %v", got)
	}
}

// TestConcurrentAppendQuery drives appends and queries from many
// goroutines under -race: the acceptance gate for ring retention/eviction
// being safe while readers iterate.
func TestConcurrentAppendQuery(t *testing.T) {
	st := NewStore()
	const writers, readers, per = 4, 4, SeriesCapacity + 280
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := []string{"writer", fmt.Sprint(w)}
			for i := 0; i < per; i++ {
				st.Append(float64(i),
					Point{Family: "roia_conc_total", Kind: Counter, Labels: labels, V: float64(i)},
					Point{Family: "roia_conc_ms", Kind: Gauge, Labels: labels, V: float64(i % 7)})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for _, sd := range st.Query("roia_conc_total", nil, 0, 0) {
					if len(sd.Samples) > SeriesCapacity {
						t.Errorf("series over ring capacity: %d", len(sd.Samples))
						return
					}
					// Returned slices must be stable copies.
					for j := 1; j < len(sd.Samples); j++ {
						if sd.Samples[j].T < sd.Samples[j-1].T {
							t.Errorf("samples out of order")
							return
						}
					}
				}
				_ = st.WriteMetrics(io.Discard, "")
			}
		}()
	}
	wg.Wait()
	if got := storeMetric(t, st, "roia_tsdb_series"); got != fmt.Sprint(2*writers) {
		t.Errorf("series = %s, want %d", got, 2*writers)
	}
	var sb strings.Builder
	if err := st.WriteMetrics(&sb, `zone="1"`); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	for _, fam := range []string{"roia_tsdb_series", "roia_tsdb_samples_total", "roia_tsdb_dropped_samples_total", "roia_tsdb_dropped_series_total"} {
		if !strings.Contains(sb.String(), fam+`{zone="1"}`) {
			t.Errorf("WriteMetrics missing %s:\n%s", fam, sb.String())
		}
	}
}

func TestIncrease(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		want float64
	}{
		{"monotone", []float64{10, 15, 25}, 15},
		{"reset", []float64{10, 15, 3, 8}, 10}, // 5 + (reset: 3) + 5... = 5+3+5=13? see below
		{"single", []float64{7}, 0},
		{"flat", []float64{4, 4, 4}, 0},
	}
	// Hand-check the reset case: deltas 15-10=5, reset to 3 contributes 3,
	// then 8-3=5 → 13.
	cases[1].want = 13
	for _, tc := range cases {
		var samples []Sample
		for i, v := range tc.vals {
			samples = append(samples, Sample{T: float64(i), V: v})
		}
		if got := Increase(samples); got != tc.want {
			t.Errorf("%s: Increase = %g, want %g", tc.name, got, tc.want)
		}
	}
}
