package telemetry

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"roia/internal/stats"
)

// summaryStream returns n seeded tick records shaped like a server's: a
// wall time, a CPU sum, a deadline some ticks miss, a GC pause on some
// ticks, and task spans of which t_fa runs with no items on half the ticks
// and t_mig_ini only on some.
func summaryStream(seed int64, n int, scale float64) []TickRecord {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]TickRecord, n)
	for i := range recs {
		wall := scale * (1 + rng.ExpFloat64())
		rec := TickRecord{
			Tick:       uint64(i + 1),
			WallMS:     wall,
			CPUMS:      wall * (1 + rng.Float64()),
			DeadlineMS: 3 * scale,
			Users:      100 + i%50,
		}
		if rng.Intn(10) == 0 {
			rec.GCPauseMS = rng.Float64() / 10
		}
		for _, name := range []string{"t_ua_dser", "t_ua", "t_fa", "t_npc", "t_aoi", "t_su", "t_mig_ini"} {
			items := 1 + rng.Intn(40)
			switch {
			case name == "t_fa" && i%2 == 0:
				items = 0
			case name == "t_mig_ini" && rng.Intn(20) != 0:
				continue
			}
			rec.Tasks = append(rec.Tasks, Span{Name: name, DurMS: scale * rng.Float64() * float64(items+1), Items: items})
		}
		recs[i] = rec
	}
	return recs
}

func walls(recs []TickRecord, f func(TickRecord) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// tailQuantiles reads the quantiles the /metrics and fleet tail families
// export from ascending values.
func tailQuantiles(asc []float64) []float64 {
	var out []float64
	for _, p := range []float64{50, 90, 99, 99.9, 100} {
		out = append(out, stats.Percentile(asc, p))
	}
	return out
}

// TestFlightRecorderSummary checks the recorder's one summary against what
// it replaced, over a seeded 3000-tick stream: the wall, CPU and per-task
// statistics over the newest SummaryWindow records equal stats.Summarize
// over the same values (the 512-sample reservoirs' reading), the tail
// quantiles equal stats.Percentile over the whole ring, and a zone pools
// two replicas' rings.
func TestFlightRecorderSummary(t *testing.T) {
	record := func(recs []TickRecord) TickSummary {
		fr := NewFlightRecorder(FlightRecConfig{MinHiccupMS: 1e9})
		for _, r := range recs {
			fr.Record(r)
		}
		return fr.Summary()
	}
	a, b := summaryStream(1, 3000, 1), summaryStream(2, 3000, 3)
	sa, sb := record(a), record(b)
	window, ring := a[len(a)-SummaryWindow:], a[len(a)-flightHistory:]

	perItem := make(map[string][]float64)
	for _, r := range window {
		for _, sp := range r.Tasks {
			if sp.Items > 0 {
				perItem[sp.Name] = append(perItem[sp.Name], sp.DurMS/float64(sp.Items))
			}
		}
	}
	wantTasks := make(map[string]stats.Summary)
	for name, v := range perItem {
		wantTasks[name] = stats.Summarize(v)
	}
	violations := uint64(0)
	for _, r := range a {
		if r.WallMS > r.DeadlineMS {
			violations++
		}
	}
	wantNewest := a[len(a)-1]
	wantNewest.Tasks = nil

	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"counters", []uint64{sa.Ticks, sa.Violations}, []uint64{3000, violations}},
		{"newest record", sa.Newest, wantNewest},
		{"wall over the window", sa.Wall, stats.Summarize(walls(window, func(r TickRecord) float64 { return r.WallMS }))},
		{"cpu over the window", sa.CPU, stats.Summarize(walls(window, func(r TickRecord) float64 { return r.CPUMS }))},
		{"per-item task cost over the window", sa.Tasks, wantTasks},
		{"tail over the ring", tailQuantiles(sa.Walls), tailQuantiles(sorted(walls(ring, func(r TickRecord) float64 { return r.WallMS })))},
		{"gc pauses over the ring", sa.GCPauses, sorted(walls(ring, func(r TickRecord) float64 { return r.GCPauseMS }))},
		{"zone pools two replicas", tailQuantiles(PooledWalls(sa, sb)), tailQuantiles(sorted(append(
			walls(ring, func(r TickRecord) float64 { return r.WallMS }),
			walls(b[len(b)-flightHistory:], func(r TickRecord) float64 { return r.WallMS })...)))},
		{"empty recorder", record(nil).Wall, stats.Summary{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !reflect.DeepEqual(tc.got, tc.want) {
				t.Fatalf("got  %+v\nwant %+v", tc.got, tc.want)
			}
		})
	}
}

// TestTailTrackerRotation checks that the tail is a window sliding over the
// ring: an incident stays in it until the ring has turned over, then ages
// out, and at every step the tail quantiles are those of the newest
// flightHistory wall times.
func TestTailTrackerRotation(t *testing.T) {
	fr := NewFlightRecorder(FlightRecConfig{MinHiccupMS: 1e9})
	var seen []float64
	record := func(ms float64) {
		fr.Record(TickRecord{WallMS: ms})
		seen = append(seen, ms)
	}
	// An incident: 100 slow ticks, then fast ones.
	for i := 0; i < 100; i++ {
		record(100)
	}
	for i := 0; i < 1000; i++ {
		record(1)
	}
	s := fr.Summary()
	if p50, p99 := stats.Percentile(s.Walls, 50), stats.Percentile(s.Walls, 99); p50 != 1 || p99 != 100 {
		t.Fatalf("during the incident p50 = %g, p99 = %g, want 1 and 100", p50, p99)
	}
	for i := 0; i < flightHistory; i++ {
		record(1)
	}
	s = fr.Summary()
	if p99, top := stats.Percentile(s.Walls, 99), stats.Percentile(s.Walls, 100); p99 != 1 || top != 1 {
		t.Fatalf("after the ring turned over p99 = %g, max = %g, want 1 and 1", p99, top)
	}

	// A varied stream across several turns of the ring, checked against
	// the newest flightHistory values.
	for i := 0; i < 3*flightHistory; i++ {
		record(float64(1 + (i*37)%23))
		if i%251 != 0 {
			continue
		}
		got := tailQuantiles(fr.Summary().Walls)
		want := tailQuantiles(sorted(seen[len(seen)-flightHistory:]))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d records tail = %v, want %v", len(seen), got, want)
		}
	}
}

// TestTailTrackerHistogramMergeable checks that a zone's pooled tail is the
// tail of one ring holding every replica's records: a slow replica shows
// in the pooled p99 and a fast one in the pooled p50, the order of the
// replicas does not matter, and an idle replica adds nothing.
func TestTailTrackerHistogramMergeable(t *testing.T) {
	fast := NewFlightRecorder(FlightRecConfig{MinHiccupMS: 1e9})
	slow := NewFlightRecorder(FlightRecConfig{MinHiccupMS: 1e9})
	both := NewFlightRecorder(FlightRecConfig{MinHiccupMS: 1e9})
	for i := 0; i < 50; i++ {
		fast.Record(TickRecord{WallMS: 1})
		slow.Record(TickRecord{WallMS: 100})
		both.Record(TickRecord{WallMS: 1})
		both.Record(TickRecord{WallMS: 100})
	}
	idle := NewFlightRecorder(FlightRecConfig{}).Summary()
	pooled := PooledWalls(fast.Summary(), slow.Summary())
	if len(pooled) != 100 {
		t.Fatalf("pooled %d wall times, want 100", len(pooled))
	}
	if p99 := stats.Percentile(pooled, 99); p99 != 100 {
		t.Fatalf("pooled p99 = %g, want the slow replica visible", p99)
	}
	if p50 := stats.Percentile(pooled, 50); p50 >= 100 {
		t.Fatalf("pooled p50 = %g, want the fast replica visible", p50)
	}
	for name, got := range map[string][]float64{
		"one ring holding both": both.Summary().Walls,
		"replicas reversed":     PooledWalls(slow.Summary(), fast.Summary()),
		"with an idle replica":  PooledWalls(fast.Summary(), idle, slow.Summary()),
	} {
		if !reflect.DeepEqual(got, pooled) {
			t.Fatalf("%s: tail %v, want %v", name, tailQuantiles(got), tailQuantiles(pooled))
		}
	}
}

// TestFlightRecorderRecordAllocs holds the always-on ring to zero
// allocations per tick once it has filled: a record reuses the evicted
// slot's Tasks array, and readers get copies that later records do not
// touch.
func TestFlightRecorderRecordAllocs(t *testing.T) {
	fr := NewFlightRecorder(FlightRecConfig{MinHiccupMS: 1e9})
	tasks := make([]Span, 7)
	rec := TickRecord{WallMS: 1, DeadlineMS: 40, Tasks: tasks}
	for i := 0; i < flightHistory; i++ {
		fr.BeginTick()
		fr.Record(rec)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		fr.BeginTick()
		fr.Record(rec)
	}); allocs != 0 {
		t.Fatalf("BeginTick+Record allocates %v times per tick on a full ring, want 0", allocs)
	}

	tasks[0] = Span{Name: "t_ua", DurMS: 1, Items: 1}
	fr.Record(rec)
	last := fr.Last(1)
	tasks[0] = Span{Name: "t_ua", DurMS: 2, Items: 2}
	for i := 0; i < flightHistory; i++ {
		fr.Record(rec)
	}
	if got := last[0].Tasks[0]; got.DurMS != 1 || got.Items != 1 {
		t.Fatalf("a copy from Last changed under later records: %+v", got)
	}
}

func TestFlightRecorderSince(t *testing.T) {
	fr := NewFlightRecorder(FlightRecConfig{})
	ticks := func(recs []TickRecord) []uint64 {
		var out []uint64
		for _, r := range recs {
			out = append(out, r.Tick)
		}
		return out
	}
	for i := 1; i <= 3; i++ {
		fr.Record(TickRecord{Tick: uint64(i)})
	}
	recs, cur := fr.Since(0)
	if got := ticks(recs); !reflect.DeepEqual(got, []uint64{1, 2, 3}) || cur != 3 {
		t.Fatalf("Since(0) = %v, cursor %d", got, cur)
	}
	if recs, next := fr.Since(cur); recs != nil || next != cur {
		t.Fatalf("Since with nothing new = %v, cursor %d", ticks(recs), next)
	}
	fr.Record(TickRecord{Tick: 4})
	fr.Record(TickRecord{Tick: 5})
	if recs, next := fr.Since(cur); !reflect.DeepEqual(ticks(recs), []uint64{4, 5}) || next != 5 {
		t.Fatalf("Since(%d) = %v, cursor %d", cur, ticks(recs), next)
	}
	// A reader that fell behind the ring gets what the ring still holds.
	for i := 6; i <= flightHistory+10; i++ {
		fr.Record(TickRecord{Tick: uint64(i)})
	}
	recs, next := fr.Since(5)
	if len(recs) != flightHistory || recs[0].Tick != 11 || next != flightHistory+10 {
		t.Fatalf("Since behind the ring: %d records from tick %d, cursor %d", len(recs), recs[0].Tick, next)
	}
}
