package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// steadyRecorder returns a recorder with a small warm window already
// observed at baseMS, so hiccup detection is armed.
func steadyRecorder(t *testing.T, cfg FlightRecConfig, baseMS float64) *FlightRecorder {
	t.Helper()
	fr := NewFlightRecorder(cfg)
	for i := 0; i < cfg.Window; i++ {
		fr.Record(TickRecord{Tick: uint64(i + 1), WallMS: baseMS})
	}
	if got := fr.Hiccups(); got != 0 {
		t.Fatalf("warmup produced %d hiccups", got)
	}
	if got := len(fr.Captures()); got != 0 {
		t.Fatalf("warmup produced %d captures", got)
	}
	return fr
}

func TestFlightRecorderHiccupCapture(t *testing.T) {
	cfg := FlightRecConfig{Pre: 4, Post: 3, K: 4, MinHiccupMS: -1, Window: 8}
	fr := steadyRecorder(t, cfg, 1.0) // ticks 1..8 at 1 ms

	fr.Record(TickRecord{Tick: 9, WallMS: 10}) // 10× median: trigger
	for tick := uint64(10); tick <= 12; tick++ {
		fr.Record(TickRecord{Tick: tick, WallMS: 1})
	}

	caps := fr.Captures()
	if len(caps) != 1 {
		t.Fatalf("captures = %d, want 1", len(caps))
	}
	c := caps[0]
	if c.Reason != "hiccup" || c.TriggerTick != 9 {
		t.Fatalf("capture = %+v, want hiccup at tick 9", c)
	}
	if c.MedianMS != 1 {
		t.Fatalf("median at trigger = %g, want 1", c.MedianMS)
	}
	// Window: 4 pre ticks (5..8), the trigger (9), 3 post ticks (10..12).
	want := []uint64{5, 6, 7, 8, 9, 10, 11, 12}
	if len(c.Records) != len(want) {
		t.Fatalf("capture has %d records, want %d", len(c.Records), len(want))
	}
	for i, rec := range c.Records {
		if rec.Tick != want[i] {
			t.Fatalf("record[%d].Tick = %d, want %d", i, rec.Tick, want[i])
		}
	}
	if fr.Hiccups() != 1 || fr.CapturesTotal() != 1 || fr.Dropped() != 0 {
		t.Fatalf("counters hiccups=%d total=%d dropped=%d", fr.Hiccups(), fr.CapturesTotal(), fr.Dropped())
	}
}

func TestFlightRecorderDeadlineTrigger(t *testing.T) {
	// No hiccup warmup: the deadline trigger must work from the first tick.
	fr := NewFlightRecorder(FlightRecConfig{Pre: 2, Post: -1})
	fr.Record(TickRecord{Tick: 1, WallMS: 10, DeadlineMS: 40})
	fr.Record(TickRecord{Tick: 2, WallMS: 55, DeadlineMS: 40, SlackMS: -15})
	caps := fr.Captures()
	if len(caps) != 1 {
		t.Fatalf("captures = %d, want 1 (Post<0 closes on the trigger)", len(caps))
	}
	c := caps[0]
	if c.Reason != "deadline" || c.TriggerTick != 2 {
		t.Fatalf("capture = %+v, want deadline at tick 2", c)
	}
	if n := len(c.Records); n != 2 {
		t.Fatalf("records = %d, want 2 (one pre tick + trigger)", n)
	}
	if fr.Hiccups() != 0 {
		t.Fatalf("deadline trigger counted as hiccup: %d", fr.Hiccups())
	}
}

// TestFlightRecorderOneAnomalyOneCapture: triggers during an open capture's
// post window must not open a second capture, so a multi-tick stall yields
// one capture, not a cascade.
func TestFlightRecorderOneAnomalyOneCapture(t *testing.T) {
	cfg := FlightRecConfig{Pre: 2, Post: 4, K: 4, MinHiccupMS: -1, Window: 8}
	fr := steadyRecorder(t, cfg, 1.0)
	for tick := uint64(9); tick <= 11; tick++ {
		fr.Record(TickRecord{Tick: tick, WallMS: 20}) // 3-tick stall
	}
	for tick := uint64(12); tick <= 20; tick++ {
		fr.Record(TickRecord{Tick: tick, WallMS: 1})
	}
	caps := fr.Captures()
	if len(caps) != 1 {
		t.Fatalf("captures = %d, want 1 for one contiguous stall", len(caps))
	}
	if caps[0].TriggerTick != 9 {
		t.Fatalf("trigger tick = %d, want 9", caps[0].TriggerTick)
	}
	if fr.Hiccups() != 3 {
		t.Fatalf("hiccups = %d, want 3 (every stalled tick counts)", fr.Hiccups())
	}
}

func TestFlightRecorderNoFalsePositives(t *testing.T) {
	cfg := FlightRecConfig{Pre: 4, Post: 2, K: 4, Window: 16}
	fr := NewFlightRecorder(cfg)
	// Mild jitter around 2 ms, never 4× the median, plus sub-floor noise
	// spikes (0.1 ms base with the default 1 ms floor would not trigger
	// either, but here base is 2 ms so the floor is irrelevant).
	walls := []float64{2.0, 2.2, 1.8, 2.1, 1.9, 2.4, 2.0, 2.3}
	for i := 0; i < 200; i++ {
		fr.Record(TickRecord{Tick: uint64(i + 1), WallMS: walls[i%len(walls)]})
	}
	if got := fr.Hiccups(); got != 0 {
		t.Fatalf("steady load produced %d hiccups", got)
	}
	if got := len(fr.Captures()); got != 0 {
		t.Fatalf("steady load produced %d captures", got)
	}
}

// TestFlightRecorderHiccupFloor: with the default 1 ms floor, a 4× spike in
// a sub-millisecond baseline is jitter, not a hiccup.
func TestFlightRecorderHiccupFloor(t *testing.T) {
	cfg := FlightRecConfig{Pre: 2, Post: 2, K: 4, Window: 8}
	fr := steadyRecorder(t, cfg, 0.05)
	fr.Record(TickRecord{Tick: 9, WallMS: 0.5}) // 10× median but below 1 ms
	if got := fr.Hiccups(); got != 0 {
		t.Fatalf("sub-floor spike counted as hiccup: %d", got)
	}
	fr.Record(TickRecord{Tick: 10, WallMS: 2}) // above the floor and 4× median
	if got := fr.Hiccups(); got != 1 {
		t.Fatalf("above-floor spike not counted: %d", got)
	}
}

func TestFlightRecorderCaptureEviction(t *testing.T) {
	cfg := FlightRecConfig{Pre: 1, Post: -1, K: 4, MinHiccupMS: -1, Window: 4, MaxCaptures: 2}
	fr := steadyRecorder(t, cfg, 1.0)
	// Alternate spike/recovery so each spike triggers its own capture: a
	// Post<0 capture closes immediately, and the window median stays 1
	// (spikes are a minority of the window).
	trigger := uint64(5)
	for i := 0; i < 4; i++ {
		fr.Record(TickRecord{Tick: trigger, WallMS: 50})
		for j := uint64(1); j <= 4; j++ {
			fr.Record(TickRecord{Tick: trigger + j, WallMS: 1})
		}
		trigger += 5
	}
	caps := fr.Captures()
	if len(caps) != 2 {
		t.Fatalf("retained captures = %d, want MaxCaptures = 2", len(caps))
	}
	if fr.CapturesTotal() != 4 || fr.Dropped() != 2 {
		t.Fatalf("total=%d dropped=%d, want 4/2", fr.CapturesTotal(), fr.Dropped())
	}
	// Oldest dropped first: the survivors are the two most recent.
	if caps[0].ID != 3 || caps[1].ID != 4 {
		t.Fatalf("surviving capture IDs = %d, %d, want 3, 4", caps[0].ID, caps[1].ID)
	}
}

func TestFlightJSONLAndHandler(t *testing.T) {
	cfg := FlightRecConfig{Pre: 2, Post: 1, K: 4, MinHiccupMS: -1, Window: 4}
	fr := steadyRecorder(t, cfg, 1.0)
	fr.Record(TickRecord{
		Tick: 5, WallMS: 30, CPUMS: 32, DeadlineMS: 40,
		Users: 7, ActiveUsers: 7, NPCs: 3, Workers: 2, QueueDepth: 9,
		Tasks: []Span{{Name: "t_npc", DurMS: 29, Items: 3}},
	})
	fr.Record(TickRecord{Tick: 6, WallMS: 1})

	var sb strings.Builder
	if err := WriteFlightJSONL(&sb, fr.Captures()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 5 { // header + 2 pre + trigger + 1 post
		t.Fatalf("JSONL has %d lines, want 5:\n%s", len(lines), sb.String())
	}
	var header struct {
		Capture uint64 `json:"capture"`
		Reason  string `json:"reason"`
		Records int    `json:"records"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if header.Capture != 1 || header.Reason != "hiccup" || header.Records != 4 {
		t.Fatalf("header = %+v", header)
	}
	var trigger TickRecord
	if err := json.Unmarshal([]byte(lines[3]), &trigger); err != nil {
		t.Fatalf("trigger line: %v", err)
	}
	if trigger.Tick != 5 || trigger.QueueDepth != 9 || len(trigger.Tasks) != 1 || trigger.Tasks[0].Name != "t_npc" {
		t.Fatalf("trigger record = %+v", trigger)
	}

	// The HTTP handler serves the same stream.
	rr := httptest.NewRecorder()
	FlightRecHandler(fr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrec", nil))
	if rr.Code != 200 {
		t.Fatalf("handler status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	got := 0
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		got++
	}
	if got != 5 {
		t.Fatalf("handler served %d lines, want 5", got)
	}

	// n=0 limits to no captures.
	rr = httptest.NewRecorder()
	FlightRecHandler(fr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrec?n=0", nil))
	if rr.Body.Len() != 0 {
		t.Fatalf("n=0 served %q", rr.Body.String())
	}
	rr = httptest.NewRecorder()
	FlightRecHandler(fr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrec?n=bogus", nil))
	if rr.Code != 400 {
		t.Fatalf("bad n status = %d", rr.Code)
	}
}

func TestFlightRecorderWriteMetrics(t *testing.T) {
	cfg := FlightRecConfig{Pre: 2, Post: -1, K: 4, MinHiccupMS: -1, Window: 4}
	fr := steadyRecorder(t, cfg, 1.0)
	fr.Record(TickRecord{Tick: 5, WallMS: 50})
	var sb strings.Builder
	if err := fr.WriteMetrics(&sb, `replica="r1"`); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`roia_ticks_total{replica="r1"} 5`,
		`roia_tick_wall_q_ms{replica="r1",q="p50"} 1`,
		`roia_tick_wall_q_ms{replica="r1",q="p999"} 50`,
		`roia_tick_hiccups_total{replica="r1"} 1`,
		`roia_flightrec_captures_total{replica="r1"} 1`,
		`roia_flightrec_captures_dropped_total{replica="r1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	assertExposition(t, out)
}

// TestFlightRecorderRollingMedianEviction exercises the sorted-mirror
// maintenance across many window wraps with repeated values.
func TestFlightRecorderRollingMedianEviction(t *testing.T) {
	cfg := FlightRecConfig{Pre: 1, Post: -1, K: 10, MinHiccupMS: -1, Window: 4}
	fr := NewFlightRecorder(cfg)
	walls := []float64{1, 1, 2, 2, 3, 3, 1, 2, 1, 1, 1, 2, 3, 2, 1}
	for i, w := range walls {
		fr.Record(TickRecord{Tick: uint64(i + 1), WallMS: w})
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if len(fr.sorted) != len(fr.window) {
		t.Fatalf("sorted mirror diverged: %d vs %d", len(fr.sorted), len(fr.window))
	}
	for i := 1; i < len(fr.sorted); i++ {
		if fr.sorted[i-1] > fr.sorted[i] {
			t.Fatalf("mirror not sorted: %v", fr.sorted)
		}
	}
}

// TestFlightRecorderLast: Last reads the ring in chronological order both
// before it fills and after it wraps, and a capture still copies exactly
// Pre records before its trigger out of the longer ring.
func TestFlightRecorderLast(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ticks int // records fed: ticks 1..ticks, the last one a deadline miss
		n     int
		want  []uint64 // Last(n) ticks
	}{
		{"partial", 10, 3, []uint64{8, 9, 10}},
		{"partial_all", 5, 0, []uint64{1, 2, 3, 4, 5}},
		{"wrapped", flightHistory + 700, 4, []uint64{flightHistory + 697, flightHistory + 698, flightHistory + 699, flightHistory + 700}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pre = 3
			fr := NewFlightRecorder(FlightRecConfig{Pre: pre, Post: -1})
			for i := 1; i <= tc.ticks; i++ {
				rec := TickRecord{Tick: uint64(i), WallMS: 1}
				if i == tc.ticks {
					rec.DeadlineMS = 0.5
				}
				fr.Record(rec)
			}
			last := fr.Last(tc.n)
			if len(last) != len(tc.want) {
				t.Fatalf("Last(%d) returned %d records, want %d", tc.n, len(last), len(tc.want))
			}
			for i, want := range tc.want {
				if last[i].Tick != want {
					t.Fatalf("Last(%d)[%d].Tick = %d, want %d", tc.n, i, last[i].Tick, want)
				}
			}
			all := fr.Last(0)
			if want := min(tc.ticks, flightHistory); len(all) != want {
				t.Fatalf("Last(0) returned %d records, want %d", len(all), want)
			}
			for i := 1; i < len(all); i++ {
				if all[i].Tick != all[i-1].Tick+1 {
					t.Fatalf("Last(0) not chronological at %d: %d after %d", i, all[i].Tick, all[i-1].Tick)
				}
			}
			caps := fr.Captures()
			if len(caps) != 1 {
				t.Fatalf("captures = %d, want 1", len(caps))
			}
			recs := caps[0].Records
			if want := min(pre, tc.ticks-1) + 1; len(recs) != want {
				t.Fatalf("capture holds %d records, want %d (Pre before the trigger, then the trigger)", len(recs), want)
			}
			if got := recs[len(recs)-1].Tick; got != uint64(tc.ticks) {
				t.Fatalf("capture ends at tick %d, want the trigger %d", got, tc.ticks)
			}
		})
	}
}

// allocSink keeps test allocations live so the compiler cannot elide them.
var allocSink [][]byte

// TestFlightRecorderSamplesRuntime: the heap allocations and the GC forced
// between BeginTick and Record land in the record, and a following tick
// without a GC does not inherit the previous tick's pauses.
func TestFlightRecorderSamplesRuntime(t *testing.T) {
	fr := NewFlightRecorder(FlightRecConfig{})
	fr.BeginTick()
	for i := 0; i < 2; i++ {
		allocSink = append(allocSink, make([]byte, 1<<20))
	}
	runtime.GC()
	fr.Record(TickRecord{Tick: 1})
	allocSink = nil

	fr.BeginTick()
	fr.Record(TickRecord{Tick: 2})
	recs := fr.Last(0)
	if got := recs[0]; got.AllocBytes < 2<<20 || got.AllocObjects < 2 {
		t.Fatalf("tick allocations = (%d B, %d objs), want >= 2 MiB in >= 2 objects", got.AllocBytes, got.AllocObjects)
	}
	if got := recs[0]; got.GCCycles == 0 || got.GCPauseMS <= 0 {
		t.Fatalf("forced GC inside the tick, but GC deltas are (%d cycles, %g ms)", got.GCCycles, got.GCPauseMS)
	}
	if got := recs[1]; got.GCPauseMS != 0 && got.GCCycles == 0 {
		t.Fatalf("no GC cycle in tick 2 but pause delta = %g ms", got.GCPauseMS)
	}
}

// TestFlightRecorderRecordWithoutBeginTick: without an open sample Record
// keeps the caller's GC and allocation fields, and one BeginTick fills one
// record only.
func TestFlightRecorderRecordWithoutBeginTick(t *testing.T) {
	fr := NewFlightRecorder(FlightRecConfig{})
	fr.Record(TickRecord{Tick: 1, GCPauseMS: 3, GCCycles: 1})
	fr.BeginTick()
	fr.Record(TickRecord{Tick: 2})
	fr.Record(TickRecord{Tick: 3, AllocBytes: 7})
	recs := fr.Last(0)
	if got := recs[0]; got.GCPauseMS != 3 || got.GCCycles != 1 || got.AllocBytes != 0 {
		t.Fatalf("unsampled record changed: %+v", got)
	}
	if got := recs[2]; got.AllocBytes != 7 || got.AllocObjects != 0 {
		t.Fatalf("second Record after one BeginTick was sampled: %+v", got)
	}
}

// TestFlightRecorderMigrations: Migrations returns the ring's migration
// events in chronological order, and an event leaves with its record when
// the ring wraps.
func TestFlightRecorderMigrations(t *testing.T) {
	fr := NewFlightRecorder(FlightRecConfig{})
	mig := func(id uint64) []MigEvent { return []MigEvent{{ID: id, Phase: MigPhaseInit}} }
	fr.Record(TickRecord{Tick: 1, Migrations: mig(1)})
	fr.Record(TickRecord{Tick: 2, Migrations: append(mig(2), MigEvent{ID: 3, Phase: MigPhaseRecv})})
	for i := 3; i <= flightHistory; i++ {
		fr.Record(TickRecord{Tick: uint64(i)})
	}
	fr.Record(TickRecord{Tick: flightHistory + 1, Migrations: mig(4)})
	var ids []uint64
	for _, e := range fr.Migrations() {
		ids = append(ids, e.ID)
	}
	if want := []uint64{2, 3, 4}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("migration IDs = %v, want %v (tick 1 left the ring)", ids, want)
	}
}

// TestFlightRecorderConcurrentReaders: the tick loop samples and records
// while a collector reads the ring's migrations and records, as in a
// served fleet; run under -race.
func TestFlightRecorderConcurrentReaders(t *testing.T) {
	fr := NewFlightRecorder(FlightRecConfig{})
	const n = flightHistory + 500 // past the fill, so slots are reused
	done := make(chan struct{})
	go func() {
		defer close(done)
		tasks := make([]Span, 3)
		for i := 1; i <= n; i++ {
			tasks[0].Items = i // the writer reuses its slice, as the server does
			fr.BeginTick()
			fr.Record(TickRecord{Tick: uint64(i), WallMS: 1, Tasks: tasks, Migrations: []MigEvent{{ID: uint64(i)}}})
		}
	}()
	var cursor uint64
	check := func(recs []TickRecord) {
		for _, r := range recs {
			if r.Tasks[0].Items != int(r.Tick) || r.Migrations[0].ID != r.Tick {
				t.Fatalf("torn copy: tick %d carries task items %d, migration %d", r.Tick, r.Tasks[0].Items, r.Migrations[0].ID)
			}
		}
	}
	for {
		select {
		case <-done:
			if got := len(fr.Migrations()); got != flightHistory {
				t.Fatalf("migrations = %d, want %d", got, flightHistory)
			}
			if s := fr.Summary(); s.Ticks != n || len(s.Walls) != flightHistory {
				t.Fatalf("summary after %d records: %d ticks, %d walls", n, s.Ticks, len(s.Walls))
			}
			return
		default:
			fr.Migrations()
			check(fr.Last(8))
			var recs []TickRecord
			recs, cursor = fr.Since(cursor)
			check(recs)
			fr.Summary()
		}
	}
}
