package server_test

import (
	"testing"

	"roia/internal/rtf/entity"
)

func TestTickTraceRecordsSpans(t *testing.T) {
	p := duo(0, 0)
	p.inputs = func(int, int) [][]byte { return [][]byte{{0, 1}} } // rejected by the game, timed all the same
	h := build(t, p, ref)
	defer h.finish()
	srv, rec := h.servers[0], h.servers[0].FlightRecorder()
	srv.SpawnNPC(entity.Vec2{X: 12, Y: 12})
	for tick := range 10 {
		h.step(tick)
	}
	recs := rec.Last(0)
	if len(recs) != 10 {
		t.Fatalf("ring holds %d records, want 10", len(recs))
	}
	last := recs[len(recs)-1]
	if ticks := rec.Summary().Ticks; last.Tick != ticks {
		t.Fatalf("last record tick = %d, recorded ticks = %d", last.Tick, ticks)
	}
	if len(last.Tasks) == 0 {
		t.Fatal("last record has no task spans")
	}
	// The spans are synthesized from the same Breakdown the monitor
	// ingests, laid out contiguously from 0 in loop order, so they sum
	// exactly to its task total.
	offset := 0.0
	for _, sp := range last.Tasks {
		if sp.StartMS != offset {
			t.Fatalf("span %s starts at %g, want %g", sp.Name, sp.StartMS, offset)
		}
		offset += sp.DurMS
	}
	br := srv.Monitor().LastBreakdown()
	if total := br.Total(); offset != total || last.CPUMS != total {
		t.Fatalf("spans sum to %g ms, record CPU %g ms, breakdown total %g ms", offset, last.CPUMS, total)
	}
	// Wall time covers at least the task time.
	if last.WallMS < offset {
		t.Fatalf("wall %g ms < task total %g ms", last.WallMS, offset)
	}
	// NPC work must show up as a named model parameter.
	found := false
	for _, sp := range last.Tasks {
		if sp.Name == "t_npc" && sp.Items == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("t_npc span missing: %+v", last.Tasks)
	}
}

// TestTickTraceOnByDefault: a server built without a recorder gets one
// with the default thresholds, and every tick lands in it with the QoS
// deadline 1/U, the tick interval.
func TestTickTraceOnByDefault(t *testing.T) {
	h := build(t, duo(0, 0), ref)
	defer h.finish()
	rec := h.servers[0].FlightRecorder()
	if rec == nil {
		t.Fatal("no flight recorder without configuration")
	}
	h.servers[0].Tick()
	recs := rec.Last(0)
	if len(recs) != 1 || recs[0].DeadlineMS != 40 || recs[0].SlackMS != 40-recs[0].WallMS {
		t.Fatalf("records after one tick = %+v, want one with the 40 ms default deadline", recs)
	}
}
