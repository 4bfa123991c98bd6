package server_test

import (
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// tracedServer builds a single-replica server with a flight recorder (the
// tick trace's ring) and one connected client driving load.
func tracedServer(t *testing.T) (*server.Server, *client.Client, *telemetry.FlightRecorder) {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	node, err := net.Attach("s1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{})
	srv, err := server.New(server.Config{
		Node:       node,
		Zone:       1,
		Assignment: zone.NewAssignment(),
		App:        game.New(game.DefaultConfig()),
		IDPrefix:   1,
		Seed:       7,
		FlightRec:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	cnode, err := net.Attach("c1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(cnode, "s1")
	if err := cl.Join(1, entity.Vec2{X: 10, Y: 10}, "c1"); err != nil {
		t.Fatal(err)
	}
	return srv, cl, rec
}

func TestTickTraceRecordsSpans(t *testing.T) {
	srv, cl, rec := tracedServer(t)
	srv.SpawnNPC(entity.Vec2{X: 12, Y: 12})
	for i := 0; i < 10; i++ {
		srv.Tick()
		cl.Poll()
		if err := cl.SendInput([]byte{0, 1}); err != nil {
			t.Fatal(err)
		}
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
	c := newCluster(t, 1)
	rec := c.servers[0].FlightRecorder()
	if rec == nil {
		t.Fatal("no flight recorder without configuration")
	}
	c.servers[0].Tick()
	recs := rec.Last(0)
	if len(recs) != 1 || recs[0].DeadlineMS != 40 || recs[0].SlackMS != 40-recs[0].WallMS {
		t.Fatalf("records after one tick = %+v, want one with the 40 ms default deadline", recs)
	}
}
