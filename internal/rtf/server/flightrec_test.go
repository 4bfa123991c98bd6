package server

// Race-enabled integration tests for the tick flight recorder: a synthetic
// slow tick — injected through the executor's clock, not by sleeping — must
// produce exactly one capture whose pre/post window brackets the offending
// tick and whose trigger record carries the per-task breakdown; steady load
// must produce none. The tests live in-package so they can swap the
// executor's injected clock; run with -race so the workers' concurrent
// clock reads are exercised under the detector.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// stepClock is a deterministic time source: every read advances the clock
// by the current step, so a tick's measured wall time is exactly
// (clock reads during the tick) × step. Under steady load the read count
// per tick is constant — the pipeline times a fixed set of operations — so
// wall time is flat regardless of worker interleaving, and raising step for
// one tick scales that tick's wall proportionally: a hiccup on demand with
// no real sleeping. Reads are atomic because executor workers time their
// items concurrently.
type stepClock struct {
	nowNS  atomic.Int64
	stepNS atomic.Int64
}

func newStepClock(step time.Duration) *stepClock {
	c := &stepClock{}
	c.stepNS.Store(int64(step))
	return c
}

func (c *stepClock) Now() time.Time {
	return time.Unix(0, c.nowNS.Add(c.stepNS.Load()))
}

func (c *stepClock) setStep(step time.Duration) { c.stepNS.Store(int64(step)) }

// flightApp is a minimal Application for driving the tick pipeline from an
// in-package test (internal/game cannot be imported here — it imports
// server). Inputs nudge the actor, NPCs drift; payloads are ignored.
type flightApp struct{}

func (flightApp) SpawnAvatar(env *Env, id entity.ID, pos entity.Vec2, zoneID uint32) *entity.Entity {
	return &entity.Entity{ID: id, Pos: pos, Health: 100}
}

func (flightApp) ApplyInput(env *Env, actor *entity.Entity, payload []byte) ([]Forward, error) {
	actor.Pos.X++
	return nil, nil
}

func (flightApp) ApplyForwarded(env *Env, actor entity.ID, target *entity.Entity, payload []byte) error {
	return nil
}

func (flightApp) UpdateNPC(env *Env, npc *entity.Entity) []Forward {
	npc.Pos.Y += 0.5
	return nil
}

func (flightApp) DrainEvents(env *Env, avatar entity.ID) []byte          { return nil }
func (flightApp) EncodeUserState(env *Env, avatar entity.ID) []byte      { return nil }
func (flightApp) ApplyUserState(env *Env, avatar entity.ID, data []byte) {}

// flightClient is a joined wire-level user that sends one input per tick.
type flightClient struct {
	node transport.Node
	w    *wire.Writer
	seq  uint64
	srv  string
}

func (c *flightClient) input() {
	c.seq++
	msg := &proto.Input{Seq: c.seq, Payload: []byte{1}}
	_ = c.node.Send(c.srv, proto.Registry.Encode(c.w, msg))
}

// startFlightServer builds a single-replica server on a loopback transport
// with the given flight recorder and a step clock swapped in for the
// executor's time source, joins nClients users, and runs a few settle ticks
// so the per-tick clock-read count is steady before measurement starts.
func startFlightServer(t *testing.T, rec *telemetry.FlightRecorder, app Application, nClients int) (*Server, *stepClock, []*flightClient, func()) {
	t.Helper()
	clk := newStepClock(20 * time.Microsecond)
	net := transport.NewLoopback()
	node, err := net.Attach("s1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Node:        node,
		Zone:        1,
		Assignment:  zone.NewAssignment(),
		App:         app,
		IDPrefix:    1,
		Seed:        42,
		Parallelism: 4,
		FlightRec:   rec,
		// An hour-long tick interval puts the QoS deadline 1/U out of
		// reach, so captures here exercise the hiccup detector; the
		// deadline trigger otherwise wins (it takes precedence).
		TickInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.exec.clock = clk.Now
	srv.Start()
	srv.SpawnNPC(entity.Vec2{X: 150, Y: 150})
	srv.SpawnNPC(entity.Vec2{X: 180, Y: 120})

	clients := make([]*flightClient, nClients)
	for i := range clients {
		cn, err := net.Attach(fmt.Sprintf("c%d", i+1), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		c := &flightClient{node: cn, w: wire.NewWriter(256), srv: srv.ID()}
		join := &proto.Join{
			UserName: fmt.Sprintf("c%d", i+1),
			Zone:     1,
			Pos:      entity.Vec2{X: float64(100 + 10*i), Y: 100},
		}
		_ = cn.Send(c.srv, proto.Registry.Encode(c.w, join))
		clients[i] = c
	}
	// Settle: process the joins, then a couple of plain ticks so every
	// subsequent steady tick times an identical set of operations.
	for i := 0; i < 3; i++ {
		srv.Tick()
		for _, c := range clients {
			transport.Drain(c.node, 0)
		}
	}
	cleanup := func() { _ = srv.Stop(); net.Close() }
	return srv, clk, clients, cleanup
}

// steadyTick drives one tick of steady load: every client sends one input,
// the server ticks, clients drain their updates.
func steadyTick(srv *Server, clients []*flightClient) {
	for _, c := range clients {
		c.input()
	}
	srv.Tick()
	for _, c := range clients {
		transport.Drain(c.node, 0)
	}
}

func TestFlightRecorderCapturesInjectedSlowTick(t *testing.T) {
	const (
		pre, post = 4, 3
		window    = 8
	)
	rec := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{
		Pre: pre, Post: post, K: 4, Window: window,
		MinHiccupMS: -1, // wall times here are synthetic µs-scale values
	})
	srv, clk, clients, cleanup := startFlightServer(t, rec, flightApp{}, 3)
	defer cleanup()

	// Fill the rolling median window with steady ticks.
	for i := 0; i < window+pre; i++ {
		steadyTick(srv, clients)
	}
	if n := rec.Hiccups(); n != 0 {
		t.Fatalf("hiccups during steady warmup = %d, want 0", n)
	}

	// One slow tick: a 100× clock step scales that tick's wall 100×,
	// far past K=4× the steady median.
	clk.setStep(2 * time.Millisecond)
	steadyTick(srv, clients)
	clk.setStep(20 * time.Microsecond)
	slowTick := srv.tick

	// Let the post window fill, plus slack.
	for i := 0; i < post+4; i++ {
		steadyTick(srv, clients)
	}

	caps := rec.Captures()
	if len(caps) != 1 {
		t.Fatalf("captures = %d, want exactly 1", len(caps))
	}
	cap := caps[0]
	if cap.Reason != "hiccup" {
		t.Fatalf("capture reason = %q, want hiccup", cap.Reason)
	}
	if cap.TriggerTick != slowTick {
		t.Fatalf("trigger tick = %d, want %d", cap.TriggerTick, slowTick)
	}
	if want := pre + 1 + post; len(cap.Records) != want {
		t.Fatalf("capture records = %d, want %d (pre+trigger+post)", len(cap.Records), want)
	}
	// The window must be contiguous ticks bracketing the trigger.
	for i, r := range cap.Records {
		if want := slowTick - pre + uint64(i); r.Tick != want {
			t.Fatalf("record %d tick = %d, want %d (contiguous window)", i, r.Tick, want)
		}
	}
	trigger := cap.Records[pre]
	if trigger.Tick != slowTick {
		t.Fatalf("record at pre index has tick %d, want trigger %d", trigger.Tick, slowTick)
	}
	if trigger.WallMS <= cap.MedianMS*4 {
		t.Fatalf("trigger wall %.3f ms not above 4× median %.3f ms", trigger.WallMS, cap.MedianMS)
	}
	// The trigger record must carry the per-task breakdown: the steady
	// load applies three user inputs (UA) and updates two NPCs per tick.
	tasks := map[string]telemetry.Span{}
	for _, s := range trigger.Tasks {
		tasks[s.Name] = s
	}
	if s, ok := tasks["t_ua"]; !ok || s.Items != len(clients) {
		t.Fatalf("trigger t_ua span = %+v (present=%v), want %d items", s, ok, len(clients))
	}
	if s, ok := tasks["t_npc"]; !ok || s.Items != 2 {
		t.Fatalf("trigger t_npc span = %+v (present=%v), want 2 items", s, ok)
	}
	if trigger.Workers != 4 {
		t.Fatalf("trigger workers = %d, want 4", trigger.Workers)
	}
	if trigger.Users != len(clients) {
		t.Fatalf("trigger users = %d, want %d", trigger.Users, len(clients))
	}
	if n := rec.Hiccups(); n != 1 {
		t.Fatalf("hiccup count = %d, want 1", n)
	}
}

func TestFlightRecorderNoFalsePositivesUnderSteadyLoad(t *testing.T) {
	rec := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{
		Pre: 4, Post: 3, K: 4, Window: 8,
		MinHiccupMS: -1,
	})
	srv, _, clients, cleanup := startFlightServer(t, rec, flightApp{}, 3)
	defer cleanup()

	for i := 0; i < 200; i++ {
		steadyTick(srv, clients)
	}
	if n := len(rec.Captures()); n != 0 {
		t.Fatalf("steady load produced %d captures, want 0", n)
	}
	if n := rec.Hiccups(); n != 0 {
		t.Fatalf("steady load produced %d hiccups, want 0", n)
	}
}
