package server_test

// Allocation benchmark for the publish half of the tick: n users in mutual
// view, moving NPCs (and, in one case, moving users) dirtying the world
// every tick, delta stream with periodic keyframes. The sink node discards
// frames without copying, so the measurement is the server pipeline alone
// — the acceptance bar is 0 allocs/op in steady state (see DESIGN §17).

import (
	"fmt"
	"testing"

	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
)

// sinkNode is a transport.Node that counts and discards everything sent
// through it. Its inbox is fed directly by the benchmark setup (joins) and
// is empty in steady state. It implements transport.BatchSender so the
// server's outbox takes the batched-write path.
type sinkNode struct {
	id     string
	in     chan transport.Frame
	frames int64
	bytes  int64
}

func newSinkNode(id string, depth int) *sinkNode {
	return &sinkNode{id: id, in: make(chan transport.Frame, depth)}
}

func (n *sinkNode) ID() string { return n.id }

func (n *sinkNode) Send(to string, payload []byte) error {
	n.frames++
	n.bytes += int64(len(payload))
	return nil
}

func (n *sinkNode) SendBatch(to string, payloads [][]byte) error {
	n.frames += int64(len(payloads))
	for _, p := range payloads {
		n.bytes += int64(len(p))
	}
	return nil
}

func (n *sinkNode) Inbox() <-chan transport.Frame { return n.in }
func (n *sinkNode) Close() error                  { close(n.in); return nil }

// benchApp is a minimal allocation-free Application: NPCs drift every tick
// (keeping the world dirty so deltas are never empty), users apply inputs
// by moving.
type benchApp struct{}

func (benchApp) SpawnAvatar(env *server.Env, id entity.ID, pos entity.Vec2, zoneID uint32) *entity.Entity {
	return &entity.Entity{ID: id, Pos: pos, Health: 100}
}

func (benchApp) ApplyInput(env *server.Env, actor *entity.Entity, payload []byte) ([]server.Forward, error) {
	if len(payload) >= 2 {
		actor.Pos.X += float64(int8(payload[0]))
		actor.Pos.Y += float64(int8(payload[1]))
	}
	return nil, nil
}

func (benchApp) ApplyForwarded(env *server.Env, actor entity.ID, target *entity.Entity, payload []byte) error {
	return nil
}

func (benchApp) UpdateNPC(env *server.Env, npc *entity.Entity) []server.Forward {
	patrol(env.Tick, npc)
	return nil
}

// patrol is an oscillating drift: the entity moves every tick (keeping the
// world dirty) but stays in its neighbourhood, so visible sets — and with
// them the steady-state buffer capacities — stay bounded.
func patrol(tick uint64, e *entity.Entity) {
	d := 1.0
	if tick%16 >= 8 {
		d = -1.0
	}
	e.Pos.X += d * 0.5 * float64(1+e.ID%7)
	e.Pos.Y += d * 0.25 * float64(1+e.ID%3)
}

func (benchApp) DrainEvents(env *server.Env, avatar entity.ID) []byte     { return nil }
func (benchApp) EncodeUserState(env *server.Env, avatar entity.ID) []byte { return nil }
func (benchApp) ApplyUserState(env *server.Env, avatar entity.ID, data []byte) {
}

// movingApp is benchApp whose users patrol like its NPCs, every user every
// tick, so every entity a viewer sees is a masked update. It sends no
// inputs — decoding one allocates, and this benchmark measures publishing
// — but moves each avatar when the publish stage drains its events. That
// is after the tick's snapshot, on the tick goroutine, so the move shows
// in the next tick's snapshot.
type movingApp struct{ benchApp }

func (movingApp) DrainEvents(env *server.Env, avatar entity.ID) []byte {
	if av, ok := env.Store.Get(avatar); ok {
		patrol(env.Tick, av)
	}
	return nil
}

// benchServer builds a server running app on a sink node with n joined
// users, user i standing at place(i), plus n/10 NPCs.
func benchServer(b *testing.B, app server.Application, n int, parallelism int, place func(i int) entity.Vec2) (*server.Server, *sinkNode) {
	b.Helper()
	node := newSinkNode("s1", n+16)
	srv, err := server.New(server.Config{
		Node:        node,
		Zone:        1,
		Assignment:  zone.NewAssignment(),
		App:         app,
		AOI:         aoi.NewIncremental(60),
		IDPrefix:    1,
		Seed:        1,
		Parallelism: parallelism,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	b.Cleanup(func() { srv.Stop() })
	w := wire.NewWriter(256)
	for i := 0; i < n; i++ {
		join := &proto.Join{
			UserName: fmt.Sprintf("u%d", i),
			Zone:     1,
			Pos:      place(i),
		}
		payload := proto.Registry.Encode(w, join)
		cp := make([]byte, len(payload))
		copy(cp, payload)
		node.in <- transport.Frame{From: fmt.Sprintf("c%d", i), To: "s1", Payload: cp}
	}
	srv.Tick() // admit everyone
	for i := 0; i < n/10; i++ {
		srv.SpawnNPC(entity.Vec2{X: float64(25 * (i % 16)), Y: float64(40 * (i / 16))})
	}
	return srv, node
}

// BenchmarkPublish measures a full tick — incremental AoI rebuild, position
// query, visible-set merge walk, delta encoding and outbox staging for
// every user — with a dirty world. The publish stage dominates; the whole
// tick must be allocation-free in steady state.
func BenchmarkPublish(b *testing.B) {
	grid := func(i int) entity.Vec2 { return entity.Vec2{X: float64(20 * (i % 32)), Y: float64(20 * (i / 32))} }
	crowd := func(i int) entity.Vec2 { return entity.Vec2{X: 7.5 * float64(i%20), Y: 7.5 * float64(i/20)} }
	for _, bc := range []struct {
		name  string
		app   server.Application
		n     int
		place func(i int) entity.Vec2
	}{
		// A grid sized so AoI neighbourhoods stay populated: visible sets
		// of a few dozen.
		{"delta", benchApp{}, 500, grid},
		// A crowd on a 150×150 patch: visible sets of a hundred and more,
		// spanning several words of the position query's bitset. Only the
		// NPCs move.
		{"crowd", benchApp{}, 400, crowd},
		// The same crowd with every user moving too: nearly every visible
		// entity is a masked update in every viewer's delta.
		{"crowd-moving", movingApp{}, 400, crowd},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, node := benchServer(b, bc.app, bc.n, 1, bc.place)
			// Warm up past two keyframe cycles so every reusable buffer
			// has reached steady-state capacity.
			for i := 0; i < 80; i++ {
				srv.Tick()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.Tick()
			}
			b.StopTimer()
			if node.frames == 0 {
				b.Fatal("sink received no frames")
			}
			// Hold the bar on every run, CI's one-iteration smoke included.
			if n := testing.AllocsPerRun(10, srv.Tick); n != 0 {
				b.Fatalf("a steady-state tick allocates %v times, want 0", n)
			}
		})
	}
}
