package server_test

// Determinism harness for the staged tick pipeline: the client-visible wire
// output of a scripted session must be byte-identical whatever the server's
// Parallelism and whatever GOMAXPROCS the process runs under. Clients here
// operate at the transport level and hash every received payload, so any
// reordering, re-encoding or state divergence shows up as a digest mismatch.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"strings"
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
)

// scriptedClient is a wire-level user connection: it joins, follows
// redirects, sends a deterministic input script, and hashes every payload
// it receives in arrival order.
type scriptedClient struct {
	node   transport.Node
	w      *wire.Writer
	h      hash.Hash
	join   *proto.Join
	server string
	joined bool
	seq    uint64
	// maxVisible is the largest visible set a keyframe has delivered.
	maxVisible int
}

func (c *scriptedClient) send(msg wire.Message) {
	_ = c.node.Send(c.server, proto.Registry.Encode(c.w, msg))
}

// poll drains received frames into the digest (length-prefixed so stream
// boundaries are unambiguous) and reacts to join acks and redirects.
func (c *scriptedClient) poll() {
	for _, f := range transport.Drain(c.node, 0) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(f.Payload)))
		c.h.Write(n[:])
		c.h.Write(f.Payload)
		if len(f.Payload) < 2 {
			continue
		}
		switch wire.Kind(binary.BigEndian.Uint16(f.Payload)) {
		case proto.KindJoinAck:
			c.joined = true
		case proto.KindStateKeyframe:
			if msg, err := proto.Registry.Decode(f.Payload); err == nil {
				c.maxVisible = max(c.maxVisible, len(msg.(*proto.StateKeyframe).Visible))
			}
		case proto.KindMigrateNotice:
			if msg, err := proto.Registry.Decode(f.Payload); err == nil {
				c.server = msg.(*proto.MigrateNotice).NewServer
				if !c.joined {
					c.send(c.join)
				}
			}
		}
	}
}

// pipelineSession shapes the user side of runPipelineScenario.
type pipelineSession struct {
	clients int
	// pos is where client i asks to join; joinTick and leaveTick are the
	// ticks before which it sends its Join and its Leave (a leaveTick
	// beyond the session: never).
	pos                 func(i int) entity.Vec2
	joinTick, leaveTick func(i int) int
	// minVisible is a visible-set size some keyframe must reach, so a
	// session built to be dense is known to have been.
	minVisible int
}

// sparseSession is six users strung out on a line, there from the start.
var sparseSession = pipelineSession{
	clients:   6,
	pos:       func(i int) entity.Vec2 { return entity.Vec2{X: float64(100 + 10*i), Y: float64(100 + 5*i)} },
	joinTick:  func(int) int { return 0 },
	leaveTick: func(int) int { return 1 << 30 },
}

// denseSession packs 150 users into a 30×20 patch, well inside one AoI
// radius: every visible set spans three words of the publish stage's
// bitset. Every tenth user joins late (at the top of the ID order) and
// every sixth leaves mid-session (below most of it), so snapshot positions
// shift under the users that stay.
var denseSession = pipelineSession{
	clients: 150,
	pos:     func(i int) entity.Vec2 { return entity.Vec2{X: float64(100 + 2*(i%15)), Y: float64(100 + 2*(i/15))} },
	joinTick: func(i int) int {
		if i%10 == 9 {
			return 12
		}
		return 0
	},
	leaveTick: func(i int) int {
		if i%6 == 2 {
			return 20 + i%5
		}
		return 1 << 30
	},
	minVisible: 130,
}

// runPipelineScenario plays a fixed multi-server session — joins, scripted
// movement and attacks, NPCs, a mid-run migration wave — and returns one
// hex digest per client of everything that client received. KeyframeTicks
// is 8 so the scenario spans several keyframe boundaries besides the
// keyframes the migration forces. newAOI, when not nil, replaces the
// servers' default interest manager.
func runPipelineScenario(t *testing.T, sess pipelineSession, parallelism int, app func(i int) server.Application, newAOI func() aoi.Manager) []string {
	t.Helper()
	const (
		nServers = 2
		nTicks   = 40
	)
	net := transport.NewLoopback()
	defer net.Close()
	assignment := zone.NewAssignment()
	servers := make([]*server.Server, nServers)
	for i := range servers {
		node, err := net.Attach(fmt.Sprintf("s%d", i+1), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		cfg := server.Config{
			Node:          node,
			Zone:          1,
			Assignment:    assignment,
			App:           app(i),
			IDPrefix:      uint16(i + 1),
			Seed:          int64(7000 + i),
			Parallelism:   parallelism,
			KeyframeTicks: 8,
		}
		if newAOI != nil {
			cfg.AOI = newAOI()
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		servers[i] = srv
	}
	for k := 0; k < 4; k++ {
		servers[0].SpawnNPC(entity.Vec2{X: float64(100 + 50*k), Y: 120})
	}

	clients := make([]*scriptedClient, sess.clients)
	for i := range clients {
		node, err := net.Attach(fmt.Sprintf("c%d", i+1), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		c := &scriptedClient{
			node:   node,
			w:      wire.NewWriter(256),
			h:      sha256.New(),
			server: servers[i%nServers].ID(),
			join: &proto.Join{
				UserName: fmt.Sprintf("c%d", i+1),
				Zone:     1,
				Pos:      sess.pos(i),
			},
		}
		clients[i] = c
	}

	for tick := 0; tick < nTicks; tick++ {
		if tick == 15 {
			servers[0].MigrateUsers(servers[1].ID(), 2)
		}
		for i, c := range clients {
			switch tick {
			case sess.joinTick(i):
				c.send(c.join)
			case sess.leaveTick(i):
				c.send(&proto.Leave{})
				c.joined = false
			}
		}
		for _, s := range servers {
			s.Tick()
		}
		for i, c := range clients {
			c.poll()
			if c.joined && tick%2 == i%2 {
				c.seq++
				dx := float64(1 + (tick+i)%3)
				dy := float64(-1 + (tick*i)%3)
				c.send(&proto.Input{Seq: c.seq, Payload: game.Commands.EncodeToBytes(&game.Move{DX: dx, DY: dy})})
			}
		}
	}

	out := make([]string, len(clients))
	maxVisible := 0
	for i, c := range clients {
		out[i] = hex.EncodeToString(c.h.Sum(nil))
		maxVisible = max(maxVisible, c.maxVisible)
		_ = c.node.Close()
	}
	if maxVisible < sess.minVisible {
		t.Fatalf("largest visible set %d, the session wants %d", maxVisible, sess.minVisible)
	}
	return out
}

func gameApp(i int) server.Application { return game.New(game.DefaultConfig()) }

// TestPipelineDeterministicAcrossParallelism pins the wire stream — masked
// field deltas, gap-encoded IDs, keyframe cadence, migration-forced
// keyframes — as a function of the simulation state alone: never of worker
// scheduling, and never of which interest manager answered the queries (the
// Euclid oracle and the incremental index must agree to the byte).
func TestPipelineDeterministicAcrossParallelism(t *testing.T) {
	for _, sc := range []struct {
		name string
		sess pipelineSession
	}{
		{"sparse", sparseSession},
		{"dense", denseSession},
	} {
		base := runPipelineScenario(t, sc.sess, 1, gameApp, nil)
		for _, idx := range []struct {
			name   string
			newAOI func() aoi.Manager
		}{
			{"incremental", nil},
			{"euclid", func() aoi.Manager { return aoi.NewEuclid(server.DefaultAOIRadius) }},
		} {
			for _, w := range []int{1, 2, 4, 8} {
				got := runPipelineScenario(t, sc.sess, w, gameApp, idx.newAOI)
				for i := range base {
					if got[i] != base[i] {
						t.Fatalf("%s: client %d wire stream diverged at Parallelism=%d aoi=%s:\n seq: %s\n par: %s",
							sc.name, i+1, w, idx.name, base[i], got[i])
					}
				}
			}
		}
	}
}

// pinnedWireDigest is the SHA-256 of the comma-joined per-client digests of
// the sparse session at Parallelism 1 and 4, then the dense session at
// Parallelism 1 and 4, recorded while every state update was still encoded
// through StateDelta/StateKeyframe.MarshalWire. Changing the wire format
// means changing it here, deliberately.
const pinnedWireDigest = "3782bf5b1e91094bea007c38c126949c4c1622c69ec0230b119ebf3a16ddc488"

// TestPipelineWireBytesPinned pins the wire stream to recorded bytes.
// TestPipelineDeterministicAcrossParallelism only compares runs of the same
// build with each other, so an encoder change that altered the bytes the
// same way at every Parallelism would pass it; this test would not.
func TestPipelineWireBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The game's movement and hit math is float64; the Go compiler may
		// fuse its multiply-adds on other architectures (arm64 among them),
		// which moves positions by an ulp and with them the bytes.
		t.Skipf("wire bytes are pinned on amd64 only, this is %s", runtime.GOARCH)
	}
	var digests []string
	for _, sess := range []pipelineSession{sparseSession, denseSession} {
		for _, w := range []int{1, 4} {
			digests = append(digests, runPipelineScenario(t, sess, w, gameApp, nil)...)
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(digests, ",")))
	if got := hex.EncodeToString(sum[:]); got != pinnedWireDigest {
		t.Fatalf("wire stream digest %s, pinned %s", got, pinnedWireDigest)
	}
}

func TestPipelineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	runtime.GOMAXPROCS(1)
	base := runPipelineScenario(t, sparseSession, 4, gameApp, nil)
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		got := runPipelineScenario(t, sparseSession, 4, gameApp, nil)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("client %d wire stream diverged at GOMAXPROCS=%d", i+1, procs)
			}
		}
	}
}

// parApp is a minimal Application that satisfies the ConcurrentSimulator
// contract: UpdateNPC is a pure function of the NPC it is handed (no
// env.Rand, no writes to other entities), with cross-entity effects
// expressed as forwards.
type parApp struct {
	avatars []entity.ID
}

func (a *parApp) ConcurrentNPCUpdates() bool { return true }

func (a *parApp) SpawnAvatar(env *server.Env, id entity.ID, pos entity.Vec2, zoneID uint32) *entity.Entity {
	a.avatars = append(a.avatars, id)
	return &entity.Entity{ID: id, Pos: pos, Health: 100}
}

func (a *parApp) ApplyInput(env *server.Env, actor *entity.Entity, payload []byte) ([]server.Forward, error) {
	if len(payload) >= 2 {
		actor.Pos.X += float64(int8(payload[0]))
		actor.Pos.Y += float64(int8(payload[1]))
	}
	return nil, nil
}

func (a *parApp) ApplyForwarded(env *server.Env, actor entity.ID, target *entity.Entity, payload []byte) error {
	target.Health--
	return nil
}

func (a *parApp) UpdateNPC(env *server.Env, npc *entity.Entity) []server.Forward {
	npc.Pos.X += 0.5 * float64(1+npc.ID%5)
	npc.Pos.Y += 0.25
	if env.Tick%4 == 0 && len(a.avatars) > 0 {
		target := a.avatars[int(npc.ID)%len(a.avatars)]
		return []server.Forward{{Target: target, Payload: []byte{1}}}
	}
	return nil
}

func (a *parApp) DrainEvents(env *server.Env, avatar entity.ID) []byte     { return nil }
func (a *parApp) EncodeUserState(env *server.Env, avatar entity.ID) []byte { return nil }
func (a *parApp) ApplyUserState(env *server.Env, avatar entity.ID, data []byte) {
}

func TestPipelineDeterministicConcurrentSimulator(t *testing.T) {
	app := func(i int) server.Application { return &parApp{} }
	base := runPipelineScenario(t, sparseSession, 1, app, nil)
	for _, w := range []int{2, 4} {
		got := runPipelineScenario(t, sparseSession, w, app, nil)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("client %d wire stream diverged at Parallelism=%d with concurrent NPC updates", i+1, w)
			}
		}
	}
}
