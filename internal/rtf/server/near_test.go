package server_test

// Differential harness for Env.Near: the game's hit scans read the server's
// spatial index during the simulate stage, and an Env without an index
// answers the same query by scanning the store. The scan is the oracle — as
// aoi.Euclid is for interest management — and everything the game decides
// from Near must come out the same on both.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// recApp is the game with a record of what it decided: every non-empty
// forward list, in callback order, and a count of the damage that arrived
// from an actor another replica owns.
type recApp struct {
	*game.Game
	log        *[]string
	remoteHits *int
}

func (a *recApp) record(env *server.Env, what string, by entity.ID, fwds []server.Forward) {
	if len(fwds) == 0 {
		return
	}
	targets := make([]entity.ID, len(fwds))
	for i, fw := range fwds {
		targets[i] = fw.Target
	}
	*a.log = append(*a.log, fmt.Sprintf("%s %s %d -> %v", env.ServerID, what, by, targets))
}

func (a *recApp) ApplyInput(env *server.Env, actor *entity.Entity, payload []byte) ([]server.Forward, error) {
	fwds, err := a.Game.ApplyInput(env, actor, payload)
	a.record(env, "input", actor.ID, fwds)
	return fwds, err
}

func (a *recApp) UpdateNPC(env *server.Env, npc *entity.Entity) []server.Forward {
	fwds := a.Game.UpdateNPC(env, npc)
	a.record(env, "npc", npc.ID, fwds)
	return fwds
}

func (a *recApp) ApplyForwarded(env *server.Env, actor entity.ID, target *entity.Entity, payload []byte) error {
	if e, ok := env.Store.Get(actor); ok && e.Owner != env.ServerID {
		*a.remoteHits++
	}
	return a.Game.ApplyForwarded(env, actor, target, payload)
}

// nearSession is what one run of the session leaves behind: one record per
// tick (forward lists, then every entity and score of every replica), one
// wire digest per client, and the counts that show the session went where
// it was meant to.
type nearSession struct {
	ticks   []string
	digests []string

	deaths, remoteHits, npcHits, shadows, redirects int
}

// runNearSession plays 520 ticks of a crowded two-replica shooter from one
// seed: 48 users on a 400×400 world (three hits kill, so avatars die and
// respawn somewhere else all session long), late joins, leaves, six NPCs a
// replica, and three users migrated one way or the other every 30 ticks.
// Each replica sees the other's avatars as shadows and sends it the damage
// its own users deal them.
func runNearSession(t *testing.T, newAOI func() aoi.Manager, wantIndex bool) nearSession {
	t.Helper()
	const (
		nServers = 2
		nClients = 48
		nNPCs    = 6
		nTicks   = 520
	)
	cfg := game.DefaultConfig()
	cfg.WorldMax = 400
	cfg.AttackDamage = 34
	cfg.NPCAttackProb = 0.5
	cfg.NPCDamage = 20

	var out nearSession
	var log []string
	net := transport.NewLoopback()
	defer net.Close()
	assignment := zone.NewAssignment()
	servers := make([]*server.Server, nServers)
	games := make([]*game.Game, nServers)
	for i := range servers {
		node, err := net.Attach(fmt.Sprintf("s%d", i+1), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		games[i] = game.New(cfg)
		sc := server.Config{
			Node:          node,
			Zone:          1,
			Assignment:    assignment,
			App:           &recApp{Game: games[i], log: &log, remoteHits: &out.remoteHits},
			IDPrefix:      uint16(i + 1),
			Seed:          int64(900 + i),
			KeyframeTicks: 8,
		}
		if newAOI != nil {
			sc.AOI = newAOI()
		}
		srv, err := server.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		if srv.NearIndexed() != wantIndex {
			t.Fatalf("server %d: Near indexed = %v, want %v", i+1, srv.NearIndexed(), wantIndex)
		}
		srv.Start()
		servers[i] = srv
		for k := 0; k < nNPCs; k++ {
			srv.SpawnNPC(entity.Vec2{X: float64(40 + 60*k), Y: float64(100 + 200*i)})
		}
	}

	rng := rand.New(rand.NewSource(19))
	clients := make([]*scriptedClient, nClients)
	for i := range clients {
		node, err := net.Attach(fmt.Sprintf("c%d", i+1), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = &scriptedClient{
			node:   node,
			w:      wire.NewWriter(256),
			h:      sha256.New(),
			server: servers[i%nServers].ID(),
			join: &proto.Join{
				UserName: fmt.Sprintf("c%d", i+1),
				Zone:     1,
				Pos:      entity.Vec2{X: rng.Float64() * 400, Y: rng.Float64() * 400},
			},
		}
	}
	joinTick := func(i int) int {
		if i%8 == 7 {
			return 40 + i
		}
		return 0
	}
	leaveTick := func(i int) int {
		if i%9 == 4 {
			return 200 + i
		}
		return 1 << 30
	}

	// Every replica allocates entity IDs from 1 under its own prefix, and
	// never more than its NPCs and every client's join.
	var ids []entity.ID
	for p := 1; p <= nServers; p++ {
		for n := 1; n <= nNPCs+nClients; n++ {
			ids = append(ids, entity.ID(uint64(p)<<32|uint64(n)))
		}
	}

	for tick := 0; tick < nTicks; tick++ {
		if tick%30 == 29 {
			from := (tick / 30) % nServers
			servers[from].MigrateUsers(servers[1-from].ID(), 3)
		}
		for i, c := range clients {
			switch tick {
			case joinTick(i):
				c.send(c.join)
			case leaveTick(i):
				c.send(&proto.Leave{})
				c.joined = false
			}
		}
		log = log[:0]
		for _, s := range servers {
			s.Tick()
		}
		rec := slices.Clone(log)
		for _, l := range log {
			if strings.Contains(l, " npc ") {
				out.npcHits++
			}
		}
		for si, s := range servers {
			if s.ZoneUserCount() > s.UserCount() {
				out.shadows++
			}
			for _, id := range ids {
				e, ok := s.Entity(id)
				if !ok {
					continue
				}
				kills, deaths, _ := games[si].Score(id)
				rec = append(rec, fmt.Sprintf("%s %+v kills=%d deaths=%d", s.ID(), e, kills, deaths))
			}
		}
		out.ticks = append(out.ticks, fmt.Sprint(rec))

		for _, c := range clients {
			was := c.server
			c.poll()
			if c.server != was {
				out.redirects++
			}
			if !c.joined {
				continue
			}
			if rng.Float64() < 0.8 {
				c.seq++
				mv := &game.Move{DX: rng.Float64()*10 - 5, DY: rng.Float64()*10 - 5}
				c.send(&proto.Input{Seq: c.seq, Payload: game.Commands.EncodeToBytes(mv)})
			}
			if rng.Float64() < 0.5 {
				c.seq++
				ang := rng.Float64() * 2 * math.Pi
				atk := &game.Attack{DirX: math.Cos(ang), DirY: math.Sin(ang)}
				c.send(&proto.Input{Seq: c.seq, Payload: game.Commands.EncodeToBytes(atk)})
			}
		}
	}

	for si := range servers {
		for _, id := range ids {
			_, deaths, _ := games[si].Score(id)
			out.deaths += int(deaths)
		}
	}
	for _, c := range clients {
		out.digests = append(out.digests, hex.EncodeToString(c.h.Sum(nil)))
		_ = c.node.Close()
	}
	return out
}

// TestNearIndexedMatchesScan runs the session once on servers whose Env is
// indexed (the default interest manager) and once on servers whose Env is
// bare (the Euclid oracle in its place), and wants every tick's forward
// lists, entity states and scores — and every byte a client was sent —
// equal. The counts make sure the session exercised what the index has to
// survive: kills and respawn teleports, shadow avatars, damage forwarded
// between replicas, NPC attacks, users changing replica.
func TestNearIndexedMatchesScan(t *testing.T) {
	indexed := runNearSession(t, nil, true)
	bare := runNearSession(t, func() aoi.Manager { return aoi.NewEuclid(server.DefaultAOIRadius) }, false)
	for tick := range indexed.ticks {
		if indexed.ticks[tick] != bare.ticks[tick] {
			t.Fatalf("tick %d diverged:\n indexed: %s\n bare:    %s", tick, indexed.ticks[tick], bare.ticks[tick])
		}
	}
	if !slices.Equal(indexed.digests, bare.digests) {
		t.Fatal("client wire streams diverged")
	}
	s := indexed
	if s.deaths < 50 || s.remoteHits < 50 || s.npcHits < 20 || s.shadows < 500 || s.redirects < 40 {
		t.Fatalf("session too tame: %d deaths, %d remote hits, %d NPC hits, %d replica-ticks with shadows, %d users sent to the other replica",
			s.deaths, s.remoteHits, s.npcHits, s.shadows, s.redirects)
	}
}

// TestNearEdges holds the indexed Env to the bare one where the geometry is
// tight. The cell edge is 50, so (100, 100) is a cell corner.
func TestNearEdges(t *testing.T) {
	at := func(x, y float64) entity.Vec2 { return entity.Vec2{X: x, Y: y} }
	still := game.DefaultConfig() // range 60, width 8, aggro 40
	still.MoveSpeed = 80
	still.NPCSpeed = 0
	still.NPCAttackProb = 1
	d := 30 / math.Sqrt2

	for _, tc := range []struct {
		name string
		// Entity 1 is the actor — an NPC when npc is set — standing at
		// actor; entities 2, 3, … are avatars standing at others.
		actor  entity.Vec2
		npc    bool
		others []entity.Vec2
		// move, when not zero, is applied to entity 2 as its own input
		// before the actor acts, in the same tick.
		move entity.Vec2
		// dir is the attack direction (avatars only).
		dir  entity.Vec2
		want []entity.ID
	}{
		{name: "at exactly AttackRange", actor: at(100, 100), dir: at(1, 0),
			others: []entity.Vec2{at(160, 100), at(160.000001, 100)}, want: []entity.ID{2}},
		{name: "across == AttackWidth", actor: at(100, 100), dir: at(1, 0),
			others: []entity.Vec2{at(130, 108), at(130, 92), at(130, 108.000001)}, want: []entity.ID{2, 3}},
		{name: "far corners of the beam", actor: at(100, 100), dir: at(0, 1),
			others: []entity.Vec2{at(108, 160), at(92, 160), at(100, 100)}, want: []entity.ID{2, 3, 4}},
		{name: "cell corner, four diagonals", actor: at(100, 100), dir: at(-1, -1),
			others: []entity.Vec2{at(100-d, 100-d), at(100+d, 100+d), at(100-d, 100+d), at(100+d, 100-d)}, want: []entity.ID{2}},
		{name: "beam across three cell columns", actor: at(99, 100), dir: at(1, 0),
			others: []entity.Vec2{at(101, 100), at(149, 100), at(151, 100), at(159, 100)}, want: []entity.ID{2, 3, 4, 5}},
		{name: "target moved into reach across cells", actor: at(100, 100), dir: at(1, 0),
			others: []entity.Vec2{at(225, 100)}, move: at(-70, 0), want: []entity.ID{2}},
		{name: "target moved out of reach across cells", actor: at(100, 100), dir: at(1, 0),
			others: []entity.Vec2{at(155, 100)}, move: at(70, 0), want: nil},
		{name: "aggro tie goes to the later ID", actor: at(100, 100), npc: true,
			others: []entity.Vec2{at(120, 100), at(80, 100), at(100, 121)}, want: []entity.ID{3}},
		{name: "aggro at exactly NPCAggroRange", actor: at(100, 100), npc: true,
			others: []entity.Vec2{at(140.000001, 100), at(100, 60)}, want: []entity.ID{3}},
		{name: "aggro across a cell corner", actor: at(101, 101), npc: true,
			others: []entity.Vec2{at(75, 75), at(140, 140)}, want: []entity.ID{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2][]entity.ID
			for k, indexed := range []bool{false, true} {
				g := game.New(still)
				store := entity.NewStore()
				env := &server.Env{ServerID: "s1", Store: store, Rand: rand.New(rand.NewSource(1))}
				if indexed {
					env = server.NewIndexedEnv("s1", store, rand.New(rand.NewSource(1)))
				}
				actor := &entity.Entity{ID: 1, Kind: entity.Avatar, Pos: tc.actor, Owner: "s1"}
				if tc.npc {
					actor.Kind = entity.NPC
				}
				store.Put(actor)
				for i, pos := range tc.others {
					store.Put(&entity.Entity{ID: entity.ID(i + 2), Kind: entity.Avatar, Pos: pos, Owner: "s1"})
				}
				env.BeginSimulate()
				if tc.move != (entity.Vec2{}) {
					target, _ := store.Get(2)
					was := target.Pos
					mv := game.Commands.EncodeToBytes(&game.Move{DX: tc.move.X, DY: tc.move.Y})
					if _, err := g.ApplyInput(env, target, mv); err != nil {
						t.Fatal(err)
					}
					env.Moved(target, was)
				}
				var fwds []server.Forward
				if tc.npc {
					fwds = g.UpdateNPC(env, actor)
				} else {
					atk := game.Commands.EncodeToBytes(&game.Attack{DirX: tc.dir.X, DirY: tc.dir.Y})
					var err error
					if fwds, err = g.ApplyInput(env, actor, atk); err != nil {
						t.Fatal(err)
					}
				}
				for _, fw := range fwds {
					got[k] = append(got[k], fw.Target)
				}
			}
			if !slices.Equal(got[0], tc.want) || !slices.Equal(got[1], tc.want) {
				t.Fatalf("targets: bare %v, indexed %v, want %v", got[0], got[1], tc.want)
			}
		})
	}
}
