package server_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"roia/internal/game"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
)

// cluster is an in-process RTF deployment for integration tests.
type cluster struct {
	net        *transport.Loopback
	assignment *zone.Assignment
	servers    []*server.Server
	games      []*game.Game
	clients    []*client.Client
}

func newCluster(t *testing.T, nServers int) *cluster {
	t.Helper()
	c := &cluster{
		net:        transport.NewLoopback(),
		assignment: zone.NewAssignment(),
	}
	t.Cleanup(func() { c.net.Close() })
	for i := 0; i < nServers; i++ {
		node, err := c.net.Attach(fmt.Sprintf("s%d", i+1), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		g := game.New(game.DefaultConfig())
		srv, err := server.New(server.Config{
			Node:       node,
			Zone:       1,
			Assignment: c.assignment,
			App:        g,
			IDPrefix:   uint16(i + 1),
			Seed:       int64(1000 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		c.servers = append(c.servers, srv)
		c.games = append(c.games, g)
	}
	return c
}

// addClient attaches a client pointed at the given server and joins it.
func (c *cluster) addClient(t *testing.T, serverIdx int, pos entity.Vec2) *client.Client {
	t.Helper()
	id := fmt.Sprintf("c%d", len(c.clients)+1)
	node, err := c.net.Attach(id, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(node, c.servers[serverIdx].ID())
	if err := cl.Join(1, pos, id); err != nil {
		t.Fatal(err)
	}
	c.clients = append(c.clients, cl)
	return cl
}

// tickAll runs one tick on every server, then polls every client.
func (c *cluster) tickAll() {
	for _, s := range c.servers {
		s.Tick()
	}
	for _, cl := range c.clients {
		cl.Poll()
	}
}

func TestJoinFlow(t *testing.T) {
	c := newCluster(t, 1)
	cl := c.addClient(t, 0, entity.Vec2{X: 10, Y: 10})
	c.tickAll()
	if !cl.Joined() {
		t.Fatal("join not acknowledged")
	}
	if cl.Avatar() == 0 {
		t.Fatal("no avatar assigned")
	}
	if got := c.servers[0].UserCount(); got != 1 {
		t.Fatalf("UserCount = %d, want 1", got)
	}
	// A second join from the same client is ignored.
	if err := cl.Join(1, entity.Vec2{}, "dup"); err != nil {
		t.Fatal(err)
	}
	c.tickAll()
	if got := c.servers[0].UserCount(); got != 1 {
		t.Fatalf("UserCount after dup join = %d, want 1", got)
	}
}

func TestMoveCommandUpdatesPosition(t *testing.T) {
	c := newCluster(t, 1)
	cl := c.addClient(t, 0, entity.Vec2{X: 100, Y: 100})
	c.tickAll()
	if err := cl.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: 3, DY: -2})); err != nil {
		t.Fatal(err)
	}
	c.tickAll()
	e, ok := c.servers[0].Entity(cl.Avatar())
	if !ok {
		t.Fatal("avatar missing")
	}
	if e.Pos != (entity.Vec2{X: 103, Y: 98}) {
		t.Fatalf("pos = %v, want (103,98)", e.Pos)
	}
	// The client's state update reflects the move.
	upd := cl.LastUpdate()
	if upd == nil || upd.Self.Pos != (entity.Vec2{X: 103, Y: 98}) {
		t.Fatalf("client update = %+v", upd)
	}
}

func TestMoveSpeedClamped(t *testing.T) {
	c := newCluster(t, 1)
	cl := c.addClient(t, 0, entity.Vec2{X: 100, Y: 100})
	c.tickAll()
	cl.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: 1000, DY: 1000}))
	c.tickAll()
	e, _ := c.servers[0].Entity(cl.Avatar())
	if e.Pos != (entity.Vec2{X: 105, Y: 105}) { // MoveSpeed = 5
		t.Fatalf("pos = %v, want clamped (105,105)", e.Pos)
	}
}

func TestReplicationShadowEntities(t *testing.T) {
	c := newCluster(t, 2)
	c.addClient(t, 0, entity.Vec2{X: 10, Y: 10})
	c.addClient(t, 1, entity.Vec2{X: 20, Y: 20})
	c.tickAll() // joins processed, shadow updates sent
	c.tickAll() // shadow updates applied
	for i, s := range c.servers {
		if got := s.ZoneUserCount(); got != 2 {
			t.Fatalf("server %d sees %d zone users, want 2", i+1, got)
		}
		if got := s.UserCount(); got != 1 {
			t.Fatalf("server %d has %d connected users, want 1", i+1, got)
		}
	}
}

func TestForwardedAttackAcrossReplicas(t *testing.T) {
	c := newCluster(t, 2)
	attacker := c.addClient(t, 0, entity.Vec2{X: 100, Y: 100})
	victim := c.addClient(t, 1, entity.Vec2{X: 120, Y: 100}) // within range 60
	c.tickAll()
	c.tickAll() // both servers now see both avatars

	// Attacker fires along +X, straight at the victim's shadow entity.
	attacker.SendInput(game.Commands.EncodeToBytes(&game.Attack{DirX: 1, DirY: 0}))
	c.tickAll() // s1 applies attack, emits Forwarded to s2
	c.tickAll() // s2 applies forwarded damage

	e, ok := c.servers[1].Entity(victim.Avatar())
	if !ok {
		t.Fatal("victim missing on its own server")
	}
	if e.Health != 90 {
		t.Fatalf("victim health = %d, want 90", e.Health)
	}
	// The victim's client learns about the hit via events.
	if ev := victim.DrainEvents(); len(ev) == 0 {
		t.Fatal("victim received no hit event")
	}
}

func TestRespawnAfterLethalDamage(t *testing.T) {
	c := newCluster(t, 1)
	attacker := c.addClient(t, 0, entity.Vec2{X: 100, Y: 100})
	victim := c.addClient(t, 0, entity.Vec2{X: 110, Y: 100})
	c.tickAll()
	// 10 damage per hit, 100 health: 10 hits kill.
	for i := 0; i < 10; i++ {
		attacker.SendInput(game.Commands.EncodeToBytes(&game.Attack{DirX: 1, DirY: 0}))
		c.tickAll()
	}
	e, _ := c.servers[0].Entity(victim.Avatar())
	if e.Health != 100 {
		t.Fatalf("victim health = %d, want respawned at 100", e.Health)
	}
	if _, deaths, ok := c.games[0].Score(victim.Avatar()); !ok || deaths == 0 {
		t.Fatalf("victim deaths not recorded (ok=%v deaths=%d)", ok, deaths)
	}
}

func TestUserMigration(t *testing.T) {
	c := newCluster(t, 2)
	cl := c.addClient(t, 0, entity.Vec2{X: 10, Y: 10})
	c.tickAll()
	c.tickAll()
	avatar := cl.Avatar()

	c.servers[0].MigrateUsers("s2", 1)
	c.tickAll() // s1 initiates, client notified
	c.tickAll() // s2 receives MigrateInit

	if got := cl.Server(); got != "s2" {
		t.Fatalf("client server = %q, want s2", got)
	}
	if cl.Migrations() != 1 {
		t.Fatalf("client migrations = %d, want 1", cl.Migrations())
	}
	if got := c.servers[0].UserCount(); got != 0 {
		t.Fatalf("source still has %d users", got)
	}
	if got := c.servers[1].UserCount(); got != 1 {
		t.Fatalf("target has %d users, want 1", got)
	}
	e, ok := c.servers[1].Entity(avatar)
	if !ok || e.Owner != "s2" {
		t.Fatalf("avatar ownership not transferred: %+v ok=%v", e, ok)
	}
	// The client keeps playing against the new server.
	cl.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: 5, DY: 0}))
	c.tickAll()
	e, _ = c.servers[1].Entity(avatar)
	if e.Pos.X != 15 {
		t.Fatalf("post-migration move ignored: %v", e.Pos)
	}
	// And the new server publishes to it.
	if v := cl.LastUpdate(); !cl.Synced() || v.Self.Pos.X != 15 {
		t.Fatalf("migrated client's view = %+v synced=%v, want the move from s2", v.Self, cl.Synced())
	}
}

func TestMigrationPreservesAppState(t *testing.T) {
	c := newCluster(t, 2)
	attacker := c.addClient(t, 0, entity.Vec2{X: 100, Y: 100})
	c.addClient(t, 0, entity.Vec2{X: 110, Y: 100})
	c.tickAll()
	attacker.SendInput(game.Commands.EncodeToBytes(&game.Attack{DirX: 1, DirY: 0}))
	c.tickAll()
	kills, _, ok := c.games[0].Score(attacker.Avatar())
	if !ok || kills == 0 {
		t.Fatalf("no kills recorded before migration (ok=%v)", ok)
	}

	c.servers[0].MigrateUsers("s2", 2)
	c.tickAll()
	c.tickAll()
	gotKills, _, ok := c.games[1].Score(attacker.Avatar())
	if !ok {
		t.Fatal("app state not installed on target")
	}
	if gotKills != kills {
		t.Fatalf("kills after migration = %d, want %d", gotKills, kills)
	}
	// And the source dropped its copy.
	if _, _, ok := c.games[0].Score(attacker.Avatar()); ok {
		t.Fatal("source retained app state after migration")
	}
}

func TestMigrationToUnknownTargetIsDropped(t *testing.T) {
	c := newCluster(t, 1)
	c.addClient(t, 0, entity.Vec2{X: 1, Y: 1})
	c.tickAll()
	c.servers[0].MigrateUsers("ghost", 1)
	c.tickAll()
	if got := c.servers[0].UserCount(); got != 1 {
		t.Fatalf("user lost to unknown target: count = %d", got)
	}
}

func TestLeaveRemovesEverywhere(t *testing.T) {
	c := newCluster(t, 2)
	cl := c.addClient(t, 0, entity.Vec2{X: 10, Y: 10})
	c.addClient(t, 1, entity.Vec2{X: 20, Y: 20})
	c.tickAll()
	c.tickAll()
	avatar := cl.Avatar()
	if err := cl.Leave(); err != nil {
		t.Fatal(err)
	}
	c.tickAll() // s1 removes, propagates removal
	c.tickAll() // s2 applies removal
	if _, ok := c.servers[0].Entity(avatar); ok {
		t.Fatal("avatar still on own server after leave")
	}
	if _, ok := c.servers[1].Entity(avatar); ok {
		t.Fatal("shadow avatar not removed on peer")
	}
}

func TestDrainingRejectsJoins(t *testing.T) {
	c := newCluster(t, 1)
	c.servers[0].SetDraining(true)
	cl := c.addClient(t, 0, entity.Vec2{})
	c.tickAll()
	c.tickAll()
	if cl.Joined() {
		t.Fatal("join accepted while draining")
	}
	if got := c.servers[0].UserCount(); got != 0 {
		t.Fatalf("draining server admitted %d users", got)
	}
	// With no peer replica to redirect to, the rejection is explicit: the
	// client must receive a JoinNack rather than silence.
	if got := cl.JoinNacks(); got != 1 {
		t.Fatalf("JoinNacks = %d, want 1", got)
	}
}

func TestDrainingRedirectsJoinToPeer(t *testing.T) {
	c := newCluster(t, 2)
	c.servers[0].SetDraining(true)
	cl := c.addClient(t, 0, entity.Vec2{X: 5, Y: 5})
	c.tickAll() // s1 answers the join with a redirect to its peer
	c.tickAll() // client re-joins at s2, which acks
	c.tickAll()
	if !cl.Joined() {
		t.Fatal("redirected join never acknowledged")
	}
	if got := cl.Server(); got != c.servers[1].ID() {
		t.Fatalf("client connected to %q, want %q", got, c.servers[1].ID())
	}
	if got := c.servers[0].UserCount(); got != 0 {
		t.Fatalf("draining server admitted %d users", got)
	}
	if got := c.servers[1].UserCount(); got != 1 {
		t.Fatalf("peer admitted %d users, want 1", got)
	}
	if got := cl.JoinNacks(); got != 0 {
		t.Fatalf("redirect produced %d nacks, want 0", got)
	}
}

func TestMonitorRecordsModelParameters(t *testing.T) {
	c := newCluster(t, 2)
	a := c.addClient(t, 0, entity.Vec2{X: 100, Y: 100})
	c.addClient(t, 1, entity.Vec2{X: 110, Y: 100})
	c.tickAll()
	c.tickAll()
	for i := 0; i < 5; i++ {
		a.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: 1, DY: 0}))
		a.SendInput(game.Commands.EncodeToBytes(&game.Attack{DirX: 1, DirY: 0}))
		c.tickAll()
	}
	sum := c.servers[0].FlightRecorder().Summary()
	if sum.Ticks == 0 {
		t.Fatal("no ticks recorded")
	}
	lb := c.servers[0].Monitor().LastBreakdown()
	if lb.Users != 2 || lb.ActiveUsers != 1 || lb.Replicas != 2 {
		t.Fatalf("breakdown workload wrong: %+v", lb)
	}
	if n := sum.Newest; n.Users != 2 || n.ActiveUsers != 1 || n.Replicas != 2 {
		t.Fatalf("tick record workload wrong: %+v", n)
	}
	// Shadow traffic from the peer must have been measured as t_fa_dser.
	for _, task := range []monitor.Task{monitor.UADeser, monitor.UA, monitor.SU, monitor.FADeser} {
		if sum.Tasks[task.String()].Count == 0 {
			t.Fatalf("%s never measured", task)
		}
	}
}

func TestNPCWandersAndReplicates(t *testing.T) {
	c := newCluster(t, 2)
	id := c.servers[0].SpawnNPC(entity.Vec2{X: 500, Y: 500})
	start, _ := c.servers[0].Entity(id)
	c.tickAll()
	c.tickAll()
	moved, ok := c.servers[0].Entity(id)
	if !ok {
		t.Fatal("NPC vanished")
	}
	if moved.Pos == start.Pos {
		t.Fatal("NPC never moved")
	}
	// The peer replica received the NPC as a shadow entity.
	shadow, ok := c.servers[1].Entity(id)
	if !ok {
		t.Fatal("NPC not replicated to peer")
	}
	if shadow.Owner != "s1" {
		t.Fatalf("NPC shadow owner = %q", shadow.Owner)
	}
}

func TestNPCAttacksUserOnRemoteReplica(t *testing.T) {
	c := newCluster(t, 2)
	victim := c.addClient(t, 1, entity.Vec2{X: 505, Y: 500}) // connects to s2
	c.tickAll()
	c.tickAll() // s1 now has the victim as a shadow entity
	// NPC owned by s1, right next to the victim's shadow.
	c.servers[0].SpawnNPC(entity.Vec2{X: 500, Y: 500})

	start, _ := c.servers[1].Entity(victim.Avatar())
	for i := 0; i < 120; i++ {
		c.tickAll()
		if e, ok := c.servers[1].Entity(victim.Avatar()); ok && e.Health < start.Health {
			return // forwarded NPC damage arrived on the victim's server
		}
	}
	t.Fatal("NPC attack never reached the user's replica")
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []entity.Vec2 {
		c := newCluster(t, 2)
		for i := 0; i < 6; i++ {
			c.addClient(t, i%2, entity.Vec2{X: float64(50 + i*10), Y: 100})
		}
		c.servers[0].SpawnNPC(entity.Vec2{X: 200, Y: 200})
		c.tickAll()
		for step := 0; step < 20; step++ {
			for ci, cl := range c.clients {
				cl.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: float64(ci%3 - 1), DY: 1}))
				if step%3 == ci%3 {
					cl.SendInput(game.Commands.EncodeToBytes(&game.Attack{DirX: 1, DirY: 0}))
				}
			}
			c.tickAll()
		}
		var out []entity.Vec2
		for _, cl := range c.clients {
			for si := range c.servers {
				if e, ok := c.servers[si].Entity(cl.Avatar()); ok && e.Owner == c.servers[si].ID() {
					out = append(out, e.Pos)
					break
				}
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at avatar %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestServerStopDetaches(t *testing.T) {
	c := newCluster(t, 2)
	if got := c.assignment.ReplicaCount(1); got != 2 {
		t.Fatalf("replica count = %d", got)
	}
	if err := c.servers[1].Stop(); err != nil {
		t.Fatal(err)
	}
	if got := c.assignment.ReplicaCount(1); got != 1 {
		t.Fatalf("replica count after stop = %d", got)
	}
	// Stopping twice is safe; ticking a stopped server is a no-op.
	if err := c.servers[1].Stop(); err != nil {
		t.Fatal(err)
	}
	c.servers[1].Tick()
}

func TestServerAccessorsAndRunLoop(t *testing.T) {
	c := newCluster(t, 1)
	srv := c.servers[0]
	if srv.Zone() != 1 {
		t.Fatalf("Zone = %d", srv.Zone())
	}
	if !strings.Contains(srv.String(), "s1") {
		t.Fatalf("String = %q", srv.String())
	}
	cl := c.addClient(t, 0, entity.Vec2{X: 1, Y: 1})
	c.tickAll()
	if got := srv.Users(); len(got) != 1 || got[0] != cl.ID() {
		t.Fatalf("Users = %v", got)
	}
	if srv.Draining() {
		t.Fatal("fresh server draining")
	}

	// Run drives the tick loop until the context is cancelled.
	ticks := func() uint64 { return srv.FlightRecorder().Summary().Ticks }
	before := ticks()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	deadline := time.After(5 * time.Second)
	for ticks() < before+2 {
		select {
		case <-deadline:
			t.Fatal("Run never ticked")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestConfigValidation(t *testing.T) {
	net := transport.NewLoopback()
	defer net.Close()
	node, _ := net.Attach("s", 8)
	asg := zone.NewAssignment()
	g := game.New(game.DefaultConfig())
	if _, err := server.New(server.Config{Zone: 1, Assignment: asg, App: g}); err == nil {
		t.Fatal("nil node accepted")
	}
	if _, err := server.New(server.Config{Node: node, Zone: 1, Assignment: asg}); err == nil {
		t.Fatal("nil app accepted")
	}
	if _, err := server.New(server.Config{Node: node, Zone: 1, App: g}); err == nil {
		t.Fatal("nil assignment accepted")
	}
}
