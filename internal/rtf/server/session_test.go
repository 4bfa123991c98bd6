package server_test

// The server's one session harness. A plan is one seeded schedule: replicas
// and zones, NPCs, joins, leaves, moves and attacks, migration orders like
// the resource manager's, zone handoffs, draining, idle users. A row runs a
// plan under a variant — Parallelism, the Euclid oracle in place of the
// spatial index (which leaves Env.Near a bare scan), GOMAXPROCS, keyframe
// cadence, TCP, a per-link fault schedule — and checks after every tick:
//
//	I1  each client's wire digest, and a digest of every replica's entities
//	    and of the game's score for each, equal the reference row's (the
//	    plan at Parallelism 1 with the default interest manager);
//	I2  each joined user is owned by exactly one server, the one its client
//	    talks to, unless it is in flight under a MigrateNotice or was
//	    evicted for silence; no server owns an avatar of no user; the flight
//	    recorders' migrations and workload gauges agree with the user
//	    counts; the game's per-user state lives where the user does;
//	I3  each client's view equals its server's entities in the AoI radius,
//	    and each replica holds its peers' entities as their owners last sent
//	    them, from KeyframeTicks after the last fault on;
//	I4  a fault aimed at one client leaves every other client's digest
//	    equal to the reference's.
//
// A row that differs from the reference only in how servers compute
// (Parallelism, oracle, GOMAXPROCS) must match it byte for byte, and a
// client fed the reference's bytes holds the reference's view, which was
// checked: such a row's clients hash their state updates without decoding
// them (a client answers no update), and skip the per-client half of I3.
// TCP delivery is asynchronous, so a TCP row skips I1 and checks I2
// and I3 once the network has gone quiet. Each row runs once per test
// binary (and again on a repeat run, go test -count); the tests compare
// rows and name what a row must have exercised.

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"roia/internal/game"
	"roia/internal/rtf/aoi"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

const never = 1 << 30

// member is one user of a plan: the server it joins, where, and the ticks
// before which it sends its Join and its Leave.
type member struct {
	home        int
	pos         entity.Vec2
	join, leave int
}

type plan struct {
	name     string
	zones    []zone.ID // one server per entry, ticked in this order
	starts   []int     // tick at which server i joins its zone's replicas (default 0)
	world    *zone.World
	game     game.Config
	parApp   bool // run parApp instead of the game
	npcs     func(srv int) []entity.Vec2
	seed     int64 // server i is seeded seed+i
	keyframe int
	idle     uint64 // IdleTimeoutTicks
	ticks    int
	members  []member
	script   func(h *harness, t int) // orders given before tick t
	inputs   func(t, i int) [][]byte // what user i sends after tick t
}

// fault is the window [from, until) on the links from server srv (-1:
// every server) to client (-1: every destination, peers included).
type fault struct {
	kind        string // "loss", "dup", "reorder", "truncate" or "stall"
	srv, client int
	from, until int
	rate        float64 // of loss
}

type variant struct {
	par, procs, keyframe int
	euclid, tcp          bool
	faults               []fault
	stop                 int // play only the first stop ticks (0: all)
}

var ref = variant{par: 1}

type result struct {
	digests [][][sha256.Size]byte // [tick][client]
	state   [][sha256.Size]byte   // [tick]: every replica's entities and scores
	selves  []entity.Entity       // each user's avatar at the end
	n       map[string]int        // what the session exercised
	bad     []string
}

// node wraps every server's and client's transport node. What it receives
// waits in the raw inbox until pump hands it on (a client's frames hashed
// length-prefixed into its digest), so the owner sees what had arrived when
// the harness pumped (a stalled client is not pumped). What it sends at tick t passes
// the links whose window holds t; loss goes through transport.Lossy.
type node struct {
	transport.Node
	in       chan transport.Frame
	h        hash.Hash
	hashOnly bool // hash state updates, hand on only the rest
	t        int
	links    []*link
}

type link struct {
	fault
	dest  string // "" for every destination
	lossy *transport.Lossy
	held  []byte
}

func (n *node) Inbox() <-chan transport.Frame { return n.in }

func (n *node) pump() {
	for _, f := range transport.Drain(n.Node, 0) {
		if n.h != nil {
			_ = binary.Write(n.h, binary.BigEndian, uint32(len(f.Payload)))
			n.h.Write(f.Payload)
		}
		if n.hashOnly && len(f.Payload) >= 2 {
			if k := wire.Kind(binary.BigEndian.Uint16(f.Payload)); k == proto.KindStateKeyframe || k == proto.KindStateDelta {
				continue
			}
		}
		n.in <- f
	}
}

func (n *node) Send(to string, p []byte) error { return n.SendBatch(to, [][]byte{p}) }

func (n *node) SendBatch(to string, ps [][]byte) error {
	for _, l := range n.links {
		on := n.t >= l.from && n.t < l.until
		if l.dest != "" && l.dest != to {
			continue
		}
		if l.lossy != nil { // the loss is phased in and out through SetRate
			l.lossy.SetRate(0)
			if on {
				l.lossy.SetRate(l.rate)
			}
			return l.lossy.SendBatch(to, ps)
		}
		if !on {
			continue
		}
		var out [][]byte
		for _, p := range ps {
			switch l.kind {
			case "dup":
				out = append(out, p, p)
			case "truncate":
				out = append(out, p[:len(p)/2])
			case "reorder": // each frame overtakes the one before it
				if l.held == nil {
					l.held = slices.Clone(p)
					continue
				}
				out, l.held = append(out, p, l.held), nil
			}
		}
		ps = out
	}
	return n.Node.(transport.BatchSender).SendBatch(to, ps)
}

// tally is the game counting the hits it was made to deal.
type tally struct {
	*game.Game
	n map[string]int
}

func (a *tally) UpdateNPC(env *server.Env, npc *entity.Entity) []server.Forward {
	fwds := a.Game.UpdateNPC(env, npc)
	a.n["npc hits"] += len(fwds)
	return fwds
}

func (a *tally) ApplyForwarded(env *server.Env, actor entity.ID, target *entity.Entity, payload []byte) error {
	if e, ok := env.Store.Get(actor); ok && e.Owner != env.ServerID {
		a.n["remote hits"]++
		if e.Kind == entity.NPC {
			a.n["remote npc hits"]++
		}
	}
	return a.Game.ApplyForwarded(env, actor, target, payload)
}

// replica and user are the harness's side of a server and of a client.
type replica struct {
	*server.Server
	n      *node
	game   *tally // nil under parApp
	cursor uint64 // flight recorder read position
	prev   []entity.Entity
}

type user struct {
	*client.Client
	n                      *node
	calm                   int // tick from which its view is checked again
	quiet, migs, redirects int // tick of its last input, join or move; Migrations() last seen
	joined, moving, gone   bool
	score                  uint32 // kills+deaths
	zone                   zone.ID
	vis                    []entity.ID
	seen                   map[entity.ID]bool
}

type harness struct {
	t         *testing.T
	p         *plan
	v         variant
	asg       *zone.Assignment
	net       transport.Network
	servers   []*replica
	users     []*user
	res       *result
	calmLinks int            // tick from which replicas are checked again
	views     bool           // check each client's view against its server
	pending   map[uint64]int // migrations initiated, not yet received
	inits     map[string]int // migrations initiated per user
	closed    bool
}

func build(t *testing.T, p *plan, v variant) *harness {
	t.Helper()
	h := &harness{t: t, p: p, v: v, asg: zone.NewAssignment(), net: transport.NewTCP(),
		res: &result{n: map[string]int{}}, pending: map[uint64]int{}, inits: map[string]int{}}
	if !v.tcp {
		h.net = transport.NewLoopback()
	}
	t.Cleanup(h.close) // a t.Fatal below or in the test stops what was started
	h.views = len(v.faults) > 0 || v.keyframe != 0 || v.tcp || v.par == 1 && !v.euclid && v.procs == 0
	attach := func(id string, inbox int) *node {
		raw, err := h.net.Attach(id, inbox)
		if err != nil {
			t.Fatal(err)
		}
		// The owner's inbox is as deep as the raw one it mirrors.
		return &node{Node: raw, in: make(chan transport.Frame, inbox)}
	}
	keyframe := cmp.Or(v.keyframe, p.keyframe)
	for i, z := range p.zones {
		r := &replica{n: attach(fmt.Sprintf("s%d", i+1), 1<<12)}
		var app server.Application = &parApp{}
		if !p.parApp {
			r.game = &tally{Game: game.New(p.game), n: h.res.n}
			app = r.game
		}
		cfg := server.Config{Node: r.n, Zone: z, Assignment: h.asg, World: p.world, App: app, IDPrefix: uint16(i + 1),
			Seed: p.seed + int64(i), Parallelism: v.par, KeyframeTicks: keyframe, IdleTimeoutTicks: p.idle}
		if v.euclid {
			cfg.AOI = aoi.NewEuclid(server.DefaultAOIRadius)
		}
		var err error
		if r.Server, err = server.New(cfg); err != nil {
			t.Fatal(err)
		}
		if r.NearIndexed() == v.euclid {
			t.Fatalf("%s: Env.Near indexed under the Euclid oracle = %v", r.ID(), v.euclid)
		}
		if i >= len(p.starts) || p.starts[i] == 0 {
			r.Start()
		}
		h.servers = append(h.servers, r)
	}
	for i, r := range h.servers {
		for k := 0; p.npcs != nil && k < len(p.npcs(i)); k++ {
			r.SpawnNPC(p.npcs(i)[k])
		}
	}
	for i, m := range p.members {
		u, inbox := &user{seen: map[entity.ID]bool{}}, 1<<8
		for _, f := range v.faults {
			if f.kind == "stall" && f.client == i {
				inbox = 8 // fills while stalled: the server's sends to it fail
			}
			if f.client == i || f.client < 0 {
				u.calm = max(u.calm, f.until+keyframe)
			}
			if f.client < 0 {
				h.calmLinks = max(h.calmLinks, f.until+1)
			}
		}
		u.n = attach(fmt.Sprintf("c%d", i+1), inbox)
		u.n.h, u.n.hashOnly = sha256.New(), !h.views
		u.Client = client.New(u.n, h.servers[m.home].ID())
		h.users = append(h.users, u)
	}
	for k, f := range v.faults {
		for si, r := range h.servers {
			if f.kind != "stall" && (f.srv < 0 || f.srv == si) {
				l := &link{fault: f}
				if f.client >= 0 {
					l.dest = h.users[f.client].ID()
				}
				if f.kind == "loss" {
					l.lossy = transport.NewLossy(r.n.Node, 0, int64(k*len(h.servers)+si))
				}
				r.n.links = append(r.n.links, l)
			}
		}
	}
	return h
}

// step plays tick t: orders, joins and leaves; every server ticks; every
// client polls and sends its inputs; then the invariants.
func (h *harness) step(t int) {
	for i, at := range h.p.starts {
		if t == at && at > 0 {
			h.servers[i].Start()
		}
	}
	if h.p.script != nil {
		h.p.script(h, t)
	}
	for i, m := range h.p.members {
		switch t {
		case m.join:
			_ = h.users[i].Join(uint32(h.p.zones[m.home]), m.pos, h.users[i].ID())
		case m.leave:
			_ = h.users[i].Leave()
			h.res.n["leaves"]++
		}
	}
	h.tick(t)
	row := make([][sha256.Size]byte, len(h.users))
	for i, u := range h.users {
		if !slices.ContainsFunc(h.v.faults, func(f fault) bool { return f.kind == "stall" && f.client == i && t >= f.from && t < f.until }) {
			u.n.pump()
		}
		u.Poll()
		h.res.n["events"] += len(u.DrainEvents())
		for _, in := range h.p.inputs(t, i) {
			if u.SendInput(in) == nil {
				u.quiet = t
			}
		}
		u.n.h.Sum(row[i][:0])
	}
	if h.res.digests = append(h.res.digests, row); !h.v.tcp {
		h.res.bad = append(h.res.bad, h.check(t, false)...)
	}
}

func (h *harness) tick(t int) {
	for _, r := range h.servers {
		r.n.t = t
		r.n.pump()
		r.Tick()
	}
	if h.v.tcp {
		time.Sleep(time.Millisecond)
	}
}

// settle keeps a TCP session ticking, without inputs, until ok holds with
// every client polled after the last tick, or fails after ten seconds.
func (h *harness) settle(ok func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		h.tick(never)
		for range 20 {
			time.Sleep(2 * time.Millisecond)
			for _, u := range h.users {
				u.n.pump()
				u.Poll()
			}
			if ok() {
				return true
			}
		}
	}
	return false
}

// check runs I2 and I3 after tick t; final says the session has gone quiet,
// so nothing may still be in flight.
func (h *harness) check(t int, final bool) (bad []string) {
	fail := func(format string, a ...any) {
		bad = append(bad, fmt.Sprintf("%s %+v tick %d: ", h.p.name, h.v, t)+fmt.Sprintf(format, a...))
	}
	n := h.res.n
	lists := make([][]entity.Entity, len(h.servers))
	verified := make([]int, len(h.servers))
	owner := map[string]int{}
	for si, r := range h.servers {
		lists[si] = r.Entities()
		users := r.Users()
		for _, u := range users {
			if o, dup := owner[u]; dup {
				fail("%s owned by %s and %s", u, h.servers[o].ID(), r.ID())
			}
			owner[u] = si
		}
		recs, cursor := r.FlightRecorder().Since(r.cursor)
		r.cursor = cursor
		for _, rec := range recs {
			for _, m := range rec.Migrations {
				if m.Phase == telemetry.MigPhaseInit {
					h.pending[m.ID] = t
					h.inits[m.User]++
				} else if m.Phase == telemetry.MigPhaseRecv {
					delete(h.pending, m.ID)
				}
			}
			for _, sp := range rec.Tasks {
				n["span "+sp.Name]++
			}
			n["client bytes"] += rec.ClientBytesOut
			n["bytes in"] += rec.BytesIn
		}
		avatars := 0
		for _, e := range lists[si] {
			if e.Kind == entity.Avatar {
				avatars++
			}
		}
		if len(recs) == 0 {
			continue
		}
		if rec := recs[len(recs)-1]; rec.ActiveUsers != len(users) || rec.Users != avatars || rec.Replicas != h.asg.ReplicaCount(r.Zone()) {
			fail("%s recorded %d users, %d connected, %d replicas; it holds %d, %d, %d", r.ID(),
				rec.Users, rec.ActiveUsers, rec.Replicas, avatars, len(users), h.asg.ReplicaCount(r.Zone()))
		} else if rec.Users > rec.ActiveUsers {
			n["shadow ticks"]++
		}
	}
	for id, at := range h.pending {
		if at < t || final {
			fail("migration %x initiated at tick %d never arrived", id, at)
		}
	}
	for _, u := range h.users {
		mig, joined := u.Migrations(), u.Joined()
		moved := mig != u.migs
		if u.migs = mig; u.gone {
			continue
		}
		if moved && !joined {
			u.redirects++ // a draining server sent an unacknowledged join to its peer
			n["redirects"]++
		}
		if moved || joined && !u.joined {
			u.quiet = t
		}
		if u.joined = joined; !joined {
			continue
		}
		u.moving = u.moving || moved
		if want := mig - u.redirects; h.inits[u.ID()] != want {
			fail("%s followed %d migrations, the recorders initiated %d", u.ID(), want, h.inits[u.ID()])
		}
		si, owned := owner[u.ID()]
		idle, silent := int(h.p.idle), t-u.quiet
		switch {
		case !owned && moved: // in flight: its new owner installs it next tick
			continue
		case !owned && idle > 0 && silent >= idle-2:
			u.gone = true
			n["evicted"]++
			continue
		case !owned:
			fail("user %s lost: no server owns it", u.ID())
			continue
		case h.servers[si].ID() != u.Server():
			fail("%s is owned by %s but talks to %s", u.ID(), h.servers[si].ID(), u.Server())
		case idle > 0 && silent > idle+2:
			fail("%s silent for %d ticks is not evicted", u.ID(), silent)
		case idle > 0 && silent > idle/2:
			n["idle but kept"]++
		}
		self := find(lists[si], u.Avatar())
		if self == nil || self.Owner != h.servers[si].ID() {
			fail("%s's avatar %x is not on its server %s", u.ID(), u.Avatar(), h.servers[si].ID())
			continue
		}
		verified[si]++
		for sj, r := range h.servers {
			if r.game == nil {
				break
			}
			if k, d, has := r.game.Score(self.ID); has != (sj == si) {
				fail("%s's game state on %s: %v", u.ID(), r.ID(), has)
			} else if has && k+d < u.score {
				fail("%s's kills and deaths fell from %d to %d", u.ID(), u.score, k+d)
			} else if has {
				u.score = k + d
			}
		}
		if u.moving {
			u.moving = false
			n["moves followed"]++
			n["moves with score"] += int(min(1, u.score))
			if u.zone != 0 && u.zone != h.p.zones[si] {
				n["handoffs"]++
				n["handoffs with score"] += int(min(1, u.score))
			}
		}
		u.zone = h.p.zones[si]
		if w := h.p.world; w != nil {
			if z, ok := w.Locate(self.Pos); ok && z.ID != u.zone && h.asg.ReplicaCount(z.ID) == 0 {
				n["kept in unstaffed zone"]++
			}
		}
		if !h.views || t < u.calm || h.v.tcp && !final {
			continue
		}
		view := u.LastUpdate()
		if view == nil || !u.Synced() {
			fail("%s holds no synced view", u.ID())
			continue
		}
		if view.Self != *self {
			fail("%s sees itself as %+v, its server holds %+v", u.ID(), view.Self, *self)
		}
		vis, k := view.Visible, 0
		for j := range lists[si] {
			if e := &lists[si][j]; e.ID == self.ID || e.Pos.Dist2(self.Pos) > server.DefaultAOIRadius*server.DefaultAOIRadius {
				continue
			} else if k == len(vis) || vis[k] != *e {
				fail("%s sees %+v, its server holds %+v in range", u.ID(), vis, *e)
				break
			}
			k++
		}
		if k != len(vis) {
			fail("%s sees %d entities, its server holds %d in range", u.ID(), len(vis), k)
		}
		n["views checked"]++
		n["max visible"] = max(n["max visible"], len(vis))
		// One merge walk against the last checked view counts AoI exits,
		// and entries of entities the client had seen before.
		last, k := u.vis, 0
		for _, e := range vis {
			for ; k < len(last) && last[k] < e.ID; k++ {
				n["aoi exits"]++
			}
			if k < len(last) && last[k] == e.ID {
				k++
			} else if u.seen[e.ID] {
				n["aoi returns"]++
			}
			u.seen[e.ID] = true
		}
		n["aoi exits"] += len(last) - k
		u.vis = last[:0]
		for _, e := range vis {
			u.vis = append(u.vis, e.ID)
		}
	}
	for si, r := range h.servers {
		mine := 0
		for _, e := range lists[si] {
			if e.Kind == entity.Avatar && e.Owner == r.ID() {
				mine++
			}
		}
		if mine != verified[si] {
			fail("%s owns %d avatars for %d users", r.ID(), mine, verified[si])
		}
		for sj, peer := range h.servers {
			src := lists[sj]
			if sj > si {
				src = peer.prev // si ticked first: it holds sj's previous tick
			}
			if sj == si || h.p.zones[sj] != h.p.zones[si] || src == nil || h.v.tcp || t < h.calmLinks {
				continue
			}
			for j := range src {
				if e := &src[j]; e.Owner == peer.ID() {
					if got := find(lists[si], e.ID); got == nil || *got != *e {
						fail("%s holds %+v of %s's %+v", r.ID(), got, peer.ID(), *e)
					}
				}
			}
			for j := range lists[si] {
				if e := &lists[si][j]; e.Owner == peer.ID() && find(src, e.ID) == nil {
					fail("%s holds %x of %s, which has no such entity", r.ID(), e.ID, peer.ID())
				} else if e.Owner == peer.ID() && e.Kind == entity.NPC {
					n["npc shadows checked"]++
				}
			}
			n["replicas checked"]++
		}
	}
	// The state digest: two rows that agree on it agree on every entity of
	// every replica and on the game's score for each, whether or not any
	// client sees it.
	w := wire.NewWriter(1 << 12)
	for si, r := range h.servers {
		r.prev = lists[si]
		for j := range lists[si] {
			lists[si][j].MarshalWire(w)
			if r.game != nil {
				k, d, has := r.game.Score(lists[si][j].ID)
				w.Uint32(k)
				w.Uint32(d)
				w.Bool(has)
			}
		}
	}
	h.res.state = append(h.res.state, sha256.Sum256(w.Bytes()))
	return bad
}

// find looks id up in an ID-ordered entity list.
func find(list []entity.Entity, id entity.ID) *entity.Entity {
	i, ok := slices.BinarySearchFunc(list, id, func(e entity.Entity, id entity.ID) int { return cmp.Compare(e.ID, id) })
	if !ok {
		return nil
	}
	return &list[i]
}

// close stops every server (twice: the second Stop, and a stopped server's
// Tick, are no-ops) and closes every node and the network.
func (h *harness) close() {
	if h.closed {
		return
	}
	h.closed = true
	n, played := h.res.n, len(h.res.digests)
	for i, u := range h.users {
		n["migrations"] += u.Migrations()
		n["resyncs"] += int(u.Resyncs())
		n["nacks"] += u.JoinNacks()
		if u.Joined() {
			n["joined"]++
		}
		if m := h.p.members[i]; m.join < played-3 && !u.Joined() && u.JoinNacks() == 0 && m.leave >= played {
			h.res.bad = append(h.res.bad, fmt.Sprintf("%s %+v: %s's join was never answered", h.p.name, h.v, u.ID()))
		}
		self := entity.Entity{}
		for _, r := range h.servers {
			if e, ok := r.Entity(u.Avatar()); ok && e.Owner == r.ID() {
				self = e
			}
			if r.game != nil {
				_, d, _ := r.game.Score(u.Avatar())
				n["deaths"] += int(d)
			}
		}
		h.res.selves = append(h.res.selves, self)
		_ = u.Close()
	}
	for _, r := range h.servers {
		for _, l := range r.n.links {
			if l.lossy != nil {
				d, _ := l.lossy.Stats()
				n["dropped"] += d
			}
		}
		_, _ = r.Stop(), r.Stop()
		r.Tick()
		n["servers stopped"]++
	}
	for _, z := range h.p.zones {
		if got := h.asg.Replicas(z); len(got) > 1 { // the last replica of a zone stays assigned
			h.res.bad = append(h.res.bad, fmt.Sprintf("%v still staff zone %d after Stop", got, z))
		}
	}
	if lb, ok := h.net.(*transport.Loopback); ok {
		_ = lb.Close()
	}
}

// finish closes a harness a test drives by hand and fails the test with
// whatever the invariants caught.
func (h *harness) finish() {
	if h.close(); len(h.res.bad) > 0 {
		h.t.Fatal(strings.Join(h.res.bad, "\n"))
	}
}

// run plays a row and stops everything it started: once the servers are
// stopped and the network closed, the goroutine count must fall back to
// where it was (TCP readers get a moment to exit).
func run(t *testing.T, p *plan, v variant) *result {
	before := runtime.NumGoroutine()
	if v.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.procs))
	}
	h := build(t, p, v)
	for tick := range cmp.Or(v.stop, p.ticks) {
		h.step(tick)
	}
	var bad []string
	if v.tcp && !h.settle(func() bool { bad = h.check(p.ticks, true); return len(bad) == 0 }) {
		h.res.bad = append(h.res.bad, bad...)
	}
	h.close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			h.res.bad = append(h.res.bad, fmt.Sprintf("%s %+v: %d goroutines outlive the session, %d ran before it",
				p.name, v, runtime.NumGoroutine(), before))
			break
		}
	}
	return h.res
}

// row is a played row and, by name, the test that last read it.
type row struct {
	*result
	by map[string]*testing.T
}

var rows = map[string]*row{}

// session returns the row's result, running it on first use, and fails t
// with whatever the row's invariants caught. A test that reads a row again
// under a new *testing.T (go test -count) plays it again.
func session(t *testing.T, p *plan, v variant) *result {
	t.Helper()
	key := fmt.Sprintf("%s %+v", p.name, v)
	if r := rows[key]; r == nil || r.by[t.Name()] != nil && r.by[t.Name()] != t {
		rows[key] = &row{run(t, p, v), map[string]*testing.T{}}
	}
	r := rows[key]
	if r.by[t.Name()] = t; len(r.bad) > 0 {
		t.Fatalf("%s:\n%s", key, strings.Join(r.bad[:min(len(r.bad), 10)], "\n"))
	}
	return r.result
}

// same holds a row to the reference, tick by tick: every replica's state,
// and (unless the row changes the keyframe cadence, and so the bytes) the
// wire stream of every client no fault of the row is aimed at — I1, and I4
// for rows with faults.
func same(t *testing.T, p *plan, v variant) {
	t.Helper()
	want, got := session(t, p, ref), session(t, p, v)
	for tick := range got.digests {
		if got.state[tick] != want.state[tick] {
			t.Fatalf("%s %+v: server state diverged from the reference at tick %d", p.name, v, tick)
		}
		for i := range want.digests[tick] {
			hit := v.keyframe != 0 || slices.ContainsFunc(v.faults, func(f fault) bool { return f.client == i })
			if !hit && got.digests[tick][i] != want.digests[tick][i] {
				t.Fatalf("%s %+v: c%d's wire stream diverged from the reference at tick %d", p.name, v, i+1, tick)
			}
		}
	}
}

// exercised fails t unless the row counted each of what.
func exercised(t *testing.T, p *plan, v variant, what ...string) {
	t.Helper()
	r := session(t, p, v)
	for _, w := range what {
		if r.n[w] == 0 {
			t.Fatalf("%s %+v never exercised %q: %v", p.name, v, w, r.n)
		}
	}
}

func move(dx, dy float64) []byte { return game.Commands.EncodeToBytes(&game.Move{DX: dx, DY: dy}) }

// pinned builds the pipeline sessions whose wire bytes are pinned: two
// replicas of zone 1, four NPCs on the first, 40 ticks at KeyframeTicks 8
// (so several keyframe boundaries besides the ones migration forces), the
// first replica ordered to hand two users to the second at tick 15, and
// every joined user moving on alternate ticks.
func pinned(name string, users int, pos func(i int) entity.Vec2) *plan {
	p := &plan{name: name, zones: []zone.ID{1, 1}, game: game.DefaultConfig(), seed: 7000, keyframe: 8, ticks: 40,
		npcs: func(s int) []entity.Vec2 {
			if s > 0 {
				return nil
			}
			return []entity.Vec2{{X: 100, Y: 120}, {X: 150, Y: 120}, {X: 200, Y: 120}, {X: 250, Y: 120}}
		},
		script: func(h *harness, t int) {
			if t == 15 {
				h.servers[0].MigrateUsers(h.servers[1].ID(), 2)
			}
		},
		inputs: func(t, i int) [][]byte {
			if t%2 != i%2 {
				return nil
			}
			return [][]byte{move(float64(1+(t+i)%3), float64(-1+(t*i)%3))}
		},
	}
	for i := range users {
		p.members = append(p.members, member{home: i % 2, pos: pos(i), leave: never})
	}
	return p
}

// sparse is six users strung out on a line, there from the start.
var sparse = pinned("sparse", 6, func(i int) entity.Vec2 { return entity.Vec2{X: float64(100 + 10*i), Y: float64(100 + 5*i)} })

// dense packs 150 users into a 30×20 patch, well inside one AoI radius:
// every visible set spans three words of the publish stage's bitset. Every
// tenth user joins late (at the top of the ID order) and every sixth leaves
// mid-session (below most of it), so snapshot positions shift under the
// users that stay.
var dense = func() *plan {
	p := pinned("dense", 150, func(i int) entity.Vec2 { return entity.Vec2{X: float64(100 + 2*(i%15)), Y: float64(100 + 2*(i/15))} })
	for i := 9; i < 150; i += 10 {
		p.members[i].join = 12
	}
	for i := 2; i < 150; i += 6 {
		p.members[i].leave = 20 + i%5
	}
	return p
}()

var parSparse = func() *plan {
	p := *sparse
	p.name, p.parApp = "sparse ConcurrentSimulator", true
	return &p
}()

// generate draws a two-replica plan from one seed: users at random spots of
// a 400×400 world, every eighth joining late and every ninth leaving in the
// second half; each joined user moves with probability 0.8 and shoots in a
// random direction with probability 0.5 every tick; and every so many ticks
// one replica is ordered to hand three users to the other, in turn.
func generate(name string, seed int64, users, ticks, every int) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{name: name, zones: []zone.ID{1, 1}, game: game.DefaultConfig(), keyframe: 8, ticks: ticks}
	p.game.WorldMax = 400
	p.script = func(h *harness, t int) {
		if from := (t / every) % 2; t%every == every-1 {
			h.servers[from].MigrateUsers(h.servers[1-from].ID(), 3)
		}
	}
	for i := range users {
		m := member{home: i % 2, pos: entity.Vec2{X: rng.Float64() * 400, Y: rng.Float64() * 400}, leave: never}
		if i%8 == 7 {
			m.join = ticks/12 + i
		}
		if i%9 == 4 {
			m.leave = ticks*2/5 + i
		}
		p.members = append(p.members, m)
	}
	in := make([][][]byte, ticks*users)
	for k := range in {
		if rng.Float64() < 0.8 {
			in[k] = append(in[k], move(rng.Float64()*10-5, rng.Float64()*10-5))
		}
		if rng.Float64() < 0.5 {
			ang := rng.Float64() * 2 * math.Pi
			in[k] = append(in[k], game.Commands.EncodeToBytes(&game.Attack{DirX: math.Cos(ang), DirY: math.Sin(ang)}))
		}
	}
	p.inputs = func(t, i int) [][]byte { return in[t*users+i] }
	return p
}

// shooter is a crowded two-replica shooter, 48 users for 520 ticks: three
// hits kill, so avatars die and respawn elsewhere all session, and six NPCs
// a replica attack half the time. Each replica sees the other's avatars as
// shadows and sends it the damage its own users deal them; every 30 ticks
// three users change replica, and from tick 150 users leave in the middle
// of the fighting.
var shooter = func() *plan {
	p := generate("shooter", 19, 48, 520, 30)
	p.game.AttackDamage, p.game.NPCAttackProb, p.game.NPCDamage = 34, 0.5, 20
	p.seed = 900
	for i := 3; i < 48; i += 4 {
		p.members[i].leave = 150 + i
	}
	p.npcs = func(s int) []entity.Vec2 {
		var at []entity.Vec2
		for k := range 6 {
			at = append(at, entity.Vec2{X: float64(40 + 60*k), Y: float64(100 + 200*s)})
		}
		return at
	}
	return p
}()

// shooterLoss drops 60 % of every frame both replicas send — updates and
// shadow refreshes — between two migration waves, after the last join and
// before the first leave: joins, leaves, migrations and removals are sent
// once with no repair path (see CHANGES.md). What the loss does hit must
// heal within KeyframeTicks.
var shooterLoss = variant{par: 1, faults: []fault{{kind: "loss", srv: -1, client: -1, from: 92, until: 106, rate: 0.6}}, stop: 135}

// mixed is the generator on a zoned world: zone 1 (x < 200) has two
// replicas and zone 2 one, which starts only at tick 60 — users who walk
// east stay where they are until it opens, then hand off. The second
// replica and zone 2 drain from tick 80 to 100, so a join aimed at the one
// is redirected to its peer and one aimed at the other refused; at tick 120
// a migration order names a server nobody runs, and at 130 the first user
// re-sends its Join. Every seventh user falls silent at tick 150 and is
// evicted after IdleTimeoutTicks 12, while every seventh but two sends one
// input every eight ticks and is not.
var mixed = func() *plan {
	p := generate("mixed", 5, 28, 240, 30)
	p.zones, p.starts, p.world, p.idle, p.seed = []zone.ID{1, 1, 2}, []int{0, 0, 60}, zone.GridWorld(2, 1, 400, 400), 12, 300
	p.npcs = func(s int) []entity.Vec2 {
		return []entity.Vec2{{X: 60 + 140*float64(s), Y: 100}, {X: 60 + 140*float64(s), Y: 300}}
	}
	for i := 1; i < 26; i += 5 {
		p.members[i].home, p.members[i].join, p.members[i].pos.X = 2, 60+i/2, 200+p.members[i].pos.X/2
	}
	p.members[26].home, p.members[26].join = 1, 85
	p.members[27].home, p.members[27].join = 2, 90
	in, wave := p.inputs, p.script
	var owned []string   // s1's users when it is ordered to a server nobody runs
	var avatar entity.ID // c1's avatar when it re-sends its Join
	p.inputs = func(t, i int) [][]byte {
		switch {
		case i%7 == 3 && t >= 150, i%7 == 5 && t%8 != 0:
			return nil
		case i%7 == 5:
			return [][]byte{move(1, 0)}
		}
		return in(t, i)
	}
	p.script = func(h *harness, t int) {
		wave(h, t)
		switch t {
		case 80, 100:
			h.servers[1].SetDraining(t == 80)
			h.servers[2].SetDraining(t == 80)
		case 120:
			owned = h.servers[0].Users()
			h.servers[0].MigrateUsers("nobody", 2)
		case 121:
			if len(owned) >= 2 && len(slices.DeleteFunc(owned, func(u string) bool { return slices.Contains(h.servers[0].Users(), u) })) == 0 {
				h.res.n["users kept after an order to nobody"]++
			}
		case 130:
			avatar = h.users[0].Avatar()
			_ = h.users[0].Join(1, entity.Vec2{}, h.users[0].ID())
		case 131:
			for _, r := range h.servers {
				mine := slices.DeleteFunc(r.Entities(), func(e entity.Entity) bool { return e.Kind != entity.Avatar || e.Owner != r.ID() })
				if slices.Contains(r.Users(), "c1") && len(mine) == len(r.Users()) && h.users[0].Avatar() == avatar {
					h.res.n["one avatar after a repeated join"]++
				}
			}
		}
	}
	return p
}()

// duo is one replica and two users: the first moves by (dx, dy) after tick
// 1, the second never sends anything, and with no idle timeout must stay.
func duo(dx, dy float64) *plan {
	return &plan{name: fmt.Sprintf("duo %g,%g", dx, dy), zones: []zone.ID{1}, game: game.DefaultConfig(), seed: 1,
		keyframe: 8, ticks: 40,
		members: []member{{pos: entity.Vec2{X: 100, Y: 100}, leave: never}, {pos: entity.Vec2{X: 100, Y: 130}, leave: never}},
		inputs: func(t, i int) [][]byte {
			if t == 1 && i == 0 {
				return [][]byte{move(dx, dy)}
			}
			return nil
		},
	}
}

// tcpPlan runs six users on two replicas over real TCP sockets; once all
// have joined, one is migrated.
var tcpPlan = func() *plan {
	p := pinned("tcp", 6, func(i int) entity.Vec2 { return entity.Vec2{X: float64(100 + 5*i), Y: 100} })
	p.npcs, p.ticks = nil, 60
	p.script = func(h *harness, t int) {
		if t == 29 && !h.settle(func() bool { return h.servers[0].ZoneUserCount() == 6 && h.servers[1].ZoneUserCount() == 6 }) {
			h.res.bad = append(h.res.bad, "TCP session never converged")
		}
		if t == 30 {
			h.servers[0].MigrateUsers(h.servers[1].ID(), 1)
		}
	}
	return p
}()

// parApp is a minimal Application that satisfies the ConcurrentSimulator
// contract: UpdateNPC is a pure function of the NPC it is handed (no
// env.Rand, no writes to other entities), with cross-entity effects
// expressed as forwards.
type parApp struct{ avatars []entity.ID }

func (a *parApp) ConcurrentNPCUpdates() bool                    { return true }
func (a *parApp) DrainEvents(*server.Env, entity.ID) []byte     { return nil }
func (a *parApp) EncodeUserState(*server.Env, entity.ID) []byte { return nil }
func (a *parApp) ApplyUserState(*server.Env, entity.ID, []byte) {}

func (a *parApp) SpawnAvatar(env *server.Env, id entity.ID, pos entity.Vec2, zoneID uint32) *entity.Entity {
	a.avatars = append(a.avatars, id)
	return &entity.Entity{ID: id, Pos: pos, Health: 100}
}

func (a *parApp) ApplyInput(env *server.Env, actor *entity.Entity, payload []byte) ([]server.Forward, error) {
	actor.Pos.X, actor.Pos.Y = actor.Pos.X+float64(int8(payload[0])), actor.Pos.Y+float64(int8(payload[1]))
	return nil, nil
}

func (a *parApp) ApplyForwarded(env *server.Env, _ entity.ID, target *entity.Entity, _ []byte) error {
	target.Health--
	return nil
}

func (a *parApp) UpdateNPC(env *server.Env, npc *entity.Entity) []server.Forward {
	npc.Pos.X += 0.5 * float64(1+npc.ID%5)
	npc.Pos.Y += 0.25
	if env.Tick%4 == 0 && len(a.avatars) > 0 {
		return []server.Forward{{Target: a.avatars[int(npc.ID)%len(a.avatars)], Payload: []byte{1}}}
	}
	return nil
}

// TestPipelineDeterministicAcrossParallelism pins the wire stream — masked
// field deltas, gap-encoded IDs, keyframe cadence, migration-forced
// keyframes — as a function of the simulation state alone: never of worker
// scheduling, and never of which interest manager answered the queries.
func TestPipelineDeterministicAcrossParallelism(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		same(t, sparse, variant{par: w, euclid: true})
		same(t, dense, variant{par: w, euclid: true})
		if w > 1 {
			same(t, sparse, variant{par: w})
			same(t, dense, variant{par: w})
		}
	}
	same(t, mixed, variant{par: 4})
}

func TestPipelineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		same(t, sparse, variant{par: 4, procs: procs})
	}
}

func TestPipelineDeterministicConcurrentSimulator(t *testing.T) {
	for _, w := range []int{2, 4, 8} {
		same(t, parSparse, variant{par: w})
	}
}

// pinnedWireDigest is the SHA-256 of the comma-joined per-client digests of
// the sparse session at Parallelism 1 and 4, then the dense session at
// Parallelism 1 and 4, recorded while every state update was still encoded
// through StateDelta/StateKeyframe.MarshalWire. Changing the wire format
// means changing it here, deliberately.
const pinnedWireDigest = "3782bf5b1e91094bea007c38c126949c4c1622c69ec0230b119ebf3a16ddc488"

// TestPipelineWireBytesPinned pins the wire stream to recorded bytes: the
// rows above only compare runs of one build with each other, so an encoder
// change that altered the bytes the same way everywhere would pass them.
func TestPipelineWireBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The game's movement and hit math is float64; the Go compiler may
		// fuse its multiply-adds on other architectures (arm64 among them),
		// which moves positions by an ulp and with them the bytes.
		t.Skipf("wire bytes are pinned on amd64 only, this is %s", runtime.GOARCH)
	}
	var digests []string
	for _, p := range []*plan{sparse, dense} {
		for _, w := range []int{1, 4} {
			for _, d := range session(t, p, variant{par: w}).digests[p.ticks-1] {
				digests = append(digests, hex.EncodeToString(d[:]))
			}
		}
	}
	if n := session(t, dense, ref).n["max visible"]; n < 130 {
		t.Fatalf("dense session's largest visible set is %d, want 130", n)
	}
	if sum := sha256.Sum256([]byte(strings.Join(digests, ","))); hex.EncodeToString(sum[:]) != pinnedWireDigest {
		t.Fatalf("wire stream digest %x, pinned %s", sum, pinnedWireDigest)
	}
}

// TestNearIndexedMatchesScan holds the game's hit scans, which read the
// server's spatial index through Env.Near, to a bare Env that scans the
// store (the Euclid oracle row), on a session that exercises what the index
// has to survive: respawn teleports, shadows, damage forwarded between
// replicas, NPC attacks and users changing replica.
func TestNearIndexedMatchesScan(t *testing.T) {
	same(t, shooter, variant{par: 1, euclid: true})
	r := session(t, shooter, ref)
	for what, least := range map[string]int{"deaths": 50, "remote hits": 50, "npc hits": 20, "shadow ticks": 500, "migrations": 40} {
		if r.n[what] < least {
			t.Fatalf("session too tame: %d %s, want %d", r.n[what], what, least)
		}
	}
}

// TestDeterministicReplay runs the sparse plan on the server's defaults —
// the reference's sequential pipeline — a second time.
func TestDeterministicReplay(t *testing.T) { same(t, sparse, variant{}) }

// TestDeltaStreamMatchesKeyframeOnlyView holds the delta stream to a server
// that sends every update as a full keyframe. Both rows check every view
// against its server every tick (I3), so equal server state means every
// client's World() is equal after every tick.
func TestDeltaStreamMatchesKeyframeOnlyView(t *testing.T) {
	same(t, sparse, variant{par: 1, keyframe: 1})
}

// TestIdleDeltaSmallerThanKeyframe: when nothing changes (the duo session
// after its one move) a keyframe still resends every visible entity while a
// delta carries only its header.
func TestIdleDeltaSmallerThanKeyframe(t *testing.T) {
	delta, full := session(t, duo(3, -2), ref).n["client bytes"], session(t, duo(3, -2), variant{par: 1, keyframe: 1}).n["client bytes"]
	if delta*3 > full {
		t.Fatalf("delta stream %d bytes, keyframe-only %d", delta, full)
	}
}

// TestFaultAimedAtOneClientSparesTheRest is I4: a stall, loss, duplicates,
// reordering and truncation on five clients' links, between migration waves.
func TestFaultAimedAtOneClientSparesTheRest(t *testing.T) {
	v := variant{par: 1, stop: 135}
	for c, kind := range []string{"stall", "loss", "dup", "reorder", "truncate"} {
		v.faults = append(v.faults, fault{kind: kind, srv: -1, client: c + 1, from: 92, until: 106, rate: 0.5})
	}
	same(t, shooter, v)
	exercised(t, shooter, v, "resyncs", "dropped")
}

func TestMoveCommandUpdatesPosition(t *testing.T) {
	if got := session(t, duo(3, -2), ref).selves[0].Pos; got != (entity.Vec2{X: 103, Y: 98}) {
		t.Fatalf("pos = %v, want (103,98)", got)
	}
}

func TestMoveSpeedClamped(t *testing.T) {
	if got := session(t, duo(1000, 1000), ref).selves[0].Pos; got != (entity.Vec2{X: 105, Y: 105}) { // MoveSpeed = 5
		t.Fatalf("pos = %v, want clamped (105,105)", got)
	}
}

func TestTCPEndToEnd(t *testing.T) {
	if r := session(t, tcpPlan, variant{tcp: true}); r.n["migrations"] != 1 || r.n["joined"] != 6 || r.n["bytes in"] == 0 {
		t.Fatalf("TCP session: %v", r.n)
	}
}

// Each of these names what a row must have exercised; the invariants
// checked it after every tick.
func TestJoinFlow(t *testing.T) {
	exercised(t, mixed, ref, "joined", "one avatar after a repeated join")
}
func TestEvictionDisabledByDefault(t *testing.T) { exercised(t, duo(3, -2), ref, "views checked") }
func TestServerStopDetaches(t *testing.T)        { exercised(t, sparse, ref, "servers stopped") }
func TestReplicationShadowEntities(t *testing.T) {
	exercised(t, shooter, ref, "shadow ticks", "replicas checked")
}
func TestForwardedAttackAcrossReplicas(t *testing.T) {
	exercised(t, shooter, ref, "remote hits", "events")
}
func TestRespawnAfterLethalDamage(t *testing.T)   { exercised(t, shooter, ref, "deaths") }
func TestUserMigration(t *testing.T)              { exercised(t, mixed, ref, "moves followed") }
func TestMigrationPreservesAppState(t *testing.T) { exercised(t, shooter, ref, "moves with score") }
func TestMigrationToUnknownTargetIsDropped(t *testing.T) {
	exercised(t, mixed, ref, "users kept after an order to nobody")
}
func TestLeaveRemovesEverywhere(t *testing.T)      { exercised(t, shooter, ref, "leaves") }
func TestDrainingRejectsJoins(t *testing.T)        { exercised(t, mixed, ref, "nacks") }
func TestDrainingRedirectsJoinToPeer(t *testing.T) { exercised(t, mixed, ref, "redirects") }
func TestMonitorRecordsModelParameters(t *testing.T) {
	exercised(t, shooter, ref, "span t_ua_dser", "span t_ua", "span t_su", "span t_fa_dser")
}
func TestNPCWandersAndReplicates(t *testing.T)       { exercised(t, shooter, ref, "npc shadows checked") }
func TestNPCAttacksUserOnRemoteReplica(t *testing.T) { exercised(t, shooter, ref, "remote npc hits") }
func TestIdleClientEvicted(t *testing.T)             { exercised(t, mixed, ref, "evicted") }
func TestInputsResetIdleTimer(t *testing.T)          { exercised(t, mixed, ref, "idle but kept") }
func TestZoneHandoffOnBoundaryCrossing(t *testing.T) { exercised(t, mixed, ref, "handoffs") }
func TestZoneHandoffPreservesAppState(t *testing.T)  { exercised(t, mixed, ref, "handoffs with score") }
func TestZoneHandoffUnstaffedZoneKeepsUser(t *testing.T) {
	exercised(t, mixed, ref, "kept in unstaffed zone")
}
func TestDeltaGoneListPrunesClientWorld(t *testing.T) { exercised(t, shooter, ref, "aoi exits") }
func TestDeltaReappearsAfterReturn(t *testing.T)      { exercised(t, shooter, ref, "aoi returns") }
func TestDeltaKeyframeResyncAfterLoss(t *testing.T) {
	exercised(t, shooter, shooterLoss, "resyncs", "dropped")
}
func TestShadowStateConvergesDespiteFrameLoss(t *testing.T) {
	exercised(t, shooter, shooterLoss, "dropped", "replicas checked")
}
