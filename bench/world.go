package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"roia/internal/bots"
	"roia/internal/game"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
)

const (
	zoneID = 1
	// serverInbox is roiaserver's inbox size, clientInbox is roiabot's.
	serverInbox = 1 << 16
	clientInbox = 1 << 12
	// waitLimit bounds every wait on the transport; a wait that hits it is
	// counted as a failed operation, never retried.
	waitLimit = 5 * time.Second
)

// replica is one server of the zone and the harness's counts about it.
type replica struct {
	id   string
	node *countingNode
	srv  *server.Server
	npcs []entity.ID
	// base is the inbox depth before the period's inputs were sent and
	// sent is the number of inputs sent to this replica in the period.
	base, sent int
}

// walker is the benchmark's bot: one client that random-walks inside the
// workload's patch and, per its profile, attacks an entity it can see. It
// differs from bots.Bot in three ways the measurements need. It picks
// targets from the latest update's visible set instead of sorting the whole
// world cache (which under full updates grows towards every entity ever
// seen, so bots.Bot gets slower the longer a run lasts). It steers back
// into the patch, so a crowd stays a crowd. And it returns what it did, so
// the harness can count inputs and updates per period.
type walker struct {
	c    *client.Client
	node transport.Node
	rng  *rand.Rand
	prof bots.Profile
	// probe walkers record when they sent their last input.
	probe  bool
	sentAt time.Time
	// inputs is the client's input sequence: SendInput calls since join.
	inputs uint64
	// updates counts state updates polled; windowBase is its value when
	// the measured window opened.
	updates, windowBase uint64
	joinAt              time.Time
	joinMS              float64
	// moved is set when the client follows a migration inside the measured
	// window; migrations and following are world.trackMigrations' state.
	moved, following bool
	migrations       int
}

// world is one cluster under test: the replicas, every client, and the
// counts of the run so far.
type world struct {
	spec  spec
	seed  int64
	rng   *rand.Rand
	net   transport.Network
	reps  []*replica
	repBy map[string]*replica
	// walkers holds every client; probes are the same walkers again. Probe
	// IDs sort after every other user's, so MigrateUsers, which takes users
	// in ID order, never moves a probe.
	walkers, probes []*walker
	tr              *tracer
	sampler         *sampler
	cmd             *wire.Writer
	move            game.Move
	attack          game.Attack

	period int
	// Totals since the world was built, for the correctness gate.
	joins, inputs, applied, decoded, expectedUpdates int64
	probeTimeouts, ingestTimeouts                    int64
	// Migrations ordered so far, still open, the period of the last order,
	// and how many periods each closed one took.
	migrationsStarted, pendingMigrations, orderedAt int
	migrationTicks                                  []float64

	win *window
}

// newWorld builds the cluster, joins every user and runs the warm-up.
func newWorld(s spec, seed int64, tr *tracer) (*world, error) {
	w := &world{
		spec: s, seed: seed, tr: tr, sampler: newSampler(),
		rng:   rand.New(rand.NewSource(seed)),
		repBy: make(map[string]*replica),
		cmd:   wire.NewWriter(64),
	}
	if s.tcp {
		w.net = transport.NewTCP()
	} else {
		w.net = transport.NewLoopback()
	}
	peers := make(map[string]bool)
	for i := 0; i < s.replicas; i++ {
		peers[fmt.Sprintf("s%d", i+1)] = true
	}
	asg := zone.NewAssignment()
	for i := 0; i < s.replicas; i++ {
		id := fmt.Sprintf("s%d", i+1)
		inner, err := w.net.Attach(id, serverInbox)
		if err != nil {
			return nil, fmt.Errorf("attach %s: %w", id, err)
		}
		rep := &replica{id: id, node: &countingNode{peers: peers, tr: tr}}
		var app server.Application = game.New(game.DefaultConfig())
		if tr != nil {
			app = &tracedApp{inner: app, tr: tr}
		}
		// Only the fields a server cannot be built without: the benchmark
		// measures what a default roiaserver user gets.
		rep.srv, err = server.New(server.Config{
			Node: wrapNode(inner, rep.node), Zone: zoneID, Assignment: asg,
			App: app, IDPrefix: uint16(i + 1), Seed: seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		rep.srv.Start()
		if s.ramp && tr != nil {
			rep.srv.Monitor().SetCollecting(true)
		}
		for k := 0; k < s.npcs; k++ {
			rep.npcs = append(rep.npcs, rep.srv.SpawnNPC(w.randomPos(world1000)))
		}
		w.reps = append(w.reps, rep)
		w.repBy[id] = rep
	}
	if err := w.addUsers(s.users); err != nil {
		return nil, err
	}
	for i := 0; i < warmPeriods; i++ {
		w.runPeriod()
	}
	return w, w.drain()
}

func (w *world) randomPos(r rect) entity.Vec2 {
	return entity.Vec2{
		X: r.x0 + w.rng.Float64()*(r.x1-r.x0),
		Y: r.y0 + w.rng.Float64()*(r.y1-r.y0),
	}
}

// addUsers joins perReplica more users to every replica and ticks until
// each join is acknowledged. On the whole world users stand on roiabot's
// lattice, shifted by the seed; inside a smaller patch they are scattered.
func (w *world) addUsers(perReplica int) error {
	first := len(w.walkers)
	ox, oy := w.rng.Intn(1000), w.rng.Intn(1000)
	probes := 0
	if first == 0 {
		probes = w.spec.probes()
	}
	for _, rep := range w.reps {
		for k := 0; k < perReplica; k++ {
			i := len(w.walkers)
			id := fmt.Sprintf("u%05d", i)
			prof := w.spec.profile
			probe := k >= perReplica-probes
			if probe {
				id = fmt.Sprintf("z-probe-%02d", len(w.probes))
				prof.MoveProb, prof.AttackProb = 1, 0
			}
			node, err := w.net.Attach(id, clientInbox)
			if err != nil {
				return fmt.Errorf("attach %s: %w", id, err)
			}
			if w.tr != nil {
				node = wrapNode(node, &countingNode{client: true, tr: w.tr})
			}
			pos := entity.Vec2{X: float64((i*97 + ox) % 1000), Y: float64((i*61 + oy) % 1000)}
			if w.spec.patch != world1000 {
				pos = w.randomPos(w.spec.patch)
			}
			k := &walker{
				c: client.New(node, rep.id), node: node, prof: prof, probe: probe,
				rng:    rand.New(rand.NewSource(w.seed<<20 + int64(i))),
				joinAt: clock(),
			}
			if err := k.c.Join(zoneID, pos, id); err != nil {
				return fmt.Errorf("join %s: %w", id, err)
			}
			w.joins++
			w.walkers = append(w.walkers, k)
			if probe {
				w.probes = append(w.probes, k)
			}
		}
	}
	deadline := clock().Add(waitLimit)
	for pending := len(w.walkers) - first; pending > 0; {
		if clock().After(deadline) {
			return fmt.Errorf("%d of %d clients never joined", pending, len(w.walkers)-first)
		}
		w.tickAll()
		for _, k := range w.walkers {
			joined := k.joinMS > 0
			w.poll(k)
			if !joined && k.c.Joined() {
				k.joinMS = float64(time.Since(k.joinAt)) / 1e6
				pending--
			}
		}
	}
	return nil
}

// poll drains a client's inbox and counts the updates it applied. It also
// takes the application events off the client, as a game would: the client
// keeps them until someone does.
func (w *world) poll(k *walker) int {
	n := k.c.Poll()
	k.updates += uint64(n)
	if n > 0 {
		k.c.DrainEvents()
	}
	return n
}

// step is one client-side tick of a walker: poll, then send this period's
// commands. It returns the number of inputs sent.
func (w *world) step(k *walker) int {
	w.poll(k)
	if !k.c.Joined() {
		return 0
	}
	sent := 0
	if k.rng.Float64() < k.prof.MoveProb {
		w.move = k.steer(w.spec.patch)
		sent += w.sendInput(k, &w.move)
	}
	if k.rng.Float64() < k.prof.AttackProb {
		w.attack = k.aim()
		sent += w.sendInput(k, &w.attack)
	}
	return sent
}

func (w *world) sendInput(k *walker, cmd wire.Message) int {
	payload := game.Commands.Encode(w.cmd, cmd)
	if k.probe {
		k.sentAt = clock()
	}
	// The sequence number is consumed even when the send fails.
	k.inputs++
	var err error
	if tr := w.tr; tr != nil && tr.on {
		t0 := tr.now()
		err = k.c.SendInput(payload)
		w.win.sendInputNS += tr.now() - t0
		w.win.sendInputs++
	} else {
		err = k.c.SendInput(payload)
	}
	if err != nil {
		return 0
	}
	return 1
}

// steer picks a random step and turns it around where it would leave the
// patch; a walker outside the patch (after a respawn) heads back.
func (k *walker) steer(patch rect) game.Move {
	mv := game.Move{
		DX: (k.rng.Float64()*2 - 1) * k.prof.Speed,
		DY: (k.rng.Float64()*2 - 1) * k.prof.Speed,
	}
	upd := k.c.LastUpdate()
	if upd == nil {
		return mv
	}
	mv.DX = turn(upd.Self.Pos.X, mv.DX, patch.x0, patch.x1)
	mv.DY = turn(upd.Self.Pos.Y, mv.DY, patch.y0, patch.y1)
	return mv
}

func turn(pos, d, lo, hi float64) float64 {
	switch {
	case pos < lo:
		return math.Abs(d)
	case pos > hi:
		return -math.Abs(d)
	case pos+d < lo || pos+d > hi:
		return -d
	}
	return d
}

// aim attacks towards a random entity the client can see now, else in a
// random direction. Under full updates the latest update lists the visible
// set; under delta updates the client's world cache is that set. Both are in
// ID order, so the choice does not depend on the update mode.
func (k *walker) aim() game.Attack {
	if upd := k.c.LastUpdate(); upd != nil {
		seen := upd.Visible
		if len(seen) == 0 && k.c.Synced() {
			seen = k.c.World()
		}
		if len(seen) > 0 {
			d := seen[k.rng.Intn(len(seen))].Pos.Sub(upd.Self.Pos)
			if d != (entity.Vec2{}) {
				return game.Attack{DirX: d.X, DirY: d.Y}
			}
		}
	}
	ang := k.rng.Float64() * 2 * math.Pi
	return game.Attack{DirX: math.Cos(ang), DirY: math.Sin(ang)}
}

// runPeriod is one lockstep period: (A) every walker steps, probes last;
// (B) wait until each replica's inbox holds every input sent to it; (C)
// tick each replica; (D) poll the probes until each has applied the update
// acknowledging its input, then poll everyone else.
func (w *world) runPeriod() {
	tr := w.tr
	traced := tr != nil && tr.on
	root := int32(-1)
	if traced {
		root = tr.beginPeriod(w.period)
	}
	start := clock()
	if w.spec.migrate {
		w.orderMigrations()
	}

	// (A)
	for _, rep := range w.reps {
		rep.base, rep.sent = len(rep.node.Inbox()), 0
	}
	var sp int32
	if traced {
		sp = tr.open("bots.step")
	}
	sentTotal := 0
	for _, k := range w.walkers {
		n := w.step(k)
		if n == 0 {
			continue
		}
		sentTotal += n
		rep := w.reps[0]
		if len(w.reps) > 1 {
			// step polls before it sends, so a migration notice has
			// already re-pointed the client.
			rep = w.repBy[k.c.Server()]
		}
		rep.sent += n
	}
	w.inputs += int64(sentTotal)
	stepEnd := clock()
	if traced {
		tr.close(sp)
		sp = tr.open("transport.ingest_wait")
	}

	// (B)
	for _, rep := range w.reps {
		inbox := rep.node.Inbox()
		if !waitFor(func() bool { return len(inbox) >= rep.base+rep.sent }) {
			w.ingestTimeouts += int64(rep.base + rep.sent - len(inbox))
		}
	}
	ingestEnd := clock()
	if traced {
		tr.close(sp)
	}

	// (C)
	w.tickAll()
	tickEnd := clock()

	// (D)
	deliverEnd := tickEnd
	var a0 allocSample
	if traced {
		sp = tr.open("transport.deliver_wait")
		for _, k := range w.probes {
			waitFor(func() bool { return len(k.node.Inbox()) > 0 })
		}
		tr.close(sp)
		deliverEnd = clock()
		sp = tr.open("client.poll")
		a0 = readAllocs()
	}
	polled := w.pollProbes()
	for _, k := range w.walkers {
		if !k.probe {
			polled += w.poll(k)
		}
	}
	if w.pendingMigrations > 0 {
		w.trackMigrations()
	}
	end := clock()
	if traced {
		w.win.pollAllocs += readAllocs().objects - a0.objects
		w.win.pollUpdates += uint64(polled)
		tr.close(sp)
		tr.close(root)
		tr.periods = append(tr.periods, periodAgg{
			totalNS: int64(end.Sub(start)), stepNS: int64(stepEnd.Sub(start)),
			ingestNS: int64(ingestEnd.Sub(stepEnd)), deliverNS: int64(deliverEnd.Sub(tickEnd)),
			pollNS: int64(end.Sub(deliverEnd)),
		})
		// Outside the period's spans and sums: price the aoi and entity
		// layers on the world as it stands, on two periods in a row.
		if at := w.win.periods % sampleEvery; at < 2 {
			w.sampler.sample(w, at == 1)
		}
	}
	if w.win != nil {
		w.win.periods++
	}
	w.period++
}

// waitFor spins until cond holds, yielding the processor to the transport's
// reader goroutines, and reports false once waitLimit has passed.
func waitFor(cond func() bool) bool {
	if cond() {
		return true
	}
	deadline := clock().Add(waitLimit)
	for spins := 0; !cond(); spins++ {
		runtime.Gosched()
		if spins%1024 == 1023 && clock().After(deadline) {
			return false
		}
	}
	return true
}

// tickAll ticks every replica once, timing each Tick from outside.
func (w *world) tickAll() {
	tr := w.tr
	for _, rep := range w.reps {
		traced := tr != nil && tr.on
		var sp int32
		var m0 allocSample
		if traced {
			tr.tick = tickAgg{inboxDepth: len(rep.node.Inbox())}
			m0 = readAllocs()
			sp = tr.open("server.tick")
		}
		t0 := clock()
		rep.srv.Tick()
		wall := time.Since(t0)
		br := rep.srv.Monitor().LastBreakdown()
		w.applied += int64(br.Items[monitor.UA])
		w.decoded += int64(br.Items[monitor.UADeser])
		users := int64(rep.srv.UserCount())
		w.expectedUpdates += users
		if traced {
			tr.close(sp)
			m1 := readAllocs()
			tr.tick.wallNS, tr.tick.users = int64(wall), int(users)
			tr.tick.allocs, tr.tick.allocBytes = m1.objects-m0.objects, m1.bytes-m0.bytes
			for i, t := range monitor.Tasks() {
				if i < len(tr.tick.taskMS) {
					tr.tick.taskMS[i] = br.TimeMS[t]
				}
			}
			tr.ticks = append(tr.ticks, tr.tick)
		}
		if win := w.win; win != nil {
			win.tickNS = append(win.tickNS, int64(wall))
			win.userTicks += users
			if tr != nil && !tr.on {
				win.refTickNS = append(win.refTickNS, int64(wall))
			}
		}
	}
}

// pollProbes polls the probes until each has applied the update that
// acknowledges its latest input, and records the round trips.
func (w *world) pollProbes() (polled int) {
	pending := 0
	for _, k := range w.probes {
		if !k.sentAt.IsZero() {
			pending++
		}
	}
	acked := func() bool {
		for _, k := range w.probes {
			if k.sentAt.IsZero() {
				continue
			}
			var t0 int64
			if tr := w.tr; tr != nil && tr.on {
				t0 = tr.now()
			}
			n := w.poll(k)
			polled += n
			now := clock()
			if t0 != 0 && n > 0 {
				w.win.pollNS = append(w.win.pollNS, (w.tr.now()-t0)/int64(n))
			}
			if k.c.AckSeq() < k.inputs {
				continue
			}
			if w.win != nil {
				w.win.rttNS = append(w.win.rttNS, int64(now.Sub(k.sentAt)))
			}
			k.sentAt = time.Time{}
			pending--
		}
		return pending == 0
	}
	if !waitFor(acked) {
		w.probeTimeouts += int64(pending)
		for _, k := range w.probes {
			k.sentAt = time.Time{}
		}
	}
	return polled
}

// orderMigrations moves users from the first replica to the second at the
// start of every cycle and back half a cycle later.
func (w *world) orderMigrations() {
	switch w.period % migrateEvery {
	case 0:
		w.reps[0].srv.MigrateUsers(w.reps[1].id, migrateUsers)
	case migrateEvery / 2:
		w.reps[1].srv.MigrateUsers(w.reps[0].id, migrateUsers)
	default:
		return
	}
	w.migrationsStarted += migrateUsers
	w.pendingMigrations += migrateUsers
	w.orderedAt = w.period
}

// trackMigrations closes a migration when the client has followed the
// notice to its new server and applied an update there. A client moved to
// the replica that ticks later gets both in the period of the order; one
// moved the other way gets the update a period later.
func (w *world) trackMigrations() {
	for _, k := range w.walkers {
		if m := k.c.Migrations(); m > k.migrations {
			k.migrations = m
			k.moved, k.following = true, true
		}
		if upd := k.c.LastUpdate(); k.following && upd != nil && upd.Self.Owner == k.c.Server() {
			k.following = false
			w.pendingMigrations--
			w.migrationTicks = append(w.migrationTicks, float64(w.period-w.orderedAt+1))
		}
	}
}

// drain polls every client until all updates the servers published have
// been applied, so that counts taken afterwards are exact on TCP too.
func (w *world) drain() error {
	received := func() bool {
		var got int64
		for _, k := range w.walkers {
			w.poll(k)
			got += int64(k.updates)
		}
		return got >= w.expectedUpdates
	}
	if !waitFor(received) {
		return errors.New("clients did not receive every published update")
	}
	return nil
}

// close leaves every client and stops every replica, waiting for the
// transport's goroutines to end.
func (w *world) close() {
	for _, k := range w.walkers {
		_ = k.c.Close() // nothing to do about a close error at teardown
	}
	for _, rep := range w.reps {
		_ = rep.srv.Stop()
	}
}
