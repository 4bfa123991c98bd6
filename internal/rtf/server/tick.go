package server

import (
	"encoding/binary"
	"slices"
	"time"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/telemetry"
)

// decodedInput is a deserialized user input awaiting application.
type decodedInput struct {
	from string
	msg  *proto.Input
}

// decodedFrame is one slot of the decode stage: the pre-decoded message for
// a frame (nil on decode error or for kinds decoded inline by the apply
// stage) plus its deserialization accounting, merged into the Breakdown in
// frame order by the apply stage.
type decodedFrame struct {
	msg   wire.Message
	ms    float64
	items int
}

// npcResult is one slot of the NPC compute phase under the
// ConcurrentSimulator capability: the forwards returned by UpdateNPC and
// the compute time, applied sequentially in slice order, and where the NPC
// stood before.
type npcResult struct {
	fwds []Forward
	ms   float64
	was  entity.Vec2
}

// pubItem is one slot of the publish stage: everything worker i needs to
// build user i's state update, and everything the sequential merge needs to
// send it and account for it. Slots live in the server's reusable pubItems
// buffer; payload keeps its capacity across ticks.
type pubItem struct {
	uid string
	u   *user
	// avPos is the snapshot position of the user's avatar.
	avPos  int32
	events []byte

	payload     wire.Writer
	aoiMS, suMS float64
	ok          bool
}

// Tick executes one iteration of the real-time loop, one stage method per
// step:
//
//  1. receive: drain the inbox and deserialize inputs, forwarded inputs
//     and shadow updates;
//  2. applyFrames: in arrival order, queue inputs and forwards and apply
//     shadow updates, migration traffic, joins and leaves;
//  3. simulate: apply user inputs and forwarded inputs, update NPCs;
//  4. housekeep: idle eviction, zone handoffs, ordered migrations;
//  5. publish: area-of-interest filtered state updates to users;
//  6. replicate: shadow updates to peer replicas, then flush the outbox;
//  7. record: feed the tick's Breakdown to the Monitor and its TickRecord
//     to the flight recorder, the server's one tick history.
//
// Every task is timed into the paper's model parameters via the Breakdown:
// t_ua_dser/t_ua for user inputs, t_fa_dser/t_fa for forwarded inputs and
// per-shadow-entity replication traffic, t_npc for NPC updates, t_aoi/t_su
// for interest management and state updates, and t_mig_ini/t_mig_rcv for
// the migration handshake.
func (s *Server) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	// All tick timing goes through the executor's injected clock (not
	// time.Now directly), so tests can drive a synthetic slow tick and the
	// flight recorder's triggers stay deterministic under a fake clock.
	tickStart := s.exec.now()
	s.tick++
	s.env.Tick = s.tick
	s.tickBytesOut, s.tickClientBytes = 0, 0
	var br monitor.Breakdown
	s.rec.BeginTick()
	// receive, simulate and publish fan out over the executor with s.mu
	// held: the pool's wake channels are buffered and drained by the
	// previous run's wg.Wait, so the sends never block, and workers never
	// take s.mu.
	frames := s.receive(&br) //roialint:ignore lockhold executor wake sends never block (above)
	s.applyFrames(&br, frames)
	s.simulate(&br) //roialint:ignore lockhold executor wake sends never block (above)
	s.housekeep(&br)
	s.publish(&br) //roialint:ignore lockhold executor wake sends never block (above)
	s.replicate(&br)
	s.record(tickStart, &br, len(frames))
}

// receive is the receive + decode stage. Deserialization of input,
// forwarded-input and shadow-update frames is side-effect-free, so it fans
// out over the executor: worker k decodes a contiguous chunk of frames into
// indexed slots, timing each item with the executor's injected clock.
// applyFrames then walks the frames in their original order, merging the
// slot accounting into the Breakdown and performing every state mutation
// sequentially — so the observable effects are identical to one sequential
// loop. The frame buffer is owned by the server and reused across ticks:
// frames are dead once the tick finishes, so last tick's capacity serves
// this tick without reallocating.
func (s *Server) receive(br *monitor.Breakdown) []transport.Frame {
	frames := transport.DrainInto(s.cfg.Node, s.frameBuf[:0], 0)
	s.frameBuf = frames
	for _, f := range frames {
		// Framed wire bytes (header + payload): what the transport's peer
		// actually wrote, matching the BytesOut convention in sendRaw.
		br.BytesIn += transport.FrameWireBytes(f.From, s.ID(), len(f.Payload))
	}
	if cap(s.decBuf) < len(frames) {
		s.decBuf = make([]decodedFrame, len(frames))
	}
	clear(s.decBuf[:len(frames)])
	s.exec.run(len(frames), s.decodeFn)
	return frames
}

// applyFrames is the apply stage: frames in arrival order, all mutations
// sequential. Decoded inputs and forwards are queued in inputsBuf/fwdBuf
// for simulate; the avatars of leaving users are queued in removedBuf for
// replicate.
func (s *Server) applyFrames(br *monitor.Breakdown, frames []transport.Frame) {
	inputs := s.inputsBuf[:0]
	forwards := s.fwdBuf[:0]
	removed := s.removedBuf[:0]
	for i, f := range frames {
		if len(f.Payload) < 2 {
			continue
		}
		switch wire.Kind(binary.BigEndian.Uint16(f.Payload)) {
		case proto.KindInput:
			d := &s.decBuf[i]
			br.Add(monitor.UADeser, d.ms, d.items)
			if d.msg != nil {
				inputs = append(inputs, decodedInput{from: f.From, msg: d.msg.(*proto.Input)})
			}
		case proto.KindForwarded:
			d := &s.decBuf[i]
			br.Add(monitor.FADeser, d.ms, d.items)
			if d.msg != nil {
				forwards = append(forwards, d.msg.(*proto.Forwarded))
			}
		case proto.KindShadowUpdate:
			// Per-shadow-entity replication traffic: the model charges
			// each of the zone's (n − n/l) shadow entities a per-tick
			// deserialization + application cost, which is exactly this
			// message's per-entity work.
			d := &s.decBuf[i]
			br.Add(monitor.FADeser, d.ms, d.items)
			if d.msg == nil {
				continue
			}
			su := d.msg.(*proto.ShadowUpdate)
			t1 := s.exec.now()
			for i := range su.Entities {
				s.store.ApplyShadowUpdate(s.ID(), &su.Entities[i])
			}
			for _, id := range su.Removed {
				if e, ok := s.store.Get(id); ok && e.Owner != s.ID() {
					s.store.Remove(id)
				}
			}
			br.Add(monitor.FA, s.exec.since(t1), len(su.Entities))
		case proto.KindMigrateInit:
			t0 := s.exec.now()
			msg, err := proto.Registry.Decode(f.Payload)
			if err != nil {
				continue
			}
			mi := msg.(*proto.MigrateInit)
			s.receiveMigration(mi)
			dur := s.exec.since(t0)
			br.Add(monitor.MigRcv, dur, 1)
			s.recordMigEvent(telemetry.MigEvent{
				ID: mi.MigID, Phase: telemetry.MigPhaseRecv,
				User: mi.User, From: mi.Avatar.Owner, To: s.ID(),
			}, dur)
		case proto.KindMigrateAck:
			// Ownership already handed off optimistically at initiation;
			// the ack closes the migration span in the trace.
			if msg, err := proto.Registry.Decode(f.Payload); err == nil {
				ack := msg.(*proto.MigrateAck)
				s.recordMigEvent(telemetry.MigEvent{
					ID: ack.MigID, Phase: telemetry.MigPhaseAck,
					User: ack.User, From: s.ID(), To: f.From,
				}, 0)
			}
		case proto.KindJoin:
			if msg, err := proto.Registry.Decode(f.Payload); err == nil {
				s.handleJoin(f.From, msg.(*proto.Join))
			}
		case proto.KindLeave:
			if id, ok := s.removeUser(f.From); ok {
				removed = append(removed, id)
			}
		}
	}
	s.inputsBuf, s.fwdBuf, s.removedBuf = inputs, forwards, removed
}

// simulate is the simulate stage: user inputs, forwarded inputs, then NPC
// updates.
func (s *Server) simulate(br *monitor.Breakdown) {
	// --- User inputs ---
	//
	// The entity set is fixed from here to the end of the simulate stage,
	// so the spatial index is brought up to it once and then kept current
	// entity by entity: whatever a callback displaced — the actor of an
	// input, the target of a hit (a kill respawns it elsewhere), an NPC — is
	// re-placed before the next callback can ask env.Near about it. The
	// time is input application's: its hit scans are what the index serves.
	tIndex := s.exec.now()
	s.env.beginSimulate()
	br.Add(monitor.UA, s.exec.since(tIndex), 0)
	for _, in := range s.inputsBuf {
		u, ok := s.users[in.from]
		if !ok {
			continue // disconnected or migrated away
		}
		if in.msg.Seq <= u.seq && in.msg.Seq != 0 {
			continue // duplicate
		}
		u.seq = in.msg.Seq
		u.lastInput = s.tick
		actor, ok := s.store.Get(u.avatar)
		if !ok {
			continue
		}
		t0 := s.exec.now()
		was := actor.Pos
		fwds, err := s.cfg.App.ApplyInput(s.env, actor, in.msg.Payload)
		s.env.moved(actor, was)
		br.Add(monitor.UA, s.exec.since(t0), 1)
		if err != nil {
			continue
		}
		actor.Seq++
		for _, fw := range fwds {
			target, ok := s.store.Get(fw.Target)
			if !ok {
				continue
			}
			if target.Owner == s.ID() {
				// Local interaction: apply directly. The time still
				// belongs to input application (t_ua), not to forwarded
				// inputs — no items are added so the per-item cost of
				// t_ua absorbs it.
				t1 := s.exec.now()
				s.applyForwarded(actor.ID, target, fw.Payload)
				br.Add(monitor.UA, s.exec.since(t1), 0)
			} else {
				s.send(target.Owner, &proto.Forwarded{Actor: actor.ID, Target: fw.Target, Payload: fw.Payload})
			}
		}
	}

	// --- Forwarded inputs ---
	for _, fw := range s.fwdBuf {
		target, ok := s.store.Get(fw.Target)
		if !ok {
			continue
		}
		if target.Owner != s.ID() {
			// The target migrated since the sender forwarded: re-forward
			// to the current owner.
			s.send(target.Owner, fw)
			continue
		}
		t0 := s.exec.now()
		s.applyForwarded(fw.Actor, target, fw.Payload)
		br.Add(monitor.FA, s.exec.since(t0), 1)
	}

	// --- NPC updates ---
	npcs := s.store.ActiveInto(s.npcActive[:0], s.ID(), int(entity.NPC))
	s.npcActive = npcs
	if cs, ok := s.cfg.App.(ConcurrentSimulator); ok && cs.ConcurrentNPCUpdates() {
		// Capability-declared applications run two-phase on every worker
		// count: compute all updates into indexed slots (parallel), then
		// apply the returned forwards sequentially in slice order — so the
		// sequential and parallel executions are identical by construction.
		if cap(s.npcBuf) < len(npcs) {
			s.npcBuf = make([]npcResult, len(npcs))
		}
		results := s.npcBuf[:len(npcs)]
		clear(results)
		s.exec.run(len(npcs), s.npcFn)
		for i, npc := range npcs {
			s.env.moved(npc, results[i].was)
		}
		for i, npc := range npcs {
			t0 := s.exec.now()
			s.applyNPCForwards(npc, results[i].fwds)
			br.Add(monitor.NPC, results[i].ms+s.exec.since(t0), 1)
			npc.Seq++
		}
	} else {
		// Default path, bit-identical to the seed loop: applications whose
		// UpdateNPC draws from the shared env.Rand (internal/game does, for
		// movement) depend on NPCs updating in order, so they stay inline on
		// the tick goroutine regardless of Parallelism.
		for _, npc := range npcs {
			t0 := s.exec.now()
			was := npc.Pos
			fwds := s.cfg.App.UpdateNPC(s.env, npc)
			s.env.moved(npc, was)
			s.applyNPCForwards(npc, fwds)
			br.Add(monitor.NPC, s.exec.since(t0), 1)
			npc.Seq++
		}
	}
	s.env.endSimulate()
}

// housekeep drops users whose clients went silent, hands off users whose
// avatars left the zone, and executes the resource manager's migration
// orders. Removed avatars join removedBuf for replicate.
func (s *Server) housekeep(br *monitor.Breakdown) {
	if s.cfg.IdleTimeoutTicks > 0 {
		for _, uid := range s.sortedUserIDs() {
			u := s.users[uid]
			if s.tick-u.lastInput > s.cfg.IdleTimeoutTicks {
				if id, ok := s.removeUser(uid); ok {
					s.removedBuf = append(s.removedBuf, id)
				}
			}
		}
	}
	if s.cfg.World != nil {
		s.processZoneTransfers(br)
	}
	s.processMigrationOrders(br)
}

// publish is the publish stage: state updates to connected users.
//
// Publishing fans out per user: AoI query, visible-set diffing and wire
// serialization are independent across users once the world state is
// frozen. The stage runs against an immutable store snapshot so workers
// never touch live entities. Each entity's delta body is encoded once,
// before the fan-out (encodeBodies); each worker then writes its
// user's update straight into the user's slot, splicing those bodies
// behind per-viewer gap-encoded IDs. Application callbacks (DrainEvents)
// stay on the tick goroutine per the Application contract, and the actual
// sends happen in the sequential merge in sorted-user order — so the wire
// output is byte-identical to the sequential loop. Every buffer in the
// stage (snapshot arenas, the body arena, AoI index, per-user visible
// sets, merge scratch, payload slots, the outbox) is reused across ticks:
// the steady-state publish path allocates nothing.
func (s *Server) publish(br *monitor.Breakdown) {
	snap := s.store.Snapshot()
	s.pubSnap = snap
	s.pubWorld = snap.All()
	s.cfg.AOI.Build(s.pubWorld)
	s.encodeBodies(br)
	uids := s.sortedUserIDs()
	if cap(s.pubItems) < len(uids) {
		grown := make([]pubItem, len(uids))
		copy(grown, s.pubItems[:cap(s.pubItems)])
		s.pubItems = grown
	}
	items := s.pubItems[:len(uids)]
	s.pubItems = items
	for i, uid := range uids {
		it := &items[i]
		u := s.users[uid]
		p, ok := snap.Index(u.avatar)
		if !ok {
			it.ok = false
			continue
		}
		it.uid, it.u, it.avPos, it.ok = uid, u, p, true
		it.events = s.cfg.App.DrainEvents(s.env, u.avatar)
		it.payload.Reset()
	}
	s.exec.run(len(items), s.publishFn)
	tStage := s.exec.now()
	for i := range items {
		it := &items[i]
		if !it.ok {
			continue
		}
		br.Add(monitor.AOI, it.aoiMS, 1)
		s.tickClientBytes += s.sendRaw(it.uid, it.payload.Bytes())
		br.Add(monitor.SU, it.suMS, 1)
	}
	// Staging copies each payload into the outbox arena — per-byte work
	// that is part of serializing the state updates, so the loop's time
	// counts toward t_su alongside the encoding measured in publishItem
	// (time only: the per-user items were counted inside it).
	br.Add(monitor.SU, s.exec.since(tStage), 0)
}

// encodeBodies is the publish stage's one walk of the snapshot: it encodes
// every entity's delta body (its mask byte and the field groups that
// changed since the previous snapshot; one byte for an unchanged entity)
// into the tick's arena, which every viewer's StateDelta splices, and
// counts the avatars and NPCs of the published world for the tick's
// Breakdown. The walk is serialization of state updates, so its time
// counts toward t_su (time only: the per-user items are counted per
// viewer).
func (s *Server) encodeBodies(br *monitor.Breakdown) {
	t0 := s.exec.now()
	s.pubBodies.Reset()
	for p := range int32(s.pubSnap.Len()) {
		e, mask := s.pubSnap.At(p)
		s.pubBodies.Append(e, mask)
		switch e.Kind {
		case entity.Avatar:
			br.Users++
		case entity.NPC:
			br.NPCs++
		}
	}
	br.Add(monitor.SU, s.exec.since(t0), 0)
}

// replicate sends shadow updates to peer replicas (carrying the tick's
// removed and handed-off entities), then flushes the outbox.
func (s *Server) replicate(br *monitor.Breakdown) {
	peers := s.cfg.Assignment.PeersInto(s.peersBuf[:0], s.cfg.Zone, s.ID())
	s.peersBuf = peers
	if len(peers) > 0 {
		actives := s.store.ActiveInto(s.npcActive[:0], s.ID(), -1)
		s.npcActive = actives[:0]
		su := proto.ShadowUpdate{Tick: s.tick, Removed: s.removedBuf}
		su.Entities = s.suEnts[:0]
		for _, e := range actives {
			su.Entities = append(su.Entities, *e)
		}
		// Entities handed off this tick ride along once more so the new
		// owner learns of the transfer.
		for _, id := range s.handoffs {
			if e, ok := s.store.Get(id); ok {
				su.Entities = append(su.Entities, *e)
			}
		}
		for _, p := range peers {
			s.send(p, &su)
		}
		s.suEnts = su.Entities[:0]
	}
	s.handoffs = s.handoffs[:0]
	// Flush the tick's staged frames — one batched write per destination on
	// capable transports — inside the publish stage window so its resource
	// cost stays attributed to publishing. The wall time is
	// egress work proportional to the staged bytes; it folds into the t_su
	// bucket (time only — the per-user items were counted above), keeping
	// the fitted per-user t_su sensitive to how much each update weighs.
	tFlush := s.exec.now()
	s.ob.flush(s.cfg.Node)
	br.Add(monitor.SU, s.exec.since(tFlush), 0)
}

// record completes the tick's Breakdown with the workload gauges (the
// entity counts were taken by encodeBodies) and the wall time, feeds it to
// the Monitor, and hands the tick's TickRecord to the flight recorder: one
// span per task that did work, laid out sequentially in loop order so the
// spans sum exactly to the breakdown total, the QoS deadline 1/U (the tick
// interval), and the tick's migration phases. It reuses the Breakdown
// already timed for the Monitor, so recording adds no clock reads to the
// hot loop; the recorder fills in the tick's GC and allocation cost and
// copies the span and migration buffers, which the server reuses.
func (s *Server) record(start time.Time, br *monitor.Breakdown, queueDepth int) {
	br.ActiveUsers = len(s.users)
	br.Replicas = s.cfg.Assignment.ReplicaCount(s.cfg.Zone)
	br.BytesOut = s.tickBytesOut
	// TimeMS sums CPU time across workers; WallMS is the elapsed tick time.
	// With Parallelism > 1 the two diverge, and their ratio is the live
	// speedup (the recorder summary's CPU over Wall).
	br.WallMS = s.exec.since(start)
	s.mon.RecordTick(*br)

	s.tickSpans = s.tickSpans[:0]
	offset := 0.0
	for t := monitor.Task(0); int(t) < len(br.TimeMS); t++ {
		dur, items := br.TimeMS[t], br.Items[t]
		if dur == 0 && items == 0 {
			continue
		}
		s.tickSpans = append(s.tickSpans, telemetry.Span{Name: t.String(), StartMS: offset, DurMS: dur, Items: items})
		offset += dur
	}
	deadline := float64(s.cfg.TickInterval) / float64(time.Millisecond)
	s.rec.Record(telemetry.TickRecord{
		Tick:           s.tick,
		StartUnixMicro: start.UnixMicro(),
		WallMS:         br.WallMS,
		CPUMS:          br.Total(),
		DeadlineMS:     deadline,
		SlackMS:        deadline - br.WallMS,
		Users:          br.Users,
		ActiveUsers:    br.ActiveUsers,
		NPCs:           br.NPCs,
		Replicas:       br.Replicas,
		Workers:        s.exec.workers,
		QueueDepth:     queueDepth,
		BytesIn:        br.BytesIn,
		BytesOut:       br.BytesOut,
		ClientBytesOut: s.tickClientBytes,
		Tasks:          s.tickSpans,
		Migrations:     s.tickMigs,
	})
	s.tickMigs = s.tickMigs[:0]
}

// decodeItem is the decode-stage body (executor slot discipline: frame i
// in, decBuf slot i out). Deserialization is side-effect-free, so it runs
// on any worker; the apply stage merges the slot accounting in frame order.
func (s *Server) decodeItem(i int, _ *workerCtx) {
	f := s.frameBuf[i]
	if len(f.Payload) < 2 {
		return
	}
	d := &s.decBuf[i]
	switch wire.Kind(binary.BigEndian.Uint16(f.Payload)) {
	case proto.KindInput, proto.KindForwarded:
		t0 := s.exec.now()
		msg, err := proto.Registry.Decode(f.Payload)
		d.ms = s.exec.since(t0)
		d.items = 1
		if err == nil {
			d.msg = msg
		}
	case proto.KindShadowUpdate:
		t0 := s.exec.now()
		msg, err := proto.Registry.Decode(f.Payload)
		d.ms = s.exec.since(t0)
		if err == nil {
			d.msg = msg
			d.items = len(msg.(*proto.ShadowUpdate).Entities)
		}
	}
}

// npcItem is the two-phase NPC compute body under the ConcurrentSimulator
// capability: UpdateNPC for active NPC i into result slot i; the forwards
// are applied sequentially afterwards.
func (s *Server) npcItem(i int, _ *workerCtx) {
	t0 := s.exec.now()
	s.npcBuf[i].was = s.npcActive[i].Pos
	s.npcBuf[i].fwds = s.cfg.App.UpdateNPC(s.env, s.npcActive[i])
	s.npcBuf[i].ms = s.exec.since(t0)
}

// publishItem is the publish-stage body for user slot i: AoI query in
// snapshot-position space, one merge walk against the user's previously
// published visible set, and wire encoding into the slot's payload buffer.
// It reads the tick's immutable snapshot and body arena (never the live
// store) and writes only slot i, the passed workerCtx and the one user's
// publish bookkeeping (prevVis/lastPub/nextKey), so the stage may fan out
// across workers.
//
// The user gets a StateDelta when its delta chain is intact (published
// last tick, no periodic keyframe due) and a StateKeyframe otherwise — on
// join, migration, a skipped tick, or the KeyframeTicks cadence. Both
// encodings consume only reused scratch.
func (s *Server) publishItem(i int, ctx *workerCtx) {
	it := &s.pubItems[i]
	if !it.ok {
		return
	}
	snap := s.pubSnap
	if words := (snap.Len() + 63) / 64; len(ctx.marks) < words {
		ctx.marks = make([]uint64, words)
	}
	av, _ := snap.At(it.avPos)
	t0 := s.exec.now()
	ctx.vis = s.cfg.AOI.VisiblePositions(ctx.vis[:0], ctx.marks, av.ID, av.Pos, s.pubWorld)
	t1 := s.exec.now() // closes the t_aoi window and opens the t_su one
	it.aoiMS = ms(t1.Sub(t0))

	u := it.u
	delta := u.lastPub == s.tick-1 && u.lastPub != 0 && s.tick < u.nextKey
	ctx.mergeVisible(snap, u.prevVis, !delta)
	if delta {
		// StateDelta: masked field changes for entities that stayed
		// visible, spliced from the tick's body arena; full records for
		// entrants; IDs for leavers. The entity-level change masks come
		// from the snapshot diff; an unchanged entity costs nothing on the
		// wire.
		proto.AppendStateDelta(&it.payload, snap, &s.pubBodies, s.tick, u.lastPub, u.seq,
			it.avPos, ctx.updPos, ctx.entPos, ctx.gone, it.events)
	} else {
		// StateKeyframe: full refresh; the client replaces its world
		// wholesale, re-anchoring the delta chain. u.seq is the last input
		// sequence applied for this user; echoing it (here and in deltas)
		// lets the client close the input→update response-time loop.
		proto.AppendStateKeyframe(&it.payload, snap, s.tick, u.seq, av, ctx.entPos, it.events)
		u.nextKey = s.tick + s.keyframeTicks
	}
	u.prevVis = append(u.prevVis[:0], ctx.ids...)
	u.lastPub = s.tick
	it.suMS = s.exec.since(t1)
}

// mergeVisible is the publish stage's one walk over a user's visible set:
// prev, the IDs published to the user last (ascending), against ctx.vis,
// the tick's visible set as ascending positions of snap — which is
// ID-sorted, so those IDs ascend too and neither side needs sorting or
// looking up. It leaves in ctx the new visible set (ids), the leavers
// (gone), the snapshot positions of the entrants (entPos) — of every
// visible entity when full is set, the keyframe case — and, unless full,
// the positions of every entity that stayed and changed since the previous
// snapshot (updPos). It copies no entity.
func (ctx *workerCtx) mergeVisible(snap *entity.Snapshot, prev []entity.ID, full bool) {
	ctx.ids, ctx.gone = ctx.ids[:0], ctx.gone[:0]
	ctx.updPos, ctx.entPos = ctx.updPos[:0], ctx.entPos[:0]
	i := 0
	for _, p := range ctx.vis {
		ent, mask := snap.At(p)
		for ; i < len(prev) && prev[i] < ent.ID; i++ {
			ctx.gone = append(ctx.gone, prev[i])
		}
		stayed := i < len(prev) && prev[i] == ent.ID
		if stayed {
			i++
		}
		switch {
		case full || !stayed:
			ctx.entPos = append(ctx.entPos, p)
		case mask != 0:
			ctx.updPos = append(ctx.updPos, p)
		}
		ctx.ids = append(ctx.ids, ent.ID)
	}
	ctx.gone = append(ctx.gone, prev[i:]...)
}

// sortedUserIDs returns connected user IDs in deterministic order. The
// slice is kept across ticks and rebuilt only after s.users changed (tick
// goroutine only); callers may mutate s.users while iterating it, but must
// finish before the next call.
func (s *Server) sortedUserIDs() []string {
	if s.uidsStale {
		s.uids = s.uids[:0]
		for id := range s.users {
			s.uids = append(s.uids, id)
		}
		slices.Sort(s.uids)
		s.uidsStale = false
	}
	return s.uids
}

// applyForwarded applies one interaction to a locally-active target and
// keeps the spatial index current if it displaced the target.
func (s *Server) applyForwarded(actor entity.ID, target *entity.Entity, payload []byte) {
	was := target.Pos
	if s.cfg.App.ApplyForwarded(s.env, actor, target, payload) == nil {
		target.Seq++
	}
	s.env.moved(target, was)
}

// applyNPCForwards routes the forwards produced by one NPC update: local
// targets are applied directly (their cost stays inside the NPC's t_npc
// window), remote targets are forwarded to their owning replica.
func (s *Server) applyNPCForwards(npc *entity.Entity, fwds []Forward) {
	for _, fw := range fwds {
		target, ok := s.store.Get(fw.Target)
		if !ok {
			continue
		}
		if target.Owner == s.ID() {
			s.applyForwarded(npc.ID, target, fw.Payload)
		} else {
			s.send(target.Owner, &proto.Forwarded{Actor: npc.ID, Target: fw.Target, Payload: fw.Payload})
		}
	}
}

// handleJoin admits a new user: spawn an avatar, register the connection,
// acknowledge. A draining server no longer admits anyone, but it must not
// drop the join on the floor either — the client is waiting on a reply. If
// the zone has peer replicas the join is answered with a MigrateNotice
// redirecting the client to one of them (lowest ID, for determinism);
// otherwise with an explicit JoinNack so the client can surface the
// rejection instead of hanging.
func (s *Server) handleJoin(from string, j *proto.Join) {
	if s.draining {
		peers := s.cfg.Assignment.Peers(s.cfg.Zone, s.ID())
		if len(peers) > 0 {
			slices.Sort(peers)
			s.send(from, &proto.MigrateNotice{NewServer: peers[0]})
		} else {
			s.send(from, &proto.JoinNack{Reason: "draining"})
		}
		return
	}
	if _, dup := s.users[from]; dup {
		return
	}
	id := s.allocIDLocked()
	av := s.cfg.App.SpawnAvatar(s.env, id, j.Pos, uint32(s.cfg.Zone))
	av.ID = id
	av.Kind = entity.Avatar
	av.Zone = uint32(s.cfg.Zone)
	av.Owner = s.ID()
	if av.Seq == 0 {
		av.Seq = 1
	}
	s.store.Put(av)
	s.users[from] = &user{id: from, avatar: id, lastInput: s.tick}
	s.uidsStale = true
	s.send(from, &proto.JoinAck{Entity: id, Tick: s.tick})
}

// removeUser disconnects a user and deletes its avatar, returning the
// avatar ID for removal propagation.
func (s *Server) removeUser(uid string) (entity.ID, bool) {
	u, ok := s.users[uid]
	if !ok {
		return 0, false
	}
	s.forgetUser(uid)
	s.store.Remove(u.avatar)
	return u.avatar, true
}

// forgetUser drops a user's connection-scoped state: the users-map entry,
// and with it the sorted user-ID cache. Every path that disconnects a user
// (leave, idle eviction, zone handoff, migration) goes through here.
func (s *Server) forgetUser(uid string) {
	delete(s.users, uid)
	s.uidsStale = true
}

// receiveMigration installs a user handed off by a peer replica.
func (s *Server) receiveMigration(mi *proto.MigrateInit) {
	av := mi.Avatar
	av.Owner = s.ID()
	av.Seq++
	if cur, ok := s.store.Get(av.ID); ok {
		*cur = av
	} else {
		s.store.Put(av.Clone())
	}
	s.users[mi.User] = &user{id: mi.User, avatar: av.ID, lastInput: s.tick}
	s.uidsStale = true
	s.cfg.App.ApplyUserState(s.env, av.ID, mi.AppState)
	s.send(mi.Avatar.Owner, &proto.MigrateAck{MigID: mi.MigID, User: mi.User, Avatar: av.ID})
}

// recordMigEvent stamps one migration-phase observation and adds it to the
// tick's migration buffer, which record hands to the flight recorder.
func (s *Server) recordMigEvent(e telemetry.MigEvent, durMS float64) {
	e.Tick = s.tick
	e.UnixMicro = s.exec.now().UnixMicro()
	e.DurMS = durMS
	s.tickMigs = append(s.tickMigs, e)
}

// processZoneTransfers hands off users whose avatars moved into another
// zone of the world: the avatar state migrates to a replica of the
// destination zone (removal propagates to this zone's peers), and the
// client is re-pointed at its new server. Zone transfers reuse the
// user-migration machinery, so their overhead lands in t_mig_ini and their
// init phase in the tick's record like any other migration.
func (s *Server) processZoneTransfers(br *monitor.Breakdown) {
	for _, uid := range s.sortedUserIDs() {
		u := s.users[uid]
		av, ok := s.store.Get(u.avatar)
		if !ok {
			continue
		}
		dest, ok := s.cfg.World.Locate(av.Pos)
		if !ok || dest.ID == s.cfg.Zone {
			continue
		}
		targets := s.cfg.Assignment.Replicas(dest.ID)
		if len(targets) == 0 {
			// The destination zone is unstaffed; keep serving the user
			// here rather than dropping the session.
			continue
		}
		target := targets[0]
		t0 := s.exec.now()
		handoff := *av
		handoff.Zone = uint32(dest.ID)
		mi := &proto.MigrateInit{
			MigID:    s.allocMigIDLocked(),
			User:     uid,
			Avatar:   handoff,
			AppState: s.cfg.App.EncodeUserState(s.env, av.ID),
		}
		s.send(target, mi)
		dur := s.exec.since(t0)
		br.Add(monitor.MigIni, dur, 1)
		s.recordMigEvent(telemetry.MigEvent{
			ID: mi.MigID, Phase: telemetry.MigPhaseInit,
			User: uid, From: s.ID(), To: target,
		}, dur)
		s.send(uid, &proto.MigrateNotice{NewServer: target})
		s.forgetUser(uid)
		s.store.Remove(av.ID)
		s.removedBuf = append(s.removedBuf, av.ID)
	}
}

// processMigrationOrders executes the pending migration orders, handing
// off users to target replicas. Each handoff serializes the user's avatar
// and application state (t_mig_ini), transfers responsibility, and points
// the client at its new server.
func (s *Server) processMigrationOrders(br *monitor.Breakdown) {
	if len(s.orders) == 0 {
		return
	}
	orders := s.orders
	s.orders = nil
	uids := s.sortedUserIDs()
	next := 0
	for _, ord := range orders {
		if !s.cfg.Assignment.IsReplica(s.cfg.Zone, ord.target) {
			continue // target disappeared (e.g. removed by the RMS)
		}
		for moved := 0; moved < ord.count && next < len(uids); next++ {
			uid := uids[next]
			u, ok := s.users[uid]
			if !ok {
				continue
			}
			av, ok := s.store.Get(u.avatar)
			if !ok {
				s.forgetUser(uid)
				continue
			}
			t0 := s.exec.now()
			appState := s.cfg.App.EncodeUserState(s.env, av.ID)
			mi := &proto.MigrateInit{MigID: s.allocMigIDLocked(), User: uid, Avatar: *av, AppState: appState}
			s.send(ord.target, mi)
			dur := s.exec.since(t0)
			br.Add(monitor.MigIni, dur, 1)
			s.recordMigEvent(telemetry.MigEvent{
				ID: mi.MigID, Phase: telemetry.MigPhaseInit,
				User: uid, From: s.ID(), To: ord.target,
			}, dur)

			// Optimistic ownership handoff: the target assumes control on
			// receipt; locally the entity becomes a shadow.
			av.Owner = ord.target
			s.forgetUser(uid)
			s.send(uid, &proto.MigrateNotice{NewServer: ord.target})
			moved++
		}
	}
}
