package main

import (
	"fmt"
	"slices"
	"time"

	"roia/internal/calibrate"
	"roia/internal/model"
	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/wire"
)

// sampleEvery is how often a traced window rebuilds the world from the
// servers' public view to price the aoi and entity layers on their own: on
// two consecutive periods, the first to prime the incremental structures,
// the second timed.
const sampleEvery = 100

// sampler replays the servers' world through the aoi and entity packages.
type sampler struct {
	euclid *aoi.Euclid
	incr   *aoi.Incremental
	store  *entity.Store
	ids    []entity.ID
	vis    []entity.ID

	euclidUS, incrUS, snapUS, snapAllocs, changedShare, visible []float64
}

func newSampler() *sampler {
	return &sampler{
		euclid: aoi.NewEuclid(server.DefaultAOIRadius),
		incr:   aoi.NewIncremental(server.DefaultAOIRadius),
		store:  entity.NewStore(),
	}
}

// sample mirrors the first replica's view of every avatar and NPC into the
// sampler's store and, when timed, prices one tick's worth of snapshot and
// area-of-interest work on it: the work that replica does for its own users.
func (sm *sampler) sample(w *world, timed bool) {
	rep := w.reps[0]
	sm.ids = sm.ids[:0]
	for _, k := range w.walkers {
		sm.ids = append(sm.ids, k.c.Avatar())
	}
	for _, r := range w.reps {
		sm.ids = append(sm.ids, r.npcs...)
	}
	live := make(map[entity.ID]bool, len(sm.ids))
	for _, id := range sm.ids {
		e, ok := rep.srv.Entity(id)
		if !ok {
			continue
		}
		live[id] = true
		if cur, ok := sm.store.Get(id); ok {
			*cur = e
		} else {
			sm.store.Put(e.Clone())
		}
	}
	for _, e := range slices.Clone(sm.store.All()) {
		if !live[e.ID] {
			sm.store.Remove(e.ID)
		}
	}
	if !timed {
		sm.incr.Build(sm.store.Snapshot().All())
		return
	}

	a0 := readAllocs()
	t0 := clock()
	snap := sm.store.Snapshot()
	sm.snapUS = append(sm.snapUS, us(time.Since(t0)))
	sm.snapAllocs = append(sm.snapAllocs, float64(readAllocs().objects-a0.objects))
	all := snap.All()
	changed := 0
	for _, e := range all {
		if snap.Changed(e.ID) != 0 {
			changed++
		}
	}
	sm.changedShare = append(sm.changedShare, float64(changed)/float64(max(len(all), 1)))

	query := func(m aoi.Manager, count bool) float64 {
		t0 := clock()
		m.Build(all)
		for _, e := range all {
			if e.Kind != entity.Avatar || e.Owner != rep.id {
				continue
			}
			sm.vis = m.Visible(sm.vis[:0], e.ID, e.Pos, all)
			if count {
				sm.visible = append(sm.visible, float64(len(sm.vis)))
			}
		}
		return us(time.Since(t0))
	}
	sm.euclidUS = append(sm.euclidUS, query(sm.euclid, true))
	sm.incrUS = append(sm.incrUS, query(sm.incr, false))
}

// replay decodes the captured payloads through proto.Registry and, when
// encode is set, encodes each decoded message again into one reused writer.
// It reports nanoseconds and heap objects per payload. The first pass warms
// the caches; the second is the one timed.
func replay(payloads [][]byte, encode bool) (decodeNS, decodeAllocs, encodeNS float64) {
	if len(payloads) == 0 {
		return 0, 0, 0
	}
	msgs := make([]wire.Message, len(payloads))
	n := float64(len(payloads))
	for pass := 0; pass < 2; pass++ {
		a0 := exactAllocs()
		t0 := clock()
		for i, p := range payloads {
			msgs[i], _ = proto.Registry.Decode(p) // captured from a live run; a nil message is skipped below
		}
		decodeNS = float64(time.Since(t0)) / n
		decodeAllocs = float64(exactAllocs().objects-a0.objects) / n
	}
	if !encode {
		return decodeNS, decodeAllocs, 0
	}
	buf := wire.NewWriter(64 << 10)
	for pass := 0; pass < 2; pass++ {
		t0 := clock()
		for _, m := range msgs {
			if m != nil {
				proto.Registry.Encode(buf, m)
			}
		}
		encodeNS = float64(time.Since(t0)) / n
	}
	return decodeNS, decodeAllocs, encodeNS
}

// rampStepNames names the ramp's steps by their unscaled user counts, so
// that a scaled-down test run reports the names BENCHMARK.json declares.
func rampStepNames() []string {
	var names []string
	for _, s := range workloads() {
		if !s.ramp {
			continue
		}
		for n := s.users; n <= s.rampCap; n += s.rampStep {
			names = append(names, fmt.Sprintf("n%d", n))
		}
	}
	return names
}

// layerMetrics reports every per-layer metric of a traced run. A metric
// that does not apply to the workload is reported as 0, so that every
// workload prints the same names.
func (w *world) layerMetrics(res *result, win *window, steps []rampStepResult, capacity float64, g gateResult) {
	tr := w.tr
	ticks := tr.ticks
	nt := float64(max(len(ticks), 1))
	var sum tickAgg
	var userTicks float64
	wall := make([]float64, len(ticks))
	unaccounted := make([]float64, len(ticks))
	depth := make([]float64, len(ticks))
	tasks := make([][]float64, len(sum.taskMS))
	over := 0
	for i := range ticks {
		tk := &ticks[i]
		sum.wallNS += tk.wallNS
		sum.inputNS += tk.inputNS
		sum.npcNS += tk.npcNS
		sum.fwdNS += tk.fwdNS
		sum.stateNS += tk.stateNS
		sum.sendNS += tk.sendNS
		sum.inputCalls += tk.inputCalls
		sum.inputErrs += tk.inputErrs
		sum.forwards += tk.forwards
		sum.stateCalls += tk.stateCalls
		sum.sendCalls += tk.sendCalls
		sum.allocs += tk.allocs
		sum.allocBytes += tk.allocBytes
		userTicks += float64(tk.users)
		wall[i] = float64(tk.wallNS) / 1e6
		depth[i] = float64(tk.inboxDepth)
		taskSum := 0.0
		for t, ms := range tk.taskMS {
			tasks[t] = append(tasks[t], ms)
			taskSum += ms
		}
		unaccounted[i] = wall[i] - taskSum
		if wall[i] > deadlineMS {
			over++
		}
	}
	var per periodAgg
	var ingest, deliver, iter []float64
	for _, p := range tr.periods {
		per.totalNS += p.totalNS
		per.stepNS += p.stepNS
		per.pollNS += p.pollNS
		ingest = append(ingest, float64(p.ingestNS)/1e3)
		deliver = append(deliver, float64(p.deliverNS)/1e3)
		iter = append(iter, float64(p.totalNS)/1e6)
	}
	np := float64(max(len(tr.periods), 1))
	perTickUS := func(ns int64) float64 { return float64(ns) / 1e3 / nt }

	// transport
	var joinMS []float64
	for _, k := range w.walkers {
		joinMS = append(joinMS, k.joinMS)
	}
	res.set("transport.ingest_wait_us", percentile(ingest, 50), "us")
	res.set("transport.deliver_wait_us", percentile(deliver, 50), "us")
	res.set("transport.server_send_us_per_tick", perTickUS(sum.sendNS), "us")
	res.set("transport.server_send_calls_per_tick", float64(sum.sendCalls)/nt, "count")
	res.set("transport.client_send_us_per_input", ratio(float64(tr.clientSendNS)/1e3, float64(tr.clientSends)), "us")
	res.set("transport.join_ms_p50", percentile(joinMS, 50), "ms")
	res.set("transport.inbox_depth_p50", percentile(depth, 50), "count")
	res.set("transport.inbox_depth_max", percentile(depth, 100), "count")
	res.set("transport.inbound_dropped", float64(g.inboundDropped), "count")
	res.set("transport.frame_overhead_bytes", ratio(float64(tr.overheadBytes), float64(tr.clientFrames)), "bytes")
	res.set("transport.ingress_bytes_per_user_tick", ratio(float64(tr.ingressBytes), userTicks), "bytes")

	// proto
	inNS, inAllocs, _ := replay(tr.inputs, false)
	updNS, updAllocs, encNS := replay(tr.updates, true)
	sizes := make([]float64, len(tr.updateBytes))
	for i, b := range tr.updateBytes {
		sizes[i] = float64(b)
	}
	res.set("proto.decode_input_ns", inNS, "ns")
	res.set("proto.decode_input_allocs", inAllocs, "count")
	res.set("proto.decode_update_ns", updNS, "ns")
	res.set("proto.decode_update_allocs", updAllocs, "count")
	res.set("proto.encode_update_ns", encNS, "ns")
	res.set("proto.update_bytes_p50", percentile(sizes, 50), "bytes")
	res.set("proto.update_bytes_p99", percentile(sizes, 99), "bytes")
	res.set("proto.keyframe_share", ratio(float64(tr.fullUpdates), float64(tr.stateUpdates)), "share")
	res.set("proto.shadow_bytes_per_tick", float64(tr.shadowBytes)/nt, "bytes")

	// game
	res.set("game.apply_input_us_per_tick", perTickUS(sum.inputNS), "us")
	res.set("game.apply_input_calls_per_tick", float64(sum.inputCalls)/nt, "count")
	res.set("game.apply_input_errors", float64(sum.inputErrs), "count")
	res.set("game.update_npc_us_per_tick", perTickUS(sum.npcNS), "us")
	res.set("game.apply_forwarded_us_per_tick", perTickUS(sum.fwdNS), "us")
	res.set("game.forwards_per_tick", float64(sum.forwards)/nt, "count")
	res.set("game.user_state_us_per_migration", ratio(float64(sum.stateNS)/1e3, float64(sum.stateCalls)/2), "us")

	// aoi and entity
	sm := w.sampler
	res.set("aoi.euclid_us_per_tick", mean(sm.euclidUS), "us")
	res.set("aoi.incremental_us_per_tick", mean(sm.incrUS), "us")
	res.set("aoi.visible_p50", percentile(sm.visible, 50), "count")
	res.set("aoi.visible_p99", percentile(sm.visible, 99), "count")
	res.set("entity.snapshot_us", mean(sm.snapUS), "us")
	res.set("entity.snapshot_allocs", mean(sm.snapAllocs), "count")
	res.set("entity.changed_share", mean(sm.changedShare), "share")

	// server
	tickP50 := percentile(wall, 50)
	for t, name := range taskNames() {
		res.set("server.task_ms."+name, percentile(tasks[t], 50), "ms")
	}
	res.set("server.tick_unaccounted_ms", percentile(unaccounted, 50), "ms")
	res.set("server.self_ms", float64(sum.wallNS-sum.childNS())/1e6/nt, "ms")
	res.set("server.tick_wall_p50_ms", tickP50, "ms")
	res.set("server.tick_wall_p90_ms", percentile(wall, 90), "ms")
	res.set("server.tick_wall_p99_ms", percentile(wall, 99), "ms")
	res.set("server.tick_wall_max_ms", percentile(wall, 100), "ms")
	res.set("server.tick_wall_mean_ms", mean(wall), "ms")
	res.set("server.ticks_over_deadline", float64(over), "count")
	res.set("server.tick_allocs", float64(sum.allocs)/nt, "count")
	res.set("server.tick_alloc_bytes", float64(sum.allocBytes)/nt, "bytes")
	res.set("server.gc_cycles", float64(win.gcCycles), "count")
	res.set("server.gc_pause_ms_total", float64(win.gcPauseNS)/1e6, "ms")
	followed := 0
	for _, k := range w.walkers {
		followed += k.c.Migrations()
	}
	res.set("server.migrations_started", float64(w.migrationsStarted), "count")
	res.set("server.migrations_followed", float64(followed), "count")
	res.set("server.migration_ticks_p50", percentile(w.migrationTicks, 50), "count")

	// client
	polls := make([]float64, len(win.pollNS))
	for i, ns := range win.pollNS {
		polls[i] = float64(ns) / 1e3
	}
	var resyncs, lost uint64
	for _, k := range w.walkers {
		resyncs += k.c.Resyncs()
		lost += k.c.LostInputs()
	}
	var worldSize []float64
	for _, k := range w.probes {
		worldSize = append(worldSize, float64(len(k.c.World())))
	}
	res.set("client.poll_us_per_update_p50", percentile(polls, 50), "us")
	res.set("client.poll_us_per_update_p99", percentile(polls, 99), "us")
	res.set("client.poll_allocs_per_update", ratio(float64(win.pollAllocs), float64(win.pollUpdates)), "count")
	res.set("client.send_input_us", ratio(float64(win.sendInputNS)/1e3, float64(win.sendInputs)), "us")
	res.set("client.resyncs", float64(resyncs), "count")
	res.set("client.lost_inputs", float64(lost), "count")
	res.set("client.world_size_p50", percentile(worldSize, 50), "count")

	// bots and harness
	res.set("bots.step_us_per_bot", float64(per.stepNS)/1e3/np/float64(win.walkers), "us")
	res.set("bots.inputs_per_user_tick", ratio(float64(sum.inputCalls), userTicks), "count")
	res.set("harness.generator_share", ratio(float64(per.stepNS+per.pollNS), float64(per.totalNS)), "share")
	res.set("harness.iter_p50_ms", percentile(iter, 50), "ms")
	overhead := 0.0
	if len(win.refTickNS) > 0 {
		overhead = tickP50/quantileMS(win.refTickNS, 50) - 1
	}
	res.set("harness.trace_overhead_share", overhead, "share")

	// model and ramp
	var nmaxPred, nmaxErr, tickErr float64
	if w.spec.ramp {
		nmaxPred, nmaxErr, tickErr = w.modelError(steps[0].users, mean(wall), capacity)
	}
	res.set("model.nmax_pred", nmaxPred, "users")
	res.set("model.nmax_relerr", nmaxErr, "share")
	res.set("model.tick_pred_relerr_ref", tickErr, "share")
	var byP90 float64
	if w.spec.ramp {
		byP90, _ = usersInDeadline(steps, tickP90)
	}
	res.set("ramp.users_in_deadline_p90", byP90, "users")
	for i, name := range rampStepNames() {
		var st rampStepResult
		if w.spec.ramp && i < len(steps) {
			st = steps[i]
		}
		res.set("ramp.tick_wall_p50_ms."+name, st.p50, "ms")
		res.set("ramp.tick_wall_p75_ms."+name, st.p75, "ms")
		res.set("ramp.tick_wall_p90_ms."+name, st.p90, "ms")
	}
}

// modelError fits the paper's cost model to the samples the ramp left in
// the server's monitor and compares its predictions with what was measured:
// n_max (Eq. 2) against users_in_deadline, and the predicted tick at the
// reference step against the mean tick measured there.
func (w *world) modelError(refUsers int, refTickMS, capacity float64) (nmaxPred, nmaxErr, tickErr float64) {
	cal, err := calibrate.FromMonitor("bench", w.reps[0].srv.Monitor())
	if err != nil {
		return 0, 0, 0
	}
	mdl, err := model.New(cal.Set, deadlineMS, 0.15)
	if err != nil {
		return 0, 0, 0
	}
	nmax, _ := mdl.MaxUsers(1, 0)
	return float64(nmax), ratio(float64(nmax), capacity) - 1, ratio(mdl.TickTime(1, refUsers, 0), refTickMS) - 1
}
