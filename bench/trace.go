package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
)

// span is one timed interval of a traced run. Times are nanoseconds since
// the tracer was created; Parent indexes the enclosing span (-1 for a
// period, the root); every span of one lockstep period shares Period.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Period int32  `json:"period"`
}

const (
	// spanEvery and maxSpanPeriods bound the spans held in memory: the
	// per-call children of a tick number in the thousands, so only every
	// spanEvery-th traced period keeps its spans. The per-tick sums that
	// the metrics are computed from are kept for every traced tick.
	spanEvery      = 50
	maxSpanPeriods = 64
	// maxCaptured bounds the payloads kept for the proto replay.
	maxCaptured      = 4096
	maxCapturedBytes = 16 << 20
)

// tickAgg is what the decorators saw during one Server.Tick.
type tickAgg struct {
	wallNS int64
	// Time inside the tick's child spans, by layer.
	inputNS, npcNS, fwdNS, stateNS, sendNS int64
	// Calls behind those sums. forwards counts the interactions the game
	// handed back to the server from ApplyInput and UpdateNPC.
	inputCalls, inputErrs, forwards, stateCalls, sendCalls int
	allocs, allocBytes                                     uint64
	taskMS                                                 [9]float64
	inboxDepth, users                                      int
}

func (a *tickAgg) childNS() int64 {
	return a.inputNS + a.npcNS + a.fwdNS + a.stateNS + a.sendNS
}

// periodAgg is the harness's own view of one lockstep period.
type periodAgg struct {
	totalNS, stepNS, ingestNS, deliverNS, pollNS int64
}

// tracer collects the spans and counts of a traced run. It is used from the
// benchmark's one driving goroutine only: the server calls the decorators
// on the goroutine that called Tick, and the clients are stepped by it too.
type tracer struct {
	epoch time.Time
	// on is true inside the traced blocks of the measured window. Anywhere
	// else, and in the window's untraced reference blocks that price the
	// tracer itself, the decorators forward without reading the clock.
	on bool
	// keep is true while the current period's spans are stored.
	keep    bool
	period  int32
	kept    int
	spans   []span
	stack   []int32
	tick    tickAgg
	ticks   []tickAgg
	periods []periodAgg

	// Counts taken at the node decorators.
	clientFrames, overheadBytes int64 // server → client
	ingressBytes, clientSends   int64 // client → server
	clientSendNS                int64
	shadowBytes                 int64 // server → peer replica
	fullUpdates, stateUpdates   int64
	updateBytes                 []int32

	// Payloads captured for the proto replay.
	inputs, updates [][]byte
	capturedBytes   int
}

// newTracer returns a tracer that is off; measure switches it on for the
// traced blocks of the measured window only, so warm-up and the ramp's
// steps above the reference window stay out of every per-layer number.
func newTracer() *tracer {
	return &tracer{epoch: clock()}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// beginPeriod opens the root span of a period.
func (tr *tracer) beginPeriod(p int) int32 {
	tr.period = int32(p)
	tr.keep = p%spanEvery == 0 && tr.kept < maxSpanPeriods
	if tr.keep {
		tr.kept++
	}
	return tr.open("period")
}

// open starts a span under the innermost open one and returns its index,
// or -1 when this period's spans are not kept.
func (tr *tracer) open(name string) int32 {
	if !tr.keep {
		return -1
	}
	parent := int32(-1)
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	idx := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{Name: name, Start: tr.now(), Parent: parent, Period: tr.period})
	tr.stack = append(tr.stack, idx)
	return idx
}

func (tr *tracer) close(idx int32) {
	if idx < 0 {
		return
	}
	tr.spans[idx].End = tr.now()
	tr.stack = tr.stack[:len(tr.stack)-1]
}

// leaf records a finished call as a child of the innermost open span.
func (tr *tracer) leaf(name string, start, end int64) {
	if !tr.keep {
		return
	}
	parent := int32(-1)
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Start: start, End: end, Parent: parent, Period: tr.period})
}

func (tr *tracer) capture(dst *[][]byte, payload []byte) {
	if len(*dst) >= maxCaptured || tr.capturedBytes+len(payload) > maxCapturedBytes {
		return
	}
	tr.capturedBytes += len(payload)
	*dst = append(*dst, append([]byte(nil), payload...))
}

// writeSpans writes the kept spans as one JSON object per line.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// countingNode decorates a transport.Node. Around a server's node it is
// present in every run and counts the framed bytes of everything the server
// sends, split by client and peer destination; with a tracer it also times
// the sends. Around a client's node (traced runs only) it prices the
// client → server direction.
type countingNode struct {
	transport.Node
	// peers holds the IDs of the replicas; any other destination of a
	// server's frame is a client.
	peers  map[string]bool
	client bool
	tr     *tracer

	// clientBytes is the framed size of everything sent to clients so far.
	clientBytes int64
}

// batchNode adds SendBatch to a countingNode whose inner node has it. A
// decorator without it would silently turn off the server's vectored-write
// path, so wrapNode keeps the capability exactly as the inner node has it.
type batchNode struct {
	*countingNode
	batch transport.BatchSender
}

func wrapNode(inner transport.Node, n *countingNode) transport.Node {
	n.Node = inner
	if bs, ok := inner.(transport.BatchSender); ok {
		return &batchNode{countingNode: n, batch: bs}
	}
	return n
}

func (n *countingNode) Send(to string, payload []byte) error {
	n.count(to, payload)
	if n.tr == nil || !n.tr.on {
		return n.Node.Send(to, payload)
	}
	t0 := n.tr.now()
	err := n.Node.Send(to, payload)
	n.timed(t0, n.tr.now())
	return err
}

func (n *batchNode) SendBatch(to string, payloads [][]byte) error {
	for _, p := range payloads {
		n.count(to, p)
	}
	if n.tr == nil || !n.tr.on {
		return n.batch.SendBatch(to, payloads)
	}
	t0 := n.tr.now()
	err := n.batch.SendBatch(to, payloads)
	n.timed(t0, n.tr.now())
	return err
}

func (n *countingNode) timed(t0, t1 int64) {
	tr := n.tr
	if n.client {
		tr.clientSendNS += t1 - t0
		tr.clientSends++
		return
	}
	tr.tick.sendNS += t1 - t0
	tr.tick.sendCalls++
	tr.leaf("transport.server_send", t0, t1)
}

func (n *countingNode) count(to string, payload []byte) {
	wireBytes := int64(transport.FrameWireBytes(n.ID(), to, len(payload)))
	tr := n.tr
	traced := tr != nil && tr.on
	switch {
	case n.client:
		if traced {
			tr.ingressBytes += wireBytes
			if kindOf(payload) == proto.KindInput {
				tr.capture(&tr.inputs, payload)
			}
		}
	case n.peers[to]:
		if traced {
			tr.shadowBytes += wireBytes
		}
	default:
		n.clientBytes += wireBytes
		if !traced {
			return
		}
		tr.clientFrames++
		tr.overheadBytes += wireBytes - int64(len(payload))
		switch kindOf(payload) {
		case proto.KindStateUpdate, proto.KindStateKeyframe:
			tr.fullUpdates++
			fallthrough
		case proto.KindStateDelta:
			tr.stateUpdates++
			tr.updateBytes = append(tr.updateBytes, int32(len(payload)))
			tr.capture(&tr.updates, payload)
		}
	}
}

func kindOf(payload []byte) wire.Kind {
	if len(payload) < 2 {
		return 0
	}
	return wire.Kind(binary.BigEndian.Uint16(payload))
}

// tracedApp decorates the server.Application seam: every callback is timed
// into the tick in progress. It forwards every method, and the optional
// ConcurrentSimulator capability, unchanged.
type tracedApp struct {
	inner server.Application
	tr    *tracer
}

var (
	_ server.Application         = (*tracedApp)(nil)
	_ server.ConcurrentSimulator = (*tracedApp)(nil)
)

func (a *tracedApp) SpawnAvatar(env *server.Env, id entity.ID, pos entity.Vec2, zoneID uint32) *entity.Entity {
	return a.inner.SpawnAvatar(env, id, pos, zoneID)
}

func (a *tracedApp) ApplyInput(env *server.Env, actor *entity.Entity, payload []byte) ([]server.Forward, error) {
	if !a.tr.on {
		return a.inner.ApplyInput(env, actor, payload)
	}
	t0 := a.tr.now()
	fwds, err := a.inner.ApplyInput(env, actor, payload)
	t1 := a.tr.now()
	tk := &a.tr.tick
	tk.inputNS += t1 - t0
	tk.inputCalls++
	tk.forwards += len(fwds)
	if err != nil {
		tk.inputErrs++
	}
	a.tr.leaf("game.apply_input", t0, t1)
	return fwds, err
}

// ApplyForwarded is billed by where the actor lives: an interaction whose
// actor is active on this replica is the local half of an input or an NPC
// update (the server calls it directly), and only one whose actor is a
// shadow here was forwarded by a peer.
func (a *tracedApp) ApplyForwarded(env *server.Env, actor entity.ID, target *entity.Entity, payload []byte) error {
	if !a.tr.on {
		return a.inner.ApplyForwarded(env, actor, target, payload)
	}
	t0 := a.tr.now()
	err := a.inner.ApplyForwarded(env, actor, target, payload)
	t1 := a.tr.now()
	tk := &a.tr.tick
	e, ok := env.Store.Get(actor)
	switch {
	case ok && e.Owner != env.ServerID:
		tk.fwdNS += t1 - t0
		a.tr.leaf("game.apply_forwarded", t0, t1)
	case ok && e.Kind == entity.NPC:
		tk.npcNS += t1 - t0
		a.tr.leaf("game.update_npc", t0, t1)
	default:
		tk.inputNS += t1 - t0
		a.tr.leaf("game.apply_input", t0, t1)
	}
	return err
}

func (a *tracedApp) UpdateNPC(env *server.Env, npc *entity.Entity) []server.Forward {
	if !a.tr.on {
		return a.inner.UpdateNPC(env, npc)
	}
	t0 := a.tr.now()
	fwds := a.inner.UpdateNPC(env, npc)
	t1 := a.tr.now()
	tk := &a.tr.tick
	tk.npcNS += t1 - t0
	tk.forwards += len(fwds)
	a.tr.leaf("game.update_npc", t0, t1)
	return fwds
}

func (a *tracedApp) DrainEvents(env *server.Env, avatar entity.ID) []byte {
	return a.inner.DrainEvents(env, avatar)
}

func (a *tracedApp) EncodeUserState(env *server.Env, avatar entity.ID) []byte {
	if !a.tr.on {
		return a.inner.EncodeUserState(env, avatar)
	}
	t0 := a.tr.now()
	b := a.inner.EncodeUserState(env, avatar)
	a.userState(t0)
	return b
}

func (a *tracedApp) ApplyUserState(env *server.Env, avatar entity.ID, data []byte) {
	if !a.tr.on {
		a.inner.ApplyUserState(env, avatar, data)
		return
	}
	t0 := a.tr.now()
	a.inner.ApplyUserState(env, avatar, data)
	a.userState(t0)
}

func (a *tracedApp) userState(t0 int64) {
	t1 := a.tr.now()
	a.tr.tick.stateNS += t1 - t0
	a.tr.tick.stateCalls++
	a.tr.leaf("game.user_state", t0, t1)
}

// ConcurrentNPCUpdates forwards the inner application's answer. The sums in
// tickAgg are not synchronised: the benchmark builds servers without
// Config.Parallelism, so every callback runs on the tick goroutine.
func (a *tracedApp) ConcurrentNPCUpdates() bool {
	cs, ok := a.inner.(server.ConcurrentSimulator)
	return ok && cs.ConcurrentNPCUpdates()
}

// taskNames are the paper's nine task parameters in monitor order.
func taskNames() []string {
	tasks := monitor.Tasks()
	names := make([]string, len(tasks))
	for i, t := range tasks {
		names[i] = t.String()
	}
	return names
}
