// Package client implements the RTF client runtime used by bots, examples
// and the load-generator command: it connects a user to an application
// server, sends inputs, receives area-of-interest-filtered state updates,
// and transparently follows user migrations between servers.
package client

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/telemetry"
)

// ErrNotJoined is returned by input sends before a join is acknowledged.
var ErrNotJoined = errors.New("client: not joined")

// maxPendingInputs bounds the in-flight input ring: when the server (or a
// lossy link) stops acking, the oldest pending timestamps are evicted and
// counted lost instead of growing without bound. 1024 inputs is ~40 s of
// continuous input at 25 Hz — far past any RTT worth measuring.
const maxPendingInputs = 1024

// pendingAge caps how long an unacked input stays pending before it ages
// out as lost. Keeps the ring small under light input rates too.
const pendingAge = 10 * time.Second

// pendingInput is one sent-but-not-yet-acked input.
type pendingInput struct {
	seq uint64
	at  time.Time
}

// View is the client's picture of the game after the last state update it
// applied: its own avatar plus every other entity in its area of interest.
type View struct {
	// Tick is the server tick the view reflects.
	Tick uint64
	// AckSeq is the last input sequence the server had applied by then.
	AckSeq uint64
	// Self is the client's own avatar.
	Self entity.Entity
	// Visible is every other entity in the area of interest, in ascending
	// ID order.
	Visible []entity.Entity
}

// Client is one user connection.
type Client struct {
	node transport.Node

	mu         sync.Mutex
	server     string
	avatar     entity.ID
	joined     bool
	inputSeq   uint64
	events     [][]byte
	updates    uint64
	migrations int
	w          *wire.Writer

	// view is the state the update stream has built so far (nothing until
	// the first keyframe). A keyframe replaces view wholesale; a
	// delta applies only when its BaseTick matches view.Tick of a synced
	// client and every entity it touches is held. Anything else — a gap, a
	// duplicate, an unknown entity — leaves view untouched, flips synced off
	// and counts a resync, and the client coasts on its last coherent view
	// until the next keyframe re-anchors it. The client never applies a
	// delta onto a base it does not hold, so it cannot diverge silently.
	view      View
	synced    bool
	resyncs   uint64
	keyframes uint64
	// spare is the buffer the next visible set is built in — decoded from
	// a keyframe or merged from a delta — before it trades places with
	// view.Visible; delta is the decode shell whose columns keep their
	// capacity. A steady update stream is thus applied without allocating.
	spare  []entity.Entity
	delta  proto.StateDelta
	frames []transport.Frame

	// pending holds send timestamps of unacked inputs, oldest first;
	// ackSeq is the highest AckSeq delivered (guards against reordered
	// updates re-acking); lost counts inputs evicted unacked.
	pending []pendingInput
	ackSeq  uint64
	lost    uint64
	now     func() time.Time
	lat     *telemetry.Latency

	// lastJoin is the most recent join request, retained so a redirect
	// (MigrateNotice before the join was acked — a draining server pointing
	// the client at a peer replica) can be answered by re-joining there.
	lastJoin *proto.Join
	// joinNacks counts explicit join rejections (proto.JoinNack).
	joinNacks int
}

// New wraps an attached transport node into a client that will talk to the
// given server.
func New(node transport.Node, server string) *Client {
	return &Client{
		node:   node,
		server: server,
		w:      wire.NewWriter(256),
		now:    time.Now,
		lat:    telemetry.NewLatency(0),
	}
}

// ID returns the client's node ID (its user identity).
func (c *Client) ID() string { return c.node.ID() }

// Server returns the server the client is currently connected to.
func (c *Client) Server() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.server
}

// Joined reports whether the server has acknowledged the join.
func (c *Client) Joined() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joined
}

// Avatar returns the entity ID assigned at join.
func (c *Client) Avatar() entity.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.avatar
}

// Updates reports how many state updates have been received.
func (c *Client) Updates() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updates
}

// Resyncs reports how many times the delta stream lost coherence (a gap,
// duplicate, reorder or unknown-entity delta) and the client had to wait
// for a keyframe to re-anchor.
func (c *Client) Resyncs() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resyncs
}

// Keyframes reports how many keyframes the client has applied.
func (c *Client) Keyframes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keyframes
}

// Synced reports whether the client holds a coherent view (anchored by a
// keyframe with no unapplied gap since).
func (c *Client) Synced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.synced
}

// JoinNacks reports how many join requests were explicitly rejected
// (servers with no peer to redirect to send proto.JoinNack while draining).
func (c *Client) JoinNacks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joinNacks
}

// Migrations reports how many times the client followed a user migration.
func (c *Client) Migrations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migrations
}

// LastUpdate returns the client's current view, or nil before the first
// keyframe. The view and its Visible slice belong to the client and are
// rewritten by the next Poll: read them between polls, on the goroutine
// that polls, and copy what must outlive that.
func (c *Client) LastUpdate() *View {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.keyframes == 0 {
		return nil
	}
	return &c.view
}

// World returns a copy of the client's view of nearby entities (its own
// avatar excluded), in ID order.
func (c *Client) World() []entity.Entity {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.view.Visible)
}

// DrainEvents returns and clears the application events accumulated from
// state updates since the last call.
func (c *Client) DrainEvents() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := c.events
	c.events = nil
	return ev
}

// Join requests entry into a zone at the given position. The server's
// acknowledgement arrives asynchronously via Poll.
func (c *Client) Join(zoneID uint32, pos entity.Vec2, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastJoin = &proto.Join{UserName: name, Zone: zoneID, Pos: pos}
	return c.sendLocked(c.lastJoin)
}

// Leave announces a clean disconnect.
func (c *Client) Leave() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.joined = false
	return c.sendLocked(&proto.Leave{})
}

// SendInput transmits one application-encoded command and stamps it for
// response-time measurement: when a state update acknowledging the input's
// sequence arrives, the input→update round trip is recorded in Latency.
func (c *Client) SendInput(payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.joined {
		return ErrNotJoined
	}
	c.inputSeq++
	c.pending = append(c.pending, pendingInput{seq: c.inputSeq, at: c.now()})
	if len(c.pending) > maxPendingInputs {
		drop := len(c.pending) - maxPendingInputs
		c.lost += uint64(drop)
		c.pending = append(c.pending[:0], c.pending[drop:]...)
	}
	return c.sendLocked(&proto.Input{Seq: c.inputSeq, Payload: payload})
}

// resolveAckLocked consumes an AckSeq carried by a state update: the
// exact-match pending input yields an RTT observation; older pending
// inputs were coalesced into the same tick (applied, but not individually
// measurable) and are discarded; newer ones stay pending. Updates whose
// ack is not beyond the highest seen (reordered or duplicated delivery)
// are ignored — the first delivery already measured the RTT. Unacked
// inputs older than pendingAge are aged out as lost.
func (c *Client) resolveAckLocked(ack uint64, at time.Time) {
	if ack > c.ackSeq {
		c.ackSeq = ack
		i := 0
		for ; i < len(c.pending) && c.pending[i].seq < ack; i++ {
		}
		if i < len(c.pending) && c.pending[i].seq == ack {
			c.lat.Observe(float64(at.Sub(c.pending[i].at)) / float64(time.Millisecond))
			i++
		}
		c.pending = append(c.pending[:0], c.pending[i:]...)
	}
	for len(c.pending) > 0 && at.Sub(c.pending[0].at) > pendingAge {
		c.lost++
		c.pending = append(c.pending[:0], c.pending[1:]...)
	}
}

// Latency returns the client's input→update response-time recorder. Set a
// deadline with SetLatencyDeadline to count QoS violations against the
// model's threshold U.
func (c *Client) Latency() *telemetry.Latency { return c.lat }

// SetLatencyDeadline sets the RTT deadline (ms) for QoS violation
// accounting; non-positive disables.
func (c *Client) SetLatencyDeadline(ms float64) { c.lat.SetDeadline(ms) }

// AckSeq returns the highest input sequence the server has acknowledged.
func (c *Client) AckSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ackSeq
}

// PendingInputs reports how many sent inputs await acknowledgement.
func (c *Client) PendingInputs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// LostInputs reports how many inputs aged out or were evicted unacked
// (dropped on a lossy link, or acked only after their timestamp expired).
func (c *Client) LostInputs() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost
}

func (c *Client) sendLocked(msg wire.Message) error {
	payload := proto.Registry.Encode(c.w, msg)
	return c.node.Send(c.server, payload)
}

// Poll drains and processes all pending server traffic: join acks update
// the avatar binding, state updates advance the view, and migration notices
// re-point the client at its new server — the "switching user connections
// between servers" of Section III-B. It returns the number of state updates
// applied.
func (c *Client) Poll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = transport.DrainInto(c.node, c.frames[:0], 0)
	now := c.now()
	seen := 0
	for i := range c.frames {
		payload := c.frames[i].Payload
		c.frames[i] = transport.Frame{} // the buffer must not pin the payload
		if len(payload) < 2 {
			continue
		}
		switch wire.Kind(binary.BigEndian.Uint16(payload)) {
		case proto.KindJoinAck:
			msg, err := proto.Registry.Decode(payload)
			if err != nil {
				continue
			}
			ack := msg.(*proto.JoinAck)
			c.avatar = ack.Entity
			c.joined = true
		case proto.KindStateKeyframe:
			// A keyframe is a complete visible set: decode it into the
			// spare buffer, then replace the view wholesale and re-anchor
			// the delta chain. Decoding over the current Self and the
			// spare's old records keeps the Owner strings they share.
			kf := proto.StateKeyframe{Self: c.view.Self, Visible: c.spare}
			err := kf.UnmarshalWire(wire.NewReader(payload[2:]))
			c.spare = kf.Visible
			if err != nil || !ascending(kf.Visible) {
				continue
			}
			c.resolveAckLocked(kf.AckSeq, now)
			c.view.Tick, c.view.AckSeq, c.view.Self = kf.Tick, kf.AckSeq, kf.Self
			c.view.Visible, c.spare = c.spare, c.view.Visible
			c.synced = true
			c.keyframes++
			c.appliedLocked(kf.Events)
			seen++
		case proto.KindStateDelta:
			d := &c.delta
			if d.UnmarshalWire(wire.NewReader(payload[2:])) != nil {
				continue
			}
			c.resolveAckLocked(d.AckSeq, now)
			if !c.synced || d.BaseTick != c.view.Tick || !c.applyDeltaLocked(d) {
				// Base mismatch (dropped, duplicated or reordered frame), not
				// yet anchored, or a delta touching an entity this client
				// does not hold: count a resync once per loss of sync and
				// coast until the next keyframe rather than guess.
				if c.synced {
					c.synced = false
					c.resyncs++
				}
				continue
			}
			c.appliedLocked(d.Events)
			seen++
		case proto.KindMigrateNotice:
			msg, err := proto.Registry.Decode(payload)
			if err != nil {
				continue
			}
			c.server = msg.(*proto.MigrateNotice).NewServer
			c.migrations++
			// The new server opens its stream with a keyframe; drop the old
			// server's delta chain so a straggler frame cannot apply.
			c.synced = false
			if !c.joined && c.lastJoin != nil {
				// Redirected before the join was acked (e.g. by a draining
				// server): re-issue the join at the new server.
				_ = c.sendLocked(c.lastJoin)
			}
		case proto.KindJoinNack:
			if _, err := proto.Registry.Decode(payload); err == nil {
				c.joinNacks++
			}
		}
	}
	return seen
}

// appliedLocked books one applied state update and keeps its events.
func (c *Client) appliedLocked(events []byte) {
	if len(events) > 0 {
		c.events = append(c.events, events)
	}
	c.updates++
}

// ascending reports whether the entities are in strictly ascending ID
// order — the invariant of view.Visible the delta merge walk relies on.
func ascending(ents []entity.Entity) bool {
	for i := 1; i < len(ents); i++ {
		if ents[i].ID <= ents[i-1].ID {
			return false
		}
	}
	return true
}

// applyDeltaLocked advances the view by one delta, all or nothing: the
// next visible set is merged into the spare buffer, and the view is only
// touched once the whole delta has proved consistent with it.
func (c *Client) applyDeltaLocked(d *proto.StateDelta) bool {
	next, ok := mergeDelta(c.spare[:0], c.view.Visible, d)
	if !ok {
		c.spare = next
		return false
	}
	c.spare, c.view.Visible = c.view.Visible, next
	c.view.Tick, c.view.AckSeq = d.Tick, d.AckSeq
	c.view.Self.ApplyMasked(&d.Self, d.SelfMask)
	return true
}

// mergeDelta appends to dst the visible set that results from applying d to
// held, and reports whether d is consistent with held: every column of a
// delta ascends by ID like held does, so one merge walk suffices, and each
// Updates and Gone entry must name a held entity, each Enters entry a new
// one. dst is returned either way so its growth is kept.
func mergeDelta(dst, held []entity.Entity, d *proto.StateDelta) ([]entity.Entity, bool) {
	if !ascending(d.Enters) {
		return dst, false
	}
	u, e, g := 0, 0, 0
	for i := range held {
		id := held[i].ID
		for e < len(d.Enters) && d.Enters[e].ID < id {
			dst = append(dst, d.Enters[e])
			e++
		}
		if e < len(d.Enters) && d.Enters[e].ID == id {
			return dst, false
		}
		if g < len(d.Gone) && d.Gone[g] == id {
			g++
			continue
		}
		dst = append(dst, held[i])
		if u < len(d.Updates) && d.Updates[u].ID == id {
			dst[len(dst)-1].ApplyMasked(&d.Updates[u].State, d.Updates[u].Mask)
			u++
		}
	}
	return append(dst, d.Enters[e:]...), u == len(d.Updates) && g == len(d.Gone)
}

// Close detaches the client from the network.
func (c *Client) Close() error { return c.node.Close() }

func (c *Client) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("client(%s → %s joined=%v)", c.node.ID(), c.server, c.joined)
}
