package proto

import (
	"roia/internal/rtf/entity"
	"roia/internal/rtf/wire"
)

// EntityDelta is one entity's masked field changes inside a StateDelta.
// Only the field groups named by Mask are meaningful in State; the client
// applies them onto its previous copy of the entity. On the wire the ID
// travels gap-encoded at the StateDelta framing level, not here.
type EntityDelta struct {
	ID    entity.ID
	Mask  entity.FieldMask
	State entity.Entity
}

// StateDelta is the per-tick, area-of-interest-filtered state update
// delivered to one client (step 3 of the real-time loop): the difference
// between the client's visible world at BaseTick (the previous update it
// applied) and at Tick. A client that missed the base — joins, migrations,
// dropped frames — cannot apply it and waits for the next StateKeyframe
// instead (resync).
//
// Updates, Enters and Gone are strictly ascending by entity ID; ID columns
// are gap-encoded (first absolute, then successive differences) so dense ID
// ranges cost one byte per entity. Encoding is fully deterministic, which
// preserves the byte-identical-across-parallelism pipeline contract.
type StateDelta struct {
	// Tick is the server tick this delta advances the client to.
	Tick uint64
	// BaseTick is the tick of the update this delta applies on top of.
	BaseTick uint64
	// AckSeq is the sequence number of the last input of this client the
	// server applied before building the update (0 while none). The client
	// matches it against its send timestamps to measure the user-perceived
	// input→update response time the model's QoS threshold U promises.
	AckSeq uint64
	// SelfMask names the avatar field groups that changed; Self carries
	// only those (the avatar's ID never travels — the client knows it).
	SelfMask entity.FieldMask
	Self     entity.Entity
	// Updates are masked changes to entities already visible at BaseTick.
	Updates []EntityDelta
	// Enters are full records of entities that entered the visible set.
	Enters []entity.Entity
	// Gone lists entities that left the visible set.
	Gone []entity.ID
	// Events is an opaque application payload (e.g. hits suffered).
	Events []byte
}

// WireKind implements wire.Message.
func (*StateDelta) WireKind() wire.Kind { return KindStateDelta }

// MarshalWire implements wire.Message.
func (m *StateDelta) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.Tick)
	w.Uvarint(m.Tick - m.BaseTick)
	w.Uvarint(m.AckSeq)
	marshalBody(w, &m.Self, m.SelfMask)
	w.Uvarint(uint64(len(m.Updates)))
	prev := entity.ID(0)
	for i := range m.Updates {
		u := &m.Updates[i]
		prev = marshalGap(w, prev, u.ID)
		marshalBody(w, &u.State, u.Mask)
	}
	w.Uvarint(uint64(len(m.Enters)))
	for i := range m.Enters {
		m.Enters[i].MarshalWire(w)
	}
	marshalGone(w, m.Gone)
	w.Blob(m.Events)
}

// marshalBody writes one entity's delta body: the mask byte, then the
// masked field groups. It is the unit a StateDelta carries for the avatar
// and for each of its Updates.
func marshalBody(w *wire.Writer, e *entity.Entity, mask entity.FieldMask) {
	w.Uint8(uint8(mask))
	e.MarshalDelta(w, mask)
}

// marshalGap writes one entry of a gap-encoded ID column, id's distance
// from the previous entry prev (0 before the first), and returns id.
func marshalGap(w *wire.Writer, prev, id entity.ID) entity.ID {
	w.Uvarint(uint64(id - prev))
	return id
}

// marshalGone writes the Gone column: its length, then the gap-encoded IDs.
func marshalGone(w *wire.Writer, gone []entity.ID) {
	w.Uvarint(uint64(len(gone)))
	prev := entity.ID(0)
	for _, id := range gone {
		prev = marshalGap(w, prev, id)
	}
}

// DeltaBodies is one tick's arena of delta bodies, indexed by snapshot
// position. An entity's masked changes are the same bytes for every viewer
// — only the gap-encoded ID in front of them depends on who is looking — so
// the publish stage encodes each snapshot entity's body once per tick and
// AppendStateDelta splices it into every viewer's update. The zero value is
// ready to use; Reset keeps the capacity for the next tick.
type DeltaBodies struct {
	w wire.Writer
	// ends[p] is where position p's body ends in w; it starts where
	// position p-1's ends (at 0 for position 0).
	ends []int32
}

// Reset empties the arena, keeping its capacity.
func (b *DeltaBodies) Reset() {
	b.w.Reset()
	b.ends = b.ends[:0]
}

// Append encodes the body of the next snapshot position: e's field groups
// under mask, the entity's change mask relative to the previous snapshot.
// A zero mask encodes the one-byte body of an unchanged entity.
func (b *DeltaBodies) Append(e *entity.Entity, mask entity.FieldMask) {
	marshalBody(&b.w, e, mask)
	b.ends = append(b.ends, int32(b.w.Len()))
}

// body returns the delta body of snapshot position p, aliasing the arena.
func (b *DeltaBodies) body(p int32) []byte {
	start := int32(0)
	if p > 0 {
		start = b.ends[p-1]
	}
	return b.w.Bytes()[start:b.ends[p]]
}

// AppendStateDelta appends to w the payload, kind tag included, that
// Registry.Encode writes for the StateDelta
//
//	{Tick: tick, BaseTick: baseTick, AckSeq: ackSeq,
//	 SelfMask, Self: the avatar's mask and body at snapshot position self,
//	 Updates: the entities at positions updates, with their masks,
//	 Enters: the entities at positions enters,
//	 Gone: gone, Events: events}
//
// without building it: the avatar and every update are spans of bodies,
// the arena DeltaBodies encoded from snap, behind their gap-encoded IDs;
// entrants are full records encoded from snap at the point of use. The
// position columns must ascend, like the ID columns they stand for.
func AppendStateDelta(w *wire.Writer, snap *entity.Snapshot, bodies *DeltaBodies,
	tick, baseTick, ackSeq uint64, self int32, updates, enters []int32, gone []entity.ID, events []byte) {
	w.Uint16(uint16(KindStateDelta))
	w.Uvarint(tick)
	w.Uvarint(tick - baseTick)
	w.Uvarint(ackSeq)
	w.Raw(bodies.body(self))
	w.Uvarint(uint64(len(updates)))
	prev := entity.ID(0)
	for _, p := range updates {
		e, _ := snap.At(p)
		prev = marshalGap(w, prev, e.ID)
		w.Raw(bodies.body(p))
	}
	w.Uvarint(uint64(len(enters)))
	for _, p := range enters {
		e, _ := snap.At(p)
		e.MarshalWire(w)
	}
	marshalGone(w, gone)
	w.Blob(events)
}

// UnmarshalWire implements wire.Message. The Updates, Enters, Gone and
// Visible columns of the two state messages decode into the receiver's
// existing slices when their capacity suffices, so a client that keeps one
// message shell per kind decodes its update stream without allocating.
func (m *StateDelta) UnmarshalWire(r *wire.Reader) error {
	m.Tick = r.Uvarint()
	m.BaseTick = m.Tick - r.Uvarint()
	m.AckSeq = r.Uvarint()
	m.SelfMask = entity.FieldMask(r.Uint8())
	if err := m.Self.UnmarshalDelta(r, m.SelfMask); err != nil {
		return err
	}
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n > uint64(r.Remaining()) { // each update needs >1 byte
		return wire.ErrStringTooLong
	}
	m.Updates = resize(m.Updates, n)
	prev := uint64(0)
	for i := range m.Updates {
		u := &m.Updates[i]
		prev += r.Uvarint()
		u.ID = entity.ID(prev)
		u.Mask = entity.FieldMask(r.Uint8())
		if err := u.State.UnmarshalDelta(r, u.Mask); err != nil {
			return err
		}
	}
	e := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if e > uint64(r.Remaining()) {
		return wire.ErrStringTooLong
	}
	m.Enters = resize(m.Enters, e)
	for i := range m.Enters {
		if err := m.Enters[i].UnmarshalWire(r); err != nil {
			return err
		}
	}
	g := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if g > uint64(r.Remaining()) {
		return wire.ErrStringTooLong
	}
	m.Gone = resize(m.Gone, g)
	prev = 0
	for i := range m.Gone {
		prev += r.Uvarint()
		m.Gone[i] = entity.ID(prev)
	}
	m.Events = r.Blob()
	return r.Err()
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Elements keep whatever they held: callers overwrite them.
func resize[T any](s []T, n uint64) []T {
	if uint64(cap(s)) < n {
		return make([]T, n)
	}
	return s[:n]
}

// StateKeyframe is a full self-contained state update of protocol v5: the
// client replaces its visible world wholesale. Keyframes are emitted on a
// configurable cadence and forced whenever a client has no valid delta base
// (join, migration, resync after loss), bounding how long a desynchronized
// client stays stale.
type StateKeyframe struct {
	// Tick is the server tick this keyframe reflects.
	Tick uint64
	// AckSeq is the last applied input sequence number (see StateDelta).
	AckSeq uint64
	// Self is the client's own avatar state.
	Self entity.Entity
	// Visible is the complete area-of-interest-filtered entity set, in
	// ascending ID order.
	Visible []entity.Entity
	// Events is an opaque application payload (e.g. hits suffered).
	Events []byte
}

// WireKind implements wire.Message.
func (*StateKeyframe) WireKind() wire.Kind { return KindStateKeyframe }

// MarshalWire implements wire.Message.
func (m *StateKeyframe) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.Tick)
	w.Uvarint(m.AckSeq)
	m.Self.MarshalWire(w)
	w.Uvarint(uint64(len(m.Visible)))
	for i := range m.Visible {
		m.Visible[i].MarshalWire(w)
	}
	w.Blob(m.Events)
}

// AppendStateKeyframe appends to w the payload, kind tag included, that
// Registry.Encode writes for the StateKeyframe {Tick: tick, AckSeq: ackSeq,
// Self: self, Visible: the entities at the ascending snapshot positions
// visible, Events: events}, encoding each record straight from snap.
func AppendStateKeyframe(w *wire.Writer, snap *entity.Snapshot, tick, ackSeq uint64, self *entity.Entity, visible []int32, events []byte) {
	w.Uint16(uint16(KindStateKeyframe))
	w.Uvarint(tick)
	w.Uvarint(ackSeq)
	self.MarshalWire(w)
	w.Uvarint(uint64(len(visible)))
	for _, p := range visible {
		e, _ := snap.At(p)
		e.MarshalWire(w)
	}
	w.Blob(events)
}

// UnmarshalWire implements wire.Message.
func (m *StateKeyframe) UnmarshalWire(r *wire.Reader) error {
	m.Tick = r.Uvarint()
	m.AckSeq = r.Uvarint()
	if err := m.Self.UnmarshalWire(r); err != nil {
		return err
	}
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n > uint64(r.Remaining()) { // each entity needs >1 byte
		return wire.ErrStringTooLong
	}
	m.Visible = resize(m.Visible, n)
	for i := range m.Visible {
		if err := m.Visible[i].UnmarshalWire(r); err != nil {
			return err
		}
	}
	m.Events = r.Blob()
	return r.Err()
}
