package entity

import "roia/internal/rtf/wire"

// FieldMask is a bitset of Entity field groups, the unit of the delta wire
// protocol: a state update that carries only the masked fields of an entity
// instead of a full record. Masks are produced by diffing consecutive store
// snapshots (DiffMask), so "dirty" means "changed since the previous
// snapshot" without the store having to hook every mutation — applications
// write entity fields directly.
type FieldMask uint8

// Field groups of an Entity. The bit order is also the wire order of the
// masked fields (MarshalDelta/UnmarshalDelta), mirroring the field order of
// the full MarshalWire encoding.
const (
	// FieldKind marks a Kind change (never expected after spawn, but the
	// diff is exhaustive so the delta protocol cannot silently drift).
	FieldKind FieldMask = 1 << iota
	// FieldPos marks a position change (both coordinates travel together).
	FieldPos
	// FieldHealth marks a Health change.
	FieldHealth
	// FieldZone marks a zone transfer.
	FieldZone
	// FieldOwner marks an ownership change (migration, NPC transfer).
	FieldOwner
	// FieldSeq marks a sequence-number advance. Seq increments with every
	// applied change, so FieldSeq is set on effectively every dirty entity;
	// it still travels masked so a delta stream reproduces the exact Seq a
	// keyframe would have delivered.
	FieldSeq

	// FieldAll marks every field group: the mask of a newly appeared entity.
	FieldAll FieldMask = FieldKind | FieldPos | FieldHealth | FieldZone | FieldOwner | FieldSeq
)

// DiffMask reports which field groups of e differ from prev.
func (e *Entity) DiffMask(prev *Entity) FieldMask {
	var m FieldMask
	if e.Kind != prev.Kind {
		m |= FieldKind
	}
	if e.Pos != prev.Pos {
		m |= FieldPos
	}
	if e.Health != prev.Health {
		m |= FieldHealth
	}
	if e.Zone != prev.Zone {
		m |= FieldZone
	}
	if e.Owner != prev.Owner {
		m |= FieldOwner
	}
	if e.Seq != prev.Seq {
		m |= FieldSeq
	}
	return m
}

// ApplyMasked copies the masked field groups of src onto e — the receiving
// side of a delta: src carries only the masked fields, e is the receiver's
// previous copy of the entity.
func (e *Entity) ApplyMasked(src *Entity, mask FieldMask) {
	if mask&FieldKind != 0 {
		e.Kind = src.Kind
	}
	if mask&FieldPos != 0 {
		e.Pos = src.Pos
	}
	if mask&FieldHealth != 0 {
		e.Health = src.Health
	}
	if mask&FieldZone != 0 {
		e.Zone = src.Zone
	}
	if mask&FieldOwner != 0 {
		e.Owner = src.Owner
	}
	if mask&FieldSeq != 0 {
		e.Seq = src.Seq
	}
}

// MarshalDelta serializes only the masked field groups, in mask bit order.
// The entity ID is not written; delta framing carries it separately.
func (e *Entity) MarshalDelta(w *wire.Writer, mask FieldMask) {
	if mask&FieldKind != 0 {
		w.Uint8(uint8(e.Kind))
	}
	if mask&FieldPos != 0 {
		w.Float64(e.Pos.X)
		w.Float64(e.Pos.Y)
	}
	if mask&FieldHealth != 0 {
		w.Varint(int64(e.Health))
	}
	if mask&FieldZone != 0 {
		w.Uint32(e.Zone)
	}
	if mask&FieldOwner != 0 {
		w.String(e.Owner)
	}
	if mask&FieldSeq != 0 {
		w.Uvarint(e.Seq)
	}
}

// UnmarshalDelta parses the masked field groups written by MarshalDelta,
// leaving unmasked fields untouched — applying a delta onto the receiver's
// previous copy of the entity.
func (e *Entity) UnmarshalDelta(r *wire.Reader, mask FieldMask) error {
	if mask&FieldKind != 0 {
		e.Kind = Kind(r.Uint8())
	}
	if mask&FieldPos != 0 {
		e.Pos.X = r.Float64()
		e.Pos.Y = r.Float64()
	}
	if mask&FieldHealth != 0 {
		e.Health = int32(r.Varint())
	}
	if mask&FieldZone != 0 {
		e.Zone = r.Uint32()
	}
	if mask&FieldOwner != 0 {
		e.Owner = r.StringOr(e.Owner)
	}
	if mask&FieldSeq != 0 {
		e.Seq = r.Uvarint()
	}
	return r.Err()
}
