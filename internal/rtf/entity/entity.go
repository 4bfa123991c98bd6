// Package entity defines the application-state building blocks of RTF:
// entities (user avatars and computer-controlled characters), their
// positions in the virtual environment, and the active/shadow distinction
// that underpins the replication distribution method.
//
// In replication, every server keeps a complete copy of a zone's entity
// set, but each server is responsible only for a disjoint subset (its
// *active* entities) and receives updates for the remaining *shadow*
// entities from the servers responsible for them (Fig. 1 of the paper).
package entity

import (
	"fmt"
	"math"

	"roia/internal/rtf/wire"
)

// ID identifies an entity uniquely within one application session.
type ID uint64

// Kind distinguishes user avatars from computer-controlled characters.
type Kind uint8

// Entity kinds.
const (
	// Avatar is a user-controlled entity.
	Avatar Kind = iota
	// NPC is a computer-controlled non-player character.
	NPC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Avatar:
		return "avatar"
	case NPC:
		return "npc"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Vec2 is a position or displacement in the 2-D virtual environment.
type Vec2 struct {
	X, Y float64
}

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v − o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dist returns the Euclidean distance to o.
func (v Vec2) Dist(o Vec2) float64 {
	dx, dy := v.X-o.X, v.Y-o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance to o (cheaper when only
// comparisons are needed, as in interest management).
func (v Vec2) Dist2(o Vec2) float64 {
	dx, dy := v.X-o.X, v.Y-o.Y
	return dx*dx + dy*dy
}

// Clamp returns v with both coordinates clamped to [min, max].
func (v Vec2) Clamp(min, max float64) Vec2 {
	clamp := func(x float64) float64 {
		if x < min {
			return min
		}
		if x > max {
			return max
		}
		return x
	}
	return Vec2{clamp(v.X), clamp(v.Y)}
}

// Entity is one object of the application state.
type Entity struct {
	// ID is the session-unique identifier.
	ID ID
	// Kind distinguishes avatars from NPCs.
	Kind Kind
	// Pos is the position in the virtual environment.
	Pos Vec2
	// Health is the game-specific vitality (RTFDemo semantics: avatars die
	// at 0 and respawn).
	Health int32
	// Zone is the zone the entity currently inhabits.
	Zone uint32
	// Owner is the ID of the server responsible for this entity. On that
	// server the entity is active; on every other replica of the zone it
	// is a shadow entity.
	Owner string
	// Seq is a per-entity update sequence number; replicas discard stale
	// shadow updates that arrive out of order.
	Seq uint64
}

// ActiveOn reports whether the entity is active on the given server (the
// server holds responsibility for processing its inputs and state).
func (e *Entity) ActiveOn(serverID string) bool { return e.Owner == serverID }

// Clone returns a copy of the entity.
func (e *Entity) Clone() *Entity {
	c := *e
	return &c
}

// MarshalWire serializes the entity's replicated fields.
func (e *Entity) MarshalWire(w *wire.Writer) {
	w.Uint64(uint64(e.ID))
	w.Uint8(uint8(e.Kind))
	w.Float64(e.Pos.X)
	w.Float64(e.Pos.Y)
	w.Varint(int64(e.Health))
	w.Uint32(e.Zone)
	w.String(e.Owner)
	w.Uint64(e.Seq)
}

// UnmarshalWire parses the entity's replicated fields. An Owner equal to the
// one e already holds is kept, so decoding into a reused entity allocates
// only when the owner changed.
func (e *Entity) UnmarshalWire(r *wire.Reader) error {
	e.ID = ID(r.Uint64())
	e.Kind = Kind(r.Uint8())
	e.Pos.X = r.Float64()
	e.Pos.Y = r.Float64()
	e.Health = int32(r.Varint())
	e.Zone = r.Uint32()
	e.Owner = r.StringOr(e.Owner)
	e.Seq = r.Uint64()
	return r.Err()
}
