package entity

import "slices"

// Store holds a server's full replica of one zone's entity set, with fast
// partitions into active and shadow subsets. Store is not safe for
// concurrent use; the real-time loop owns it exclusively.
type Store struct {
	byID map[ID]*Entity
	// order caches the sorted iteration order; rebuilt (reusing the backing
	// array) when dirty.
	order []*Entity
	dirty bool
	// version is a monotonic snapshot counter: each Snapshot() call stamps
	// the capture with the next version, so consumers can correlate "what
	// changed since version T" with their own tick numbering.
	version uint64
	// snaps double-buffers the snapshot arenas: the capture at version V
	// reuses the buffers of version V-2, and diffs itself against V-1 to
	// compute per-entity changed-field masks without hooking mutations.
	snaps [2]*Snapshot
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byID: make(map[ID]*Entity), dirty: true}
}

// Put inserts or replaces an entity.
func (s *Store) Put(e *Entity) {
	s.byID[e.ID] = e
	s.dirty = true
}

// Get looks up an entity by ID.
func (s *Store) Get(id ID) (*Entity, bool) {
	e, ok := s.byID[id]
	return e, ok
}

// Remove deletes an entity, reporting whether it existed.
func (s *Store) Remove(id ID) bool {
	if _, ok := s.byID[id]; !ok {
		return false
	}
	delete(s.byID, id)
	s.dirty = true
	return true
}

// Len reports the number of stored entities.
func (s *Store) Len() int { return len(s.byID) }

// All returns every entity in deterministic (ID) order. The returned slice
// is shared and must not be modified; it is invalidated by Put/Remove.
// Deterministic order keeps simulation runs reproducible across executions,
// which the experiment harness depends on.
//
// Footgun: because the slice is shared, callers must not retain it across
// any store mutation, and must never hand it to code that runs while the
// tick loop keeps mutating the store — the backing array is reused and a
// concurrent or later Put/Remove silently invalidates every element the
// caller still holds. Stages that read the world concurrently (the publish
// fan-out) must take a Snapshot instead.
func (s *Store) All() []*Entity {
	if s.dirty {
		if cap(s.order) < len(s.byID) {
			s.order = make([]*Entity, 0, len(s.byID))
		}
		s.order = s.order[:0]
		s.dirty = false
		for _, e := range s.byID {
			s.order = append(s.order, e)
		}
		slices.SortFunc(s.order, func(a, b *Entity) int {
			switch {
			case a.ID < b.ID:
				return -1
			case a.ID > b.ID:
				return 1
			}
			return 0
		})
	}
	return s.order
}

// Snapshot is a point-in-time copy of a Store, safe to read from any number
// of goroutines while the live store keeps mutating. It is the view the
// publish stage hands to the parallel AoI / state-update workers: entity
// values are deep-copied at capture, so neither Put/Remove on the live
// store nor in-place edits of live entities are visible through (or able to
// corrupt) a snapshot.
//
// Each snapshot also carries per-entity changed-field masks relative to the
// previous snapshot of the same store, which is what the delta wire
// protocol publishes instead of full entity records.
//
// Lifetime: snapshot buffers are double-buffered inside the store, so a
// snapshot stays valid until the second following Snapshot() call on the
// same store (i.e. the capture of tick T is reusable scratch at tick T+2).
// The tick loop takes exactly one snapshot per tick and every reader is
// joined before the tick returns, so this is invisible on the hot path;
// callers that need a longer-lived copy must clone the entities out.
type Snapshot struct {
	version uint64
	base    uint64
	// ents is the arena of entity copies in ID order; all and byID point
	// into it.
	ents    []Entity
	all     []*Entity
	changed []FieldMask
	byID    map[ID]int32
}

// Snapshot captures a deep copy of the store in ID order, diffed against
// the previous capture: Changed/At report which field groups of each
// entity differ from the prior snapshot (FieldAll for entities that appeared
// since). Buffers are recycled from the snapshot before last, making the
// steady-state capture allocation-free; see the Snapshot type for the
// resulting lifetime contract.
func (s *Store) Snapshot() *Snapshot {
	src := s.All()
	prev := s.snaps[s.version&1]
	s.version++
	sn := s.snaps[s.version&1]
	if sn == nil {
		sn = &Snapshot{byID: make(map[ID]int32, len(src))}
		s.snaps[s.version&1] = sn
	}
	sn.version = s.version
	sn.base = 0
	if prev != nil {
		sn.base = prev.version
	}
	if cap(sn.ents) < len(src) {
		sn.ents = make([]Entity, len(src))
		sn.all = make([]*Entity, len(src))
		sn.changed = make([]FieldMask, len(src))
	}
	sn.ents = sn.ents[:len(src)]
	sn.all = sn.all[:len(src)]
	sn.changed = sn.changed[:len(src)]
	clear(sn.byID)
	j := 0
	for i, e := range src {
		sn.ents[i] = *e
		sn.all[i] = &sn.ents[i]
		sn.byID[e.ID] = int32(i)
		mask := FieldAll
		if prev != nil {
			// Both arenas are ID-sorted: a single merge walk pairs each
			// entity with its previous copy (if any) to diff field groups.
			for j < len(prev.ents) && prev.ents[j].ID < e.ID {
				j++
			}
			if j < len(prev.ents) && prev.ents[j].ID == e.ID {
				mask = e.DiffMask(&prev.ents[j])
			}
		}
		sn.changed[i] = mask
	}
	return sn
}

// All returns every captured entity in ID order. Callers must not modify
// the entities: the slice is shared by every reader of the snapshot.
func (sn *Snapshot) All() []*Entity { return sn.all }

// At returns the captured entity at position p of All, with its
// changed-field mask relative to the previous snapshot. It is how the
// publish stage reads the entities an aoi position query found: an array
// index where Index is a map probe.
func (sn *Snapshot) At(p int32) (*Entity, FieldMask) {
	return &sn.ents[p], sn.changed[p]
}

// Index returns the position in All of a captured entity, in one map probe.
func (sn *Snapshot) Index(id ID) (int32, bool) {
	p, ok := sn.byID[id]
	return p, ok
}

// Changed reports the changed-field mask of a captured entity relative to
// the previous snapshot (zero when the ID was not captured).
func (sn *Snapshot) Changed(id ID) FieldMask {
	i, ok := sn.byID[id]
	if !ok {
		return 0
	}
	return sn.changed[i]
}

// Version is the monotonic capture version assigned by the store.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Base is the version the changed-field masks are relative to (zero for the
// first capture, whose masks are all FieldAll).
func (sn *Snapshot) Base() uint64 { return sn.base }

// Len reports the number of captured entities.
func (sn *Snapshot) Len() int { return len(sn.all) }

// Active returns the entities owned by serverID of the given kind
// (pass kind < 0 for all kinds), in ID order.
func (s *Store) Active(serverID string, kind int) []*Entity {
	return s.ActiveInto(nil, serverID, kind)
}

// ActiveInto appends the entities owned by serverID of the given kind
// (kind < 0 for all kinds) to dst, in ID order, and returns the extended
// slice. Passing a recycled dst[:0] keeps the per-tick partition
// allocation-free.
func (s *Store) ActiveInto(dst []*Entity, serverID string, kind int) []*Entity {
	for _, e := range s.All() {
		if e.Owner == serverID && (kind < 0 || Kind(kind) == e.Kind) {
			dst = append(dst, e)
		}
	}
	return dst
}

// Shadows returns the entities NOT owned by serverID, in ID order.
func (s *Store) Shadows(serverID string) []*Entity {
	var out []*Entity
	for _, e := range s.All() {
		if e.Owner != serverID {
			out = append(out, e)
		}
	}
	return out
}

// CountActive reports how many entities of the given kind serverID owns
// (kind < 0 counts all kinds).
func (s *Store) CountActive(serverID string, kind int) int {
	n := 0
	for _, e := range s.byID {
		if e.Owner == serverID && (kind < 0 || Kind(kind) == e.Kind) {
			n++
		}
	}
	return n
}

// ApplyShadowUpdate merges a replicated entity state received from the
// owning server. Stale updates (sequence number not newer than the stored
// one) are ignored, and an update never overwrites an entity the receiving
// server itself owns — ownership changes only through the migration
// protocol. It reports whether the update was applied.
func (s *Store) ApplyShadowUpdate(serverID string, upd *Entity) bool {
	cur, ok := s.byID[upd.ID]
	if !ok {
		s.Put(upd.Clone())
		return true
	}
	if cur.Owner == serverID {
		return false
	}
	if upd.Seq <= cur.Seq {
		return false
	}
	*cur = *upd
	return true
}
