// Package aoi implements interest management: computing each user's area of
// interest so that state-update filtering only transmits visible changes
// (step 4 of the paper's real-time loop, parameter t_aoi).
//
// Incremental, a maintained uniform spatial hash, is the production index
// (the server default). Euclid is the Euclidean Distance Algorithm used by
// RTFDemo (Section V-A, citing Boulanger et al.): for every subject,
// iterate over all other entities, test the distance against the
// visibility radius, and guard each subscription with a duplicate check
// over the subject's update list. Its per-user cost grows quadratically
// with the user count — the behaviour the paper fits t_aoi with — and it
// stays as the oracle the tests compare Incremental against.
package aoi

import "roia/internal/rtf/entity"

// Manager computes the set of entities visible to a subject.
//
// Concurrency contract: Build is called by the tick goroutine with no query
// in flight — on the snapshot before publishing and, for the index behind
// the server's Env.Near, on the live store before the simulate stage — and
// so is Incremental's Move. Between one such call and the next, Visible and
// VisiblePositions must be safe to call from multiple goroutines
// concurrently — the parallel publish stage fans per-user
// queries over a worker pool — so they must not mutate manager state. Each
// caller passes its own dst and marks; world is the same immutable snapshot
// slice Build received and must not be written through. Both
// implementations in this package satisfy the contract.
type Manager interface {
	// Build prepares the manager for a tick's worth of queries over the
	// given world (e.g. re-indexing a spatial hash). Managers without
	// per-tick state treat it as a no-op. world is in ascending ID order.
	Build(world []*entity.Entity)
	// Visible appends to dst the IDs of all entities in world (excluding
	// the subject itself) within the manager's visibility radius of pos,
	// and returns the extended slice. The order is the manager's own.
	Visible(dst []entity.ID, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []entity.ID
	// VisiblePositions answers the same query in position space: it
	// appends, in strictly ascending order, the index p of every visible
	// world[p]. world is ID-sorted, so the IDs ascend too — the publish
	// stage merge-walks the result without sorting it and reads each
	// entity by its position in the tick's snapshot. Positions index the
	// slice given to the last Build, which must be the world passed here.
	//
	// marks is scratch the caller owns, one per querying goroutine: at
	// least ⌈len(world)/64⌉ words, all zero on entry and left all zero on
	// return, so one buffer serves any number of queries.
	VisiblePositions(dst []int32, marks []uint64, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []int32
}

// Euclid is the paper's O(n²)-flavoured Euclidean Distance Algorithm.
type Euclid struct {
	// Radius is the visibility radius.
	Radius float64
}

// NewEuclid returns a Euclid manager with the given visibility radius.
func NewEuclid(radius float64) *Euclid { return &Euclid{Radius: radius} }

// Build implements Manager; the Euclidean algorithm keeps no per-tick
// state, so it is a no-op.
func (e *Euclid) Build([]*entity.Entity) {}

// Visible implements Manager. Following the paper's description of
// RTFDemo, each candidate subscription scans the update list built so far
// to avoid duplicate entries ("for each subscription, RTFDemo iterates
// through the update list in order to avoid duplicate entries").
func (e *Euclid) Visible(dst []entity.ID, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []entity.ID {
	r2 := e.Radius * e.Radius
	start := len(dst)
	for _, cand := range world {
		if cand.ID == subject {
			continue
		}
		if pos.Dist2(cand.Pos) > r2 {
			continue
		}
		dup := false
		for _, seen := range dst[start:] {
			if seen == cand.ID {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, cand.ID)
		}
	}
	return dst
}

// VisiblePositions implements Manager. The scan runs in world order, so
// the positions ascend as found; marks goes unused.
func (e *Euclid) VisiblePositions(dst []int32, _ []uint64, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []int32 {
	r2 := e.Radius * e.Radius
	for p, cand := range world {
		if cand.ID != subject && pos.Dist2(cand.Pos) <= r2 {
			dst = append(dst, int32(p))
		}
	}
	return dst
}
