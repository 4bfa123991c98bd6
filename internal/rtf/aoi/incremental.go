package aoi

import (
	"math"
	"math/bits"
	"slices"

	"roia/internal/rtf/entity"
)

// Incremental is a uniform spatial hash (cell edge = Radius, so visibility
// candidates lie in the 3×3 neighbourhood) that is maintained, not rebuilt:
// Build re-buckets only the entities that moved across a cell boundary since
// the previous tick and evicts the ones that despawned, and Move re-places
// one entity between Builds. The hash map is only consulted when a cell is
// entered for the first time or an entity changes cell: every entity keeps
// a small integer handle across ticks (found again by merge-walking the
// ID-sorted world against the previous tick's roster),
// its place in the index is an array read, and every cell carries direct
// links to its neighbours. An entity that stayed in its cell costs Build
// two stores (its coordinates and its index in world); a visibility query
// costs one map lookup. In the steady state Build allocates nothing, which is
// what lets the publish stage hit 0 allocs/op.
//
// Both visibility queries run the same cell scan. VisiblePositions orders
// what the scan finds through the caller's bitset and so ascends; Visible
// maps it to IDs as found — deterministic (cell scan order and within-cell
// insertion order are fully determined by the Build and Move history) but
// not sorted. NearPositions answers any radius from the same cells, ordered
// the same way; it is what the server's simulate stage offers applications
// as Env.Near.
type Incremental struct {
	// Radius is the visibility radius.
	Radius float64

	// cells holds every cell an entity has ever occupied, index maps a
	// cell's coordinates to its position in cells. Emptied cells keep
	// their slice (capacity is the point of the exercise); both grow with
	// the area the world has ever visited, bounded by world size / Radius.
	cells []cell
	index map[cellKey]int32
	// where[h] is the place of the entity holding handle h; free lists the
	// handles of despawned entities for reuse.
	where []place
	free  []int32
	// ids/handles are the previous Build's roster in ascending ID order;
	// nextIDs/nextHandles are the scratch the current Build fills.
	ids, nextIDs         []entity.ID
	handles, nextHandles []int32
}

type cellKey struct{ cx, cy int32 }

// neighbourhood lists the cells of a 3×3 block by their position in
// Incremental.cells, row by row; -1 where no cell exists.
type neighbourhood [9]int32

type cell struct {
	key       cellKey
	residents []resident
	// near is the cell's 3×3 neighbourhood, itself included (near[4]).
	near neighbourhood
}

// resident is an entity as its cell holds it. at is the entity's index in
// the world of the last Build, which touches every resident once.
type resident struct {
	id     entity.ID
	pos    entity.Vec2
	handle int32
	at     int32
}

// place locates a resident: residents[idx] of cells[cell]. cell is -1
// while the handle's entity is in no cell.
type place struct{ cell, idx int32 }

// NewIncremental returns an Incremental manager with the given visibility
// radius.
func NewIncremental(radius float64) *Incremental {
	return &Incremental{Radius: radius}
}

// cellSize is the cell edge: the visibility radius.
func (g *Incremental) cellSize() float64 {
	if g.Radius <= 0 {
		return 1
	}
	return g.Radius
}

func (g *Incremental) key(pos entity.Vec2) cellKey {
	cs := g.cellSize()
	return cellKey{int32(math.Floor(pos.X / cs)), int32(math.Floor(pos.Y / cs))}
}

// Build implements Manager: it folds the tick's world (ascending ID order)
// into the live index. New entities are bucketed, entities that crossed a
// cell boundary are re-bucketed, entities that stayed in their cell get
// their stored coordinates and world index refreshed, and entities absent
// from world are evicted — all found by one merge walk of the previous
// roster and world.
func (g *Incremental) Build(world []*entity.Entity) {
	if g.index == nil {
		g.index = make(map[cellKey]int32)
	}
	g.nextIDs, g.nextHandles = g.nextIDs[:0], g.nextHandles[:0]
	i := 0
	for at, e := range world {
		for ; i < len(g.ids) && g.ids[i] < e.ID; i++ {
			g.evict(g.handles[i])
		}
		var h int32
		switch {
		case i < len(g.ids) && g.ids[i] == e.ID:
			h = g.handles[i]
			i++
		case len(g.free) > 0:
			h = g.free[len(g.free)-1]
			g.free = g.free[:len(g.free)-1]
		default:
			h = int32(len(g.where))
			g.where = append(g.where, place{cell: -1})
		}
		g.nextIDs = append(g.nextIDs, e.ID)
		g.nextHandles = append(g.nextHandles, h)

		k := g.key(e.Pos)
		if p := g.where[h]; p.cell >= 0 {
			if c := &g.cells[p.cell]; c.key == k {
				r := &c.residents[p.idx]
				r.pos, r.at = e.Pos, int32(at)
				continue
			}
			g.remove(p)
		}
		g.insert(k, resident{id: e.ID, pos: e.Pos, handle: h, at: int32(at)})
	}
	for ; i < len(g.ids); i++ {
		g.evict(g.handles[i])
	}
	g.ids, g.nextIDs = g.nextIDs, g.ids
	g.handles, g.nextHandles = g.nextHandles, g.handles
}

// Move re-places one entity of the last Build's world that has since moved
// to pos, so queries before the next Build see it there: a binary search of
// the roster for its handle, then a coordinate store — or, across a cell
// boundary, a swap-delete and an append. It reports whether id is in the
// world. Like Build it belongs to the tick goroutine, with no query running.
func (g *Incremental) Move(id entity.ID, pos entity.Vec2) bool {
	i, ok := slices.BinarySearch(g.ids, id)
	if !ok {
		return false
	}
	p := g.where[g.handles[i]]
	c := &g.cells[p.cell]
	if k := g.key(pos); c.key == k {
		c.residents[p.idx].pos = pos
	} else {
		r := c.residents[p.idx]
		r.pos = pos
		g.remove(p)
		g.insert(k, r)
	}
	return true
}

// insert appends r to the cell with coordinates k and records its place.
func (g *Incremental) insert(k cellKey, r resident) {
	ci := g.cellAt(k)
	c := &g.cells[ci]
	g.where[r.handle] = place{cell: ci, idx: int32(len(c.residents))}
	c.residents = append(c.residents, r)
}

// evict drops a despawned entity from its cell and recycles its handle.
func (g *Incremental) evict(h int32) {
	g.remove(g.where[h])
	g.where[h].cell = -1
	g.free = append(g.free, h)
}

// remove swap-deletes the resident at p from its cell and re-points the
// displaced resident's place.
func (g *Incremental) remove(p place) {
	c := &g.cells[p.cell]
	last := int32(len(c.residents) - 1)
	if p.idx != last {
		moved := c.residents[last]
		c.residents[p.idx] = moved
		g.where[moved.handle].idx = p.idx
	}
	c.residents = c.residents[:last]
}

// cellAt returns the cell with the given coordinates, creating it — and
// linking it with the neighbours that exist — on first use.
func (g *Incremental) cellAt(k cellKey) int32 {
	if ci, ok := g.index[k]; ok {
		return ci
	}
	ci := int32(len(g.cells))
	g.index[k] = ci
	g.cells = append(g.cells, cell{key: k})
	near := g.around(k)
	g.cells[ci].near = near
	for slot, n := range near {
		if n >= 0 {
			g.cells[n].near[len(near)-1-slot] = ci // the opposite direction
		}
	}
	return ci
}

// around looks the 3×3 neighbourhood of k up in the hash map.
func (g *Incremental) around(k cellKey) neighbourhood {
	var near neighbourhood
	slot := 0
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			ci, ok := g.index[cellKey{k.cx + dx, k.cy + dy}]
			if !ok {
				ci = -1
			}
			near[slot] = ci
			slot++
		}
	}
	return near
}

// scan appends the world index of every entity within Radius of pos, the
// subject excepted, in cell order. It never mutates the index (the Manager
// concurrency contract); if Build has not run yet it falls back to a
// read-only linear scan of world.
func (g *Incremental) scan(dst []int32, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []int32 {
	r2 := g.Radius * g.Radius
	if len(g.cells) == 0 {
		for at, cand := range world {
			if cand.ID != subject && pos.Dist2(cand.Pos) <= r2 {
				dst = append(dst, int32(at))
			}
		}
		return dst
	}
	// A disc of radius R around a point only reaches the 3×3 cells around
	// the point's own: floor((x±R)/R) is bounded by floor(x/R) ± 1. A
	// subject of the world stands in an existing cell, whose links answer
	// the query; any other position is looked up cell by cell.
	k := g.key(pos)
	var near neighbourhood
	if ci, ok := g.index[k]; ok {
		near = g.cells[ci].near
	} else {
		near = g.around(k)
	}
	for _, n := range near {
		if n < 0 {
			continue
		}
		for _, cand := range g.cells[n].residents {
			if cand.id != subject && pos.Dist2(cand.pos) <= r2 {
				dst = append(dst, cand.at)
			}
		}
	}
	return dst
}

// Visible implements Manager: the scan's hits mapped to IDs, in cell order.
func (g *Incremental) Visible(dst []entity.ID, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []entity.ID {
	var hits [256]int32 // on the stack; only a larger visible set reaches the heap
	for _, at := range g.scan(hits[:0], subject, pos, world) {
		dst = append(dst, world[at].ID)
	}
	return dst
}

// VisiblePositions implements Manager, ordering the scan's hits through
// marks.
func (g *Incremental) VisiblePositions(dst []int32, marks []uint64, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []int32 {
	start := len(dst)
	dst = g.scan(dst, subject, pos, world)
	ascend(dst[start:], marks)
	return dst
}

// NearPositions appends, in strictly ascending order, the index in the last
// Build's world of every entity within r of pos — whichever cells the disc's
// bounding square reaches, so r may exceed the cell edge. Nobody is excepted:
// an entity standing at pos is its own neighbour. dst and marks are as in
// VisiblePositions, and like it the query only reads the index.
func (g *Incremental) NearPositions(dst []int32, marks []uint64, pos entity.Vec2, r float64) []int32 {
	start := len(dst)
	r2 := r * r
	cs := g.cellSize()
	x0, x1 := math.Floor((pos.X-r)/cs), math.Floor((pos.X+r)/cs)
	y0, y1 := math.Floor((pos.Y-r)/cs), math.Floor((pos.Y+r)/cs)
	if (x1-x0+1)*(y1-y0+1) >= float64(len(g.cells)) {
		// The square holds more cells than exist: visit those.
		for ci := range g.cells {
			dst = g.cells[ci].within(dst, pos, r2)
		}
	} else {
		for cy := int32(y0); cy <= int32(y1); cy++ {
			for cx := int32(x0); cx <= int32(x1); cx++ {
				if ci, ok := g.index[cellKey{cx, cy}]; ok {
					dst = g.cells[ci].within(dst, pos, r2)
				}
			}
		}
	}
	ascend(dst[start:], marks)
	return dst
}

// within appends the world index of every resident within √r2 of pos.
func (c *cell) within(dst []int32, pos entity.Vec2, r2 float64) []int32 {
	for _, cand := range c.residents {
		if pos.Dist2(cand.pos) <= r2 {
			dst = append(dst, cand.at)
		}
	}
	return dst
}

// ascend sorts hits — distinct indices below 64·len(marks) — without
// comparing them: each sets its bit in marks, and reading the set bits back
// word by word, lowest first, overwrites hits in ascending order and leaves
// marks zeroed.
func ascend(hits []int32, marks []uint64) {
	for _, at := range hits {
		marks[at>>6] |= 1 << (at & 63)
	}
	n := 0
	for w := 0; n < len(hits); w++ {
		for m := marks[w]; m != 0; m &= m - 1 {
			hits[n] = int32(w<<6 | bits.TrailingZeros64(m))
			n++
		}
		marks[w] = 0
	}
}
