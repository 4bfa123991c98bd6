// Package zone implements RTF's application-state distribution methods:
// zoning (disjoint areas processed by distinct servers), instancing
// (independent copies of a zone) and replication (multiple servers
// cooperating on one zone, each responsible for a disjoint subset of
// entities) — the right-hand side of Fig. 1 in the paper.
package zone

import (
	"fmt"
	"sort"
	"sync"

	"roia/internal/rtf/entity"
)

// ID identifies a zone within a world.
type ID uint32

// Rect is an axis-aligned area of the virtual environment.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether p lies in the rectangle (inclusive lower edge,
// exclusive upper edge, so adjacent zones tile without overlap).
func (r Rect) Contains(p entity.Vec2) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// Center returns the rectangle's midpoint.
func (r Rect) Center() entity.Vec2 {
	return entity.Vec2{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Zone is one disjoint area of the virtual environment.
type Zone struct {
	ID     ID
	Name   string
	Bounds Rect
}

// World is the static zone layout of one application.
type World struct {
	zones map[ID]*Zone
	order []ID
}

// NewWorld returns an empty world.
func NewWorld() *World {
	return &World{zones: make(map[ID]*Zone)}
}

// GridWorld builds a world of cols×rows equal zones tiling the given area,
// the usual layout for open-world ROIA.
func GridWorld(cols, rows int, width, height float64) *World {
	w := NewWorld()
	zw, zh := width/float64(cols), height/float64(rows)
	id := ID(1)
	for ry := 0; ry < rows; ry++ {
		for cx := 0; cx < cols; cx++ {
			w.Add(&Zone{
				ID:   id,
				Name: fmt.Sprintf("zone-%d-%d", cx, ry),
				Bounds: Rect{
					MinX: float64(cx) * zw, MinY: float64(ry) * zh,
					MaxX: float64(cx+1) * zw, MaxY: float64(ry+1) * zh,
				},
			})
			id++
		}
	}
	return w
}

// Add registers a zone; it panics on a duplicate ID (layout is static
// configuration, so a duplicate is a programming error).
func (w *World) Add(z *Zone) {
	if _, dup := w.zones[z.ID]; dup {
		panic(fmt.Sprintf("zone: duplicate zone id %d", z.ID))
	}
	w.zones[z.ID] = z
	w.order = append(w.order, z.ID)
	sort.Slice(w.order, func(i, j int) bool { return w.order[i] < w.order[j] })
}

// Get looks a zone up by ID.
func (w *World) Get(id ID) (*Zone, bool) {
	z, ok := w.zones[id]
	return z, ok
}

// Zones returns all zones in ID order.
func (w *World) Zones() []*Zone {
	out := make([]*Zone, 0, len(w.order))
	for _, id := range w.order {
		out = append(out, w.zones[id])
	}
	return out
}

// Locate returns the zone containing p, or false if p is outside every
// zone.
func (w *World) Locate(p entity.Vec2) (*Zone, bool) {
	for _, id := range w.order {
		if w.zones[id].Bounds.Contains(p) {
			return w.zones[id], true
		}
	}
	return nil, false
}

// Assignment tracks which servers process which zone: the replica group of
// each zone (replication), and independent instance copies (instancing).
// Assignment is safe for concurrent use — the resource manager mutates it
// while servers read it.
type Assignment struct {
	mu sync.RWMutex
	// replicas[zone] is the ordered replica group (server IDs).
	replicas map[ID][]string
	// instances[zone] is the list of instance session names.
	instances map[ID][]string
}

// NewAssignment returns an empty assignment.
func NewAssignment() *Assignment {
	return &Assignment{
		replicas:  make(map[ID][]string),
		instances: make(map[ID][]string),
	}
}

// AddReplica appends a server to the zone's replica group. It reports
// false if the server is already in the group.
func (a *Assignment) AddReplica(z ID, serverID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range a.replicas[z] {
		if s == serverID {
			return false
		}
	}
	a.replicas[z] = append(a.replicas[z], serverID)
	return true
}

// RemoveReplica removes a server from the zone's replica group. It reports
// false if the server was not in the group. Removing the last replica
// leaves the zone unstaffed: keeping every zone served (Section IV,
// resource removal) is the resource manager's rule, not the
// assignment's, so a stopped server never stays listed.
func (a *Assignment) RemoveReplica(z ID, serverID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	group := a.replicas[z]
	for i, s := range group {
		if s == serverID {
			if len(group) == 1 {
				delete(a.replicas, z)
			} else {
				a.replicas[z] = append(append([]string(nil), group[:i]...), group[i+1:]...)
			}
			return true
		}
	}
	return false
}

// Replicas returns a copy of the zone's replica group in assignment order.
func (a *Assignment) Replicas(z ID) []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]string(nil), a.replicas[z]...)
}

// ReplicaCount reports the size of the zone's replica group.
func (a *Assignment) ReplicaCount(z ID) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.replicas[z])
}

// Peers returns the zone's replica group without the given server.
func (a *Assignment) Peers(z ID, serverID string) []string {
	return a.PeersInto(nil, z, serverID)
}

// PeersInto appends the zone's replica group without the given server to
// dst and returns the extended slice. The tick loop passes a recycled
// dst[:0] so the per-tick peer lookup stays allocation-free.
func (a *Assignment) PeersInto(dst []string, z ID, serverID string) []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, s := range a.replicas[z] {
		if s != serverID {
			dst = append(dst, s)
		}
	}
	return dst
}

// IsReplica reports whether the server is in the zone's replica group.
func (a *Assignment) IsReplica(z ID, serverID string) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, s := range a.replicas[z] {
		if s == serverID {
			return true
		}
	}
	return false
}

// AddInstance registers a new independent instance session of a zone and
// returns its instance name.
func (a *Assignment) AddInstance(z ID) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	name := fmt.Sprintf("zone%d-inst%d", z, len(a.instances[z])+1)
	a.instances[z] = append(a.instances[z], name)
	return name
}

// Instances returns the zone's instance session names.
func (a *Assignment) Instances(z ID) []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]string(nil), a.instances[z]...)
}

// Zones returns every zone that has at least one replica, in ID order.
func (a *Assignment) Zones() []ID {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]ID, 0, len(a.replicas))
	for z := range a.replicas {
		out = append(out, z)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
