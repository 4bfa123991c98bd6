package aoi

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"roia/internal/rtf/entity"
)

// TestIncrementalMatchesEuclidProperty drives an incremental index through
// many ticks of random walks, teleports, spawns and despawns and checks
// after every rebuild that its answers match the brute-force Euclid
// reference for every subject. The incremental index only re-buckets moved
// entities, so the property specifically exercises the stale-slot paths a
// single-build comparison cannot reach — for the position query, a world
// index that went stale when a spawn or despawn shifted the world.
func TestIncrementalMatchesEuclidProperty(t *testing.T) {
	prop := func(seed int64, n8 uint8, radiusRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%60) + 4
		radius := float64(radiusRaw%50) + 1
		euclid := NewEuclid(radius)
		inc := NewIncremental(radius)

		world := make([]*entity.Entity, 0, n)
		nextID := entity.ID(1)
		for i := 0; i < n; i++ {
			world = append(world, &entity.Entity{
				ID:  nextID,
				Pos: entity.Vec2{X: rng.Float64() * 200, Y: rng.Float64() * 200},
			})
			nextID++
		}

		for tick := 0; tick < 12; tick++ {
			for _, e := range world {
				switch rng.Intn(10) {
				case 0: // teleport: arbitrary cell jump
					e.Pos = entity.Vec2{X: rng.Float64()*400 - 100, Y: rng.Float64()*400 - 100}
				case 1, 2, 3: // stand still: slot refresh path
				default: // walk: usually a neighbouring cell at most
					e.Pos.X += rng.Float64()*6 - 3
					e.Pos.Y += rng.Float64()*6 - 3
				}
			}
			if len(world) > 4 && rng.Intn(3) == 0 { // despawn: eviction path
				i := rng.Intn(len(world))
				world = append(world[:i], world[i+1:]...)
			}
			if rng.Intn(3) == 0 { // spawn: first-seen path
				world = append(world, &entity.Entity{
					ID:  nextID,
					Pos: entity.Vec2{X: rng.Float64() * 200, Y: rng.Float64() * 200},
				})
				nextID++
			}
			// The store hands AoI managers ID-sorted worlds; despawn+spawn
			// above preserves order except for the swap-free delete, so
			// re-sort to honour the contract.
			slices.SortFunc(world, func(a, b *entity.Entity) int {
				if a.ID < b.ID {
					return -1
				}
				return 1
			})
			inc.Build(world)
			unbuilt := &Incremental{Radius: radius}
			// One bitset serves every subject of the tick: each query must
			// hand it back zeroed, or a later answer inherits earlier hits.
			marks := make([]uint64, (len(world)+63)/64)
			var at []int32
			// Every subject of the world, plus one observer standing where
			// possibly no entity ever has (a cell the index does not hold).
			probes := append(slices.Clone(world), &entity.Entity{
				Pos: entity.Vec2{X: rng.Float64()*600 - 200, Y: rng.Float64()*600 - 200},
			})
			for _, subj := range probes {
				want := euclid.Visible(nil, subj.ID, subj.Pos, world)
				got := inc.Visible(nil, subj.ID, subj.Pos, world)
				slices.Sort(want)
				slices.Sort(got)
				if !slices.Equal(want, got) {
					t.Logf("tick %d subject %d: euclid=%v incremental=%v", tick, subj.ID, want, got)
					return false
				}
				at = inc.VisiblePositions(at[:0], marks, subj.ID, subj.Pos, world)
				ids := make([]entity.ID, len(at))
				for i, p := range at {
					if i > 0 && p <= at[i-1] {
						t.Logf("tick %d subject %d: positions not strictly ascending: %v", tick, subj.ID, at)
						return false
					}
					ids[i] = world[p].ID
				}
				if !slices.Equal(want, ids) { // want is sorted, so this checks the order too
					t.Logf("tick %d subject %d: euclid=%v positions→%v", tick, subj.ID, want, ids)
					return false
				}
				if !slices.Equal(at, unbuilt.VisiblePositions(nil, marks, subj.ID, subj.Pos, world)) ||
					!slices.Equal(at, euclid.VisiblePositions(nil, nil, subj.ID, subj.Pos, world)) {
					t.Logf("tick %d subject %d: unbuilt fallback or Euclid disagree with %v", tick, subj.ID, at)
					return false
				}
			}
			if slices.ContainsFunc(marks, func(w uint64) bool { return w != 0 }) {
				t.Logf("tick %d: marks left dirty: %x", tick, marks)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestNearPositionsAndMoveProperty is the simulate stage in small: Build
// over a world that gains and loses entities, then displacements told to the
// index one at a time with Move. After every batch of moves, NearPositions
// must equal a brute-force scan for radii below, at and above the cell edge
// (50) — ascending, the shared bitset left zero — and the re-placed index
// must answer every query, visibility included, exactly like an index built
// from scratch over the same world.
func TestNearPositionsAndMoveProperty(t *testing.T) {
	prop := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		somewhere := func() entity.Vec2 {
			return entity.Vec2{X: rng.Float64()*500 - 100, Y: rng.Float64()*500 - 100}
		}
		inc := NewIncremental(50)
		var world []*entity.Entity
		nextID := entity.ID(1)
		for n := int(n8%60) + 4; len(world) < n; nextID++ {
			world = append(world, &entity.Entity{ID: nextID, Pos: somewhere()})
		}
		for tick := 0; tick < 10; tick++ {
			if len(world) > 4 && rng.Intn(2) == 0 {
				i := rng.Intn(len(world))
				world = append(world[:i], world[i+1:]...)
			}
			if rng.Intn(2) == 0 {
				world = append(world, &entity.Entity{ID: nextID, Pos: somewhere()})
				nextID++
			}
			inc.Build(world)
			for _, e := range world {
				switch rng.Intn(4) {
				case 0: // teleport, as a respawn does
					e.Pos = somewhere()
				case 1: // step, now and then across a cell edge
					e.Pos.X += rng.Float64()*10 - 5
					e.Pos.Y += rng.Float64()*10 - 5
				default:
					continue
				}
				if !inc.Move(e.ID, e.Pos) {
					t.Logf("tick %d: Move does not know entity %d", tick, e.ID)
					return false
				}
			}
			if inc.Move(nextID, somewhere()) {
				t.Logf("tick %d: Move knows entity %d, which is not in the world", tick, nextID)
				return false
			}
			fresh := NewIncremental(50)
			fresh.Build(world)

			marks := make([]uint64, (len(world)+63)/64)
			var got, want []int32
			probes := []entity.Vec2{somewhere(), {X: 100, Y: 100}, {X: -1e4, Y: 50}}
			for _, e := range world {
				probes = append(probes, e.Pos)
			}
			for _, pos := range probes {
				for _, r := range []float64{10, 50, 60, 175} {
					want = want[:0]
					for p, e := range world {
						if pos.Dist2(e.Pos) <= r*r {
							want = append(want, int32(p))
						}
					}
					got = inc.NearPositions(got[:0], marks, pos, r)
					if !slices.Equal(got, want) || !slices.Equal(fresh.NearPositions(nil, marks, pos, r), want) {
						t.Logf("tick %d pos %v r %g: got %v, want %v", tick, pos, r, got, want)
						return false
					}
				}
			}
			for _, subj := range world {
				got = inc.VisiblePositions(got[:0], marks, subj.ID, subj.Pos, world)
				if !slices.Equal(got, fresh.VisiblePositions(nil, marks, subj.ID, subj.Pos, world)) {
					t.Logf("tick %d subject %d: re-placed and rebuilt index see different entities", tick, subj.ID)
					return false
				}
			}
			if slices.ContainsFunc(marks, func(w uint64) bool { return w != 0 }) {
				t.Logf("tick %d: marks left dirty: %x", tick, marks)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalVisibleConcurrent hammers Visible from 8 goroutines
// between builds — the Manager contract says Visible is a concurrent
// read-only query, and the race detector holds the incremental index to
// it.
func TestIncrementalVisibleConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	world := make([]*entity.Entity, 64)
	for i := range world {
		world[i] = &entity.Entity{
			ID:  entity.ID(i + 1),
			Pos: entity.Vec2{X: rng.Float64() * 100, Y: rng.Float64() * 100},
		}
	}
	inc := NewIncremental(25)
	euclid := NewEuclid(25)
	for tick := 0; tick < 8; tick++ {
		for _, e := range world {
			e.Pos.X += rng.Float64()*4 - 2
			e.Pos.Y += rng.Float64()*4 - 2
		}
		inc.Build(world)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst := make([]entity.ID, 0, 64)
				for i := g; i < len(world); i += 8 {
					subj := world[i]
					got := inc.Visible(dst[:0], subj.ID, subj.Pos, world)
					want := euclid.Visible(nil, subj.ID, subj.Pos, world)
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(want, got) {
						t.Errorf("subject %d: euclid=%v incremental=%v", subj.ID, want, got)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
