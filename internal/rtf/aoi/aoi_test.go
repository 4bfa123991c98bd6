package aoi

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"roia/internal/rtf/entity"
)

func mkWorld(positions []entity.Vec2) []*entity.Entity {
	world := make([]*entity.Entity, len(positions))
	for i, p := range positions {
		world[i] = &entity.Entity{ID: entity.ID(i + 1), Pos: p}
	}
	return world
}

func TestEuclidVisibleBasic(t *testing.T) {
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 4}})
	e := NewEuclid(5)
	got := e.Visible(nil, 1, world[0].Pos, world)
	want := []entity.ID{2, 4} // dist 3 and 4; entity 3 at dist 10 excluded
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Visible = %v, want %v", got, want)
	}
}

func TestEuclidExcludesSubject(t *testing.T) {
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}})
	e := NewEuclid(100)
	got := e.Visible(nil, 1, world[0].Pos, world)
	for _, id := range got {
		if id == 1 {
			t.Fatal("subject included in own AoI")
		}
	}
}

func TestEuclidBoundaryInclusive(t *testing.T) {
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 5, Y: 0}})
	e := NewEuclid(5)
	got := e.Visible(nil, 1, world[0].Pos, world)
	if len(got) != 1 {
		t.Fatalf("entity exactly at radius excluded: %v", got)
	}
}

func TestEuclidNoDuplicates(t *testing.T) {
	// Duplicate IDs in the world list (e.g. transiently during migration)
	// must not produce duplicate subscriptions.
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}})
	world = append(world, world[1]) // same entity listed twice
	e := NewEuclid(10)
	got := e.Visible(nil, 1, world[0].Pos, world)
	if len(got) != 1 {
		t.Fatalf("duplicate subscription: %v", got)
	}
}

// TestVisibleConcurrent exercises the Manager concurrency contract: after
// one Build, Visible and VisiblePositions must be callable from many
// goroutines at once, each with its own dst and marks. Run under -race this
// proves both implementations are read-only per query — the index's
// pre-Build fallback scan included — and every answer is held to the
// Euclid oracle's. The index's NearPositions is held to the same: its row
// queries an index that entities were re-placed in with Move after Build.
func TestVisibleConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	positions := make([]entity.Vec2, 200)
	for i := range positions {
		positions[i] = entity.Vec2{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	world := mkWorld(positions)
	moved := NewIncremental(25)
	for _, tc := range []struct {
		name string
		mgr  Manager
		// near, when set, is a radius for NearPositions queries.
		near float64
	}{
		{name: "euclid", mgr: NewEuclid(25)},
		{name: "incremental", mgr: NewIncremental(25)},
		{name: "incremental-unbuilt", mgr: &Incremental{Radius: 25}},
		{name: "incremental-moved-near", mgr: moved, near: 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name != "incremental-unbuilt" {
				tc.mgr.Build(world)
			}
			if tc.mgr == moved {
				for i := 0; i < len(world); i += 3 {
					world[i].Pos = entity.Vec2{X: rng.Float64() * 100, Y: rng.Float64() * 100}
					moved.Move(world[i].ID, world[i].Pos)
				}
			}
			oracle := NewEuclid(25)
			want := make([][]entity.ID, len(world))
			wantNear := make([][]entity.ID, len(world))
			for i, subj := range world {
				want[i] = oracle.Visible(nil, subj.ID, subj.Pos, world)
				wantNear[i] = NewEuclid(tc.near).Visible(nil, 0, subj.Pos, world)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var dst []entity.ID
					var at []int32
					marks := make([]uint64, (len(world)+63)/64)
					for i, subj := range world {
						sameIDs := func(p int32, id entity.ID) bool { return world[p].ID == id }
						at = tc.mgr.VisiblePositions(at[:0], marks, subj.ID, subj.Pos, world)
						if !slices.EqualFunc(at, want[i], sameIDs) {
							t.Errorf("subj %d: concurrent VisiblePositions diverged", subj.ID)
							return
						}
						if tc.near > 0 {
							at = moved.NearPositions(at[:0], marks, subj.Pos, tc.near)
							if !slices.EqualFunc(at, wantNear[i], sameIDs) {
								t.Errorf("subj %d: concurrent NearPositions diverged", subj.ID)
								return
							}
						}
						dst = tc.mgr.Visible(dst[:0], subj.ID, subj.Pos, world)
						slices.Sort(dst)
						if len(dst) != len(want[i]) {
							t.Errorf("subj %d: concurrent Visible len %d, want %d", subj.ID, len(dst), len(want[i]))
							return
						}
						for j := range dst {
							if dst[j] != want[i][j] {
								t.Errorf("subj %d: concurrent Visible diverged", subj.ID)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestVisibleAppendsToDst(t *testing.T) {
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}})
	e := NewEuclid(10)
	dst := make([]entity.ID, 1, 8)
	dst[0] = 99
	got := e.Visible(dst, 1, world[0].Pos, world)
	if len(got) != 2 || got[0] != 99 || got[1] != 2 {
		t.Fatalf("append semantics broken: %v", got)
	}
}
