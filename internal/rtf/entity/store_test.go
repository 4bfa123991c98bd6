package entity

import (
	"sync"
	"testing"
)

// TestSnapshotImmutableUnderMutation is the regression test for the
// Store.All() shared-slice footgun: a snapshot taken before a burst of
// Put/Remove/in-place mutation must keep returning the captured state,
// element for element, while the live store changes underneath it.
func TestSnapshotImmutableUnderMutation(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 8; i++ {
		s.Put(&Entity{ID: ID(i), Kind: Avatar, Pos: Vec2{X: float64(i)}, Health: 100, Owner: "s1", Seq: uint64(i)})
	}
	snap := s.Snapshot()
	if snap.Len() != 8 {
		t.Fatalf("snapshot Len = %d, want 8", snap.Len())
	}

	// Mutate the live store every way it can change: remove, insert, and
	// edit entities in place (what the tick loop does between stages).
	s.Remove(ID(3))
	s.Put(&Entity{ID: ID(100), Kind: NPC, Owner: "s1"})
	for _, e := range s.All() {
		e.Pos.X += 1000
		e.Health = 1
	}

	for i, want := 0, 1; want <= 8; i, want = i+1, want+1 {
		e := snap.All()[i]
		if e.ID != ID(want) {
			t.Fatalf("snapshot order[%d] = %d, want %d", i, e.ID, want)
		}
		if e.Pos.X != float64(want) || e.Health != 100 {
			t.Errorf("snapshot entity %d mutated: pos.X=%v health=%d", want, e.Pos.X, e.Health)
		}
		if p, ok := snap.Index(ID(want)); !ok || p != int32(i) {
			t.Errorf("snapshot Index(%d) = %d, %v; want %d", want, p, ok, i)
		}
		if at, mask := snap.At(int32(i)); at != e || mask != snap.Changed(e.ID) {
			t.Errorf("snapshot At(%d) = %v, %v; want the captured copy and its mask", i, at, mask)
		}
	}
	if _, ok := snap.Index(ID(100)); ok {
		t.Error("snapshot sees entity inserted after capture")
	}
	if _, ok := s.Get(ID(3)); ok {
		t.Error("live store still has removed entity")
	}
}

// TestSnapshotConcurrentReaders drives concurrent snapshot reads against
// live-store mutation; run with -race this proves the publish fan-out can
// read a snapshot while the tick loop mutates the store.
func TestSnapshotConcurrentReaders(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 64; i++ {
		s.Put(&Entity{ID: ID(i), Kind: Avatar, Pos: Vec2{X: float64(i)}, Owner: "s1"})
	}
	snap := s.Snapshot()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 100; iter++ {
				sum := 0.0
				for _, e := range snap.All() {
					sum += e.Pos.X
				}
				if want := 64.0 * 65 / 2; sum != want {
					t.Errorf("snapshot sum = %v, want %v", sum, want)
					return
				}
			}
		}()
	}
	for i := 1; i <= 64; i++ {
		if i%2 == 0 {
			s.Remove(ID(i))
		} else if e, ok := s.Get(ID(i)); ok {
			e.Pos.X = -1
		}
		s.Put(&Entity{ID: ID(1000 + i), Kind: NPC, Owner: "s1"})
	}
	wg.Wait()
}
