package zone

import (
	"testing"

	"roia/internal/rtf/entity"
)

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	cases := []struct {
		p    entity.Vec2
		want bool
	}{
		{entity.Vec2{X: 5, Y: 5}, true},
		{entity.Vec2{X: 0, Y: 0}, true},   // inclusive lower edge
		{entity.Vec2{X: 10, Y: 5}, false}, // exclusive upper edge
		{entity.Vec2{X: 5, Y: 10}, false}, // exclusive upper edge
		{entity.Vec2{X: -1, Y: 5}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Fatalf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := r.Center(); got != (entity.Vec2{X: 5, Y: 5}) {
		t.Fatalf("Center = %v", got)
	}
}

func TestGridWorldTilesWithoutOverlap(t *testing.T) {
	w := GridWorld(3, 2, 300, 200)
	if got := len(w.Zones()); got != 6 {
		t.Fatalf("zones = %d, want 6", got)
	}
	// Every interior point belongs to exactly one zone.
	for x := 5.0; x < 300; x += 29 {
		for y := 5.0; y < 200; y += 17 {
			count := 0
			for _, z := range w.Zones() {
				if z.Bounds.Contains(entity.Vec2{X: x, Y: y}) {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("point (%g,%g) in %d zones", x, y, count)
			}
		}
	}
	// Locate agrees with Contains.
	z, ok := w.Locate(entity.Vec2{X: 150, Y: 50})
	if !ok {
		t.Fatal("Locate failed inside the world")
	}
	if !z.Bounds.Contains(entity.Vec2{X: 150, Y: 50}) {
		t.Fatal("Locate returned wrong zone")
	}
	if _, ok := w.Locate(entity.Vec2{X: 999, Y: 999}); ok {
		t.Fatal("Locate succeeded outside the world")
	}
}

func TestWorldDuplicateZonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate zone ID")
		}
	}()
	w := NewWorld()
	w.Add(&Zone{ID: 1})
	w.Add(&Zone{ID: 1})
}

func TestWorldGet(t *testing.T) {
	w := GridWorld(2, 2, 100, 100)
	if _, ok := w.Get(1); !ok {
		t.Fatal("Get(1) missing")
	}
	if _, ok := w.Get(99); ok {
		t.Fatal("Get(99) found nonexistent zone")
	}
}

func TestAssignmentReplicaLifecycle(t *testing.T) {
	a := NewAssignment()
	if !a.AddReplica(1, "s1") {
		t.Fatal("first AddReplica failed")
	}
	if a.AddReplica(1, "s1") {
		t.Fatal("duplicate AddReplica succeeded")
	}
	a.AddReplica(1, "s2")
	a.AddReplica(1, "s3")
	if got := a.ReplicaCount(1); got != 3 {
		t.Fatalf("ReplicaCount = %d", got)
	}
	if got := a.Replicas(1); len(got) != 3 || got[0] != "s1" {
		t.Fatalf("Replicas = %v", got)
	}
	if got := a.Peers(1, "s2"); len(got) != 2 || got[0] != "s1" || got[1] != "s3" {
		t.Fatalf("Peers = %v", got)
	}
	if !a.IsReplica(1, "s2") || a.IsReplica(1, "ghost") {
		t.Fatal("IsReplica wrong")
	}
	if !a.RemoveReplica(1, "s2") {
		t.Fatal("RemoveReplica failed")
	}
	if a.RemoveReplica(1, "s2") {
		t.Fatal("double RemoveReplica succeeded")
	}
	if got := a.ReplicaCount(1); got != 2 {
		t.Fatalf("ReplicaCount after remove = %d", got)
	}
}

func TestAssignmentRemovingLastReplicaUnstaffsZone(t *testing.T) {
	a := NewAssignment()
	a.AddReplica(1, "s1")
	a.AddReplica(2, "s2")
	if !a.RemoveReplica(1, "s1") {
		t.Fatal("the last replica of a zone was not removed")
	}
	if got := a.Replicas(1); len(got) != 0 || a.IsReplica(1, "s1") {
		t.Fatalf("Replicas = %v, want the zone unstaffed", got)
	}
	if got := a.Zones(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Zones = %v, want only the staffed zone 2", got)
	}
}

func TestAssignmentReplicasReturnsCopy(t *testing.T) {
	a := NewAssignment()
	a.AddReplica(1, "s1")
	got := a.Replicas(1)
	got[0] = "mutated"
	if a.Replicas(1)[0] != "s1" {
		t.Fatal("Replicas exposed internal slice")
	}
}

func TestAssignmentInstances(t *testing.T) {
	a := NewAssignment()
	n1 := a.AddInstance(7)
	n2 := a.AddInstance(7)
	if n1 == n2 {
		t.Fatalf("instance names collide: %q", n1)
	}
	if got := a.Instances(7); len(got) != 2 {
		t.Fatalf("Instances = %v", got)
	}
	if got := a.Instances(8); len(got) != 0 {
		t.Fatalf("Instances(8) = %v", got)
	}
}

func TestAssignmentZonesSorted(t *testing.T) {
	a := NewAssignment()
	a.AddReplica(5, "s")
	a.AddReplica(2, "s")
	a.AddReplica(9, "s")
	got := a.Zones()
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("Zones = %v", got)
	}
}
