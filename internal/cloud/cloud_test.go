package cloud

import (
	"errors"
	"math"
	"testing"
)

func testProvider() *Provider {
	return NewProvider(
		Class{Name: "std", Power: 1, StartupDelay: 30, CostPerSecond: 0.01},
		Class{Name: "big", Power: 2, StartupDelay: 60, CostPerSecond: 0.05},
		Class{Name: "huge", Power: 4, StartupDelay: 60, CostPerSecond: 0.02},
	)
}

func TestLeaseLifecycle(t *testing.T) {
	p := testProvider()
	r, err := p.Lease("std", 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ready(100) || r.Ready(129.9) {
		t.Fatal("resource ready before startup delay")
	}
	if !r.Ready(130) {
		t.Fatal("resource not ready after startup delay")
	}
	if err := p.Release(r.ID, 200); err != nil {
		t.Fatal(err)
	}
	if r.Ready(300) {
		t.Fatal("released resource still ready")
	}
	if err := p.Release(r.ID, 201); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestLeaseUnknownClass(t *testing.T) {
	p := testProvider()
	if _, err := p.Lease("nope", 0); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("err = %v, want ErrUnknownClass", err)
	}
}

func TestCostAccounting(t *testing.T) {
	p := testProvider()
	a, _ := p.Lease("std", 0)  // 0.01/s
	_, _ = p.Lease("big", 100) // 0.05/s
	if err := p.Release(a.ID, 50); err != nil {
		t.Fatal(err)
	}
	// At t=200: released std ran 50 s (0.5), big has run 100 s (5.0).
	if got := p.Cost(200); math.Abs(got-5.5) > 1e-9 {
		t.Fatalf("cost = %g, want 5.5", got)
	}
}

func TestStrongerClassPicksCheapest(t *testing.T) {
	p := testProvider()
	got, err := p.StrongerClass("std")
	if err != nil {
		t.Fatal(err)
	}
	// "huge" (power 4, 0.02/s) is cheaper than "big" (power 2, 0.05/s).
	if got.Name != "huge" {
		t.Fatalf("stronger class = %q, want huge", got.Name)
	}
	if _, err := p.StrongerClass("huge"); !errors.Is(err, ErrNoStrongerClass) {
		t.Fatalf("err = %v, want ErrNoStrongerClass", err)
	}
	if _, err := p.StrongerClass("nope"); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("err = %v, want ErrUnknownClass", err)
	}
}

func TestDefaultClassesSane(t *testing.T) {
	classes := DefaultClasses()
	if len(classes) != 3 || classes[0].Power != 1 {
		t.Fatalf("classes = %+v, want three with a power-1 base", classes)
	}
	p := NewProvider(classes...)
	if _, err := p.StrongerClass("standard"); err != nil {
		t.Fatalf("no substitution path from standard: %v", err)
	}
}

func TestDuplicateClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate class")
		}
	}()
	NewProvider(Class{Name: "a"}, Class{Name: "a"})
}

func TestZeroPowerDefaultsToOne(t *testing.T) {
	r, err := NewProvider(Class{Name: "weird"}).Lease("weird", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Class.Power; got != 1 {
		t.Fatalf("power = %g, want default 1", got)
	}
}
