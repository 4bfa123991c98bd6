package workload

import (
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	c := Constant{N: 42, Len: 100}
	if c.UsersAt(0) != 42 || c.UsersAt(1e9) != 42 || c.Duration() != 100 {
		t.Fatal("constant trace wrong")
	}
}

func TestRampEndpointsAndMidpoint(t *testing.T) {
	r := Ramp{From: 0, To: 100, Len: 50}
	if r.UsersAt(-1) != 0 || r.UsersAt(0) != 0 {
		t.Fatal("ramp start wrong")
	}
	if r.UsersAt(25) != 50 {
		t.Fatalf("ramp midpoint = %d", r.UsersAt(25))
	}
	if r.UsersAt(50) != 100 || r.UsersAt(999) != 100 {
		t.Fatal("ramp end wrong")
	}
	down := Ramp{From: 100, To: 0, Len: 10}
	if down.UsersAt(5) != 50 {
		t.Fatalf("down ramp midpoint = %d", down.UsersAt(5))
	}
	if (Ramp{From: 7, To: 9, Len: 0}).UsersAt(3) != 7 {
		t.Fatal("zero-length ramp should hold From")
	}
}

func TestRampMonotoneProperty(t *testing.T) {
	r := Ramp{From: 10, To: 300, Len: 100}
	prop := func(a, b uint8) bool {
		t1, t2 := float64(a), float64(b)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return r.UsersAt(t1) <= r.UsersAt(t2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPiecewisePhases(t *testing.T) {
	p := Piecewise{Phases: []Phase{
		{Until: 10, Trace: Constant{N: 1}},
		{Until: 20, Trace: Ramp{From: 1, To: 11, Len: 10}},
		{Until: 30, Trace: Constant{N: 11}},
	}}
	if p.Duration() != 30 {
		t.Fatalf("duration = %g", p.Duration())
	}
	if p.UsersAt(5) != 1 {
		t.Fatalf("phase 1 = %d", p.UsersAt(5))
	}
	// Phase-local time: at t=15 the ramp is at its own t=5.
	if p.UsersAt(15) != 6 {
		t.Fatalf("phase 2 = %d, want 6", p.UsersAt(15))
	}
	if p.UsersAt(25) != 11 || p.UsersAt(1000) != 11 {
		t.Fatalf("phase 3 = %d", p.UsersAt(25))
	}
	if (Piecewise{}).UsersAt(5) != 0 || (Piecewise{}).Duration() != 0 {
		t.Fatal("empty piecewise wrong")
	}
}

func TestReplay(t *testing.T) {
	r := Replay{Counts: []int{5, 10, 15}}
	if r.UsersAt(-1) != 5 || r.UsersAt(0.9) != 5 || r.UsersAt(1) != 10 || r.UsersAt(99) != 15 {
		t.Fatal("replay indexing wrong")
	}
	if r.Duration() != 3 {
		t.Fatalf("duration = %g", r.Duration())
	}
	if (Replay{}).UsersAt(0) != 0 {
		t.Fatal("empty replay wrong")
	}
}

func TestPaperSessionShape(t *testing.T) {
	tr := PaperSession()
	if tr.Duration() != 1200 {
		t.Fatalf("duration = %g", tr.Duration())
	}
	peak := 0
	for ts := 0.0; ts <= tr.Duration(); ts++ {
		peak = max(peak, tr.UsersAt(ts))
	}
	if peak != 300 {
		t.Fatalf("peak = %d, want 300 (paper: up to 300 users)", peak)
	}
	if tr.UsersAt(0) != 0 {
		t.Fatalf("session starts at %d users", tr.UsersAt(0))
	}
	if got := tr.UsersAt(550); got != 300 {
		t.Fatalf("plateau = %d", got)
	}
	if got := tr.UsersAt(1200); got != 0 {
		t.Fatalf("session ends at %d users", got)
	}
	// Growth then decline: monotone up to the plateau, down after it.
	for ts := 1.0; ts <= 480; ts++ {
		if tr.UsersAt(ts) < tr.UsersAt(ts-1) {
			t.Fatalf("growth phase not monotone at %g", ts)
		}
	}
	for ts := 661.0; ts <= 1200; ts++ {
		if tr.UsersAt(ts) > tr.UsersAt(ts-1) {
			t.Fatalf("decline phase not monotone at %g", ts)
		}
	}
}
