package transport

import "testing"

func TestLossyPassthrough(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	raw, err := net.Attach("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach("b", 8)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLossy(raw, 0, 1) // never drops
	if l.ID() != "a" {
		t.Fatalf("ID = %q", l.ID())
	}
	if err := l.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if f := <-b.Inbox(); string(f.Payload) != "x" {
		t.Fatalf("frame = %+v", f)
	}
	// Inbound frames flow through the wrapped inbox.
	if err := b.Send("a", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if f := <-l.Inbox(); string(f.Payload) != "y" {
		t.Fatalf("inbox frame = %+v", f)
	}
	if dropped, sent := l.Stats(); dropped != 0 || sent != 1 {
		t.Fatalf("stats = %d/%d", dropped, sent)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-l.Inbox(); ok {
		t.Fatal("inbox open after close")
	}
}

func TestLossyAlwaysDropsAtRateOne(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	raw, _ := net.Attach("a", 8)
	_, _ = net.Attach("b", 1) // tiny inbox: would fill if sends leaked
	l := NewLossy(raw, 1, 1)
	for i := 0; i < 100; i++ {
		if err := l.Send("b", []byte{1}); err != nil {
			t.Fatalf("dropped send reported error: %v", err)
		}
	}
	if dropped, sent := l.Stats(); dropped != 100 || sent != 0 {
		t.Fatalf("stats = %d/%d, want 100/0", dropped, sent)
	}
}

func TestLossyDropAccounting(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	raw, _ := net.Attach("a", 16)
	_, _ = net.Attach("b", 1<<12)
	l := NewLossy(raw, 0.5, 42)
	for i := 0; i < 200; i++ {
		if err := l.Send("b", []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	dropped, sent := l.Stats()
	if dropped+sent != 200 {
		t.Fatalf("accounting broken: %d + %d", dropped, sent)
	}
	if dropped < 60 || dropped > 140 {
		t.Fatalf("drop rate implausible for p=0.5: %d/200", dropped)
	}
}

func TestLossyRateClamping(t *testing.T) {
	for _, tc := range []struct {
		rate                  float64
		wantDropped, wantSent int
	}{{-1, 0, 50}, {2, 50, 0}} {
		net := NewLoopback()
		raw, _ := net.Attach("a", 16)
		_, _ = net.Attach("b", 1<<12)
		l := NewLossy(raw, tc.rate, 1)
		for i := 0; i < 50; i++ {
			_ = l.Send("b", []byte{1})
		}
		if d, s := l.Stats(); d != tc.wantDropped || s != tc.wantSent {
			t.Fatalf("rate %g: dropped %d, sent %d", tc.rate, d, s)
		}
		net.Close()
	}
}
