package client

import (
	"testing"
	"time"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
)

// fakeClock gives the client deterministic time.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func joinedClient(t *testing.T) (*Client, *fakeServer, *fakeClock) {
	t.Helper()
	c, srv := setup(t)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c.now = clk.now
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 1}))
	c.Poll()
	if !c.Joined() {
		t.Fatal("join not acknowledged")
	}
	transport.Drain(srv.node, 0) // discard the join frame
	return c, srv, clk
}

func ack(srv *fakeServer, t *testing.T, tick, ackSeq uint64) {
	t.Helper()
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.StateKeyframe{
		Tick: tick, AckSeq: ackSeq, Self: entity.Entity{ID: 1},
	}))
}

func TestInputRTTMeasured(t *testing.T) {
	c, srv, clk := joinedClient(t)
	if err := c.SendInput([]byte{1}); err != nil {
		t.Fatal(err)
	}
	clk.advance(30 * time.Millisecond)
	ack(srv, t, 1, 1)
	c.Poll()
	s := c.Latency().Snapshot()
	if s.Count != 1 {
		t.Fatalf("RTT observations = %d, want 1", s.Count)
	}
	if s.MaxMS < 29 || s.MaxMS > 31 {
		t.Fatalf("RTT = %g ms, want ~30", s.MaxMS)
	}
	if c.AckSeq() != 1 || c.PendingInputs() != 0 {
		t.Fatalf("ackSeq=%d pending=%d", c.AckSeq(), c.PendingInputs())
	}
}

func TestCoalescedInputsDropWithoutObservation(t *testing.T) {
	c, srv, clk := joinedClient(t)
	// Three inputs land in one tick; the ack names only the last.
	for i := 0; i < 3; i++ {
		if err := c.SendInput([]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(20 * time.Millisecond)
	ack(srv, t, 1, 3)
	c.Poll()
	s := c.Latency().Snapshot()
	if s.Count != 1 {
		t.Fatalf("RTT observations = %d, want 1 (only the acked seq measures)", s.Count)
	}
	if c.PendingInputs() != 0 {
		t.Fatalf("pending = %d, want 0 (older inputs coalesced away)", c.PendingInputs())
	}
	if c.LostInputs() != 0 {
		t.Fatalf("lost = %d; coalesced inputs were delivered, not lost", c.LostInputs())
	}
}

func TestReorderedUpdateDoesNotDoubleCount(t *testing.T) {
	c, srv, clk := joinedClient(t)
	if err := c.SendInput([]byte{1}); err != nil {
		t.Fatal(err)
	}
	clk.advance(10 * time.Millisecond)
	ack(srv, t, 2, 1) // newer update arrives first
	c.Poll()
	if err := c.SendInput([]byte{1}); err != nil {
		t.Fatal(err)
	}
	ack(srv, t, 1, 1) // stale update delivered late: same ack
	c.Poll()
	s := c.Latency().Snapshot()
	if s.Count != 1 {
		t.Fatalf("RTT observations = %d, want 1 (stale ack ignored)", s.Count)
	}
	if c.PendingInputs() != 1 {
		t.Fatalf("pending = %d, want 1 (seq 2 still in flight)", c.PendingInputs())
	}
	// The in-flight input is still measurable once its ack arrives.
	clk.advance(5 * time.Millisecond)
	ack(srv, t, 3, 2)
	c.Poll()
	if got := c.Latency().Snapshot().Count; got != 2 {
		t.Fatalf("RTT observations = %d, want 2", got)
	}
}

func TestLostInputsAgeOutBounded(t *testing.T) {
	c, srv, clk := joinedClient(t)
	if err := c.SendInput([]byte{1}); err != nil {
		t.Fatal(err)
	}
	// The input (or its ack) is lost; much later traffic still flows.
	clk.advance(pendingAge + time.Second)
	ack(srv, t, 50, 0) // server applied nothing from us
	c.Poll()
	if c.PendingInputs() != 0 {
		t.Fatalf("pending = %d, want 0 after age-out", c.PendingInputs())
	}
	if c.LostInputs() != 1 {
		t.Fatalf("lost = %d, want 1", c.LostInputs())
	}
	if got := c.Latency().Snapshot().Count; got != 0 {
		t.Fatalf("RTT observations = %d, want 0", got)
	}
}

func TestPendingRingCapEvictsOldest(t *testing.T) {
	c, srv, _ := joinedClient(t)
	for i := 0; i < maxPendingInputs+10; i++ {
		if err := c.SendInput(nil); err != nil {
			t.Fatal(err)
		}
		transport.Drain(srv.node, 0) // keep the fake server's inbox from filling
	}
	if c.PendingInputs() != maxPendingInputs {
		t.Fatalf("pending = %d, want cap %d", c.PendingInputs(), maxPendingInputs)
	}
	if c.LostInputs() != 10 {
		t.Fatalf("lost = %d, want 10", c.LostInputs())
	}
}

func TestRTTDeadlineViolations(t *testing.T) {
	c, srv, clk := joinedClient(t)
	c.SetLatencyDeadline(25)
	for i := uint64(1); i <= 4; i++ {
		if err := c.SendInput(nil); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			clk.advance(50 * time.Millisecond) // late
		} else {
			clk.advance(10 * time.Millisecond) // in time
		}
		ack(srv, t, i, i)
		c.Poll()
	}
	s := c.Latency().Snapshot()
	if s.Count != 4 || s.Violations != 2 {
		t.Fatalf("count=%d violations=%d, want 4/2", s.Count, s.Violations)
	}
}

// TestRTTUnderLossyTransport drives inputs over a transport that drops
// half the frames: measured RTTs stay sane, unmatched inputs age out, and
// the pending ring never leaks.
func TestRTTUnderLossyTransport(t *testing.T) {
	net := transport.NewLoopback()
	defer net.Close()
	sn, err := net.Attach("srv", 4096)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := net.Attach("cli", 4096)
	if err != nil {
		t.Fatal(err)
	}
	c := New(transport.NewLossy(cn, 0.5, 7), "srv")
	clk := &fakeClock{t: time.Unix(2000, 0)}
	c.now = clk.now
	c.joined = true

	applied := uint64(0)
	for i := 0; i < 200; i++ {
		if err := c.SendInput(nil); err != nil {
			t.Fatal(err)
		}
		clk.advance(4 * time.Millisecond)
		// Server sees whichever inputs survived and acks the highest.
		for _, f := range transport.Drain(sn, 0) {
			if msg, err := proto.Registry.Decode(f.Payload); err == nil {
				if in, ok := msg.(*proto.Input); ok && in.Seq > applied {
					applied = in.Seq
				}
			}
		}
		if err := sn.Send("cli", proto.Registry.EncodeToBytes(&proto.StateKeyframe{
			Tick: uint64(i), AckSeq: applied, Self: entity.Entity{ID: 1},
		})); err != nil {
			t.Fatal(err)
		}
		c.Poll()
	}
	// Flush stragglers past the age-out horizon.
	clk.advance(pendingAge + time.Second)
	if err := sn.Send("cli", proto.Registry.EncodeToBytes(&proto.StateKeyframe{
		Tick: 1000, AckSeq: applied, Self: entity.Entity{ID: 1},
	})); err != nil {
		t.Fatal(err)
	}
	c.Poll()

	s := c.Latency().Snapshot()
	if s.Count == 0 {
		t.Fatal("no RTTs measured despite surviving traffic")
	}
	if s.Count+c.LostInputs() > 200 {
		t.Fatalf("accounting leak: measured %d + lost %d > 200 sent", s.Count, c.LostInputs())
	}
	if c.PendingInputs() != 0 {
		t.Fatalf("pending = %d, want 0 after age-out", c.PendingInputs())
	}
	if s.MaxMS > float64(pendingAge/time.Millisecond) {
		t.Fatalf("RTT %g ms beyond the age-out horizon", s.MaxMS)
	}
}
