package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestLoopbackDelivery(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	a, err := net.Attach("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach("b", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	f := <-b.Inbox()
	if f.From != "a" || f.To != "b" || string(f.Payload) != "hello" {
		t.Fatalf("frame = %+v", f)
	}
}

func TestLoopbackPayloadIsCopied(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	a, _ := net.Attach("a", 8)
	b, _ := net.Attach("b", 8)
	buf := []byte("abc")
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // sender reuses its buffer
	f := <-b.Inbox()
	if string(f.Payload) != "abc" {
		t.Fatalf("payload aliased sender buffer: %q", f.Payload)
	}
}

func TestLoopbackUnknownTarget(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	a, _ := net.Attach("a", 8)
	if err := a.Send("ghost", []byte("x")); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v, want ErrUnknownTarget", err)
	}
}

func TestLoopbackDuplicateID(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	if _, err := net.Attach("a", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("a", 8); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
}

func TestLoopbackInboxFullNonBlocking(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	a, _ := net.Attach("a", 8)
	_, _ = net.Attach("b", 1)
	if err := a.Send("b", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("2")); !errors.Is(err, ErrInboxFull) {
		t.Fatalf("err = %v, want ErrInboxFull", err)
	}
}

func TestLoopbackClosedNode(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	a, _ := net.Attach("a", 8)
	b, _ := net.Attach("b", 8)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send from closed node: err = %v, want ErrClosed", err)
	}
	if err := b.Send("a", []byte("x")); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("send to detached node: err = %v, want ErrUnknownTarget", err)
	}
	if _, ok := <-a.Inbox(); ok {
		t.Fatal("inbox not closed")
	}
	// Closing twice is safe.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackNetworkClose(t *testing.T) {
	net := NewLoopback()
	a, _ := net.Attach("a", 8)
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-a.Inbox(); ok {
		t.Fatal("inbox not closed by network close")
	}
	if _, err := net.Attach("c", 8); !errors.Is(err, ErrClosed) {
		t.Fatalf("attach after close: err = %v, want ErrClosed", err)
	}
}

func TestDrain(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	a, _ := net.Attach("a", 8)
	b, _ := net.Attach("b", 64)
	for i := 0; i < 10; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := Drain(b, 4); len(got) != 4 {
		t.Fatalf("Drain(4) returned %d frames", len(got))
	}
	rest := Drain(b, 0)
	if len(rest) != 6 {
		t.Fatalf("Drain(all) returned %d frames, want 6", len(rest))
	}
	// In-order delivery per sender.
	if rest[0].Payload[0] != 4 || rest[5].Payload[0] != 9 {
		t.Fatalf("out of order: %v", rest)
	}
	if got := Drain(b, 0); len(got) != 0 {
		t.Fatalf("Drain on empty inbox returned %d frames", len(got))
	}
}

func TestLoopbackConcurrentSenders(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	dst, _ := net.Attach("dst", 16)
	const senders, perSender = 8, 100

	// Sends never block: a sender that finds the inbox full retries, and
	// every frame still arrives exactly once.
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		node, err := net.Attach(fmt.Sprintf("s%d", s), 1)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int, n Node) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				err := n.Send("dst", []byte{byte(s), byte(i)})
				for errors.Is(err, ErrInboxFull) {
					runtime.Gosched()
					err = n.Send("dst", []byte{byte(s), byte(i)})
				}
				if err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s, node)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	seen := map[[2]byte]bool{}
	timeout := time.After(5 * time.Second)
	for len(seen) < senders*perSender {
		select {
		case f := <-dst.Inbox():
			key := [2]byte{f.Payload[0], f.Payload[1]}
			if seen[key] {
				t.Fatalf("frame %v arrived twice", key)
			}
			seen[key] = true
		case <-timeout:
			t.Fatalf("received %d of %d frames", len(seen), senders*perSender)
		}
	}
	<-done
	if extra := Drain(dst, 0); len(extra) > 0 {
		t.Fatalf("%d frames beyond the %d sent", len(extra), senders*perSender)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	net := NewTCP()
	a, err := net.Attach("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Attach("b", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send("b", []byte("over tcp")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case f := <-b.Inbox():
		if f.From != "a" || f.To != "b" || string(f.Payload) != "over tcp" {
			t.Fatalf("frame = %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame not delivered")
	}

	// And the reverse direction (separate connection).
	if err := b.Send("a", []byte("reply")); err != nil {
		t.Fatalf("Send reply: %v", err)
	}
	select {
	case f := <-a.Inbox():
		if string(f.Payload) != "reply" {
			t.Fatalf("reply frame = %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reply not delivered")
	}
}

func TestTCPManyFramesInOrder(t *testing.T) {
	net := NewTCP()
	a, _ := net.Attach("a", 8)
	defer a.Close()
	b, _ := net.Attach("b", 4096)
	defer b.Close()

	const count = 500
	for i := 0; i < count; i++ {
		if err := a.Send("b", []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < count; i++ {
		select {
		case f := <-b.Inbox():
			got := int(f.Payload[0]) | int(f.Payload[1])<<8
			if got != i {
				t.Fatalf("frame %d out of order: got %d", i, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("missing frame %d", i)
		}
	}
}

func TestTCPUnknownTarget(t *testing.T) {
	net := NewTCP()
	a, _ := net.Attach("a", 8)
	defer a.Close()
	if err := a.Send("nowhere", []byte("x")); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v, want ErrUnknownTarget", err)
	}
}

func TestTCPDuplicateID(t *testing.T) {
	net := NewTCP()
	a, _ := net.Attach("a", 8)
	defer a.Close()
	if _, err := net.Attach("a", 8); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
}

func TestTCPCloseReleasesID(t *testing.T) {
	net := NewTCP()
	a, _ := net.Attach("a", 8)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := net.Lookup("a"); ok {
		t.Fatal("closed node still in directory")
	}
	b, err := net.Attach("a", 8) // ID reusable after close
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	b.Close()
}

func TestTCPSendAfterClose(t *testing.T) {
	net := NewTCP()
	a, _ := net.Attach("a", 8)
	b, _ := net.Attach("b", 8)
	defer b.Close()
	a.Close()
	if err := a.Send("b", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	net := NewTCP()
	a, _ := net.Attach("a", 8)
	defer a.Close()
	b, _ := net.Attach("b", 8)
	defer b.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := a.Send("b", big); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-b.Inbox():
		if len(f.Payload) != len(big) {
			t.Fatalf("payload size %d, want %d", len(f.Payload), len(big))
		}
		for i := 0; i < len(big); i += 4097 {
			if f.Payload[i] != big[i] {
				t.Fatalf("payload corrupted at %d", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("large frame not delivered")
	}
}

// TestDrainIntoReusesBuffer pins the tick receive stage's buffer-reuse
// contract: frames append in arrival order after any existing elements,
// a pre-sized buffer is not regrown, and Drain stays a nil-buffer shim.
func TestDrainIntoReusesBuffer(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	a, _ := net.Attach("a", 16)
	b, _ := net.Attach("b", 16)
	for i := 0; i < 3; i++ {
		if err := a.Send("b", []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}

	buf := make([]Frame, 0, 8)
	got := DrainInto(b, buf, 0)
	if len(got) != 3 {
		t.Fatalf("drained %d frames, want 3", len(got))
	}
	for i, f := range got {
		if want := string(rune('0' + i)); string(f.Payload) != want {
			t.Errorf("frame %d payload = %q, want %q (arrival order)", i, f.Payload, want)
		}
	}
	if cap(got) != 8 {
		t.Errorf("cap grew to %d, want the caller's 8 (no reallocation)", cap(got))
	}

	// Next tick: drain into the truncated previous buffer.
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got = DrainInto(b, got[:0], 0)
	if len(got) != 1 || string(got[0].Payload) != "x" {
		t.Fatalf("second drain = %d frames (first %q), want 1 frame \"x\"", len(got), got[0].Payload)
	}

	// Existing elements are preserved, and max counts only new frames.
	for i := 0; i < 5; i++ {
		if err := a.Send("b", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	pre := []Frame{{From: "pre"}}
	out := DrainInto(b, pre, 2)
	if len(out) != 3 || out[0].From != "pre" {
		t.Fatalf("DrainInto with prefix = %+v, want prefix plus 2 frames", out)
	}
	if rest := Drain(b, 0); len(rest) != 3 {
		t.Fatalf("Drain left %d frames, want 3", len(rest))
	}
}

// TestTCPSendBatchRoundTrip pins the batch framing: every frame
// of a batch must decode on the receiver byte-identical to the payloads
// handed to SendBatch, in order, interleaved correctly with single Sends
// on the same connection.
func TestTCPSendBatchRoundTrip(t *testing.T) {
	net := NewTCP()
	a, _ := net.Attach("a", 64)
	defer a.Close()
	b, _ := net.Attach("b", 64)
	defer b.Close()

	batch := [][]byte{
		[]byte("first"),
		{},                      // empty payload must still frame
		[]byte("third-payload"), // varied lengths exercise the uvarint prefix
		make([]byte, 300),       // >255 forces a 2-byte uvarint
	}
	for i := range batch[3] {
		batch[3][i] = byte(i * 7)
	}
	bs, ok := a.(BatchSender)
	if !ok {
		t.Fatal("tcp node does not implement BatchSender")
	}
	if err := bs.SendBatch("b", batch); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if err := a.Send("b", []byte("single-after")); err != nil {
		t.Fatalf("Send after batch: %v", err)
	}

	want := append(append([][]byte{}, batch...), []byte("single-after"))
	for i, w := range want {
		select {
		case f := <-b.Inbox():
			if f.From != "a" || f.To != "b" {
				t.Fatalf("frame %d routing = %s->%s, want a->b", i, f.From, f.To)
			}
			if string(f.Payload) != string(w) {
				t.Fatalf("frame %d payload = %q (%d bytes), want %q (%d bytes)",
					i, f.Payload, len(f.Payload), w, len(w))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d not delivered", i)
		}
	}
}

// TestTCPReplyRidesInboundConnection simulates the real roiaserver/roiabot
// split: two TCPNetwork directories in (conceptually) different processes.
// The client knows the server's address, the server has never heard of the
// client — its reply must be adopted onto the connection the client dialed
// in on. Without adoption, JoinAck is undeliverable and no client can ever
// join over real sockets.
func TestTCPReplyRidesInboundConnection(t *testing.T) {
	serverNet := NewTCP()
	srv, err := serverNet.AttachListener("s1", "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, _ := serverNet.Lookup("s1")

	clientNet := NewTCP() // separate directory: the client's process
	clientNet.Register("s1", addr)
	cl, err := clientNet.Attach("bot-1", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Send("s1", []byte("join")); err != nil {
		t.Fatalf("client send: %v", err)
	}
	var join Frame
	select {
	case join = <-srv.Inbox():
	case <-time.After(5 * time.Second):
		t.Fatal("join not delivered")
	}

	// The server directory has no entry for bot-1; the reply must still
	// route — over the adopted inbound connection.
	if _, ok := serverNet.Lookup(join.From); ok {
		t.Fatalf("test invariant broken: %s is in the server directory", join.From)
	}
	if err := srv.Send(join.From, []byte("ack")); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	select {
	case f := <-cl.Inbox():
		if string(f.Payload) != "ack" || f.From != "s1" {
			t.Fatalf("reply frame = %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reply not delivered over inbound connection")
	}

	// State updates flow through the outbox as batches: same route.
	if err := srv.(BatchSender).SendBatch(join.From, [][]byte{[]byte("u1"), []byte("u2")}); err != nil {
		t.Fatalf("reply SendBatch: %v", err)
	}
	for _, want := range []string{"u1", "u2"} {
		select {
		case f := <-cl.Inbox():
			if string(f.Payload) != want {
				t.Fatalf("batch frame = %q, want %q", f.Payload, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("batch frame %q not delivered", want)
		}
	}
}

// TestTCPAdoptedRouteDropsWithConnection verifies the cleanup side of
// adoption: when the client hangs up, the server's adopted route is
// removed, and a later send fails with ErrUnknownTarget instead of
// writing into a dead socket forever.
func TestTCPAdoptedRouteDropsWithConnection(t *testing.T) {
	serverNet := NewTCP()
	srv, err := serverNet.AttachListener("s1", "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, _ := serverNet.Lookup("s1")

	clientNet := NewTCP()
	clientNet.Register("s1", addr)
	cl, err := clientNet.Attach("bot-2", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Send("s1", []byte("join")); err != nil {
		t.Fatal(err)
	}
	join := <-srv.Inbox()
	if err := srv.Send(join.From, []byte("ack")); err != nil {
		t.Fatalf("reply before hangup: %v", err)
	}
	<-cl.Inbox()
	cl.Close()

	// The server read loop notices the hangup and drops the route; the
	// send path then has nowhere to go. Poll briefly: connection teardown
	// is asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := srv.Send(join.From, []byte("late"))
		if errors.Is(err, ErrUnknownTarget) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("send after hangup = %v, want ErrUnknownTarget", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
