package experiments

// Byte-accounting under loss: the traffic experiment's inputs — the
// monitor's per-tick BytesIn/BytesOut — count framed wire bytes, and only
// frames that were actually delivered. A lossy client link must leave the
// server's inbound accounting exactly equal to what survived the drop
// filter, or the fitted traffic model would bill bandwidth nobody used.

import (
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// countingNode wraps a transport.Node and sums the framed wire size of
// every payload actually handed to the underlying node — the ground truth
// for "delivered egress" when stacked under a Lossy filter.
type countingNode struct {
	transport.Node
	frames int
	bytes  int
}

func (c *countingNode) Send(to string, payload []byte) error {
	c.bytes += transport.FrameWireBytes(c.Node.ID(), to, len(payload))
	c.frames++
	return c.Node.Send(to, payload)
}

func TestTrafficAccountingCountsOnlyDeliveredFrames(t *testing.T) {
	net := transport.NewLoopback()
	defer net.Close()
	srvNode, err := net.Attach("s1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{})
	srv, err := server.New(server.Config{
		Node:       srvNode,
		Zone:       1,
		Assignment: zone.NewAssignment(),
		App:        game.New(game.DefaultConfig()),
		IDPrefix:   1,
		Seed:       11,
		FlightRec:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.Monitor().SetCollecting(true)

	raw, err := net.Attach("c1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	delivered := &countingNode{Node: raw}
	// Join reliably (rate 0), then degrade the link for the input phase.
	lossy := transport.NewLossy(delivered, 0, 99)
	w := wire.NewWriter(256)
	join := &proto.Join{UserName: "c1", Zone: 1, Pos: entity.Vec2{X: 100, Y: 100}}
	if err := lossy.Send("s1", proto.Registry.Encode(w, join)); err != nil {
		t.Fatal(err)
	}
	srv.Tick()
	transport.Drain(raw, 0)
	if srv.UserCount() != 1 {
		t.Fatalf("users = %d, want 1 after reliable join", srv.UserCount())
	}

	lossy.SetRate(0.4)
	var seq uint64
	for i := 0; i < 120; i++ {
		seq++
		in := &proto.Input{Seq: seq, Payload: []byte{1, 2, 3}}
		_ = lossy.Send("s1", proto.Registry.Encode(w, in))
		srv.Tick()
		transport.Drain(raw, 0)
	}
	dropped, sent := lossy.Stats()
	if dropped == 0 || sent == 0 {
		t.Fatalf("lossy stats dropped=%d sent=%d; the test needs both drops and deliveries", dropped, sent)
	}

	var bytesIn int
	for _, s := range srv.Monitor().TrafficSamples() {
		bytesIn += s.BytesIn
	}
	if bytesIn != delivered.bytes {
		t.Fatalf("monitor BytesIn sum = %d, delivered framed bytes = %d (dropped=%d frames): dropped frames must not be billed",
			bytesIn, delivered.bytes, dropped)
	}

	// The tick records' client egress points the other way (server →
	// client). The lone user is the only destination, so after the join
	// tick (whose JoinAck is not a state update) every byte the server sent
	// was a state update billed to it.
	client := 0
	for _, r := range rec.Last(0)[1:] {
		if r.ClientBytesOut != r.BytesOut {
			t.Fatalf("tick %d: client bytes %d != bytes out %d with one user and no peers", r.Tick, r.ClientBytesOut, r.BytesOut)
		}
		client += r.ClientBytesOut
	}
	if client == 0 {
		t.Fatal("no state-update egress recorded for a joined client")
	}
}
