package client

import (
	"errors"
	"testing"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
)

// fakeServer lets tests hand-feed protocol frames to a client.
type fakeServer struct {
	node transport.Node
}

func setup(t *testing.T) (*Client, *fakeServer) {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	sn, err := net.Attach("srv", 64)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := net.Attach("cli", 64)
	if err != nil {
		t.Fatal(err)
	}
	return New(cn, "srv"), &fakeServer{node: sn}
}

func (f *fakeServer) send(t *testing.T, to string, payload []byte) {
	t.Helper()
	if err := f.node.Send(to, payload); err != nil {
		t.Fatal(err)
	}
}

func TestSendInputBeforeJoinFails(t *testing.T) {
	c, _ := setup(t)
	if err := c.SendInput([]byte{1}); !errors.Is(err, ErrNotJoined) {
		t.Fatalf("err = %v, want ErrNotJoined", err)
	}
}

func TestJoinAckBindsAvatar(t *testing.T) {
	c, srv := setup(t)
	if err := c.Join(1, entity.Vec2{X: 5, Y: 5}, "tester"); err != nil {
		t.Fatal(err)
	}
	// The server received the join frame.
	frames := transport.Drain(srv.node, 0)
	if len(frames) != 1 {
		t.Fatalf("server saw %d frames", len(frames))
	}
	msg, err := proto.Registry.Decode(frames[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if j := msg.(*proto.Join); j.UserName != "tester" || j.Zone != 1 {
		t.Fatalf("join = %+v", j)
	}
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 42, Tick: 3}))
	c.Poll()
	if !c.Joined() || c.Avatar() != 42 {
		t.Fatalf("joined=%v avatar=%d", c.Joined(), c.Avatar())
	}
	// Inputs now flow and carry increasing sequence numbers.
	if err := c.SendInput([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendInput([]byte{9}); err != nil {
		t.Fatal(err)
	}
	in1, _ := proto.Registry.Decode(transport.Drain(srv.node, 0)[0].Payload)
	if in1.(*proto.Input).Seq != 1 {
		t.Fatalf("first input seq = %d", in1.(*proto.Input).Seq)
	}
}

func TestPollRetainsLatestUpdateAndAccumulatesEvents(t *testing.T) {
	c, srv := setup(t)
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 1}))
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.StateKeyframe{
		Tick: 1, Self: entity.Entity{ID: 1}, Events: []byte("hit"),
	}))
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.StateKeyframe{
		Tick: 2, Self: entity.Entity{ID: 1},
	}))
	if got := c.Poll(); got != 2 {
		t.Fatalf("Poll processed %d updates, want 2", got)
	}
	if c.LastUpdate().Tick != 2 {
		t.Fatalf("latest tick = %d", c.LastUpdate().Tick)
	}
	if c.Updates() != 2 {
		t.Fatalf("updates = %d", c.Updates())
	}
	ev := c.DrainEvents()
	if len(ev) != 1 || string(ev[0]) != "hit" {
		t.Fatalf("events = %q", ev)
	}
	if got := c.DrainEvents(); got != nil {
		t.Fatal("events not cleared")
	}
}

func TestMigrateNoticeSwitchesServer(t *testing.T) {
	c, srv := setup(t)
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 1}))
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.MigrateNotice{NewServer: "srv2"}))
	c.Poll()
	if got := c.Server(); got != "srv2" {
		t.Fatalf("server = %q, want srv2", got)
	}
	if c.Migrations() != 1 {
		t.Fatalf("migrations = %d", c.Migrations())
	}
	// Still joined: migration keeps the session alive.
	if !c.Joined() {
		t.Fatal("migration dropped the session")
	}
}

func TestPollIgnoresJunkFrames(t *testing.T) {
	c, srv := setup(t)
	srv.send(t, "cli", []byte{})           // empty
	srv.send(t, "cli", []byte{0xFF})       // too short
	srv.send(t, "cli", []byte{0xFF, 0xFF}) // unknown kind
	srv.send(t, "cli", []byte{0, 2, 1})    // KindJoinAck but truncated
	if got := c.Poll(); got != 0 {
		t.Fatalf("Poll = %d on junk", got)
	}
	if c.Joined() {
		t.Fatal("junk made the client joined")
	}
}

func TestLeaveResetsJoined(t *testing.T) {
	c, srv := setup(t)
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 1}))
	c.Poll()
	if err := c.Leave(); err != nil {
		t.Fatal(err)
	}
	if c.Joined() {
		t.Fatal("still joined after leave")
	}
	if err := c.SendInput([]byte{1}); !errors.Is(err, ErrNotJoined) {
		t.Fatal("input accepted after leave")
	}
}

// anchoredClient returns a client synced at tick 10 holding entities 2, 4
// and 6.
func anchoredClient(t *testing.T) (*Client, *fakeServer) {
	t.Helper()
	c, srv := setup(t)
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 1}))
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.StateKeyframe{
		Tick: 10,
		Self: entity.Entity{ID: 1, Health: 100, Owner: "srv"},
		Visible: []entity.Entity{
			{ID: 2, Health: 20, Owner: "srv"},
			{ID: 4, Health: 40, Owner: "srv"},
			{ID: 6, Health: 60, Owner: "srv"},
		},
	}))
	if c.Poll() != 1 || !c.Synced() {
		t.Fatal("keyframe did not anchor the client")
	}
	return c, srv
}

func TestDeltaMergesEveryColumn(t *testing.T) {
	c, srv := anchoredClient(t)
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.StateDelta{
		Tick: 11, BaseTick: 10, AckSeq: 3,
		SelfMask: entity.FieldHealth, Self: entity.Entity{Health: 90},
		Updates: []proto.EntityDelta{{ID: 6, Mask: entity.FieldPos, State: entity.Entity{Pos: entity.Vec2{X: 7}}}},
		Enters:  []entity.Entity{{ID: 3, Health: 30}, {ID: 9, Health: 99}},
		Gone:    []entity.ID{2},
	}))
	if c.Poll() != 1 {
		t.Fatal("consistent delta rejected")
	}
	want := []entity.Entity{
		{ID: 3, Health: 30},
		{ID: 4, Health: 40, Owner: "srv"},
		{ID: 6, Health: 60, Owner: "srv", Pos: entity.Vec2{X: 7}},
		{ID: 9, Health: 99},
	}
	got := c.World()
	if len(got) != len(want) {
		t.Fatalf("world = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("world[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	v := c.LastUpdate()
	if v.Tick != 11 || v.AckSeq != 3 || v.Self.Health != 90 || v.Self.Owner != "srv" || len(v.Visible) != len(want) {
		t.Fatalf("view = %+v", v)
	}
}

// TestRejectedDeltaLeavesViewUntouched: a delta that names an entity the
// client does not hold must not apply in part — not its Self, not the
// Updates ahead of the bad entry — however late in the delta the
// inconsistency sits.
func TestRejectedDeltaLeavesViewUntouched(t *testing.T) {
	for name, bad := range map[string]*proto.StateDelta{
		"update for unknown entity": {
			Updates: []proto.EntityDelta{
				{ID: 2, Mask: entity.FieldHealth, State: entity.Entity{Health: 1}},
				{ID: 5, Mask: entity.FieldHealth, State: entity.Entity{Health: 1}},
			},
		},
		"gone for unknown entity": {
			Updates: []proto.EntityDelta{{ID: 2, Mask: entity.FieldHealth, State: entity.Entity{Health: 1}}},
			Gone:    []entity.ID{4, 7},
		},
		"enter for held entity": {
			Enters: []entity.Entity{{ID: 3}, {ID: 6}},
		},
		"enters out of order": {
			Enters: []entity.Entity{{ID: 9}, {ID: 3}},
		},
	} {
		t.Run(name, func(t *testing.T) {
			c, srv := anchoredClient(t)
			before, beforeView := c.World(), *c.LastUpdate()
			bad.Tick, bad.BaseTick = 11, 10
			bad.SelfMask, bad.Self = entity.FieldHealth, entity.Entity{Health: 1}
			srv.send(t, "cli", proto.Registry.EncodeToBytes(bad))
			if c.Poll() != 0 {
				t.Fatal("inconsistent delta applied")
			}
			if c.Synced() || c.Resyncs() != 1 {
				t.Fatalf("synced=%v resyncs=%d, want unsynced after one resync", c.Synced(), c.Resyncs())
			}
			after, v := c.World(), c.LastUpdate()
			if len(after) != len(before) {
				t.Fatalf("world changed: %+v → %+v", before, after)
			}
			for i := range before {
				if after[i] != before[i] {
					t.Fatalf("world[%d] changed: %+v → %+v", i, before[i], after[i])
				}
			}
			if v.Tick != beforeView.Tick || v.Self != beforeView.Self {
				t.Fatalf("view changed: %+v → %+v", beforeView, *v)
			}
		})
	}
}

// TestSteadyUpdateStreamAppliesWithoutAllocating pins the decode-and-merge
// path: once the shells and buffers have grown, applying a delta allocates
// nothing, and polling a keyframe allocates only what the transport does.
// Both carry full records with an Owner — a keyframe's Self and Visible, a
// delta's Enters — which decode into shells that already hold that owner.
func TestSteadyUpdateStreamAppliesWithoutAllocating(t *testing.T) {
	c, srv := anchoredClient(t)
	keyframe := proto.Registry.EncodeToBytes(&proto.StateKeyframe{
		Tick: 10, Self: entity.Entity{ID: 1, Owner: "srv"},
		Visible: []entity.Entity{{ID: 2, Owner: "srv"}, {ID: 4, Owner: "srv"}, {ID: 6, Owner: "srv"}},
	})
	transportOnly := testing.AllocsPerRun(100, func() {
		srv.send(t, "cli", []byte{0}) // too short to be a message
		c.Poll()
	})
	if n := testing.AllocsPerRun(100, func() {
		srv.send(t, "cli", keyframe)
		if c.Poll() != 1 {
			t.Fatal("keyframe rejected")
		}
	}); n > transportOnly {
		t.Fatalf("polling a keyframe allocates %v times, the transport alone %v", n, transportOnly)
	}
	payload := proto.Registry.EncodeToBytes(&proto.StateDelta{
		Tick: 11, BaseTick: 10,
		SelfMask: entity.FieldPos, Self: entity.Entity{Pos: entity.Vec2{X: 1}},
		Updates: []proto.EntityDelta{{ID: 4, Mask: entity.FieldPos | entity.FieldOwner | entity.FieldSeq, State: entity.Entity{Owner: "srv", Seq: 2}}},
		Enters:  []entity.Entity{{ID: 5, Owner: "srv"}},
		Gone:    []entity.ID{5},
	})
	apply := func() {
		if c.delta.UnmarshalWire(wire.NewReader(payload[2:])) != nil {
			t.Fatal("decode failed")
		}
		// Alternate between "5 enters" and "5 leaves" so both columns work.
		if len(c.view.Visible) == 3 {
			c.delta.Gone = c.delta.Gone[:0]
		} else {
			c.delta.Enters = c.delta.Enters[:0]
		}
		if !c.applyDeltaLocked(&c.delta) {
			t.Fatal("delta rejected")
		}
	}
	apply()
	apply()
	if n := testing.AllocsPerRun(100, apply); n != 0 {
		t.Fatalf("applying a delta allocates %v times, want 0", n)
	}
}
