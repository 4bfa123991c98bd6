package client_test

// FuzzDeltaApply throws hostile delta streams at the client: frames from a
// recorded real session delivered out of order, duplicated, truncated or
// replaced with garbage. The client may coast or resync — it must never
// panic and never diverge silently: a frame it does not apply must leave its
// world exactly as it was (no half-applied delta), and after a known-good
// keyframe its world must equal that keyframe's content exactly.

import (
	"slices"
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
)

// recordDeltaSession plays a short two-client session against a real
// server and returns every payload the server sent to the
// passive observer client, in order (JoinAck first, then a mix of
// keyframes and deltas while the second client moves through the
// observer's AoI).
func recordDeltaSession(f *testing.F) [][]byte {
	f.Helper()
	net := transport.NewLoopback()
	defer net.Close()
	sn, err := net.Attach("s1", 1<<16)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Node:          sn,
		Zone:          1,
		Assignment:    zone.NewAssignment(),
		App:           game.New(game.DefaultConfig()),
		IDPrefix:      1,
		Seed:          1,
		KeyframeTicks: 5,
	})
	if err != nil {
		f.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	observer, err := net.Attach("obs", 1<<12)
	if err != nil {
		f.Fatal(err)
	}
	w := wire.NewWriter(256)
	join := proto.Registry.Encode(w, &proto.Join{UserName: "obs", Zone: 1, Pos: entity.Vec2{X: 100, Y: 100}})
	if err := observer.Send("s1", join); err != nil {
		f.Fatal(err)
	}

	mn, err := net.Attach("m1", 1<<12)
	if err != nil {
		f.Fatal(err)
	}
	mover := client.New(mn, "s1")
	if err := mover.Join(1, entity.Vec2{X: 110, Y: 100}, "m1"); err != nil {
		f.Fatal(err)
	}

	var log [][]byte
	for tick := 0; tick < 16; tick++ {
		srv.Tick()
		mover.Poll()
		_ = mover.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: 2, DY: 1}))
		for _, fr := range transport.Drain(observer, 0) {
			cp := make([]byte, len(fr.Payload))
			copy(cp, fr.Payload)
			log = append(log, cp)
		}
	}
	if len(log) < 8 {
		f.Fatalf("recorded only %d frames", len(log))
	}
	return log
}

func FuzzDeltaApply(f *testing.F) {
	log := recordDeltaSession(f)

	f.Add([]byte{})                                     // keyframe-only client
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0})   // in-order delivery
	f.Add([]byte{5, 0, 4, 0, 3, 0, 2, 0, 1, 0})         // reversed
	f.Add([]byte{1, 0, 1, 0, 1, 0})                     // duplicated
	f.Add([]byte{2, 1, 2, 2, 2, 3, 2, 200})             // truncations
	f.Add([]byte{0, 0, 9, 0, 1, 0, 250, 9, 250, 13})    // skips + garbage
	f.Add([]byte{0, 0, 255, 255, 254, 7, 253, 0, 6, 0}) // garbage mixed in

	f.Fuzz(func(t *testing.T, data []byte) {
		net := transport.NewLoopback()
		defer net.Close()
		src, err := net.Attach("s1", 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		cn, err := net.Attach("c1", 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		cl := client.New(cn, "s1")
		deliver := func(payload []byte) {
			before := cl.World()
			if err := src.Send("c1", payload); err != nil {
				t.Fatal(err)
			}
			applied := cl.Poll()
			transport.Drain(src, 0) // discard anything the client sent back
			if after := cl.World(); applied == 0 && !slices.Equal(before, after) {
				t.Fatalf("frame %x was not applied yet changed the world:\n%+v\n%+v", payload, before, after)
			}
		}

		// The recorded log starts with the JoinAck; anchor the avatar
		// binding deterministically, then let the fuzz schedule loose.
		deliver(log[0])
		avatar := cl.Avatar()
		for i := 0; i+1 < len(data); i += 2 {
			sel, mod := data[i], data[i+1]
			switch {
			case sel >= 250: // raw garbage frame derived from the input
				deliver(data[i:])
			case int(sel) >= len(log): // skip
			case mod == 0: // intact (fuzz repeats cover duplication/reorder)
				deliver(log[sel])
			default: // truncated
				fr := log[sel]
				n := int(mod) % (len(fr) + 1)
				deliver(fr[:n])
			}
		}
		resyncsBefore := cl.Resyncs()

		// A known-good keyframe must always re-anchor the client, whatever
		// state the hostile stream left it in.
		self := entity.Entity{ID: avatar, Pos: entity.Vec2{X: 7, Y: 8}, Health: 42, Owner: "s1", Seq: 9}
		visible := []entity.Entity{
			{ID: avatar + 1, Pos: entity.Vec2{X: 1, Y: 2}, Health: 10, Owner: "s1", Seq: 3},
			{ID: avatar + 2, Pos: entity.Vec2{X: 3, Y: 4}, Health: 20, Owner: "s1", Seq: 5},
		}
		w := wire.NewWriter(512)
		deliver(proto.Registry.Encode(w, &proto.StateKeyframe{Tick: 1 << 30, Self: self, Visible: visible}))

		if !cl.Synced() {
			t.Fatal("client not synced after known-good keyframe")
		}
		if cl.Resyncs() < resyncsBefore {
			t.Fatal("resync counter went backwards")
		}
		world := cl.World()
		if len(world) != len(visible) {
			t.Fatalf("world after keyframe has %d entities, want %d: %+v", len(world), len(visible), world)
		}
		for i, want := range visible {
			if world[i] != want {
				t.Fatalf("world[%d] = %+v, want %+v — client diverged from keyframe", i, world[i], want)
			}
		}
		if lu := cl.LastUpdate(); lu == nil || lu.Self != self {
			t.Fatalf("LastUpdate not synthesized from keyframe: %+v", lu)
		}
	})
}
