package server_test

import (
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
	"roia/internal/rtf/zone"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	h := build(t, &plan{name: "snapshot", zones: []zone.ID{1, 1}, game: game.DefaultConfig(), seed: 1000, keyframe: 8,
		members: []member{{pos: entity.Vec2{X: 50, Y: 60}, leave: never}},
		inputs: func(t, i int) [][]byte {
			if t == 1 {
				return [][]byte{move(3, 4)}
			}
			return nil
		},
	}, ref)
	defer h.finish()
	cl := h.users[0]
	npc := h.servers[0].SpawnNPC(entity.Vec2{X: 200, Y: 200})
	for tick := range 4 {
		h.step(tick)
	}

	snap := h.servers[0].Snapshot()

	// A fresh server (s3) restores the snapshot and adopts s1's entities,
	// simulating s1's crash.
	node, err := h.net.Attach("s3", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := server.New(server.Config{
		Node:       node,
		Zone:       1,
		Assignment: h.asg,
		App:        game.New(game.DefaultConfig()),
		IDPrefix:   3,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	adopted := s3.AdoptEntities("s1")
	if adopted != 2 { // the avatar and the NPC
		t.Fatalf("adopted %d entities, want 2", adopted)
	}
	// Every entity of the zone is present with identical state.
	avatar, ok := s3.Entity(cl.Avatar())
	if !ok {
		t.Fatal("avatar missing after restore")
	}
	orig, _ := h.servers[0].Entity(cl.Avatar())
	if avatar.Pos != orig.Pos || avatar.Health != orig.Health {
		t.Fatalf("restored avatar diverged: %+v vs %+v", avatar, orig)
	}
	if avatar.Owner != "s3" {
		t.Fatalf("avatar owner = %q, want adopted s3", avatar.Owner)
	}
	// The restored server resumes ticking and processes the adopted NPC.
	s3.Start()
	defer s3.Stop()
	before, ok := s3.Entity(npc)
	if !ok {
		t.Fatal("NPC missing after restore")
	}
	s3.Tick()
	s3.Tick()
	after, _ := s3.Entity(npc)
	if before.Pos == after.Pos {
		t.Fatal("adopted NPC not processed after restore")
	}
}

func TestRestoreGuards(t *testing.T) {
	h := build(t, duo(0, 0), ref)
	defer h.finish()
	h.step(0)
	snap := h.servers[0].Snapshot()

	// Restore into a non-empty server is refused.
	if err := h.servers[0].RestoreSnapshot(snap); err == nil {
		t.Fatal("restored into a populated server")
	}

	node, _ := h.net.Attach("fresh", 1<<14)
	fresh, err := server.New(server.Config{
		Node: node, Zone: 2, Assignment: h.asg,
		App: game.New(game.DefaultConfig()), IDPrefix: 9, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong zone.
	if err := fresh.RestoreSnapshot(snap); err == nil {
		t.Fatal("restored a zone-1 snapshot into a zone-2 server")
	}
	// Garbage payloads.
	if err := fresh.RestoreSnapshot([]byte{1, 2, 3}); err == nil {
		t.Fatal("restored garbage")
	}
	if err := fresh.RestoreSnapshot(snap[:8]); err == nil {
		t.Fatal("restored truncated snapshot")
	}
}

func TestAdoptEntitiesSelfNoop(t *testing.T) {
	h := build(t, duo(0, 0), ref)
	defer h.finish()
	h.step(0)
	if got := h.servers[0].AdoptEntities("s1"); got != 0 {
		t.Fatalf("self-adoption moved %d entities", got)
	}
}
