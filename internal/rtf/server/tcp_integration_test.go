package server_test

import (
	"fmt"
	"testing"
	"time"

	"roia/internal/bots"
	"roia/internal/game"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
)

// TestTCPEndToEnd runs the full networked deployment path of
// cmd/roiaserver + cmd/roiabot inside one test: two replicas over real TCP
// sockets, bots generating load, replication traffic between servers, and
// a model-ordered migration with the client following its handoff.
func TestTCPEndToEnd(t *testing.T) {
	net := transport.NewTCP()
	asg := zone.NewAssignment()
	servers := make([]*server.Server, 2)
	for i := range servers {
		node, err := net.Attach(fmt.Sprintf("s%d", i+1), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Node:       node,
			Zone:       1,
			Assignment: asg,
			App:        game.New(game.DefaultConfig()),
			IDPrefix:   uint16(i + 1),
			Seed:       int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		servers[i] = srv
		t.Cleanup(func() { srv.Stop() })
	}

	const nBots = 6
	swarm := make([]*bots.Bot, nBots)
	for i := range swarm {
		node, err := net.Attach(fmt.Sprintf("c%d", i+1), 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		cl := client.New(node, servers[i%2].ID())
		if err := cl.Join(1, entity.Vec2{X: float64(100 + 5*i), Y: 100}, node.ID()); err != nil {
			t.Fatal(err)
		}
		swarm[i] = bots.New(cl, bots.DefaultProfile(), int64(i+1))
	}

	// TCP delivery is asynchronous: tick until all bots joined and each
	// server replicates the full population.
	deadline := time.Now().Add(10 * time.Second)
	step := func() {
		for _, s := range servers {
			s.Tick()
		}
		for _, b := range swarm {
			b.Step()
		}
		time.Sleep(time.Millisecond)
	}
	for {
		step()
		allJoined := true
		for _, b := range swarm {
			if !b.Client().Joined() {
				allJoined = false
			}
		}
		if allJoined && servers[0].ZoneUserCount() == nBots && servers[1].ZoneUserCount() == nBots {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged: joined=%v zone=%d/%d",
				allJoined, servers[0].ZoneUserCount(), servers[1].ZoneUserCount())
		}
	}

	// Load flows: bots send inputs, servers measure the model parameters.
	for i := 0; i < 30; i++ {
		step()
	}
	for i, s := range servers {
		if s.FlightRecorder().Summary().Wall.Mean <= 0 {
			t.Fatalf("server %d measured no tick time", i+1)
		}
		if s.Monitor().LastBreakdown().BytesIn == 0 {
			t.Fatalf("server %d saw no inbound traffic", i+1)
		}
	}

	// Migrate one user from s1 to s2 over TCP and verify the handoff.
	before := servers[1].UserCount()
	servers[0].MigrateUsers("s2", 1)
	deadline = time.Now().Add(10 * time.Second)
	for servers[1].UserCount() != before+1 {
		step()
		if time.Now().After(deadline) {
			t.Fatalf("migration never completed over TCP: s2 users=%d", servers[1].UserCount())
		}
	}
	migrated := 0
	for _, b := range swarm {
		migrated += b.Client().Migrations()
	}
	if migrated != 1 {
		t.Fatalf("clients followed %d migrations, want 1", migrated)
	}
	// The migrated client keeps receiving updates from its new server.
	for i := 0; i < 10; i++ {
		step()
	}
	for _, b := range swarm {
		if b.Client().Server() == "s2" && b.Client().Updates() == 0 {
			t.Fatal("migrated client receives no updates")
		}
	}
}
