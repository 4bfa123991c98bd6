package server_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"roia/internal/game"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
)

func TestServerAccessorsAndRunLoop(t *testing.T) {
	h := build(t, duo(0, 0), ref)
	defer h.finish()
	h.step(0)
	srv := h.servers[0]
	if srv.Zone() != 1 || !strings.Contains(srv.String(), "s1") || srv.Draining() || len(srv.Users()) != 2 {
		t.Fatalf("zone %d, %s, draining %v, users %v", srv.Zone(), srv, srv.Draining(), srv.Users())
	}

	// Run drives the tick loop until the context is cancelled.
	ticks := func() uint64 { return srv.FlightRecorder().Summary().Ticks }
	before := ticks()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	deadline := time.After(5 * time.Second)
	for ticks() < before+2 {
		select {
		case <-deadline:
			t.Fatal("Run never ticked")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestConfigValidation(t *testing.T) {
	net := transport.NewLoopback()
	defer net.Close()
	node, _ := net.Attach("s", 8)
	asg := zone.NewAssignment()
	g := game.New(game.DefaultConfig())
	if _, err := server.New(server.Config{Zone: 1, Assignment: asg, App: g}); err == nil {
		t.Fatal("nil node accepted")
	}
	if _, err := server.New(server.Config{Node: node, Zone: 1, Assignment: asg}); err == nil {
		t.Fatal("nil app accepted")
	}
	if _, err := server.New(server.Config{Node: node, Zone: 1, App: g}); err == nil {
		t.Fatal("nil assignment accepted")
	}
}
