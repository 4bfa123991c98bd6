package fleet_test

// Cost observability at fleet level: the qos_gc_pause and
// egress_per_user_ceiling alert rules, read from the replicas' flight
// recorders. The GC rule test forces a collection from inside ApplyInput
// so a GC pause provably lands between the recorder's BeginTick and
// Record, instead of hoping the runtime collects on cue.

import (
	"runtime"
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// gcForceApp wraps the game application and forces a garbage collection on
// every user input, guaranteeing in-tick GC pause for the flight recorder
// to attribute.
type gcForceApp struct{ server.Application }

func (a gcForceApp) ApplyInput(env *server.Env, actor *entity.Entity, payload []byte) ([]server.Forward, error) {
	runtime.GC()
	return a.Application.ApplyInput(env, actor, payload)
}

func newCostHarness(t *testing.T, forceGC bool) *harness {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	newApp := func() server.Application { return game.New(game.DefaultConfig()) }
	if forceGC {
		newApp = func() server.Application { return gcForceApp{game.New(game.DefaultConfig())} }
	}
	fl, err := fleet.New(fleet.Config{
		Network:    net,
		Zone:       1,
		Assignment: zone.NewAssignment(),
		NewApp:     newApp,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	return &harness{net: net, fl: fl}
}

func TestQoSGCPauseRule(t *testing.T) {
	h := newCostHarness(t, true)
	h.addBot(t, "server-1")
	srv, ok := h.fl.Server("server-1")
	if !ok {
		t.Fatal("server-1 not running")
	}
	// A near-zero budget fraction of the 40 ms deadline (the fleet's default
	// tick interval) makes any in-tick GC pause a breach; the
	// wrapped app forces a collection on every input, so the ring's pause
	// p99 is nonzero by construction after a handful of ticks.
	engine := telemetry.NewAlertEngine(nil, h.fl.AlertRules(fleet.AlertConfig{
		Model:         tinyModel(t),
		GCPauseBudget: 1e-9,
	})...)
	for i := 0; i < 30; i++ {
		h.step()
	}
	engine.Eval(0)
	found := false
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertQoSGCPause {
			found = true
			if a.Key != "server-1" || a.Value <= a.Threshold {
				t.Fatalf("gc pause alert = %+v, want server-1 over threshold", a)
			}
		}
	}
	if !found {
		t.Fatalf("qos_gc_pause not active after forced in-tick GCs (records %+v)", srv.FlightRecorder().Last(3))
	}
}

func TestEgressPerUserCeilingRule(t *testing.T) {
	h := newCostHarness(t, false)
	h.addBot(t, "server-1")
	// One byte per user per tick: a single state update frame breaches it.
	engine := telemetry.NewAlertEngine(nil, h.fl.AlertRules(fleet.AlertConfig{
		Model:                tinyModel(t),
		EgressPerUserCeiling: 1,
	})...)
	for i := 0; i < 10; i++ {
		h.step()
	}
	engine.Eval(0)
	for i := 0; i < 10; i++ {
		h.step()
	}
	engine.Eval(1)
	found := false
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertEgressPerUser {
			found = true
			if a.Key != "server-1" || a.Value <= a.Threshold || a.Threshold != 1 {
				t.Fatalf("egress alert = %+v, want server-1 over the 1-byte ceiling", a)
			}
		}
	}
	if !found {
		srv, _ := h.fl.Server("server-1")
		t.Fatalf("egress_per_user_ceiling not active under live traffic (records %+v)", srv.FlightRecorder().Last(3))
	}
}

func TestEgressRuleAbsentWithoutCeiling(t *testing.T) {
	h := newCostHarness(t, false)
	for _, r := range h.fl.AlertRules(fleet.AlertConfig{Model: tinyModel(t)}) {
		if r.Name == fleet.AlertEgressPerUser {
			t.Fatal("egress_per_user_ceiling rule built with a zero ceiling")
		}
	}
}
