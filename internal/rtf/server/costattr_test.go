package server

// Race-enabled integration test for GC attribution in flight-recorder
// captures: a hiccup whose tick provably contains a forced garbage
// collection must be classified gc_attributed, and the trigger record must
// carry the tick's GC and allocation deltas. Lives in-package (like the
// flight recorder tests) to swap the executor's injected clock.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"roia/internal/rtf/entity"
	"roia/internal/telemetry"
)

// gcApp extends flightApp with an on-demand garbage collection inside
// ApplyInput, so a GC pause provably lands between the flight recorder's
// BeginTick and Record of a chosen tick.
type gcApp struct {
	flightApp
	force atomic.Bool
}

func (a *gcApp) ApplyInput(env *Env, actor *entity.Entity, payload []byte) ([]Forward, error) {
	if a.force.Load() {
		runtime.GC()
	}
	return a.flightApp.ApplyInput(env, actor, payload)
}

func TestFlightCaptureGCAttribution(t *testing.T) {
	const (
		pre, post = 4, 3
		window    = 8
	)
	rec := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{
		Pre: pre, Post: post, K: 4, Window: window,
		MinHiccupMS: -1, // wall times here are synthetic µs-scale values
	})
	app := &gcApp{}

	srv, clk, clients, cleanup := startFlightServer(t, rec, app, 2)
	defer cleanup()

	for i := 0; i < window+pre; i++ {
		steadyTick(srv, clients)
	}

	// The hiccup tick: slow clock AND a forced in-tick GC.
	app.force.Store(true)
	clk.setStep(2 * time.Millisecond)
	steadyTick(srv, clients)
	app.force.Store(false)
	clk.setStep(20 * time.Microsecond)
	gcTick := srv.tick

	for i := 0; i < post+4; i++ {
		steadyTick(srv, clients)
	}

	caps := rec.Captures()
	if len(caps) != 1 {
		t.Fatalf("captures = %d, want exactly 1", len(caps))
	}
	cap := caps[0]
	if cap.TriggerTick != gcTick {
		t.Fatalf("trigger tick = %d, want %d", cap.TriggerTick, gcTick)
	}
	if !cap.GCAttributed {
		t.Fatalf("capture with a forced in-tick GC not gc_attributed: %+v", cap)
	}
	trigger := cap.Records[pre]
	if trigger.Tick != gcTick {
		t.Fatalf("record at pre index has tick %d, want trigger %d", trigger.Tick, gcTick)
	}
	if trigger.GCCycles == 0 {
		t.Fatalf("trigger record GCCycles = 0, want >= 1 (forced GC in tick)")
	}
	if trigger.GCPauseMS <= 0 {
		t.Fatalf("trigger record GCPauseMS = %g, want > 0", trigger.GCPauseMS)
	}
	if trigger.AllocBytes == 0 || trigger.AllocObjects == 0 {
		t.Fatalf("trigger record alloc deltas = (%d B, %d objs), want nonzero",
			trigger.AllocBytes, trigger.AllocObjects)
	}

	// A second hiccup with no forced GC: the classification must agree with
	// the trigger record's own GC deltas (a background cycle may still land
	// in the tick, so assert consistency rather than a hard false).
	clk.setStep(2 * time.Millisecond)
	steadyTick(srv, clients)
	clk.setStep(20 * time.Microsecond)
	slowTick := srv.tick
	for i := 0; i < post+4; i++ {
		steadyTick(srv, clients)
	}
	caps = rec.Captures()
	if len(caps) != 2 {
		t.Fatalf("captures after second hiccup = %d, want 2", len(caps))
	}
	cap2 := caps[1]
	if cap2.TriggerTick != slowTick {
		t.Fatalf("second trigger tick = %d, want %d", cap2.TriggerTick, slowTick)
	}
	trig2 := cap2.Records[pre]
	if want := trig2.GCPauseMS > 0 || trig2.GCCycles > 0; cap2.GCAttributed != want {
		t.Fatalf("gc_attributed = %v, but trigger GC deltas are (%g ms, %d cycles)",
			cap2.GCAttributed, trig2.GCPauseMS, trig2.GCCycles)
	}
}
