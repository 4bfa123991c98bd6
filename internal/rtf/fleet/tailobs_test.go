package fleet_test

// Tail-latency observability at fleet level: the collector's hiccup and
// capture counters and zone-merged tail quantile gauges, and the
// qos_tick_hiccup / qos_tail_inflation alert rules. The alert tests feed
// the monitor and flight recorder synthetic ticks directly, so thresholds
// are crossed by construction rather than by hoping the host machine
// stalls on cue.

import (
	"strings"
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

func newTailHarness(t *testing.T) *harness {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	fl, err := fleet.New(fleet.Config{
		Network:         net,
		Zone:            1,
		Assignment:      zone.NewAssignment(),
		NewApp:          func() server.Application { return game.New(game.DefaultConfig()) },
		Seed:            7,
		FlightRecorders: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	return &harness{net: net, fl: fl}
}

func TestFleetTailMetricsExposition(t *testing.T) {
	h := newTailHarness(t)
	h.addBot(t, "server-1")
	for i := 0; i < 80; i++ {
		h.step()
	}
	srv, ok := h.fl.Server("server-1")
	if !ok {
		t.Fatal("server-1 not running")
	}
	if srv.FlightRecorder() == nil {
		t.Fatal("no flight recorder with FlightRecorders on")
	}

	c := fleet.NewCollector(h.fl)
	var b strings.Builder
	if err := c.WriteMetrics(&b, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE roia_fleet_tick_hiccups_total counter",
		`roia_fleet_tick_hiccups_total{zone="1",replica="server-1"} `,
		"# TYPE roia_fleet_flightrec_captures_total counter",
		`roia_fleet_flightrec_captures_total{zone="1",replica="server-1"} `,
		"# TYPE roia_fleet_tick_wall_q_ms gauge",
		`roia_fleet_tick_wall_q_ms{zone="1",q="p50"}`,
		`roia_fleet_tick_wall_q_ms{zone="1",q="p90"}`,
		`roia_fleet_tick_wall_q_ms{zone="1",q="p99"}`,
		`roia_fleet_tick_wall_q_ms{zone="1",q="p999"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet metrics missing %q:\n%s", want, out)
		}
	}
}

// synthTicks feeds n synthetic ticks of the given wall time into a
// replica's monitor and flight recorder, as if the tick pipeline had run.
func synthTicks(t *testing.T, h *harness, id string, n int, wallMS float64) {
	t.Helper()
	srv, ok := h.fl.Server(id)
	if !ok {
		t.Fatalf("server %s not running", id)
	}
	rec := srv.FlightRecorder()
	for i := 0; i < n; i++ {
		srv.Monitor().RecordTick(monitor.Breakdown{WallMS: wallMS, Users: 1})
		if rec != nil {
			rec.Record(telemetry.TickRecord{WallMS: wallMS})
		}
	}
}

func TestQoSTickHiccupRule(t *testing.T) {
	h := newTailHarness(t)
	engine := telemetry.NewAlertEngine(nil, h.fl.AlertRules(fleet.AlertConfig{Model: tinyModel(t)})...)

	// Steady baseline: a full hiccup window of identical ticks, no stalls.
	synthTicks(t, h, "server-1", telemetry.DefaultHiccupWindow+16, 2)
	engine.Eval(0)
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertQoSTickHiccup {
			t.Fatalf("hiccup alert active on steady ticks: %+v", a)
		}
	}

	// A burst of 20 ms stalls on a 2 ms median: 10× the K=4 threshold,
	// 5 hiccups over ~21 new ticks — far past the 1% budget.
	synthTicks(t, h, "server-1", 5, 20)
	synthTicks(t, h, "server-1", 16, 2)
	engine.Eval(1)
	found := false
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertQoSTickHiccup {
			found = true
			if a.Key != "server-1" || a.Value <= a.Threshold {
				t.Fatalf("hiccup alert = %+v, want server-1 over threshold", a)
			}
		}
	}
	if !found {
		srv, _ := h.fl.Server("server-1")
		t.Fatalf("hiccup alert not active after stall burst (recorder hiccups=%d)", srv.FlightRecorder().Hiccups())
	}
}

func TestQoSTailInflationRule(t *testing.T) {
	h := newTailHarness(t)
	engine := telemetry.NewAlertEngine(nil, h.fl.AlertRules(fleet.AlertConfig{Model: tinyModel(t)})...)

	// A flat distribution: p99/p50 = 1, rule stays inactive.
	synthTicks(t, h, "server-1", 100, 1)
	engine.Eval(0)
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertQoSTailInflation {
			t.Fatalf("tail inflation active on flat distribution: %+v", a)
		}
	}

	// Inflate the tail: 10 ticks of 50 ms against a 1 ms median pushes
	// the windowed p99 to 50× p50, past the default 4× budget.
	synthTicks(t, h, "server-1", 10, 50)
	engine.Eval(1)
	found := false
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertQoSTailInflation {
			found = true
			if a.Key != "server-1" || a.Value <= a.Threshold || a.Threshold != 4 {
				t.Fatalf("tail inflation alert = %+v, want server-1 over 4x", a)
			}
		}
	}
	if !found {
		srv, _ := h.fl.Server("server-1")
		t.Fatalf("tail inflation not active after tail burst (quantiles %+v)", srv.Monitor().TailQuantiles())
	}
}
