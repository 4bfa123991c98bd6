package fleet_test

// Tail-latency observability at fleet level: the collector's hiccup and
// capture counters and zone-merged tail quantile gauges, and the
// qos_tick_hiccup / qos_tail_inflation alert rules. The alert tests feed
// the flight recorder synthetic ticks directly, so thresholds
// are crossed by construction rather than by hoping the host machine
// stalls on cue.

import (
	"strings"
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/fleet"
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
		Network:    net,
		Zone:       1,
		Assignment: zone.NewAssignment(),
		NewApp:     func() server.Application { return game.New(game.DefaultConfig()) },
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

func TestFleetTailMetricsExposition(t *testing.T) {
	h := newTailHarness(t)
	h.addBot(t, "server-1")
	for i := 0; i < 80; i++ {
		h.step()
	}
	c := fleet.NewCollector(fleet.CollectorConfig{Fleets: []*fleet.Fleet{h.fl}})
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
// replica's flight recorder, as if the tick pipeline had run.
func synthTicks(t *testing.T, h *harness, id string, n int, wallMS float64) {
	t.Helper()
	srv, ok := h.fl.Server(id)
	if !ok {
		t.Fatalf("server %s not running", id)
	}
	for i := 0; i < n; i++ {
		srv.FlightRecorder().Record(telemetry.TickRecord{WallMS: wallMS, Users: 1})
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
		t.Fatalf("tail inflation not active after tail burst (ring walls %v)", srv.FlightRecorder().Summary().Walls)
	}
}

// TestQoSTailInflationNeedsATailThatMatters: on a near-idle replica a
// sub-millisecond stall is a large multiple of a 0.01 ms median, but it is
// 1 % of the 40 ms deadline, which is what the tail is judged against.
func TestQoSTailInflationNeedsATailThatMatters(t *testing.T) {
	h := newTailHarness(t)
	engine := telemetry.NewAlertEngine(nil, h.fl.AlertRules(fleet.AlertConfig{Model: tinyModel(t)})...)
	srv, _ := h.fl.Server("server-1")
	for i := 0; i < 100; i++ {
		wall := 0.01
		if i%20 == 0 {
			wall = 0.42 // p99 0.42 ms over p50 0.01 ms: 42×
		}
		srv.FlightRecorder().Record(telemetry.TickRecord{WallMS: wall, DeadlineMS: 40, Users: 1})
	}
	for sec := 0; sec < 2; sec++ {
		engine.Eval(float64(sec))
	}
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertQoSTailInflation {
			t.Fatalf("tail inflation active on a 0.42 ms tail under a 40 ms deadline: %+v", a)
		}
	}
}

// TestModelDriftRulePerReplica runs two replicas of which only the first
// one's NPC cost is slowed (10× the model's t_npc). model_drift must fire
// for that replica and stay quiet for the second, whose ticks the model
// predicts exactly: each replica is judged on its own ring.
func TestModelDriftRulePerReplica(t *testing.T) {
	h := newTailHarness(t)
	if _, err := h.fl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	mdl := tinyModel(t)
	engine := telemetry.NewAlertEngine(nil, h.fl.AlertRules(fleet.AlertConfig{Model: mdl})...)
	const l, n, a, m = 2, 2, 1, 40
	for id, npcScale := range map[string]float64{"server-1": 10, "server-2": 1} {
		srv, _ := h.fl.Server(id)
		npcMS := npcScale * mdl.Cost.NPCAt(n, m) * m / l
		for i := 0; i < 50; i++ {
			srv.FlightRecorder().Record(telemetry.TickRecord{
				WallMS: mdl.TickTimeUneven(l, n, m, a) - mdl.Cost.NPCAt(n, m)*m/l + npcMS,
				Users:  n, ActiveUsers: a, NPCs: m, Replicas: l,
				Tasks: []telemetry.Span{{Name: "t_npc", DurMS: npcMS, Items: m / l}},
			})
		}
	}
	for sec := 0; sec < 2; sec++ {
		engine.Eval(float64(sec))
	}
	var fired []string
	for _, al := range engine.Active() {
		if al.Rule == fleet.AlertModelDrift {
			fired = append(fired, al.Key+"/"+al.State.String())
			if al.Value <= al.Threshold {
				t.Fatalf("model_drift = %+v, want over threshold", al)
			}
		}
	}
	if len(fired) != 1 || fired[0] != "server-1/firing" {
		t.Fatalf("model_drift instances = %v, want [server-1/firing]", fired)
	}
}
