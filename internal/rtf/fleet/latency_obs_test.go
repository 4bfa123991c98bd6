package fleet_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roia/internal/game"
	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// metricValue extracts the value of the first sample of family name whose
// label set contains labelFrag.
func metricValue(t *testing.T, exposition, name, labelFrag string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(\{[^}]*\})? (\S+)$`)
	for _, m := range re.FindAllStringSubmatch(exposition, -1) {
		if labelFrag != "" && !strings.Contains(m[1], labelFrag) {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("metric %s: bad value %q", name, m[2])
		}
		return v
	}
	t.Fatalf("metric %s with labels containing %q not found in:\n%s", name, labelFrag, exposition)
	return 0
}

// TestClientRTTAndDeadlinesOnFleetMetrics is the response-time acceptance
// test: bots drive a live fleet over a lossy transport, and the
// /fleet/metrics scrape exports both halves of the QoS contract — the
// client-side input→update RTT distribution (p99, deadline violations)
// and the per-replica tick-deadline violation counters.
func TestClientRTTAndDeadlinesOnFleetMetrics(t *testing.T) {
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	fl, err := fleet.New(fleet.Config{
		Network:    net,
		Zone:       1,
		Assignment: zone.NewAssignment(),
		NewApp:     func() server.Application { return game.New(game.DefaultConfig()) },
		Seed:       7,
		// A 1 ns tick budget makes every tick a deadline violation, so the
		// counter provably counts without real 40 ms overload runs.
		TickInterval: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.AddReplica(); err != nil {
		t.Fatal(err)
	}

	// Clients talk through lossy links; joins happen at rate 0, then loss
	// is phased in so only steady-state traffic is degraded.
	var clients []*client.Client
	var links []*transport.Lossy
	for i := 0; i < 6; i++ {
		node, err := net.Attach(fmt.Sprintf("rtt-bot-%d", i), 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		lossy := transport.NewLossy(node, 0, int64(i))
		links = append(links, lossy)
		cl := client.New(lossy, "server-1")
		// Sub-microsecond RTT deadline: every measured RTT violates, so
		// the violation counter is exercised deterministically.
		cl.SetLatencyDeadline(1e-6)
		if err := cl.Join(1, entity.Vec2{X: float64(100 + i), Y: 100}, node.ID()); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	step := func() {
		for _, cl := range clients {
			if cl.Joined() {
				if err := cl.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: 1})); err != nil {
					t.Fatal(err)
				}
			}
		}
		fl.TickAll()
		for _, cl := range clients {
			cl.Poll()
		}
	}
	for i := 0; i < 10; i++ {
		step()
	}
	for _, cl := range clients {
		if !cl.Joined() {
			t.Fatal("client never joined")
		}
	}
	for _, l := range links {
		l.SetRate(0.3)
	}
	for i := 0; i < 100; i++ {
		step()
	}

	// Fleet-wide RTT distribution, merged at scrape time so it tracks the
	// live swarm (the same shape cmd/roiarms exports).
	clientRTT := func() *telemetry.Latency {
		all := telemetry.NewLatency(1e-6)
		for _, cl := range clients {
			all.Merge(cl.Latency())
		}
		return all
	}
	if clientRTT().Snapshot().Count == 0 {
		t.Fatal("no RTTs measured under 30% loss")
	}

	col := fleet.NewCollector(fleet.CollectorConfig{
		Fleets:        []*fleet.Fleet{fl},
		ClientLatency: func() telemetry.LatencySnapshot { return clientRTT().Snapshot() },
	})
	ts := httptest.NewServer(col.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)

	if p99 := metricValue(t, out, "roia_client_rtt_ms", `stat="p99"`); p99 <= 0 {
		t.Fatalf("client p99 RTT = %g, want > 0", p99)
	}
	rttViol := metricValue(t, out, "roia_client_rtt_deadline_violations_total", "")
	rttCount := metricValue(t, out, "roia_client_rtt_count", "")
	if rttViol <= 0 || rttViol != rttCount {
		t.Fatalf("RTT violations = %g of %g observations, want all (deadline ~0)", rttViol, rttCount)
	}
	if dl := metricValue(t, out, "roia_fleet_deadline_ms", `replica="server-1"`); dl <= 0 {
		t.Fatalf("replica deadline = %g, want > 0", dl)
	}
	tickViol := metricValue(t, out, "roia_fleet_deadline_violations_total", `replica="server-1"`)
	ticks := metricValue(t, out, "roia_fleet_ticks_total", `replica="server-1"`)
	if tickViol <= 0 || tickViol != ticks {
		t.Fatalf("tick violations = %g of %g ticks, want all (1ns budget)", tickViol, ticks)
	}
}

// slowableApp wraps the game and injects a busy-wait into one application
// hook, so a slowdown lands in exactly one of the model's task phases.
type slowableApp struct {
	server.Application
	npcDelay atomic.Int64 // nanoseconds per UpdateNPC call
}

func (a *slowableApp) UpdateNPC(env *server.Env, npc *entity.Entity) []server.Forward {
	if d := a.npcDelay.Load(); d > 0 {
		for start := time.Now(); time.Since(start) < time.Duration(d); {
		}
	}
	return a.Application.UpdateNPC(env, npc)
}

// TestTaskDriftFlagsInjectedNPCSlowdown calibrates per-task cost curves
// from a live fleet, injects a 100×-scale slowdown into the NPC update
// hook only, and asserts the per-task drift read from the replicas' rings
// flags t_npc — and no other task — as diverged from the model.
func TestTaskDriftFlagsInjectedNPCSlowdown(t *testing.T) {
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	var apps []*slowableApp
	fl, err := fleet.New(fleet.Config{
		Network:    net,
		Zone:       1,
		Assignment: zone.NewAssignment(),
		NewApp: func() server.Application {
			a := &slowableApp{Application: game.New(game.DefaultConfig())}
			apps = append(apps, a)
			return a
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	// A second replica produces shadow-update traffic, so the forwarded
	// tasks have samples too.
	if _, err := fl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	h := &harness{net: net, fl: fl}
	s1, _ := fl.Server("server-1")
	for i := 0; i < 8; i++ {
		s1.SpawnNPC(entity.Vec2{X: float64(100 + i*20), Y: 300})
	}
	for i := 0; i < 4; i++ {
		h.addBot(t, "server-1")
	}
	for i := 0; i < 60; i++ {
		h.step()
	}

	// Calibrate: fit constant curves to the measured per-item costs, as a
	// calibration run would. Each task is averaged over the replicas that
	// actually ran it (forwarded inputs only land on the shadow-holding
	// replica), so predictions match the workload everywhere.
	c := func(task monitor.Task) params.Curve {
		var sum float64
		var k int
		for _, id := range fl.IDs() {
			srv, ok := fl.Server(id)
			if !ok {
				continue
			}
			if s := srv.FlightRecorder().Summary().Tasks[task.String()]; s.Count > 0 {
				sum += s.Mean
				k++
			}
		}
		if k == 0 || sum <= 0 {
			return params.Constant(1e-6)
		}
		return params.Constant(sum / float64(k))
	}
	set := &params.Set{
		Name:    "calibrated",
		UADeser: c(monitor.UADeser), UA: c(monitor.UA),
		FADeser: c(monitor.FADeser), FA: c(monitor.FA),
		NPC: c(monitor.NPC), AOI: c(monitor.AOI), SU: c(monitor.SU),
		MigIni: params.Constant(1), MigRcv: params.Constant(1),
	}
	mdl, err := model.New(set, 40, params.CDefault)
	if err != nil {
		t.Fatal(err)
	}

	// Inject: only the NPC hook slows down, by ~100× its calibrated cost.
	npcDelay := 100 * time.Duration(set.NPCAt(0, 0)*float64(time.Millisecond))
	if min := 200 * time.Microsecond; npcDelay < min {
		npcDelay = min
	}
	for _, a := range apps {
		a.npcDelay.Store(int64(npcDelay))
	}
	// Enough post-injection ticks that slowed samples dominate the rings.
	for i := 0; i < 80; i++ {
		h.step()
	}

	// The zone's rings pooled; every record is compared at its own workload.
	var recs []telemetry.TickRecord
	for _, id := range fl.IDs() {
		srv, _ := fl.Server(id)
		recs = append(recs, srv.FlightRecorder().Last(0)...)
	}
	drift := monitor.ModelDrift(mdl, recs)
	flagged := []string{}
	for i, s := range drift.Tasks {
		task := monitor.Task(i)
		if s.Samples == 0 {
			continue
		}
		if s.PredictedMS <= 0 {
			t.Fatalf("task %s predicted %g, want > 0", task, s.PredictedMS)
		}
		// A drift gauge "flags" a task when measurement and prediction
		// disagree by over 8× in either direction — far past timing noise,
		// far under the injected 100×.
		if s.MeasuredMS > 8*s.PredictedMS || s.PredictedMS > 8*s.MeasuredMS {
			flagged = append(flagged, task.String())
		}
	}
	// Exactly one task past 8× makes t_npc the worst by that factor.
	if len(flagged) != 1 || flagged[0] != "t_npc" {
		t.Fatalf("drift flagged %v, want exactly [t_npc]\ndrift: %+v", flagged, drift)
	}
	if s := drift.Tasks[monitor.NPC]; s.ErrRatio >= -0.5 {
		t.Fatalf("t_npc drift = %+v, want it saturated low (the model underpredicts)", s)
	}

	// And the per-task drift gauges export what the rows hold.
	var b strings.Builder
	if err := drift.WriteMetrics(&b, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	meas := metricValue(t, out, "roia_model_task_measured_ms", `task="t_npc"`)
	pred := metricValue(t, out, "roia_model_task_predicted_ms", `task="t_npc"`)
	if meas <= 8*pred {
		t.Fatalf("exported t_npc drift measured=%g predicted=%g, want >8x gap", meas, pred)
	}
}
