// Package roia holds the repository-level micro-benchmarks: one per
// roiabench artifact (Figures 4–8, the Section V-A anchors, the baseline
// comparison, the pacing ablation, the traffic model, the profile
// comparison and the speedup sweep), the model, AoI and fitting kernels, and
// the price of the per-tick observers. The live middleware's end-to-end and
// per-layer figures come from the bench/ module (`bash bench/run.sh`).
//
// Run with: go test -bench=. -benchmem .
package roia

import (
	"fmt"
	"math"
	"testing"

	"roia/internal/bots"
	"roia/internal/experiments"
	"roia/internal/fit"
	"roia/internal/game"
	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rms"
	"roia/internal/rtf/aoi"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// --- figure reproductions -------------------------------------------------

func BenchmarkFig4ParameterFitting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(1)
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxRelErr > 0.15 {
			b.Fatalf("fit drifted: %g", res.MaxRelErr)
		}
	}
}

func BenchmarkFig5ReplicationScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiments.Fig5(); res.LMax != 8 || res.MaxUsers[0] != 235 {
			b.Fatalf("anchors broken: lmax=%d n1=%d", res.LMax, res.MaxUsers[0])
		}
	}
}

func BenchmarkFig6MigrationParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7MigrationThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiments.Fig7(); res.IniAt[35] != 3 {
			b.Fatalf("worked example broken: %d", res.IniAt[35])
		}
	}
}

func BenchmarkFig8DynamicLoadBalancing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Session.TotalViolations != 0 {
			b.Fatalf("violations: %d", res.Session.TotalViolations)
		}
	}
}

func BenchmarkAnchorThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := experiments.Anchors(); a.NMax1 != 235 || a.LMaxC015 != 8 {
			b.Fatalf("anchors broken: %+v", a)
		}
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BaselineComparison(1)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Violations != 0 {
			b.Fatalf("model-rms violated: %+v", rows[0])
		}
	}
}

func BenchmarkPacingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PacingAblation(1)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Violations != 0 || rows[1].Violations == 0 {
			b.Fatalf("ablation shape broken: %+v", rows)
		}
	}
}

func BenchmarkProfileComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.ProfileComparison(); rows[0].NMax1 != 235 {
			b.Fatalf("fps anchor broken: %+v", rows[0])
		}
	}
}

func BenchmarkSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Speedup(1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].NMax != 235 {
			b.Fatalf("w=1 anchor broken: %+v", res.Rows[0])
		}
	}
}

func BenchmarkTrafficModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Traffic(1)
		if err != nil {
			b.Fatal(err)
		}
		if res.AsymmetryAt150 <= 1 {
			b.Fatalf("asymmetry = %g", res.AsymmetryAt150)
		}
	}
}

// --- model evaluation ablations --------------------------------------------

func rtfdemoModel(b *testing.B) *model.Model {
	b.Helper()
	mdl, err := model.New(params.RTFDemo(), params.UFirstPersonShooter, params.CDefault)
	if err != nil {
		b.Fatal(err)
	}
	return mdl
}

func BenchmarkModelTickTime(b *testing.B) {
	mdl := rtfdemoModel(b)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += mdl.TickTime(4, 300, 20)
	}
	if sink == 0 {
		b.Fatal("tick time zero")
	}
}

func BenchmarkModelMaxUsers(b *testing.B) {
	mdl := rtfdemoModel(b)
	for i := 0; i < b.N; i++ {
		if n, _ := mdl.MaxUsers(4, 0); n == 0 {
			b.Fatal("n_max zero")
		}
	}
}

func BenchmarkModelMaxReplicas(b *testing.B) {
	mdl := rtfdemoModel(b)
	for i := 0; i < b.N; i++ {
		if l, _ := mdl.MaxReplicas(0); l != 8 {
			b.Fatalf("l_max = %d", l)
		}
	}
}

func BenchmarkMigrationPlanner(b *testing.B) {
	mdl := rtfdemoModel(b)
	servers := make([]rms.ServerState, 8)
	n := 0
	for i := range servers {
		u := 20 + i*15
		servers[i] = rms.ServerState{ID: fmt.Sprintf("s%d", i), Users: u}
		n += u
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan := rms.PlanMigrations(mdl, servers, n, 0); plan == nil {
			b.Fatal("no plan")
		}
	}
}

// --- interest-management ablation (Euclid oracle vs the index) --------------

func aoiWorld(n int) []*entity.Entity {
	world := make([]*entity.Entity, n)
	for i := range world {
		world[i] = &entity.Entity{
			ID:  entity.ID(i + 1),
			Pos: entity.Vec2{X: float64((i * 83) % 1000), Y: float64((i * 131) % 1000)},
		}
	}
	return world
}

func benchAoI(b *testing.B, mgr aoi.Manager, n int) {
	world := aoiWorld(n)
	var buf []entity.ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.Build(world)
		for _, e := range world {
			buf = mgr.Visible(buf[:0], e.ID, e.Pos, world)
		}
	}
}

func BenchmarkAoIEuclid(b *testing.B) {
	for _, n := range []int{50, 150, 300, 1000} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			benchAoI(b, aoi.NewEuclid(50), n)
		})
	}
}

func BenchmarkAoIIncremental(b *testing.B) {
	for _, n := range []int{50, 150, 300, 1000} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			benchAoI(b, aoi.NewIncremental(50), n)
		})
	}
}

// --- the price of the server's observer -------------------------------------

// observedTick builds a server running the game with nBots joined bots,
// each client measuring its input→update RTT against a 40 ms deadline, and
// returns one lockstep iteration: every bot steps, then the server ticks.
// rec is the server's tick history (nil for one with default thresholds).
func observedTick(tb testing.TB, nBots int, rec *telemetry.FlightRecorder) func() {
	tb.Helper()
	net := transport.NewLoopback()
	tb.Cleanup(func() { net.Close() })
	node, err := net.Attach("s1", 1<<16)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Node: node, Zone: 1, Assignment: zone.NewAssignment(),
		App: game.New(game.DefaultConfig()), IDPrefix: 1, Seed: 1,
		FlightRec: rec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv.Start()
	swarm := make([]*bots.Bot, nBots)
	for i := range swarm {
		cn, err := net.Attach(fmt.Sprintf("c%d", i+1), 1<<14)
		if err != nil {
			tb.Fatal(err)
		}
		cl := client.New(cn, "s1")
		cl.SetLatencyDeadline(40)
		if err := cl.Join(1, entity.Vec2{X: float64(100 + i*3), Y: 100}, cn.ID()); err != nil {
			tb.Fatal(err)
		}
		swarm[i] = bots.New(cl, bots.DefaultProfile(), int64(i+1))
	}
	step := func() {
		for _, bt := range swarm {
			bt.Step()
		}
		srv.Tick()
	}
	for i := 0; i < 5; i++ {
		step()
	}
	return step
}

// BenchmarkInstrumentedTick measures the full tick loop with 60 bots as
// every server runs it: with the flight recorder, the server's one tick
// history (its TickRecord ring serves the resource manager's mean tick,
// /metrics, the tick trace, the migration trace and the alert rules, and
// it samples runtime/metrics once at tick start and once in Record).
// TestRecorderTickAllocs holds the allocation half of the recorder's
// price.
func BenchmarkInstrumentedTick(b *testing.B) {
	step := observedTick(b, 60, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// bareTickAllocs is the rig's allocations per tick after the same
// 2048-tick warm-up, measured with no recorder at all before the recorder
// became every server's tick history (go1.24, linux/amd64, plain and -race
// alike; 127 after a 5-tick warm-up, while the server's own buffers still
// grow).
const bareTickAllocs = 118

// TestRecorderTickAllocs prices the always-on recorder in allocations,
// which unlike its time are deterministic: on steady ticks with moving
// users and no migrations, once the ring has filled (every record then
// reuses an evicted slot's Tasks array), the rig's tick allocates no more
// than the bare tick did. Captures are the recorder's rare path, so this
// recorder never triggers one.
func TestRecorderTickAllocs(t *testing.T) {
	const ticks, ring = 100, 2048
	rec := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{MinHiccupMS: math.MaxFloat64})
	step := observedTick(t, 8, rec)
	for i := 0; i < ring; i++ {
		step()
	}
	if got := testing.AllocsPerRun(ticks, step); got > bareTickAllocs {
		t.Fatalf("tick allocs = %g with the recorder, want <= %d (the bare tick)", got, bareTickAllocs)
	}
	if got := len(rec.Last(0)); got != ring {
		t.Fatalf("recorder holds %d records, want a full ring of %d", got, ring)
	}
}

func BenchmarkLevMarQuadraticFit(b *testing.B) {
	xs := make([]float64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		x := float64(i * 5)
		xs[i] = x
		ys[i] = 1e-7*x*x + 2e-4*x + 0.004
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.LevMar(fit.PolyModel(), xs, ys, []float64{0, 0, 0}, fit.LMOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
