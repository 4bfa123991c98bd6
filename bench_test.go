// Package roia holds the repository-level benchmark harness: one
// benchmark per evaluation artifact of the paper (Figures 4–8, the
// Section V-A anchors, the baseline-strategy comparison) plus ablation
// benchmarks for the design choices called out in DESIGN.md (interest-
// management algorithm, wire serialization, model evaluation, migration
// planning, and real measured ticks vs the model's prediction).
//
// Run with: go test -bench=. -benchmem .
package roia

import (
	"fmt"
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
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/proto"
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

func BenchmarkHeavyLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.HeavyLoad(1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Substitutions < 3 {
			b.Fatalf("substitutions = %d", res.Substitutions)
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

// --- wire serialization ablation --------------------------------------------

func sampleUpdate(visible int) *proto.StateKeyframe {
	upd := &proto.StateKeyframe{
		Tick: 42,
		Self: entity.Entity{ID: 1, Pos: entity.Vec2{X: 10, Y: 20}, Health: 90, Owner: "s1", Seq: 7},
	}
	for i := 0; i < visible; i++ {
		upd.Visible = append(upd.Visible, entity.Entity{
			ID: entity.ID(i + 2), Pos: entity.Vec2{X: float64(i), Y: float64(i)},
			Health: 100, Owner: "s1", Seq: uint64(i),
		})
	}
	return upd
}

func BenchmarkWireStateUpdateEncode(b *testing.B) {
	upd := sampleUpdate(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if payload := proto.Registry.EncodeToBytes(upd); len(payload) == 0 {
			b.Fatal("empty payload")
		}
	}
}

func BenchmarkWireStateUpdateDecode(b *testing.B) {
	payload := proto.Registry.EncodeToBytes(sampleUpdate(32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Registry.Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTickPipeline measures the staged real-time loop at n = 500
// users, sequential (workers=1) versus fanned out over 4 workers. The
// ns/op ratio of the two sub-benchmarks is the
// measured intra-replica speedup S(4) of the model's USL term; the wire
// output is byte-identical in both modes (see the pipeline determinism
// tests), so the comparison is pure execution cost. On a single-core host
// (GOMAXPROCS=1) the two modes necessarily converge — the speedup figure is
// only meaningful on multi-core hardware.
func BenchmarkTickPipeline(b *testing.B) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=4", 4}} {
		b.Run(mode.name, func(b *testing.B) {
			net := transport.NewLoopback()
			defer net.Close()
			asg := zone.NewAssignment()
			node, err := net.Attach("s1", 1<<18)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := server.New(server.Config{
				Node: node, Zone: 1, Assignment: asg,
				App: game.New(game.DefaultConfig()), IDPrefix: 1, Seed: 1,
				Parallelism: mode.workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			srv.Start()
			const nUsers = 500
			clients := make([]*client.Client, nUsers)
			for i := range clients {
				cn, err := net.Attach(fmt.Sprintf("c%d", i+1), 1<<14)
				if err != nil {
					b.Fatal(err)
				}
				cl := client.New(cn, "s1")
				if err := cl.Join(1, entity.Vec2{X: float64((i * 17) % 1000), Y: float64((i * 29) % 1000)}, cn.ID()); err != nil {
					b.Fatal(err)
				}
				clients[i] = cl
			}
			for i := 0; i < 5; i++ {
				srv.Tick()
				for _, cl := range clients {
					cl.Poll()
				}
			}
			move := game.Commands.EncodeToBytes(&game.Move{DX: 1, DY: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cl := range clients {
					cl.Poll()
					_ = cl.SendInput(move)
				}
				srv.Tick()
			}
			b.StopTimer()
			b.ReportMetric(srv.Monitor().MeanTick(), "wall-ms/tick")
			b.ReportMetric(srv.Monitor().MeanTickCPU(), "cpu-ms/tick")
		})
	}
}

// --- observability overhead ablation -----------------------------------------

// BenchmarkInstrumentedTick measures the full tick loop bare and with every
// per-tick observability hook attached (tick tracer, per-phase task
// profiler, QoS deadline accounting, and bots measuring input→update RTT
// from the echoed acks). Diffing the two sub-benchmarks bounds the cost of
// the instrumentation itself; the design target is under 5% on the hot
// path, since the point of the telemetry is to watch production ticks, not
// to perturb them.
func BenchmarkInstrumentedTick(b *testing.B) {
	for _, mode := range []struct {
		name         string
		instrumented bool
	}{{"bare", false}, {"instrumented", true}} {
		b.Run(mode.name, func(b *testing.B) {
			net := transport.NewLoopback()
			defer net.Close()
			asg := zone.NewAssignment()
			node, err := net.Attach("s1", 1<<16)
			if err != nil {
				b.Fatal(err)
			}
			cfg := server.Config{
				Node: node, Zone: 1, Assignment: asg,
				App: game.New(game.DefaultConfig()), IDPrefix: 1, Seed: 1,
			}
			if mode.instrumented {
				cfg.Tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
				cfg.Profiler = telemetry.NewTaskProfiler()
			}
			srv, err := server.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			srv.Start()
			const nBots = 60
			swarm := make([]*bots.Bot, nBots)
			for i := range swarm {
				cn, err := net.Attach(fmt.Sprintf("c%d", i+1), 1<<14)
				if err != nil {
					b.Fatal(err)
				}
				cl := client.New(cn, "s1")
				if mode.instrumented {
					cl.SetLatencyDeadline(40)
				}
				if err := cl.Join(1, entity.Vec2{X: float64(100 + i*3), Y: 100}, cn.ID()); err != nil {
					b.Fatal(err)
				}
				swarm[i] = bots.New(cl, bots.DefaultProfile(), int64(i+1))
			}
			for i := 0; i < 5; i++ {
				srv.Tick()
				for _, bt := range swarm {
					bt.Step()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, bt := range swarm {
					bt.Step()
				}
				srv.Tick()
			}
		})
	}
}

// --- tick tail latency ---------------------------------------------------------

// BenchmarkTickTail runs the live single-replica loop and reports the
// distribution of per-tick wall times — p50/p99/p99.9 in milliseconds via
// a telemetry.LogHistogram — alongside the usual mean ns/op. The p99-ms
// metric is what `benchjson -compare` gates on: a change that speeds the
// average tick while fattening its tail is a regression for a real-time
// loop, whose QoS deadline is paid per tick, not on average.
func BenchmarkTickTail(b *testing.B) {
	for _, n := range []int{60, 150} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			net := transport.NewLoopback()
			defer net.Close()
			fl, err := fleet.New(fleet.Config{
				Network:    net,
				Zone:       1,
				Assignment: zone.NewAssignment(),
				NewApp:     func() server.Application { return game.New(game.DefaultConfig()) },
				Seed:       1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fl.AddReplica(); err != nil {
				b.Fatal(err)
			}
			driver := bots.NewFleetDriver(fl, net, 1)
			if err := driver.SetBots(n); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				driver.Step()
			}
			srv, _ := fl.Server("server-1")
			hist := telemetry.NewLogHistogram()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				driver.Step()
				bd := srv.Monitor().LastBreakdown()
				hist.Observe(bd.Wall())
			}
			b.StopTimer()
			b.ReportMetric(hist.Quantile(0.50), "p50-ms")
			b.ReportMetric(hist.Quantile(0.99), "p99-ms")
			b.ReportMetric(hist.Quantile(0.999), "p999-ms")
		})
	}
}

// --- fitting ablation ---------------------------------------------------------

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

// --- real RTF tick vs model prediction ---------------------------------------

// BenchmarkRealServerTick measures one real-time-loop iteration of the
// live RTF server (real deserialization, hit scans, AoI, serialization)
// at several population sizes, and reports the calibrated model's
// prediction for the same workload as the custom metric "model-ms" — the
// live counterpart of Eq. (1).
func BenchmarkRealServerTick(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			net := transport.NewLoopback()
			defer net.Close()
			fl, err := fleet.New(fleet.Config{
				Network:    net,
				Zone:       1,
				Assignment: zone.NewAssignment(),
				NewApp:     func() server.Application { return game.New(game.DefaultConfig()) },
				Seed:       1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fl.AddReplica(); err != nil {
				b.Fatal(err)
			}
			driver := bots.NewFleetDriver(fl, net, 1)
			if err := driver.SetBots(n); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				driver.Step()
			}
			srv, _ := fl.Server("server-1")

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, bot := range driver.Bots() {
					bot.Step()
				}
				srv.Tick()
			}
			b.StopTimer()
			mdl := rtfdemoModel(b)
			b.ReportMetric(mdl.TickTime(1, n, 0), "model-ms")
			b.ReportMetric(srv.Monitor().MeanTick(), "measured-ms")
		})
	}
}
