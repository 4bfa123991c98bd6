package experiments

import (
	"fmt"
	"sort"
	"strings"

	"roia/internal/bots"
	"roia/internal/game"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// CostRow summarizes one scenario of the cost harness across all of its
// runs: what one tick of the workload costs in heap, GC, and network terms,
// not just how long it takes. The scenarios reuse the variability harness's
// workloads so the two benchmarks describe the same fleets.
type CostRow struct {
	Scenario VariabilityScenario
	// Runs and Ticks describe the sample: Runs independent fleets, each
	// measured for Ticks ticks per replica after warm-up.
	Runs, Ticks int
	// Samples is the total per-replica tick count measured.
	Samples uint64
	// MeanTickMS is the mean per-tick wall time over the measured ticks
	// (the harness's ns/op analogue).
	MeanTickMS float64
	// AllocBytesPerTick / AllocObjectsPerTick are process heap allocations
	// per replica tick, measured as runtime/metrics deltas over the
	// measurement window.
	AllocBytesPerTick   float64
	AllocObjectsPerTick float64
	// StageBytesPerTick breaks AllocBytesPerTick down by pipeline stage.
	StageBytesPerTick map[string]float64
	// GCCycles is the total number of GC cycles that completed inside
	// measured ticks; GCPauseP99MS is the windowed per-tick in-tick pause
	// p99 merged over every run and replica.
	GCCycles     uint64
	GCPauseP99MS float64
	// BytesPerUserTick is client egress (framed wire bytes) per connected
	// user per tick — the per-user bandwidth bill of the scenario.
	BytesPerUserTick float64
	// PayloadP99Bytes is the p99 framed size of one client-bound message.
	PayloadP99Bytes float64
	// ChurnEnterP99 / ChurnLeaveP99 are the p99 of entities entering /
	// leaving one client's visible set in one tick.
	ChurnEnterP99 float64
	ChurnLeaveP99 float64
}

// CostResult is the full cost-harness output.
type CostResult struct {
	Rows []CostRow
	Runs int
}

// costRunDelta is one run's cost deltas over the measurement window.
type costRunDelta struct {
	ticks        uint64
	allocBytes   uint64
	allocObjects uint64
	stageBytes   map[string]uint64
	gcCycles     uint64
	clientBytes  uint64
	wall         *telemetry.LogHistogram
	gcPause      *telemetry.LogHistogram
	payload      *telemetry.LogHistogram
	churnEnter   *telemetry.LogHistogram
	churnLeave   *telemetry.LogHistogram
}

// costRun executes one fresh fleet for a scenario with cost trackers on and
// returns the measurement-window deltas of every cumulative counter (warm-up
// ticks are excluded by differencing snapshots). The windowed histograms
// (GC pause, payload, churn) are taken from the end snapshot; their rotating
// windows are dominated by the measurement phase.
func costRun(sc VariabilityScenario, seed int64, warmTicks, measureTicks int) (*costRunDelta, error) {
	net := transport.NewLoopback()
	defer net.Close()
	fl, err := fleet.New(fleet.Config{
		Network:      net,
		Zone:         1,
		Assignment:   zone.NewAssignment(),
		NewApp:       func() server.Application { return game.New(game.DefaultConfig()) },
		Seed:         seed,
		CostTrackers: true,
	})
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, sc.Replicas)
	servers := make([]*server.Server, 0, sc.Replicas)
	for i := 0; i < sc.Replicas; i++ {
		id, err := fl.AddReplica()
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
		srv, ok := fl.Server(id)
		if !ok {
			return nil, fmt.Errorf("replica %s not found after AddReplica", id)
		}
		servers = append(servers, srv)
	}
	for i := 0; i < sc.NPCs; i++ {
		servers[0].SpawnNPC(entity.Vec2{
			X: float64((i * 73) % 1000),
			Y: float64((i * 137) % 1000),
		})
	}
	driver := bots.NewFleetDriver(fl, net, seed)
	if err := driver.SetBots(sc.Bots); err != nil {
		return nil, err
	}
	for i := 0; i < warmTicks; i++ {
		driver.Step()
	}
	base := make([]telemetry.CostSnapshot, len(ids))
	for i, id := range ids {
		ct, ok := fl.CostTracker(id)
		if !ok || ct == nil {
			return nil, fmt.Errorf("replica %s has no cost tracker", id)
		}
		base[i] = ct.Snapshot()
	}
	wall := telemetry.NewLogHistogram()
	for i := 0; i < measureTicks; i++ {
		driver.Step()
		for _, srv := range servers {
			bd := srv.Monitor().LastBreakdown()
			wall.Observe(bd.Wall())
		}
	}
	d := &costRunDelta{
		stageBytes: make(map[string]uint64),
		wall:       wall,
		gcPause:    telemetry.NewLogHistogram(),
		payload:    telemetry.NewLogHistogram(),
		churnEnter: telemetry.NewLogHistogram(),
		churnLeave: telemetry.NewLogHistogram(),
	}
	for i, id := range ids {
		ct, _ := fl.CostTracker(id)
		end := ct.Snapshot()
		d.ticks += end.Ticks - base[i].Ticks
		for stage, v := range end.AllocBytes {
			db := v - base[i].AllocBytes[stage]
			d.allocBytes += db
			d.stageBytes[stage] += db
		}
		for stage, v := range end.AllocObjects {
			d.allocObjects += v - base[i].AllocObjects[stage]
		}
		d.gcCycles += end.GCCycles - base[i].GCCycles
		d.clientBytes += end.EgressClientBytes - base[i].EgressClientBytes
		d.gcPause.Merge(end.GCPause)
		d.payload.Merge(end.Payload)
		d.churnEnter.Merge(end.ChurnEnter)
		d.churnLeave.Merge(end.ChurnLeave)
	}
	return d, nil
}

// Cost is the hot-path cost harness behind `roiabench -fig cost`: every
// variability scenario is executed `runs` times on a fresh fleet with cost
// trackers, and the resource bill of one tick — heap allocations by pipeline
// stage, in-tick GC pause tail, framed egress per user, AoI churn — is
// reported next to the wall time the time-only harness already measures.
// This is the measured side of the paper's cost model: Eq. (1) prices a tick
// in microseconds, this harness shows which resources that price buys.
func Cost(seed int64, runs int) (*CostResult, error) {
	const (
		warmTicks    = 30
		measureTicks = 150
	)
	if runs < 1 {
		runs = 1
	}
	res := &CostResult{Runs: runs}
	for _, sc := range DefaultVariabilityScenarios() {
		agg := costRunDelta{
			stageBytes: make(map[string]uint64),
			wall:       telemetry.NewLogHistogram(),
			gcPause:    telemetry.NewLogHistogram(),
			payload:    telemetry.NewLogHistogram(),
			churnEnter: telemetry.NewLogHistogram(),
			churnLeave: telemetry.NewLogHistogram(),
		}
		for r := 0; r < runs; r++ {
			d, err := costRun(sc, seed+int64(r)*1000, warmTicks, measureTicks)
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", sc.Name, r, err)
			}
			agg.ticks += d.ticks
			agg.allocBytes += d.allocBytes
			agg.allocObjects += d.allocObjects
			for stage, v := range d.stageBytes {
				agg.stageBytes[stage] += v
			}
			agg.gcCycles += d.gcCycles
			agg.clientBytes += d.clientBytes
			agg.wall.Merge(d.wall)
			agg.gcPause.Merge(d.gcPause)
			agg.payload.Merge(d.payload)
			agg.churnEnter.Merge(d.churnEnter)
			agg.churnLeave.Merge(d.churnLeave)
		}
		if agg.ticks == 0 {
			return nil, fmt.Errorf("%s: no ticks measured", sc.Name)
		}
		ticks := float64(agg.ticks)
		row := CostRow{
			Scenario:            sc,
			Runs:                runs,
			Ticks:               measureTicks,
			Samples:             agg.ticks,
			MeanTickMS:          agg.wall.Mean(),
			AllocBytesPerTick:   float64(agg.allocBytes) / ticks,
			AllocObjectsPerTick: float64(agg.allocObjects) / ticks,
			StageBytesPerTick:   make(map[string]float64, len(agg.stageBytes)),
			GCCycles:            agg.gcCycles,
			GCPauseP99MS:        agg.gcPause.Quantile(0.99),
			PayloadP99Bytes:     agg.payload.Quantile(0.99),
			ChurnEnterP99:       agg.churnEnter.Quantile(0.99),
			ChurnLeaveP99:       agg.churnLeave.Quantile(0.99),
		}
		// Per-user egress divides the zone's client bytes by zone ticks (the
		// per-replica tick count per run), not replica-ticks — every user is
		// served once per zone tick regardless of l.
		zoneTicks := float64(runs * measureTicks)
		if sc.Bots > 0 {
			row.BytesPerUserTick = float64(agg.clientBytes) / zoneTicks / float64(sc.Bots)
		}
		for stage, v := range agg.stageBytes {
			row.StageBytesPerTick[stage] = float64(v) / ticks
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// FormatCost renders the harness result as an aligned text table, with one
// stage-breakdown line per scenario underneath.
func FormatCost(res *CostResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %5s %5s %5s %9s %11s %10s %9s %10s %11s %9s %9s\n",
		"scenario", "l", "bots", "npcs", "mean [ms]", "KiB/tick", "objs/tick", "gc", "gc p99", "B/user/tk", "churn+99", "churn-99")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-12s %5d %5d %5d %9.3f %11.1f %10.0f %9d %8.3fms %11.1f %9.0f %9.0f\n",
			r.Scenario.Name, r.Scenario.Replicas, r.Scenario.Bots, r.Scenario.NPCs,
			r.MeanTickMS, r.AllocBytesPerTick/1024, r.AllocObjectsPerTick,
			r.GCCycles, r.GCPauseP99MS, r.BytesPerUserTick, r.ChurnEnterP99, r.ChurnLeaveP99)
		stages := make([]string, 0, len(r.StageBytesPerTick))
		for stage := range r.StageBytesPerTick {
			stages = append(stages, stage)
		}
		sort.Strings(stages)
		parts := make([]string, 0, len(stages))
		for _, stage := range stages {
			parts = append(parts, fmt.Sprintf("%s %.1f", stage, r.StageBytesPerTick[stage]/1024))
		}
		fmt.Fprintf(&b, "             alloc KiB/tick by stage: %s\n", strings.Join(parts, " · "))
	}
	return b.String()
}
