// Command roiarms runs the complete RTF-RMS stack live: an in-process RTF
// fleet processing the shooter, a bot population following a workload
// trace, and the model-driven resource manager adding replicas, pacing
// migrations per the scalability model, and removing replicas again — the
// paper's Fig. 8 experiment on real servers instead of the simulator.
//
// The capacity threshold is configurable because the live fleet runs on
// the current machine, not the paper's testbed: pick -u so scaling
// triggers inside your bot budget (see cmd/roiacalibrate for measuring
// the machine's real profile).
//
// With -fleet-metrics the session serves the cluster-level scrape while it
// runs: per-replica tick and QoS-deadline counters, the merged client
// input→update RTT distribution (deadline set by -rtt-deadline), the
// stitched cross-replica migration trace on /fleet/migrations, and the
// alert engine's state when -alerts is active. At the end of the session a
// client-RTT percentile summary is printed alongside the fleet state.
//
// Example:
//
//	roiarms -peak 150 -duration 90 -u 10 -fleet-metrics 127.0.0.1:9200
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"roia/internal/bots"
	"roia/internal/game"
	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rms"
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
	"roia/internal/workload"
)

var (
	peakFlag     = flag.Int("peak", 150, "peak bot population")
	durationFlag = flag.Int("duration", 120, "session length in seconds")
	uFlag        = flag.Float64("u", 10, "tick-duration threshold U in ms for the manager")
	tpsFlag      = flag.Int("tps", 25, "ticks per second")
	maxRepFlag   = flag.Int("maxreplicas", 4, "replica cap")
	seedFlag     = flag.Int64("seed", 42, "random seed")
	decFlag      = flag.String("decisions", "", "write the manager's decision log as JSONL to this file")
	alertsFlag   = flag.String("alerts", "", "evaluate model-threshold alert rules each second and write transitions as JSONL to this file")
	eventsFlag   = flag.String("events", "", "write the fleet lifecycle event log (spawn/drain/stop) as JSONL to this file")
	fleetMetFlag = flag.String("fleet-metrics", "", "serve the fleet collector (per-replica QoS counters, client RTT, alerts) on this address (e.g. 127.0.0.1:9200)")
	rttDeadFlag  = flag.Float64("rtt-deadline", 0, "client input→update RTT deadline in ms for QoS accounting (default: two tick intervals)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "roiarms:", err)
		os.Exit(1)
	}
}

func run() error {
	net := transport.NewLoopback()
	defer net.Close()
	var events *telemetry.FleetEventLog
	if *eventsFlag != "" {
		f, err := os.Create(*eventsFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		events = telemetry.NewFleetEventLog(f)
	}
	tickInterval := time.Second / time.Duration(*tpsFlag)
	fl, err := fleet.New(fleet.Config{
		Network:      net,
		Zone:         1,
		Assignment:   zone.NewAssignment(),
		NewApp:       func() server.Application { return game.New(game.DefaultConfig()) },
		Seed:         *seedFlag,
		Events:       eventSinkOrNil(events),
		TickInterval: tickInterval,
	})
	if err != nil {
		return err
	}
	if _, err := fl.AddReplica(); err != nil {
		return err
	}
	mdl, err := model.New(params.RTFDemo(), *uFlag, params.CDefault)
	if err != nil {
		return err
	}
	var audit *telemetry.AuditLog
	if *decFlag != "" {
		f, err := os.Create(*decFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		audit = telemetry.NewAuditLog(f)
	}
	mgr := rms.NewManager(fl, rms.Config{Model: mdl, CooldownSec: 5, MaxReplicas: *maxRepFlag, Audit: sinkOrNil(audit)})
	driver := bots.NewFleetDriver(fl, net, *seedFlag)
	// Client-perceived QoS: every bot measures its input→update RTT; the
	// deadline defaults to two tick intervals (input applied next tick,
	// update delivered the tick after).
	rttDeadline := *rttDeadFlag
	if rttDeadline <= 0 {
		rttDeadline = 2 * float64(tickInterval) / float64(time.Millisecond)
	}
	driver.SetLatencyDeadline(rttDeadline)

	clientRTT := func() telemetry.LatencySnapshot { return driver.ClientLatency().Snapshot() }

	// -fleet-metrics: the cluster-level scrape — per-replica tick/deadline
	// counters, the merged client RTT distribution, model capacity
	// ceilings, SLO budget state, the history it records once per control
	// second at /fleet/query, and (with -alerts) the alert engine's state.
	// It is built before the alert engine so the SLO burn-rate rules can
	// join the model-threshold rules.
	var col *fleet.Collector
	if *fleetMetFlag != "" {
		col = fleet.NewCollector(fleet.CollectorConfig{
			Fleets:        []*fleet.Fleet{fl},
			Model:         mdl,
			ClientLatency: clientRTT,
		})
	}

	// -alerts: evaluate the model-threshold rules once per control second,
	// in lockstep with the manager, and log every pending/firing/resolved
	// transition as JSONL. With -fleet-metrics also active, the SLO burn
	// rules flow through the same engine and log.
	var (
		alertLog *telemetry.AlertLog
		engine   *telemetry.AlertEngine
	)
	if *alertsFlag != "" {
		f, err := os.Create(*alertsFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		alertLog = telemetry.NewAlertLog(f)
		rules := fl.AlertRules(fleet.AlertConfig{
			Model:         mdl,
			MaxReplicas:   *maxRepFlag,
			ClientLatency: clientRTT,
		})
		if col != nil {
			rules = append(rules, col.SLORules(2)...)
		}
		engine = telemetry.NewAlertEngine(alertLog, rules...)
	}

	if col != nil {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if engine != nil {
			col.SetAlerts(engine)
		}
		addr, err := col.Serve(ctx, *fleetMetFlag)
		if err != nil {
			return err
		}
		fmt.Printf("fleet metrics on http://%s/fleet/metrics, history on /fleet/query, migration traces on /fleet/migrations\n", addr)
	}

	half := *durationFlag / 2
	trace := workload.Piecewise{Phases: []workload.Phase{
		{Until: float64(half), Trace: workload.Ramp{From: 0, To: *peakFlag, Len: float64(half)}},
		{Until: float64(*durationFlag), Trace: workload.Ramp{From: *peakFlag, To: 0, Len: float64(*durationFlag - half)}},
	}}

	fmt.Printf("%4s %5s %8s %-24s %s\n", "time", "bots", "servers", "users-per-server", "actions")
	migrations := 0
	for sec := 0; sec < *durationFlag; sec++ {
		if err := driver.SetBots(trace.UsersAt(float64(sec))); err != nil {
			return err
		}
		for tick := 0; tick < *tpsFlag; tick++ {
			driver.Step()
		}
		// One history sample per control second, stamped with the session
		// second, before the manager and the alert rules look at the world,
		// so the burn rates see this second.
		if col != nil {
			col.Record(float64(sec))
		}
		actions := mgr.Step(float64(sec))
		if engine != nil {
			engine.Eval(float64(sec))
		}
		var notable []string
		for _, a := range actions {
			if a.Kind == rms.ActMigrate {
				if a.Err == nil {
					migrations += a.Users
				}
				continue
			}
			notable = append(notable, a.String())
		}
		if sec%5 == 0 || len(notable) > 0 {
			fmt.Printf("%3ds %5d %8d %-24s %v\n",
				sec, len(driver.Bots()), len(fl.IDs()), usersPerServer(fl), notable)
		}
	}
	fmt.Printf("\nsession done: %d total migrations, final fleet:\n", migrations)
	for _, s := range fl.Servers() {
		fmt.Printf("  %-10s users=%-4d meanTick=%.3f ms\n", s.ID, s.Users, s.TickMS)
	}
	if snap := driver.ClientLatency().Snapshot(); snap.Count > 0 {
		fmt.Printf("client RTT (input→update, %d samples): p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms, %.1f%% over the %.0fms deadline\n",
			snap.Count, snap.P50, snap.P95, snap.P99, snap.MaxMS, snap.ViolationRate()*100, snap.DeadlineMS)
	}
	if audit != nil {
		if err := audit.Err(); err != nil {
			return fmt.Errorf("decision log: %w", err)
		}
		fmt.Printf("decision log: %s (%d records)\n", *decFlag, audit.Records())
	}
	if alertLog != nil {
		if err := alertLog.Err(); err != nil {
			return fmt.Errorf("alert log: %w", err)
		}
		fmt.Printf("alert log: %s (%d transitions, %d still active)\n",
			*alertsFlag, alertLog.Events(), len(engine.Active()))
	}
	if events != nil {
		if err := events.Err(); err != nil {
			return fmt.Errorf("event log: %w", err)
		}
		fmt.Printf("event log: %s (%d events)\n", *eventsFlag, events.Events())
	}
	return nil
}

// eventSinkOrNil avoids handing the fleet a non-nil interface wrapping a
// nil *FleetEventLog when -events is unset.
func eventSinkOrNil(log *telemetry.FleetEventLog) telemetry.FleetEventSink {
	if log == nil {
		return nil
	}
	return log
}

// sinkOrNil avoids handing the manager a non-nil interface wrapping a nil
// *AuditLog when -decisions is unset.
func sinkOrNil(log *telemetry.AuditLog) telemetry.DecisionSink {
	if log == nil {
		return nil
	}
	return log
}

func usersPerServer(fl *fleet.Fleet) string {
	out := ""
	for _, s := range fl.Servers() {
		if out != "" {
			out += "/"
		}
		out += fmt.Sprintf("%d", s.Users)
	}
	return out
}
