package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"roia/internal/bots"
	"roia/internal/calibrate"
	"roia/internal/fit"
	"roia/internal/game"
	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rms"
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// RecalibrateResult is the publish path's refitted profile and the model
// ceiling it implies.
type RecalibrateResult struct {
	// UserCounts are the bot populations the server was sampled at.
	UserCounts []int
	// U is the QoS threshold (ms) the ceilings were derived against.
	U float64
	// Set is the refitted parameter profile (live-loop tasks measured on
	// this machine; absent tasks have zero curves).
	Set *params.Set
	// AOIFit / SUFit are the goodness-of-fit of the two publish-half
	// parameters.
	AOIFit, SUFit fit.Result
	// NMax is the single-replica model ceiling n_max(1,0) under the
	// refitted profile; Bounded is false when the search cap was reached
	// (machine faster than the cap is wide).
	NMax    int
	Bounded bool
	// Trigger is the 80%-rule replication trigger derived from NMax.
	Trigger int
	// AuditNMax is the n_max recorded in the RMS decision audit when a
	// manager configured with the refitted model evaluates a static
	// cluster — the ceiling an operator reads back out of the audit log
	// (and, via the fleet collector's roia_fleet_nmax gauge, roiatop).
	AuditNMax int
}

// recalibSample measures the live-loop parameters across the given user
// counts and returns the pooled sample log.
func recalibSample(seed int64, counts []int) ([]monitor.Sample, error) {
	var samples []monitor.Sample
	for rep := 0; rep < 3; rep++ {
		s, err := recalibSampleOnce(seed+int64(rep)*7919, counts)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
	}
	return medianSamples(samples), nil
}

// medianSamples collapses a pooled per-tick sample log to one median point
// per (task, user count). Per-item times down at the microsecond scale are
// dominated by scheduler and GC jitter; a least-squares fit over the raw
// log chases the spikes, while the median per operating point is stable.
func medianSamples(in []monitor.Sample) []monitor.Sample {
	type key struct {
		task monitor.Task
		x    float64
	}
	groups := make(map[key][]float64)
	var order []key
	for _, s := range in {
		k := key{s.Task, s.X}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s.Y)
	}
	out := make([]monitor.Sample, 0, len(order))
	for _, k := range order {
		ys := groups[k]
		sort.Float64s(ys)
		out = append(out, monitor.Sample{Task: k.task, X: k.x, Y: ys[len(ys)/2]})
	}
	return out
}

// recalibSampleOnce is one pooled measurement pass over the user counts.
func recalibSampleOnce(seed int64, counts []int) ([]monitor.Sample, error) {
	var samples []monitor.Sample
	for _, n := range counts {
		err := func() error {
			net := transport.NewLoopback()
			defer net.Close()
			fl, err := fleet.New(fleet.Config{
				Network:    net,
				Zone:       1,
				Assignment: zone.NewAssignment(),
				NewApp:     func() server.Application { return game.New(game.DefaultConfig()) },
				Seed:       seed + int64(n),
			})
			if err != nil {
				return err
			}
			id, err := fl.AddReplica()
			if err != nil {
				return err
			}
			srv, ok := fl.Server(id)
			if !ok {
				return fmt.Errorf("replica %s not found after AddReplica", id)
			}
			driver := bots.NewFleetDriver(fl, net, seed+int64(n))
			if err := driver.SetBots(n); err != nil {
				return err
			}
			for i := 0; i < 15; i++ {
				driver.Step()
			}
			srv.Monitor().Reset()
			srv.Monitor().SetCollecting(true)
			for i := 0; i < 40; i++ {
				driver.Step()
			}
			samples = append(samples, srv.Monitor().Samples()...)
			return nil
		}()
		if err != nil {
			return nil, fmt.Errorf("n=%d: %w", n, err)
		}
	}
	return samples, nil
}

// RecalibratePublish refits the live-loop parameters — most importantly
// the publish half, t_aoi and t_su — on this machine and derives the model
// ceiling the profile implies (Eq. 2), which propagates through every
// consumer of the model: the RMS manager's triggers and audit records, the
// fleet collector's roia_fleet_nmax gauge, and roiatop's occupancy-vs-
// ceiling column.
func RecalibratePublish(seed int64) (*RecalibrateResult, error) {
	// Sample well into the quadratic regime: the ceiling lands near
	// n_max ≈ 1000+, and extrapolating a degree-2 fit from small-n
	// samples is noise-dominated (t_aoi is microseconds down there).
	counts := []int{200, 400, 600, 800}
	const u = 10 // ms, the demo threshold used by the examples
	samples, err := recalibSample(seed, counts)
	if err != nil {
		return nil, err
	}
	fitted, err := calibrate.FromSamples("publish", samples, calibrate.GameDegrees())
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	sanitizeSet(fitted.Set)
	mdl, err := model.New(fitted.Set, u, params.CDefault)
	if err != nil {
		return nil, err
	}
	nmax, bounded := mdl.MaxUsers(1, 0)
	res := &RecalibrateResult{
		UserCounts: counts,
		U:          u,
		Set:        fitted.Set,
		AOIFit:     fitted.Fits[monitor.AOI],
		SUFit:      fitted.Fits[monitor.SU],
		NMax:       nmax,
		Bounded:    bounded,
		Trigger:    model.ReplicationTrigger(nmax, model.DefaultTriggerFraction),
	}
	// Drive one RMS decision under the refitted model and read n_max back
	// out of the audit record — the ceiling the controller actually uses.
	var log strings.Builder
	audit := telemetry.NewAuditLog(&log)
	mgr := rms.NewManager(&staticCluster{users: nmax / 2}, rms.Config{Model: mdl, Audit: audit})
	mgr.Step(0)
	if recs := auditRecords(log.String()); len(recs) > 0 {
		res.AuditNMax = recs[len(recs)-1].NMax
	}
	return res, nil
}

// FormatRecalibrate renders the recalibration result.
func FormatRecalibrate(res *RecalibrateResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "publish-path recalibration at U=%.0fms, n in %v:\n", res.U, res.UserCounts)
	fmt.Fprintf(&b, "%-34s %-34s %8s %8s %10s\n", "t_aoi", "t_su", "n_max", "trigger", "audit nmax")
	nm := fmt.Sprintf("%d", res.NMax)
	if !res.Bounded {
		nm = ">" + nm
	}
	fmt.Fprintf(&b, "%-34s %-34s %8s %8d %10d\n",
		res.Set.AOI.String(), res.Set.SU.String(), nm, res.Trigger, res.AuditNMax)
	return b.String()
}

// sanitizeSet clamps negative fitted coefficients of the live-loop curves
// to zero. Per-item CPU time cannot decrease with the user count; a noisy
// live fit that says otherwise would — through Curve.Eval's zero clamp —
// drive the modeled tick time to zero at large n and report an unbounded
// ceiling. Clamping enforces the model's non-negative-curve assumption
// (model.MaxUsers requires T non-decreasing) as a prior on the fit.
func sanitizeSet(set *params.Set) {
	for _, c := range []*params.Curve{
		&set.UADeser, &set.UA, &set.FADeser, &set.FA,
		&set.NPC, &set.AOI, &set.SU,
	} {
		for i, v := range c.Coeffs {
			if v < 0 {
				c.Coeffs[i] = 0
			}
		}
	}
}

// staticCluster is a do-nothing rms.Cluster with a fixed population: just
// enough for a manager step to compute and audit its thresholds.
type staticCluster struct {
	users int
}

func (c *staticCluster) Servers() []rms.ServerState {
	return []rms.ServerState{{ID: "s1", Users: c.users, Power: 1, Ready: true}}
}
func (c *staticCluster) ZoneUsers() int                           { return c.users }
func (c *staticCluster) NPCCount() int                            { return 0 }
func (c *staticCluster) Migrate(src, dst string, count int) error { return nil }
func (c *staticCluster) AddReplica() (string, error)              { return "", fmt.Errorf("static") }
func (c *staticCluster) RemoveReplica(id string) error            { return fmt.Errorf("static") }
func (c *staticCluster) SetDraining(id string, on bool) error     { return nil }
func (c *staticCluster) Substitute(id string) (string, error)     { return "", fmt.Errorf("static") }

// auditRecords parses an AuditLog's JSONL output back into records.
func auditRecords(jsonl string) []telemetry.DecisionRecord {
	var out []telemetry.DecisionRecord
	for _, line := range strings.Split(jsonl, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec telemetry.DecisionRecord
		if err := json.Unmarshal([]byte(line), &rec); err == nil {
			out = append(out, rec)
		}
	}
	return out
}
