package sim

import (
	"roia/internal/rms"
	"roia/internal/workload"
)

// SessionResult aggregates one simulated session.
type SessionResult struct {
	// Stats holds one entry per simulated second.
	Stats []SecondStats
	// TotalMigrations is the number of user migrations performed.
	TotalMigrations int
	// TotalViolations counts server-seconds whose tick exceeded U.
	TotalViolations int
	// PeakTickMS is the worst tick duration of the session.
	PeakTickMS float64
	// PeakReplicas is the maximum concurrently-leased server count.
	PeakReplicas int
	// ServerSeconds integrates leased servers over time (resource usage).
	ServerSeconds float64
	// Cost is the provider bill at session end.
	Cost float64
}

// MaxAvgCPU returns the session's highest per-second average CPU load.
func (r SessionResult) MaxAvgCPU() float64 {
	max := 0.0
	for _, s := range r.Stats {
		if s.AvgCPU > max {
			max = s.AvgCPU
		}
	}
	return max
}

// RunSession drives the cluster through the workload trace under the
// given controller, one control-loop step per simulated second — the
// procedure of the paper's dynamic load-balancing experiment (Fig. 8).
// A nil controller runs the session without any load balancing (the
// overprovisioning-free worst case).
func RunSession(c *Cluster, ctrl rms.Controller, trace workload.Trace) SessionResult {
	var res SessionResult
	dur := int(trace.Duration())
	for t := 0; t < dur; t++ {
		c.SetTargetUsers(trace.UsersAt(float64(t)))
		if ctrl != nil {
			ctrl.Step(c.now)
		}
		st := c.EndSecond()
		res.Stats = append(res.Stats, st)
		res.ServerSeconds += float64(st.Replicas)
	}
	res.TotalMigrations = c.totalMigrations
	res.TotalViolations = c.totalViolations
	res.PeakTickMS = c.peakTick
	res.PeakReplicas = c.peakReplicas
	res.Cost = c.provider.Cost(c.now)
	return res
}
