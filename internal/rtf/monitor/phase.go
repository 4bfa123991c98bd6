package monitor

import (
	"roia/internal/model"
	"roia/internal/telemetry"
)

// PhaseOf maps a timed task to the model phase it belongs to, following
// the paper's grouping of the real-time loop into four computational
// tasks: deserialization is part of the input tasks, serialization part
// of the state-update task. Migration tasks are RMS overhead outside the
// four-phase loop body; for those (and unknown tasks) ok is false.
func PhaseOf(t Task) (telemetry.Phase, bool) {
	switch t {
	case UADeser, UA:
		return telemetry.PhaseUserInput, true
	case FADeser, FA:
		return telemetry.PhaseForwardedInput, true
	case NPC:
		return telemetry.PhaseNPCUpdate, true
	case AOI, SU:
		return telemetry.PhaseAOISU, true
	default:
		return 0, false
	}
}

// phasePredicted returns the model's per-item cost of one phase at
// workload (n, m): the sum of its constituent task curves.
func phasePredicted(cost model.CostModel, p telemetry.Phase, n, m int) float64 {
	switch p {
	case telemetry.PhaseUserInput:
		return cost.UADeserAt(n, m) + cost.UAAt(n, m)
	case telemetry.PhaseForwardedInput:
		return cost.FADeserAt(n, m) + cost.FAAt(n, m)
	case telemetry.PhaseNPCUpdate:
		return cost.NPCAt(n, m)
	case telemetry.PhaseAOISU:
		return cost.AOIAt(n, m) + cost.SUAt(n, m)
	}
	return 0
}

// ObserveTaskDrift compares the measured per-item cost of each of the
// four phases (mean over the recent per-task reservoirs) against the
// fitted cost curves at the current workload, and feeds one observation
// per phase into td. Phases with no recent samples (e.g. no forwarded
// inputs on a single-replica zone) are skipped, so their drift stays at
// zero samples rather than reading as a spurious 100% error.
func (m *Monitor) ObserveTaskDrift(cost model.CostModel, td *telemetry.TaskDrift) {
	if cost == nil || td == nil {
		return
	}
	m.mu.Lock()
	n, npcs := m.lastBreak.Users, m.lastBreak.NPCs
	var measured [telemetry.NumPhases]float64
	var seen [telemetry.NumPhases]bool
	for t := Task(0); t < numTasks; t++ {
		p, ok := PhaseOf(t)
		if !ok {
			continue
		}
		if s := m.perTask[t].Summary(); s.Count > 0 {
			measured[p] += s.Mean
			seen[p] = true
		}
	}
	m.mu.Unlock()
	for p := telemetry.Phase(0); int(p) < telemetry.NumPhases; p++ {
		if seen[p] {
			td.Observe(p.String(), phasePredicted(cost, p, n, npcs), measured[p])
		}
	}
}
