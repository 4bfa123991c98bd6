package rms

import (
	"fmt"
	"math"
	"sort"

	"roia/internal/model"
	"roia/internal/telemetry"
)

// Config tunes the model-driven Manager.
type Config struct {
	// Model is the calibrated scalability model.
	Model *model.Model
	// MaxReplicas overrides the model's l_max when positive.
	MaxReplicas int
	// CooldownSec is the minimum time between replica-set changes.
	// Default 15 s.
	CooldownSec float64
	// UnpacedMigrations disables the Eq. (5) migration budgets: plans move
	// the full surplus immediately, as the paper's predecessor model [15]
	// (which "does not address the additional workload caused by user
	// migration") would. Ablation switch — benches use it to quantify what
	// the paper's migration-overhead terms buy.
	UnpacedMigrations bool
	// Audit, when set, receives one telemetry.DecisionRecord per Step
	// capturing the decision inputs (n, m, l, per-server states), the model
	// thresholds that gated the choice (n_max, trigger, l_max, headroom)
	// and every action with its reason — the machine-readable "why" of the
	// controller. Typically a telemetry.AuditLog writing JSONL.
	Audit telemetry.DecisionSink
}

// removeHeadroom guards resource removal: a replica is drained only when
// n is below removeHeadroom × the (l−1)-replica trigger, so the shrunken
// cluster retains margin before it would have to scale right back up.
const removeHeadroom = 0.9

func (c Config) withDefaults() Config {
	if c.CooldownSec <= 0 {
		c.CooldownSec = 15
	}
	return c
}

// Manager is the model-driven RTF-RMS controller for one zone.
type Manager struct {
	cluster Cluster
	cfg     Config

	lastScale float64
	// pendingSubs maps a provisioning replacement server to the server it
	// substitutes; the old server drains once the replacement is ready.
	pendingSubs map[string]string
}

// NewManager returns a Manager driving the cluster with the given
// configuration. It panics if cfg.Model is nil (static wiring error).
func NewManager(cluster Cluster, cfg Config) *Manager {
	if cfg.Model == nil {
		panic("rms: Config.Model must be set")
	}
	return &Manager{
		cluster:     cluster,
		cfg:         cfg.withDefaults(),
		lastScale:   math.Inf(-1),
		pendingSubs: make(map[string]string),
	}
}

// MaxReplicas returns the effective replica cap: the configuration
// override or the model's l_max (Eq. 3).
func (mgr *Manager) MaxReplicas(m int) int {
	if mgr.cfg.MaxReplicas > 0 {
		return mgr.cfg.MaxReplicas
	}
	lmax, _ := mgr.cfg.Model.MaxReplicas(m)
	return lmax
}

// Step implements Controller: one control-loop iteration. Call it once
// per second of session time. When Config.Audit is set, every step emits
// one telemetry.DecisionRecord with the inputs, thresholds and actions.
func (mgr *Manager) Step(now float64) []Action {
	var rec *telemetry.DecisionRecord
	if mgr.cfg.Audit != nil {
		rec = &telemetry.DecisionRecord{
			Time:            now,
			TriggerFraction: model.DefaultTriggerFraction,
			RemoveHeadroom:  removeHeadroom,
		}
	}
	actions := mgr.step(now, rec)
	if rec != nil {
		mgr.cfg.Audit.Record(*rec)
	}
	return actions
}

// note mirrors an action into the audit record (when auditing is on) with
// the reason the controller chose it, and passes the action through.
func note(rec *telemetry.DecisionRecord, a Action, reason string) Action {
	if rec != nil {
		aa := telemetry.AuditAction{
			Kind: a.Kind.String(), Src: a.Src, Dst: a.Dst, Users: a.Users, Reason: reason,
		}
		if a.Err != nil {
			aa.Err = a.Err.Error()
		}
		rec.Actions = append(rec.Actions, aa)
	}
	return a
}

// noteMigration is note for migration actions, additionally capturing the
// Eq. (5) budgets of both endpoints at decision time.
func (mgr *Manager) noteMigration(rec *telemetry.DecisionRecord, a Action, reason string, l, n, m int, users map[string]int) Action {
	if rec != nil {
		aa := telemetry.AuditAction{
			Kind: a.Kind.String(), Src: a.Src, Dst: a.Dst, Users: a.Users, Reason: reason,
			XMaxIni: mgr.cfg.Model.MaxMigrationsIni(l, n, m, users[a.Src]),
			XMaxRcv: mgr.cfg.Model.MaxMigrationsRcv(l, n, m, users[a.Dst]),
		}
		if a.Err != nil {
			aa.Err = a.Err.Error()
		}
		rec.Actions = append(rec.Actions, aa)
	}
	return a
}

// snapshotServers mirrors the cluster state into the audit record.
func snapshotServers(dec *telemetry.DecisionRecord, servers []ServerState) {
	if dec == nil {
		return
	}
	dec.Servers = make([]telemetry.ServerSnapshot, len(servers))
	for i, s := range servers {
		dec.Servers[i] = telemetry.ServerSnapshot{
			ID: s.ID, Users: s.Users, TickMS: s.TickMS, Power: s.Power,
			Class: s.Class, Ready: s.Ready, Draining: s.Draining,
		}
	}
}

func (mgr *Manager) step(now float64, rec *telemetry.DecisionRecord) []Action {
	var actions []Action
	servers := mgr.cluster.Servers()
	n := mgr.cluster.ZoneUsers()
	m := mgr.cluster.NPCCount()
	if rec != nil {
		rec.Users, rec.NPCs = n, m
	}
	snapshotServers(rec, servers)

	// Activate pending substitutions whose replacement became ready. Keys
	// are walked in sorted order so the action list and the audit record
	// stay deterministic when several substitutions complete on one step.
	pending := make([]string, 0, len(mgr.pendingSubs))
	for newID := range mgr.pendingSubs {
		pending = append(pending, newID)
	}
	sort.Strings(pending)
	for _, newID := range pending {
		oldID := mgr.pendingSubs[newID]
		for _, s := range servers {
			if s.ID == newID && s.Ready {
				if err := mgr.cluster.SetDraining(oldID, true); err == nil {
					actions = append(actions, note(rec, Action{Kind: ActDrain, Src: oldID},
						fmt.Sprintf("replacement %s ready; draining substituted server", newID)))
				}
				delete(mgr.pendingSubs, newID)
			}
		}
	}
	if len(actions) > 0 {
		servers = mgr.cluster.Servers() // re-snapshot after drains started
		snapshotServers(rec, servers)
	}

	// Finish drains: empty draining servers are removed.
	for _, s := range servers {
		if s.Draining && s.Users == 0 {
			err := mgr.cluster.RemoveReplica(s.ID)
			actions = append(actions, note(rec, Action{Kind: ActRemove, Src: s.ID, Err: err},
				"draining server empty; releasing resource"))
		}
	}

	servers = mgr.cluster.Servers()
	var ready, draining []ServerState
	provisioning := false
	for _, s := range servers {
		switch {
		case !s.Ready:
			provisioning = true
		case s.Draining:
			draining = append(draining, s)
		default:
			ready = append(ready, s)
		}
	}
	l := len(ready)
	if rec != nil {
		rec.Replicas = l
	}
	if l == 0 {
		return actions
	}

	settled := !provisioning && len(draining) == 0 && now-mgr.lastScale >= mgr.cfg.CooldownSec
	// Power-aware capacity: equals the model's n_max(l) for a homogeneous
	// baseline fleet and credits stronger machines after substitution.
	nmax, _ := Capacity(mgr.cfg.Model, ready, m)
	trigger := model.ReplicationTrigger(nmax, model.DefaultTriggerFraction)
	lmax := mgr.MaxReplicas(m)
	if rec != nil {
		rec.NMax, rec.Trigger, rec.LMax, rec.Settled = nmax, trigger, lmax, settled
	}

	switch {
	// Replication enactment / resource substitution (scale up).
	case n >= trigger && settled:
		if l < lmax {
			id, err := mgr.cluster.AddReplica()
			actions = append(actions, note(rec, Action{Kind: ActReplicate, Dst: id, Err: err},
				fmt.Sprintf("n=%d >= trigger=%d (%.0f%% of n_max=%d) and l=%d < l_max=%d",
					n, trigger, model.DefaultTriggerFraction*100, nmax, l, lmax)))
			if err == nil {
				mgr.lastScale = now
			}
		} else {
			target := pickSubstitutionTarget(ready)
			newID, err := mgr.cluster.Substitute(target.ID)
			if err != nil {
				actions = append(actions, note(rec, Action{Kind: ActSaturated, Src: target.ID, Err: err},
					fmt.Sprintf("n=%d >= trigger=%d at l=l_max=%d and no stronger resource class exists", n, trigger, lmax)))
				// Nothing stronger exists; re-alerting every step is
				// noise, so back off for a cooldown period.
				mgr.lastScale = now
			} else {
				actions = append(actions, note(rec, Action{Kind: ActSubstitute, Src: target.ID, Dst: newID},
					fmt.Sprintf("n=%d >= trigger=%d at l=l_max=%d; substituting weakest server", n, trigger, lmax)))
				mgr.pendingSubs[newID] = target.ID
				mgr.lastScale = now
			}
		}

	// Resource removal (scale down).
	case l > 1 && settled:
		least := ready[0]
		for _, s := range ready[1:] {
			if s.Users < least.Users || (s.Users == least.Users && s.ID < least.ID) {
				least = s
			}
		}
		remaining := make([]ServerState, 0, l-1)
		for _, s := range ready {
			if s.ID != least.ID {
				remaining = append(remaining, s)
			}
		}
		nmaxPrev, _ := Capacity(mgr.cfg.Model, remaining, m)
		triggerPrev := model.ReplicationTrigger(nmaxPrev, model.DefaultTriggerFraction)
		if float64(n) < removeHeadroom*float64(triggerPrev) {
			if err := mgr.cluster.SetDraining(least.ID, true); err == nil {
				actions = append(actions, note(rec, Action{Kind: ActDrain, Src: least.ID},
					fmt.Sprintf("n=%d < %.2f x trigger(l-1)=%d (n_max(l-1)=%d, l_max=%d); draining least-loaded server",
						n, removeHeadroom, triggerPrev, nmaxPrev, lmax)))
				mgr.lastScale = now
			}
		}
	}

	// User migration, bounded by the model's per-second thresholds.
	// RTF-RMS "must consider the overall number of concurrent user
	// migrations" (Section IV): each server participates in at most one
	// plan per step, so per-server migration charges never stack beyond
	// the Eq. (5) budgets. Draining servers are evacuated first — one per
	// step — and Listing-1 balancing runs only in drain-free steps.
	if len(draining) > 0 {
		d := draining[0]
		group := append(append([]ServerState(nil), ready...), d)
		plan := PlanDrain(mgr.cfg.Model, group, d.ID, n, m)
		if mgr.cfg.UnpacedMigrations {
			plan = unpacedDrain(group, d.ID)
		}
		users := usersByID(rec, group)
		for _, mig := range plan {
			err := mgr.cluster.Migrate(mig.From, mig.To, mig.Count)
			actions = append(actions, mgr.noteMigration(rec,
				Action{Kind: ActMigrate, Src: mig.From, Dst: mig.To, Users: mig.Count, Err: err},
				"evacuating draining server within Eq. (5) budgets", len(group), n, m, users))
		}
		return actions
	}
	plan := PlanMigrations(mgr.cfg.Model, ready, n, m)
	if mgr.cfg.UnpacedMigrations {
		plan = unpacedBalance(ready, n)
	}
	users := usersByID(rec, ready)
	for _, mig := range plan {
		err := mgr.cluster.Migrate(mig.From, mig.To, mig.Count)
		actions = append(actions, mgr.noteMigration(rec,
			Action{Kind: ActMigrate, Src: mig.From, Dst: mig.To, Users: mig.Count, Err: err},
			"Listing-1 balance toward power-weighted targets", l, n, m, users))
	}
	return actions
}

// usersByID indexes the group's user counts for budget reporting; it
// returns nil when auditing is off so the hot path allocates nothing.
func usersByID(dec *telemetry.DecisionRecord, servers []ServerState) map[string]int {
	if dec == nil {
		return nil
	}
	users := make(map[string]int, len(servers))
	for _, s := range servers {
		users[s.ID] = s.Users
	}
	return users
}

// unpacedBalance plans a full equalization toward the power-weighted
// targets in one step, with no migration-rate bounds (the [15]-style
// ablation).
func unpacedBalance(ready []ServerState, n int) []Migration {
	targets := Targets(ready, n)
	var plan []Migration
	for _, src := range ready {
		surplus := src.Users - targets[src.ID]
		if surplus <= 0 {
			continue
		}
		for _, dst := range ready {
			if surplus <= 0 {
				break
			}
			deficit := targets[dst.ID] - dst.Users
			if deficit <= 0 {
				continue
			}
			k := surplus
			if k > deficit {
				k = deficit
			}
			plan = append(plan, Migration{From: src.ID, To: dst.ID, Count: k})
			surplus -= k
		}
	}
	return plan
}

// unpacedDrain evacuates a draining server in one step.
func unpacedDrain(group []ServerState, drainID string) []Migration {
	var src *ServerState
	var targets []ServerState
	for i := range group {
		if group[i].ID == drainID {
			src = &group[i]
		} else {
			targets = append(targets, group[i])
		}
	}
	if src == nil || src.Users == 0 || len(targets) == 0 {
		return nil
	}
	per := src.Users / len(targets)
	rem := src.Users % len(targets)
	var plan []Migration
	for i, t := range targets {
		k := per
		if i < rem {
			k++
		}
		if k > 0 {
			plan = append(plan, Migration{From: drainID, To: t.ID, Count: k})
		}
	}
	return plan
}

// pickSubstitutionTarget chooses which server to replace with a stronger
// resource: the weakest class first (biggest upgrade win), then the
// busiest, with ID tie-breaks for determinism.
func pickSubstitutionTarget(ready []ServerState) ServerState {
	sorted := append([]ServerState(nil), ready...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Power != sorted[j].Power {
			return sorted[i].Power < sorted[j].Power
		}
		if sorted[i].Users != sorted[j].Users {
			return sorted[i].Users > sorted[j].Users
		}
		return sorted[i].ID < sorted[j].ID
	})
	return sorted[0]
}
