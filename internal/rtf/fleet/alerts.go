package fleet

import (
	"fmt"
	"math"

	"roia/internal/model"
	"roia/internal/rtf/monitor"
	"roia/internal/stats"
	"roia/internal/telemetry"
)

// AlertConfig parameterises the model-threshold alert rules. The rules are
// the alerting counterpart of the RMS triggers: the manager reacts to the
// same thresholds, the rules make it visible when the fleet sits on or past
// them.
type AlertConfig struct {
	// Model supplies the scalability-model thresholds (Eq. 2/3/5).
	Model *model.Model
	// MaxReplicas optionally caps l below the model's l_max (mirrors
	// rms.Config.MaxReplicas). 0 means use the model's l_max alone.
	MaxReplicas int
	// ClientLatency, when set, enables the qos_client_rtt rule: it is
	// polled each evaluation for the fleet-wide input→update RTT recorder
	// (e.g. bots.FleetDriver.ClientLatency) and the rule fires when the
	// violation rate of the RTTs observed since the previous evaluation
	// exceeds QoSViolationRate.
	ClientLatency func() telemetry.LatencySnapshot
	// GCPauseBudget is the fraction of the tick deadline 1/U that in-tick
	// GC pause may consume before the qos_gc_pause rule is active (default
	// 0.25: the per-tick GC-pause p99 over the flight recorder's ring eats
	// more than a quarter of the deadline).
	GCPauseBudget float64
	// EgressPerUserCeiling is the per-user egress budget in framed wire
	// bytes per tick; the egress_per_user_ceiling rule fires when a
	// replica's state-update bytes over the ticks recorded since the
	// previous evaluation, divided by those ticks' connected users, exceed
	// it. 0 disables the rule (no universal ceiling exists — it is a
	// deployment bandwidth budget).
	EgressPerUserCeiling float64
}

// Rule thresholds. Every rule goes pending on its first breach and fires
// on the second consecutive one (telemetry.Rule's default PendingFor).
const (
	// DriftTolerance is the |relative error| above which the model_drift
	// rule is active for a replica: the prediction is off by more than 50%.
	DriftTolerance = 0.5
	// QoSViolationRate is the fraction of deadline-violating ticks (per
	// replica, between evaluations) or of late client RTTs above which
	// qos_tick_deadline and qos_client_rtt are active: more than 5%.
	QoSViolationRate = 0.05
	// HiccupRate is the fraction of ticks (per replica, between
	// evaluations) flagged by the flight recorder's hiccup detector above
	// which qos_tick_hiccup is active: more than 1% of recent ticks stalled.
	HiccupRate = 0.01
	// TailInflation is the p99/p50 tick-wall ratio over a replica's ring
	// above which qos_tail_inflation is active: the tail runs 4× the
	// typical tick, and has grown past 1/TailInflation of the replica's own
	// tick deadline (below that, the tail leaves the deadline 4× headroom
	// however small the median). Replicas with fewer than TailMinCount
	// ticks in the ring are skipped so a cold start cannot fire the rule.
	TailInflation = 4.0
	TailMinCount  = 64
)

// Rule names exported by AlertRules.
const (
	AlertReplicaOverNMax  = "replica_over_nmax"
	AlertFleetAtLMax      = "fleet_at_lmax"
	AlertMigBudgetDry     = "migration_budget_exhausted"
	AlertModelDrift       = "model_drift"
	AlertQoSTickDeadline  = "qos_tick_deadline"
	AlertQoSClientRTT     = "qos_client_rtt"
	AlertQoSTickHiccup    = "qos_tick_hiccup"
	AlertQoSTailInflation = "qos_tail_inflation"
	AlertQoSGCPause       = "qos_gc_pause"
	AlertEgressPerUser    = "egress_per_user_ceiling"
)

// AlertRules builds the fleet's threshold rules for a telemetry.AlertEngine.
// Every evaluation reads the live cluster state — the replicas' flight
// recorder rings — so the rules track the same numbers the RMS manager
// decides on:
//
//   - replica_over_nmax: a ready replica holds more users than its share
//     n_max(l)/l of the zone capacity (Eq. 2). One instance per replica.
//   - fleet_at_lmax: the replica group has reached l_max (Eq. 3, or the
//     configured MaxReplicas cap) — the zone cannot scale further and the
//     paper's model predicts replication stops paying off.
//   - migration_budget_exhausted: a replica is over its fair share of
//     users but its Eq. 5 initiation budget x_max_ini is zero — it is too
//     overloaded to shed load within the tick budget, the regime where
//     the paper falls back to unpaced migration.
//   - model_drift: over a replica's ring, the |relative error| of the
//     model's mean predicted tick T(l,n,m,a) — each record predicted at its
//     own workload — against the mean measured wall exceeds
//     DriftTolerance: the calibrated cost model no longer matches the
//     deployed workload, so every threshold above is suspect. One instance
//     per replica.
//   - qos_tick_deadline: more than QoSViolationRate of a replica's ticks
//     since the previous evaluation exceeded the tick deadline 1/U — the
//     server-side half of the QoS contract is being broken sustainedly
//     (two consecutive breaches), not by a lone outlier tick. One
//     instance per replica.
//   - qos_client_rtt: the fleet-wide client input→update RTT violation
//     rate since the previous evaluation exceeds QoSViolationRate — the
//     user-perceived half of the contract, measured end to end (requires
//     ClientLatency).
//   - qos_tick_hiccup: more than HiccupRate of a replica's ticks since the
//     previous evaluation tripped the flight recorder's hiccup detector
//     (wall time k× above the rolling median) — the server stalls in
//     bursts even if mean tick time looks healthy. One instance per
//     replica.
//   - qos_tail_inflation: a replica's p99 tick wall over its ring runs
//     more than TailInflation× its p50 and more than 1/TailInflation of its
//     tick deadline — sustained tail-latency inflation, the regime where
//     mean-based capacity numbers (n_max from mean task costs) stop
//     protecting the QoS deadline. One instance per replica.
//   - qos_gc_pause: the p99 of a replica's per-tick GC pause over its
//     flight recorder's ring (the last 2048 ticks) exceeds GCPauseBudget
//     of the tick deadline 1/U — the runtime, not the workload, is eating
//     the QoS budget, and no migration or replication decision can win it
//     back. One instance per replica.
//   - egress_per_user_ceiling: a replica's client egress over the ticks
//     recorded since the previous evaluation, per user per tick, exceeds
//     the configured bandwidth budget — the interest-management cost
//     model (what the paper folds into the per-user cost term) is
//     under-charging for update fan-out. One instance per replica;
//     requires a non-zero EgressPerUserCeiling.
//
// qos_tick_deadline, qos_tick_hiccup and egress_per_user_ceiling read the
// records each replica took since the rule's previous evaluation
// (sinceLast), so a burst resolves once the server steadies.
func (f *Fleet) AlertRules(cfg AlertConfig) []telemetry.Rule {
	if cfg.GCPauseBudget <= 0 {
		cfg.GCPauseBudget = 0.25
	}
	zoneKey := fmt.Sprintf("zone-%d", f.cfg.Zone)
	rules := []telemetry.Rule{
		{
			Name: AlertReplicaOverNMax,
			Eval: func(now float64) []telemetry.RuleResult {
				servers := f.Servers()
				l := 0
				for _, s := range servers {
					if s.Ready && !s.Draining {
						l++
					}
				}
				if l == 0 {
					return nil
				}
				m := f.NPCCount()
				nmax, ok := cfg.Model.MaxUsers(l, m)
				if !ok {
					return nil
				}
				share := nmax / l
				var out []telemetry.RuleResult
				for _, s := range servers {
					if !s.Ready || s.Draining || s.Users <= share {
						continue
					}
					out = append(out, telemetry.RuleResult{
						Key:       s.ID,
						Value:     float64(s.Users),
						Threshold: float64(share),
						Detail: fmt.Sprintf("replica holds %d users, over its n_max share %d (n_max(%d)=%d, m=%d)",
							s.Users, share, l, nmax, m),
					})
				}
				return out
			},
		},
		{
			Name: AlertFleetAtLMax,
			Eval: func(now float64) []telemetry.RuleResult {
				l := len(f.IDs())
				m := f.NPCCount()
				lmax, ok := cfg.Model.MaxReplicas(m)
				if !ok {
					// The Eq. 3 search did not converge (replication never
					// stops paying off within the cap); only an explicit
					// deployment cap can bound the group then.
					if cfg.MaxReplicas <= 0 {
						return nil
					}
					lmax = cfg.MaxReplicas
				} else if cfg.MaxReplicas > 0 && cfg.MaxReplicas < lmax {
					lmax = cfg.MaxReplicas
				}
				if l < lmax {
					return nil
				}
				return []telemetry.RuleResult{{
					Key:       zoneKey,
					Value:     float64(l),
					Threshold: float64(lmax),
					Detail:    fmt.Sprintf("replica group at l=%d of l_max=%d (m=%d): replication headroom exhausted", l, lmax, m),
				}}
			},
		},
		{
			Name: AlertMigBudgetDry,
			Eval: func(now float64) []telemetry.RuleResult {
				servers := f.Servers()
				l := 0
				for _, s := range servers {
					if s.Ready && !s.Draining {
						l++
					}
				}
				if l < 2 {
					return nil
				}
				n := f.ZoneUsers()
				m := f.NPCCount()
				fair := (n + l - 1) / l
				var out []telemetry.RuleResult
				for _, s := range servers {
					if !s.Ready || s.Draining || s.Users <= fair {
						continue
					}
					budget := cfg.Model.MaxMigrationsIni(l, n, m, s.Users)
					if budget > 0 {
						continue
					}
					out = append(out, telemetry.RuleResult{
						Key:       s.ID,
						Value:     float64(s.Users - fair),
						Threshold: 0,
						Detail: fmt.Sprintf("replica is %d users over its fair share %d but x_max_ini(l=%d,n=%d,m=%d,a=%d)=0: cannot shed load within the tick budget",
							s.Users-fair, fair, l, n, m, s.Users),
					})
				}
				return out
			},
		},
	}
	deadlineSince := f.sinceLast()
	rules = append(rules, telemetry.Rule{
		Name: AlertQoSTickDeadline,
		Eval: func(now float64) []telemetry.RuleResult {
			var out []telemetry.RuleResult
			for _, w := range deadlineSince() {
				rate := float64(w.violations) / float64(w.ticks)
				if rate <= QoSViolationRate {
					continue
				}
				out = append(out, telemetry.RuleResult{
					Key:       w.id,
					Value:     rate,
					Threshold: QoSViolationRate,
					Detail: fmt.Sprintf("%.1f%% of the last %d ticks exceeded the %.1fms deadline (QoS budget %.1f%%)",
						rate*100, w.ticks, w.deadlineMS, QoSViolationRate*100),
				})
			}
			return out
		},
	})
	hiccupSince := f.sinceLast()
	rules = append(rules, telemetry.Rule{
		Name: AlertQoSTickHiccup,
		Eval: func(now float64) []telemetry.RuleResult {
			var out []telemetry.RuleResult
			for _, w := range hiccupSince() {
				rate := float64(w.hiccups) / float64(w.ticks)
				if rate <= HiccupRate {
					continue
				}
				out = append(out, telemetry.RuleResult{
					Key:       w.id,
					Value:     rate,
					Threshold: HiccupRate,
					Detail: fmt.Sprintf("%.1f%% of the last %d ticks were hiccups (wall over the rolling-median threshold; budget %.1f%%)",
						rate*100, w.ticks, HiccupRate*100),
				})
			}
			return out
		},
	})
	rules = append(rules, telemetry.Rule{
		Name: AlertQoSTailInflation,
		Eval: func(now float64) []telemetry.RuleResult {
			var out []telemetry.RuleResult
			for _, r := range f.summaries() {
				walls := r.sum.Walls
				p50, p99 := stats.Percentile(walls, 50), stats.Percentile(walls, 99)
				if len(walls) < TailMinCount || p50 <= 0 {
					continue
				}
				ratio := p99 / p50
				if ratio <= TailInflation || p99 <= r.sum.Newest.DeadlineMS/TailInflation {
					continue
				}
				out = append(out, telemetry.RuleResult{
					Key:       r.id,
					Value:     ratio,
					Threshold: TailInflation,
					Detail: fmt.Sprintf("tick wall p99 %.2fms is %.1f× p50 %.2fms over the last %d ticks (budget %.1f×)",
						p99, ratio, p50, len(walls), TailInflation),
				})
			}
			return out
		},
	})
	rules = append(rules, telemetry.Rule{
		Name: AlertQoSGCPause,
		Eval: func(now float64) []telemetry.RuleResult {
			var out []telemetry.RuleResult
			for _, r := range f.summaries() {
				deadline := r.sum.Newest.DeadlineMS
				budgetMS := cfg.GCPauseBudget * deadline
				if budgetMS <= 0 || len(r.sum.GCPauses) == 0 {
					continue
				}
				p99 := stats.Percentile(r.sum.GCPauses, 99)
				if p99 <= budgetMS {
					continue
				}
				out = append(out, telemetry.RuleResult{
					Key:       r.id,
					Value:     p99,
					Threshold: budgetMS,
					Detail: fmt.Sprintf("per-tick GC pause p99 %.3fms over the last %d ticks exceeds %.0f%% of the %.1fms tick deadline",
						p99, len(r.sum.GCPauses), cfg.GCPauseBudget*100, deadline),
				})
			}
			return out
		},
	})
	if cfg.EgressPerUserCeiling > 0 {
		egressSince := f.sinceLast()
		rules = append(rules, telemetry.Rule{
			Name: AlertEgressPerUser,
			Eval: func(now float64) []telemetry.RuleResult {
				var out []telemetry.RuleResult
				for _, w := range egressSince() {
					if w.userTicks == 0 {
						continue // nobody to bill
					}
					perUserTick := float64(w.clientBytes) / float64(w.userTicks)
					if perUserTick <= cfg.EgressPerUserCeiling {
						continue
					}
					out = append(out, telemetry.RuleResult{
						Key:       w.id,
						Value:     perUserTick,
						Threshold: cfg.EgressPerUserCeiling,
						Detail: fmt.Sprintf("client egress ran %.1f B/user/tick over the last %d ticks, above the %.1f B ceiling",
							perUserTick, w.ticks, cfg.EgressPerUserCeiling),
					})
				}
				return out
			},
		})
	}
	if cfg.ClientLatency != nil {
		var prev telemetry.LatencySnapshot
		rules = append(rules, telemetry.Rule{
			Name: AlertQoSClientRTT,
			Eval: func(now float64) []telemetry.RuleResult {
				cur := cfg.ClientLatency()
				last := prev
				prev = cur
				if cur.Count <= last.Count {
					return nil
				}
				rate := float64(cur.Violations-last.Violations) / float64(cur.Count-last.Count)
				if rate <= QoSViolationRate {
					return nil
				}
				return []telemetry.RuleResult{{
					Key:       zoneKey,
					Value:     rate,
					Threshold: QoSViolationRate,
					Detail: fmt.Sprintf("%.1f%% of the last %d input→update RTTs exceeded the %.1fms deadline (p99 %.1fms)",
						rate*100, cur.Count-last.Count, cur.DeadlineMS, cur.P99),
				}}
			},
		})
	}
	rules = append(rules, telemetry.Rule{
		Name: AlertModelDrift,
		Eval: func(now float64) []telemetry.RuleResult {
			var out []telemetry.RuleResult
			for _, id := range f.IDs() {
				srv, ok := f.Server(id)
				if !ok {
					continue
				}
				s := monitor.ModelDrift(cfg.Model, srv.FlightRecorder().Last(0)).Tick
				abs := math.Abs(s.ErrRatio)
				if s.Samples == 0 || abs <= DriftTolerance {
					continue
				}
				out = append(out, telemetry.RuleResult{
					Key:       id,
					Value:     abs,
					Threshold: DriftTolerance,
					Detail: fmt.Sprintf("model predicts %.2fms vs measured %.2fms over the last %d ticks (|rel err| %.2f > %.2f): calibration is stale",
						s.PredictedMS, s.MeasuredMS, s.Samples, abs, DriftTolerance),
				})
			}
			return out
		},
	})
	return rules
}

// replicaSummary is one running replica's flight-recorder summary.
type replicaSummary struct {
	id  string
	sum telemetry.TickSummary
}

// summaries reads every running replica's flight-recorder summary, in
// spawn order.
func (f *Fleet) summaries() []replicaSummary {
	var out []replicaSummary
	for _, id := range f.IDs() {
		if srv, ok := f.Server(id); ok {
			out = append(out, replicaSummary{id: id, sum: srv.FlightRecorder().Summary()})
		}
	}
	return out
}

// recordWindow sums what one replica recorded since a rule's previous
// evaluation.
type recordWindow struct {
	id                     string
	ticks, violations      int
	hiccups                int
	clientBytes, userTicks int
	deadlineMS             float64
}

// sinceLast returns a walk over the records every running replica took
// since the walk's previous call, one window per replica with new ticks:
// the "since the last evaluation" view the deadline, hiccup and egress
// rules share. A replica's first walk covers its whole ring; stopped
// replicas' cursors are forgotten.
func (f *Fleet) sinceLast() func() []recordWindow {
	cursors := make(map[string]uint64)
	return func() []recordWindow {
		var out []recordWindow
		live := make(map[string]bool)
		for _, id := range f.IDs() {
			srv, ok := f.Server(id)
			if !ok {
				continue
			}
			live[id] = true
			recs, next := srv.FlightRecorder().Since(cursors[id])
			cursors[id] = next
			if len(recs) == 0 {
				continue
			}
			w := recordWindow{id: id, ticks: len(recs), deadlineMS: recs[len(recs)-1].DeadlineMS}
			for _, r := range recs {
				if r.DeadlineMS > 0 && r.WallMS > r.DeadlineMS {
					w.violations++
				}
				if r.Hiccup {
					w.hiccups++
				}
				w.clientBytes += r.ClientBytesOut
				w.userTicks += r.ActiveUsers
			}
			out = append(out, w)
		}
		for id := range cursors {
			if !live[id] {
				delete(cursors, id)
			}
		}
		return out
	}
}
