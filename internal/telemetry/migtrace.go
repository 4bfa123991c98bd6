package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Migration trace phases. A user migration is a distributed operation: the
// source replica serializes and hands off the user (init), the destination
// installs it (recv) and acknowledges back (ack). Each replica records the
// phases it executes locally in its tick records (TickRecord.Migrations);
// StitchMigrations correlates them by ID into one cross-replica view.
const (
	// MigPhaseInit is the source-side handoff (t_mig_ini).
	MigPhaseInit = "init"
	// MigPhaseRecv is the destination-side installation (t_mig_rcv).
	MigPhaseRecv = "recv"
	// MigPhaseAck is the source-side receipt of the destination's ack.
	MigPhaseAck = "ack"
)

// MigEvent is one locally observed phase of a user migration. The ID is
// assigned by the initiating server and carried in the wire-level migration
// transfer, so the same migration is identifiable on every replica it
// touches.
type MigEvent struct {
	// ID is the migration's unique identifier (source server prefix +
	// counter, like entity IDs).
	ID uint64 `json:"id"`
	// Phase is MigPhaseInit, MigPhaseRecv or MigPhaseAck.
	Phase string `json:"phase"`
	// User is the migrating client's network ID.
	User string `json:"user"`
	// From and To are the source and destination server IDs.
	From string `json:"from"`
	To   string `json:"to"`
	// Tick is the recording server's tick counter at the event.
	Tick uint64 `json:"tick"`
	// UnixMicro is the event's wall-clock time in Unix microseconds (the
	// trace_event timebase).
	UnixMicro int64 `json:"unix_us"`
	// DurMS is the time spent executing the phase (serialization on init,
	// installation on recv; 0 for acks).
	DurMS float64 `json:"dur_ms"`
}

// Migration is one user migration stitched from the events of every replica
// that observed it. Incomplete migrations (an init whose transfer never
// arrived, or a recv whose init left the source's ring) are kept
// and flagged, never dropped: a vanished handoff is exactly the failure a
// cross-replica trace exists to expose.
type Migration struct {
	ID   uint64 `json:"id"`
	User string `json:"user"`
	From string `json:"from"`
	To   string `json:"to"`
	// Init, Recv and Ack are the correlated phase events (nil when the
	// phase was not observed).
	Init *MigEvent `json:"init,omitempty"`
	Recv *MigEvent `json:"recv,omitempty"`
	Ack  *MigEvent `json:"ack,omitempty"`
	// Complete reports that both endpoints observed the migration: the
	// user verifiably arrived.
	Complete bool `json:"complete"`
	// LatencyMS is the wall-clock time from init start to recv end
	// (0 when incomplete or when clocks make it negative).
	LatencyMS float64 `json:"latency_ms,omitempty"`
}

// StitchMigrations correlates per-replica migration events into one
// migration record per ID. perReplica maps a replica ID to the events its
// flight recorder holds (FlightRecorder.Migrations). The result is ordered by init time (events without an
// init sort by their earliest observation).
func StitchMigrations(perReplica map[string][]MigEvent) []Migration {
	byID := make(map[uint64]*Migration)
	ordered := make([]*Migration, 0)
	get := func(e MigEvent) *Migration {
		m, ok := byID[e.ID]
		if !ok {
			m = &Migration{ID: e.ID, User: e.User, From: e.From, To: e.To}
			byID[e.ID] = m
			ordered = append(ordered, m)
		}
		return m
	}
	// Deterministic stitching regardless of map order.
	replicas := make([]string, 0, len(perReplica))
	for id := range perReplica {
		replicas = append(replicas, id)
	}
	sort.Strings(replicas)
	for _, rid := range replicas {
		for _, e := range perReplica[rid] {
			e := e
			m := get(e)
			switch e.Phase {
			case MigPhaseInit:
				m.Init = &e
				m.User, m.From, m.To = e.User, e.From, e.To
			case MigPhaseRecv:
				m.Recv = &e
			case MigPhaseAck:
				m.Ack = &e
			}
		}
	}
	for _, m := range ordered {
		m.Complete = m.Init != nil && m.Recv != nil
		if m.Complete {
			lat := float64(m.Recv.UnixMicro-m.Init.UnixMicro)/1e3 + m.Recv.DurMS
			if lat > 0 {
				m.LatencyMS = lat
			}
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		return migSortKey(ordered[i]) < migSortKey(ordered[j])
	})
	out := make([]Migration, len(ordered))
	for i, m := range ordered {
		out[i] = *m
	}
	return out
}

func migSortKey(m *Migration) int64 {
	if m.Init != nil {
		return m.Init.UnixMicro
	}
	if m.Recv != nil {
		return m.Recv.UnixMicro
	}
	if m.Ack != nil {
		return m.Ack.UnixMicro
	}
	return 0
}

// WriteMigrationChromeTrace renders per-replica migration events as Chrome
// trace_event JSON in which every replica is its own process row: the
// init span sits on the source replica's row, the recv span on the
// destination's, and both carry the shared migration ID in their args.
// Incomplete migrations are flagged with "incomplete": true on their
// surviving spans, not dropped.
func WriteMigrationChromeTrace(w io.Writer, perReplica map[string][]MigEvent) error {
	replicas := make([]string, 0, len(perReplica))
	for id := range perReplica {
		replicas = append(replicas, id)
	}
	sort.Strings(replicas)
	pid := make(map[string]int, len(replicas))
	for i, id := range replicas {
		pid[id] = i + 1
	}
	complete := make(map[uint64]bool)
	for _, m := range StitchMigrations(perReplica) {
		complete[m.ID] = m.Complete
	}
	out := chromeTrace{DisplayTimeUnit: "ms"}
	for _, id := range replicas {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", PID: pid[id],
			Args: map[string]any{"name": "replica " + id},
		})
	}
	for _, rid := range replicas {
		for _, e := range perReplica[rid] {
			dur := e.DurMS * 1000
			if dur <= 0 {
				dur = 1 // acks and sub-µs phases stay visible in the viewer
			}
			args := map[string]any{
				"migration_id": e.ID,
				"user":         e.User,
				"from":         e.From,
				"to":           e.To,
				"tick":         e.Tick,
			}
			if !complete[e.ID] {
				args["incomplete"] = true
			}
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: "mig_" + e.Phase, Ph: "X",
				TS: float64(e.UnixMicro), Dur: dur,
				PID: pid[rid], TID: 0,
				Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// WriteMigrationJSONL renders stitched migrations as JSONL: one Migration
// object per line, the grep/jq-friendly export.
func WriteMigrationJSONL(w io.Writer, migrations []Migration) error {
	enc := json.NewEncoder(w)
	for _, m := range migrations {
		if err := enc.Encode(m); err != nil {
			return fmt.Errorf("telemetry: encode migration %d: %w", m.ID, err)
		}
	}
	return nil
}
