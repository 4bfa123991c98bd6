package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// ServerSnapshot is the per-server input to one RTF-RMS decision, mirrored
// from rms.ServerState so the audit log is self-contained.
type ServerSnapshot struct {
	ID       string  `json:"id"`
	Users    int     `json:"users"`
	TickMS   float64 `json:"tick_ms"`
	Power    float64 `json:"power"`
	Class    string  `json:"class,omitempty"`
	Ready    bool    `json:"ready"`
	Draining bool    `json:"draining,omitempty"`
}

// AuditAction is one executed (or failed) action within a decision record,
// together with the reason the controller chose it and — for migrations —
// the Eq. (5) budgets that bounded it.
type AuditAction struct {
	// Kind is the rms.ActionKind string ("migrate", "replicate", ...).
	Kind string `json:"kind"`
	Src  string `json:"src,omitempty"`
	Dst  string `json:"dst,omitempty"`
	// Users is the migration count, when applicable.
	Users int `json:"users,omitempty"`
	// Reason explains the decision in terms of the model thresholds.
	Reason string `json:"reason"`
	// XMaxIni / XMaxRcv are the Eq. (5) per-second migration budgets of the
	// source and destination at decision time (migrations only).
	XMaxIni int `json:"x_max_ini,omitempty"`
	XMaxRcv int `json:"x_max_rcv,omitempty"`
	// Err records an execution failure.
	Err string `json:"err,omitempty"`
}

// DecisionRecord captures one RTF-RMS control-loop step: its inputs, the
// scalability-model thresholds that gated the choice, and the resulting
// actions. One record per Manager.Step, actions or not, so controller
// behaviour is explainable and diffable across runs.
type DecisionRecord struct {
	// Time is the control-loop timestamp (session seconds).
	Time float64 `json:"time"`
	// Users, NPCs, Replicas are the model's n, m and l (ready replicas).
	Users    int `json:"n"`
	NPCs     int `json:"m"`
	Replicas int `json:"l"`
	// Servers snapshots every replica, including provisioning/draining ones.
	Servers []ServerSnapshot `json:"servers"`
	// NMax is the power-aware capacity of the ready group (Eq. 2 for a
	// homogeneous fleet) and Trigger the enactment threshold derived from it.
	NMax            int     `json:"n_max"`
	Trigger         int     `json:"trigger"`
	TriggerFraction float64 `json:"trigger_fraction"`
	// LMax is the effective replica cap (Eq. 3 or the configured override).
	LMax int `json:"l_max"`
	// RemoveHeadroom is the scale-down guard fraction.
	RemoveHeadroom float64 `json:"remove_headroom"`
	// Settled reports whether the group was eligible for replica-set
	// changes this step (no provisioning, no draining, cooldown expired).
	Settled bool `json:"settled"`
	// Actions are the step's decisions, in execution order (empty when the
	// controller held steady).
	Actions []AuditAction `json:"actions,omitempty"`
}

// DecisionSink consumes decision records. Implementations: AuditLog
// (JSONL) and MemorySink (tests, experiments).
type DecisionSink interface {
	Record(DecisionRecord)
}

// AuditLog streams decision records as JSONL to a writer. It is safe for
// concurrent use. Encoding errors are sticky and reported by Err, so the
// hot control loop never has to handle them inline.
type AuditLog struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int
	err error
}

// NewAuditLog returns an audit log writing one JSON record per line to w.
func NewAuditLog(w io.Writer) *AuditLog {
	return &AuditLog{enc: json.NewEncoder(w)}
}

// Record implements DecisionSink.
func (l *AuditLog) Record(r DecisionRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err := l.enc.Encode(r); err != nil {
		l.err = err
		return
	}
	l.n++
}

// Records reports how many records were written.
func (l *AuditLog) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Err returns the first encoding error, if any.
func (l *AuditLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// MemorySink collects decision records in memory, keeping the newest
// memorySinkCap records.
type MemorySink struct {
	mu      sync.Mutex
	records []DecisionRecord
	dropped uint64
}

// Record implements DecisionSink.
func (s *MemorySink) Record(r DecisionRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.records) >= memorySinkCap {
		copy(s.records, s.records[1:])
		s.records[len(s.records)-1] = r
		s.dropped++
		return
	}
	s.records = append(s.records, r)
}

// Snapshot returns a copy of the collected records.
func (s *MemorySink) Snapshot() []DecisionRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]DecisionRecord(nil), s.records...)
}

// Dropped reports how many old records the cap evicted.
func (s *MemorySink) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
