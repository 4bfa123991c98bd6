package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Fleet event kinds: the replica-group lifecycle transitions worth a line
// in the fleet log. They mirror the RMS actions (spawn = replication
// enactment, drain/stop = resource removal). Zone handoffs are migrations
// and ride the servers' tick records (TickRecord.Migrations).
const (
	// FleetEventSpawn records a new replica joining the group.
	FleetEventSpawn = "spawn"
	// FleetEventDrain records a replica starting to drain (undrain when
	// reversed — Detail says which).
	FleetEventDrain = "drain"
	// FleetEventStop records a replica leaving the group.
	FleetEventStop = "stop"
)

// FleetEvent is one replica-group lifecycle event, logged as JSONL in the
// same style as the RMS decision audit.
type FleetEvent struct {
	// UnixMicro is the event's wall-clock time in Unix microseconds.
	UnixMicro int64 `json:"unix_us"`
	// Kind is one of the FleetEvent* constants.
	Kind string `json:"kind"`
	// Zone is the zone the event belongs to.
	Zone uint32 `json:"zone"`
	// Replica is the affected server ID.
	Replica string `json:"replica"`
	// Detail carries event-specific context (the drain direction).
	Detail string `json:"detail,omitempty"`
}

// FleetEventSink consumes fleet events. Implementations: FleetEventLog
// (JSONL) and MemoryFleetEvents (tests).
type FleetEventSink interface {
	FleetEvent(FleetEvent)
}

// FleetEventLog streams fleet events as JSONL to a writer. It is safe for
// concurrent use; encoding errors are sticky and reported by Err.
type FleetEventLog struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int
	err error
}

// NewFleetEventLog returns a log writing one JSON event per line to w.
func NewFleetEventLog(w io.Writer) *FleetEventLog {
	return &FleetEventLog{enc: json.NewEncoder(w)}
}

// FleetEvent implements FleetEventSink.
func (l *FleetEventLog) FleetEvent(e FleetEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err := l.enc.Encode(e); err != nil {
		l.err = err
		return
	}
	l.n++
}

// Events reports how many events were written.
func (l *FleetEventLog) Events() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Err returns the first encoding error, if any.
func (l *FleetEventLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// MemoryFleetEvents collects fleet events in memory, keeping the newest
// memorySinkCap events.
type MemoryFleetEvents struct {
	mu      sync.Mutex
	events  []FleetEvent
	dropped uint64
}

// FleetEvent implements FleetEventSink.
func (s *MemoryFleetEvents) FleetEvent(e FleetEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) >= memorySinkCap {
		copy(s.events, s.events[1:])
		s.events[len(s.events)-1] = e
		s.dropped++
		return
	}
	s.events = append(s.events, e)
}

// Snapshot returns a copy of the collected events.
func (s *MemoryFleetEvents) Snapshot() []FleetEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]FleetEvent(nil), s.events...)
}

// Dropped reports how many old events the cap evicted.
func (s *MemoryFleetEvents) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
