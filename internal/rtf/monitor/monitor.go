// Package monitor implements RTF's monitoring and distribution-handling
// hooks: per-tick timing of the four computational tasks of the real-time
// loop, plus migration overheads. These are exactly the quantities the
// scalability model is parameterized with (t_ua_dser, t_ua, t_fa_dser,
// t_fa, t_npc, t_aoi, t_su, t_mig_ini, t_mig_rcv), measured inside the
// middleware regardless of the application logic (Section III-C).
//
// The calibration pipeline (internal/calibrate) consumes Samples recorded
// here and fits the model's approximation functions to them. Every other
// reading of a server's ticks goes through its flight recorder's ring
// (telemetry.FlightRecorder), which ModelDrift compares with the model.
package monitor

import "sync"

// Task identifies one timed portion of the real-time loop.
type Task int

// The timed tasks, in loop order.
const (
	// UADeser is reception + deserialization of connected users' inputs.
	UADeser Task = iota
	// UA is validation + application of user inputs.
	UA
	// FADeser is reception + deserialization of forwarded inputs.
	FADeser
	// FA is application of forwarded inputs.
	FA
	// NPC is the NPC update.
	NPC
	// AOI is area-of-interest computation.
	AOI
	// SU is state-update computation + serialization.
	SU
	// MigIni is initiation of user migrations.
	MigIni
	// MigRcv is reception of user migrations.
	MigRcv
	numTasks
)

// String implements fmt.Stringer with the paper's parameter names.
func (t Task) String() string {
	names := [...]string{"t_ua_dser", "t_ua", "t_fa_dser", "t_fa", "t_npc", "t_aoi", "t_su", "t_mig_ini", "t_mig_rcv"}
	if int(t) < len(names) {
		return names[t]
	}
	return "t_unknown"
}

// Tasks returns every task in loop order, for iteration.
func Tasks() []Task {
	out := make([]Task, numTasks)
	for i := range out {
		out[i] = Task(i)
	}
	return out
}

// Breakdown is the timing of one tick, in milliseconds per task, together
// with the per-task item counts needed to derive per-item costs.
//
// With the parallel tick pipeline the two time axes diverge: TimeMS sums
// CPU time across all workers (what the paper's per-item curves are fitted
// from — per-item cost does not shrink when work runs on more cores),
// while WallMS is the elapsed time of the whole tick (what the QoS
// deadline 1/U is compared against — wall time does shrink with workers).
// With one worker the axes coincide up to untimed loop overhead.
type Breakdown struct {
	// TimeMS[t] is the total CPU time spent in task t this tick, summed
	// over every worker that executed part of the task.
	TimeMS [numTasks]float64
	// WallMS is the tick's elapsed wall-clock duration. Zero means
	// "unmeasured" and wall-facing statistics fall back to Total(), the
	// CPU sum — the pre-pipeline behaviour, which simulations that
	// synthesize Breakdowns still rely on.
	WallMS float64
	// Items[t] is how many items task t processed (inputs deserialized,
	// users updated, NPCs stepped, migrations handled, ...).
	Items [numTasks]int
	// Users is the zone-wide user count n during the tick.
	Users int
	// ActiveUsers is the number of users active on this server (a).
	ActiveUsers int
	// NPCs is the zone-wide NPC count m.
	NPCs int
	// Replicas is the zone's replica count l.
	Replicas int
	// BytesIn / BytesOut count the wire payload bytes received and sent
	// this tick. The paper names bandwidth analysis as future work and
	// cites the in/out asymmetry of game traffic (Kim et al.); these
	// counters feed the traffic model in internal/traffic.
	BytesIn, BytesOut int
}

// Add accumulates time and item count for a task.
func (b *Breakdown) Add(t Task, ms float64, items int) {
	b.TimeMS[t] += ms
	b.Items[t] += items
}

// Total returns the tick's CPU time: the sum over all tasks (and, under
// the parallel executor, over all workers).
func (b *Breakdown) Total() float64 {
	sum := 0.0
	for _, v := range b.TimeMS {
		sum += v
	}
	return sum
}

// Wall returns the tick duration as the deadline sees it: the measured
// wall-clock duration when available, else the CPU sum.
func (b *Breakdown) Wall() float64 {
	if b.WallMS > 0 {
		return b.WallMS
	}
	return b.Total()
}

// Merge folds another breakdown's task accounting into b — the
// deterministic reduction the executor applies to per-worker breakdowns
// after a parallel stage. Wall time and workload gauges are not merged:
// they describe the whole tick, not one worker's share.
func (b *Breakdown) Merge(other *Breakdown) {
	for t := Task(0); t < numTasks; t++ {
		b.TimeMS[t] += other.TimeMS[t]
		b.Items[t] += other.Items[t]
	}
}

// PerItem returns the average per-item time of a task in this tick and
// whether any items were processed.
func (b *Breakdown) PerItem(t Task) (float64, bool) {
	if b.Items[t] == 0 {
		return 0, false
	}
	return b.TimeMS[t] / float64(b.Items[t]), true
}

// Sample is one calibration data point: the per-item cost of a task
// observed at a given workload.
type Sample struct {
	Task Task
	// X is the workload coordinate the model's curves are functions of
	// (the zone-wide user count n).
	X float64
	// Y is the measured per-item CPU time in ms.
	Y float64
}

// Monitor keeps one server's latest tick breakdown and, while collecting,
// the calibration sample and traffic logs (capped at DefaultSampleLimit
// entries each). Monitor
// is safe for concurrent use: the real-time loop records while the
// calibration and the fleet read.
type Monitor struct {
	mu sync.Mutex

	collect bool
	samples []Sample
	// traffic holds (users, bytesIn, bytesOut) per tick while collecting.
	traffic []TrafficSample
	// dropped counts the observations refused because their log was at
	// DefaultSampleLimit, instead of growing memory without bound.
	dropped uint64

	lastBreak Breakdown
}

// TrafficSample is one tick's bandwidth observation.
type TrafficSample struct {
	// Users is the zone-wide user count during the tick.
	Users int
	// BytesIn / BytesOut are the tick's wire payload bytes.
	BytesIn, BytesOut int
}

// DefaultSampleLimit caps the calibration sample log (and, separately, the
// traffic log) while collection is on. Generous: at 25 Hz with all nine
// tasks active, ~75 minutes of collection — but a long-lived server with
// collection left on can no longer grow memory without bound.
const DefaultSampleLimit = 1 << 20

// New returns a Monitor that is not collecting.
func New() *Monitor {
	return &Monitor{}
}

// SetCollecting toggles calibration sample collection (off by default: the
// sample log grows up to DefaultSampleLimit while enabled).
func (m *Monitor) SetCollecting(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.collect = on
}

// DroppedSamples reports how many calibration observations were discarded
// because a sample log was at its limit.
func (m *Monitor) DroppedSamples() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// RecordTick ingests one tick's breakdown.
func (m *Monitor) RecordTick(b Breakdown) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastBreak = b
	if !m.collect {
		return
	}
	// The calibration samples are per-item CPU costs: per-item cost does
	// not shrink when a parallel tick spreads the work over workers.
	for t := Task(0); t < numTasks; t++ {
		if per, ok := b.PerItem(t); ok {
			if len(m.samples) < DefaultSampleLimit {
				m.samples = append(m.samples, Sample{Task: t, X: float64(b.Users), Y: per})
			} else {
				m.dropped++
			}
		}
	}
	if b.BytesIn > 0 || b.BytesOut > 0 {
		if len(m.traffic) < DefaultSampleLimit {
			m.traffic = append(m.traffic, TrafficSample{Users: b.Users, BytesIn: b.BytesIn, BytesOut: b.BytesOut})
		} else {
			m.dropped++
		}
	}
}

// TrafficSamples returns a copy of the per-tick bandwidth log (collected
// while SetCollecting is on).
func (m *Monitor) TrafficSamples() []TrafficSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]TrafficSample(nil), m.traffic...)
}

// LastBreakdown returns the most recent tick breakdown.
func (m *Monitor) LastBreakdown() Breakdown {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastBreak
}

// Samples returns a copy of the calibration sample log.
func (m *Monitor) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Sample(nil), m.samples...)
}
