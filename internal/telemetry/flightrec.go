package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"

	"roia/internal/stats"
)

// TickRecord is the server's one per-tick observation, built once per tick
// and read by every tick observer through the FlightRecorder's ring, the
// server's one tick history: the wall/CPU split, the workload gauges the
// scalability model is parameterized with (n, a, m, l, w), the
// receive-queue depth, the QoS deadline and its slack, the runtime's
// allocation and GC cost, the per-task decomposition and the tick's
// migration phases. One record is
// everything needed to explain a single slow tick after the fact.
type TickRecord struct {
	// Tick is the server's tick counter.
	Tick uint64 `json:"tick"`
	// StartUnixMicro is the tick's wall-clock start in Unix microseconds.
	StartUnixMicro int64 `json:"start_unix_us"`
	// WallMS is the elapsed tick duration — the axis the QoS deadline and
	// the hiccup detector judge.
	WallMS float64 `json:"wall_ms"`
	// CPUMS is the tick's CPU sum across workers (≥ WallMS under the
	// parallel executor); the Tasks durations sum to it exactly.
	CPUMS float64 `json:"cpu_ms"`
	// DeadlineMS is the tick QoS deadline 1/U in force (0 = disabled).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// SlackMS is DeadlineMS − WallMS: negative on a violating tick.
	// Meaningless (0) when no deadline is set.
	SlackMS float64 `json:"slack_ms,omitempty"`
	// Users/ActiveUsers/NPCs/Replicas/Workers are the model's n, a, m, l, w
	// during the tick.
	Users       int `json:"users"`
	ActiveUsers int `json:"active_users"`
	NPCs        int `json:"npcs,omitempty"`
	Replicas    int `json:"replicas,omitempty"`
	Workers     int `json:"workers,omitempty"`
	// QueueDepth is the number of frames drained from the receive queue at
	// the start of the tick — backlog pressure when a previous tick ran long.
	QueueDepth int `json:"queue_depth"`
	// BytesIn/BytesOut are the tick's framed wire bytes (transport header
	// + payload, matching what the transport reads and writes);
	// ClientBytesOut is the share of BytesOut that carried state updates to
	// connected users.
	BytesIn        int `json:"bytes_in,omitempty"`
	BytesOut       int `json:"bytes_out,omitempty"`
	ClientBytesOut int `json:"client_bytes_out,omitempty"`
	// GCPauseMS is the stop-the-world GC pause time that landed inside the
	// tick and GCCycles the GC cycles that completed in it; AllocBytes and
	// AllocObjects are the process's heap allocations during the tick. The
	// recorder fills all four from runtime/metrics between BeginTick and
	// Record; a Record without a BeginTick keeps the caller's values.
	GCPauseMS    float64 `json:"gc_pause_ms,omitempty"`
	GCCycles     uint64  `json:"gc_cycles,omitempty"`
	AllocBytes   uint64  `json:"alloc_bytes,omitempty"`
	AllocObjects uint64  `json:"alloc_objects,omitempty"`
	// Hiccup marks a tick the recorder's hiccup detector flagged (wall time
	// above K× the rolling median); the recorder sets it in Record.
	Hiccup bool `json:"hiccup,omitempty"`
	// Tasks is the per-task (t_ua, t_npc, ...) time/item decomposition of
	// the tick, laid out contiguously from 0 in loop order; tasks that did
	// no work are omitted.
	Tasks []Span `json:"tasks,omitempty"`
	// Migrations are the migration phases this server executed during the
	// tick (nil on the many ticks without one); FlightRecorder.Migrations
	// collects them across the ring.
	Migrations []MigEvent `json:"migrations,omitempty"`
}

// FlightCapture is one frozen pre/post window around a triggering tick.
// A capture is immutable once it appears in FlightRecorder.Captures.
type FlightCapture struct {
	// ID numbers captures per recorder, starting at 1.
	ID uint64 `json:"capture"`
	// Reason is why the trigger fired: "deadline" (WallMS exceeded the QoS
	// deadline) or "hiccup" (WallMS exceeded K× the rolling median).
	Reason string `json:"reason"`
	// TriggerTick is the tick counter of the offending tick.
	TriggerTick uint64 `json:"trigger_tick"`
	// MedianMS is the rolling-median tick wall time at the trigger (0 until
	// the detector's window has filled).
	MedianMS float64 `json:"median_ms"`
	// GCAttributed classifies the capture: true when the triggering tick
	// observed in-tick GC activity (a nonzero pause or a completed cycle),
	// so GC-caused tail spikes are distinguishable from simulation cost.
	GCAttributed bool `json:"gc_attributed"`
	// Records is the surrounding window in chronological order: up to Pre
	// ticks before the trigger, the trigger itself, and Post ticks after.
	Records []TickRecord `json:"-"`
}

// flightHistory is how many recent tick records the recorder's ring keeps
// for Last (and so for /debug/ticktrace), Migrations and the tail of
// Summary: ~82 s of history at 25 Hz.
const flightHistory = 2048

// SummaryWindow is how many of the newest records Summary's wall, CPU and
// per-task statistics cover: ~20 s at 25 Hz, the recent past the resource
// manager compares against the model's thresholds.
const SummaryWindow = 512

// Flight-recorder defaults: a 16-tick window either side of the trigger
// (±0.64 s at 25 Hz), a hiccup at 4× the median of the last 64 ticks but
// never below 1 ms (sub-millisecond jitter is noise, not a hiccup), and at
// most 16 retained captures (oldest dropped first).
const (
	DefaultFlightPre    = 16
	DefaultFlightPost   = 16
	DefaultHiccupK      = 4.0
	DefaultHiccupWindow = 64
	DefaultMinHiccupMS  = 1.0
	DefaultMaxCaptures  = 16
)

// FlightRecConfig parameterises a FlightRecorder. The zero value selects
// every default above.
type FlightRecConfig struct {
	// Pre/Post are how many ticks before/after the trigger a capture keeps.
	// Negative Post means no post window (the capture closes on the
	// triggering tick itself).
	Pre, Post int
	// K is the hiccup factor: a tick is a hiccup when its wall time exceeds
	// K× the rolling-window median (and MinHiccupMS).
	K float64
	// MinHiccupMS is the absolute floor below which no tick counts as a
	// hiccup, whatever the median. Negative disables the floor (tests).
	MinHiccupMS float64
	// Window is the rolling-median window length in ticks; hiccup detection
	// stays dormant until the window has filled once.
	Window int
	// MaxCaptures bounds the retained capture list; when full, the oldest
	// capture is dropped (counted by Dropped).
	MaxCaptures int
}

func (c FlightRecConfig) withDefaults() FlightRecConfig {
	if c.Pre <= 0 {
		c.Pre = DefaultFlightPre
	}
	if c.Post == 0 {
		c.Post = DefaultFlightPost
	} else if c.Post < 0 {
		c.Post = 0
	}
	if c.K <= 0 {
		c.K = DefaultHiccupK
	}
	if c.MinHiccupMS == 0 {
		c.MinHiccupMS = DefaultMinHiccupMS
	} else if c.MinHiccupMS < 0 {
		c.MinHiccupMS = 0
	}
	if c.Window <= 0 {
		c.Window = DefaultHiccupWindow
	}
	if c.MaxCaptures <= 0 {
		c.MaxCaptures = DefaultMaxCaptures
	}
	return c
}

// FlightRecorder is the tick loop's black box and every server's one tick
// history: it keeps the last flightHistory tick records in a ring (read by
// Last, Since and Summary), watches each new
// record for a deadline violation or a hiccup (wall time above K× the
// rolling-window median), and on a trigger freezes the surrounding
// pre/post window into an immutable FlightCapture.
// A p99.9 outlier then ships with its own explanation — the offending
// tick's task breakdown plus the ticks around it — instead of a bare
// histogram bucket increment.
//
// FlightRecorder is safe for concurrent use: the real-time loop records
// while HTTP handlers, the fleet collector, the alert rules and the
// resource manager read. Recording is O(Window) (one insertion into a
// sorted median window) and, once the ring has filled, allocation-free
// outside captures: a record reuses the evicted slot's Tasks and
// Migrations arrays, and every reader gets copies.
//
// The recorder also samples the runtime: BeginTick reads the cumulative
// heap-allocation and GC counters, and the next Record diffs them into the
// record's GC and allocation fields.
type FlightRecorder struct {
	mu  sync.Mutex
	cfg FlightRecConfig

	// samples is the runtime/metrics set BeginTick reads and Record diffs
	// against base (the counters) and pauseBase (the pause histogram's
	// bucket counts, copied because runtime/metrics reuses the histogram
	// across reads). began marks a BeginTick awaiting its Record.
	samples   []metrics.Sample
	base      [runtimeSampleGCPauses]uint64
	pauseBase []uint64
	began     bool

	// ring holds the most recent records (capacity flightHistory, or Pre+1
	// if larger), overwritten oldest-first; next is the oldest record once
	// the ring is full, and 0 until then. recorded counts every record ever
	// ingested and violations those whose wall time exceeded their deadline.
	ring       []TickRecord
	next       int
	recorded   uint64
	violations uint64

	// window is the rolling wall-time window the median is computed over;
	// sorted is its sorted mirror, maintained incrementally.
	window []float64
	wnext  int
	sorted []float64

	// open is the capture still collecting its post window, if any. While a
	// capture is open, further triggers count (hiccups) but do not open a
	// second capture — one anomaly yields one capture.
	open     *FlightCapture
	postLeft int

	captures []*FlightCapture
	nextID   uint64
	hiccups  uint64
	dropped  uint64
}

// NewFlightRecorder returns a recorder with the given configuration (zero
// fields take the Default* values).
func NewFlightRecorder(cfg FlightRecConfig) *FlightRecorder {
	cfg = cfg.withDefaults()
	r := &FlightRecorder{
		cfg:     cfg,
		samples: make([]metrics.Sample, len(runtimeSampleNames)),
		ring:    make([]TickRecord, 0, max(flightHistory, cfg.Pre+1)),
		window:  make([]float64, 0, cfg.Window),
		sorted:  make([]float64, 0, cfg.Window),
	}
	for i, name := range runtimeSampleNames {
		r.samples[i].Name = name
	}
	return r
}

// runtimeSampleNames are the runtime/metrics series BeginTick and Record
// read, in the order of the runtimeSample* indices.
var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

const (
	runtimeSampleAllocBytes = iota
	runtimeSampleAllocObjects
	runtimeSampleGCCycles
	runtimeSampleGCPauses
)

// BeginTick samples the runtime's cumulative allocation and GC counters at
// the start of a tick; the next Record fills the record's GCPauseMS,
// GCCycles, AllocBytes and AllocObjects with the change since.
func (r *FlightRecorder) BeginTick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	metrics.Read(r.samples)
	for i := range r.base {
		r.base[i] = r.samples[i].Value.Uint64()
	}
	r.pauseBase = append(r.pauseBase[:0], r.samples[runtimeSampleGCPauses].Value.Float64Histogram().Counts...)
	r.began = true
}

// endSampleLocked closes the runtime sample BeginTick opened, writing the
// tick's deltas into rec.
func (r *FlightRecorder) endSampleLocked(rec *TickRecord) {
	r.began = false
	metrics.Read(r.samples)
	rec.AllocBytes = r.samples[runtimeSampleAllocBytes].Value.Uint64() - r.base[runtimeSampleAllocBytes]
	rec.AllocObjects = r.samples[runtimeSampleAllocObjects].Value.Uint64() - r.base[runtimeSampleAllocObjects]
	rec.GCCycles = r.samples[runtimeSampleGCCycles].Value.Uint64() - r.base[runtimeSampleGCCycles]
	rec.GCPauseMS = pauseDeltaMS(r.samples[runtimeSampleGCPauses].Value.Float64Histogram(), r.pauseBase)
}

// pauseDeltaMS sums the new observations a cumulative pause histogram
// gained since base, approximating each by its bucket midpoint (the finite
// edge for the ±Inf boundary buckets). Returns milliseconds.
func pauseDeltaMS(h *metrics.Float64Histogram, base []uint64) float64 {
	if h == nil || len(base) != len(h.Counts) || len(h.Buckets) != len(h.Counts)+1 {
		return 0
	}
	total := 0.0
	for i, n := range h.Counts {
		d := n - base[i]
		if d == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		total += float64(d) * mid
	}
	return total * 1e3
}

// Record ingests one tick record, runs the trigger checks, and maintains
// any open capture. After a BeginTick it first fills the record's GC and
// allocation fields. Record copies rec.Tasks and rec.Migrations into the
// ring, so the caller may reuse both slices for the next tick.
func (r *FlightRecorder) Record(rec TickRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.began {
		r.endSampleLocked(&rec)
	}

	// The median is computed before rec enters the window, so a hiccup is
	// judged against the recent past, not against itself.
	median, windowFull := r.medianLocked()
	reason := ""
	if rec.DeadlineMS > 0 && rec.WallMS > rec.DeadlineMS {
		reason = "deadline"
		r.violations++
	}
	rec.Hiccup = windowFull && median > 0 && rec.WallMS > r.cfg.K*median && rec.WallMS >= r.cfg.MinHiccupMS
	if rec.Hiccup {
		r.hiccups++
		if reason == "" {
			reason = "hiccup"
		}
	}
	r.pushWindowLocked(rec.WallMS)
	r.recorded++

	// Ring: append until full, then overwrite oldest. The slot keeps its
	// Tasks and Migrations arrays, so steady-state recording never
	// allocates.
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, TickRecord{})
	} else {
		r.next = (r.next + 1) % cap(r.ring)
	}
	slot := &r.ring[(r.next+len(r.ring)-1)%len(r.ring)]
	tasks, migs := slot.Tasks[:0], slot.Migrations[:0]
	*slot = rec
	slot.Tasks = append(tasks, rec.Tasks...)
	slot.Migrations = append(migs, rec.Migrations...)

	switch {
	case r.open != nil:
		r.open.Records = append(r.open.Records, r.lastLocked(1)...)
		r.postLeft--
		if r.postLeft <= 0 {
			r.freezeLocked()
		}
	case reason != "":
		r.nextID++
		c := &FlightCapture{
			ID:           r.nextID,
			Reason:       reason,
			TriggerTick:  rec.Tick,
			MedianMS:     median,
			GCAttributed: rec.GCPauseMS > 0 || rec.GCCycles > 0,
			Records:      r.lastLocked(r.cfg.Pre + 1),
		}
		r.open = c
		r.postLeft = r.cfg.Post
		if r.postLeft <= 0 {
			r.freezeLocked()
		}
	}
}

// medianLocked returns the rolling median and whether the window is full
// (detection stays dormant until one full window has been observed).
func (r *FlightRecorder) medianLocked() (float64, bool) {
	if len(r.window) < cap(r.window) {
		return 0, false
	}
	n := len(r.sorted)
	if n%2 == 1 {
		return r.sorted[n/2], true
	}
	return (r.sorted[n/2-1] + r.sorted[n/2]) / 2, true
}

// pushWindowLocked inserts one wall time into the rolling window and its
// sorted mirror, evicting the oldest value once the window is full.
func (r *FlightRecorder) pushWindowLocked(ms float64) {
	if len(r.window) < cap(r.window) {
		r.window = append(r.window, ms)
	} else {
		old := r.window[r.wnext]
		r.window[r.wnext] = ms
		r.wnext = (r.wnext + 1) % cap(r.window)
		// Remove one instance of the evicted value from the sorted mirror.
		if i := sort.SearchFloat64s(r.sorted, old); i < len(r.sorted) && r.sorted[i] == old {
			r.sorted = append(r.sorted[:i], r.sorted[i+1:]...)
		}
	}
	i := sort.SearchFloat64s(r.sorted, ms)
	r.sorted = append(r.sorted, 0)
	copy(r.sorted[i+1:], r.sorted[i:])
	r.sorted[i] = ms
}

// Last returns copies of up to n of the most recent tick records in
// chronological order (every retained record when n is not positive or
// exceeds the ring). The copies own their Tasks and Migrations.
func (r *FlightRecorder) Last(n int) []TickRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastLocked(n)
}

// Since returns copies of the records ingested after cursor, oldest first,
// and the cursor to pass next time: the "since the last look" walk of a
// reader that polls. Records that left the ring in between are skipped.
// Cursor 0 reads the whole ring.
func (r *FlightRecorder) Since(cursor uint64) ([]TickRecord, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cursor >= r.recorded {
		return nil, r.recorded
	}
	return r.lastLocked(int(min(r.recorded-cursor, uint64(len(r.ring))))), r.recorded
}

// lastLocked copies the newest n ring records (all when n is out of
// range), oldest first. Every copy's Tasks and Migrations are cut from one
// fresh array each, so the ring can reuse its slots' arrays.
func (r *FlightRecorder) lastLocked(n int) []TickRecord {
	if n <= 0 || n > len(r.ring) {
		n = len(r.ring)
	}
	out := make([]TickRecord, n)
	spans, migs := 0, 0
	for i := range out {
		out[i] = r.ring[(r.next+len(r.ring)-n+i)%len(r.ring)]
		spans += len(out[i].Tasks)
		migs += len(out[i].Migrations)
	}
	spanBuf := make([]Span, 0, spans)
	var migBuf []MigEvent
	if migs > 0 {
		migBuf = make([]MigEvent, 0, migs)
	}
	for i := range out {
		out[i].Tasks = carve(&spanBuf, out[i].Tasks)
		out[i].Migrations = carve(&migBuf, out[i].Migrations)
	}
	return out
}

// carve appends src to *buf and returns the appended part with its
// capacity clipped, or nil for an empty src.
func carve[T any](buf *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	start := len(*buf)
	*buf = append(*buf, src...)
	return (*buf)[start:len(*buf):len(*buf)]
}

// Migrations returns the migration events of the ring's records, oldest
// first: this server's side of every user migration in the last
// flightHistory ticks, the per-replica input to StitchMigrations.
func (r *FlightRecorder) Migrations() []MigEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []MigEvent
	for i := range r.ring {
		out = append(out, r.ring[(r.next+i)%len(r.ring)].Migrations...)
	}
	return out
}

// TickSummary is the one read every observer of a server's ticks takes of
// its recorder: the resource manager's mean tick, the /metrics and fleet
// families, the report line and the tail alert rules.
type TickSummary struct {
	// Ticks counts every record ever ingested and Violations those whose
	// wall time exceeded their deadline; both are cumulative counters.
	Ticks, Violations uint64
	// Newest is the most recent record without its Tasks and Migrations:
	// the workload gauges (n, a, m, l), the tick's bytes and the deadline
	// in force.
	Newest TickRecord
	// Wall and CPU summarise the wall and CPU times of the newest
	// SummaryWindow records; Wall.Mean is the mean tick the resource
	// manager compares against the model's thresholds.
	Wall, CPU stats.Summary
	// Tasks summarises each task's per-item cost (span duration over its
	// items) over the same records, keyed by span name; a span that
	// processed no items contributes nothing.
	Tasks map[string]stats.Summary
	// Walls and GCPauses hold the wall time and GC pause of every record in
	// the ring, ascending: the tail the QoS deadline is governed by, read
	// with stats.Percentile.
	Walls, GCPauses []float64
}

// Summary summarises the ring. The values are copied out under the lock
// and summarised after it is released, so a reader holds up the tick loop
// for one pass over the ring, not for the sorts.
func (r *FlightRecorder) Summary() TickSummary {
	r.mu.Lock()
	n := len(r.ring)
	k := min(n, SummaryWindow)
	s := TickSummary{
		Ticks:      r.recorded,
		Violations: r.violations,
		Walls:      make([]float64, n),
		GCPauses:   make([]float64, n),
		Tasks:      make(map[string]stats.Summary),
	}
	wall, cpu := make([]float64, 0, k), make([]float64, 0, k)
	perItem := make(map[string][]float64)
	for i := 0; i < n; i++ {
		rec := &r.ring[(r.next+i)%n]
		s.Walls[i], s.GCPauses[i] = rec.WallMS, rec.GCPauseMS
		if i < n-k {
			continue
		}
		wall = append(wall, rec.WallMS)
		cpu = append(cpu, rec.CPUMS)
		for _, sp := range rec.Tasks {
			if sp.Items > 0 {
				perItem[sp.Name] = append(perItem[sp.Name], sp.DurMS/float64(sp.Items))
			}
		}
	}
	if n > 0 {
		s.Newest = r.ring[(r.next+n-1)%n]
		s.Newest.Tasks, s.Newest.Migrations = nil, nil
	}
	r.mu.Unlock()
	sort.Float64s(s.Walls)
	sort.Float64s(s.GCPauses)
	s.Wall, s.CPU = stats.Summarize(wall), stats.Summarize(cpu)
	for name, v := range perItem {
		s.Tasks[name] = stats.Summarize(v)
	}
	return s
}

// PooledWalls merges the ring wall times of several summaries, ascending:
// a zone's tail, pooled over its replicas.
func PooledWalls(sums ...TickSummary) []float64 {
	var out []float64
	for _, s := range sums {
		out = append(out, s.Walls...)
	}
	sort.Float64s(out)
	return out
}

// freezeLocked finalizes the open capture into the bounded capture list,
// dropping the oldest capture when the list is at MaxCaptures.
func (r *FlightRecorder) freezeLocked() {
	if len(r.captures) >= r.cfg.MaxCaptures {
		copy(r.captures, r.captures[1:])
		r.captures[len(r.captures)-1] = nil
		r.captures = r.captures[:len(r.captures)-1]
		r.dropped++
	}
	r.captures = append(r.captures, r.open)
	r.open = nil
	r.postLeft = 0
}

// Captures returns the finalized captures, oldest first. The capture
// structs are immutable; the slice is a copy. A capture still collecting
// its post window is not included.
func (r *FlightRecorder) Captures() []*FlightCapture {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*FlightCapture(nil), r.captures...)
}

// Hiccups reports how many ticks the hiccup detector flagged (including
// ones that fell inside an already-open capture, which open no new one).
func (r *FlightRecorder) Hiccups() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hiccups
}

// CapturesTotal reports how many captures were ever opened (including
// dropped and still-open ones).
func (r *FlightRecorder) CapturesTotal() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextID
}

// Dropped reports how many finalized captures were evicted at MaxCaptures.
func (r *FlightRecorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// WriteFlightJSONL renders captures as JSONL: one capture-header line (the
// FlightCapture metadata plus a record count) followed by one line per
// TickRecord in chronological order. Header lines carry the "capture" key,
// record lines the "tick" key, so jq can split the stream:
//
//	{"capture":1,"reason":"hiccup","trigger_tick":412,...,"records":33}
//	{"tick":396,"wall_ms":1.9,...}
//	...
func WriteFlightJSONL(w io.Writer, captures []*FlightCapture) error {
	enc := json.NewEncoder(w)
	for _, c := range captures {
		header := struct {
			FlightCapture
			Count int `json:"records"`
		}{FlightCapture: *c, Count: len(c.Records)}
		if err := enc.Encode(&header); err != nil {
			return fmt.Errorf("telemetry: encode capture %d: %w", c.ID, err)
		}
		if err := WriteTraceJSONL(w, c.Records); err != nil {
			return fmt.Errorf("telemetry: capture %d: %w", c.ID, err)
		}
	}
	return nil
}

// FlightRecHandler serves a recorder's finalized captures as JSONL (the
// /debug/flightrec endpoint). Query parameter n limits the response to the
// n most recent captures (absent = all, 0 = none); a negative or
// non-numeric n is a 400.
func FlightRecHandler(r *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n, err := QueryIntParam(req.URL.Query(), "n", -1)
		if err != nil {
			http.Error(w, "flightrec: "+err.Error(), http.StatusBadRequest)
			return
		}
		captures := r.Captures()
		if n >= 0 && n < len(captures) {
			captures = captures[len(captures)-n:]
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := WriteFlightJSONL(w, captures); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// WriteMetrics exports one Summary of the recorder and its capture
// counters in the Prometheus text exposition format: the per-server
// /metrics section. It matches MetricsWriter.
//
// Exported families:
//
//	roia_ticks_total                      counter, recorded ticks
//	roia_tick_wall_q_ms{q=...}            tick wall-time quantiles
//	                                      (p50/p90/p99/p999) over the ring
//	roia_tick_cpu_stat_ms{stat=...}       mean/p95 of the tick CPU sums
//	                                      (across workers; ÷ wall = live
//	                                      pipeline speedup) over the newest
//	                                      SummaryWindow records
//	roia_task_ms{task=...,stat=...}       mean/p95 per-item cost of each
//	                                      task, same window
//	roia_zone_users / roia_active_users   the model's n and a (newest tick)
//	roia_npcs / roia_replicas             the model's m and l (newest tick)
//	roia_tick_bytes{direction=...}        wire bytes of the newest tick
//	roia_tick_deadline_ms                 QoS tick deadline 1/U in force
//	roia_tick_deadline_violations_total   counter, ticks past the deadline
//	roia_tick_hiccups_total               counter, detector-flagged ticks
//	roia_flightrec_captures_total         counter, captures ever opened
//	roia_flightrec_captures_dropped_total counter, captures evicted at the cap
func (r *FlightRecorder) WriteMetrics(w io.Writer, labels string) error {
	s := r.Summary()
	r.mu.Lock()
	hiccups, total, dropped := r.hiccups, r.nextID, r.dropped
	r.mu.Unlock()
	lbl := func(extra string) string { return FormatLabels(labels, extra) }
	last := s.Newest
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_ticks_total counter\nroia_ticks_total%s %d\n", lbl(""), s.Ticks)
	fmt.Fprintf(&b, "# TYPE roia_tick_wall_q_ms gauge\n")
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 50}, {"p90", 90}, {"p99", 99}, {"p999", 99.9}} {
		fmt.Fprintf(&b, "roia_tick_wall_q_ms%s %g\n", lbl(fmt.Sprintf("q=%q", q.name)), stats.Percentile(s.Walls, q.p))
	}
	fmt.Fprintf(&b, "# TYPE roia_tick_cpu_stat_ms gauge\n")
	fmt.Fprintf(&b, "roia_tick_cpu_stat_ms%s %g\n", lbl(`stat="mean"`), s.CPU.Mean)
	fmt.Fprintf(&b, "roia_tick_cpu_stat_ms%s %g\n", lbl(`stat="p95"`), s.CPU.P95)
	fmt.Fprintf(&b, "# TYPE roia_task_ms gauge\n")
	names := make([]string, 0, len(s.Tasks))
	for name := range s.Tasks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "roia_task_ms%s %g\n", lbl(fmt.Sprintf("task=%q,stat=\"mean\"", name)), s.Tasks[name].Mean)
		fmt.Fprintf(&b, "roia_task_ms%s %g\n", lbl(fmt.Sprintf("task=%q,stat=\"p95\"", name)), s.Tasks[name].P95)
	}
	fmt.Fprintf(&b, "# TYPE roia_zone_users gauge\nroia_zone_users%s %d\n", lbl(""), last.Users)
	fmt.Fprintf(&b, "# TYPE roia_active_users gauge\nroia_active_users%s %d\n", lbl(""), last.ActiveUsers)
	fmt.Fprintf(&b, "# TYPE roia_npcs gauge\nroia_npcs%s %d\n", lbl(""), last.NPCs)
	fmt.Fprintf(&b, "# TYPE roia_replicas gauge\nroia_replicas%s %d\n", lbl(""), last.Replicas)
	fmt.Fprintf(&b, "# TYPE roia_tick_bytes gauge\n")
	fmt.Fprintf(&b, "roia_tick_bytes%s %d\n", lbl(`direction="in"`), last.BytesIn)
	fmt.Fprintf(&b, "roia_tick_bytes%s %d\n", lbl(`direction="out"`), last.BytesOut)
	fmt.Fprintf(&b, "# TYPE roia_tick_deadline_ms gauge\nroia_tick_deadline_ms%s %g\n", lbl(""), last.DeadlineMS)
	fmt.Fprintf(&b, "# TYPE roia_tick_deadline_violations_total counter\n")
	fmt.Fprintf(&b, "roia_tick_deadline_violations_total%s %d\n", lbl(""), s.Violations)
	fmt.Fprintf(&b, "# TYPE roia_tick_hiccups_total counter\nroia_tick_hiccups_total%s %d\n", lbl(""), hiccups)
	fmt.Fprintf(&b, "# TYPE roia_flightrec_captures_total counter\nroia_flightrec_captures_total%s %d\n", lbl(""), total)
	fmt.Fprintf(&b, "# TYPE roia_flightrec_captures_dropped_total counter\n")
	fmt.Fprintf(&b, "roia_flightrec_captures_dropped_total%s %d\n", lbl(""), dropped)
	_, err := io.WriteString(w, b.String())
	return err
}
