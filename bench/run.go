package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
)

// options selects one run of one workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// Set by tests only. periods, when positive, replaces seconds: every
	// measured window runs exactly this many periods, so that counts repeat
	// for a seed. scale divides every population (tests use 20).
	periods, scale int
}

const (
	// setupRuns is how many times a run sets the cluster up. The first
	// set-up of a process also pays for the heap's growth and every first
	// use, so it is left out; setup_s is the median of the others, and the
	// last cluster is the one measured.
	setupRuns = 5
	// rampWindowShare is the part of -seconds the ramp spends in its
	// reference window at the first step; the steps above it run a fixed
	// number of periods each, so their length is the machine's.
	rampWindowShare = 0.35
	// In a traced window, refPeriods of every blockPeriods run with the
	// decorators switched off; their tick time is the untraced reference
	// that harness.trace_overhead_share compares the traced ticks with.
	blockPeriods, refPeriods = 100, 25
	// maxFailedShare is the share of operations that may fail before a
	// run counts as incorrect.
	maxFailedShare = 0.001
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Capped    bool   `json:"capped"`
	// Inputs is the number of inputs the clients sent over the whole run.
	Inputs  int64             `json:"inputs"`
	Metrics map[string]metric `json:"metrics"`
	// names keeps the metrics in the order they were added, for printing.
	names []string
}

func (r *result) set(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// window holds what the harness measured over a run of periods.
type window struct {
	periods   int
	userTicks int64
	tickNS    []int64
	// refTickNS are the ticks of the untraced reference blocks of a traced
	// window.
	refTickNS []int64
	rttNS     []int64
	// Traced windows only: per-update time of the probes' polls, the time
	// inside SendInput, and the allocations of the poll phase.
	pollNS                  []int64
	sendInputNS, sendInputs int64
	pollAllocs, pollUpdates uint64
	gcCycles, gcPauseNS     uint64
	// walkers is the number of clients during the window.
	walkers int
	// allocs is the process's heap objects allocated during the window.
	allocs      uint64
	egressBytes int64
	// unevenUpdates sums, over the clients that stayed on their replica,
	// how far each one's update count is from one per period.
	unevenUpdates int64
}

// rampStepResult is the tick time measured at one user count of the ramp.
type rampStepResult struct {
	users         int
	p50, p75, p90 float64
}

func newRampStep(users int, tickNS []int64) rampStepResult {
	return rampStepResult{users, quantileMS(tickNS, 50), quantileMS(tickNS, 75), quantileMS(tickNS, 90)}
}

// The tick quantile a ramp step is judged by. The end-to-end capacity uses
// the upper quartile: with the collector active in about a tenth of the
// ticks near capacity, the p90 of 120 ticks flips between a tick with and
// one without it from run to run, and the capacity read from it with it.
// The p90 reading is reported per-layer.
func tickP75(s rampStepResult) float64 { return s.p75 }
func tickP90(s rampStepResult) float64 { return s.p90 }

// usersInDeadline reads the capacity from the ramp: the user count,
// interpolated linearly between the last step whose tick quantile met the
// deadline and the first whose quantile missed it. A ramp that never misses
// is capped at its last step. The driver wants every end-to-end metric from
// every workload, so a fixed workload reports itself as a ramp of one step:
// its user count for as long as it fits the deadline.
func usersInDeadline(steps []rampStepResult, tick func(rampStepResult) float64) (users float64, capped bool) {
	prev := rampStepResult{}
	for _, s := range steps {
		if tick(s) > deadlineMS {
			return float64(prev.users) + float64(s.users-prev.users)*(deadlineMS-tick(prev))/(tick(s)-tick(prev)), false
		}
		prev = s
	}
	return float64(prev.users), true
}

// runWorkload sets the workload up, measures it and checks its outputs.
func runWorkload(s spec, o options) (*result, error) {
	s = s.scaled(o.scale)
	res := &result{Workload: s.name, Seed: o.seed, Traced: o.trace, Metrics: make(map[string]metric)}
	var tr *tracer
	var setups []float64
	var w *world
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		if o.trace {
			tr = newTracer()
		}
		t0 := clock()
		var err error
		if w, err = newWorld(s, o.seed, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	defer w.close()

	dur := time.Duration(o.seconds * float64(time.Second))
	if s.ramp {
		dur = time.Duration(float64(dur) * rampWindowShare)
	}
	win, err := w.measure(dur, o.periods)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	steps := []rampStepResult{newRampStep(len(w.walkers), win.tickNS)}
	if s.ramp {
		more, err := w.ramp(o.periods)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		steps = append(steps, more...)
	}
	capacity, capped := usersInDeadline(steps, tickP75)
	res.Capped = capped && s.ramp

	gate, err := w.gate(win)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	res.Attempted, res.Failed, res.Inputs = gate.attempted, gate.failed, w.inputs
	share := float64(gate.failed) / float64(max(gate.attempted, 1))
	res.Correct = share <= maxFailedShare

	if !o.trace {
		res.set("setup_s", percentile(setups, 50), "s")
		res.set("tick_wall_p50_ms", steps[0].p50, "ms")
		res.set("rtt_p50_ms", quantileMS(win.rttNS, 50), "ms")
		res.set("egress_bytes_per_user_tick", float64(win.egressBytes)/float64(win.userTicks), "bytes")
		res.set("allocs_per_user_tick", float64(win.allocs)/float64(win.userTicks), "count")
		res.set("live_heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
		res.set("users_in_deadline", capacity, "users")
		return res, nil
	}
	w.layerMetrics(res, win, steps, capacity, gate)
	if o.outDir != "" {
		if err := tr.writeSpans(filepath.Join(o.outDir, "trace-"+s.name+".jsonl")); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", s.name, err)
		}
	}
	return res, nil
}

// measure runs one measured window: for dur, or for exactly periods
// periods when that is positive.
func (w *world) measure(dur time.Duration, periods int) (*window, error) {
	if err := w.drain(); err != nil {
		return nil, err
	}
	win := &window{walkers: len(w.walkers)}
	for _, k := range w.walkers {
		k.windowBase, k.moved = k.updates, false
	}
	var egress0 int64
	for _, rep := range w.reps {
		egress0 += rep.node.clientBytes
	}
	var gc0 runtime.MemStats
	if w.tr != nil {
		runtime.ReadMemStats(&gc0)
	}
	a0 := exactAllocs()
	start := clock()
	w.win = win
	for i := 0; ; i++ {
		if periods > 0 {
			if i >= periods {
				break
			}
		} else if time.Since(start) >= dur {
			break
		}
		if w.tr != nil {
			w.tr.on = i%blockPeriods < blockPeriods-refPeriods
		}
		w.runPeriod()
	}
	w.win = nil
	win.allocs = exactAllocs().objects - a0.objects
	if w.tr != nil {
		w.tr.on = false
		var gc1 runtime.MemStats
		runtime.ReadMemStats(&gc1)
		win.gcCycles = uint64(gc1.NumGC - gc0.NumGC)
		win.gcPauseNS = gc1.PauseTotalNs - gc0.PauseTotalNs
	}
	if err := w.drain(); err != nil {
		return nil, err
	}
	for _, rep := range w.reps {
		win.egressBytes += rep.node.clientBytes
	}
	win.egressBytes -= egress0
	// Every client that stayed on its replica got one update per period.
	for _, k := range w.walkers {
		if !k.moved {
			win.unevenUpdates += abs(int64(k.updates-k.windowBase) - int64(win.periods))
		}
	}
	return win, nil
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// ramp adds users step by step above the reference window's count until a
// step's tick p75 misses the deadline or the cap is reached.
func (w *world) ramp(periods int) ([]rampStepResult, error) {
	measured := rampMeasured
	if periods > 0 {
		measured = periods
	}
	var steps []rampStepResult
	for len(w.walkers) < w.spec.rampCap {
		if err := w.addUsers(w.spec.rampStep); err != nil {
			return nil, err
		}
		for i := 0; i < rampWarm; i++ {
			w.runPeriod()
		}
		win := &window{}
		w.win = win
		for i := 0; i < measured; i++ {
			w.runPeriod()
		}
		w.win = nil
		st := newRampStep(len(w.walkers), win.tickNS)
		steps = append(steps, st)
		if st.p75 > deadlineMS {
			break
		}
	}
	return steps, nil
}

// gateResult is the outcome of the correctness gate, by kind of operation.
type gateResult struct {
	attempted, failed int64
	// inboundDropped is inputs sent minus inputs the servers deserialized.
	inboundDropped int64
}

// gate ticks once more without inputs, waits for every update to arrive and
// checks the run's outputs: every input was applied and every probe input
// acknowledged in its period, every published update reached its client,
// one per tick, and each probe's view of the entities around it equals the
// server's. Failures are counted against the operations attempted.
func (w *world) gate(win *window) (gateResult, error) {
	w.tickAll()
	if err := w.drain(); err != nil {
		return gateResult{}, err
	}
	var g gateResult
	g.inboundDropped = w.inputs - w.decoded
	g.attempted = w.joins + w.inputs + w.expectedUpdates
	g.failed = max(w.inputs-w.applied, 0) + w.probeTimeouts + w.ingestTimeouts

	var got int64
	ids := make([]entity.ID, 0, len(w.walkers))
	for _, k := range w.walkers {
		got += int64(k.updates)
		ids = append(ids, k.c.Avatar())
	}
	for _, rep := range w.reps {
		ids = append(ids, rep.npcs...)
	}
	g.failed += max(abs(w.expectedUpdates-got), win.unevenUpdates)

	const r2 = server.DefaultAOIRadius * server.DefaultAOIRadius
	for _, k := range w.probes {
		rep := w.repBy[k.c.Server()]
		self, ok := rep.srv.Entity(k.c.Avatar())
		upd := k.c.LastUpdate()
		g.attempted++
		if !ok || upd == nil || !sameState(upd.Self, self) {
			g.failed++
			continue
		}
		seen := make(map[entity.ID]entity.Entity)
		for _, e := range k.c.World() {
			seen[e.ID] = e
		}
		for _, id := range ids {
			e, ok := rep.srv.Entity(id)
			// Only what the probe can see now is compared: under full
			// updates the client keeps stale copies of entities that left
			// its area of interest. Entities a rounding error away from
			// the radius may be on either side of it.
			d2 := self.Pos.Dist2(e.Pos)
			if !ok || id == self.ID || d2 > r2 || math.Abs(d2-r2) < 1e-6 {
				continue
			}
			g.attempted++
			if c, ok := seen[id]; !ok || !sameState(c, e) {
				g.failed++
			}
		}
	}
	return g, nil
}

func sameState(a, b entity.Entity) bool {
	return a.ID == b.ID && a.Kind == b.Kind && a.Pos == b.Pos && a.Health == b.Health && a.Owner == b.Owner
}
