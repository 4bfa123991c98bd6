// Package workload generates the user-count traces that drive sessions:
// the "continuously changing number of users" of the paper's dynamic
// load-balancing experiment (Fig. 8), built from constant, ramp and
// piecewise phases, plus replayed recorded traces.
//
// A Trace maps session time in seconds to a target concurrent user count;
// the simulator connects/disconnects users to track it.
package workload

import "math"

// Trace is a target user count over session time.
type Trace interface {
	// UsersAt returns the target concurrent user count at time t seconds.
	UsersAt(t float64) int
	// Duration returns the trace length in seconds.
	Duration() float64
}

// Constant holds a fixed user count.
type Constant struct {
	N   int
	Len float64
}

// UsersAt implements Trace.
func (c Constant) UsersAt(float64) int { return c.N }

// Duration implements Trace.
func (c Constant) Duration() float64 { return c.Len }

// Ramp linearly interpolates From → To over its duration, clamping outside.
type Ramp struct {
	From, To int
	Len      float64
}

// UsersAt implements Trace.
func (r Ramp) UsersAt(t float64) int {
	if r.Len <= 0 || t <= 0 {
		return r.From
	}
	if t >= r.Len {
		return r.To
	}
	return r.From + int(math.Round(float64(r.To-r.From)*t/r.Len))
}

// Duration implements Trace.
func (r Ramp) Duration() float64 { return r.Len }

// Phase is one segment of a Piecewise trace.
type Phase struct {
	// Until is the end time of the phase (seconds from session start).
	Until float64
	// Trace shapes the phase; its local time restarts at the phase start.
	Trace Trace
}

// Piecewise concatenates phases. Phases must be ordered by Until.
type Piecewise struct {
	Phases []Phase
}

// UsersAt implements Trace.
func (p Piecewise) UsersAt(t float64) int {
	if len(p.Phases) == 0 {
		return 0
	}
	start := 0.0
	for _, ph := range p.Phases {
		if t < ph.Until {
			return ph.Trace.UsersAt(t - start)
		}
		start = ph.Until
	}
	// Past the end: hold the last phase's final value.
	last := p.Phases[len(p.Phases)-1]
	lastStart := 0.0
	if len(p.Phases) > 1 {
		lastStart = p.Phases[len(p.Phases)-2].Until
	}
	return last.Trace.UsersAt(last.Until - lastStart)
}

// Duration implements Trace.
func (p Piecewise) Duration() float64 {
	if len(p.Phases) == 0 {
		return 0
	}
	return p.Phases[len(p.Phases)-1].Until
}

// Replay plays back a recorded per-second user-count series.
type Replay struct {
	Counts []int
}

// UsersAt implements Trace.
func (r Replay) UsersAt(t float64) int {
	if len(r.Counts) == 0 {
		return 0
	}
	i := int(t)
	if i < 0 {
		i = 0
	}
	if i >= len(r.Counts) {
		i = len(r.Counts) - 1
	}
	return r.Counts[i]
}

// Duration implements Trace.
func (r Replay) Duration() float64 { return float64(len(r.Counts)) }

// PaperSession reproduces the workload of the paper's Fig. 8: a session
// with a continuously changing number of users growing to 300 and shrinking
// back, exercising replication enactment on the way up and resource removal
// on the way down.
func PaperSession() Trace {
	return Piecewise{Phases: []Phase{
		{Until: 120, Trace: Ramp{From: 0, To: 60, Len: 120}},
		{Until: 480, Trace: Ramp{From: 60, To: 300, Len: 360}},
		{Until: 660, Trace: Constant{N: 300, Len: 180}},
		{Until: 1020, Trace: Ramp{From: 300, To: 80, Len: 360}},
		{Until: 1200, Trace: Ramp{From: 80, To: 0, Len: 180}},
	}}
}
