package main

import (
	"fmt"

	"roia/internal/bots"
)

// deadlineMS is U, the paper's tick deadline for a 25 Hz shooter. The
// benchmark never sleeps: each tick is compared with U as the paper does.
const deadlineMS = 40.0

// numProbes is the number of seeded probe clients per workload. Probes send
// exactly one move per period, last, and are polled first after the tick, so
// each period yields one input→update round trip per probe.
const numProbes = 16

// rect is an axis-aligned area of the game world.
type rect struct{ x0, y0, x1, y1 float64 }

// world1000 is the whole 1000×1000 world of game.DefaultConfig.
var world1000 = rect{0, 0, 1000, 1000}

// spec describes one workload. Every count is before scaling.
type spec struct {
	name     string
	replicas int
	// users is the number of clients joined to each replica at set-up,
	// probes included.
	users int
	// npcs is the number of NPCs spawned on each replica.
	npcs int
	// tcp selects framed TCP over 127.0.0.1; otherwise the in-process
	// loopback hub.
	tcp     bool
	profile bots.Profile
	// patch is where users spawn and where walkers steer back to.
	patch rect
	// migrate moves migrateUsers users from replica 0 to replica 1 every
	// migrateEvery periods, and as many back half a cycle later.
	migrate bool
	// ramp adds rampStep users after the reference window until the tick
	// p75 crosses the deadline or rampCap is reached.
	ramp              bool
	rampStep, rampCap int
}

const (
	migrateEvery = 50
	migrateUsers = 5
	// warmPeriods precede every measured window so that joins, keyframes
	// and first-use growth are outside it.
	warmPeriods = 100
	// rampWarm and rampMeasured are the periods run at each ramp step.
	rampWarm, rampMeasured = 20, 120
)

// workloads lists the four workloads in the order BENCHMARK.json names them.
func workloads() []spec {
	// The crowd of hotspot-400 moves like an aggressive bot but holds its
	// fire: one attack in a crowd this dense hits ~17 avatars, every avatar
	// dies within a tick or two, and the game respawns the dead anywhere in
	// the world, so a shooting crowd is gone before warm-up ends.
	crowd := bots.AggressiveProfile()
	crowd.AttackProb = 0
	return []spec{
		{name: "tcp-steady-200", replicas: 1, users: 200, tcp: true,
			profile: bots.DefaultProfile(), patch: world1000},
		{name: "hotspot-400", replicas: 1, users: 400,
			profile: crowd, patch: rect{425, 425, 575, 575}},
		{name: "replica-2x150", replicas: 2, users: 150, npcs: 50,
			profile: bots.DefaultProfile(), patch: world1000, migrate: true},
		{name: "ramp", replicas: 1, users: 1200,
			profile: bots.DefaultProfile(), patch: world1000,
			ramp: true, rampStep: 400, rampCap: 4000},
	}
}

func findWorkload(name string) (spec, error) {
	for _, s := range workloads() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled divides every population by div (tests run each workload at 1/20
// scale); probes shrink with it so they stay a minority of the users.
func (s spec) scaled(div int) spec {
	if div <= 1 {
		return s
	}
	s.users = max(s.users/div, 4)
	s.npcs /= div
	s.rampStep = max(s.rampStep/div, 1)
	s.rampCap = max(s.rampCap/div, s.users)
	return s
}

// probes is how many of a replica's users are probes.
func (s spec) probes() int {
	return min(numProbes/s.replicas, s.users/4)
}
