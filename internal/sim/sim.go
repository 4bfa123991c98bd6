// Package sim is the deterministic cluster simulator behind the figure
// reproductions: it evaluates a multi-replica ROIA session second by
// second on a virtual clock, charging CPU time from a calibrated cost
// model (params.Set) instead of measuring wall time. Sessions that take
// twenty minutes on the paper's testbed replay here in milliseconds, are
// bit-for-bit reproducible across machines, and still exercise the exact
// RTF-RMS controller code (package rms) used against live RTF clusters,
// because Cluster implements rms.Cluster.
//
// Per simulated second the session driver:
//
//  1. adjusts the connected-user population to the workload trace
//     (arrivals join per the configured policy, departures leave),
//  2. runs the resource-management controller (which may migrate users,
//     lease or release replicas, or substitute resources), and
//  3. evaluates the second: every server's tick duration follows Eq. (4)
//     of the scalability model — scaled by its resource power — plus the
//     migration overhead x·t_mig charged by Eq. (5) for the migrations it
//     initiated and received this second.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"roia/internal/cloud"
	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rms"
)

// JoinPolicy selects the server new users connect to.
type JoinPolicy int

// Join policies.
const (
	// JoinLeastLoaded connects each arrival to the replica with the
	// fewest users (a typical lobby/load-balancer frontend).
	JoinLeastLoaded JoinPolicy = iota
	// JoinRandom connects arrivals uniformly at random, leaving imbalance
	// for user migration to repair.
	JoinRandom
)

// baseClass is the resource class of every new replica: the power-1
// class of cloud.DefaultClasses. Substitution leases the stronger ones.
const baseClass = "standard"

// tickPeriodMS is the tick period the CPU load is measured against
// (25 Hz).
const tickPeriodMS = 40

// Config assembles a simulated cluster.
type Config struct {
	// Params is the application's calibrated cost model.
	Params *params.Set
	// Model is the scalability model over those parameters (supplies U).
	Model *model.Model
	// InitialServers is the number of replicas provisioned (and
	// immediately ready) at session start; default 1.
	InitialServers int
	// Join picks the arrival policy.
	Join JoinPolicy
	// Seed drives the deterministic random source.
	Seed int64
}

type simServer struct {
	id    string
	res   *cloud.Resource
	users int
	// inbound counts users migrated in during the current second; they
	// are charged t_mig_rcv now but join the processing load only at the
	// end of the second, matching Eq. (5)'s additive overhead on top of
	// the receiver's current tick time.
	inbound  int
	draining bool
	removed  bool

	// Per-second migration charges in ms (Eq. 5's x·t_mig terms).
	migCharge float64
	// lastTick is the most recent evaluated tick duration (ms).
	lastTick float64
}

// SecondStats summarizes one evaluated second, one row of the Fig. 8 time
// series.
type SecondStats struct {
	// Time is the session second the stats describe.
	Time float64
	// Users is the zone-wide user count n.
	Users int
	// Replicas counts all leased servers; ReadyReplicas only serving ones.
	Replicas, ReadyReplicas int
	// AvgCPU is the mean CPU load of ready servers in percent
	// (tick duration / tick period, capped at 100).
	AvgCPU float64
	// MaxTickMS is the worst tick duration across ready servers.
	MaxTickMS float64
	// Violations counts servers whose tick exceeded the threshold U.
	Violations int
	// Migrations is the number of users migrated during the second.
	Migrations int
}

// Cluster is a simulated replica group for one zone.
type Cluster struct {
	cfg      Config
	provider *cloud.Provider
	servers  []*simServer
	byID     map[string]*simServer
	now      float64
	rng      *rand.Rand

	secondMigrations int
	totalMigrations  int
	totalViolations  int
	peakTick         float64
	peakReplicas     int
}

// NewCluster builds a simulated cluster. It returns an error when the
// configuration is incomplete or initial provisioning fails.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Params == nil || cfg.Model == nil {
		return nil, errors.New("sim: Config.Params and Config.Model must be set")
	}
	if cfg.InitialServers <= 0 {
		cfg.InitialServers = 1
	}
	provider := cloud.NewProvider(cloud.DefaultClasses()...)
	c := &Cluster{
		cfg:      cfg,
		provider: provider,
		byID:     make(map[string]*simServer),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := 0; i < cfg.InitialServers; i++ {
		res, err := provider.LeaseReady(baseClass, 0)
		if err != nil {
			return nil, fmt.Errorf("sim: initial lease: %w", err)
		}
		c.attach(res)
	}
	c.peakReplicas = cfg.InitialServers
	return c, nil
}

func (c *Cluster) attach(res *cloud.Resource) *simServer {
	s := &simServer{id: res.ID, res: res}
	c.servers = append(c.servers, s)
	c.byID[s.id] = s
	return s
}

// ready lists serving servers (provisioned, not draining, not removed).
func (c *Cluster) ready() []*simServer {
	var out []*simServer
	for _, s := range c.servers {
		if !s.removed && !s.draining && s.res.Ready(c.now) {
			out = append(out, s)
		}
	}
	return out
}

// serving lists all provisioned servers including draining ones — they
// still replicate the zone until empty.
func (c *Cluster) serving() []*simServer {
	var out []*simServer
	for _, s := range c.servers {
		if !s.removed && s.res.Ready(c.now) {
			out = append(out, s)
		}
	}
	return out
}

// --- rms.Cluster implementation ---

// Servers implements rms.Cluster.
func (c *Cluster) Servers() []rms.ServerState {
	out := make([]rms.ServerState, 0, len(c.servers))
	for _, s := range c.servers {
		if s.removed {
			continue
		}
		out = append(out, rms.ServerState{
			ID:       s.id,
			Users:    s.users + s.inbound,
			TickMS:   s.lastTick,
			Power:    s.res.Class.Power,
			Class:    s.res.Class.Name,
			Ready:    s.res.Ready(c.now),
			Draining: s.draining,
		})
	}
	return out
}

// ZoneUsers implements rms.Cluster.
func (c *Cluster) ZoneUsers() int {
	n := 0
	for _, s := range c.servers {
		if !s.removed {
			n += s.users + s.inbound
		}
	}
	return n
}

// NPCCount implements rms.Cluster: simulated sessions carry no NPCs
// (m = 0, as in Fig. 8).
func (c *Cluster) NPCCount() int { return 0 }

// Migrate implements rms.Cluster: it moves users instantly and charges
// both ends the model's migration overhead for this second.
func (c *Cluster) Migrate(src, dst string, count int) error {
	if count <= 0 {
		return nil
	}
	from, ok := c.byID[src]
	if !ok || from.removed {
		return fmt.Errorf("sim: migrate from unknown server %q", src)
	}
	to, ok := c.byID[dst]
	if !ok || to.removed {
		return fmt.Errorf("sim: migrate to unknown server %q", dst)
	}
	if !to.res.Ready(c.now) {
		return fmt.Errorf("sim: migration target %q not ready", dst)
	}
	if count > from.users {
		count = from.users
	}
	if count == 0 {
		return nil
	}
	n := c.ZoneUsers()
	from.users -= count
	to.inbound += count
	from.migCharge += float64(count) * c.cfg.Params.MigIniAt(n) / from.res.Class.Power
	to.migCharge += float64(count) * c.cfg.Params.MigRcvAt(n) / to.res.Class.Power
	c.secondMigrations += count
	c.totalMigrations += count
	return nil
}

// AddReplica implements rms.Cluster.
func (c *Cluster) AddReplica() (string, error) {
	res, err := c.provider.Lease(baseClass, c.now)
	if err != nil {
		return "", err
	}
	s := c.attach(res)
	if n := c.leasedCount(); n > c.peakReplicas {
		c.peakReplicas = n
	}
	return s.id, nil
}

// RemoveReplica implements rms.Cluster.
func (c *Cluster) RemoveReplica(id string) error {
	s, ok := c.byID[id]
	if !ok || s.removed {
		return fmt.Errorf("sim: remove of unknown server %q", id)
	}
	if s.users+s.inbound > 0 {
		return fmt.Errorf("sim: remove of non-empty server %q (%d users)", id, s.users+s.inbound)
	}
	if len(c.serving()) <= 1 && s.res.Ready(c.now) {
		return errors.New("sim: refusing to remove the last replica of the zone")
	}
	s.removed = true
	delete(c.byID, id)
	return c.provider.Release(id, c.now)
}

// SetDraining implements rms.Cluster.
func (c *Cluster) SetDraining(id string, on bool) error {
	s, ok := c.byID[id]
	if !ok || s.removed {
		return fmt.Errorf("sim: drain of unknown server %q", id)
	}
	s.draining = on
	return nil
}

// Substitute implements rms.Cluster: leases a stronger resource as a new
// replica; the caller drains the old server once the replacement is ready.
func (c *Cluster) Substitute(id string) (string, error) {
	s, ok := c.byID[id]
	if !ok || s.removed {
		return "", fmt.Errorf("sim: substitute of unknown server %q", id)
	}
	class, err := c.provider.StrongerClass(s.res.Class.Name)
	if err != nil {
		return "", err
	}
	res, err := c.provider.Lease(class.Name, c.now)
	if err != nil {
		return "", err
	}
	ns := c.attach(res)
	if n := c.leasedCount(); n > c.peakReplicas {
		c.peakReplicas = n
	}
	return ns.id, nil
}

func (c *Cluster) leasedCount() int {
	n := 0
	for _, s := range c.servers {
		if !s.removed {
			n++
		}
	}
	return n
}

// --- session driving ---

// SetTargetUsers adjusts the connected population to the trace's target:
// arrivals join per the configured policy, departures leave weighted by
// server occupancy.
func (c *Cluster) SetTargetUsers(target int) {
	if target < 0 {
		target = 0
	}
	cur := c.ZoneUsers()
	for cur < target {
		s := c.pickJoinServer()
		if s == nil {
			break // no ready server can admit users
		}
		s.users++
		cur++
	}
	for cur > target {
		s := c.pickLeaveServer()
		if s == nil {
			break
		}
		s.users--
		cur--
	}
}

func (c *Cluster) pickJoinServer() *simServer {
	ready := c.ready()
	if len(ready) == 0 {
		return nil
	}
	switch c.cfg.Join {
	case JoinRandom:
		return ready[c.rng.Intn(len(ready))]
	default: // JoinLeastLoaded
		sort.SliceStable(ready, func(i, j int) bool { return ready[i].users < ready[j].users })
		return ready[0]
	}
}

// pickLeaveServer removes a departing user from a server chosen weighted
// by occupancy (each connected user is equally likely to quit).
func (c *Cluster) pickLeaveServer() *simServer {
	total := c.ZoneUsers()
	if total == 0 {
		return nil
	}
	pick := c.rng.Intn(total)
	for _, s := range c.servers {
		if s.removed || s.users == 0 {
			continue
		}
		if pick < s.users {
			return s
		}
		pick -= s.users
	}
	return nil
}

// EndSecond evaluates the elapsed second — every serving server's tick
// duration via Eq. (4), scaled by resource power, plus this second's
// migration charges — records the statistics, clears the charges and
// advances the clock.
func (c *Cluster) EndSecond() SecondStats {
	serving := c.serving()
	n := c.ZoneUsers()
	l := len(serving)
	st := SecondStats{
		Time:          c.now,
		Users:         n,
		Replicas:      c.leasedCount(),
		ReadyReplicas: l,
		Migrations:    c.secondMigrations,
	}
	cpuSum := 0.0
	for _, s := range serving {
		tick := c.cfg.Model.TickTimeUneven(l, n, 0, s.users)/s.res.Class.Power + s.migCharge
		s.lastTick = tick
		s.migCharge = 0
		s.users += s.inbound
		s.inbound = 0
		if tick > st.MaxTickMS {
			st.MaxTickMS = tick
		}
		if tick > c.peakTick {
			c.peakTick = tick
		}
		if tick > c.cfg.Model.U {
			st.Violations++
		}
		cpu := tick / tickPeriodMS * 100
		if cpu > 100 {
			cpu = 100
		}
		cpuSum += cpu
	}
	if l > 0 {
		st.AvgCPU = cpuSum / float64(l)
	}
	c.totalViolations += st.Violations
	c.secondMigrations = 0
	c.now++
	return st
}
