package bots

import (
	"fmt"
	"sync"

	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/transport"
	"roia/internal/telemetry"
)

// FleetDriver maintains a bot population against a live RTF fleet: it
// connects new bots to the least-loaded replica as the target grows and
// disconnects them as it shrinks, and advances servers and bots in
// lockstep. It is the live-cluster counterpart of the simulator's
// SetTargetUsers and powers cmd/roiacalibrate and the shooter example.
type FleetDriver struct {
	fl  *fleet.Fleet
	net transport.Network

	// mu guards the mutable swarm state: a metrics scrape reads
	// ClientLatency from an HTTP goroutine while the session loop grows
	// and shrinks the swarm.
	mu      sync.Mutex
	profile Profile
	seed    int64
	next    int
	swarm   []*Bot
	// rttDeadline is applied to every new bot's latency recorder (ms);
	// retired accumulates the recorders of disconnected bots so the
	// fleet-wide RTT distribution survives swarm shrinks.
	rttDeadline float64
	retired     *telemetry.Latency
}

// NewFleetDriver returns a driver with the default interactivity profile.
func NewFleetDriver(fl *fleet.Fleet, net transport.Network, seed int64) *FleetDriver {
	return &FleetDriver{
		fl: fl, net: net, profile: DefaultProfile(), seed: seed,
		retired: telemetry.NewLatency(0),
	}
}

// SetProfile changes the profile used for newly-connected bots.
func (d *FleetDriver) SetProfile(p Profile) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.profile = p
}

// SetLatencyDeadline sets the input→update RTT deadline (ms) used for QoS
// violation accounting, applied to current and future bots.
func (d *FleetDriver) SetLatencyDeadline(ms float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rttDeadline = ms
	for _, b := range d.swarm {
		b.Client().SetLatencyDeadline(ms)
	}
}

// ClientLatency merges every bot's input→update RTT recorder — live swarm
// plus already-disconnected bots — into one fleet-wide distribution. The
// returned recorder is a snapshot (its Snapshot is the fleet collector's
// ClientLatency source). Safe to call concurrently with the session loop (e.g. from a
// metrics scrape).
func (d *FleetDriver) ClientLatency() *telemetry.Latency {
	d.mu.Lock()
	defer d.mu.Unlock()
	all := telemetry.NewLatency(d.rttDeadline)
	all.Merge(d.retired)
	for _, b := range d.swarm {
		all.Merge(b.Client().Latency())
	}
	return all
}

// Bots returns a snapshot of the live swarm.
func (d *FleetDriver) Bots() []*Bot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*Bot(nil), d.swarm...)
}

// SetBots grows or shrinks the swarm to the target size.
func (d *FleetDriver) SetBots(target int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if target < 0 {
		target = 0
	}
	for len(d.swarm) < target {
		srvID := d.leastLoaded()
		if srvID == "" {
			return fmt.Errorf("bots: no server to join")
		}
		d.next++
		node, err := d.net.Attach(fmt.Sprintf("bot-%d", d.next), 1<<14)
		if err != nil {
			return err
		}
		cl := client.New(node, srvID)
		cl.SetLatencyDeadline(d.rttDeadline)
		pos := entity.Vec2{X: float64((d.next * 97) % 1000), Y: float64((d.next * 61) % 1000)}
		if err := cl.Join(1, pos, node.ID()); err != nil {
			_ = node.Close()
			return err
		}
		d.swarm = append(d.swarm, New(cl, d.profile, d.seed+int64(d.next)))
	}
	for len(d.swarm) > target {
		b := d.swarm[len(d.swarm)-1]
		d.swarm = d.swarm[:len(d.swarm)-1]
		_ = b.Client().Leave()
		// Give the leave frame one tick to be processed before the node
		// disappears from the network.
		d.fl.TickAll()
		d.retired.Merge(b.Client().Latency())
		_ = b.Client().Close()
	}
	return nil
}

// leastLoaded picks the replica with the fewest users, counting the
// driver's own clients (including joins still in flight) so that bursts
// of arrivals between ticks spread evenly instead of piling onto the
// first server.
func (d *FleetDriver) leastLoaded() string {
	pointing := make(map[string]int, len(d.swarm))
	for _, b := range d.swarm {
		pointing[b.Client().Server()]++
	}
	best, bestUsers := "", 1<<30
	for _, s := range d.fl.Servers() {
		if s.Draining || !s.Ready {
			continue
		}
		load := s.Users
		if p := pointing[s.ID]; p > load {
			load = p
		}
		if load < bestUsers {
			best, bestUsers = s.ID, load
		}
	}
	return best
}

// Step advances the fleet by one tick and lets every bot act.
func (d *FleetDriver) Step() {
	d.mu.Lock()
	swarm := append([]*Bot(nil), d.swarm...)
	d.mu.Unlock()
	d.fl.TickAll()
	for _, b := range swarm {
		b.Step()
	}
}
