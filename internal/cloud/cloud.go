// Package cloud simulates the on-demand resource leasing substrate the
// paper targets ("Cloud Computing offers cost-efficient leasing resources
// on demand", Section I). RTF-RMS leases application servers from a
// Provider, which models resource classes of different computational
// power, provisioning (startup) delay, and accrued cost.
//
// The provider is driven by an explicit clock (seconds as float64) rather
// than wall time, so simulated sessions are deterministic and can run
// thousands of times faster than real time.
package cloud

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Class describes one resource type on offer.
type Class struct {
	// Name identifies the class (e.g. "standard", "highcpu").
	Name string
	// Power is the relative computational power; per-item CPU times of the
	// scalability model scale with 1/Power. The baseline class has
	// Power 1.0; a substitution target has Power > 1.
	Power float64
	// StartupDelay is the seconds between Lease and the resource becoming
	// ready (cloud provisioning latency).
	StartupDelay float64
	// CostPerSecond is the leasing price while held.
	CostPerSecond float64
}

// Errors returned by the provider.
var (
	// ErrUnknownClass reports a lease request for an unregistered class.
	ErrUnknownClass = errors.New("cloud: unknown resource class")
	// ErrNoStrongerClass reports that resource substitution is impossible
	// because no class more powerful than the current one exists — the
	// paper's "critical user density" condition requiring app redesign.
	ErrNoStrongerClass = errors.New("cloud: no more powerful resource class available")
)

// Resource is one leased instance.
type Resource struct {
	// ID is unique per provider.
	ID string
	// Class is the resource type.
	Class Class
	// LeasedAt and ReadyAt delimit provisioning.
	LeasedAt, ReadyAt float64
	released          bool
}

// Ready reports whether the resource has finished provisioning at time now.
func (r *Resource) Ready(now float64) bool { return !r.released && now >= r.ReadyAt }

// Provider leases resources.
type Provider struct {
	mu      sync.Mutex
	classes map[string]Class
	active  map[string]*Resource
	nextID  int
	// cost accumulated from released leases; active leases priced on query.
	releasedCost float64
}

// NewProvider returns a provider offering the given classes. It panics on
// duplicate class names (static configuration error).
func NewProvider(classes ...Class) *Provider {
	p := &Provider{
		classes: make(map[string]Class, len(classes)),
		active:  make(map[string]*Resource),
	}
	for _, c := range classes {
		if _, dup := p.classes[c.Name]; dup {
			panic(fmt.Sprintf("cloud: duplicate class %q", c.Name))
		}
		if c.Power <= 0 {
			c.Power = 1
		}
		p.classes[c.Name] = c
	}
	return p
}

// DefaultClasses mirrors a small public-cloud menu: a baseline class and
// two stronger substitution targets.
func DefaultClasses() []Class {
	return []Class{
		{Name: "standard", Power: 1.0, StartupDelay: 30, CostPerSecond: 0.01},
		{Name: "highcpu", Power: 2.0, StartupDelay: 30, CostPerSecond: 0.025},
		{Name: "highcpu2x", Power: 4.0, StartupDelay: 45, CostPerSecond: 0.06},
	}
}

// Lease acquires one instance of the named class at time now.
func (p *Provider) Lease(class string, now float64) (*Resource, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.classes[class]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownClass, class)
	}
	p.nextID++
	r := &Resource{
		ID:       fmt.Sprintf("%s-%d", class, p.nextID),
		Class:    c,
		LeasedAt: now,
		ReadyAt:  now + c.StartupDelay,
	}
	p.active[r.ID] = r
	return r, nil
}

// LeaseReady acquires an instance that is ready immediately, bypassing the
// startup delay — for resources provisioned before session start.
func (p *Provider) LeaseReady(class string, now float64) (*Resource, error) {
	r, err := p.Lease(class, now)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	r.ReadyAt = now
	p.mu.Unlock()
	return r, nil
}

// Release returns an instance at time now. Releasing twice or releasing an
// unknown resource is an error.
func (p *Provider) Release(id string, now float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.active[id]
	if !ok {
		return fmt.Errorf("cloud: release of unknown resource %q", id)
	}
	delete(p.active, id)
	r.released = true
	if now > r.LeasedAt {
		p.releasedCost += (now - r.LeasedAt) * r.Class.CostPerSecond
	}
	return nil
}

// StrongerClass returns the cheapest class strictly more powerful than the
// given one, for the resource-substitution action.
func (p *Provider) StrongerClass(current string) (Class, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur, ok := p.classes[current]
	if !ok {
		return Class{}, fmt.Errorf("%w: %s", ErrUnknownClass, current)
	}
	var candidates []Class
	for _, c := range p.classes {
		if c.Power > cur.Power {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) == 0 {
		return Class{}, ErrNoStrongerClass
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].CostPerSecond != candidates[j].CostPerSecond {
			return candidates[i].CostPerSecond < candidates[j].CostPerSecond
		}
		return candidates[i].Power < candidates[j].Power
	})
	return candidates[0], nil
}

// Cost reports the total accrued cost at time now: completed leases plus
// the running cost of active ones.
func (p *Provider) Cost(now float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.releasedCost
	for _, r := range p.active {
		if now > r.LeasedAt {
			total += (now - r.LeasedAt) * r.Class.CostPerSecond
		}
	}
	return total
}
