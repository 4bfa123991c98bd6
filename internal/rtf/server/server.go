// Package server implements the RTF application server: the real-time loop
// (receive inputs → compute state → send updates), replication with shadow
// entities and forwarded interactions, user migration, and the per-task
// monitoring hooks that feed the scalability model.
//
// A Server processes one zone. Multiple servers replicating the same zone
// coordinate through a shared zone.Assignment and exchange shadow updates
// and forwarded inputs over a transport.Network — the architecture of
// Fig. 1 in the paper.
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// Config assembles a Server.
type Config struct {
	// Node is this server's attached network endpoint; its ID is the
	// server's identity.
	Node transport.Node
	// Zone is the zone this server processes.
	Zone zone.ID
	// Assignment is the shared zone→replica mapping; the server registers
	// itself on Start and consults it for its peer replicas.
	Assignment *zone.Assignment
	// World optionally describes the zone layout. When set, avatars whose
	// position leaves this server's zone are handed off to a replica of
	// the destination zone (the zoning distribution method); when nil the
	// zone is unbounded.
	World *zone.World
	// App is the application logic.
	App Application
	// AOI computes areas of interest; nil defaults to the incremental
	// spatial hash with radius DefaultAOIRadius. Tests inject aoi.Euclid
	// (RTFDemo's Euclidean Distance Algorithm) as the oracle.
	AOI aoi.Manager
	// IDPrefix makes entity IDs allocated by this server globally unique;
	// give every server in a session a distinct prefix.
	IDPrefix uint16
	// Seed seeds the server's deterministic random source.
	Seed int64
	// TickInterval is the tick period for Run (default 40 ms — 25 Hz, the
	// first-person-shooter rate of Section V).
	TickInterval time.Duration
	// KeyframeTicks is the cadence of periodic StateKeyframe refreshes in
	// the client state stream: a client receives a keyframe at least every
	// KeyframeTicks ticks, which bounds how long a desynchronized client
	// (dropped or reordered delta) stays stale. 0 defaults to 32 ticks
	// (~1.3 s at 25 Hz); 1 sends every update as a full keyframe.
	KeyframeTicks int
	// Parallelism is the worker count for the embarrassingly-parallel
	// stages of the tick pipeline (frame decode, per-user AoI queries and
	// state-update serialization, and — for applications declaring the
	// ConcurrentSimulator capability — NPC updates). 0 or 1 runs every
	// stage sequentially on the tick goroutine, the original behaviour.
	// Client-visible wire output is byte-identical across Parallelism
	// values and GOMAXPROCS settings; only wall time changes. The model's
	// T(l,n,m,w) describes the effect (model.Par).
	Parallelism int
	// IdleTimeoutTicks evicts users that have not sent any input for this
	// many ticks — the cleanup path for crashed or vanished clients, whose
	// avatars would otherwise haunt the zone forever. 0 disables eviction.
	// At 25 Hz, 250 ticks ≈ 10 s of silence.
	IdleTimeoutTicks uint64
	// FlightRec is the server's one tick history (nil builds one with the
	// default thresholds): it receives one telemetry.TickRecord per tick —
	// the per-task span decomposition, workload gauges, the QoS deadline
	// (the tick interval, 1/U), the tick's heap-allocation and GC cost
	// (sampled from runtime/metrics between the recorder's BeginTick and
	// Record), the framed bytes sent to users, and the migration phases the
	// tick executed — into its bounded ring. Every observer of the ticks
	// reads that ring: the resource manager's mean tick and the /metrics
	// families (FlightRecorder.Summary), the tick trace
	// (telemetry.TraceHandler, cmd/roiaserver's /debug/ticktrace), model
	// drift (monitor.ModelDrift), the alert rules, and this server's side of
	// the cross-replica migration trace (FlightRecorder.Migrations,
	// telemetry.StitchMigrations); deadline-violating or hiccup ticks freeze
	// a pre/post window into captures (telemetry.FlightRecHandler,
	// /debug/flightrec). The record reuses the Breakdown already timed for
	// the Monitor, so recording adds no clock reads to the hot loop.
	FlightRec *telemetry.FlightRecorder
}

// DefaultAOIRadius is the visibility radius used when Config.AOI is nil.
const DefaultAOIRadius = 50

// user is one connected client.
type user struct {
	id     string
	avatar entity.ID
	seq    uint64 // last input sequence seen
	// lastInput is the tick of the user's most recent input (or join),
	// for idle eviction.
	lastInput uint64
	// prevVis is the ascending-ID visible set of the user's last published
	// update; the publish stage diffs the new set against it to produce
	// enter/leave events (AoI churn) and the StateDelta's
	// Updates/Enters/Gone columns. Owned by the publish
	// worker handling this user (slot discipline), reused across ticks.
	prevVis []entity.ID
	// lastPub is the tick of the user's last published update; a delta is
	// only valid on an unbroken chain (lastPub == tick-1), anything else
	// forces a keyframe.
	lastPub uint64
	// nextKey is the tick at which the next periodic keyframe is due.
	nextKey uint64
}

// migrationOrder is an instruction (from the resource manager) to move
// users to a target replica.
type migrationOrder struct {
	target string
	count  int
}

// Server is one RTF application server.
type Server struct {
	cfg Config

	mu       sync.Mutex
	store    *entity.Store
	users    map[string]*user
	orders   []migrationOrder
	mon      *monitor.Monitor
	rec      *telemetry.FlightRecorder
	env      *Env
	tick     uint64
	nextID   uint32
	nextMig  uint32
	stopped  bool
	draining bool // true while shutting down: reject joins

	// uids is the sorted key set of users, rebuilt by sortedUserIDs when
	// uidsStale says users changed since.
	uids      []string
	uidsStale bool

	w *wire.Writer // reusable serialization buffer (tick goroutine only)
	// exec runs the tick pipeline's parallel stages; with Parallelism <= 1
	// it degenerates to inline loops on the tick goroutine.
	exec *executor
	// tickBytesOut accumulates sent payload bytes within the current tick
	// for the monitor's traffic counters; tickClientBytes is the share the
	// publish stage sent to users, tickMigs the migration phases the tick
	// executed and tickSpans its task spans, all for the tick's record
	// (reused across ticks: the recorder copies them).
	tickBytesOut    int
	tickClientBytes int
	tickMigs        []telemetry.MigEvent
	tickSpans       []telemetry.Span
	// handoffs lists entities whose ownership was just transferred away;
	// they ride along in the next shadow update (they are no longer
	// "active" here, but the new owner must learn of the transfer).
	handoffs []entity.ID
	// frameBuf is the reusable receive buffer the tick's Drain fills;
	// frames are only referenced within the tick that drained them.
	frameBuf []transport.Frame

	// keyframeTicks is Config.KeyframeTicks with the default applied.
	keyframeTicks uint64
	// ob stages every frame the tick produces and flushes them in
	// per-destination batches at the end of the tick (one write each on
	// transports that support it).
	ob outbox
	// decodeFn/npcFn/publishFn are the executor stage bodies, bound once at
	// construction: handing run a stored func field instead of a fresh
	// closure keeps the per-tick fan-out allocation-free. Their per-tick
	// inputs live in the server fields below; workers read them while the
	// tick goroutine is parked in run, so the slot discipline still holds.
	decodeFn, npcFn, publishFn func(i int, ctx *workerCtx)
	// Reusable per-tick stage buffers (tick goroutine only): decoded-frame
	// slots, applied inputs, forwarded inputs, removed entities, the NPC
	// active set and result slots, the publish items, their snapshot and
	// its delta-body arena, peer replicas, and the shadow-update entity
	// scratch.
	decBuf     []decodedFrame
	inputsBuf  []decodedInput
	fwdBuf     []*proto.Forwarded
	removedBuf []entity.ID
	npcActive  []*entity.Entity
	npcBuf     []npcResult
	pubItems   []pubItem
	pubSnap    *entity.Snapshot
	pubWorld   []*entity.Entity
	pubBodies  proto.DeltaBodies
	peersBuf   []string
	suEnts     []entity.Entity
}

// New assembles a server from the configuration. The server is inert until
// Start (or manual Tick calls in tests).
func New(cfg Config) (*Server, error) {
	if cfg.Node == nil {
		return nil, errors.New("server: config needs a transport node")
	}
	if cfg.App == nil {
		return nil, errors.New("server: config needs an application")
	}
	if cfg.Assignment == nil {
		return nil, errors.New("server: config needs a zone assignment")
	}
	if cfg.AOI == nil {
		cfg.AOI = aoi.NewIncremental(DefaultAOIRadius)
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 40 * time.Millisecond
	}
	if cfg.KeyframeTicks <= 0 {
		cfg.KeyframeTicks = 32
	}
	if cfg.FlightRec == nil {
		cfg.FlightRec = telemetry.NewFlightRecorder(telemetry.FlightRecConfig{})
	}
	s := &Server{
		cfg:           cfg,
		store:         entity.NewStore(),
		users:         make(map[string]*user),
		mon:           monitor.New(),
		rec:           cfg.FlightRec,
		w:             wire.NewWriter(4 << 10),
		exec:          newExecutor(cfg.Parallelism, time.Now),
		keyframeTicks: uint64(cfg.KeyframeTicks),
	}
	s.decodeFn = s.decodeItem
	s.npcFn = s.npcItem
	s.publishFn = s.publishItem
	s.env = &Env{
		ServerID: cfg.Node.ID(),
		Store:    s.store,
		Rand:     rand.New(rand.NewSource(cfg.Seed)),
	}
	// The index the publish stage queries also answers the application's
	// Env.Near; under any other manager (the Euclid oracle) Near scans.
	s.env.index, _ = cfg.AOI.(*aoi.Incremental)
	return s, nil
}

// ID returns the server's node ID.
func (s *Server) ID() string { return s.cfg.Node.ID() }

// Zone returns the zone this server processes.
func (s *Server) Zone() zone.ID { return s.cfg.Zone }

// Monitor exposes the server's timing monitor: the latest tick breakdown
// and the calibration logs.
func (s *Server) Monitor() *monitor.Monitor { return s.mon }

// FlightRecorder exposes the server's tick history.
func (s *Server) FlightRecorder() *telemetry.FlightRecorder { return s.rec }

// Start registers the server as a replica of its zone. It is idempotent.
func (s *Server) Start() {
	s.cfg.Assignment.AddReplica(s.cfg.Zone, s.ID())
}

// Run starts the real-time loop at the configured tick rate until the
// context is cancelled.
func (s *Server) Run(ctx context.Context) error {
	s.Start()
	ticker := time.NewTicker(s.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			s.Tick()
		}
	}
}

// UserCount reports the number of users connected to this server (its
// active avatars, the model's a).
func (s *Server) UserCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.users)
}

// ZoneUserCount reports the zone-wide user count n: connected users plus
// shadow avatars replicated from peers.
func (s *Server) ZoneUserCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.zoneUsersLocked()
}

func (s *Server) zoneUsersLocked() int {
	n := 0
	for _, e := range s.store.All() {
		if e.Kind == entity.Avatar {
			n++
		}
	}
	return n
}

// Users returns the connected user IDs in deterministic order.
func (s *Server) Users() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.sortedUserIDs())
}

// Entity returns a copy of an entity's current state.
func (s *Server) Entity(id entity.ID) (entity.Entity, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.store.Get(id)
	if !ok {
		return entity.Entity{}, false
	}
	return *e, true
}

// SpawnNPC creates an NPC owned by this server at the given position and
// returns its ID. NPCs spread over replicas via ownership, matching the
// model's assumption that the zone's m NPCs are distributed equally.
func (s *Server) SpawnNPC(pos entity.Vec2) entity.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.allocIDLocked()
	s.store.Put(&entity.Entity{
		ID: id, Kind: entity.NPC, Pos: pos, Health: 100,
		Zone: uint32(s.cfg.Zone), Owner: s.ID(), Seq: 1,
	})
	return id
}

// TransferNPCs reassigns up to count locally-owned NPCs to the target
// replica and reports how many moved. The scalability model assumes the
// zone's m NPCs are distributed equally over the l replicas (the m/l term
// of Eq. 1); the resource manager calls this after replica-set changes to
// keep that assumption true. Ownership propagates with the next shadow
// update.
func (s *Server) TransferNPCs(target string, count int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if count <= 0 || target == s.ID() || !s.cfg.Assignment.IsReplica(s.cfg.Zone, target) {
		return 0
	}
	moved := 0
	for _, npc := range s.store.Active(s.ID(), int(entity.NPC)) {
		if moved >= count {
			break
		}
		npc.Owner = target
		npc.Seq++
		s.handoffs = append(s.handoffs, npc.ID)
		moved++
	}
	return moved
}

// NPCCount reports the number of NPCs this server actively processes.
func (s *Server) NPCCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.CountActive(s.ID(), int(entity.NPC))
}

// MigrateUsers orders the server to hand off count users to the target
// replica. The handoffs are executed during subsequent ticks; the resource
// manager caps count per second using the scalability model's x_max
// thresholds (Eq. 5).
func (s *Server) MigrateUsers(target string, count int) {
	if count <= 0 || target == s.ID() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.orders = append(s.orders, migrationOrder{target: target, count: count})
}

// SetDraining marks the server as shutting down: new joins are rejected
// while remaining users migrate away (used by the resource-removal and
// substitution actions).
func (s *Server) SetDraining(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = on
}

// Draining reports whether the server is refusing new joins.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stop detaches the server from the replica group and closes its node.
func (s *Server) Stop() error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	s.mu.Unlock()
	s.exec.close()
	s.cfg.Assignment.RemoveReplica(s.cfg.Zone, s.ID())
	return s.cfg.Node.Close()
}

// allocIDLocked returns a fresh globally-unique entity ID.
func (s *Server) allocIDLocked() entity.ID {
	s.nextID++
	return entity.ID(uint64(s.cfg.IDPrefix)<<32 | uint64(s.nextID))
}

// allocMigIDLocked returns a fresh globally-unique migration ID, carried in
// the wire-level transfer so both endpoints trace the same migration.
func (s *Server) allocMigIDLocked() uint64 {
	s.nextMig++
	return uint64(s.cfg.IDPrefix)<<32 | uint64(s.nextMig)
}

// send serializes and sends one protocol message. Errors are swallowed:
// RTF transmits asynchronously and a lost frame is repaired by the next
// tick's update.
func (s *Server) send(to string, msg wire.Message) {
	s.sendRaw(to, proto.Registry.Encode(s.w, msg))
}

// sendRaw stages an already-encoded payload in the tick's outbox — the
// publish merge path, where workers encoded state updates into their own
// buffers and the tick goroutine stages them in deterministic user order.
// Must only be called from the tick goroutine (it accumulates the tick's
// byte counter); the payload is copied, so the caller may reuse its buffer
// immediately. Delivery happens in per-destination batches when the tick's
// outbox flushes (end of Tick), preserving per-destination frame order.
//
// Byte accounting uses the framed wire size (transport header + payload),
// mirroring what a TCP peer actually writes, so BytesOut matches BytesIn
// on the receiving end whatever the transport. sendRaw returns that size.
func (s *Server) sendRaw(to string, payload []byte) int {
	frameBytes := transport.FrameWireBytes(s.ID(), to, len(payload))
	s.tickBytesOut += frameBytes
	s.ob.stage(to, payload)
	return frameBytes
}

func (s *Server) String() string {
	return fmt.Sprintf("server(%s zone=%d users=%d)", s.ID(), s.cfg.Zone, s.UserCount())
}
