package server

import (
	"math/rand"

	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
)

// Application is the callback interface through which RTF executes the
// application logic inside the real-time loop. The game (internal/game)
// implements it; RTF itself stays application-agnostic, exactly as the
// paper's middleware separates application developers from the framework.
//
// All callbacks run on the server's tick goroutine; implementations may
// freely mutate the entities they are handed and need no locking of their
// own.
type Application interface {
	// SpawnAvatar returns the initial entity state for a joining user.
	SpawnAvatar(env *Env, id entity.ID, pos entity.Vec2, zoneID uint32) *entity.Entity

	// ApplyInput validates and applies one user input to the actor's
	// state. Interactions that target entities active on other replicas
	// are returned as forwards; RTF routes them to the responsible server
	// (the "forwarded inputs" of the model). Invalid inputs return an
	// error and are dropped. The server reads the returned forwards before
	// its next ApplyInput or UpdateNPC call and does not keep them, so an
	// application may return the same buffer every time.
	ApplyInput(env *Env, actor *entity.Entity, payload []byte) ([]Forward, error)

	// ApplyForwarded applies an interaction forwarded from another replica
	// to a locally-active target (e.g. lowering the target's health after
	// a remote attack).
	ApplyForwarded(env *Env, actor entity.ID, target *entity.Entity, payload []byte) error

	// UpdateNPC advances one locally-active NPC by one tick. Like user
	// inputs, NPC behaviour may produce interactions with entities active
	// on other replicas; they are returned as forwards. The model's
	// t_npc(n, m) covers exactly this: "calculating interactions between
	// NPCs and users". The returned forwards are consumed as ApplyInput's
	// are — unless the application is a ConcurrentSimulator, whose results
	// are all held until every NPC has been computed.
	UpdateNPC(env *Env, npc *entity.Entity) []Forward

	// DrainEvents returns and clears the application events pending for
	// the user owning the given avatar (delivered in the Events field of
	// the next state update).
	DrainEvents(env *Env, avatar entity.ID) []byte

	// EncodeUserState serializes the application-specific state attached
	// to an avatar for migration (the payload whose cost is t_mig_ini on
	// the source server).
	EncodeUserState(env *Env, avatar entity.ID) []byte

	// ApplyUserState installs migrated application state on the receiving
	// server (cost t_mig_rcv).
	ApplyUserState(env *Env, avatar entity.ID, data []byte)
}

// ConcurrentSimulator is an optional Application capability: an
// application whose UpdateNPC is a pure per-NPC function may declare it to
// let the tick pipeline fan NPC updates over the executor's workers.
//
// Declaring the capability asserts that UpdateNPC
//
//   - never uses env.Rand (the shared sequential random source would make
//     results depend on NPC scheduling order) or env.Near (it answers from
//     scratch the Env owns), and
//   - mutates only the npc entity it is handed — it may not write any
//     other entity or the store; cross-entity effects must be returned as
//     forwards.
//
// In exchange, the server runs NPC updates in two phases regardless of
// worker count — compute all updates (parallel, results in per-NPC slots),
// then apply the returned forwards sequentially in NPC ID order — so
// sequential and parallel executions are byte-identical by construction.
// Applications that do not implement the capability (internal/game uses
// env.Rand for movement) keep the original inline sequential path on every
// worker count.
type ConcurrentSimulator interface {
	// ConcurrentNPCUpdates reports whether UpdateNPC satisfies the purity
	// contract above.
	ConcurrentNPCUpdates() bool
}

// Forward is an interaction that must be applied on the replica owning the
// target entity.
type Forward struct {
	// Target is the entity the interaction applies to.
	Target entity.ID
	// Payload is the application-encoded interaction.
	Payload []byte
}

// Env is the execution environment RTF hands to application callbacks.
type Env struct {
	// ServerID is the node ID of the executing server.
	ServerID string
	// Tick is the current tick number.
	Tick uint64
	// Store is the server's full replica of the zone state.
	Store *entity.Store
	// Rand is the server's deterministic random source. Seeded from the
	// server configuration, so simulated sessions replay identically.
	Rand *rand.Rand

	// index is the server's interest manager when that is the spatial hash
	// (the default), and world the Store.All() it was last built over —
	// set for the simulate stage, during which the server keeps the index
	// current, and nil outside it. near, hits and marks are Near's reused
	// result and scratch.
	index *aoi.Incremental
	world []*entity.Entity
	near  []*entity.Entity
	hits  []int32
	marks []uint64
}

// Near returns the entities of Store within r of pos, of every kind and
// including one standing at pos, in ascending ID order. During the simulate
// stage (ApplyInput, ApplyForwarded, UpdateNPC) of a server whose interest
// manager is the spatial hash it reads the cells the disc touches; an Env
// without an index, or outside that stage, scans the store. Both see every
// displacement earlier callbacks of the tick made; entities an application
// itself Puts into or Removes from Store mid-stage are seen from the next
// tick. The result is valid until the next Near call on this Env; tick
// goroutine only.
func (env *Env) Near(pos entity.Vec2, r float64) []*entity.Entity {
	env.near = env.near[:0]
	if env.world == nil {
		r2 := r * r
		for _, e := range env.Store.All() {
			if pos.Dist2(e.Pos) <= r2 {
				env.near = append(env.near, e)
			}
		}
		return env.near
	}
	env.hits = env.index.NearPositions(env.hits[:0], env.marks, pos, r)
	for _, at := range env.hits {
		env.near = append(env.near, env.world[at])
	}
	return env.near
}

// beginSimulate brings the index up to the live store — shadow updates,
// joins, leaves and arrivals of the receive stage — and opens the window in
// which Near answers from it. Build is incremental: an entity that stayed in
// its cell costs two stores.
func (env *Env) beginSimulate() {
	if env.index == nil {
		return
	}
	env.world = env.Store.All()
	env.index.Build(env.world)
	if words := (len(env.world) + 63) / 64; len(env.marks) < words {
		env.marks = make([]uint64, words)
	}
}

// moved re-places e in the index if a callback displaced it from was.
func (env *Env) moved(e *entity.Entity, was entity.Vec2) {
	if env.world != nil && e.Pos != was {
		env.index.Move(e.ID, e.Pos)
	}
}

// endSimulate closes the window: the entity set may change from here on
// (evictions, handoffs), and the publish stage rebuilds the index over the
// tick's snapshot.
func (env *Env) endSimulate() { env.world = nil }
