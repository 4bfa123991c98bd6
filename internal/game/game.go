// Package game implements the case-study application: a first-person
// shooter with the computational profile of the paper's RTFDemo. It plugs
// into the RTF server as its Application callback.
//
// The game reproduces the cost structure Section V-A measures:
//
//   - Each tick a user may issue a move command, an attack command or both.
//   - Attack processing tests every entity near the shooter (env.Near, the
//     server's spatial index) for a hit, so input-application time (t_ua)
//     grows with the local density instead of RTFDemo's scan over all
//     users; on a bare Env the same code is that scan.
//   - Interest management is the server's (package aoi).
//   - Attacks on entities active on other replicas become forwarded inputs.
package game

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
	"roia/internal/rtf/wire"
)

// Command kinds of the game protocol (application payloads inside
// proto.Input / proto.Forwarded envelopes).
const (
	KindMove wire.Kind = iota + 100
	KindAttack
	KindDamage
)

// Commands decodes every game command.
var Commands = wire.NewRegistry(
	func() wire.Message { return &Move{} },
	func() wire.Message { return &Attack{} },
	func() wire.Message { return &Damage{} },
)

// Move displaces the avatar by (DX, DY), clamped to the world bounds and
// the per-tick speed limit.
type Move struct {
	DX, DY float64
}

// WireKind implements wire.Message.
func (*Move) WireKind() wire.Kind { return KindMove }

// MarshalWire implements wire.Message.
func (m *Move) MarshalWire(w *wire.Writer) {
	w.Float64(m.DX)
	w.Float64(m.DY)
}

// UnmarshalWire implements wire.Message.
func (m *Move) UnmarshalWire(r *wire.Reader) error {
	m.DX = r.Float64()
	m.DY = r.Float64()
	return r.Err()
}

// Attack fires a shot in direction (DirX, DirY) from the avatar's
// position. Hit determination scans the entities within reach.
type Attack struct {
	DirX, DirY float64
}

// WireKind implements wire.Message.
func (*Attack) WireKind() wire.Kind { return KindAttack }

// MarshalWire implements wire.Message.
func (m *Attack) MarshalWire(w *wire.Writer) {
	w.Float64(m.DirX)
	w.Float64(m.DirY)
}

// UnmarshalWire implements wire.Message.
func (m *Attack) UnmarshalWire(r *wire.Reader) error {
	m.DirX = r.Float64()
	m.DirY = r.Float64()
	return r.Err()
}

// Damage is the effect of a successful attack, applied on the replica
// owning the victim (the forwarded-input payload of the model).
type Damage struct {
	Amount int32
}

// WireKind implements wire.Message.
func (*Damage) WireKind() wire.Kind { return KindDamage }

// MarshalWire implements wire.Message.
func (m *Damage) MarshalWire(w *wire.Writer) { w.Varint(int64(m.Amount)) }

// UnmarshalWire implements wire.Message.
func (m *Damage) UnmarshalWire(r *wire.Reader) error {
	m.Amount = int32(r.Varint())
	return r.Err()
}

// Config tunes the shooter.
type Config struct {
	// WorldMin/WorldMax bound avatar positions.
	WorldMin, WorldMax float64
	// MoveSpeed caps per-tick displacement length (per axis).
	MoveSpeed float64
	// AttackRange is the hit-scan reach.
	AttackRange float64
	// AttackWidth is the perpendicular tolerance of a hit.
	AttackWidth float64
	// AttackDamage is the health lost per hit.
	AttackDamage int32
	// SpawnHealth is the avatar health at spawn and respawn.
	SpawnHealth int32
	// NPCSpeed caps per-tick NPC wandering.
	NPCSpeed float64
	// NPCAggroRange is the distance within which an NPC notices and
	// attacks avatars; 0 disables NPC attacks.
	NPCAggroRange float64
	// NPCAttackProb is the per-tick probability that an NPC with a target
	// in range attacks it.
	NPCAttackProb float64
	// NPCDamage is the health an NPC attack removes.
	NPCDamage int32
}

// DefaultConfig returns the tuning used by the examples and experiments.
func DefaultConfig() Config {
	return Config{
		WorldMin: 0, WorldMax: 1000,
		MoveSpeed: 5, AttackRange: 60, AttackWidth: 8,
		AttackDamage: 10, SpawnHealth: 100, NPCSpeed: 2,
		NPCAggroRange: 40, NPCAttackProb: 0.2, NPCDamage: 5,
	}
}

// userState is the per-avatar application state migrated between servers.
type userState struct {
	Kills  uint32
	Deaths uint32
	Ammo   int32
}

// Game is the shooter's server-side logic. One Game instance serves one
// RTF server. It is driven entirely from the server's tick goroutine, but
// a mutex guards the externally-readable score state.
type Game struct {
	cfg Config
	// reach is the radius of the disc around the middle of the attack beam
	// that holds the whole beam, with a margin for rounding: everything an
	// attack can hit is within it.
	reach float64
	// hit and bite are the encoded Damage of an avatar's and an NPC's
	// attack, shared by every forward that carries one.
	hit, bite []byte
	// fwds backs the forwards ApplyInput and UpdateNPC return; the server
	// is done with them before its next call (server.Application).
	fwds []server.Forward

	mu     sync.Mutex
	states map[entity.ID]*userState
	events map[entity.ID][]byte
}

// New returns a Game with the given tuning.
func New(cfg Config) *Game {
	if cfg.WorldMax <= cfg.WorldMin {
		cfg = DefaultConfig()
	}
	return &Game{
		cfg:    cfg,
		reach:  math.Hypot(cfg.AttackRange/2, cfg.AttackWidth) + 1e-6,
		hit:    Commands.EncodeToBytes(&Damage{Amount: cfg.AttackDamage}),
		bite:   Commands.EncodeToBytes(&Damage{Amount: cfg.NPCDamage}),
		states: make(map[entity.ID]*userState),
		events: make(map[entity.ID][]byte),
	}
}

// Compile-time check: Game implements the RTF application interface.
var _ server.Application = (*Game)(nil)

// SpawnAvatar implements server.Application.
func (g *Game) SpawnAvatar(env *server.Env, id entity.ID, pos entity.Vec2, zoneID uint32) *entity.Entity {
	g.mu.Lock()
	g.states[id] = &userState{Ammo: 100}
	g.mu.Unlock()
	return &entity.Entity{
		ID: id, Kind: entity.Avatar,
		Pos:    pos.Clamp(g.cfg.WorldMin, g.cfg.WorldMax),
		Health: g.cfg.SpawnHealth, Zone: zoneID,
	}
}

// ApplyInput implements server.Application: move and attack commands.
func (g *Game) ApplyInput(env *server.Env, actor *entity.Entity, payload []byte) ([]server.Forward, error) {
	msg, err := Commands.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("game: bad input: %w", err)
	}
	switch cmd := msg.(type) {
	case *Move:
		return nil, g.applyMove(actor, cmd)
	case *Attack:
		return g.applyAttack(env, actor, cmd), nil
	default:
		return nil, errors.New("game: command not valid as user input")
	}
}

func (g *Game) applyMove(actor *entity.Entity, mv *Move) error {
	clampStep := func(d float64) float64 {
		if d > g.cfg.MoveSpeed {
			return g.cfg.MoveSpeed
		}
		if d < -g.cfg.MoveSpeed {
			return -g.cfg.MoveSpeed
		}
		return d
	}
	actor.Pos = actor.Pos.Add(entity.Vec2{X: clampStep(mv.DX), Y: clampStep(mv.DY)}).
		Clamp(g.cfg.WorldMin, g.cfg.WorldMax)
	return nil
}

// applyAttack performs the hit scan over the entities around the beam. Like
// the paper's it makes no difference between active and shadow avatars
// ("users cannot differentiate between active and shadow entities, both are
// attacked with equal frequency"), and it reports the victims in ascending
// ID order.
func (g *Game) applyAttack(env *server.Env, actor *entity.Entity, atk *Attack) []server.Forward {
	fwds := g.fwds[:0]
	if dirLen := (entity.Vec2{X: atk.DirX, Y: atk.DirY}).Dist(entity.Vec2{}); dirLen > 0 {
		nx, ny := atk.DirX/dirLen, atk.DirY/dirLen
		mid := actor.Pos.Add(entity.Vec2{X: nx, Y: ny}.Scale(g.cfg.AttackRange / 2))
		for _, cand := range env.Near(mid, g.reach) {
			if cand.ID == actor.ID || cand.Kind != entity.Avatar {
				continue
			}
			rel := cand.Pos.Sub(actor.Pos)
			along := rel.X*nx + rel.Y*ny
			if along < 0 || along > g.cfg.AttackRange {
				continue
			}
			if across := math.Abs(rel.X*ny - rel.Y*nx); across > g.cfg.AttackWidth {
				continue
			}
			fwds = append(fwds, server.Forward{Target: cand.ID, Payload: g.hit})
		}
	}
	g.fwds = fwds

	g.mu.Lock()
	if st := g.states[actor.ID]; st != nil {
		if st.Ammo <= 0 {
			st.Ammo = 100 // auto-reload keeps bots firing
		}
		st.Ammo--
		st.Kills += uint32(len(fwds)) // simplistic: every hit scores
	}
	g.mu.Unlock()
	return fwds
}

// ApplyForwarded implements server.Application: damage delivery.
func (g *Game) ApplyForwarded(env *server.Env, actor entity.ID, target *entity.Entity, payload []byte) error {
	msg, err := Commands.Decode(payload)
	if err != nil {
		return fmt.Errorf("game: bad forwarded input: %w", err)
	}
	dmg, ok := msg.(*Damage)
	if !ok {
		return errors.New("game: command not valid as forwarded input")
	}
	target.Health -= dmg.Amount
	g.queueEvent(target.ID, fmt.Sprintf("hit by %d for %d", actor, dmg.Amount))
	if target.Health <= 0 {
		// Respawn: reset health, relocate deterministically.
		target.Health = g.cfg.SpawnHealth
		span := g.cfg.WorldMax - g.cfg.WorldMin
		target.Pos = entity.Vec2{
			X: g.cfg.WorldMin + env.Rand.Float64()*span,
			Y: g.cfg.WorldMin + env.Rand.Float64()*span,
		}
		g.mu.Lock()
		if st := g.states[target.ID]; st != nil {
			st.Deaths++
		}
		g.mu.Unlock()
		g.queueEvent(target.ID, "respawned")
	}
	return nil
}

// UpdateNPC implements server.Application: NPCs wander deterministically
// and attack the nearest avatar within their aggro range, the later ID on a
// tie. The target scan covers the entities near the NPC, so NPC update time
// grows with the density of users around it — the t_npc(n, m) dependence
// the model carries.
func (g *Game) UpdateNPC(env *server.Env, npc *entity.Entity) []server.Forward {
	npc.Pos = npc.Pos.Add(entity.Vec2{
		X: (env.Rand.Float64()*2 - 1) * g.cfg.NPCSpeed,
		Y: (env.Rand.Float64()*2 - 1) * g.cfg.NPCSpeed,
	}).Clamp(g.cfg.WorldMin, g.cfg.WorldMax)

	if g.cfg.NPCAggroRange <= 0 || env.Rand.Float64() >= g.cfg.NPCAttackProb {
		return nil
	}
	var victim *entity.Entity
	best := g.cfg.NPCAggroRange * g.cfg.NPCAggroRange
	for _, cand := range env.Near(npc.Pos, g.cfg.NPCAggroRange) {
		if cand.Kind != entity.Avatar {
			continue
		}
		if d2 := npc.Pos.Dist2(cand.Pos); d2 <= best {
			victim, best = cand, d2
		}
	}
	if victim == nil {
		return nil
	}
	g.fwds = append(g.fwds[:0], server.Forward{Target: victim.ID, Payload: g.bite})
	return g.fwds
}

func (g *Game) queueEvent(id entity.ID, ev string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	buf := g.events[id]
	if len(buf) > 0 {
		buf = append(buf, ';')
	}
	g.events[id] = append(buf, ev...)
}

// DrainEvents implements server.Application.
func (g *Game) DrainEvents(env *server.Env, avatar entity.ID) []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	ev := g.events[avatar]
	if ev != nil {
		delete(g.events, avatar)
	}
	return ev
}

// EncodeUserState implements server.Application: the migration payload.
func (g *Game) EncodeUserState(env *server.Env, avatar entity.ID) []byte {
	g.mu.Lock()
	st := g.states[avatar]
	if st == nil {
		st = &userState{}
	}
	cp := *st
	delete(g.states, avatar) // responsibility leaves this server
	g.mu.Unlock()

	w := wire.NewWriter(16)
	w.Uint32(cp.Kills)
	w.Uint32(cp.Deaths)
	w.Varint(int64(cp.Ammo))
	return append([]byte(nil), w.Bytes()...)
}

// ApplyUserState implements server.Application.
func (g *Game) ApplyUserState(env *server.Env, avatar entity.ID, data []byte) {
	r := wire.NewReader(data)
	st := &userState{
		Kills:  r.Uint32(),
		Deaths: r.Uint32(),
		Ammo:   int32(r.Varint()),
	}
	if r.Err() != nil {
		st = &userState{Ammo: 100}
	}
	g.mu.Lock()
	g.states[avatar] = st
	g.mu.Unlock()
}

// Score reports an avatar's (kills, deaths) for tests and examples.
func (g *Game) Score(avatar entity.ID) (kills, deaths uint32, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.states[avatar]
	if !ok {
		return 0, 0, false
	}
	return st.Kills, st.Deaths, true
}
