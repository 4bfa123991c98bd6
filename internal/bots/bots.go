// Package bots implements the computer-controlled load generators the
// paper uses for its experiments ("in order to simulate an average
// workload, we use randomly interacting, computer-controlled bots").
//
// A Bot drives one RTF client with a configurable interactivity profile:
// per-tick probabilities of issuing move and attack commands. Attack
// directions aim at entities visible in the bot's last state update, so —
// as the paper observes — higher user densities produce more actual
// interactions and therefore more forwarded inputs between replicas.
package bots

import (
	"math"
	"math/rand"

	"roia/internal/game"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
)

// Profile is a bot's interactivity level.
type Profile struct {
	// MoveProb is the per-step probability of a move command. The paper:
	// "users typically send move commands regardless of the overall user
	// number", so this is high by default.
	MoveProb float64
	// AttackProb is the per-step probability of an attack command.
	AttackProb float64
	// Speed scales move displacements.
	Speed float64
}

// DefaultProfile matches the "randomly interacting" average workload of
// Section V-A.
func DefaultProfile() Profile {
	return Profile{MoveProb: 0.9, AttackProb: 0.4, Speed: 5}
}

// PassiveProfile is a low-interactivity user (moves, rarely attacks).
func PassiveProfile() Profile {
	return Profile{MoveProb: 0.6, AttackProb: 0.05, Speed: 3}
}

// AggressiveProfile is a high-interactivity user.
func AggressiveProfile() Profile {
	return Profile{MoveProb: 0.95, AttackProb: 0.8, Speed: 5}
}

// Bot drives one client.
type Bot struct {
	c       *client.Client
	rng     *rand.Rand
	profile Profile
	sent    int
}

// New wraps a client into a bot with the given profile and seed.
func New(c *client.Client, profile Profile, seed int64) *Bot {
	return &Bot{c: c, rng: rand.New(rand.NewSource(seed)), profile: profile}
}

// Client returns the underlying client.
func (b *Bot) Client() *client.Client { return b.c }

// InputsSent reports how many commands the bot has issued.
func (b *Bot) InputsSent() int { return b.sent }

// Step polls the client and, once joined, issues this step's commands.
// Call it once per client-side tick.
func (b *Bot) Step() {
	b.c.Poll()
	if !b.c.Joined() {
		return
	}
	if b.rng.Float64() < b.profile.MoveProb {
		mv := &game.Move{
			DX: (b.rng.Float64()*2 - 1) * b.profile.Speed,
			DY: (b.rng.Float64()*2 - 1) * b.profile.Speed,
		}
		if b.c.SendInput(game.Commands.EncodeToBytes(mv)) == nil {
			b.sent++
		}
	}
	if b.rng.Float64() < b.profile.AttackProb {
		atk := b.aim()
		if b.c.SendInput(game.Commands.EncodeToBytes(atk)) == nil {
			b.sent++
		}
	}
}

// aim picks an attack direction: toward a random nearby entity when one
// is known (real interaction), otherwise a random direction.
func (b *Bot) aim() *game.Attack {
	if upd := b.c.LastUpdate(); upd != nil && len(upd.Visible) > 0 {
		target := upd.Visible[b.rng.Intn(len(upd.Visible))]
		d := target.Pos.Sub(upd.Self.Pos)
		if d != (entity.Vec2{}) {
			return &game.Attack{DirX: d.X, DirY: d.Y}
		}
	}
	ang := b.rng.Float64() * 2 * math.Pi
	return &game.Attack{DirX: math.Cos(ang), DirY: math.Sin(ang)}
}
