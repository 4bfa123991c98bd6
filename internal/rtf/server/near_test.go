package server_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
)

// TestNearEdges holds the game's hit scans, which read the server's spatial
// index through Env.Near, to a bare Env that scans the store, where the
// geometry is tight (the cell edge is 50, so (100, 100) is a cell corner).
// The session harness runs the same comparison over a whole shooter
// session (TestNearIndexedMatchesScan).
func TestNearEdges(t *testing.T) {
	at := func(x, y float64) entity.Vec2 { return entity.Vec2{X: x, Y: y} }
	still := game.DefaultConfig() // range 60, width 8, aggro 40
	still.MoveSpeed = 80
	still.NPCSpeed = 0
	still.NPCAttackProb = 1
	d := 30 / math.Sqrt2

	for _, tc := range []struct {
		name string
		// Entity 1 is the actor — an NPC when npc is set — standing at
		// actor; entities 2, 3, … are avatars standing at others.
		actor  entity.Vec2
		npc    bool
		others []entity.Vec2
		// move, when not zero, is applied to entity 2 as its own input
		// before the actor acts, in the same tick.
		move entity.Vec2
		// dir is the attack direction (avatars only).
		dir  entity.Vec2
		want []entity.ID
	}{
		{name: "at exactly AttackRange", actor: at(100, 100), dir: at(1, 0),
			others: []entity.Vec2{at(160, 100), at(160.000001, 100)}, want: []entity.ID{2}},
		{name: "across == AttackWidth", actor: at(100, 100), dir: at(1, 0),
			others: []entity.Vec2{at(130, 108), at(130, 92), at(130, 108.000001)}, want: []entity.ID{2, 3}},
		{name: "far corners of the beam", actor: at(100, 100), dir: at(0, 1),
			others: []entity.Vec2{at(108, 160), at(92, 160), at(100, 100)}, want: []entity.ID{2, 3, 4}},
		{name: "cell corner, four diagonals", actor: at(100, 100), dir: at(-1, -1),
			others: []entity.Vec2{at(100-d, 100-d), at(100+d, 100+d), at(100-d, 100+d), at(100+d, 100-d)}, want: []entity.ID{2}},
		{name: "beam across three cell columns", actor: at(99, 100), dir: at(1, 0),
			others: []entity.Vec2{at(101, 100), at(149, 100), at(151, 100), at(159, 100)}, want: []entity.ID{2, 3, 4, 5}},
		{name: "target moved into reach across cells", actor: at(100, 100), dir: at(1, 0),
			others: []entity.Vec2{at(225, 100)}, move: at(-70, 0), want: []entity.ID{2}},
		{name: "target moved out of reach across cells", actor: at(100, 100), dir: at(1, 0),
			others: []entity.Vec2{at(155, 100)}, move: at(70, 0), want: nil},
		{name: "aggro tie goes to the later ID", actor: at(100, 100), npc: true,
			others: []entity.Vec2{at(120, 100), at(80, 100), at(100, 121)}, want: []entity.ID{3}},
		{name: "aggro at exactly NPCAggroRange", actor: at(100, 100), npc: true,
			others: []entity.Vec2{at(140.000001, 100), at(100, 60)}, want: []entity.ID{3}},
		{name: "aggro across a cell corner", actor: at(101, 101), npc: true,
			others: []entity.Vec2{at(75, 75), at(140, 140)}, want: []entity.ID{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2][]entity.ID
			for k, indexed := range []bool{false, true} {
				g := game.New(still)
				store := entity.NewStore()
				env := &server.Env{ServerID: "s1", Store: store, Rand: rand.New(rand.NewSource(1))}
				if indexed {
					env = server.NewIndexedEnv("s1", store, rand.New(rand.NewSource(1)))
				}
				actor := &entity.Entity{ID: 1, Kind: entity.Avatar, Pos: tc.actor, Owner: "s1"}
				if tc.npc {
					actor.Kind = entity.NPC
				}
				store.Put(actor)
				for i, pos := range tc.others {
					store.Put(&entity.Entity{ID: entity.ID(i + 2), Kind: entity.Avatar, Pos: pos, Owner: "s1"})
				}
				env.BeginSimulate()
				if tc.move != (entity.Vec2{}) {
					target, _ := store.Get(2)
					was := target.Pos
					mv := game.Commands.EncodeToBytes(&game.Move{DX: tc.move.X, DY: tc.move.Y})
					if _, err := g.ApplyInput(env, target, mv); err != nil {
						t.Fatal(err)
					}
					env.Moved(target, was)
				}
				var fwds []server.Forward
				if tc.npc {
					fwds = g.UpdateNPC(env, actor)
				} else {
					atk := game.Commands.EncodeToBytes(&game.Attack{DirX: tc.dir.X, DirY: tc.dir.Y})
					var err error
					if fwds, err = g.ApplyInput(env, actor, atk); err != nil {
						t.Fatal(err)
					}
				}
				for _, fw := range fwds {
					got[k] = append(got[k], fw.Target)
				}
			}
			if !slices.Equal(got[0], tc.want) || !slices.Equal(got[1], tc.want) {
				t.Fatalf("targets: bare %v, indexed %v, want %v", got[0], got[1], tc.want)
			}
		})
	}
}
