package server

import (
	"slices"
	"testing"

	"roia/internal/rtf/entity"
)

// TestMergeVisible pins the publish stage's one walk on hand-written sets:
// what left, what entered (as snapshot positions), what stayed and changed
// (positions too), and the set carried to the next tick, for delta and
// keyframe alike. Entities 1–8 sit at snapshot positions 0–7; the even ones
// moved since the previous snapshot.
func TestMergeVisible(t *testing.T) {
	store := entity.NewStore()
	for id := entity.ID(1); id <= 8; id++ {
		store.Put(&entity.Entity{ID: id})
	}
	store.Snapshot()
	for _, e := range store.All() {
		if e.ID%2 == 0 {
			e.Pos.X++
		}
	}
	snap := store.Snapshot()

	ids := func(s ...entity.ID) []entity.ID { return s }
	positions := func(ids []entity.ID) []int32 {
		var ps []int32
		for _, id := range ids {
			ps = append(ps, int32(id-1))
		}
		return ps
	}
	for _, c := range []struct {
		name                        string
		prev, cur                   []entity.ID
		enters, gone, stayedChanged []entity.ID
	}{
		{name: "both empty"},
		{name: "prev empty", cur: ids(1, 2), enters: ids(1, 2)},
		{name: "cur empty", prev: ids(1, 2), gone: ids(1, 2)},
		{name: "interleaved", prev: ids(1, 2, 4), cur: ids(2, 3, 4), enters: ids(3), gone: ids(1), stayedChanged: ids(2, 4)},
		{name: "identical", prev: ids(5, 6), cur: ids(5, 6), stayedChanged: ids(6)},
		{name: "disjoint", prev: ids(1, 3, 5), cur: ids(2, 4, 6), enters: ids(2, 4, 6), gone: ids(1, 3, 5)},
		{name: "tails", prev: ids(4, 7, 8), cur: ids(1, 4), enters: ids(1), gone: ids(7, 8), stayedChanged: ids(4)},
	} {
		for _, full := range []bool{false, true} {
			ctx := &workerCtx{vis: positions(c.cur)}
			ctx.mergeVisible(snap, c.prev, full)

			for _, p := range ctx.updPos {
				if _, mask := snap.At(p); mask != entity.FieldPos {
					t.Errorf("%s full=%v: update at position %d has mask %v, want the position mask", c.name, full, p, mask)
				}
			}
			wantEnts, wantUpdates := positions(c.enters), positions(c.stayedChanged)
			if full {
				wantEnts, wantUpdates = positions(c.cur), nil
			}
			if !slices.Equal(ctx.gone, c.gone) ||
				!slices.Equal(ctx.entPos, wantEnts) || !slices.Equal(ctx.updPos, wantUpdates) ||
				!slices.Equal(ctx.ids, c.cur) {
				t.Errorf("%s full=%v: gone=%v entPos=%v updPos=%v ids=%v, want %v %v %v %v",
					c.name, full, ctx.gone, ctx.entPos, ctx.updPos, ctx.ids,
					c.gone, wantEnts, wantUpdates, c.cur)
			}
		}
	}
}
