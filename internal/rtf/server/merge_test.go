package server

import (
	"slices"
	"testing"

	"roia/internal/rtf/entity"
)

// TestMergeVisible pins the publish stage's one walk on hand-written sets:
// what left, what entered, what stayed and changed, and the set carried to
// the next tick, for delta and keyframe alike. Entities 1–8 sit at snapshot
// positions 0–7; the even ones moved since the previous snapshot.
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
			ctx := &workerCtx{}
			for _, id := range c.cur {
				ctx.vis = append(ctx.vis, int32(id-1))
			}
			entered := ctx.mergeVisible(snap, c.prev, full)

			var ents, updates []entity.ID
			for _, e := range ctx.ents {
				ents = append(ents, e.ID)
			}
			for _, u := range ctx.updates {
				if u.Mask != entity.FieldPos || u.State.ID != u.ID {
					t.Errorf("%s full=%v: update %+v, want entity %d with the position mask", c.name, full, u, u.ID)
				}
				updates = append(updates, u.ID)
			}
			wantEnts, wantUpdates := c.enters, c.stayedChanged
			if full {
				wantEnts, wantUpdates = c.cur, nil
			}
			if entered != len(c.enters) || !slices.Equal(ctx.gone, c.gone) ||
				!slices.Equal(ents, wantEnts) || !slices.Equal(updates, wantUpdates) ||
				!slices.Equal(ctx.ids, c.cur) {
				t.Errorf("%s full=%v: entered=%d gone=%v ents=%v updates=%v ids=%v, want %d %v %v %v %v",
					c.name, full, entered, ctx.gone, ents, updates, ctx.ids,
					len(c.enters), c.gone, wantEnts, wantUpdates, c.cur)
			}
		}
	}
}
