package proto

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/wire"
)

// spliceWorld is a two-capture store whose second snapshot carries every
// kind of change mask: entities that stayed put (mask 0), moved, were hit,
// changed Owner or Zone, and entities that appeared since the first capture
// (FieldAll). IDs are spread with gaps up to 2^40, so the gap varints
// of Updates and Gone run from one byte to six.
func spliceWorld(rng *rand.Rand, n int) *entity.Snapshot {
	store := entity.NewStore()
	owners := []string{"s1", "s2", "replica-with-a-long-name"}
	id := entity.ID(0)
	for i := 0; i < n; i++ {
		id += entity.ID(1 + rng.Int63n(int64(1)<<uint(rng.Intn(41))))
		store.Put(&entity.Entity{
			ID:     id,
			Kind:   entity.Kind(rng.Intn(2)),
			Pos:    entity.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Health: int32(rng.Intn(200) - 50),
			Zone:   uint32(rng.Intn(4)),
			Owner:  owners[rng.Intn(len(owners))],
			Seq:    uint64(rng.Intn(1 << 20)),
		})
	}
	store.Snapshot()
	for _, e := range store.All() {
		switch rng.Intn(6) {
		case 1:
			e.Pos.X += rng.Float64()
			e.Seq++
		case 2:
			e.Health -= int32(rng.Intn(30))
			e.Seq++
		case 3:
			e.Owner = owners[(slices.Index(owners, e.Owner)+1)%len(owners)]
			e.Zone++
			e.Seq++
		case 4:
			e.Kind ^= 1
			e.Pos.Y = -e.Pos.Y
		}
	}
	for i := 0; i < n/8; i++ {
		id += entity.ID(1 + rng.Intn(1000))
		store.Put(&entity.Entity{ID: id, Pos: entity.Vec2{X: rng.Float64()}, Owner: owners[0], Seq: 1})
	}
	return store.Snapshot()
}

// pick returns an ascending random subset of [0, n), each position kept
// with probability keep.
func pick(rng *rand.Rand, n int, keep float64) []int32 {
	var ps []int32
	for p := 0; p < n; p++ {
		if rng.Float64() < keep {
			ps = append(ps, int32(p))
		}
	}
	return ps
}

// TestSpliceMatchesReferenceEncoder is the differential test of the publish
// stage's encoder: on seeded worlds, AppendStateDelta and
// AppendStateKeyframe write exactly the bytes Registry.Encode writes for
// the StateDelta / StateKeyframe their arguments describe — every change
// mask, empty and non-empty columns, wide ID gaps, with and without events.
func TestSpliceMatchesReferenceEncoder(t *testing.T) {
	ref := wire.NewWriter(1 << 12)
	var got wire.Writer
	var bodies DeltaBodies
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := spliceWorld(rng, 1+rng.Intn(120))
		bodies.Reset()
		var masks [64]int // by mask value, so the test can say it covered them
		for p := range snap.Len() {
			e, mask := snap.At(int32(p))
			bodies.Append(e, mask)
			masks[mask]++
		}
		if seed == 1 && (masks[0] == 0 || masks[entity.FieldAll] == 0 ||
			masks[entity.FieldOwner|entity.FieldZone|entity.FieldSeq] == 0) {
			t.Fatalf("seed 1 world lacks a mask class: %v", masks)
		}

		for c := 0; c < 8; c++ {
			// Case 0 empties every column; the others keep each with odds
			// that vary by case, empty included.
			keep := func() float64 { return []float64{0, 0.1, 0.5, 1}[rng.Intn(4)] }
			var upd, ent []int32
			var gone []entity.ID
			var events []byte
			if c > 0 {
				upd, ent = pick(rng, snap.Len(), keep()), pick(rng, snap.Len(), keep())
				for _, p := range pick(rng, snap.Len(), keep()) {
					e, _ := snap.At(p)
					gone = append(gone, e.ID)
				}
				if rng.Intn(2) == 0 {
					events = make([]byte, rng.Intn(300))
					rng.Read(events)
				}
			}
			self := int32(rng.Intn(snap.Len()))
			if c == 1 {
				// A mask-0 avatar, when the world has one.
				for p := range snap.Len() {
					if _, mask := snap.At(int32(p)); mask == 0 {
						self = int32(p)
						break
					}
				}
			}
			selfEnt, selfMask := snap.At(self)
			tick := uint64(rng.Int63n(1 << 40))
			d := &StateDelta{
				Tick: tick, BaseTick: tick - uint64(1+rng.Intn(3)), AckSeq: uint64(rng.Int63()),
				SelfMask: selfMask, Self: *selfEnt, Gone: gone, Events: events,
			}
			for _, p := range upd {
				e, mask := snap.At(p)
				d.Updates = append(d.Updates, EntityDelta{ID: e.ID, Mask: mask, State: *e})
			}
			for _, p := range ent {
				e, _ := snap.At(p)
				d.Enters = append(d.Enters, *e)
			}
			got.Reset()
			AppendStateDelta(&got, snap, &bodies, d.Tick, d.BaseTick, d.AckSeq, self, upd, ent, gone, events)
			if want := Registry.Encode(ref, d); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("seed %d case %d: spliced StateDelta differs from the reference encoder\n got %x\nwant %x", seed, c, got.Bytes(), want)
			}

			k := &StateKeyframe{Tick: tick, AckSeq: d.AckSeq, Self: *selfEnt, Visible: d.Enters, Events: events}
			got.Reset()
			AppendStateKeyframe(&got, snap, k.Tick, k.AckSeq, selfEnt, ent, events)
			if want := Registry.Encode(ref, k); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("seed %d case %d: spliced StateKeyframe differs from the reference encoder\n got %x\nwant %x", seed, c, got.Bytes(), want)
			}
		}
	}
}
