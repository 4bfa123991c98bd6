package proto

import (
	"bytes"
	"testing"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/wire"
)

// FuzzRegistryDecode throws arbitrary bytes at the protocol decoder: it
// must never panic or allocate absurdly, only return messages or errors.
// The seed corpus covers every message kind, so `go test` alone exercises
// the interesting shapes; `go test -fuzz=FuzzRegistryDecode` explores
// further.
func FuzzRegistryDecode(f *testing.F) {
	seeds := [][]byte{
		{},
		{0x00},
		{0xFF, 0xFF},
		Registry.EncodeToBytes(&Join{UserName: "u", Zone: 1, Pos: entity.Vec2{X: 1, Y: 2}}),
		Registry.EncodeToBytes(&JoinAck{Entity: 9, Tick: 3}),
		Registry.EncodeToBytes(&Leave{}),
		Registry.EncodeToBytes(&Input{Seq: 1, Payload: []byte{1, 2, 3}}),
		Registry.EncodeToBytes(&StateKeyframe{
			Tick: 1, Self: entity.Entity{ID: 1, Owner: "s"},
			Visible: []entity.Entity{{ID: 2}}, Events: []byte("e"),
		}),
		Registry.EncodeToBytes(sampleDelta()),
		Registry.EncodeToBytes(&ShadowUpdate{Tick: 2, Entities: []entity.Entity{{ID: 3}}, Removed: []entity.ID{4}}),
		Registry.EncodeToBytes(&Forwarded{Actor: 1, Target: 2, Payload: []byte{7}}),
		Registry.EncodeToBytes(&MigrateInit{User: "u", Avatar: entity.Entity{ID: 5}, AppState: []byte{1}}),
		Registry.EncodeToBytes(&MigrateAck{User: "u", Avatar: 5}),
		Registry.EncodeToBytes(&MigrateNotice{NewServer: "s2"}),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Registry.Decode(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode without panicking, and the
		// re-encoded form must decode to the same kind (no aliasing of
		// the input buffer).
		out := Registry.EncodeToBytes(msg)
		again, err := Registry.Decode(out)
		if err != nil {
			t.Fatalf("re-decode of re-encoded %T failed: %v", msg, err)
		}
		if again.WireKind() != msg.WireKind() {
			t.Fatalf("kind changed across round trip: %d → %d", msg.WireKind(), again.WireKind())
		}
	})
}

// FuzzProtoUnmarshal targets the truncation paths of the decoder: the seed
// corpus is every message kind cut off mid-field, which is exactly what a
// short TCP read or a dropped UDP fragment hands the unmarshaller. Any
// successful decode must re-encode deterministically and survive a full
// round trip; a decode of a truncated re-encoding must fail or succeed
// cleanly, never panic.
func FuzzProtoUnmarshal(f *testing.F) {
	full := [][]byte{
		Registry.EncodeToBytes(&Join{UserName: "user-name", Zone: 7, Pos: entity.Vec2{X: -3.5, Y: 44}}),
		Registry.EncodeToBytes(&Input{Seq: 900, Payload: []byte{9, 8, 7, 6, 5}}),
		Registry.EncodeToBytes(&StateKeyframe{
			Tick: 42, Self: entity.Entity{ID: 11, Owner: "srv"},
			Visible: []entity.Entity{{ID: 12}, {ID: 13}}, Events: []byte("evts"),
		}),
		Registry.EncodeToBytes(sampleDelta()),
		Registry.EncodeToBytes(&ShadowUpdate{Tick: 5, Entities: []entity.Entity{{ID: 3}}, Removed: []entity.ID{4, 5}}),
		Registry.EncodeToBytes(&Forwarded{Actor: 1, Target: 2, Payload: []byte("fw")}),
		Registry.EncodeToBytes(&MigrateInit{User: "mover", Avatar: entity.Entity{ID: 6}, AppState: []byte{0xAA, 0xBB}}),
	}
	for _, enc := range full {
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		if len(enc) > 1 {
			f.Add(enc[:len(enc)-1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Registry.Decode(data)
		if err != nil {
			return
		}
		once := Registry.EncodeToBytes(msg)
		twice := Registry.EncodeToBytes(msg)
		if !bytes.Equal(once, twice) {
			t.Fatalf("non-deterministic encoding of %T", msg)
		}
		again, err := Registry.Decode(once)
		if err != nil {
			t.Fatalf("re-decode of re-encoded %T failed: %v", msg, err)
		}
		if !bytes.Equal(Registry.EncodeToBytes(again), once) {
			t.Fatalf("%T not stable across encode/decode/encode", msg)
		}
		// Chopping the tail off a valid encoding must degrade to an error
		// (or a shorter valid message), never a panic or corrupted state.
		if len(once) > 0 {
			_, _ = Registry.Decode(once[:len(once)-1])
		}
	})
}

// FuzzReaderPrimitives stresses the sticky-error reader with arbitrary
// buffers and read sequences.
func FuzzReaderPrimitives(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, ops uint8) {
		r := wire.NewReader(data)
		for i := uint8(0); i < ops%16; i++ {
			switch i % 7 {
			case 0:
				r.Uint8()
			case 1:
				r.Uint32()
			case 2:
				r.Varint()
			case 3:
				_ = r.String()
			case 4:
				r.Blob()
			case 5:
				r.Float64()
			case 6:
				r.Uvarint()
			}
		}
		if r.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
	})
}
