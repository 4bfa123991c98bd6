package proto

import (
	"bytes"
	"testing"
	"testing/quick"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/wire"
)

func roundTrip(t *testing.T, msg wire.Message) wire.Message {
	t.Helper()
	payload := Registry.EncodeToBytes(msg)
	got, err := Registry.Decode(payload)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	if got.WireKind() != msg.WireKind() {
		t.Fatalf("kind changed: %d -> %d", msg.WireKind(), got.WireKind())
	}
	return got
}

func TestJoinRoundTrip(t *testing.T) {
	m := roundTrip(t, &Join{UserName: "bot-1", Zone: 3, Pos: entity.Vec2{X: 1, Y: 2}}).(*Join)
	if m.UserName != "bot-1" || m.Zone != 3 || m.Pos != (entity.Vec2{X: 1, Y: 2}) {
		t.Fatalf("join = %+v", m)
	}
}

func TestJoinAckLeaveRoundTrip(t *testing.T) {
	a := roundTrip(t, &JoinAck{Entity: 77, Tick: 12}).(*JoinAck)
	if a.Entity != 77 || a.Tick != 12 {
		t.Fatalf("ack = %+v", a)
	}
	roundTrip(t, &Leave{})
}

func TestInputRoundTrip(t *testing.T) {
	m := roundTrip(t, &Input{Seq: 5, Payload: []byte{9, 8, 7}}).(*Input)
	if m.Seq != 5 || !bytes.Equal(m.Payload, []byte{9, 8, 7}) {
		t.Fatalf("input = %+v", m)
	}
}

func TestStateKeyframeRoundTrip(t *testing.T) {
	in := &StateKeyframe{
		Tick:   100,
		AckSeq: 41,
		Self:   entity.Entity{ID: 1, Owner: "s1", Health: 95, Pos: entity.Vec2{X: 4, Y: 5}},
		Visible: []entity.Entity{
			{ID: 2, Owner: "s1", Seq: 3},
			{ID: 3, Owner: "s2", Kind: entity.NPC},
		},
		Events: []byte("hit:2"),
	}
	m := roundTrip(t, in).(*StateKeyframe)
	if m.Tick != 100 || m.AckSeq != 41 || m.Self != in.Self || len(m.Visible) != 2 {
		t.Fatalf("keyframe = %+v", m)
	}
	if m.Visible[0] != in.Visible[0] || m.Visible[1] != in.Visible[1] {
		t.Fatalf("visible = %+v", m.Visible)
	}
	if string(m.Events) != "hit:2" {
		t.Fatalf("events = %q", m.Events)
	}
	m = roundTrip(t, &StateKeyframe{Tick: 1, Self: entity.Entity{ID: 9}}).(*StateKeyframe)
	if len(m.Visible) != 0 || len(m.Events) != 0 {
		t.Fatalf("empty keyframe = %+v", m)
	}
}

// sampleDelta exercises every column of a StateDelta.
func sampleDelta() *StateDelta {
	return &StateDelta{
		Tick:     9,
		BaseTick: 8,
		AckSeq:   1234,
		SelfMask: entity.FieldPos | entity.FieldSeq,
		Self:     entity.Entity{Pos: entity.Vec2{X: 4, Y: 5}, Seq: 7},
		Updates: []EntityDelta{
			{ID: 2, Mask: entity.FieldHealth, State: entity.Entity{Health: 90}},
			{ID: 300, Mask: entity.FieldOwner | entity.FieldPos, State: entity.Entity{Owner: "s2", Pos: entity.Vec2{X: 1}}},
		},
		Enters: []entity.Entity{{ID: 5, Owner: "s1", Kind: entity.NPC, Seq: 2}},
		Gone:   []entity.ID{3, 1 << 33},
		Events: []byte("e"),
	}
}

func TestStateDeltaRoundTrip(t *testing.T) {
	in := sampleDelta()
	m := roundTrip(t, in).(*StateDelta)
	if m.Tick != in.Tick || m.BaseTick != in.BaseTick || m.AckSeq != in.AckSeq ||
		m.SelfMask != in.SelfMask || m.Self != in.Self || string(m.Events) != "e" {
		t.Fatalf("delta = %+v", m)
	}
	if len(m.Updates) != 2 || m.Updates[0] != in.Updates[0] || m.Updates[1] != in.Updates[1] {
		t.Fatalf("updates = %+v", m.Updates)
	}
	if len(m.Enters) != 1 || m.Enters[0] != in.Enters[0] {
		t.Fatalf("enters = %+v", m.Enters)
	}
	if len(m.Gone) != 2 || m.Gone[0] != in.Gone[0] || m.Gone[1] != in.Gone[1] {
		t.Fatalf("gone = %+v", m.Gone)
	}
}

// TestStateDecodeReusesShell pins what the client's allocation-free decode
// relies on: unmarshalling into a message that already holds large enough
// columns keeps their backing arrays and overwrites every listed element.
func TestStateDecodeReusesShell(t *testing.T) {
	big := sampleDelta()
	big.Gone = append(big.Gone, 1<<34)
	var shell StateDelta
	decode := func(m *StateDelta) {
		t.Helper()
		if err := shell.UnmarshalWire(wire.NewReader(Registry.EncodeToBytes(m)[2:])); err != nil {
			t.Fatal(err)
		}
	}
	decode(big)
	gone := &shell.Gone[0]
	small := sampleDelta()
	small.Updates = small.Updates[:1]
	decode(small)
	if &shell.Gone[0] != gone {
		t.Fatal("Gone column reallocated although its capacity sufficed")
	}
	if len(shell.Updates) != 1 || len(shell.Gone) != 2 || shell.Gone[1] != 1<<33 {
		t.Fatalf("shell after second decode = %+v", shell)
	}
}

func TestShadowUpdateRoundTrip(t *testing.T) {
	in := &ShadowUpdate{Tick: 7, Entities: []entity.Entity{{ID: 4, Seq: 9, Owner: "s2"}}}
	m := roundTrip(t, in).(*ShadowUpdate)
	if m.Tick != 7 || len(m.Entities) != 1 || m.Entities[0] != in.Entities[0] {
		t.Fatalf("shadow = %+v", m)
	}
}

func TestForwardedRoundTrip(t *testing.T) {
	m := roundTrip(t, &Forwarded{Actor: 10, Target: 20, Payload: []byte{1}}).(*Forwarded)
	if m.Actor != 10 || m.Target != 20 || len(m.Payload) != 1 {
		t.Fatalf("forwarded = %+v", m)
	}
}

func TestMigrationMessagesRoundTrip(t *testing.T) {
	mi := roundTrip(t, &MigrateInit{
		MigID:    0x0001000000000007,
		User:     "client-9",
		Avatar:   entity.Entity{ID: 33, Owner: "s1", Health: 50},
		AppState: []byte("ammo=7"),
	}).(*MigrateInit)
	if mi.User != "client-9" || mi.Avatar.ID != 33 || string(mi.AppState) != "ammo=7" {
		t.Fatalf("migrate init = %+v", mi)
	}
	if mi.MigID != 0x0001000000000007 {
		t.Fatalf("migration ID lost on the wire: %#x", mi.MigID)
	}
	ack := roundTrip(t, &MigrateAck{MigID: 0x0001000000000007, User: "client-9", Avatar: 33}).(*MigrateAck)
	if ack.User != "client-9" || ack.Avatar != 33 || ack.MigID != 0x0001000000000007 {
		t.Fatalf("migrate ack = %+v", ack)
	}
	n := roundTrip(t, &MigrateNotice{NewServer: "server-2"}).(*MigrateNotice)
	if n.NewServer != "server-2" {
		t.Fatalf("notice = %+v", n)
	}
}

func TestStateAckSeqRoundTripProperty(t *testing.T) {
	prop := func(tick, ackSeq uint64) bool {
		got, err := Registry.Decode(Registry.EncodeToBytes(&StateKeyframe{Tick: tick, AckSeq: ackSeq}))
		if err != nil {
			return false
		}
		kf := got.(*StateKeyframe)
		got, err = Registry.Decode(Registry.EncodeToBytes(&StateDelta{Tick: tick, BaseTick: tick - 1, AckSeq: ackSeq}))
		if err != nil {
			return false
		}
		d := got.(*StateDelta)
		return kf.Tick == tick && kf.AckSeq == ackSeq && d.Tick == tick && d.BaseTick == tick-1 && d.AckSeq == ackSeq
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStateTruncatedEveryPrefix decodes every strict prefix of an encoded
// StateDelta and StateKeyframe; all must fail cleanly, never misparse.
func TestStateTruncatedEveryPrefix(t *testing.T) {
	for _, msg := range []wire.Message{
		sampleDelta(),
		&StateKeyframe{
			Tick:    9,
			AckSeq:  1234,
			Self:    entity.Entity{ID: 1},
			Visible: []entity.Entity{{ID: 2}, {ID: 3}},
			Events:  []byte("e"),
		},
	} {
		payload := Registry.EncodeToBytes(msg)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := Registry.Decode(payload[:cut]); err == nil {
				t.Fatalf("%T: prefix of %d/%d bytes decoded without error", msg, cut, len(payload))
			}
		}
		if _, err := Registry.Decode(payload); err != nil {
			t.Fatalf("%T: full payload rejected: %v", msg, err)
		}
	}
}

// TestRetiredStateUpdateKindRejected pins the v6 retirement: kind 5 keeps
// its number but decodes as an unknown kind.
func TestRetiredStateUpdateKindRejected(t *testing.T) {
	if KindStateUpdate != 5 || KindShadowUpdate != 6 || KindStateKeyframe != 13 {
		t.Fatal("wire kind numbers moved")
	}
	w := wire.NewWriter(0)
	w.Uint16(uint16(KindStateUpdate))
	w.Uint64(1)
	if _, err := Registry.Decode(w.Bytes()); err == nil {
		t.Fatal("retired StateUpdate kind still decodes")
	}
}

func TestDecodeRejectsHostileEntityCount(t *testing.T) {
	// Hand-craft a ShadowUpdate declaring 2^40 entities.
	w := wire.NewWriter(0)
	w.Uint16(uint16(KindShadowUpdate))
	w.Uint64(1)        // tick
	w.Uvarint(1 << 40) // entity count
	if _, err := Registry.Decode(w.Bytes()); err == nil {
		t.Fatal("hostile entity count decoded (would allocate 2^40 entities)")
	}
}

func TestInputRoundTripProperty(t *testing.T) {
	prop := func(seq uint64, payload []byte) bool {
		got, err := Registry.Decode(Registry.EncodeToBytes(&Input{Seq: seq, Payload: payload}))
		if err != nil {
			return false
		}
		in := got.(*Input)
		return in.Seq == seq && bytes.Equal(in.Payload, payload)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
