package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTripAllTypes(t *testing.T) {
	w := NewWriter(0)
	w.Uint8(200)
	w.Bool(true)
	w.Bool(false)
	w.Uint16(65535)
	w.Uint32(1 << 30)
	w.Uint64(1 << 62)
	w.Varint(-123456789)
	w.Uvarint(987654321)
	w.Float64(3.14159)
	w.Float32(2.5)
	w.String("héllo wörld")
	w.Blob([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 200 {
		t.Fatalf("Uint8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.Uint16(); got != 65535 {
		t.Fatalf("Uint16 = %d", got)
	}
	if got := r.Uint32(); got != 1<<30 {
		t.Fatalf("Uint32 = %d", got)
	}
	if got := r.Uint64(); got != 1<<62 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Varint(); got != -123456789 {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.Uvarint(); got != 987654321 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Float64(); got != 3.14159 {
		t.Fatalf("Float64 = %g", got)
	}
	if got := r.Float32(); got != 2.5 {
		t.Fatalf("Float32 = %g", got)
	}
	if got := r.String(); got != "héllo wörld" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Blob = %v", got)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.Uint32() // fails: only 1 byte
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", r.Err())
	}
	// Subsequent reads return zero values and keep the first error.
	if got := r.Uint8(); got != 0 {
		t.Fatalf("read after error = %d, want 0", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("string after error = %q, want empty", got)
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatal("sticky error lost")
	}
}

func TestReaderRejectsOversizedDeclaredLength(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1 << 40) // declared length far beyond payload
	r := NewReader(w.Bytes())
	if got := r.String(); got != "" || !errors.Is(r.Err(), ErrStringTooLong) {
		t.Fatalf("got %q err=%v, want ErrStringTooLong", got, r.Err())
	}
	r2 := NewReader(w.Bytes())
	if got := r2.Blob(); got != nil || !errors.Is(r2.Err(), ErrStringTooLong) {
		t.Fatalf("blob got %v err=%v, want ErrStringTooLong", got, r2.Err())
	}
}

// TestStringOrKeepsEqualString pins what decoding into a reused value
// relies on: the string the caller already holds comes back without a
// copy, any other is read as String reads it.
func TestStringOrKeepsEqualString(t *testing.T) {
	w := NewWriter(16)
	w.String("server-1")
	held := "server-1"
	if n := testing.AllocsPerRun(100, func() {
		if got := NewReader(w.Bytes()).StringOr(held); got != held {
			t.Fatalf("StringOr = %q, want %q", got, held)
		}
	}); n != 0 {
		t.Fatalf("StringOr of an equal string allocates %v times, want 0", n)
	}
	if got := NewReader(w.Bytes()).StringOr("server-2"); got != "server-1" {
		t.Fatalf("StringOr of a different string = %q, want the wire's", got)
	}
	r := NewReader([]byte{0x7f, 'a'})
	if got := r.StringOr("a"); got != "" || !errors.Is(r.Err(), ErrStringTooLong) {
		t.Fatalf("got %q err=%v, want ErrStringTooLong", got, r.Err())
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.Uint64(42)
	if w.Len() != 8 {
		t.Fatalf("len = %d, want 8", w.Len())
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("len after reset = %d, want 0", w.Len())
	}
}

func TestRoundTripProperties(t *testing.T) {
	intProp := func(v int64) bool {
		w := NewWriter(0)
		w.Varint(v)
		return NewReader(w.Bytes()).Varint() == v
	}
	if err := quick.Check(intProp, nil); err != nil {
		t.Fatalf("varint: %v", err)
	}
	uintProp := func(v uint64) bool {
		w := NewWriter(0)
		w.Uvarint(v)
		return NewReader(w.Bytes()).Uvarint() == v
	}
	if err := quick.Check(uintProp, nil); err != nil {
		t.Fatalf("uvarint: %v", err)
	}
	floatProp := func(v float64) bool {
		w := NewWriter(0)
		w.Float64(v)
		got := NewReader(w.Bytes()).Float64()
		return got == v || (math.IsNaN(got) && math.IsNaN(v))
	}
	if err := quick.Check(floatProp, nil); err != nil {
		t.Fatalf("float64: %v", err)
	}
	strProp := func(s string) bool {
		w := NewWriter(0)
		w.String(s)
		return NewReader(w.Bytes()).String() == s
	}
	if err := quick.Check(strProp, nil); err != nil {
		t.Fatalf("string: %v", err)
	}
	blobProp := func(b []byte) bool {
		w := NewWriter(0)
		w.Blob(b)
		return bytes.Equal(NewReader(w.Bytes()).Blob(), b)
	}
	if err := quick.Check(blobProp, nil); err != nil {
		t.Fatalf("blob: %v", err)
	}
}

// testMsg is a minimal registered message for registry tests.
type testMsg struct {
	A uint32
	B string
}

func (*testMsg) WireKind() Kind { return 7 }
func (m *testMsg) MarshalWire(w *Writer) {
	w.Uint32(m.A)
	w.String(m.B)
}
func (m *testMsg) UnmarshalWire(r *Reader) error {
	m.A = r.Uint32()
	m.B = r.String()
	return r.Err()
}

type otherMsg struct{ V uint8 }

func (*otherMsg) WireKind() Kind          { return 9 }
func (m *otherMsg) MarshalWire(w *Writer) { w.Uint8(m.V) }
func (m *otherMsg) UnmarshalWire(r *Reader) error {
	m.V = r.Uint8()
	return r.Err()
}

func TestRegistryEncodeDecode(t *testing.T) {
	reg := NewRegistry(
		func() Message { return &testMsg{} },
		func() Message { return &otherMsg{} },
	)
	payload := reg.EncodeToBytes(&testMsg{A: 99, B: "zone-1"})
	msg, err := reg.Decode(payload)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got, ok := msg.(*testMsg)
	if !ok {
		t.Fatalf("decoded %T, want *testMsg", msg)
	}
	if got.A != 99 || got.B != "zone-1" {
		t.Fatalf("decoded %+v", got)
	}
}

func TestRegistryUnknownKind(t *testing.T) {
	reg := NewRegistry(func() Message { return &testMsg{} })
	w := NewWriter(4)
	w.Uint16(12345)
	if _, err := reg.Decode(w.Bytes()); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

func TestRegistryTruncatedPayload(t *testing.T) {
	reg := NewRegistry(func() Message { return &testMsg{} })
	payload := reg.EncodeToBytes(&testMsg{A: 1, B: "abc"})
	if _, err := reg.Decode(payload[:3]); err == nil {
		t.Fatal("truncated payload decoded")
	}
	if _, err := reg.Decode(nil); err == nil {
		t.Fatal("empty payload decoded")
	}
}

func TestRegistryDuplicateKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate kind")
		}
	}()
	NewRegistry(
		func() Message { return &testMsg{} },
		func() Message { return &testMsg{} },
	)
}

func TestEncodeReusesWriter(t *testing.T) {
	reg := NewRegistry(func() Message { return &testMsg{} })
	w := NewWriter(16)
	p1 := append([]byte(nil), reg.Encode(w, &testMsg{A: 1, B: "x"})...)
	p2 := append([]byte(nil), reg.Encode(w, &testMsg{A: 2, B: "y"})...)
	m1, err1 := reg.Decode(p1)
	m2, err2 := reg.Decode(p2)
	if err1 != nil || err2 != nil {
		t.Fatalf("decode errors: %v %v", err1, err2)
	}
	if m1.(*testMsg).A != 1 || m2.(*testMsg).A != 2 {
		t.Fatal("writer reuse corrupted payloads")
	}
}
