// Package wire implements RTF's communication-handling substrate: a compact
// binary serialization format with explicit, allocation-conscious writers
// and readers, plus a message registry for self-describing payloads.
//
// The paper's RTF middleware performs automatic (de)serialization and
// (un)marshalling of user inputs, state updates and migration data; this
// package is the equivalent mechanism. Every network payload in this
// repository — client inputs, server state updates, forwarded interactions
// between replicas, and user-migration transfers — goes through wire.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Common errors reported by Reader.
var (
	// ErrShortBuffer indicates a read past the end of the payload.
	ErrShortBuffer = errors.New("wire: short buffer")
	// ErrStringTooLong indicates a declared string/byte length beyond the
	// remaining payload (corrupt or hostile input).
	ErrStringTooLong = errors.New("wire: declared length exceeds payload")
)

// Writer serializes values into a growing byte buffer. The zero value is
// ready to use. Writers are cheap to reset and intended to be reused per
// connection or per tick.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Reset truncates the buffer, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the serialized payload. The slice aliases the writer's
// internal buffer and is invalidated by the next write or Reset.
func (w *Writer) Bytes() []byte { return w.buf }

// Len reports the current payload size.
func (w *Writer) Len() int { return len(w.buf) }

// Uint8 appends one byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Uint16 appends a big-endian uint16.
func (w *Writer) Uint16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// Uint32 appends a big-endian uint32.
func (w *Writer) Uint32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// Uint64 appends a big-endian uint64.
func (w *Writer) Uint64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Varint appends a zig-zag varint-encoded int64.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Uvarint appends a varint-encoded uint64.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Float64 appends an IEEE-754 float64.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Float32 appends an IEEE-754 float32.
func (w *Writer) Float32(v float32) { w.Uint32(math.Float32bits(v)) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends b verbatim, with no length prefix: a splice of bytes some
// other writer already encoded.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader deserializes values from a byte slice. Errors are sticky: after
// the first failure every subsequent read returns the zero value, and Err
// reports the original failure. This keeps message UnmarshalWire methods
// free of per-field error plumbing.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a reader over payload. The payload is not copied.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err reports the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.buf) {
		r.fail(ErrShortBuffer)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool encoded as one byte.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Uint16 reads a big-endian uint16.
func (r *Reader) Uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Varint reads a zig-zag varint-encoded int64.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrShortBuffer)
		return 0
	}
	r.pos += n
	return v
}

// Uvarint reads a varint-encoded uint64.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrShortBuffer)
		return 0
	}
	r.pos += n
	return v
}

// Float64 reads an IEEE-754 float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Float32 reads an IEEE-754 float32.
func (r *Reader) Float32() float32 { return math.Float32frombits(r.Uint32()) }

// String reads a length-prefixed string.
func (r *Reader) String() string { return r.StringOr("") }

// StringOr reads a length-prefixed string and returns cur in its place when
// the two are equal, which allocates nothing: decoding into a reused value
// that already holds the string — an entity's Owner, nearly always — keeps
// the copy it has.
func (r *Reader) StringOr(cur string) string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrStringTooLong)
		return ""
	}
	b := r.take(int(n))
	if string(b) == cur {
		return cur
	}
	return string(b)
}

// Blob reads a length-prefixed byte slice. The returned slice is a copy.
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrStringTooLong)
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Kind identifies a registered message type on the wire.
type Kind uint16

// Message is a value that can serialize itself through wire.
type Message interface {
	// WireKind returns the registered type tag.
	WireKind() Kind
	// MarshalWire appends the message body to w.
	MarshalWire(w *Writer)
	// UnmarshalWire parses the message body. Implementations should read
	// through r and return r.Err() (plus any semantic validation error).
	UnmarshalWire(r *Reader) error
}

// Registry maps message kinds to factories so payloads can be decoded into
// concrete types. A Registry is immutable after construction; build one per
// protocol with NewRegistry and share it freely across goroutines.
type Registry struct {
	factories map[Kind]func() Message
}

// NewRegistry builds a registry from prototype factories. It panics on
// duplicate kinds — registration happens at init time, where a duplicate is
// a programming error.
func NewRegistry(factories ...func() Message) *Registry {
	r := &Registry{factories: make(map[Kind]func() Message, len(factories))}
	for _, f := range factories {
		k := f().WireKind()
		if _, dup := r.factories[k]; dup {
			panic(fmt.Sprintf("wire: duplicate message kind %d", k))
		}
		r.factories[k] = f
	}
	return r
}

// Encode serializes msg with its kind prefix into w (which is Reset first)
// and returns the payload (aliasing w's buffer).
func (reg *Registry) Encode(w *Writer, msg Message) []byte {
	w.Reset()
	w.Uint16(uint16(msg.WireKind()))
	msg.MarshalWire(w)
	return w.Bytes()
}

// EncodeToBytes serializes msg into a fresh buffer.
func (reg *Registry) EncodeToBytes(msg Message) []byte {
	w := NewWriter(64)
	return append([]byte(nil), reg.Encode(w, msg)...)
}

// Decode parses a payload produced by Encode into a new message instance.
func (reg *Registry) Decode(payload []byte) (Message, error) {
	r := NewReader(payload)
	kind := Kind(r.Uint16())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wire: decode kind: %w", err)
	}
	f, ok := reg.factories[kind]
	if !ok {
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	msg := f()
	if err := msg.UnmarshalWire(r); err != nil {
		return nil, fmt.Errorf("wire: decode kind %d: %w", kind, err)
	}
	return msg, nil
}
