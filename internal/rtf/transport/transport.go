// Package transport moves wire payloads between RTF nodes (application
// servers and clients). Two interchangeable implementations are provided:
//
//   - Loopback: an in-process hub routing frames over channels. It is
//     deterministic enough for tests and lets experiments run a whole
//     multi-server cluster inside one process, mirroring how the paper's
//     experiments run multiple RTF servers on one testbed.
//   - TCP: length-prefix framed connections over net, for the real
//     networked deployment used by cmd/roiaserver and cmd/roiabot.
//
// Both satisfy Network/Node, so the RTF server and client code above this
// package is transport-agnostic.
package transport

import (
	"errors"
	"fmt"
	"sync"
)

// Frame is one routed payload.
type Frame struct {
	// From and To are node IDs (e.g. "server-1", "client-42").
	From, To string
	// Payload is an opaque wire-encoded message body.
	Payload []byte
}

// Node is one attached endpoint of a Network.
type Node interface {
	// ID returns the node's network-unique identifier.
	ID() string
	// Send enqueues a payload for delivery to the named node. Send is safe
	// for concurrent use. Delivery is asynchronous; an error reports only
	// local failures (unknown target, closed node, full inbox policy).
	Send(to string, payload []byte) error
	// Inbox returns the channel on which received frames arrive. The
	// channel is closed when the node is closed.
	Inbox() <-chan Frame
	// Close detaches the node and releases its resources.
	Close() error
}

// Network attaches nodes by ID.
type Network interface {
	// Attach registers a node. inboxSize bounds the receive queue.
	Attach(id string, inboxSize int) (Node, error)
}

// BatchSender is an optional Node capability: deliver several payloads to
// one destination in a single operation. The TCP transport frames a batch
// into one buffer and one write instead of len(payloads) syscalls, which is
// how the server flushes a whole tick's frames per client. Frames
// are delivered in slice order; on error, a prefix of the batch may have
// been delivered. Callers fall back to per-payload Send when the node does
// not implement BatchSender.
type BatchSender interface {
	SendBatch(to string, payloads [][]byte) error
}

// Errors shared by transport implementations.
var (
	// ErrClosed is returned by operations on a closed node or network.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownTarget is returned when sending to an unattached ID.
	ErrUnknownTarget = errors.New("transport: unknown target")
	// ErrDuplicateID is returned when attaching an already-taken ID.
	ErrDuplicateID = errors.New("transport: duplicate node id")
	// ErrInboxFull is returned when the receiver's queue is saturated:
	// sends never block, as RTF's asynchronous sends must not stall the
	// real-time loop.
	ErrInboxFull = errors.New("transport: inbox full")
)

// Loopback is an in-process Network. The zero value is not usable; create
// one with NewLoopback.
type Loopback struct {
	mu     sync.RWMutex
	nodes  map[string]*loopNode
	closed bool
}

// NewLoopback returns an empty in-process network.
func NewLoopback() *Loopback {
	return &Loopback{nodes: make(map[string]*loopNode)}
}

type loopNode struct {
	net    *Loopback
	id     string
	inbox  chan Frame
	closed chan struct{}
	once   sync.Once
}

// Attach implements Network.
func (l *Loopback) Attach(id string, inboxSize int) (Node, error) {
	if inboxSize <= 0 {
		inboxSize = 1024
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if _, dup := l.nodes[id]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	n := &loopNode{
		net:    l,
		id:     id,
		inbox:  make(chan Frame, inboxSize),
		closed: make(chan struct{}),
	}
	l.nodes[id] = n
	return n, nil
}

// Close shuts down the network and every attached node.
func (l *Loopback) Close() error {
	l.mu.Lock()
	nodes := make([]*loopNode, 0, len(l.nodes))
	for _, n := range l.nodes {
		nodes = append(nodes, n)
	}
	l.closed = true
	l.mu.Unlock()
	for _, n := range nodes {
		_ = n.Close()
	}
	return nil
}

func (n *loopNode) ID() string          { return n.id }
func (n *loopNode) Inbox() <-chan Frame { return n.inbox }

func (n *loopNode) Send(to string, payload []byte) error {
	select {
	case <-n.closed:
		return ErrClosed
	default:
	}
	n.net.mu.RLock()
	target, ok := n.net.nodes[to]
	n.net.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTarget, to)
	}
	// Copy the payload: senders reuse their serialization buffers.
	frame := Frame{From: n.id, To: to, Payload: append([]byte(nil), payload...)}
	select {
	case target.inbox <- frame:
		return nil
	case <-target.closed:
		return ErrClosed
	default:
		return fmt.Errorf("%w: %s", ErrInboxFull, to)
	}
}

// SendBatch implements BatchSender as sequential Sends: the loopback hub
// has no syscall boundary to amortize, so batching only preserves the
// ordering contract. Delivery stops at the first local failure.
func (n *loopNode) SendBatch(to string, payloads [][]byte) error {
	for _, p := range payloads {
		if err := n.Send(to, p); err != nil {
			return err
		}
	}
	return nil
}

func (n *loopNode) Close() error {
	n.once.Do(func() {
		n.net.mu.Lock()
		delete(n.net.nodes, n.id)
		n.net.mu.Unlock()
		close(n.closed)
		close(n.inbox)
	})
	return nil
}

// Drain reads every frame currently queued on the node without blocking.
// It is the helper the real-time loop uses at the start of each tick
// (step 1 of the tick: "each server receives inputs from its users").
func Drain(n Node, max int) []Frame {
	return DrainInto(n, nil, max)
}

// DrainInto is Drain appending into a caller-owned buffer (typically
// buf[:0] of last tick's slice): the receive stage runs every tick, and
// growing a fresh slice from nil each time is repeated reallocation the
// tick path can skip entirely once the buffer has reached steady-state
// capacity. Returns the filled buffer; frames are appended in arrival
// order.
func DrainInto(n Node, buf []Frame, max int) []Frame {
	start := len(buf)
	for max <= 0 || len(buf)-start < max {
		select {
		case f, ok := <-n.Inbox():
			if !ok {
				return buf
			}
			buf = append(buf, f)
		default:
			return buf
		}
	}
	return buf
}
