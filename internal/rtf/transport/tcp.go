package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"roia/internal/rtf/wire"
)

// MaxFrameSize bounds a single TCP frame; larger declared lengths indicate
// a corrupt or hostile stream and abort the connection.
const MaxFrameSize = 16 << 20

// TCPNetwork is a Network whose nodes communicate over framed TCP
// connections. Node addresses are resolved through a directory that maps
// node IDs to listen addresses; nodes attached in-process self-register,
// and peers in other processes are added with Register.
type TCPNetwork struct {
	mu        sync.RWMutex
	directory map[string]string
}

// NewTCP returns an empty TCP network.
func NewTCP() *TCPNetwork {
	return &TCPNetwork{directory: make(map[string]string)}
}

// Register adds (or replaces) a remote peer's address in the directory.
func (t *TCPNetwork) Register(id, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.directory[id] = addr
}

// Lookup resolves a node ID to its address.
func (t *TCPNetwork) Lookup(id string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	addr, ok := t.directory[id]
	return addr, ok
}

// Attach implements Network, listening on an ephemeral localhost port.
func (t *TCPNetwork) Attach(id string, inboxSize int) (Node, error) {
	return t.AttachListener(id, "127.0.0.1:0", inboxSize)
}

// AttachListener attaches a node listening on the given address.
func (t *TCPNetwork) AttachListener(id, addr string, inboxSize int) (Node, error) {
	if inboxSize <= 0 {
		inboxSize = 1024
	}
	t.mu.Lock()
	if _, dup := t.directory[id]; dup {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	t.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &tcpNode{
		net:     t,
		id:      id,
		ln:      ln,
		inbox:   make(chan Frame, inboxSize),
		conns:   make(map[string]*tcpConn),
		inbound: make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
	t.Register(id, ln.Addr().String())
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

type tcpNode struct {
	net    *TCPNetwork
	id     string
	ln     net.Listener
	inbox  chan Frame
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	mu      sync.Mutex
	conns   map[string]*tcpConn   // send routes by peer ID: dialed or adopted inbound
	inbound map[net.Conn]struct{} // every connection with a readLoop, closed on Close
}

type tcpConn struct {
	mu   sync.Mutex // serializes writes
	conn net.Conn
	w    *wire.Writer
}

func (n *tcpNode) ID() string          { return n.id }
func (n *tcpNode) Inbox() <-chan Frame { return n.inbox }

func (n *tcpNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		select {
		case <-n.closed:
			n.mu.Unlock()
			conn.Close()
			return
		default:
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop decodes inbound frames from one connection into the inbox.
func (n *tcpNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		// Drop any reply route adopted from this connection, so a later
		// send re-dials (or re-adopts a fresh inbound connection).
		for id, c := range n.conns {
			if c.conn == conn {
				delete(n.conns, id)
			}
		}
		n.mu.Unlock()
	}()
	adopted := false
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size == 0 || size > MaxFrameSize {
			return
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		r := wire.NewReader(body)
		frame := Frame{From: r.String(), To: r.String(), Payload: r.Blob()}
		if r.Err() != nil {
			return
		}
		if !adopted {
			// Adopt this connection as the reply path to the sender. A
			// client process is not in this process's directory (its
			// listener, if any, is behind its own NAT/process boundary),
			// so replies must ride the socket it dialed in on — exactly
			// how JoinAck and state updates reach roiabot swarms.
			n.adopt(frame.From, conn)
			adopted = true
		}
		select {
		case n.inbox <- frame:
		case <-n.closed:
			return
		default:
			// Inbox saturated: drop the frame. RTF's state updates are
			// refreshed every tick, so dropping under overload is safer
			// than stalling the peer's send path.
		}
	}
}

// Send implements Node. The first send to a target dials and caches a
// full-duplex connection (replies ride it back); concurrent sends to the
// same target serialize on it. A target that already dialed in is reached
// over its adopted inbound connection — no directory entry needed.
func (n *tcpNode) Send(to string, payload []byte) error {
	select {
	case <-n.closed:
		return ErrClosed
	default:
	}
	c, err := n.conn(to)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Reset()
	c.w.Uint32(0) // length placeholder
	c.w.String(n.id)
	c.w.String(to)
	c.w.Blob(payload)
	buf := c.w.Bytes()
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	//roialint:ignore lockhold the per-connection mutex exists to serialize writes on this socket
	if _, err := c.conn.Write(buf); err != nil {
		// Connection broke: drop it so the next send re-dials.
		n.mu.Lock()
		if n.conns[to] == c {
			delete(n.conns, to)
		}
		n.mu.Unlock()
		//roialint:ignore lockhold teardown of this connection under its own write lock, not a shared one
		c.conn.Close()
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	return nil
}

// SendBatch implements BatchSender: every frame of the batch is serialized
// back to back into the connection's writer, which then goes out in one
// Write. A destination's batch is one tick's few frames: copying them costs
// less than handing the kernel a vector of header and payload pieces.
func (n *tcpNode) SendBatch(to string, payloads [][]byte) error {
	select {
	case <-n.closed:
		return ErrClosed
	default:
	}
	if len(payloads) == 0 {
		return nil
	}
	c, err := n.conn(to)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Reset()
	for _, p := range payloads {
		start := c.w.Len()
		c.w.Uint32(0) // length placeholder
		c.w.String(n.id)
		c.w.String(to)
		c.w.Blob(p)
		binary.BigEndian.PutUint32(c.w.Bytes()[start:], uint32(c.w.Len()-start-4))
	}
	//roialint:ignore lockhold the per-connection mutex exists to serialize writes on this socket
	if _, err := c.conn.Write(c.w.Bytes()); err != nil {
		n.mu.Lock()
		if n.conns[to] == c {
			delete(n.conns, to)
		}
		n.mu.Unlock()
		//roialint:ignore lockhold teardown of this connection under its own write lock, not a shared one
		c.conn.Close()
		return fmt.Errorf("transport: send batch to %s: %w", to, err)
	}
	return nil
}

// adopt registers an accepted connection as the outbound route to id, so
// peers that never appear in the directory (clients dialing in from other
// processes) can be answered. An existing route wins: a node that already
// dialed id (or adopted an earlier connection from it) keeps that path.
func (n *tcpNode) adopt(id string, raw net.Conn) {
	if id == "" {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.conns[id]; ok {
		return
	}
	n.conns[id] = &tcpConn{conn: raw, w: wire.NewWriter(256)}
}

func (n *tcpNode) conn(to string) (*tcpConn, error) {
	n.mu.Lock()
	if c, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return c, nil
	}
	n.mu.Unlock()

	addr, ok := n.net.Lookup(to)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTarget, to)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", to, addr, err)
	}
	c := &tcpConn{conn: raw, w: wire.NewWriter(256)}

	// Register under the lock, but keep the raw socket teardown outside
	// it: Close on a TCP connection can block in the kernel, and the
	// registry mutex is on every send path.
	n.mu.Lock()
	existing, raced := n.conns[to]
	closed := false
	select {
	case <-n.closed:
		closed = true
	default:
	}
	if !raced && !closed {
		n.conns[to] = c
		// Connections are full-duplex: the peer replies over the socket
		// we dialed (it adopts it — see readLoop), so the dialer must
		// read it too. Tracked in the inbound set for Close teardown.
		n.inbound[raw] = struct{}{}
		n.wg.Add(1)
		go n.readLoop(raw)
	}
	n.mu.Unlock()
	if raced {
		// Lost the race: keep the first connection.
		raw.Close()
		return existing, nil
	}
	if closed {
		raw.Close()
		return nil, ErrClosed
	}
	return c, nil
}

// Close implements Node: stops the listener, closes every connection,
// waits for reader goroutines, then closes the inbox.
func (n *tcpNode) Close() error {
	n.once.Do(func() {
		close(n.closed)
		n.ln.Close()
		// Snapshot the connection sets under the lock, close outside it:
		// socket Close can block, and readLoop goroutines need the mutex
		// to unregister themselves before wg.Wait can return.
		n.mu.Lock()
		toClose := make([]net.Conn, 0, len(n.conns)+len(n.inbound))
		for _, c := range n.conns {
			toClose = append(toClose, c.conn)
		}
		n.conns = make(map[string]*tcpConn)
		for conn := range n.inbound {
			toClose = append(toClose, conn)
		}
		n.mu.Unlock()
		for _, conn := range toClose {
			conn.Close()
		}
		n.wg.Wait()
		close(n.inbox)
		n.net.mu.Lock()
		delete(n.net.directory, n.id)
		n.net.mu.Unlock()
	})
	return nil
}
