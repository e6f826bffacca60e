package dist

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"time"
)

// TCPEndpoint is one node's side of the TCP interconnect — the single
// socket data plane of the repository. A worker process runs exactly
// one; the in-process TCPTransport runs n of them on loopback. It
// implements Transport for its own node id: frames addressed to itself
// are delivered by reference into its mailbox (no socket, no encode),
// frames for a peer travel length-prefixed and CRC-protected through a
// lazily dialed, cached connection to the peer's listener, and a
// reader goroutine per inbound connection feeds the mailbox. The
// mailbox is the same type ChanTransport uses, so Recv/Close semantics
// are identical across transports by construction.
//
// A chunked logical message is a sequence of independent wire frames:
// each chunk is framed, checksummed, and validated on its own, so a
// broken connection costs only the frames in flight on it. The pipe
// drops the connection on any write failure and the next send re-dials,
// so the protocol's per-chunk KindResend path recovers the lost chunks
// over a fresh connection. Reproducibility comes from the canonical
// state algebra, not from any ordering the network might provide.
type TCPEndpoint struct {
	id    int
	addrs []string // data-plane listen addresses, indexed by node id
	mb    *mailboxes
	ln    net.Listener
	peers *peerCounters

	closeOnce sync.Once
	wg        sync.WaitGroup

	mu    sync.Mutex
	pipes map[int]*tcpPipe
	// live tracks every established outgoing connection so Close and
	// SeverOutgoing can close them without taking any pipe's write
	// lock (lock order is always tcpPipe.mu → TCPEndpoint.mu).
	live map[net.Conn]struct{}
	// inbound tracks the accepted connections, so Close unblocks their
	// readers instead of waiting for every peer to hang up first.
	inbound map[net.Conn]struct{}
}

// tcpPipe is one cached outgoing connection; writes are serialized so
// concurrent protocol sends cannot interleave frame bytes. The
// connection is dialed lazily under the pipe's own lock (so one slow
// dial never stalls other peers) and dropped on any write failure.
type tcpPipe struct {
	mu sync.Mutex
	c  net.Conn
	w  *bufio.Writer
}

const (
	// sockBufSize sizes the per-connection buffered reader and writer:
	// big enough that a default 16 MiB chunk still moves in few
	// syscalls and a batch of small frames coalesces, small enough to
	// keep per-peer memory modest.
	sockBufSize = 64 << 10
	dialTimeout = 5 * time.Second
)

// NewTCPEndpoint starts node id's side of the interconnect on the
// already-bound listener ln, which it owns from here on. addrs is the
// cluster's data-plane address table, indexed by node id; the entry
// for id itself is never dialed.
func NewTCPEndpoint(id int, addrs []string, ln net.Listener) (*TCPEndpoint, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("dist: node id %d outside %d-node address table", id, len(addrs))
	}
	t := &TCPEndpoint{
		id:      id,
		addrs:   addrs,
		mb:      newMailboxes(len(addrs)),
		ln:      ln,
		peers:   newPeerCounters(len(addrs)),
		pipes:   make(map[int]*tcpPipe),
		live:    make(map[net.Conn]struct{}),
		inbound: make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Nodes returns the cluster size.
func (t *TCPEndpoint) Nodes() int { return len(t.addrs) }

// Recv returns the next frame addressed to node id (this endpoint's
// own id; the other inboxes stay empty).
func (t *TCPEndpoint) Recv(id int, timeout time.Duration) (Frame, error) {
	return t.mb.Recv(id, timeout)
}

// acceptLoop accepts inbound peer connections and spawns one reader
// per connection.
func (t *TCPEndpoint) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.track(t.inbound, c) {
			return
		}
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

// readLoop decodes frames off one inbound connection into the mailbox.
// A frame that fails validation poisons only its connection: the
// reader stops, and the protocol's re-request layer recovers the lost
// chunks over a fresh dial from the sender.
//
// Frames are read into one per-connection buffer reused across
// iterations (ReadFrameBuf), so the steady-state read path allocates
// only what it retains: decoded payloads alias the read buffer and are
// copied exactly once (retainPayload) before the mailbox — which holds
// them until the protocol consumes them — takes the frame. Misrouted
// and payload-free frames never pay the copy.
func (t *TCPEndpoint) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer t.untrack(t.inbound, c)
	br := bufio.NewReaderSize(c, sockBufSize)
	var buf []byte // connection read buffer; every decoded payload aliases it
	for {
		f, nbuf, err := ReadFrameBuf(br, buf)
		if err != nil {
			return // EOF, peer close, severed socket, or corrupt stream
		}
		buf = nbuf
		if f.To != t.id {
			continue // misrouted frame: drop at the trust boundary
		}
		t.peers.received(f.From, len(f.Payload))
		if t.mb.deliver(retainPayload(f)) != nil {
			return // endpoint closed
		}
	}
}

// Send delivers f: by reference through the local mailbox when the
// destination is this node, through the cached (re-dialed on demand)
// peer connection otherwise.
func (t *TCPEndpoint) Send(f Frame) error {
	return t.sendRun([]Frame{f})
}

// SendBatch transmits a frame list, coalescing each run of equal-To
// frames into buffered writes with one flush per peer — a multi-chunk
// stream leaves as a burst of large writes instead of one syscall per
// chunk (local frames deliver directly). Equivalent to calling Send in
// order (TCP preserves byte order per connection); the first error is
// reported, later runs are still attempted, matching the protocol's
// tolerance for partial send failures.
func (t *TCPEndpoint) SendBatch(fs []Frame) error {
	var firstErr error
	for start := 0; start < len(fs); {
		end := start + 1
		for end < len(fs) && fs[end].To == fs[start].To {
			end++
		}
		if err := t.sendRun(fs[start:end]); err != nil && firstErr == nil {
			firstErr = err
		}
		start = end
	}
	return firstErr
}

// sendRun delivers one same-destination run: a self-addressed run by
// reference, a peer run through the peer's buffered writer with one
// flush.
func (t *TCPEndpoint) sendRun(fs []Frame) error {
	to := fs[0].To
	if to == t.id {
		if err := t.mb.deliverBatch(fs); err != nil {
			return err
		}
		mChanFrames.Add(uint64(len(fs)))
		return nil
	}
	if to < 0 || to >= len(t.addrs) {
		return fmt.Errorf("dist: send to node %d of %d-node cluster", to, len(t.addrs))
	}
	select {
	case <-t.mb.closed:
		return ErrClosed
	default:
	}
	p := t.pipe(to)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := t.dialLocked(p, to); err != nil {
		return err
	}
	for i := range fs {
		if err := WriteFrame(p.w, fs[i]); err != nil {
			t.resetLocked(p)
			return t.sendErr(err)
		}
		t.peers.sent(to, len(fs[i].Payload))
	}
	if err := p.w.Flush(); err != nil {
		t.resetLocked(p)
		return t.sendErr(err)
	}
	return nil
}

// UpdatePeer re-points peer id at a new data-plane address — the
// mid-run replacement path: a substitute worker binds a fresh
// listener, and every surviving peer swaps its table entry and drops
// the cached pipe so the next send (or per-chunk re-request) dials
// the substitute instead of the dead worker's stale address.
func (t *TCPEndpoint) UpdatePeer(id int, addr string) {
	if id < 0 || id >= len(t.addrs) || id == t.id || addr == "" {
		return
	}
	t.mu.Lock()
	if t.addrs[id] == addr {
		t.mu.Unlock()
		return
	}
	t.addrs[id] = addr
	p := t.pipes[id]
	t.mu.Unlock()
	if p != nil {
		p.mu.Lock()
		t.resetLocked(p)
		p.mu.Unlock()
	}
}

// SeverOutgoing closes every established outgoing connection — writes
// in flight on them fail — and drops them from their pipes, so each
// peer's next send re-dials. Frames that were on the severed sockets
// are lost to the receiver and recovered by its per-chunk re-requests.
func (t *TCPEndpoint) SeverOutgoing() {
	t.mu.Lock()
	for c := range t.live {
		c.Close()
	}
	pipes := slices.Collect(maps.Values(t.pipes))
	t.mu.Unlock()
	for _, p := range pipes {
		p.mu.Lock()
		t.resetLocked(p)
		p.mu.Unlock()
	}
}

// dialLocked establishes the pipe's connection if needed; the caller
// must hold p.mu.
func (t *TCPEndpoint) dialLocked(p *tcpPipe, to int) error {
	if p.c != nil {
		return nil
	}
	t.mu.Lock()
	addr := t.addrs[to]
	t.mu.Unlock()
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return t.sendErr(fmt.Errorf("dial node %d: %w", to, err))
	}
	if !t.track(t.live, c) {
		return ErrClosed
	}
	p.c, p.w = c, bufio.NewWriterSize(c, sockBufSize)
	return nil
}

// track registers c in set, or closes it and reports false once the
// endpoint is closed. Registration and the closed check share one
// critical section: Close closes the mailbox before it sweeps the
// sets, so a connection either registers in time to be swept or
// observes closed here — never neither.
func (t *TCPEndpoint) track(set map[net.Conn]struct{}, c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.mb.closed:
		c.Close()
		return false
	default:
		set[c] = struct{}{}
		return true
	}
}

// untrack closes c and removes it from set.
func (t *TCPEndpoint) untrack(set map[net.Conn]struct{}, c net.Conn) {
	c.Close()
	t.mu.Lock()
	delete(set, c)
	t.mu.Unlock()
}

// resetLocked drops a pipe's (possibly already severed) connection so
// the next send re-dials; the caller must hold p.mu.
func (t *TCPEndpoint) resetLocked(p *tcpPipe) {
	if p.c == nil {
		return
	}
	t.untrack(t.live, p.c)
	p.c, p.w = nil, nil
}

// sendErr maps write failures after Close to ErrClosed, so protocol
// teardown (root done, transport closed, stragglers still flushing) is
// not reported as a network failure.
func (t *TCPEndpoint) sendErr(err error) error {
	select {
	case <-t.mb.closed:
		return ErrClosed
	default:
		return fmt.Errorf("dist: node %d send: %w", t.id, err)
	}
}

// pipe returns the (possibly not yet dialed) pipe for the peer. Only
// the map access takes the endpoint-wide lock; dialing happens under
// the pipe's own lock.
func (t *TCPEndpoint) pipe(to int) *tcpPipe {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.pipes[to]
	if !ok {
		p = &tcpPipe{}
		t.pipes[to] = p
	}
	return p
}

// Close tears down the mailbox, the listener, and every connection in
// both directions, and waits for the reader goroutines to drain.
// Idempotent.
func (t *TCPEndpoint) Close() error {
	var err error
	t.closeOnce.Do(func() {
		t.mb.close()
		err = t.ln.Close()
		t.mu.Lock()
		for c := range t.live {
			c.Close()
		}
		for c := range t.inbound {
			c.Close()
		}
		t.mu.Unlock()
		t.wg.Wait()
	})
	return err
}

// TCPTransport is the TCP interconnect of an in-process cluster: one
// TCPEndpoint per node, each with its own loopback listener, running
// exactly the socket code of a worker process. Send and SendBatch
// route by Frame.From to the sending node's endpoint; Recv(id) reads
// endpoint id's mailbox.
type TCPTransport struct {
	nodes []*TCPEndpoint
}

// NewTCPTransport starts an n-node TCP interconnect on loopback.
func NewTCPTransport(n int) (*TCPTransport, error) {
	if n < 1 {
		return nil, ErrNoShards
	}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for id := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:id] {
				l.Close()
			}
			return nil, fmt.Errorf("dist: listen for node %d: %w", id, err)
		}
		lns[id], addrs[id] = ln, ln.Addr().String()
	}
	t := &TCPTransport{nodes: make([]*TCPEndpoint, n)}
	for id, ln := range lns {
		// The id is in range by construction, so this cannot fail.
		t.nodes[id], _ = NewTCPEndpoint(id, slices.Clone(addrs), ln)
	}
	return t, nil
}

// Nodes returns the cluster size.
func (t *TCPTransport) Nodes() int { return len(t.nodes) }

// sender returns the endpoint of node from.
func (t *TCPTransport) sender(from int) (*TCPEndpoint, error) {
	if from < 0 || from >= len(t.nodes) {
		return nil, fmt.Errorf("dist: send from node %d of %d-node cluster", from, len(t.nodes))
	}
	return t.nodes[from], nil
}

// Send transmits f from node f.From's endpoint.
func (t *TCPTransport) Send(f Frame) error {
	e, err := t.sender(f.From)
	if err != nil {
		return err
	}
	return e.Send(f)
}

// SendBatch hands each run of equal-From frames to the sending node's
// endpoint, which coalesces it per destination. Equivalent to calling
// Send in order; the first error is reported, later runs are still
// attempted.
func (t *TCPTransport) SendBatch(fs []Frame) error {
	var firstErr error
	for start := 0; start < len(fs); {
		end := start + 1
		for end < len(fs) && fs[end].From == fs[start].From {
			end++
		}
		e, err := t.sender(fs[start].From)
		if err == nil {
			err = e.SendBatch(fs[start:end])
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		start = end
	}
	return firstErr
}

// Recv returns the next frame addressed to node id.
func (t *TCPTransport) Recv(id int, timeout time.Duration) (Frame, error) {
	if id < 0 || id >= len(t.nodes) {
		return Frame{}, fmt.Errorf("dist: recv on node %d of %d-node cluster", id, len(t.nodes))
	}
	return t.nodes[id].Recv(id, timeout)
}

// Close shuts down every endpoint and waits for their readers to
// drain.
func (t *TCPTransport) Close() error {
	errs := make([]error, len(t.nodes))
	for i, e := range t.nodes {
		errs[i] = e.Close()
	}
	return errors.Join(errs...)
}

// TCPTransportFactory is the TransportFactory of NewTCPTransport.
func TCPTransportFactory(n int) (Transport, error) { return NewTCPTransport(n) }

// interface conformance
var (
	_ Transport   = (*ChanTransport)(nil)
	_ Transport   = (*TCPEndpoint)(nil)
	_ Transport   = (*TCPTransport)(nil)
	_ BatchSender = (*ChanTransport)(nil)
	_ BatchSender = (*TCPEndpoint)(nil)
	_ BatchSender = (*TCPTransport)(nil)
)
