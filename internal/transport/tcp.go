package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/pool"
	"resilientdb/internal/types"
)

// Batching defaults. Batching exists because the per-envelope syscall is
// the transport's dominant cost at high throughput ("What Blocks My
// Blockchain's Throughput?" finds per-message serialization alongside
// signature verification as the top bottlenecks): coalescing queued
// envelopes into one frame amortizes the frame header and, more
// importantly, the Write call across the whole batch.
const (
	// DefaultBatchMax is the default maximum number of envelopes per
	// frame.
	DefaultBatchMax = 64
	// batchBytes is the encoded-size threshold that flushes a batch
	// early, bounding frame size independently of BatchMax.
	batchBytes = 64 << 10
	// peerQueueCap is the depth of a replica peer's outbound queue: what a
	// writer may fall behind before Send waits for it (see Send).
	peerQueueCap = 4096
	// clientQueueCap is the depth of a client peer's outbound queue.
	// A replica answers each client with ~one response per in-flight
	// request, so a deep queue would only waste memory across the tens of
	// thousands of client connections a deployment can carry.
	clientQueueCap = 64
	// readBufSize is each connection's read buffer: large enough that a
	// client request or a frame of votes arrives prefix and body in one read
	// syscall, small enough to multiply by every client connection. A frame
	// that outgrows it costs one more read, straight into its pooled
	// buffer.
	readBufSize = 16 << 10
	// stallTimeout bounds what one unresponsive peer can cost this endpoint:
	// how long its writer waits for a dial, how long Close waits for it to
	// accept the final flush, and how long its writer may take over half a
	// queue of envelopes before a full queue drops instead of waiting (see
	// Send).
	stallTimeout = 2 * time.Second
)

// TCPConfig parameterizes a TCPEndpoint.
type TCPConfig struct {
	// Self is the node this endpoint belongs to; ListenAddr its listen
	// address (":0" picks an ephemeral port).
	Self       types.NodeID
	ListenAddr string
	// Addrs maps peers (may include self) to dialable addresses; more can
	// be added later with SetPeerAddr.
	Addrs map[types.NodeID]string
	// Inboxes is the number of classified inbound channels; Capacity the
	// per-inbox buffer.
	Inboxes  int
	Capacity int
	// BatchMax is the maximum number of envelopes coalesced into one
	// frame. 0 means DefaultBatchMax; 1 disables batching (every envelope
	// travels in its own frame, still serialized through the peer's
	// writer goroutine). A writer takes what is queued, up to BatchMax,
	// and writes: under load frames fill because the queue outpaces the
	// writer, and an idle connection pays no added latency.
	BatchMax int
	// ZeroCopy gives the receive path a frame-buffer pool (Section 4.8
	// buffer-pool management). Decoded envelopes alias the frame they
	// arrived in either way; with ZeroCopy the frame's buffer comes from a
	// per-endpoint pool and returns to it when every consumer has called
	// Release on its envelope, without it every frame is allocated and
	// left to the garbage collector. Consumers that never Release only
	// forfeit reuse, so the pool is safe with release-unaware receivers,
	// just not profitable.
	ZeroCopy bool
}

func (c *TCPConfig) fill() {
	if c.Inboxes < 1 {
		c.Inboxes = 1
	}
	if c.Capacity < 1 {
		c.Capacity = 1024
	}
	if c.BatchMax == 0 {
		c.BatchMax = DefaultBatchMax
	}
	if c.BatchMax < 1 {
		c.BatchMax = 1
	}
}

// tcpPeer is the path to one destination: an outbound queue and the writer
// goroutine that owns the connection behind it for its whole life. The
// writer dials (unless the connection was learned from the inbound traffic
// of a node with no address), then drains; routing every write (Send and
// Hello alike) through it serializes frame writes — concurrent writes on a
// shared connection could interleave partial frames and corrupt the stream
// — and is where outbound batching happens. Nobody but the writer ever
// waits for the network.
type tcpPeer struct {
	out chan *types.Envelope
	// conn is nil until the writer's dial returns; written and read under
	// the endpoint's mu (Close sets a deadline on it), otherwise the
	// writer's alone.
	conn net.Conn
	up   chan struct{} // closed once conn is connected
	dead chan struct{} // closed when the writer exits
	err  error         // why it exited; read after dead closes
	// moved is when (unix nanos) the writer last caught up — a write left the
	// queue at most half full — or, short of that, put another half queue on
	// the wire. 0 marks the peer stalled: a sender found the queue full
	// stallTimeout after moved, and the writer has not caught up since. While
	// it is 0 a full queue drops instead of waiting (see Send).
	moved atomic.Int64
	// sent counts the envelopes written since moved was last set; the
	// writer's alone.
	sent int
}

// TCPEndpoint attaches a node to the network over TCP with
// length-prefixed envelope frames (see types.AppendBatchFrame).
// Outbound connections are dialed lazily per destination, by the
// destination's writer, and reused; inbound connections are accepted
// continuously and drained into the classified inboxes.
type TCPEndpoint struct {
	cfg     TCPConfig
	self    types.NodeID
	ln      net.Listener
	inboxes []chan *types.Envelope
	drops   atomic.Uint64
	frames  types.FrameBuffers // inbound frame recycler; nil unless ZeroCopy
	// dial is net.DialTimeout everywhere but in tests, which hold it back
	// or fail it.
	dial func(addr string) (net.Conn, error)

	mu       sync.Mutex
	addrs    map[types.NodeID]string
	peers    map[types.NodeID]*tcpPeer
	accepted map[net.Conn]bool
	closed   bool

	stopW   chan struct{} // tells writers to flush what is queued and exit
	writeWg sync.WaitGroup
	readWg  sync.WaitGroup // accept loop and read loops
}

var _ Endpoint = (*TCPEndpoint)(nil)

// NewTCPWithConfig creates a TCP endpoint listening on cfg.ListenAddr.
func NewTCPWithConfig(cfg TCPConfig) (*TCPEndpoint, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
	}
	e := &TCPEndpoint{
		cfg:      cfg,
		self:     cfg.Self,
		ln:       ln,
		addrs:    make(map[types.NodeID]string, len(cfg.Addrs)),
		peers:    make(map[types.NodeID]*tcpPeer),
		accepted: make(map[net.Conn]bool),
		stopW:    make(chan struct{}),
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, stallTimeout)
		},
	}
	if cfg.ZeroCopy {
		e.frames = new(pool.BytePool)
	}
	for k, v := range cfg.Addrs {
		e.addrs[k] = v
	}
	e.inboxes = make([]chan *types.Envelope, cfg.Inboxes)
	for i := range e.inboxes {
		e.inboxes[i] = make(chan *types.Envelope, cfg.Capacity)
	}
	e.readWg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the endpoint's bound listen address (useful with ":0").
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// SetPeerAddr registers or updates a peer's dialable address. It supports
// bootstrap flows where nodes bind ephemeral ports first and exchange
// addresses afterwards.
func (e *TCPEndpoint) SetPeerAddr(node types.NodeID, addr string) {
	e.mu.Lock()
	e.addrs[node] = addr
	e.mu.Unlock()
}

// Hello sends a transport-level hello frame, teaching the peer a return
// path to this endpoint, and returns once the connection carrying it is up
// (or could not be brought up). Clients, which have no listener the
// replicas could know about, call this for every replica before submitting
// requests so that responses can flow back over the client-initiated
// connections.
func (e *TCPEndpoint) Hello(to types.NodeID) error {
	p, err := e.peer(to)
	if err != nil {
		return err
	}
	env := &types.Envelope{From: e.self, To: to, Type: 0}
	select {
	case p.out <- env:
	case <-p.dead:
		return fmt.Errorf("transport: hello to %v: %w", to, p.err)
	}
	select {
	case <-p.up:
		return nil
	case <-p.dead:
		return fmt.Errorf("transport: hello to %v: %w", to, p.err)
	}
}

// Self implements Endpoint.
func (e *TCPEndpoint) Self() types.NodeID { return e.self }

// Inbox implements Endpoint.
func (e *TCPEndpoint) Inbox(i int) <-chan *types.Envelope { return e.inboxes[i] }

// Inboxes implements Endpoint.
func (e *TCPEndpoint) Inboxes() int { return len(e.inboxes) }

// Drops implements Endpoint: envelopes discarded because their inbox was
// full when they arrived, because they were sent to a stalled peer whose
// queue was full (see Send), or because they were queued behind a dial or a
// write that failed.
func (e *TCPEndpoint) Drops() uint64 { return e.drops.Load() }

// FramePoolStats returns the inbound frame pool's cumulative hit and miss
// counts. Both are zero when ZeroCopy is off.
func (e *TCPEndpoint) FramePoolStats() (hits, misses uint64) {
	if p, ok := e.frames.(*pool.BytePool); ok {
		return p.Stats()
	}
	return 0, 0
}

// SetFrameBuffers replaces the recycler inbound frames are borrowed from.
// It exists so a test can substitute one that poisons every returned
// buffer, which turns a use-after-recycle anywhere downstream into wrong
// bytes instead of a rare flake. Call it before any peer connects.
func (e *TCPEndpoint) SetFrameBuffers(bufs types.FrameBuffers) {
	e.mu.Lock() // the accept loop takes mu before it starts a reader
	e.frames = bufs
	e.mu.Unlock()
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.readWg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.accepted[conn] = true
		e.mu.Unlock()
		e.readWg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.readWg.Done()
	defer func() {
		e.mu.Lock()
		delete(e.accepted, conn)
		e.mu.Unlock()
		conn.Close()
	}()
	// One buffered reader per connection: a frame's prefix and body, and
	// every small frame queued behind it, arrive in one read syscall. Bodies
	// are still copied out into pooled buffers, so nothing outlives the
	// buffer's next fill, and the frame reader decodes every frame into the
	// one envelope slice it keeps.
	frames := types.NewFrameReader(bufio.NewReaderSize(conn, readBufSize), e.frames)
	for {
		envs, err := frames.Next()
		if err != nil {
			return
		}
		if len(envs) == 0 {
			continue
		}
		// Learn return paths once per frame, for nodes with no address to
		// dial — clients, which is how replicas answer them. A node with an
		// address is always dialed: nothing here is authenticated yet, and
		// a learned path wins over a dial, so a connection claiming to be a
		// replica would otherwise receive that replica's traffic.
		e.mu.Lock()
		closed := e.closed
		if !closed {
			for _, env := range envs {
				if _, dialable := e.addrs[env.From]; dialable {
					continue
				}
				if _, ok := e.peers[env.From]; !ok {
					e.addPeerLocked(env.From, conn, "")
				}
			}
		}
		e.mu.Unlock()
		if closed {
			for _, env := range envs {
				env.Release()
			}
			return
		}
		for _, env := range envs {
			if env.Type == 0 {
				// Hello frame: its only job was to teach us the return path.
				env.Release()
				continue
			}
			idx := Classify(env.From, len(e.inboxes))
			// Non-blocking like Inproc: BFT protocols tolerate drops, but
			// each drop is counted so overload is observable.
			select {
			case e.inboxes[idx] <- env:
				// Ownership moves to the inbox consumer, which releases it.
			default:
				e.drops.Add(1)
				env.Release()
			}
		}
	}
}

// Send implements Endpoint. The envelope is queued on the destination
// peer's writer, which owns the connection — dialing it included — so Send
// itself never touches the network; callers must not mutate env after Send
// returns. A failed dial or write tears the peer down, and the next Send
// starts another (peer restarts).
//
// The caller may be a consensus lane with other peers to serve, so one
// peer must not be able to park it. A full queue means the peer's writer is
// 4096 envelopes behind. A writer that keeps up frees a slot within one
// write, and waiting for that is the backpressure a bulk sender relies on.
// What "keeps up" means is a rate, not one write: half a queue every
// stallTimeout (p.moved), so a peer that reads a frame now and then is shed
// like one that reads nothing. The sender that finds the queue full
// stallTimeout after the writer last made that much progress marks the peer
// stalled, and from then until the writer has caught up (the queue at most
// half full after a write) a full queue drops the envelope at once, counted
// in Drops like an envelope that met a full inbox: the slow peer gets what it
// takes, and nobody waits for it.
func (e *TCPEndpoint) Send(env *types.Envelope) error {
	p, err := e.peer(env.To)
	if err != nil {
		return err
	}
	select {
	case p.out <- env:
		return nil
	default:
	}
	for {
		moved := p.moved.Load()
		if moved != 0 {
			if wait := time.Until(time.Unix(0, moved).Add(stallTimeout)); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case p.out <- env:
					t.Stop()
					return nil
				case <-p.dead:
					t.Stop()
					return fmt.Errorf("transport: send to %v: %w", env.To, p.err)
				case <-t.C:
					continue // the writer may have moved meanwhile
				}
			}
			if !p.moved.CompareAndSwap(moved, 0) {
				continue // it moved just now
			}
		}
		e.drops.Add(1)
		env.Release()
		return nil
	}
}

// peer returns the path to a destination, starting one — a queue and a
// writer that dials the destination's address — on first use.
func (e *TCPEndpoint) peer(to types.NodeID) (*tcpPeer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if p, ok := e.peers[to]; ok {
		// An established peer wins, however it was established: dialed, or
		// — for a node with no address — learned from its connection to us.
		return p, nil
	}
	addr, ok := e.addrs[to]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownNode, to)
	}
	return e.addPeerLocked(to, nil, addr), nil
}

// addPeerLocked registers the path to a peer and starts its writer, over
// conn when the connection already exists (learned from inbound traffic)
// and over one the writer dials to addr otherwise. Callers hold e.mu and
// have checked !e.closed.
func (e *TCPEndpoint) addPeerLocked(to types.NodeID, conn net.Conn, addr string) *tcpPeer {
	depth := peerQueueCap
	if to.IsClient() {
		depth = clientQueueCap
	}
	p := &tcpPeer{
		conn: conn,
		out:  make(chan *types.Envelope, depth),
		up:   make(chan struct{}),
		dead: make(chan struct{}),
		err:  ErrClosed, // unless dropPeer knows better
	}
	p.moved.Store(time.Now().UnixNano())
	if conn != nil {
		close(p.up)
	}
	e.peers[to] = p
	e.writeWg.Add(1)
	go e.writeLoop(to, p, addr)
	return p
}

// connect dials the peer's address and makes the connection the peer's. A
// dial that fails tears the peer down instead: what queued behind it is
// released.
func (e *TCPEndpoint) connect(to types.NodeID, p *tcpPeer, addr string) bool {
	conn, err := e.dial(addr)
	if err != nil {
		e.dropPeer(to, p, fmt.Errorf("transport: dial %v at %s: %w", to, addr, err))
		return false
	}
	e.mu.Lock()
	p.conn = conn
	if e.closed {
		// Close is waiting for this writer: what queued behind the dial
		// gets the same bounded final flush as everything else.
		_ = conn.SetWriteDeadline(time.Now().Add(stallTimeout))
	} else {
		// Connections are full duplex: a peer with no address of ours to
		// dial replies over this very connection (it learns the return path
		// from our frames), so every dialed connection gets a reader too.
		e.readWg.Add(1)
		go e.readLoop(conn)
	}
	e.mu.Unlock()
	close(p.up)
	return true
}

// writeLoop is a peer's writer: it brings the connection up if the peer was
// created without one, then drains the outbound queue, coalesces what it
// finds into frames, and writes each frame with a single Write call.
func (e *TCPEndpoint) writeLoop(to types.NodeID, p *tcpPeer, addr string) {
	defer e.writeWg.Done()
	defer close(p.dead)
	if p.conn == nil && !e.connect(to, p, addr) {
		return
	}
	var w types.Writer
	batch := make([]*types.Envelope, 0, e.cfg.BatchMax)
	for {
		select {
		case env := <-p.out:
			batch = append(batch[:0], env)
		case <-e.stopW:
			e.flushRemaining(to, p, &w)
			return
		}
		size := batch[0].EncodedSize()
		// Take whatever else is queued, up to a full frame, and write.
	collect:
		for len(batch) < e.cfg.BatchMax && size < batchBytes {
			select {
			case env := <-p.out:
				batch = append(batch, env)
				size += env.EncodedSize()
			default:
				break collect
			}
		}
		if !e.writeBatch(to, p, &w, batch) {
			return
		}
	}
}

// writeBatch encodes the batch as one frame and writes it with a single
// Write call. On error the peer is torn down and false is returned. Either
// way the writer is the envelopes' final owner and releases them.
func (e *TCPEndpoint) writeBatch(to types.NodeID, p *tcpPeer, w *types.Writer, batch []*types.Envelope) bool {
	if len(batch) == 0 {
		return true
	}
	w.Reset()
	types.AppendBatchFrame(w, batch)
	_, err := p.conn.Write(w.Bytes())
	for _, env := range batch {
		env.Release()
	}
	if err != nil {
		e.drops.Add(uint64(len(batch)))
		e.dropPeer(to, p, err)
		return false
	}
	// Progress, as Send reads it: caught up clears a stall; half a queue
	// written while still behind only says the writer keeps its pace, and
	// leaves a stall (0) standing.
	p.sent += len(batch)
	if len(p.out) <= cap(p.out)/2 {
		p.sent = 0
		p.moved.Store(time.Now().UnixNano())
	} else if p.sent >= cap(p.out)/2 {
		p.sent = 0
		if moved := p.moved.Load(); moved != 0 {
			p.moved.CompareAndSwap(moved, time.Now().UnixNano())
		}
	}
	return true
}

// flushRemaining drains whatever is still queued at shutdown and writes it
// out, so what was sent before Close is not lost.
func (e *TCPEndpoint) flushRemaining(to types.NodeID, p *tcpPeer, w *types.Writer) {
	batch := make([]*types.Envelope, 0, e.cfg.BatchMax)
	for {
		batch = batch[:0]
	drain:
		for len(batch) < e.cfg.BatchMax {
			select {
			case env := <-p.out:
				batch = append(batch, env)
			default:
				break drain
			}
		}
		if len(batch) == 0 {
			return
		}
		if !e.writeBatch(to, p, w, batch) {
			return
		}
	}
}

// dropPeer tears a failed peer down, from its writer: it leaves the peer
// table, so the next Send starts another and re-dials; err is what senders
// still waiting on it are told; and the envelopes queued behind the failure
// went nowhere: they are released and counted in Drops (their Sends returned
// nil long ago).
func (e *TCPEndpoint) dropPeer(to types.NodeID, p *tcpPeer, err error) {
	e.mu.Lock()
	if e.peers[to] == p {
		delete(e.peers, to)
	}
	e.mu.Unlock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.err = err
	for {
		select {
		case env := <-p.out:
			e.drops.Add(1)
			env.Release()
		default:
			return
		}
	}
}

// Close implements Endpoint. Queued envelopes are flushed to their peers
// before connections come down.
func (e *TCPEndpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	for _, p := range e.peers {
		if p.conn != nil {
			// Bound the final flush: a stalled peer cannot hold Close hostage.
			_ = p.conn.SetWriteDeadline(time.Now().Add(stallTimeout))
		}
	}
	e.mu.Unlock()

	close(e.stopW)
	e.writeWg.Wait()

	e.mu.Lock()
	for _, p := range e.peers {
		if p.conn != nil {
			p.conn.Close()
		}
	}
	for c := range e.accepted {
		c.Close()
	}
	e.peers = make(map[types.NodeID]*tcpPeer)
	e.mu.Unlock()

	e.ln.Close()
	e.readWg.Wait()
	for _, ch := range e.inboxes {
		close(ch)
	}
}
