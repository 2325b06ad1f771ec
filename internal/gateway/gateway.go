// Package gateway is the multiplexed front door in front of a replica
// group: many lightweight client sessions share a handful of TCP
// connections into the gateway, which coalesces their transactions into
// shared consensus requests signed once under the gateway's identity and
// fans the responses back per session.
//
// The tier exists because the paper's closed-loop client model (one
// identity, one signature, one connection per client) stops scaling long
// before the replicas do: at 100K+ clients the replicas spend their time
// on ed25519 verification and connection churn rather than ordering. The
// gateway amortizes both — B session transactions ride one client
// request with one signature — and adds the two properties an edge tier
// must have:
//
//   - Retry safety. Sessions tag submits with a strictly-increasing
//     nonce starting at 1; the gateway dedups on (session, nonce),
//     absorbing duplicates of in-flight submits and replaying cached
//     replies for completed ones. A retried submit is acknowledged
//     exactly once and executed exactly once, no matter how the timeout
//     raced the response. Dedup state is keyed gateway-wide (session ids
//     are a gateway-global namespace), so it survives a session's
//     connection dropping and reconnecting; idle sessions are evicted
//     after SessionIdle.
//   - End-to-end backpressure. Replicas stamp a queue-saturation gauge
//     on every response (types.ClientResponse.Busy); the gateway's
//     admission controller turns a saturated gauge or a full internal
//     queue into an explicit StatusBusy pushback at the edge instead of
//     letting overload surface as silent transport drops. A saturated
//     gauge expires after BusyDecay without a fresh response, so a
//     drained gateway probes its way out of saturation instead of
//     wedging on the last overloaded reading.
package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/pool"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// DefaultBaseClient is the first gateway upstream identity: upstream i is
// DefaultBaseClient+i. It sits far above any direct load-generator client
// so the two id spaces never collide; crypto.Directory derives keys for any
// id lazily, so gateway identities need no registration.
const DefaultBaseClient types.ClientID = 1 << 20

// Config parameterizes a Gateway.
type Config struct {
	// N is the replica count.
	N int
	// Directory provides key material for the gateway identities.
	Directory *crypto.Directory
	// Endpoint attaches one upstream worker to the replica fabric. It is
	// called once per upstream with that worker's client identity.
	Endpoint func(id types.ClientID) (transport.Endpoint, error)
	// Upstreams is the number of replica-facing consensus workers, each a
	// closed loop with one request in flight (default 4). This — not the
	// session count — is the gateway's replica-facing connection budget.
	Upstreams int
	// Batch caps the transactions coalesced into one consensus request
	// (default 128; 1 sends one transaction per request; negative is
	// refused). An upstream takes what is queued up to Batch and goes; it
	// never waits for a fuller batch.
	Batch int
	// Timeout is the upstream retransmission delay (default 500ms).
	Timeout time.Duration
	// QueueCap bounds the admission queue between the front door and the
	// upstream workers (default 1<<14). A full queue is an overload
	// signal, answered with StatusBusy.
	QueueCap int
	// BusyThreshold is the replica gauge (0..255) at or above which new
	// submits are pushed back (default 230 ≈ 90% saturation).
	BusyThreshold uint8
	// BusyDecay is how long a stored saturation gauge keeps pushing back
	// without being refreshed by a consensus response before admission
	// treats it as stale and admits again (default 4×Timeout). The gauge
	// only refreshes when an upstream request completes, so without decay
	// a saturated reading taken just before the queue drained would wedge
	// admission forever.
	BusyDecay time.Duration
	// DedupWindow is how many completed replies are cached per session
	// for retry replay (default 8). A retry older than the window is
	// answered StatusRejected — still never re-executed.
	DedupWindow int
	// SessionIdle is how long a session with nothing in flight may sit
	// idle before its dedup state is evicted (default 5m). Session state
	// lives in the gateway, not the connection, so a session that
	// reconnects after a network blip keeps its dedup window until the
	// idle deadline.
	SessionIdle time.Duration
}

func (c *Config) fill() error {
	if c.N < 4 {
		return fmt.Errorf("gateway: need n ≥ 4 replicas, got %d", c.N)
	}
	if c.Directory == nil || c.Endpoint == nil {
		return errors.New("gateway: missing directory or endpoint factory")
	}
	if c.Upstreams <= 0 {
		c.Upstreams = 4
	}
	if c.Batch < 0 {
		return fmt.Errorf("gateway: Batch %d < 0 (1 sends one transaction per request)", c.Batch)
	}
	if c.Batch == 0 {
		c.Batch = 128
	}
	if c.Timeout <= 0 {
		c.Timeout = 500 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1 << 14
	}
	if c.BusyThreshold == 0 {
		c.BusyThreshold = 230
	}
	if c.BusyDecay <= 0 {
		c.BusyDecay = 4 * c.Timeout
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 8
	}
	if c.SessionIdle <= 0 {
		c.SessionIdle = 5 * time.Minute
	}
	return nil
}

// Stats is a snapshot of the gateway's counters.
type Stats struct {
	// Accepted counts submits admitted to the consensus queue; Completed
	// those answered StatusOK.
	Accepted  uint64
	Completed uint64
	// BusyRejected counts submits pushed back with StatusBusy (admission
	// queue full or replica gauge over threshold).
	BusyRejected uint64
	// DupAbsorbed counts duplicate submits of still-in-flight nonces
	// (answered by the original's reply); DupReplayed retries answered
	// from the reply cache; DupRejected retries whose cached reply was
	// already evicted, plus submits carrying the reserved nonce 0 (both
	// answered StatusRejected, never executed twice).
	DupAbsorbed uint64
	DupReplayed uint64
	DupRejected uint64
	// Requests counts consensus requests sent upstream; Retransmits the
	// upstream timeout retransmissions.
	Requests    uint64
	Retransmits uint64
	// ReadMismatches counts completed upstream batches whose quorum
	// outcome carried a read-result count different from the batch's
	// declared reads. The batch executed, so its sessions are answered
	// StatusRejected (dedup still advances — no re-execution) rather than
	// StatusOK replies with silently missing or misaligned reads.
	// Nonzero means an engine/replica bug.
	ReadMismatches uint64
	// Conns is the number of session connections ever accepted; Sessions
	// the session dedup states currently tracked (gateway-wide: they
	// survive reconnects and are evicted after Config.SessionIdle).
	Conns    uint64
	Sessions uint64
	// Busy is the latest replica queue-saturation gauge observed on a
	// consensus response (the admission controller's input).
	Busy uint8
}

// Gateway is the front door runtime. Create with New, feed it
// connections with Serve or ServeConn, stop with Close.
type Gateway struct {
	cfg Config

	upstreams []*upstream
	busy      atomic.Uint32 // latest replica gauge
	busyAt    atomic.Int64  // UnixNano when busy was last stored

	accepted       atomic.Uint64
	completed      atomic.Uint64
	busyRejected   atomic.Uint64
	dupAbsorbed    atomic.Uint64
	dupReplayed    atomic.Uint64
	dupRejected    atomic.Uint64
	requests       atomic.Uint64
	readMismatches atomic.Uint64
	connsTotal     atomic.Uint64
	sessionsLive   atomic.Int64

	// sessMu guards the gateway-wide session dedup table and the admission
	// queue behind it. It is taken once per hand-off, never once per
	// transaction: once per inbound frame (admit), once per upstream batch
	// drained (collect) and once per upstream batch completed (complete).
	// Keying the table here rather than per connection is what makes the
	// retry contract survive a reconnect: the state outlives the pipe that
	// created it.
	sessMu   sync.Mutex
	sessions map[uint64]*sessionState
	// queue is the admission queue, a ring of cfg.QueueCap slots: admitted
	// pendings wait here for an upstream. parked counts the upstreams
	// waiting in collect for it to fill; a push that finds one leaves a
	// token in wake.
	queue  []*pending
	qHead  int
	qLen   int
	parked int
	wake   chan struct{} // capacity 1: a token means "look at the queue again"

	mu     sync.Mutex
	conns  map[*gwConn]struct{}
	lns    map[net.Listener]struct{}
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup // upstream workers
	cwg  sync.WaitGroup // connection handlers + accept loops
}

// New builds a gateway and starts its upstream workers.
func New(cfg Config) (*Gateway, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g := newGateway(cfg)
	for i := 0; i < cfg.Upstreams; i++ {
		u, err := newUpstream(g, DefaultBaseClient+types.ClientID(i))
		if err != nil {
			g.Close()
			return nil, err
		}
		g.upstreams = append(g.upstreams, u)
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			u.run()
		}()
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.evictLoop()
	}()
	return g, nil
}

// newGateway builds the front door's state for a filled Config, with no
// worker running yet.
func newGateway(cfg Config) *Gateway {
	return &Gateway{
		cfg:      cfg,
		sessions: make(map[uint64]*sessionState),
		queue:    make([]*pending, cfg.QueueCap),
		wake:     make(chan struct{}, 1),
		conns:    make(map[*gwConn]struct{}),
		lns:      make(map[net.Listener]struct{}),
		stop:     make(chan struct{}),
	}
}

// evictLoop retires session dedup state that has sat idle (nothing in
// flight, no submit or completion) for SessionIdle — the bound that
// keeps a long-lived gateway's session table proportional to its live
// population rather than to every session id ever seen.
func (g *Gateway) evictLoop() {
	interval := g.cfg.SessionIdle / 4
	if interval < time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-g.cfg.SessionIdle).UnixNano()
		g.sessMu.Lock()
		for id, st := range g.sessions {
			if len(st.inflight) == 0 && st.lastActive < cutoff {
				delete(g.sessions, id)
				g.sessionsLive.Add(-1)
			}
		}
		g.sessMu.Unlock()
	}
}

// Stats returns a snapshot of the gateway's counters.
func (g *Gateway) Stats() Stats {
	var retransmits uint64
	for _, u := range g.upstreams {
		retransmits += u.link.Retransmits()
	}
	return Stats{
		Accepted:       g.accepted.Load(),
		Completed:      g.completed.Load(),
		BusyRejected:   g.busyRejected.Load(),
		DupAbsorbed:    g.dupAbsorbed.Load(),
		DupReplayed:    g.dupReplayed.Load(),
		DupRejected:    g.dupRejected.Load(),
		Requests:       g.requests.Load(),
		Retransmits:    retransmits,
		ReadMismatches: g.readMismatches.Load(),
		Conns:          g.connsTotal.Load(),
		Sessions:       uint64(max64(g.sessionsLive.Load(), 0)),
		Busy:           uint8(g.busy.Load()),
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Serve accepts session connections on ln until the gateway closes.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		ln.Close()
		return errors.New("gateway: closed")
	}
	g.lns[ln] = struct{}{}
	g.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-g.stop:
				return nil
			default:
				return err
			}
		}
		g.ServeConn(c)
	}
}

// ServeConn adopts one session connection; it returns immediately and
// the connection is handled until EOF, a protocol error, or Close.
func (g *Gateway) ServeConn(c net.Conn) {
	gc := newConn(g, c)
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		c.Close()
		return
	}
	g.conns[gc] = struct{}{}
	g.mu.Unlock()
	g.connsTotal.Add(1)
	g.cwg.Add(2)
	go func() {
		defer g.cwg.Done()
		gc.readLoop()
	}()
	go func() {
		defer g.cwg.Done()
		gc.writeLoop()
	}()
}

// Close stops the gateway: listeners stop accepting, session connections
// close, upstream workers drain and exit.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	close(g.stop)
	for ln := range g.lns {
		ln.Close()
	}
	conns := make([]*gwConn, 0, len(g.conns))
	for gc := range g.conns {
		conns = append(conns, gc)
	}
	g.mu.Unlock()
	for _, gc := range conns {
		gc.close()
	}
	g.cwg.Wait()
	g.wg.Wait()
	g.sessMu.Lock()
	g.sessionsLive.Add(-int64(len(g.sessions)))
	g.sessions = make(map[uint64]*sessionState)
	// Submits that raced the shutdown never reach an upstream; their
	// arenas must retire.
	for _, p := range g.popLocked(nil, g.qLen) {
		p.arena.Release()
	}
	g.sessMu.Unlock()
}

// noteBusy records a fresh replica saturation gauge from a completed
// consensus request, stamping when it was observed so admission can age
// it out.
func (g *Gateway) noteBusy(gauge uint8) {
	g.busy.Store(uint32(gauge))
	g.busyAt.Store(time.Now().UnixNano())
}

// admissionBusy reports whether new work should be pushed back based on
// the latest replica gauge. A saturated gauge older than BusyDecay is
// expired rather than obeyed: the gauge only refreshes when an upstream
// request completes, and a saturated admission gate sends no upstream
// requests — without the expiry, the last reading before the queue
// drained would pin the gateway in StatusBusy forever.
func (g *Gateway) admissionBusy() (uint8, bool) {
	gauge := uint8(g.busy.Load())
	if gauge < g.cfg.BusyThreshold {
		return gauge, false
	}
	if time.Now().UnixNano()-g.busyAt.Load() > int64(g.cfg.BusyDecay) {
		// Stale: clear so later admissions skip the timestamp check. A
		// concurrent noteBusy may overwrite with a fresher reading — that
		// ordering race is benign either way.
		g.busy.Store(0)
		return 0, false
	}
	return gauge, true
}

// pending is one admitted session transaction traveling toward consensus.
// It retains a reference on its frame's arena (ops alias the frame
// buffer) until the reply is delivered. A frame's pendings are carved from
// one slab.
type pending struct {
	conn    *gwConn
	session uint64
	nonce   uint64
	ops     []types.Op
	reads   int // read ops, for slicing the batched read results
	arena   *types.Arena
}

// pushLocked appends admitted pendings to the admission queue and, when an
// upstream is parked on it, leaves a wake-up token. The caller holds
// sessMu and has checked that they fit (room).
func (g *Gateway) pushLocked(ps []pending) {
	for i := range ps {
		g.queue[(g.qHead+g.qLen)%len(g.queue)] = &ps[i]
		g.qLen++
	}
	if len(ps) > 0 {
		g.wakeParkedLocked()
	}
}

// popLocked moves up to max pendings from the head of the admission queue
// onto dst. The caller holds sessMu.
func (g *Gateway) popLocked(dst []*pending, max int) []*pending {
	for ; max > 0 && g.qLen > 0; max-- {
		dst = append(dst, g.queue[g.qHead])
		g.queue[g.qHead] = nil
		g.qHead = (g.qHead + 1) % len(g.queue)
		g.qLen--
	}
	return dst
}

// wakeParkedLocked leaves the wake-up token if an upstream is parked.
func (g *Gateway) wakeParkedLocked() {
	if g.parked > 0 {
		select {
		case g.wake <- struct{}{}:
		default: // a token is already waiting to be picked up
		}
	}
}

// sessionState is the per-session dedup record: the in-flight nonces, the
// completed high-water mark, and a fixed ring of cached replies. It lives
// in the Gateway's session table (session ids are a gateway-global
// namespace), so the retry contract holds across the session's connection
// dropping and reconnecting; lastActive drives the SessionIdle eviction.
type sessionState struct {
	high uint64 // highest completed nonce (0 = none yet)
	// cache holds the last ≤ DedupWindow completed replies. It is
	// allocated once at that capacity, fills by append, and from then on
	// the oldest entry, at evict, is overwritten in place.
	cache []Reply
	evict int
	// inflight lists the nonces admitted and not yet completed: nearly
	// always zero or one for a closed-loop session, so a slice scanned
	// linearly, its capacity kept across transactions.
	inflight   []uint64
	lastActive int64 // UnixNano of the last submit or completion
}

// isInflight reports whether nonce is admitted and not yet completed.
func (st *sessionState) isInflight(nonce uint64) bool {
	for _, n := range st.inflight {
		if n == nonce {
			return true
		}
	}
	return false
}

// clearInflight forgets an in-flight nonce (completed or abandoned).
func (st *sessionState) clearInflight(nonce uint64) {
	for i, n := range st.inflight {
		if n == nonce {
			last := len(st.inflight) - 1
			st.inflight[i] = st.inflight[last]
			st.inflight = st.inflight[:last]
			return
		}
	}
}

// complete records a consensus outcome: the nonce leaves the in-flight
// set, the high-water mark advances and the reply enters the ring,
// displacing the oldest once window replies are cached.
func (st *sessionState) complete(nonce uint64, r Reply, now int64, window int) {
	st.clearInflight(nonce)
	if nonce > st.high {
		st.high = nonce
	}
	st.lastActive = now
	switch {
	case st.cache == nil:
		st.cache = append(make([]Reply, 0, window), r)
	case len(st.cache) < window:
		st.cache = append(st.cache, r)
	default:
		st.cache[st.evict] = r
		st.evict = (st.evict + 1) % window
	}
}

// cached returns the cached reply for a completed nonce, if the ring
// still holds it.
func (st *sessionState) cached(nonce uint64) (Reply, bool) {
	for i := range st.cache {
		if st.cache[i].Nonce == nonce {
			return st.cache[i], true
		}
	}
	return Reply{}, false
}

// replyBacklog bounds the replies a connection holds for its write loop.
// A delivery waits while the backlog is at the bound and is then appended
// whole, so the backlog never exceeds the bound by more than one delivery
// (an upstream batch or a frame's worth of replies).
const replyBacklog = 4096

// gwConn is one multiplexed session connection: a pipe for frames, not
// the home of session state.
type gwConn struct {
	gw   *Gateway
	c    net.Conn
	bufs *pool.BytePool

	// mu guards out and closed. The write loop waits on ready for out to
	// gain replies; deliverers wait on room while out is at replyBacklog.
	mu     sync.Mutex
	ready  sync.Cond
	room   sync.Cond
	out    []Reply
	closed bool
	once   sync.Once
}

func newConn(g *Gateway, c net.Conn) *gwConn {
	gc := &gwConn{gw: g, c: c, bufs: new(pool.BytePool)}
	gc.ready.L, gc.room.L = &gc.mu, &gc.mu
	return gc
}

// close tears the connection down exactly once: the socket closes (which
// unblocks the read loop and a write loop stuck in Write) and closed
// releases the write loop and any upstream waiting to deliver a reply.
// Session dedup state is untouched — it belongs to the gateway and keeps
// answering retries after the session reconnects.
func (gc *gwConn) close() {
	gc.once.Do(func() {
		gc.mu.Lock()
		gc.closed = true
		gc.out = nil
		gc.mu.Unlock()
		gc.ready.Broadcast()
		gc.room.Broadcast()
		gc.c.Close()
		gc.gw.mu.Lock()
		delete(gc.gw.conns, gc)
		gc.gw.mu.Unlock()
	})
}

// readLoop decodes inbound frames and runs each through admission. Any
// decode error closes the connection — a corrupt multiplexed stream
// cannot be resynchronized.
func (gc *gwConn) readLoop() {
	defer gc.close()
	br := bufio.NewReaderSize(gc.c, 1<<16)
	for {
		f, err := readSessionFrame(br, gc.bufs)
		if err != nil {
			return
		}
		gc.admit(f.Submits, f.Arena)
		f.Arena.Release() // drop the reader's reference
	}
}

// admit runs one frame's submits through dedup and admission in a single
// critical section with a single clock reading: what is per transaction
// here is a table lookup and a slot in the frame's pending slab. The
// caller owns a reference on arena; every admitted pending retains its
// own. Submits answered on the spot (duplicates, pushback) get their
// replies in one delivery after the lock is dropped.
func (gc *gwConn) admit(subs []Submit, arena *types.Arena) {
	if len(subs) == 0 {
		return
	}
	gw := gc.gw
	// Admission: replica saturation or a full queue is explicit pushback,
	// not a silent drop. A pushed-back submit is NOT marked in flight, so
	// the retry (same nonce) is a fresh admission attempt.
	gauge, saturated := gw.admissionBusy()
	now := time.Now().UnixNano()
	slab := make([]pending, 0, len(subs))
	var replies []Reply
	var absorbed, replayed, rejected, pushedBack uint64

	gw.sessMu.Lock()
	// Every pusher holds sessMu, so the room read here can only grow.
	room := len(gw.queue) - gw.qLen
	for i := range subs {
		s := &subs[i]
		// Nonce 0 is reserved: the dedup high-water mark uses 0 for
		// "nothing completed yet", so a completed nonce 0 could never be
		// recognized as a duplicate and its retry would re-execute. Reject
		// it outright — the wire contract says nonces start at 1.
		if s.Nonce == 0 {
			rejected++
			replies = append(replies, Reply{Session: s.Session, Nonce: 0, Status: StatusRejected})
			continue
		}
		st := gw.sessions[s.Session]
		if st == nil {
			st = &sessionState{}
			gw.sessions[s.Session] = st
			gw.sessionsLive.Add(1)
		}
		st.lastActive = now
		// Dedup before admission: a retry of work already accepted must
		// never be double-executed OR pushed back — it is answered from
		// the session's state alone.
		if st.isInflight(s.Nonce) {
			absorbed++ // the original's reply answers this retry
			continue
		}
		if s.Nonce <= st.high {
			if r, ok := st.cached(s.Nonce); ok {
				replayed++
				replies = append(replies, r)
			} else {
				rejected++
				replies = append(replies, Reply{Session: s.Session, Nonce: s.Nonce, Status: StatusRejected})
			}
			continue
		}
		if saturated || len(slab) == room {
			pushedBack++
			replies = append(replies, Reply{Session: s.Session, Nonce: s.Nonce, Status: StatusBusy, Busy: gauge})
			continue
		}
		reads := 0
		for j := range s.Ops {
			if s.Ops[j].Kind == types.OpRead || s.Ops[j].Kind == types.OpScan {
				// Both produce one entry in the batched read results; the
				// reply spans slice by that count.
				reads++
			}
		}
		arena.Retain() // the pending's reference, held before an upstream can see it
		slab = append(slab, pending{conn: gc, session: s.Session, nonce: s.Nonce, ops: s.Ops, reads: reads, arena: arena})
		st.inflight = append(st.inflight, s.Nonce)
	}
	gw.pushLocked(slab)
	gw.sessMu.Unlock()

	gw.accepted.Add(uint64(len(slab)))
	gw.dupAbsorbed.Add(absorbed)
	gw.dupReplayed.Add(replayed)
	gw.dupRejected.Add(rejected)
	gw.busyRejected.Add(pushedBack)
	gc.deliver(replies)
}

// deliver hands replies to the write loop as one append and one wake-up.
// It blocks only against a live connection whose backlog is at
// replyBacklog (backpressure toward a slow session pipe); a closed
// connection drops them — the session's dedup cache (which outlives the
// connection) answers the inevitable retry.
func (gc *gwConn) deliver(replies []Reply) {
	if len(replies) == 0 {
		return
	}
	gc.mu.Lock()
	for len(gc.out) >= replyBacklog && !gc.closed {
		gc.room.Wait()
	}
	if !gc.closed {
		gc.out = append(gc.out, replies...)
	}
	gc.mu.Unlock()
	gc.ready.Signal()
}

// writeLoop drains the backlog a whole slice at a time (it and the
// deliverers swap two buffers), writes it as frames of at most
// maxFrameMessages replies, and flushes when nothing more is waiting.
func (gc *gwConn) writeLoop() {
	defer gc.close()
	bw := bufio.NewWriterSize(gc.c, 1<<16)
	w := types.GetWriter()
	defer types.PutWriter(w)
	var batch []Reply
	for {
		gc.mu.Lock()
		if len(gc.out) == 0 && !gc.closed {
			gc.mu.Unlock()
			if err := bw.Flush(); err != nil {
				return
			}
			gc.mu.Lock()
			for len(gc.out) == 0 && !gc.closed {
				gc.ready.Wait()
			}
		}
		if gc.closed {
			gc.mu.Unlock()
			return
		}
		batch, gc.out = gc.out, batch[:0]
		gc.mu.Unlock()
		gc.room.Broadcast()
		for off := 0; off < len(batch); {
			frame := batch[off:min(off+maxFrameMessages, len(batch))]
			w.Reset()
			for i := range frame {
				appendReply(w, &frame[i])
			}
			if err := writeSessionFrame(bw, len(frame), w.Bytes()); err != nil {
				return
			}
			off += len(frame)
		}
		clear(batch) // the read results must not outlive the write
	}
}
