package gateway

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/pool"
	"resilientdb/internal/stats"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// LoadConfig parameterizes a session load generator: Sessions independent
// closed-loop sessions multiplexed over Conns shared connections. This is
// the point of the tier — the session count is bookkeeping (a few dozen
// bytes each), not goroutines-times-connections, so one process can
// simulate hundreds of thousands of clients against a handful of sockets.
type LoadConfig struct {
	// Sessions is the number of simulated closed-loop sessions; Conns the
	// number of gateway connections they share (default 4).
	Sessions int
	Conns    int
	// Dial opens one gateway connection.
	Dial func() (net.Conn, error)
	// Workload configures the per-session transaction generator; Seed
	// salts it per connection.
	Workload workload.Config
	Seed     int64
	// RetryTimeout is how long a session waits for a reply before
	// retrying with the same nonce (default 1s). Retries are safe by the
	// gateway's dedup contract.
	RetryTimeout time.Duration
}

func (c *LoadConfig) fill() error {
	if c.Sessions <= 0 {
		return fmt.Errorf("gateway: load needs sessions ≥ 1, got %d", c.Sessions)
	}
	if c.Dial == nil {
		return fmt.Errorf("gateway: load needs a dialer")
	}
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Conns > c.Sessions {
		c.Conns = c.Sessions
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = time.Second
	}
	if c.Workload.Records == 0 {
		c.Workload = workload.Default()
	}
	return nil
}

// LoadStats is a snapshot of the load generator's counters.
type LoadStats struct {
	// Completed counts transactions acknowledged StatusOK; Rejected the
	// StatusRejected acks (evicted dedup entries — executed, reply lost).
	Completed uint64
	Rejected  uint64
	// BusyReplies counts StatusBusy pushbacks; Retries the same-nonce
	// retransmissions after RetryTimeout.
	BusyReplies uint64
	Retries     uint64
}

// Load drives LoadConfig.Sessions simulated sessions against a gateway.
type Load struct {
	cfg LoadConfig
	lat *stats.Histogram

	completed atomic.Uint64
	rejected  atomic.Uint64
	busy      atomic.Uint64
	retries   atomic.Uint64
}

// NewLoad builds a load generator.
func NewLoad(cfg LoadConfig) (*Load, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Load{cfg: cfg, lat: &stats.Histogram{}}, nil
}

// Latency exposes the end-to-end submit→ack histogram (OK acks only).
func (l *Load) Latency() *stats.Histogram { return l.lat }

// Stats returns a snapshot of the counters.
func (l *Load) Stats() LoadStats {
	return LoadStats{
		Completed:   l.completed.Load(),
		Rejected:    l.rejected.Load(),
		BusyReplies: l.busy.Load(),
		Retries:     l.retries.Load(),
	}
}

// loadSession is one simulated closed-loop session: a few dozen bytes of
// state, no goroutine, no connection.
type loadSession struct {
	nonce  uint64
	ops    []types.Op
	start  time.Time // first send of the current nonce; zero = not sent yet
	queued bool      // an entry for this session sits in sendQ
	done   bool      // stop resubmitting (shutdown)
}

// loadConn is one shared gateway connection carrying a contiguous slice
// of the session space.
type loadConn struct {
	l        *Load
	c        net.Conn
	base     uint64 // global id of sessions[0]
	sessions []loadSession
	mu       sync.Mutex
	sendQ    chan int // session index within this conn; never blocks (queued flag)
	wl       *workload.Workload
	done     chan struct{}
	once     sync.Once
}

func (lc *loadConn) close() {
	lc.once.Do(func() {
		close(lc.done)
		lc.c.Close()
	})
}

// Run drives the sessions until ctx ends. It dials the connections,
// multiplexes the sessions over them, and tears everything down on exit.
func (l *Load) Run(ctx context.Context) error {
	per := l.cfg.Sessions / l.cfg.Conns
	extra := l.cfg.Sessions % l.cfg.Conns
	conns := make([]*loadConn, 0, l.cfg.Conns)
	defer func() {
		for _, lc := range conns {
			lc.close()
		}
	}()
	base := uint64(0)
	for i := 0; i < l.cfg.Conns; i++ {
		count := per
		if i < extra {
			count++
		}
		c, err := l.cfg.Dial()
		if err != nil {
			return fmt.Errorf("gateway: load dial: %w", err)
		}
		wl, err := workload.New(l.cfg.Workload, l.cfg.Seed+int64(i)+1)
		if err != nil {
			c.Close()
			return err
		}
		lc := &loadConn{
			l:        l,
			c:        c,
			base:     base,
			sessions: make([]loadSession, count),
			sendQ:    make(chan int, count+1),
			wl:       wl,
			done:     make(chan struct{}),
		}
		base += uint64(count)
		conns = append(conns, lc)
	}
	var wg sync.WaitGroup
	for _, lc := range conns {
		// Seed every session's first transaction, then start the pumps.
		lc.mu.Lock()
		for i := range lc.sessions {
			s := &lc.sessions[i]
			s.nonce = 1
			s.ops = lc.nextOps(uint64(i), s.nonce)
			s.queued = true
			lc.sendQ <- i
		}
		lc.mu.Unlock()
		wg.Add(3)
		go func(lc *loadConn) { defer wg.Done(); lc.writeLoop() }(lc)
		go func(lc *loadConn) { defer wg.Done(); lc.readLoop() }(lc)
		go func(lc *loadConn) { defer wg.Done(); lc.sweepLoop() }(lc)
	}
	<-ctx.Done()
	for _, lc := range conns {
		lc.close()
	}
	wg.Wait()
	return nil
}

// nextOps draws one transaction's operations from the shared per-conn
// generator. Callers hold lc.mu (the generator is not thread-safe).
func (lc *loadConn) nextOps(sess, nonce uint64) []types.Op {
	txn := lc.wl.NextTransaction(types.ClientID(lc.base+sess), nonce)
	return txn.Ops
}

// writeLoop drains sendQ, coalescing whatever it holds, up to
// maxFrameMessages, into one frame, and flushes when sendQ is empty.
func (lc *loadConn) writeLoop() {
	defer lc.close()
	bw := bufio.NewWriterSize(lc.c, 1<<16)
	w := types.GetWriter()
	defer types.PutWriter(w)
	for {
		var first int
		select {
		case first = <-lc.sendQ:
		case <-lc.done:
			return
		}
		w.Reset()
		count := 0
		lc.marshalSubmit(w, first, &count)
	coalesce:
		for count < maxFrameMessages {
			select {
			case i := <-lc.sendQ:
				lc.marshalSubmit(w, i, &count)
			default:
				break coalesce
			}
		}
		if count == 0 {
			continue
		}
		if err := writeSessionFrame(bw, count, w.Bytes()); err != nil {
			return
		}
		if len(lc.sendQ) == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// marshalSubmit appends session i's current submit to the frame under
// construction, stamping its first-send time.
func (lc *loadConn) marshalSubmit(w *types.Writer, i int, count *int) {
	lc.mu.Lock()
	s := &lc.sessions[i]
	s.queued = false
	if s.done {
		lc.mu.Unlock()
		return
	}
	sub := Submit{Session: lc.base + uint64(i), Nonce: s.nonce, Ops: s.ops}
	if s.start.IsZero() {
		s.start = time.Now()
	}
	lc.mu.Unlock()
	appendSubmit(w, &sub)
	*count++
}

// readLoop consumes replies, advancing each acknowledged session to its
// next transaction (the closed loop).
func (lc *loadConn) readLoop() {
	defer lc.close()
	br := bufio.NewReaderSize(lc.c, 1<<16)
	bufs := new(pool.BytePool)
	for {
		f, err := readSessionFrame(br, bufs)
		if err != nil {
			return
		}
		for i := range f.Replies {
			lc.handleReply(&f.Replies[i])
		}
		f.Arena.Release()
	}
}

func (lc *loadConn) handleReply(r *Reply) {
	idx := r.Session - lc.base
	if idx >= uint64(len(lc.sessions)) {
		return
	}
	l := lc.l
	lc.mu.Lock()
	s := &lc.sessions[idx]
	if r.Nonce != s.nonce || s.done {
		lc.mu.Unlock()
		return // stale: a late reply for a nonce the session moved past
	}
	switch r.Status {
	case StatusOK, StatusRejected:
		elapsed := time.Since(s.start)
		s.nonce++
		s.ops = lc.nextOps(idx, s.nonce)
		s.start = time.Time{}
		enqueue := !s.queued
		if enqueue {
			s.queued = true
		}
		lc.mu.Unlock()
		if r.Status == StatusOK {
			l.completed.Add(1)
			l.lat.Record(elapsed)
		} else {
			l.rejected.Add(1)
		}
		if enqueue {
			select {
			case lc.sendQ <- int(idx):
			case <-lc.done:
			}
		}
	case StatusBusy:
		// Leave the nonce in flight; the sweeper retries it after the
		// timeout, pacing the session off the overloaded gateway.
		lc.mu.Unlock()
		l.busy.Add(1)
	default:
		lc.mu.Unlock()
	}
}

// sweepLoop retries sessions whose submit has been unanswered (lost,
// pushed back busy, or raced a gateway restart) for RetryTimeout. The
// retry reuses the same nonce and ops — the gateway's dedup makes the
// retransmission idempotent.
func (lc *loadConn) sweepLoop() {
	interval := lc.l.cfg.RetryTimeout / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-lc.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		var resend []int
		lc.mu.Lock()
		for i := range lc.sessions {
			s := &lc.sessions[i]
			if s.done || s.queued || s.start.IsZero() {
				continue
			}
			if now.Sub(s.start) >= lc.l.cfg.RetryTimeout {
				s.queued = true
				resend = append(resend, i)
			}
		}
		lc.mu.Unlock()
		for _, i := range resend {
			lc.l.retries.Add(1)
			select {
			case lc.sendQ <- i:
			case <-lc.done:
				return
			}
		}
	}
}
