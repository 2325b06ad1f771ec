package gateway

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"resilientdb/internal/loadgen"
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
	// Workload configures the sessions' transaction generator; connection
	// i's sessions draw from Seed+i.
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

// LoadStats is a snapshot of the load's counters: Completed counts
// StatusOK transactions, Retries the same-nonce retries after RetryTimeout.
type LoadStats = loadgen.Stats

// Load drives LoadConfig.Sessions simulated sessions against a gateway:
// a loadgen.Generator whose carriers are the connections.
type Load struct {
	cfg   LoadConfig
	gen   *loadgen.Generator
	conns []*loadConn
	last  loadgen.Result
}

// NewLoad builds a load generator.
func NewLoad(cfg LoadConfig) (*Load, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	l := &Load{cfg: cfg, gen: loadgen.New(loadgen.Config{Workload: cfg.Workload, Seed: cfg.Seed})}
	per, extra := cfg.Sessions/cfg.Conns, cfg.Sessions%cfg.Conns
	for i := 0; i < cfg.Conns; i++ {
		count := per
		if i < extra {
			count++
		}
		lc := &loadConn{retry: cfg.RetryTimeout}
		if _, err := l.gen.Add(count, lc); err != nil {
			return nil, err
		}
		l.conns = append(l.conns, lc)
	}
	return l, nil
}

// Latency merges the connections' submit→ack histograms (OK acks only).
func (l *Load) Latency() *stats.Histogram { return l.gen.Latency() }

// Stats returns a snapshot of the counters.
func (l *Load) Stats() LoadStats { return l.gen.Stats() }

// Result summarizes the last Run.
func (l *Load) Result() loadgen.Result { return l.last }

// Run dials the connections and drives the sessions over them until ctx
// ends, tearing the connections down on exit.
func (l *Load) Run(ctx context.Context) error {
	for i, lc := range l.conns {
		c, err := l.cfg.Dial()
		if err != nil {
			for _, dialed := range l.conns[:i] {
				dialed.c.Close()
			}
			return fmt.Errorf("gateway: load dial: %w", err)
		}
		lc.c = c
	}
	l.last = l.gen.Run(ctx)
	return nil
}

// loadConn carries one carrier's sessions over one gateway connection,
// dialed by Load.Run: a writer coalescing queued submits into frames, a
// reader completing sessions, and a sweeper retrying the unanswered. mu
// guards the sessions, sent and the carrier's draw; sendQ holds session
// indexes and never blocks (a session is queued at most once, marked
// Queued). sent is when each session's request was last written, its
// first send or its latest retry: the sweeper times a retry from it, while
// the session's Start, and so its latency, stays at the first send.
type loadConn struct {
	retry   time.Duration
	c       net.Conn
	carrier *loadgen.Carrier
	mu      sync.Mutex
	sent    []time.Time
	sendQ   chan int
	done    chan struct{}
	once    *sync.Once
}

func (lc *loadConn) close() {
	lc.once.Do(func() {
		close(lc.done)
		lc.c.Close()
	})
}

// Carry queues every session's request in flight, runs the connection's
// writer, reader and sweeper until ctx ends, and closes the connection.
func (lc *loadConn) Carry(ctx context.Context, c *loadgen.Carrier) {
	lc.carrier = c
	lc.sendQ = make(chan int, len(c.Sessions)+1)
	lc.done = make(chan struct{})
	lc.once = new(sync.Once)
	lc.mu.Lock()
	lc.sent = make([]time.Time, len(c.Sessions))
	for i := range c.Sessions {
		s := &c.Sessions[i]
		s.Start = time.Time{} // a new connection: the clock starts at its first send
		s.Queued = true
		lc.sendQ <- i
	}
	lc.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); lc.writeLoop() }()
	go func() { defer wg.Done(); lc.readLoop() }()
	go func() { defer wg.Done(); lc.sweepLoop() }()
	<-ctx.Done()
	lc.close()
	wg.Wait()
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
		startSessionFrame(w)
		lc.marshalSubmit(w, first)
		count := 1
	coalesce:
		for count < maxFrameMessages {
			select {
			case i := <-lc.sendQ:
				lc.marshalSubmit(w, i)
				count++
			default:
				break coalesce
			}
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

// marshalSubmit appends session i's request in flight to the frame under
// construction, starting its clock at its first send and its retry timer at
// every send.
func (lc *loadConn) marshalSubmit(w *types.Writer, i int) {
	lc.mu.Lock()
	s := &lc.carrier.Sessions[i]
	s.Queued = false
	if s.Start.IsZero() {
		lc.carrier.Begin(s)
	}
	lc.sent[i] = time.Now()
	sub := Submit{Session: uint64(s.ID), Nonce: s.Seq, Ops: s.Req.Txns[0].Ops}
	lc.mu.Unlock()
	appendSubmit(w, &sub)
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
		f.release()
	}
}

func (lc *loadConn) handleReply(r *Reply) {
	c := lc.carrier
	idx := r.Session - uint64(c.Sessions[0].ID)
	if idx >= uint64(len(c.Sessions)) {
		return
	}
	lc.mu.Lock()
	s := &c.Sessions[idx]
	if r.Nonce != s.Seq {
		lc.mu.Unlock()
		return // stale: a late reply for a nonce the session moved past
	}
	switch r.Status {
	case StatusOK, StatusRejected:
		ack := loadgen.Acked
		if r.Status == StatusRejected {
			ack = loadgen.Rejected
		}
		c.Complete(s, ack)
		enqueue := !s.Queued
		s.Queued = true
		lc.mu.Unlock()
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
		c.Busy()
	default:
		lc.mu.Unlock()
	}
}

// sweepLoop retries sessions whose latest send has been unanswered (lost,
// pushed back busy, or raced a gateway restart) for the retry timeout, so an
// unanswered session is retried once per timeout. The retry reuses the same
// nonce and ops — the gateway's dedup makes the retransmission idempotent.
func (lc *loadConn) sweepLoop() {
	interval := lc.retry / 2
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
		for i := range lc.carrier.Sessions {
			s := &lc.carrier.Sessions[i]
			if s.Queued || lc.sent[i].IsZero() {
				continue
			}
			if now.Sub(lc.sent[i]) >= lc.retry {
				s.Queued = true
				resend = append(resend, i)
			}
		}
		lc.mu.Unlock()
		for _, i := range resend {
			lc.carrier.Retried(1)
			select {
			case lc.sendQ <- i:
			case <-lc.done:
				return
			}
		}
	}
}
