// Package loadgen is the closed-loop load generator of Section 5.1: k
// sessions, each with at most one request in flight. They are split among
// carriers, each on its own Transport: one client identity on a consensus
// Link (AddDirect), or one gateway connection (package gateway). Carrier i
// draws from the workload salted Seed+i. Every answer takes one path,
// Carrier.Complete: count it, record its latency once into the carrier's
// histogram for its kind, draw the session's next request. Stats and
// Latency sum and merge the carriers when read.
package loadgen

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/stats"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// Config parameterizes a generator.
type Config struct {
	// Workload configures the transaction generator; Seed salts it, Seed+i
	// for carrier i.
	Workload workload.Config
	Seed     int64
	// Burst is the number of transactions per request (client-side
	// batching, Section 4.2); below 1 means 1. A gateway session sends one.
	Burst int
}

// kind classifies a request write over scan over read: any write makes it
// a write (it must travel through consensus), else any scan a scan.
type kind uint8

const (
	kindRead kind = iota
	kindScan
	kindWrite
	kinds
)

// Ack is how a carrier's request was answered.
type Ack uint8

const (
	Acked      Ack = iota // through consensus, or the gateway's StatusOK
	AckedLocal            // by one replica's local read
	Rejected              // the gateway's StatusRejected: counted, no latency
)

// Stats is a snapshot of a generator's counters, summed over its carriers.
type Stats struct {
	// Completed counts acknowledged transactions; Requests the requests
	// sent (a local read that fell back to quorum counts twice); Retries the
	// retransmissions; Rejected and BusyReplies the gateway's
	// StatusRejected and StatusBusy answers.
	Completed   uint64
	Requests    uint64
	Retries     uint64
	Rejected    uint64
	BusyReplies uint64
	// ReadTxns, ScanTxns and WriteTxns split Completed by request kind,
	// write over scan over read. LocalReads counts AckedLocal requests;
	// StaleFallbacks the local reads every replica refused as stale, re-run
	// through consensus.
	ReadTxns       uint64
	ScanTxns       uint64
	WriteTxns      uint64
	LocalReads     uint64
	StaleFallbacks uint64
}

// Session is one closed-loop client identity; its Transport serializes
// access to it. ID is its client identity or gateway session number, Req
// the request in flight at sequence (nonce) Seq, Start when Req was begun
// (zero before), and Queued a Transport's mark for a queued session. A
// session's first sequence is its generator's start (see New). Req's
// transactions, ops and values live in the session's own arrays, which
// every draw overwrites: Req is valid until the session's next Complete.
type Session struct {
	ID     types.ClientID
	Seq    uint64
	Req    types.ClientRequest
	kind   kind
	Start  time.Time
	Queued bool
	txns   []types.Transaction
	ops    []types.Op
	slab   []byte
}

// Carrier is one Transport's share of the sessions, their workload stream,
// and the counters and per-kind histograms their answers book into.
type Carrier struct {
	Sessions []Session

	burst int
	wl    *workload.Workload
	t     Transport
	lat   [kinds]stats.Histogram
	txns  [kinds]atomic.Uint64

	requests, retries, rejected, busy, local, stale atomic.Uint64
}

// A Transport carries one carrier's sessions to the system under test: it
// sends each session's request, calls Complete when it is answered, and
// returns once ctx ends.
type Transport interface {
	Carry(ctx context.Context, c *Carrier)
}

// Generator is the closed-loop generator: its carriers and their sessions.
type Generator struct {
	cfg      Config
	carriers []*Carrier
	sessions int
	first    uint64 // every session's first sequence
}

// New returns a generator with no carriers. Its sessions start at the wall
// clock in nanoseconds: client identities are session numbers, so another
// generator — another resdb-client process, or one run before this in the
// same process — used the same identities, and replicas skip a sequence at
// or below the last they executed for an identity as a duplicate. A
// session spends a sequence per transaction and takes far longer than a
// nanosecond per transaction, so no earlier generator can have reached
// this one's start.
func New(cfg Config) *Generator {
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	return &Generator{cfg: cfg, first: uint64(time.Now().UnixNano())}
}

// Add appends a carrier of n sessions carried by t, numbered after the
// previous carrier's, and draws each session's first request. Add every
// carrier before Run, Stats or Latency.
func (g *Generator) Add(n int, t Transport) (*Carrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("loadgen: a carrier needs sessions ≥ 1, got %d", n)
	}
	wl, err := workload.New(g.cfg.Workload, g.cfg.Seed+int64(len(g.carriers)))
	if err != nil {
		return nil, err
	}
	c := &Carrier{Sessions: make([]Session, n), burst: g.cfg.Burst, wl: wl, t: t}
	// Every session's storage is cut from three carrier-wide arrays.
	burst, per, size := g.cfg.Burst, g.cfg.Workload.OpsPerTxn, wl.SlabSize(g.cfg.Burst)
	txns := make([]types.Transaction, n*burst)
	ops := make([]types.Op, n*burst*per)
	slab := make([]byte, n*size)
	for i := range c.Sessions {
		s := &c.Sessions[i]
		s.ID = types.ClientID(g.sessions + i)
		s.Seq = g.first
		s.txns = txns[i*burst : (i+1)*burst : (i+1)*burst]
		s.ops = ops[i*burst*per : (i+1)*burst*per : (i+1)*burst*per]
		s.slab = slab[i*size : (i+1)*size : (i+1)*size]
		c.draw(s)
	}
	g.carriers = append(g.carriers, c)
	g.sessions += n
	return c, nil
}

// Run drives every carrier until ctx ends, each over its Transport in its
// own goroutine, and summarizes the run. Sessions keep their state across
// runs: a request still in flight when one run ends is sent again, under
// the same sequence, by the next.
func (g *Generator) Run(ctx context.Context) Result {
	before := g.Stats()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range g.carriers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.t.Carry(ctx, c)
		}()
	}
	wg.Wait()
	return g.result(before, time.Since(start))
}

// Stats sums the carriers' counters.
func (g *Generator) Stats() Stats {
	var s Stats
	for _, c := range g.carriers {
		s.ReadTxns += c.txns[kindRead].Load()
		s.ScanTxns += c.txns[kindScan].Load()
		s.WriteTxns += c.txns[kindWrite].Load()
		s.Requests += c.requests.Load()
		s.Retries += c.retries.Load()
		s.Rejected += c.rejected.Load()
		s.BusyReplies += c.busy.Load()
		s.LocalReads += c.local.Load()
		s.StaleFallbacks += c.stale.Load()
	}
	s.Completed = s.ReadTxns + s.ScanTxns + s.WriteTxns
	return s
}

// Latency merges every carrier's histograms: each answered request's
// latency (Rejected answers record none) since the generator was built.
func (g *Generator) Latency() *stats.Histogram {
	h := &stats.Histogram{}
	for k := kindRead; k < kinds; k++ {
		h.Merge(g.kindLatency(k))
	}
	return h
}

// kindLatency merges the carriers' histograms for one request kind.
func (g *Generator) kindLatency(k kind) *stats.Histogram {
	h := &stats.Histogram{}
	for _, c := range g.carriers {
		h.Merge(&c.lat[k])
	}
	return h
}

// Begin starts the clock on s's request and counts it sent.
func (c *Carrier) Begin(s *Session) {
	s.Start = time.Now()
	c.requests.Add(1)
}

// Complete books the answer to s's request and draws s's next: it counts
// the request's transactions (or the rejection), records its latency since
// Begin into the histogram for its kind, and moves s to the next request at
// the following sequence.
func (c *Carrier) Complete(s *Session, a Ack) {
	if a == Rejected {
		c.rejected.Add(1)
	} else {
		c.lat[s.kind].Record(time.Since(s.Start))
		c.txns[s.kind].Add(uint64(len(s.Req.Txns)))
		if a == AckedLocal {
			c.local.Add(1)
		}
	}
	s.Seq += uint64(len(s.Req.Txns))
	s.Start = time.Time{}
	c.draw(s)
}

// Retried counts n retransmissions.
func (c *Carrier) Retried(n uint64) { c.retries.Add(n) }

// Busy counts one busy pushback.
func (c *Carrier) Busy() { c.busy.Add(1) }

// Stale counts one local read every replica refused as stale.
func (c *Carrier) Stale() { c.stale.Add(1) }

// draw sets s's request to the next one at s.Seq, filled into the
// session's own arrays: a draw allocates nothing.
func (c *Carrier) draw(s *Session) {
	c.wl.Fill(s.ID, s.Seq, s.txns, s.ops, s.slab)
	s.Req = types.ClientRequest{Client: s.ID, FirstSeq: s.Seq, Txns: s.txns}
	s.kind = kindOf(&s.Req)
}

// kindOf classifies req write over scan over read. An empty request counts
// as a write so it never rides the local read path.
func kindOf(req *types.ClientRequest) kind {
	if len(req.Txns) == 0 {
		return kindWrite
	}
	k := kindRead
	for i := range req.Txns {
		for j := range req.Txns[i].Ops {
			switch req.Txns[i].Ops[j].Kind {
			case types.OpScan:
				k = kindScan
			case types.OpRead:
			default:
				return kindWrite
			}
		}
	}
	return k
}

// Result summarizes a load run: its counters are deltas over the run, its
// latencies the merged histograms of every carrier since the generator was
// built.
type Result struct {
	Duration   time.Duration
	Txns       uint64
	Throughput float64 // transactions per second (client-side completions)
	MeanLat    time.Duration
	P50Lat     time.Duration
	P99Lat     time.Duration
	Retransmit uint64
	// Read/scan/write split as in Stats; the per-kind percentiles come
	// from the per-kind histograms.
	ReadTxns       uint64
	ScanTxns       uint64
	WriteTxns      uint64
	LocalReads     uint64
	StaleFallbacks uint64
	ReadP50Lat     time.Duration
	ReadP95Lat     time.Duration
	ReadP99Lat     time.Duration
	ScanP50Lat     time.Duration
	ScanP95Lat     time.Duration
	ScanP99Lat     time.Duration
	WriteP50Lat    time.Duration
	WriteP95Lat    time.Duration
	WriteP99Lat    time.Duration
}

// result summarizes the run that began when the counters read before and
// lasted elapsed.
func (g *Generator) result(before Stats, elapsed time.Duration) Result {
	s := g.Stats()
	res := Result{
		Duration:       elapsed,
		Txns:           s.Completed - before.Completed,
		Retransmit:     s.Retries - before.Retries,
		ReadTxns:       s.ReadTxns - before.ReadTxns,
		ScanTxns:       s.ScanTxns - before.ScanTxns,
		WriteTxns:      s.WriteTxns - before.WriteTxns,
		LocalReads:     s.LocalReads - before.LocalReads,
		StaleFallbacks: s.StaleFallbacks - before.StaleFallbacks,
	}
	res.Throughput = stats.Throughput(res.Txns, elapsed)
	h := g.Latency()
	res.MeanLat, res.P50Lat, res.P99Lat = h.Mean(), h.Percentile(50), h.Percentile(99)
	res.ReadP50Lat, res.ReadP95Lat, res.ReadP99Lat = percentiles(g.kindLatency(kindRead))
	res.ScanP50Lat, res.ScanP95Lat, res.ScanP99Lat = percentiles(g.kindLatency(kindScan))
	res.WriteP50Lat, res.WriteP95Lat, res.WriteP99Lat = percentiles(g.kindLatency(kindWrite))
	return res
}

func percentiles(h *stats.Histogram) (p50, p95, p99 time.Duration) {
	return h.Percentile(50), h.Percentile(95), h.Percentile(99)
}

// String renders a compact one-line summary.
func (r Result) String() string {
	s := fmt.Sprintf("txns=%d tput=%.0f txn/s mean=%s p50=%s p99=%s retx=%d",
		r.Txns, r.Throughput, r.MeanLat, r.P50Lat, r.P99Lat, r.Retransmit)
	if r.ReadTxns > 0 || r.ScanTxns > 0 {
		s += fmt.Sprintf(" reads=%d(p50=%s p95=%s)", r.ReadTxns, r.ReadP50Lat, r.ReadP95Lat)
		if r.ScanTxns > 0 {
			s += fmt.Sprintf(" scans=%d(p50=%s p95=%s)", r.ScanTxns, r.ScanP50Lat, r.ScanP95Lat)
		}
		s += fmt.Sprintf(" local=%d stale=%d writes=%d(p50=%s p95=%s)",
			r.LocalReads, r.StaleFallbacks, r.WriteTxns, r.WriteP50Lat, r.WriteP95Lat)
	}
	return s
}
