// Package cluster wires replicas and clients into a runnable deployment:
// the single-process test-bed used by the examples, the integration tests,
// and the real-runtime experiments. It also provides the client runtime —
// the load generator of Section 5.1, where up to 80K closed-loop clients
// submit YCSB transactions and wait for response quorums.
package cluster

import (
	"context"
	"fmt"
	"time"

	clientengine "resilientdb/internal/consensus/client"
	"resilientdb/internal/crypto"
	"resilientdb/internal/stats"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// ClientConfig parameterizes one load-generating client.
type ClientConfig struct {
	// ID identifies the client; N is the replica count.
	ID types.ClientID
	N  int
	// Burst is the number of transactions per request (client-side
	// batching, Section 4.2).
	Burst int
	// Timeout is the retransmission delay.
	Timeout time.Duration
	// Directory provides key material; Endpoint attaches the network;
	// Workload generates transactions.
	Directory *crypto.Directory
	Endpoint  transport.Endpoint
	Workload  *workload.Workload
	// ReadMode selects how read-only requests travel: "quorum" (default,
	// empty) orders them through consensus like writes; "local" sends them
	// as a ReadRequest to a single replica, answered from its
	// last-executed state without a consensus round. Local reads give
	// per-key freshness with the reply's Seq as a lower bound, not a
	// cross-key snapshot (see types.ReadRequest). Requests carrying any
	// write always go through consensus.
	ReadMode string
}

// ClientStats is a snapshot of one client's counters.
type ClientStats struct {
	TxnsCompleted uint64
	Requests      uint64
	Retransmits   uint64
	// ReadTxns, ScanTxns, and WriteTxns split TxnsCompleted by request
	// kind — write beats scan beats read: a request carrying any write
	// counts as writes, else any scan counts as scans, else reads.
	// LocalReads counts the write-free requests served by the
	// consensus-bypassing local path. StaleFallbacks counts local reads a
	// replica refused under the client's staleness bound (MinSeq), which
	// then re-ran through the quorum path.
	ReadTxns       uint64
	ScanTxns       uint64
	WriteTxns      uint64
	LocalReads     uint64
	StaleFallbacks uint64
}

// Client is a closed-loop load generator: it keeps exactly one request in
// flight and records end-to-end latency per completed request.
type Client struct {
	cfg ClientConfig
	// link is the consensus engine plus its send/await path over the
	// endpoint; localRead shares its transmit and reply-opening halves.
	link     *clientengine.Link
	latency  *stats.Histogram
	readLat  *stats.Histogram
	scanLat  *stats.Histogram
	writeLat *stats.Histogram

	txns           uint64
	readTxns       uint64
	scanTxns       uint64
	writeTxns      uint64
	localReads     uint64
	localRetx      uint64
	staleFallbacks uint64
	requests       uint64
	// maxSeq is the highest quorum-attested sequence number observed in
	// completed outcomes: the staleness bound (ReadRequest.MinSeq) later
	// local reads demand. A lone replica's ReadReply.Seq never advances it
	// — that stamp is one replica's unattested claim, and trusting it
	// would let a Byzantine replica inflate the bound until every honest
	// replica looks stale.
	maxSeq uint64
}

// NewClient creates a client runtime.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	if cfg.Directory == nil || cfg.Endpoint == nil || cfg.Workload == nil {
		return nil, fmt.Errorf("cluster: client %d missing directory, endpoint, or workload", cfg.ID)
	}
	switch cfg.ReadMode {
	case "":
		cfg.ReadMode = "quorum"
	case "quorum", "local":
	default:
		return nil, fmt.Errorf("cluster: client %d unknown read mode %q (want quorum|local)", cfg.ID, cfg.ReadMode)
	}
	link, err := clientengine.NewLink(cfg.ID, cfg.N, cfg.Directory, cfg.Endpoint, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		cfg:      cfg,
		link:     link,
		latency:  &stats.Histogram{},
		readLat:  &stats.Histogram{},
		scanLat:  &stats.Histogram{},
		writeLat: &stats.Histogram{},
	}, nil
}

// Latency exposes the client's latency histogram.
func (c *Client) Latency() *stats.Histogram { return c.latency }

// ReadLatency, ScanLatency, and WriteLatency expose the per-kind latency
// split, classified write over scan over read: a request carrying any
// write records into the write histogram, else any scan into the scan
// one, else into the read one.
func (c *Client) ReadLatency() *stats.Histogram { return c.readLat }

// ScanLatency is the range-scan member of the per-kind latency split.
func (c *Client) ScanLatency() *stats.Histogram { return c.scanLat }

// WriteLatency is ReadLatency's write-side counterpart.
func (c *Client) WriteLatency() *stats.Histogram { return c.writeLat }

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		TxnsCompleted:  c.txns,
		Requests:       c.requests,
		Retransmits:    c.link.Retransmits() + c.localRetx,
		ReadTxns:       c.readTxns,
		ScanTxns:       c.scanTxns,
		WriteTxns:      c.writeTxns,
		LocalReads:     c.localReads,
		StaleFallbacks: c.staleFallbacks,
	}
}

// Run submits requests in a closed loop until ctx is cancelled. It owns
// the endpoint's inbox; do not call Run concurrently.
func (c *Client) Run(ctx context.Context) {
	inbox := c.cfg.Endpoint.Inbox(0)
	clientSeq := uint64(1)
	timer := time.NewTimer(c.cfg.Timeout) // localRead's rotation timer
	defer timer.Stop()

	for ctx.Err() == nil {
		req := c.cfg.Workload.NextRequest(c.cfg.ID, clientSeq, c.cfg.Burst)
		class := requestClass(&req)
		if class != classWrite && c.cfg.ReadMode == "local" {
			// Consensus-bypassing path: the write-free request (point
			// reads and scans) is answered by a single replica from its
			// last-executed state, bounded by MinSeq. The client sequence
			// still advances — replica-side dedup compares with <=, so
			// gaps in the write stream are harmless.
			switch c.localRead(ctx, inbox, &req, clientSeq, class, timer) {
			case localDone:
				clientSeq += uint64(c.cfg.Burst)
				continue
			case localAborted:
				return
			case localStale:
				// Every reachable replica lags the client's staleness
				// bound; re-run this request through the quorum path,
				// which serves it from ordered execution.
				c.staleFallbacks++
			}
		}
		if err := c.link.Sign(&req); err != nil {
			return
		}
		start := time.Now()
		c.requests++
		c.link.Submit(req)
		outcome := c.link.Await(ctx.Done())
		if outcome == nil {
			return
		}
		if s := uint64(outcome.Seq); s > c.maxSeq {
			c.maxSeq = s
		}
		c.record(time.Since(start), class)
		clientSeq += uint64(c.cfg.Burst)
	}
}

// requestClass partitions requests for routing and the latency split:
// write beats scan beats read.
type reqClass int

const (
	classRead reqClass = iota
	classScan
	classWrite
)

// record books one completed request into the overall and per-kind
// latency histograms and transaction counters.
func (c *Client) record(d time.Duration, class reqClass) {
	c.latency.Record(d)
	c.txns += uint64(c.cfg.Burst)
	switch class {
	case classWrite:
		c.writeLat.Record(d)
		c.writeTxns += uint64(c.cfg.Burst)
	case classScan:
		c.scanLat.Record(d)
		c.scanTxns += uint64(c.cfg.Burst)
	default:
		c.readLat.Record(d)
		c.readTxns += uint64(c.cfg.Burst)
	}
}

// localReadStatus is localRead's outcome: answered, aborted (context or
// inbox gone), or refused under the staleness bound.
type localReadStatus int

const (
	localDone localReadStatus = iota
	localAborted
	localStale
)

// localRead issues one write-free request as a ReadRequest against a
// single replica and waits for its ReadReply, rotating to the next
// replica on timeout (a crashed or lagging server must not wedge the
// client). The request carries the client's staleness bound: a replica
// whose last-retired sequence trails maxSeq answers with no results, and
// after every replica refused once the client reports localStale so the
// caller reissues the request through the quorum path.
func (c *Client) localRead(ctx context.Context, inbox <-chan *types.Envelope, req *types.ClientRequest, clientSeq uint64, class reqClass, timer *time.Timer) localReadStatus {
	keys, scans := readOps(req)
	msg := &types.ReadRequest{
		Client:    c.cfg.ID,
		ClientSeq: clientSeq,
		Keys:      keys,
		MinSeq:    types.SeqNum(c.maxSeq),
		Scans:     scans,
	}
	refusals := 0
	// Spread clients across replicas so local reads scale with n instead
	// of piling onto the primary.
	target := int(uint32(c.cfg.ID)) % c.cfg.N
	start := time.Now()
	c.requests++
	c.link.Transmit(types.ReplicaNode(types.ReplicaID(target)), msg)

	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(c.cfg.Timeout)
	for {
		select {
		case <-ctx.Done():
			return localAborted
		case env, ok := <-inbox:
			if !ok {
				return localAborted
			}
			_, m, ok := c.link.Open(env)
			if !ok {
				continue
			}
			reply, ok := m.(*types.ReadReply)
			if !ok || reply.Client != c.cfg.ID || reply.ClientSeq != clientSeq {
				continue // stale consensus response or reply to an older read
			}
			if len(reply.Results) == 0 && len(keys)+len(scans) > 0 {
				// Staleness refusal: this replica's retired state trails
				// MinSeq. Try the next replica; once every replica refused,
				// hand the request back for the quorum path.
				refusals++
				if refusals >= c.cfg.N {
					return localStale
				}
				target = (target + 1) % c.cfg.N
				c.link.Transmit(types.ReplicaNode(types.ReplicaID(target)), msg)
				timer.Reset(c.cfg.Timeout)
				continue
			}
			c.record(time.Since(start), class)
			c.localReads++
			return localDone
		case <-timer.C:
			c.localRetx++
			target = (target + 1) % c.cfg.N
			c.link.Transmit(types.ReplicaNode(types.ReplicaID(target)), msg)
			timer.Reset(c.cfg.Timeout)
		}
	}
}

// requestClass classifies a request write > scan > read: any write makes
// it a write request (it must travel through consensus), otherwise any
// scan makes it a scan request, otherwise it is a point-read request. An
// empty request counts as a write so it never rides the local read path.
func requestClass(req *types.ClientRequest) reqClass {
	if len(req.Txns) == 0 {
		return classWrite
	}
	class := classRead
	for i := range req.Txns {
		for j := range req.Txns[i].Ops {
			switch req.Txns[i].Ops[j].Kind {
			case types.OpScan:
				class = classScan
			case types.OpRead:
			default:
				return classWrite
			}
		}
	}
	return class
}

// readOps flattens a write-free request into the ReadRequest shape: point
// keys and scan descriptors, each in (transaction, op) order — the order
// ReadReply results come back in (keys first, then scans).
func readOps(req *types.ClientRequest) (keys []uint64, scans []types.Op) {
	for i := range req.Txns {
		for j := range req.Txns[i].Ops {
			op := &req.Txns[i].Ops[j]
			if op.Kind == types.OpScan {
				scans = append(scans, types.Op{Kind: types.OpScan, Key: op.Key, EndKey: op.EndKey, Limit: op.Limit})
				continue
			}
			keys = append(keys, op.Key)
		}
	}
	return keys, scans
}
