package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/replica"
	"resilientdb/internal/stats"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// Options configures a single-process cluster.
type Options struct {
	// N is the number of replicas (n ≥ 3f+1); Clients the number of
	// closed-loop clients.
	N       int
	Clients int
	// Burst is transactions per client request; BatchSize transactions
	// per consensus batch.
	Burst     int
	BatchSize int
	// The pipeline shape, passed to every replica as given:
	// replica.Config documents each field, its default (zero is the
	// paper's standard 2B1E) and its folded form (-1 for B, E and V).
	BatchThreads      int
	ExecuteThreads    int
	VerifyThreads     int
	ExecPipelineDepth int
	// Crypto selects the signature configuration (default: the paper's
	// recommended CMAC + ED25519 combination).
	Crypto crypto.Config
	// Workload configures the YCSB generator.
	Workload workload.Config
	// ClientTimeout is the client retransmission delay (0 = NewClient's
	// default); ViewTimeout the replica progress watchdog (0 disables view
	// changes).
	ClientTimeout time.Duration
	ViewTimeout   time.Duration
	// CheckpointInterval is Δ in batches (see replica.Config).
	CheckpointInterval uint64
	// LedgerMode selects block linkage.
	LedgerMode ledger.Mode
	// DisableOutOfOrder serializes consensus (ablation).
	DisableOutOfOrder bool
	// StoreFactory builds each replica's record store; nil means the
	// StoreBackend knobs below decide.
	StoreFactory func(id types.ReplicaID) (store.Store, error)
	// StoreBackend selects the record store when StoreFactory is nil:
	// "mem" (default) keeps records in memory (the paper's recommended
	// configuration, Section 6 "Memory Storage"); "sharded" is the durable
	// group-commit store (fsyncing when StoreSync is set). store.OpenBackend validates the name.
	StoreBackend string
	// StoreDir is the root directory for disk-backed stores; each replica
	// gets a replica-<id> subdirectory. Empty means a fresh temp dir.
	StoreDir string
	// StoreSync makes the sharded backend durable: appends are visible at
	// once, responses wait for a covering group-commit fsync. Off (the
	// default), writes reach the page cache only.
	StoreSync bool
	// StoreCompactRatio is the sharded backend's garbage-ratio compaction
	// threshold (dead bytes / total log bytes, checked against the log when
	// a stable checkpoint fires the replica's compaction trigger). 0
	// means the default (store.DefaultCompactRatio); negative disables
	// checkpoint-driven compaction.
	StoreCompactRatio float64
	// StoreCompactMinBytes is the log size below which checkpoint-driven
	// compaction never rewrites. 0 means the default
	// (store.DefaultCompactMinBytes); negative removes the floor.
	StoreCompactMinBytes int64
	// ReadMode selects how clients issue read-only requests: "quorum"
	// (default) orders them through consensus; "local" sends them to a
	// single replica, answered from its last-executed state without a
	// consensus round (per-key freshness only — see types.ReadRequest for
	// the exact semantics).
	ReadMode string
	// Seed makes key material and workloads reproducible.
	Seed int64
	// PreloadTable loads the YCSB table into every store before starting.
	PreloadTable bool
	// EndpointWrapper, when non-nil, wraps each replica's transport
	// endpoint before the replica sees it — the chaos harness's network
	// seam (drop/delay/partition/Byzantine rules live in the wrapper).
	// The directory is passed so a wrapper can re-sign bodies it mutates.
	// Restart builds the replacement endpoint through the same wrapper.
	EndpointWrapper func(id types.ReplicaID, ep transport.Endpoint, dir *crypto.Directory) transport.Endpoint
	// StoreWrapper, when non-nil, wraps each replica's record store before
	// the replica sees it — the chaos harness's disk seam (fsync stalls,
	// write errors). The cluster keeps closing the inner store it built;
	// wrappers must delegate Close.
	StoreWrapper func(id types.ReplicaID, st store.Store) store.Store
}

func (o *Options) fill() error {
	if o.N < 4 {
		return fmt.Errorf("cluster: need n ≥ 4, got %d", o.N)
	}
	if o.Clients < 1 {
		o.Clients = 4
	}
	if o.StoreBackend == "" {
		o.StoreBackend = "mem"
	}
	switch o.ReadMode {
	case "":
		o.ReadMode = "quorum"
	case "quorum", "local":
	default:
		return fmt.Errorf("cluster: unknown read mode %q (want quorum|local)", o.ReadMode)
	}
	if o.Crypto.ReplicaScheme == 0 {
		o.Crypto = crypto.Recommended()
	}
	if o.Workload.Records == 0 {
		o.Workload = workload.Default()
	}
	return nil
}

// replicaInboxes is every replica endpoint's inbox count: one for client
// traffic plus two shared by replica traffic — one input-thread each
// (Section 4.1).
const replicaInboxes = 3

// Result summarizes a load run.
type Result struct {
	Duration   time.Duration
	Txns       uint64
	Throughput float64 // transactions per second (client-side completions)
	MeanLat    time.Duration
	P50Lat     time.Duration
	P99Lat     time.Duration
	Retransmit uint64
	// Read/scan/write split, classified write over scan over read:
	// ReadTxns counts transactions from point-read-only requests (however
	// they traveled), ScanTxns those from write-free requests carrying a
	// range scan, WriteTxns the rest; the per-kind percentiles come from
	// separate histograms. LocalReads counts the write-free requests
	// served by the consensus-bypassing local path and StaleFallbacks the
	// ones every replica refused under the staleness bound, re-run through
	// quorum.
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

// Cluster is a runnable single-process deployment.
type Cluster struct {
	opts     Options
	net      *transport.Inproc
	dir      *crypto.Directory
	replicas []*replica.Replica
	clients  []*Client
	clientEP []transport.Endpoint

	// stores holds each replica's inner (pre-wrapper) record store;
	// storeOwned marks the ones the cluster built itself (StoreBackend
	// path), which are closed on Stop. Externally provided stores
	// (StoreFactory) are the caller's.
	stores     []store.Store
	storeOwned []bool
	// tmpStoreDir is the auto-created root for disk-backed stores when
	// StoreDir was empty; removed on Stop.
	tmpStoreDir string

	// downMu guards downed, the crash bookkeeping Crash/Restart maintain;
	// Live is the filter most invariant checks want.
	downMu sync.Mutex
	downed []bool
}

// buildStore constructs one replica's record store from the StoreBackend
// knobs (StoreFactory == nil path) via the shared store.OpenBackend.
func (c *Cluster) buildStore(id types.ReplicaID) (store.Store, error) {
	o := &c.opts
	dir := ""
	if o.StoreBackend == "sharded" {
		root := o.StoreDir
		if root == "" {
			if c.tmpStoreDir == "" {
				tmp, err := os.MkdirTemp("", "resdb-store-")
				if err != nil {
					return nil, fmt.Errorf("cluster: temp store dir: %w", err)
				}
				c.tmpStoreDir = tmp
			}
			root = c.tmpStoreDir
		}
		dir = filepath.Join(root, fmt.Sprintf("replica-%d", id))
	}
	cfg := store.BackendConfig{
		Backend:         o.StoreBackend,
		Dir:             dir,
		CompactRatio:    o.StoreCompactRatio,
		CompactMinBytes: o.StoreCompactMinBytes,
		MemSizeHint:     int(o.Workload.Records),
	}
	if o.StoreSync {
		cfg.SyncLinger = 1 // > 0 = durable; the magnitude is ignored
	}
	return store.OpenBackend(cfg)
}

// closeOwnedStores releases the stores the cluster built itself and the
// auto-created store directory; Stop and failed New calls both use it.
func (c *Cluster) closeOwnedStores() {
	for i, st := range c.stores {
		if st != nil && c.storeOwned[i] {
			_ = st.Close()
		}
	}
	c.stores = nil
	c.storeOwned = nil
	if c.tmpStoreDir != "" {
		_ = os.RemoveAll(c.tmpStoreDir)
		c.tmpStoreDir = ""
	}
}

// buildEndpoint registers a fresh inbox for the replica on the in-process
// network, applying the chaos wrapper if one is configured. Registration
// is the moment the replica starts receiving: callers that need to replay
// traffic sent before the replica runs (Restart) register early and let
// the inbox buffer.
func (c *Cluster) buildEndpoint(id types.ReplicaID) transport.Endpoint {
	ep := c.net.Endpoint(types.ReplicaNode(id), replicaInboxes, 1<<13)
	if c.opts.EndpointWrapper != nil {
		ep = c.opts.EndpointWrapper(id, ep, c.dir)
	}
	return ep
}

// buildReplica constructs (and wraps) one replica around an inner store
// and fabric endpoint; boot is nil for a fresh genesis boot. New and
// Restart share it so a restarted replica is configured identically.
func (c *Cluster) buildReplica(id types.ReplicaID, st store.Store, boot *replica.Bootstrap, ep transport.Endpoint) (*replica.Replica, error) {
	opts := &c.opts
	if opts.StoreWrapper != nil {
		st = opts.StoreWrapper(id, st)
	}
	return replica.New(replica.Config{
		ID:                 id,
		N:                  opts.N,
		BatchSize:          opts.BatchSize,
		BatchThreads:       opts.BatchThreads,
		ExecuteThreads:     opts.ExecuteThreads,
		VerifyThreads:      opts.VerifyThreads,
		ExecPipelineDepth:  opts.ExecPipelineDepth,
		CheckpointInterval: opts.CheckpointInterval,
		LedgerMode:         opts.LedgerMode,
		Store:              st,
		Directory:          c.dir,
		Endpoint:           ep,
		DisableOutOfOrder:  opts.DisableOutOfOrder,
		ViewTimeout:        opts.ViewTimeout,
		Bootstrap:          boot,
	})
}

// New builds a cluster; call Start before Run.
func New(opts Options) (*Cluster, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	dir, err := crypto.NewDirectoryFromSeed(opts.Crypto, opts.Seed)
	if err != nil {
		return nil, err
	}
	c := &Cluster{opts: opts, net: transport.NewInproc(), dir: dir}
	// A failed construction must not leak the stores (open fds, running
	// group-commit goroutines) or the temp dir built for earlier replicas.
	built := false
	defer func() {
		if !built {
			c.closeOwnedStores()
		}
	}()

	c.downed = make([]bool, opts.N)
	for i := 0; i < opts.N; i++ {
		id := types.ReplicaID(i)
		var st store.Store
		owned := false
		if opts.StoreFactory != nil {
			st, err = opts.StoreFactory(id)
			if err != nil {
				return nil, fmt.Errorf("cluster: store for replica %d: %w", i, err)
			}
		} else {
			st, err = c.buildStore(id)
			if err != nil {
				return nil, fmt.Errorf("cluster: store for replica %d: %w", i, err)
			}
			owned = true
		}
		c.stores = append(c.stores, st)
		c.storeOwned = append(c.storeOwned, owned)
		if opts.PreloadTable {
			if err := workload.InitTable(st, opts.Workload); err != nil {
				return nil, err
			}
		}
		rep, err := c.buildReplica(id, st, nil, c.buildEndpoint(id))
		if err != nil {
			return nil, err
		}
		c.replicas = append(c.replicas, rep)
	}

	for i := 0; i < opts.Clients; i++ {
		id := types.ClientID(i)
		wl, err := workload.New(opts.Workload, int64(i)+opts.Seed)
		if err != nil {
			return nil, err
		}
		ep := c.net.Endpoint(types.ClientNode(id), 1, 1<<10)
		cl, err := NewClient(ClientConfig{
			ID:        id,
			N:         opts.N,
			Burst:     opts.Burst,
			Timeout:   opts.ClientTimeout,
			Directory: dir,
			Endpoint:  ep,
			Workload:  wl,
			ReadMode:  opts.ReadMode,
		})
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
		c.clientEP = append(c.clientEP, ep)
	}
	built = true
	return c, nil
}

// Start launches every replica pipeline.
func (c *Cluster) Start() {
	for _, r := range c.replicas {
		r.Start()
	}
}

// Replica returns the i-th replica.
func (c *Cluster) Replica(i int) *replica.Replica { return c.replicas[i] }

// Clients returns the client runtimes.
func (c *Cluster) Clients() []*Client { return c.clients }

// Store returns the i-th replica's inner record store (before any
// StoreWrapper), for invariant checks that compare replica state.
func (c *Cluster) Store(i int) store.Store { return c.stores[i] }

// Directory exposes the cluster's key directory so external runtimes —
// the gateway tier above all — can sign under identities the directory
// derives lazily.
func (c *Cluster) Directory() *crypto.Directory { return c.dir }

// AttachClient registers a fresh client-side endpoint on the in-process
// fabric for an external runtime (the gateway's upstream workers attach
// this way). The caller owns the endpoint's lifecycle and must Close it;
// capacity ≤ 0 means the standard client inbox depth.
func (c *Cluster) AttachClient(id types.ClientID, capacity int) transport.Endpoint {
	if capacity <= 0 {
		capacity = 1 << 10
	}
	return c.net.Endpoint(types.ClientNode(id), 1, capacity)
}

// Crash isolates a replica: all its traffic is silently dropped, exactly
// like a crashed host (Section 5.10 fails backups this way).
func (c *Cluster) Crash(i int) {
	c.downMu.Lock()
	c.downed[i] = true
	c.downMu.Unlock()
	c.net.SetDown(types.ReplicaNode(types.ReplicaID(i)), true)
}

// Live reports whether replica i is currently up (never crashed, or
// crashed and since restarted); it is the filter VerifyLedgers and
// WaitForHeight take.
func (c *Cluster) Live(i int) bool {
	c.downMu.Lock()
	defer c.downMu.Unlock()
	return !c.downed[i]
}

// Restart recovers a crashed replica: the old pipeline is stopped, a
// disk-backed store is reopened from its own directory (replaying its
// logs), and a fresh replica is bootstrapped from a live peer's retained
// ledger tail, current view, and dedup table, then reattached to the
// fabric. A mem-backed store survives the restart as-is — it stands in
// for the durable layer a real deployment would reopen.
//
// The restarted replica converges to chain equality with its peers: its
// ledger resumes at the bootstrap head and appends through normal
// consensus from there. Its record store, however, resumes from its own
// durable state, which may trail the bootstrap head until the ROADMAP's
// state-transfer work lands — so store-equality assertions should exempt
// restarted replicas, and local reads against one may briefly serve
// stale values.
func (c *Cluster) Restart(i int) error {
	c.downMu.Lock()
	if !c.downed[i] {
		c.downMu.Unlock()
		return fmt.Errorf("cluster: restart of replica %d, which is not crashed", i)
	}
	ref := -1
	for j := range c.replicas {
		if j != i && !c.downed[j] {
			ref = j
			break
		}
	}
	c.downMu.Unlock()
	if ref < 0 {
		return fmt.Errorf("cluster: no live peer to bootstrap replica %d from", i)
	}

	// Stop the old pipeline first: it closes its endpoint and finishes any
	// in-flight execution against the store before we touch it.
	c.replicas[i].Stop()

	id := types.ReplicaID(i)
	st := c.stores[i]
	if c.storeOwned[i] && c.opts.StoreBackend == "sharded" {
		// A real crash loses the process but not the disk: close the old
		// handle and reopen the same directory, replaying the shard logs.
		_ = st.Close()
		var err error
		st, err = c.buildStore(id)
		if err != nil {
			return fmt.Errorf("cluster: reopening store for replica %d: %w", i, err)
		}
		c.stores[i] = st
	}

	// Bring the replacement inbox online before snapshotting: from this
	// point every broadcast to the replica is buffered for replay when it
	// starts. Without this there is a fatal gap under live load: a
	// PrePrepare sent between the snapshot and the endpoint going live is
	// never retransmitted, that instance can never commit locally, and
	// the in-order execution queue wedges behind it forever while later
	// sequences pile up.
	ep := c.buildEndpoint(id)
	c.net.SetDown(types.ReplicaNode(id), false)

	// Every sequence proposed before the inbox went live must therefore
	// be covered by the block snapshot. Wait until the peer has executed
	// up to the proposal head observed across the live replicas; bounded,
	// because a view change can abandon a proposed instance, in which
	// case we proceed with the best snapshot available.
	peer := c.replicas[ref]
	var head types.SeqNum
	c.downMu.Lock()
	for j := range c.replicas {
		if j != i && !c.downed[j] {
			if h := c.replicas[j].ProposalHead(); h > head {
				head = h
			}
		}
	}
	c.downMu.Unlock()
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		if peer.Ledger().Head().Seq >= head {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Snapshot the peer under live load: dedup first, then blocks, so the
	// dedup table never claims executions past the block snapshot's head.
	// (Executions landing between the two calls are below the bootstrap
	// head on both sides, so neither replica will replay them.)
	boot := &replica.Bootstrap{LastExec: peer.DedupSnapshot()}
	boot.Blocks, boot.Certificate = peer.Ledger().Tail()
	boot.View = peer.Stats().View

	rep, err := c.buildReplica(id, st, boot, ep)
	if err != nil {
		return fmt.Errorf("cluster: rebuilding replica %d: %w", i, err)
	}
	c.replicas[i] = rep
	rep.Start()
	c.downMu.Lock()
	c.downed[i] = false
	c.downMu.Unlock()
	return nil
}

// Run drives all clients for the given duration and aggregates results
// (see RunClients).
func (c *Cluster) Run(ctx context.Context, d time.Duration) Result {
	return RunClients(ctx, c.clients, d)
}

// RunClients drives clients for d (or until ctx ends) and aggregates their
// results. Counters are reported as deltas for this run, so successive
// calls over the same clients (e.g. before and after a crash) are directly
// comparable; latencies are the clients' whole histograms.
func RunClients(ctx context.Context, clients []*Client, d time.Duration) Result {
	before := make([]ClientStats, len(clients))
	for i, cl := range clients {
		before[i] = cl.Stats()
	}
	runCtx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			cl.Run(runCtx)
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{Duration: elapsed}
	for i, cl := range clients {
		s := cl.Stats()
		res.Txns += s.TxnsCompleted - before[i].TxnsCompleted
		res.Retransmit += s.Retransmits - before[i].Retransmits
		res.ReadTxns += s.ReadTxns - before[i].ReadTxns
		res.ScanTxns += s.ScanTxns - before[i].ScanTxns
		res.WriteTxns += s.WriteTxns - before[i].WriteTxns
		res.LocalReads += s.LocalReads - before[i].LocalReads
		res.StaleFallbacks += s.StaleFallbacks - before[i].StaleFallbacks
	}
	res.Throughput = stats.Throughput(res.Txns, elapsed)
	res.MeanLat, res.P50Lat, res.P99Lat = aggregateLatency(clients)
	res.ReadP50Lat, res.ReadP95Lat, res.ReadP99Lat = aggregateSplit(clients, (*Client).ReadLatency)
	res.ScanP50Lat, res.ScanP95Lat, res.ScanP99Lat = aggregateSplit(clients, (*Client).ScanLatency)
	res.WriteP50Lat, res.WriteP95Lat, res.WriteP99Lat = aggregateSplit(clients, (*Client).WriteLatency)
	return res
}

// aggregateSplit reports the worst per-client P50/P95/P99 of one latency
// split, mirroring aggregateLatency's conservative max-across-clients.
func aggregateSplit(clients []*Client, h func(*Client) *stats.Histogram) (p50, p95, p99 time.Duration) {
	for _, cl := range clients {
		hist := h(cl)
		if hist.Count() == 0 {
			continue
		}
		if v := hist.Percentile(50); v > p50 {
			p50 = v
		}
		if v := hist.Percentile(95); v > p95 {
			p95 = v
		}
		if v := hist.Percentile(99); v > p99 {
			p99 = v
		}
	}
	return p50, p95, p99
}

func aggregateLatency(clients []*Client) (mean, p50, p99 time.Duration) {
	var total uint64
	var weighted uint64
	maxP50, maxP99 := time.Duration(0), time.Duration(0)
	for _, cl := range clients {
		h := cl.Latency()
		n := h.Count()
		if n == 0 {
			continue
		}
		total += n
		weighted += uint64(h.Mean()) * n
		if v := h.Percentile(50); v > maxP50 {
			maxP50 = v
		}
		if v := h.Percentile(99); v > maxP99 {
			maxP99 = v
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	return time.Duration(weighted / total), maxP50, maxP99
}

// WaitForHeight blocks until every live replica's ledger reaches height h
// or the timeout expires; it returns the slowest observed height.
func (c *Cluster) WaitForHeight(h uint64, timeout time.Duration, live func(int) bool) uint64 {
	deadline := time.Now().Add(timeout)
	for {
		minH := ^uint64(0)
		for i, r := range c.replicas {
			if live != nil && !live(i) {
				continue
			}
			if got := r.Ledger().Height(); got < minH {
				minH = got
			}
		}
		if minH >= h || time.Now().After(deadline) {
			return minH
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// WaitForQuiesce blocks until every live replica's ledger agrees on one
// height and every live replica has executed and retired through it, or
// the timeout expires; it reports whether the cluster settled. Store
// comparisons across replicas need this, not WaitForHeight: the ledger
// height tracks commitment, execution trails it, and a replica that has
// committed to height H may still be applying batch H-2 while a peer
// has already retired past H — their stores legitimately differ until
// retirement converges.
// A momentary agreement is not enough: requests already inside the
// pipeline when the load stops (inbox queues, the batch stage) can
// still commit a straggler batch after a snapshot observes agreement,
// so the settled state must also hold still for a dwell window before
// it is trusted.
func (c *Cluster) WaitForQuiesce(timeout time.Duration, live func(int) bool) bool {
	const dwell = 100 * time.Millisecond
	deadline := time.Now().Add(timeout)
	var settledAt time.Time
	var settledMax uint64
	for {
		var max uint64
		for i, r := range c.replicas {
			if live != nil && !live(i) {
				continue
			}
			if h := r.Ledger().Height(); h > max {
				max = h
			}
		}
		settled := true
		for i, r := range c.replicas {
			if live != nil && !live(i) {
				continue
			}
			if r.Ledger().Height() != max || uint64(r.LastRetired()) < max {
				settled = false
				break
			}
		}
		now := time.Now()
		if !settled {
			settledAt = time.Time{}
		} else if settledAt.IsZero() || max != settledMax {
			settledAt, settledMax = now, max
		} else if now.Sub(settledAt) >= dwell {
			return true
		}
		if now.After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// VerifyLedgers validates every replica's chain — its newest checkpoint
// certificate checked against the node keys — and checks pairwise
// agreement on common prefixes and on the digest of any checkpoint two
// replicas both hold a certificate for. live filters replicas (nil means
// all).
func (c *Cluster) VerifyLedgers(live func(int) bool) error {
	var ref *replica.Replica
	certs := make(map[types.SeqNum]types.Digest)
	for i, r := range c.replicas {
		if live != nil && !live(i) {
			continue
		}
		if err := r.Ledger().Validate(); err != nil {
			return fmt.Errorf("replica %d ledger invalid: %w", i, err)
		}
		if cert := r.Ledger().Certificate(); cert.Seq != 0 {
			if d, ok := certs[cert.Seq]; ok && d != cert.Digest {
				return fmt.Errorf("replica %d holds a certificate for a different checkpoint digest at %d", i, cert.Seq)
			}
			certs[cert.Seq] = cert.Digest
		}
		if ref == nil {
			ref = r
			continue
		}
		if err := ledger.VerifyChainEquality(ref.Ledger(), r.Ledger()); err != nil {
			return fmt.Errorf("replica %d vs %d: %w", i, ref.ID(), err)
		}
	}
	return nil
}

// Stop shuts down replicas and client endpoints, closes the stores the
// cluster built itself (flushing any pending group commit), and removes
// the auto-created store directory. Externally provided stores
// (StoreFactory) are left to their owner.
func (c *Cluster) Stop() {
	for _, r := range c.replicas {
		r.Stop()
	}
	for _, ep := range c.clientEP {
		ep.Close()
	}
	c.closeOwnedStores()
}
