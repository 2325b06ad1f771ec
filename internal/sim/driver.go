package sim

import (
	"fmt"
	"time"

	clientengine "resilientdb/internal/consensus/client"
	"resilientdb/internal/crypto"
	"resilientdb/internal/stats"
	"resilientdb/internal/types"
)

// Protocol selects the simulated consensus protocol.
type Protocol int

// Protocols.
const (
	PBFT Protocol = iota + 1
	Zyzzyva
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case PBFT:
		return "pbft"
	case Zyzzyva:
		return "zyzzyva"
	default:
		return "invalid"
	}
}

// Storage selects the execution store model (Section 5.7).
type Storage int

// Storage models.
const (
	StorageMem Storage = iota + 1
	StorageDisk
)

// UpperBoundMode selects the no-consensus ceiling measurement (Figure 7).
type UpperBoundMode int

// Upper-bound modes.
const (
	// UpperBoundOff runs the full consensus protocol.
	UpperBoundOff UpperBoundMode = iota
	// UpperBoundNoExec: the primary answers clients without executing.
	UpperBoundNoExec
	// UpperBoundExec: the primary executes, then answers, still without
	// any consensus or ordering.
	UpperBoundExec
)

// The simulated deployment's fixed shape: the paper's clients run on 4
// machines (80K clients in its standard setup), and a replica has two
// input-threads for replica traffic and two output-threads.
const (
	clientMachines      = 4
	replicaInputThreads = 2
	outputThreads       = 2
)

// Config parameterizes one simulated experiment.
type Config struct {
	Protocol Protocol
	// Replicas is n; FailedBackups crashes that many non-primary replicas
	// at time zero (Section 5.10).
	Replicas      int
	FailedBackups int
	// Clients is the number of closed-loop clients, spread over
	// clientMachines machines.
	Clients int
	// Cores per replica machine (Section 5.9 varies 1..8).
	Cores int
	// Pipeline shape: BatchThreads/ExecuteThreads accept -1 for the
	// folded 0B/0E configurations; 0 selects the defaults (2B, 1E). The
	// simulator models at most one dedicated execute-thread: values above
	// 1 (the runnable replica's write-set-partitioned execution shards)
	// behave as 1E here — use the execshards bench experiment, which runs
	// the real pipeline, to observe shard-parallel execution.
	BatchThreads   int
	ExecuteThreads int
	// Workload shape.
	BatchSize   int
	Burst       int
	OpsPerTxn   int
	ValueSize   int
	PayloadSize int
	// Scheme is the signature configuration; Storage the store model.
	Scheme  Scheme
	Storage Storage
	// ClientTimeout is the retransmission / Zyzzyva slow-path delay.
	ClientTimeout Time
	// CheckpointInterval in batches.
	CheckpointInterval uint64
	// DisableOutOfOrder serializes consensus instances (ablation §4.5).
	DisableOutOfOrder bool
	// UpperBound selects the Figure 7 ceiling modes.
	UpperBound UpperBoundMode
	// Warmup and Measure are the virtual warm-up and measurement windows
	// (the paper: 60s + 120s; scaled down since the simulator reaches
	// steady state in milliseconds).
	Warmup  Time
	Measure Time
	// Seed controls determinism.
	Seed int64
}

func (c *Config) fill() error {
	if c.Protocol == 0 {
		c.Protocol = PBFT
	}
	if c.Replicas == 0 {
		c.Replicas = 16
	}
	if c.UpperBound == UpperBoundOff && c.Replicas < 4 {
		return fmt.Errorf("sim: need ≥ 4 replicas, got %d", c.Replicas)
	}
	if c.FailedBackups < 0 || (c.Replicas > 1 && c.FailedBackups > (c.Replicas-1)/3) {
		return fmt.Errorf("sim: cannot fail %d of %d replicas", c.FailedBackups, c.Replicas)
	}
	if c.Clients == 0 {
		c.Clients = 80_000
	}
	if c.Cores == 0 {
		c.Cores = 8
	}
	// -1 folds a stage and is kept as given, as replica.Config keeps it.
	if c.BatchThreads == 0 {
		c.BatchThreads = 2
	}
	if c.ExecuteThreads == 0 {
		c.ExecuteThreads = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 100
	}
	if c.Burst == 0 {
		c.Burst = 1
	}
	if c.OpsPerTxn == 0 {
		c.OpsPerTxn = 1
	}
	if c.ValueSize == 0 {
		c.ValueSize = 100
	}
	if c.Scheme == 0 {
		c.Scheme = SchemeCMAC
	}
	if c.Storage == 0 {
		c.Storage = StorageMem
	}
	if c.ClientTimeout == 0 {
		if c.Protocol == Zyzzyva {
			c.ClientTimeout = 500 * Millisecond
		} else {
			c.ClientTimeout = 2 * Second
		}
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 100
	}
	if c.Warmup == 0 {
		c.Warmup = 150 * Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 400 * Millisecond
	}
	return nil
}

// Result summarizes one simulated experiment.
type Result struct {
	// ThroughputTxns is committed client transactions per second during
	// the measurement window.
	ThroughputTxns float64
	// ThroughputOps is the same in operations per second (Section 5.4's
	// alternative metric).
	ThroughputOps float64
	MeanLatency   time.Duration
	P50Latency    time.Duration
	P99Latency    time.Duration
	FastPath      uint64
	SlowPath      uint64
	// PrimarySaturation and BackupSaturation map thread names to busy
	// fractions (1.0 = fully saturated), the Figure 9 metric. Backup
	// numbers come from the first live backup.
	PrimarySaturation map[string]float64
	BackupSaturation  map[string]float64
	// Events is the number of simulation events processed.
	Events uint64
}

// CumulativePrimary sums the primary thread saturations ×100 (the
// "cumulative saturation" bars of Figure 9a).
func (r Result) CumulativePrimary() float64 {
	s := 0.0
	for _, v := range r.PrimarySaturation {
		s += v
	}
	return s * 100
}

// CumulativeBackup sums the backup thread saturations ×100.
func (r Result) CumulativeBackup() float64 {
	s := 0.0
	for _, v := range r.BackupSaturation {
		s += v
	}
	return s * 100
}

// ---- internal run state ----

type run struct {
	cfg   Config
	costs costModel
	sim   *Sim

	replicas []*simReplica
	clients  []*simClient

	reqSize     int // encoded client request size in bytes
	respSize    int
	voteSize    int // prepare/commit/checkpoint size
	proposeSize int // pre-prepare / ordered-request size

	latency  *stats.Histogram
	measured uint64 // txns completed inside the measurement window
	fast     uint64
	slow     uint64
}

func authSize(s Scheme, client bool) int {
	switch s {
	case SchemeED25519:
		return 64
	case SchemeRSA:
		return 256
	case SchemeCMAC:
		if client {
			return 64 // clients still use ED25519
		}
		return 16
	default:
		return 0
	}
}

// Run executes one simulated experiment.
func Run(cfg Config) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	costs := defaultCosts()
	r := &run{cfg: cfg, costs: costs, sim: NewSim(), latency: &stats.Histogram{}}

	// Analytic wire sizes (bytes) for bandwidth accounting.
	txnSize := 16 + cfg.OpsPerTxn*(12+cfg.ValueSize) + 4 + cfg.PayloadSize
	r.reqSize = 20 + cfg.Burst*txnSize + authSize(cfg.Scheme, true)
	r.respSize = 70 + authSize(cfg.Scheme, false)
	r.voteSize = 60 + authSize(cfg.Scheme, false)
	reqsPerBatch := (cfg.BatchSize + cfg.Burst - 1) / cfg.Burst
	r.proposeSize = 84 + reqsPerBatch*r.reqSize

	if cfg.UpperBound != UpperBoundOff {
		return r.runUpperBound()
	}

	// Build replicas.
	for i := 0; i < cfg.Replicas; i++ {
		sr, err := newSimReplica(r, types.ReplicaID(i))
		if err != nil {
			return Result{}, err
		}
		r.replicas = append(r.replicas, sr)
	}
	// Crash the highest-numbered backups (never the primary, replica 0).
	for k := 0; k < cfg.FailedBackups; k++ {
		r.replicas[cfg.Replicas-1-k].down = true
	}

	// Build client machines and clients.
	machines := make([]*Host, clientMachines)
	for i := range machines {
		machines[i] = NewHost(r.sim, 4, NewNIC(r.sim, costs.NICBandwidth))
	}
	for i := 0; i < cfg.Clients; i++ {
		sc := &simClient{r: r, id: types.ClientID(i), machine: machines[i%len(machines)]}
		if cfg.Protocol == Zyzzyva {
			sc.zyz = newZyzzyvaClient(sc.id, cfg.Replicas)
		} else {
			eng, err := clientengine.New(sc.id, cfg.Replicas, clientengine.PBFT)
			if err != nil {
				return Result{}, err
			}
			sc.engine = eng
		}
		r.clients = append(r.clients, sc)
	}

	// Stagger client start over the first few milliseconds to avoid a
	// synchronized thundering herd at t=0.
	for i, sc := range r.clients {
		sc := sc
		r.sim.At(Time(i%1000)*5*Microsecond, sc.submitNext)
	}

	// Snapshot busy counters at the warmup boundary.
	var busyAtWarmup map[*Thread]Time
	r.sim.At(cfg.Warmup, func() {
		busyAtWarmup = make(map[*Thread]Time)
		for _, sr := range r.replicas {
			for _, t := range sr.host.Threads() {
				busyAtWarmup[t] = t.BusyNS
			}
		}
	})

	end := cfg.Warmup + cfg.Measure
	events := r.sim.Run(end)

	res := Result{
		ThroughputTxns:    float64(r.measured) / (float64(cfg.Measure) / float64(Second)),
		MeanLatency:       r.latency.Mean(),
		P50Latency:        r.latency.Percentile(50),
		P99Latency:        r.latency.Percentile(99),
		FastPath:          r.fast,
		SlowPath:          r.slow,
		Events:            events,
		PrimarySaturation: map[string]float64{},
		BackupSaturation:  map[string]float64{},
	}
	res.ThroughputOps = res.ThroughputTxns * float64(cfg.OpsPerTxn)
	window := float64(cfg.Measure)
	collect := func(sr *simReplica, into map[string]float64) {
		for _, t := range sr.host.Threads() {
			base := Time(0)
			if busyAtWarmup != nil {
				base = busyAtWarmup[t]
			}
			sat := float64(t.BusyNS-base) / window
			if sat > 1 {
				sat = 1 // dispatch-time billing can overrun by one job
			}
			into[t.Name] += sat
		}
	}
	collect(r.replicas[0], res.PrimarySaturation)
	for i := 1; i < len(r.replicas); i++ {
		if !r.replicas[i].down {
			collect(r.replicas[i], res.BackupSaturation)
			break
		}
	}
	return res, nil
}

// recordCompletion tallies a client completion.
func (r *run) recordCompletion(start Time, fast bool) {
	now := r.sim.Now()
	if now >= r.cfg.Warmup {
		r.measured += uint64(r.cfg.Burst)
		r.latency.Record(time.Duration(now - start))
		if fast {
			r.fast++
		} else {
			r.slow++
		}
	}
}

// mkRequest builds the lightweight in-sim client request. Transactions
// carry no payload bytes — sizes and costs are accounted analytically —
// but identities are real so digests, quorums, and engine logic behave
// exactly as in the runnable system.
func mkRequest(id types.ClientID, seq uint64, burst int) types.ClientRequest {
	txns := make([]types.Transaction, burst)
	for i := range txns {
		txns[i] = types.Transaction{Client: id, ClientSeq: seq + uint64(i)}
	}
	return types.ClientRequest{Client: id, FirstSeq: seq, Txns: txns}
}

// hashChain is the cheap stand-in state digest used for checkpoints.
func hashChain(prev types.Digest, d types.Digest) types.Digest {
	return crypto.HashChain(prev, d)
}
