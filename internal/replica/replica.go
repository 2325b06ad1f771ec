// Package replica implements the multi-threaded deep pipeline of paper
// Section 4 (Figures 5 and 6): the runnable replica that turns a consensus
// engine into a high-throughput permissioned blockchain node.
//
// A replica runs these stages, each on its own goroutine(s):
//
//   - one input-thread dedicated to client traffic and one per further
//     endpoint inbox sharing replica traffic (Section 4.1); each
//     authenticates the envelope it dequeued, then decodes it and routes it
//     to the stage that owns it;
//   - at the primary, BatchThreads batch-threads pulling client requests
//     from a shared lock-free queue, verifying client signatures, building
//     batches with a single digest, signing and proposing them
//     (Section 4.3);
//   - one worker-thread driving the consensus engine over every
//     pre-prepare, prepare, commit and view-change message
//     (Sections 4.3–4.4);
//   - an execute stage draining the in-order execution queue (txn % QC
//     slots, Section 4.6) along one route at every E: the coordinating
//     execute-thread hash-partitions each committed batch's typed ops,
//     the partitions are applied to the store (inline when there is one,
//     by E shard workers concurrently when ExecuteThreads E > 1), and
//     batches retire strictly in order behind their barrier (ledger
//     append, checkpoint digest, client responses). ExecPipelineDepth
//     P > 1 relaxes the per-batch barrier into cross-batch pipelining:
//     up to P batches in flight, with per-shard FIFO queues keeping
//     conflicting key partitions in batch order;
//   - one checkpoint-thread processing checkpoint traffic (Section 4.7).
//
// There is no output stage of the replica's own: whichever stage produced a
// message signs it and hands the envelope to the endpoint, whose per-peer
// writers are the paper's output-threads (Section 4.1). A message changes
// goroutine only where there is work on the other side.
//
// A zero Config shape is the paper's standard 2B1E replica; setting
// BatchThreads, ExecuteThreads or VerifyThreads to -1 folds that stage into
// the worker-thread, reproducing the paper's 0B/0E configurations
// (Section 5.2). Message and transaction buffers come from object pools
// (Section 4.8). The paper stopped at one execute-thread because arbitrary
// multi-threaded execution causes data conflicts; this replica goes
// further by exploiting that the workload's write-sets are known up front
// (write-only YCSB over a keyed table), so partitioning by key makes
// parallel execution conflict-free and deterministic.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/consensus/pbft"
	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/pool"
	"resilientdb/internal/queue"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Protocol names the consensus engine. A replica runs PBFT only; the
// speculative baseline the paper compares against runs in internal/sim.
type Protocol int

// PBFT is the one protocol a replica runs.
const PBFT Protocol = 1

// Config parameterizes a replica. Beyond ID, N, Directory and Endpoint
// every field may be left zero: the pipeline-shape fields then take the
// paper's standard configuration (Section 5.2), B=2, E=1, V=2, depth 1,
// batches of 100, a checkpoint every 100 batches. For B, E and V, -1 folds
// the stage (the paper's 0B/0E, and inline verification).
type Config struct {
	// ID is this replica's identifier; N the cluster size (n ≥ 3f+1).
	ID types.ReplicaID
	N  int
	// Protocol is PBFT or zero, which means PBFT; anything else is refused.
	Protocol Protocol
	// BatchSize caps the transactions aggregated per consensus batch (the
	// paper's default is 100, Section 5.1): the batch stage proposes what
	// is queued, up to this many, and never waits for more.
	BatchSize int
	// BatchThreads is B, the batch-threads at the primary (default 2); -1
	// folds batching into the worker-thread (the paper's 0B).
	BatchThreads int
	// ExecuteThreads is E, the number of execution shards (default 1, a
	// single serial execute-thread: the paper's 1E); -1 folds execution
	// into the worker-thread (the paper's 0E). With E > 1 the execute stage
	// keeps its single in-order coordinator but hash-partitions each
	// committed batch's write-set by key across E shard workers that apply
	// their partitions to the store concurrently.
	// Batches retire strictly in order (by default behind a per-batch
	// barrier; see ExecPipelineDepth), and because one key always maps to
	// the same shard and each shard applies its writes in batch order,
	// the ledger, checkpoint digests, and final store state are
	// byte-identical to serial execution. (The paper warns that arbitrary
	// multi-threaded execution causes data conflicts, Section 6
	// "Threading and Pipelining"; write-set partitioning is what makes
	// E > 1 conflict-free here.)
	ExecuteThreads int
	// ExecPipelineDepth relaxes the execute stage's per-batch barrier into
	// cross-batch pipelining (only meaningful with ExecuteThreads > 1;
	// default 1, the strict barrier). With depth P > 1 the coordinator may
	// fan out the write partitions of up to P committed batches before
	// waiting on the oldest batch's barrier. Because each shard worker
	// drains its queue in FIFO order and one key always maps to one shard,
	// a later batch's partition for shard s queues behind an earlier
	// batch's partition for the same shard — conflicting shards stay
	// ordered — while shards the earlier batch did not touch start
	// immediately. Ledger appends, checkpoint digests, and client
	// responses are still emitted strictly in sequence order at retire
	// time, so the result remains byte-identical to serial execution.
	ExecPipelineDepth int
	// WorkerThreads is ignored: a replica runs one worker-thread, as the
	// paper's does. The field stays for callers that still set it.
	WorkerThreads int
	// VerifyThreads is V (default 2). With V > 0 an input-thread
	// authenticates every peer envelope it dequeues, before decoding it, so
	// the worker-thread only ever sees authenticated messages and an
	// unauthenticated peer buys no parsing; the inboxes are the parallelism,
	// whatever the scheme. V also sizes the crypto.VerifyPool that fans a
	// batch's client signatures out, the one check that has a fan-out. -1
	// verifies peer envelopes on the worker-thread and client signatures on
	// the batch-thread, the paper's baseline assignment (Section 4.3), kept
	// for the ablations.
	VerifyThreads int
	// CheckpointInterval is Δ in batches; the paper checkpoints once per
	// 10K transactions, i.e. every 100 batches of 100 (Section 5.1).
	CheckpointInterval uint64
	// LedgerMode selects block linkage (default CommitCertificate,
	// Section 4.6).
	LedgerMode ledger.Mode
	// Store is the record table; nil means a fresh in-memory store. A
	// store that is not a store.Backend runs behind store.AsBackend's
	// blocking calls.
	Store store.Store
	// Directory provides key material; Endpoint attaches the network.
	Directory *crypto.Directory
	Endpoint  transport.Endpoint
	// VerifyClientSigs is ignored: the primary's batch-threads always
	// verify client request signatures before batching, rejecting forged
	// requests.
	VerifyClientSigs bool
	// DisableOutOfOrder serializes consensus instances: the primary
	// proposes batch k+1 only after batch k executed. It exists as the
	// ablation baseline for Section 4.5.
	DisableOutOfOrder bool
	// ViewTimeout arms a progress watchdog that triggers a view change
	// when client work stalls; zero disables it.
	ViewTimeout time.Duration
	// Bootstrap seeds a restarting replica mid-stream instead of booting
	// from genesis; nil is the fresh-boot default.
	Bootstrap *Bootstrap
}

// Bootstrap is the state a recovering replica resumes from: a snapshot of
// a live peer's ledger tail and its newest certificate (the stable
// checkpoint licenses everything before it), the cluster's current view,
// and the per-client dedup positions at the snapshot head. The replica's
// durable store carries the record state itself — reopened shard logs
// replay to the state the snapshot head attests — so Bootstrap carries only
// the consensus-side state that lives in memory.
type Bootstrap struct {
	// Blocks and Certificate are the peer's ledger.Tail(): the blocks from
	// the first one its newest certificate covers, and that certificate,
	// which the recovering replica's chain continues from. The last block
	// anchors the engine's watermarks and the execution cursor.
	Blocks      []types.Block
	Certificate ledger.Certificate
	// View is the cluster's current view; the engine boots into it so the
	// recovering replica accepts current-view traffic immediately.
	View types.View
	// LastExec is the per-client dedup snapshot at the peer
	// (Replica.DedupSnapshot()); without it a recovering replica would
	// re-execute a retransmitted request its peers already skipped,
	// diverging store state from the ledger.
	LastExec map[types.ClientID]uint64
}

func (c *Config) fill() error {
	if c.N < 4 {
		return fmt.Errorf("replica: need n ≥ 4, got %d", c.N)
	}
	if int(c.ID) >= c.N {
		return fmt.Errorf("replica: id %d out of range for n=%d", c.ID, c.N)
	}
	if c.Protocol != 0 && c.Protocol != PBFT {
		return fmt.Errorf("replica: protocol %d is not served: a replica runs PBFT only (Zyzzyva runs in internal/sim)", c.Protocol)
	}
	// The pipeline shape. Zero is the paper's standard; -1 folds B, E or V
	// and is kept as given (every stage check is > 0, > 1 or a < n loop), so
	// fill is idempotent.
	for _, f := range []struct {
		name     string
		v        *int
		def      int
		foldable bool
	}{
		{"BatchThreads", &c.BatchThreads, 2, true},
		{"ExecuteThreads", &c.ExecuteThreads, 1, true},
		{"VerifyThreads", &c.VerifyThreads, 2, true},
		{"ExecPipelineDepth", &c.ExecPipelineDepth, 1, false},
		{"BatchSize", &c.BatchSize, 100, false},
	} {
		switch {
		case *f.v == 0:
			*f.v = f.def
		case *f.v == -1 && f.foldable:
		case *f.v < 0 && f.foldable:
			return fmt.Errorf("replica: %s %d (0 = default %d, -1 folds the stage)", f.name, *f.v, f.def)
		case *f.v < 0:
			return fmt.Errorf("replica: negative %s (0 = default %d)", f.name, f.def)
		}
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 100
	}
	if c.LedgerMode == 0 {
		c.LedgerMode = ledger.CommitCertificate
	}
	if c.Directory == nil {
		return fmt.Errorf("replica: Directory is required")
	}
	if c.Endpoint == nil {
		return fmt.Errorf("replica: Endpoint is required")
	}
	return nil
}

const (
	// watermarkWindow bounds out-of-order pipelining depth: how many
	// sequence numbers consensus may run ahead of the last stable
	// checkpoint.
	watermarkWindow = 4096
	// cacheLine is the padding unit fencing Replica's hot counters.
	cacheLine = 64
)

// Stage identifies a pipeline stage for busy-time accounting.
type Stage int

// Pipeline stages (Figure 6).
const (
	StageInput Stage = iota
	StageBatch
	StageWorker
	StageExecute
	StageCheckpoint
	StageOutput
	stageCount
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageInput:
		return "input"
	case StageBatch:
		return "batch"
	case StageWorker:
		return "worker"
	case StageExecute:
		return "execute"
	case StageCheckpoint:
		return "checkpoint"
	case StageOutput:
		return "output"
	default:
		return "unknown"
	}
}

// Stats is a snapshot of replica counters. Taking a snapshot is lock-free
// end to end — every counter (including the engine's) is an atomic — so
// observability never contends with consensus.
type Stats struct {
	TxnsExecuted    uint64
	BatchesExecuted uint64
	BatchesProposed uint64
	// ReadsExecuted counts read operations carried through consensus and
	// answered at execution (the ordered read path). LocalReads counts
	// client ReadRequests answered from the last-executed state on the
	// dedicated read lane, without consuming a sequence number — the
	// consensus-bypassing read path. LocalReadDrops counts ReadRequests
	// discarded because the read lane's queue was full (the client times
	// out and rotates to another replica); it is the local read path's
	// overload signal.
	ReadsExecuted  uint64
	LocalReads     uint64
	LocalReadDrops uint64
	MsgsIn         uint64
	MsgsOut        uint64
	// AuthFailures counts envelopes whose authenticator failed
	// verification and client requests with bad signatures — the real
	// "someone is forging traffic" signal.
	AuthFailures uint64
	// DecodeFailures counts malformed messages that failed body decoding
	// or arrived with an unexpected type. Kept separate from
	// AuthFailures so garbage traffic cannot hide real auth attacks.
	DecodeFailures uint64
	// NetDrops is the endpoint's count of inbound envelopes discarded
	// because their inbox was full — the previously silent overload
	// signal.
	NetDrops     uint64
	Checkpoints  uint64
	View         types.View
	LedgerHeight uint64
	// BusyNS is cumulative busy time per stage, the runtime analogue of
	// the Figure 9 saturation measurement. Busy means working: the batch
	// entry is assembling, verifying and proposing, not time parked on an
	// empty queue or a full watermark window, as the execute entry leaves
	// out time parked on a barrier. The output entry is the time
	// the sending stages spend inside Endpoint.Send (it is part of their
	// own busy time too: there are no output-threads).
	BusyNS [stageCount]uint64
	// ExecShards is the number of execution shard workers actually
	// running (0 when execution is serial, i.e. ExecuteThreads ≤ 1).
	ExecShards int
	// ExecShardBusyNS is cumulative store-apply busy time per execution
	// shard: with ExecuteThreads > 1 it shows
	// how the write-set partitions spread across shards. The execute
	// entry of BusyNS is the coordinator's own work per batch (staging and
	// retiring, plus the apply itself when one partition runs inline; time
	// parked on a barrier is not busy), so shard busy vs coordinator busy
	// is the parallelism evidence on few-core machines.
	ExecShardBusyNS []uint64
	// ExecPipelineDepth is the effective cross-batch pipelining depth (1 =
	// the strict per-batch barrier).
	ExecPipelineDepth int
	// StoreFsyncs and StoreFsyncStallNS surface the durable store's
	// group-commit accounting (zero for stores without fsync, e.g.
	// MemStore): how many fsyncs the store issued and how long writers
	// cumulatively stalled waiting for one. The diskpipe bench reads these
	// to show what group commit buys over per-op fsync.
	StoreFsyncs       uint64
	StoreFsyncStallNS uint64
	// StoreWriteFailures counts failed store calls of the execute stage,
	// one per call at every E: a write flush the store rejected (one
	// Append, however many writes it carried), a durable wait that failed
	// (full disk, failed fsync, closed store), or a read or key listing the
	// store could not answer. Any nonzero value means store state may have
	// diverged from the ledger — the durable-store analogue of the evidence
	// counter.
	StoreWriteFailures uint64
	// StoreCompactions, StoreCompactFailures, StoreCompactReclaimedBytes,
	// and StoreCompactStallNS surface the durable store's log-compaction
	// accounting (zero for stores without logs, e.g. MemStore): completed
	// and failed log rewrites, the log bytes those rewrites dropped, and
	// how long writers stalled behind a rewrite. Compaction is triggered
	// on the replica's stable-checkpoint path (the §4.7 garbage-collection
	// moment) behind the store's garbage-ratio threshold.
	StoreCompactions           uint64
	StoreCompactFailures       uint64
	StoreCompactReclaimedBytes uint64
	StoreCompactStallNS        uint64
	// EncodePoolHits and EncodePoolMisses are the outbound encode pool's
	// reuse counters: a miss is a send that had to allocate its body
	// buffer. VerifyBatched is always 0: envelopes are authenticated one at
	// a time where they are dequeued (the field stays for its readers).
	EncodePoolHits   uint64
	EncodePoolMisses uint64
	VerifyBatched    uint64
	// Queue-depth gauges: a live snapshot of how full each bounded
	// pipeline queue is, taken when Stats is called. NetDrops only shows
	// saturation after the damage; these show it while it builds, which
	// is what the gateway's admission controller steers on. Input is the
	// fullest endpoint inbox, Work the worker-thread's queue; ExecBacklog
	// counts batches decided by consensus but not yet retired (bounded by
	// the watermark window, reported as ExecWindow). OutQueueDepth and
	// OutQueueCap are always 0: the replica keeps no output queue (the
	// fields stay for their readers).
	InputQueueDepth int
	InputQueueCap   int
	BatchQueueDepth int
	BatchQueueCap   int
	WorkQueueDepth  int
	WorkQueueCap    int
	ExecBacklog     int
	ExecWindow      int
	OutQueueDepth   int
	OutQueueCap     int
	// BusyGauge folds the gauges above into the 0 (idle) .. 255 (a queue
	// is full) saturation scalar replicas piggyback on client responses
	// (ClientResponse.Busy): the fill fraction of the fullest queue,
	// scaled. Stats recomputes it live.
	BusyGauge uint8
	// Evidence counts byzantine-behaviour observations (e.g. a primary
	// equivocating two digests for one sequence, a checkpoint vote whose
	// signature fails) and pipeline invariant violations. Any nonzero value
	// on an honest replica means a peer misbehaved in a provable way.
	Evidence uint64
	// CheckpointSigs counts the checkpoint votes this replica signed,
	// CheckpointVerifies the peers' votes whose signature it checked (only
	// while their checkpoint lacked a quorum) and CheckpointRejects those
	// that failed, each also counted as Evidence.
	CheckpointSigs     uint64
	CheckpointVerifies uint64
	CheckpointRejects  uint64
}

// workItem is the union flowing into the worker-thread: either a decoded
// peer message or (in 0B mode) a client request to batch. The input stage
// decodes the envelope body before routing — that cost stays off the
// worker-thread — so msg is always non-nil when env is. verified records
// that the input-thread already checked the envelope's authenticator, so
// the worker must not spend time re-checking it.
type workItem struct {
	env      *types.Envelope
	msg      types.Message
	req      *types.ClientRequest
	verified bool
}

// execItem carries one committed batch into the execution stage.
type execItem struct {
	act consensus.Execute
}

// shardOp is one typed operation of a committed batch, routed to one of the
// batch's partitions at its batch position. A write carries the value to
// apply; a read carries the slot in the batch's read-result buffer where its
// result lands. A scan carries its range bounds and where its rows go: with
// one partition the whole result into its slot, with several slot indexes
// the batch's frags, where this partition's fragment — the sorted rows of
// its own key partition inside [key, end] — waits for the coordinator's
// merge at retirement.
type shardOp struct {
	key   uint64
	value []byte
	slot  int
	read  bool
	scan  bool
	end   uint64
	limit uint32
}

// partition is one execute partition of an in-flight batch: its ops in
// batch order, and the memory its reads are answered in. Every value a read
// or scan of the partition returns is carved from vals, the value arena,
// and every scan row from rows, the row slab (the fragment merge carves
// from partition 0's); keys is a scan's key-chunk scratch. They are lent to
// the batch's read results until retirement has encoded every response, and
// keep their capacity from batch to batch, so steady-state reads allocate
// nothing. A buffer that grows leaves the results carved before it on the
// old array, which nothing writes again.
type partition struct {
	ops  []shardOp
	vals []byte
	rows []types.ScanRow
	keys []uint64
}

// carve returns the bytes appended to p.vals since at, clipped so an append
// to them cannot run into the next value.
func (p *partition) carve(at int) []byte {
	return p.vals[at:len(p.vals):len(p.vals)]
}

// carveRows returns the rows appended to p.rows since first, clipped; nil
// for none.
func (p *partition) carveRows(first int) []types.ScanRow {
	if len(p.rows) == first {
		return nil
	}
	return p.rows[first:len(p.rows):len(p.rows)]
}

// reset empties the partition for its next batch or reply, keeping every
// buffer's capacity. With poisonRecycled on, what the last one lent is
// overwritten with 0xDB first.
func (p *partition) reset() {
	if poisonRecycled.Load() {
		vals := p.vals[:cap(p.vals)]
		for i := range vals {
			vals[i] = poisonByte
		}
		rows := p.rows[:cap(p.rows)]
		for i := range rows {
			rows[i] = types.ScanRow{Key: poisonKey, Value: poisonValue}
		}
	}
	p.ops, p.vals, p.rows = p.ops[:0], p.vals[:0], p.rows[:0]
}

// poisonRecycled is a test hook: with it on, a partition's value arena and
// row slab are overwritten with 0xDB as they are recycled, so a read result
// kept past its batch's retirement reads poison at once instead of, now
// and then, a later batch's values. It costs one atomic load per recycle
// while off.
var poisonRecycled atomic.Bool

// What a recycled arena and row slab read once poisoned.
const (
	poisonByte = 0xDB
	poisonKey  = 0xDBDBDBDBDBDBDBDB
)

var poisonValue = []byte{poisonByte}

// readRange is one request's contiguous span of the batch's read-result
// buffer; slots are assigned in (request, transaction, op) order, so each
// request's reads are adjacent.
type readRange struct {
	start, n int
}

// pendingScan is one scan op of an in-flight batch fanned out over several
// partitions: each computes the sorted fragment of its own key partition
// into the batch's frags, one per partition from index frags on, and the
// coordinator merges the disjoint fragments into the batch's read-result
// slot at retirement. limit is the row cap after the merge; capping each
// fragment at limit too is lossless — a row a shard drops has ≥ limit
// smaller same-shard rows ahead of it, so it cannot be among the lowest
// limit rows overall.
type pendingScan struct {
	slot  int
	limit uint32
	frags int
}

// durableWait is what a shard worker leaves with the replica's durable
// waiter when a finished partition's writes are appended but not yet
// covered by an fsync: the ticket covering them and the batch whose
// barrier they hold up.
type durableWait struct {
	ticket store.Ticket
	batch  *inflightExec
}

// inflightExec is one committed batch mid-pipeline: staged into partitions,
// its barrier not yet waited out. parts holds each partition's ops in batch
// order and the memory its reads are answered in. The whole struct, buffers
// and all, belongs to the batch until retirement has answered every client,
// and is then recycled (via execFree) for a later batch; taking a partition
// off the barrier is a worker's last touch of the batch, so the buffers are
// never rebuilt while a worker still reads them. A batch applied inline is
// born with the shared, already lowered barrier; a fanned-out one gets its
// own, pending counts the partitions still executing or awaiting
// durability, and whoever takes it to zero closes done. The coordinator
// retires batches strictly in sequence order.
type inflightExec struct {
	act      consensus.Execute
	txnCount uint32
	pending  atomic.Int32
	done     chan struct{}
	parts    []partition
	// reads is the slot-indexed read-result buffer the partitions fill —
	// each only the slots its own ops carry, so workers never race on an
	// element; readRanges maps each request in the batch to its span. Both
	// stay empty for write-only batches. scans lists the fanned-out scan
	// slots, filled by the coordinator's fragment merge at retirement from
	// frags, where each partition leaves its fragment of each.
	reads      []types.ReadResult
	readRanges []readRange
	scans      []pendingScan
	frags      [][]types.ScanRow
}

// recycle empties a retired batch and gives it back to execFree. It must
// not run before retirement has encoded the batch's last response: the
// read results those carry are lent from the batch's partitions.
func (r *Replica) recycle(b *inflightExec) {
	for i := range b.parts {
		b.parts[i].reset()
	}
	clear(b.reads)
	b.act, b.txnCount = consensus.Execute{}, 0
	b.reads, b.readRanges, b.scans, b.frags = b.reads[:0], b.readRanges[:0], b.scans[:0], b.frags[:0]
	r.execFree <- b
}

// Replica is a runnable pipelined replica.
type Replica struct {
	// The hot counters, written by every stage on every message or batch,
	// lead the struct between two cache lines of padding: no field added,
	// removed or resized below (Config above all) can move them across a
	// line or put a read-mostly field on one of theirs.
	_ [cacheLine]byte

	txnsExecuted    atomic.Uint64
	batchesExecuted atomic.Uint64
	readsExecuted   atomic.Uint64
	localReads      atomic.Uint64
	localReadDrops  atomic.Uint64
	// lastRetired is the highest sequence number whose batch has fully
	// retired (ledger appended, store applied); locally served reads are
	// stamped with it as a per-key freshness lower bound (reads run
	// concurrently with later batches applying, so it is not a snapshot
	// position).
	lastRetired    atomic.Uint64
	msgsIn         atomic.Uint64
	msgsOut        atomic.Uint64
	authFailures   atomic.Uint64
	decodeFailures atomic.Uint64
	ckptSigs       atomic.Uint64
	ckptVerifies   atomic.Uint64
	ckptRejects    atomic.Uint64
	storeFailures  atomic.Uint64
	busyNS         [stageCount]atomic.Uint64
	shardBusyNS    []atomic.Uint64

	_ [cacheLine]byte

	cfg Config
	// engine is the PBFT engine. It takes its own lock, so the stages that
	// step it (worker, batch, execute, checkpoint, watchdog) take none of
	// theirs around engine calls.
	engine consensus.Engine
	auth   crypto.NodeAuthenticator
	// ckptKeys checks the peers' checkpoint votes; counter, when the engine
	// has one, says which of them would still count.
	ckptKeys *crypto.CheckpointKeys
	counter  consensus.CheckpointCounter

	ledger *ledger.Ledger
	// store is the record table the execute stage writes with Append and
	// reads into its arenas: cfg.Store through store.AsBackend.
	store store.Backend
	// syncStats is the store's fsync accounting (nil for stores without a
	// log, e.g. MemStore).
	syncStats store.SyncStatser

	// Execute stage. Every committed batch is staged into partitions: one,
	// applied inline by whoever staged it, unless ExecuteThreads > 1, when
	// execShards workers each own one hash partition of the key space and
	// the coordinating execute-thread fans the batch out over shardQs.
	// execDepth is the cross-batch pipelining depth (1 = strict per-batch
	// barrier); execFree recycles execDepth in-flight batches, buffers and
	// all, so a batch's buffers are only reused after it retired.
	execShards int
	execDepth  int
	shardQs    []chan *inflightExec
	shardWg    sync.WaitGroup
	execFree   chan *inflightExec

	// Store compaction (nil for stores without logs, e.g. MemStore): a
	// stable checkpoint signals compactC (capacity one, non-blocking) and
	// a single compactor goroutine runs the store's threshold check, so
	// log rewrites never run on the worker-thread and never pile up.
	compactor store.Compactor
	compactC  chan struct{}
	compactWg sync.WaitGroup

	batchQ *queue.MPMC[*types.ClientRequest]
	// workQ feeds the worker-thread.
	workQ  chan workItem
	ckptQ  chan workItem
	execIn *queue.InOrder[execItem]

	// progressC wakes batch-threads parked on a full watermark window (or
	// the DisableOutOfOrder gate); it is signalled on every executed
	// batch and stable checkpoint. Capacity one: a lost signal only
	// delays a waiter until its fallback timer fires.
	progressC chan struct{}

	// Read lane: the input stage enqueues authenticated, decoded local
	// ReadRequests here and dedicated read workers answer them, so store
	// reads never head-of-line block the client inbox. A full queue drops
	// the request (localReadDrops) instead of backpressuring consensus
	// traffic.
	readQ  chan *types.ReadRequest
	readWg sync.WaitGroup

	// verifyPool fans a batch's client signatures out over VerifyThreads
	// workers (nil when VerifyThreads is -1).
	verifyPool *crypto.VerifyPool

	// encBufs backs the outbound encode path (Section 4.8 buffer-pool
	// management on the send side): broadcast/sendTo bodies are marshaled
	// into arena-backed buffers, reference-counted per destination
	// envelope and recycled here once the transport writer (or in-process
	// receiver) retires the last one. encHint tracks the largest body
	// seen, so marshals borrow from the right capacity class up front
	// instead of growing out of an undersized buffer on every large batch.
	// A proposal's buffer does not come back when a receiver on the
	// in-process fabric decoded it in place (types.DecodeEnvelope disowns
	// it). The interface is so the recycling-safety test can poison.
	encBufs interface {
		types.FrameBuffers
		Stats() (hits, misses uint64)
	}
	encHint atomic.Int64

	// Execution-side dedup: last executed client sequence per client.
	// Only the execute coordinator writes it; dedupMu exists so
	// DedupSnapshot (the restart-bootstrap export) can read it safely.
	dedupMu  sync.Mutex
	lastExec map[types.ClientID]uint64

	// Watchdog state. watchedView is the view lastProgress is about: a
	// ViewChanged action restarts lastProgress and then stores the view, and
	// the watchdog loads them in the opposite order, so a time-out it reports
	// for a view was measured in that view or a later one, never an earlier.
	pendingHint  atomic.Bool
	lastProgress atomic.Int64 // unix nanos
	watchedView  atomic.Uint64

	// notPrimary caches the inverse primary role for the lock-free input
	// path; refreshed on ViewChanged actions.
	notPrimary atomic.Bool

	// evidence counts byzantine-behaviour observations and pipeline
	// invariant violations.
	evidence atomic.Uint64

	// inlineMu admits one stepping thread at a time to drain execIn in the
	// 0E configuration.
	inlineMu sync.Mutex

	// inflight tracks unexecuted proposed batches for the
	// DisableOutOfOrder ablation.
	inflight atomic.Int64

	// execPending counts batches decided by consensus but not yet retired
	// (ledger appended, clients answered) — the execute stage's backlog
	// gauge. execWindow is the watermark window it is read against: the
	// protocol-level bound on in-flight sequence numbers.
	execPending atomic.Int64
	execWindow  int

	stop     chan struct{}
	stopOnce sync.Once
	inputWg  sync.WaitGroup
	stage1Wg sync.WaitGroup // batch, worker, checkpoint
	execWg   sync.WaitGroup
	watchWg  sync.WaitGroup

	// Partitions are appended to the store (visible at once) and the wait
	// for the fsync happens before retirement — inline for a batch applied
	// inline, by the one durable waiter on durableQ for a fanned-out one,
	// so no shard worker ever waits for a disk. inlineScratch is the
	// write buffer of the inline apply, reused batch after batch (one
	// stager at a time: the execute-thread, or a stepping thread under
	// inlineMu), and retireOut takes the engine's OnExecuted outputs (one
	// retirer at a time, the same way).
	durableQ      chan durableWait
	durableWg     sync.WaitGroup
	inlineScratch []store.KV
	retireOut     consensus.Out
}

// New creates a replica; call Start to launch the pipeline.
func New(cfg Config) (*Replica, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	// A bootstrap anchors the engine and the execution cursor at the
	// snapshot head: everything at or below startSeq is already executed
	// (the recovering replica's reopened store attests it), everything
	// above arrives through normal consensus in startView.
	var startSeq types.SeqNum
	var startView types.View
	if cfg.Bootstrap != nil {
		if len(cfg.Bootstrap.Blocks) == 0 {
			return nil, errors.New("replica: bootstrap requires a non-empty block snapshot")
		}
		head := cfg.Bootstrap.Blocks[len(cfg.Bootstrap.Blocks)-1]
		startSeq = head.Seq
		startView = cfg.Bootstrap.View
	}
	engine, err := pbft.New(pbft.Config{
		ID:                 cfg.ID,
		N:                  cfg.N,
		CheckpointInterval: cfg.CheckpointInterval,
		WatermarkWindow:    watermarkWindow,
		StartView:          startView,
		StartSeq:           startSeq,
	})
	if err != nil {
		return nil, err
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMemStore(1 << 16)
	}
	ckptKeys := cfg.Directory.CheckpointKeys(cfg.N)
	ldg, err := openLedger(&cfg, ckptKeys)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:        cfg,
		engine:     engine,
		auth:       cfg.Directory.NodeAuth(types.ReplicaNode(cfg.ID)),
		ckptKeys:   ckptKeys,
		ledger:     ldg,
		store:      store.AsBackend(st),
		batchQ:     queue.NewMPMC[*types.ClientRequest](1 << 14),
		workQ:      make(chan workItem, 1<<13),
		ckptQ:      make(chan workItem, 1<<10),
		execIn:     queue.NewInOrder[execItem](watermarkWindow*2, uint64(startSeq)+1),
		execWindow: watermarkWindow,
		lastExec:   make(map[types.ClientID]uint64),
		stop:       make(chan struct{}),
		progressC:  make(chan struct{}, 1),
		readQ:      make(chan *types.ReadRequest, 1<<10),
		encBufs:    new(pool.BytePool),
	}
	r.execDepth = 1
	parts := 1
	if cfg.ExecuteThreads > 1 {
		r.execShards = cfg.ExecuteThreads
		parts = r.execShards
		// Pipelining depth only exists for the sharded execute stage: a
		// batch applied inline is finished before the next is staged.
		r.execDepth = cfg.ExecPipelineDepth
		// A shard can hold one outstanding job per in-flight batch; sizing
		// the queue to the depth keeps the coordinator from blocking on
		// fan-out (blocking would only be backpressure, not a bug).
		r.shardQs = make([]chan *inflightExec, r.execShards)
		for i := range r.shardQs {
			r.shardQs[i] = make(chan *inflightExec, r.execDepth)
		}
		r.shardBusyNS = make([]atomic.Uint64, r.execShards)
		// One entry per partition of every in-flight batch, what the shard
		// queues feeding it hold together.
		r.durableQ = make(chan durableWait, r.execDepth*r.execShards)
	}
	r.execFree = make(chan *inflightExec, r.execDepth)
	for i := 0; i < r.execDepth; i++ {
		r.execFree <- &inflightExec{parts: make([]partition, parts)}
	}
	r.syncStats, _ = st.(store.SyncStatser)
	if comp, ok := st.(store.Compactor); ok {
		r.compactor = comp
		r.compactC = make(chan struct{}, 1)
	}
	if cfg.Bootstrap != nil {
		r.lastRetired.Store(uint64(startSeq))
		for c, seq := range cfg.Bootstrap.LastExec {
			r.lastExec[c] = seq
		}
	}
	r.counter, _ = r.engine.(consensus.CheckpointCounter)
	r.notPrimary.Store(!engine.IsPrimary())
	r.lastProgress.Store(time.Now().UnixNano())
	r.watchedView.Store(uint64(engine.View()))
	return r, nil
}

// openLedger starts the replica's chain at genesis or, on a bootstrap,
// from the peer's tail and certificate: it closes again every checkpoint
// the peer closed above its certificate and checks that certificate
// against the node keys before the replica trusts it.
func openLedger(cfg *Config, keys *crypto.CheckpointKeys) (*ledger.Ledger, error) {
	q := consensus.Quorum2f1(cfg.N)
	if cfg.Bootstrap == nil {
		genesis := crypto.Hash256([]byte(fmt.Sprintf("genesis-primary-%d", consensus.PrimaryOf(0, cfg.N))))
		l := ledger.New(cfg.LedgerMode, genesis, q)
		l.UseKeys(keys)
		return l, nil
	}
	boot := cfg.Bootstrap
	l, err := ledger.Resume(cfg.LedgerMode, boot.Blocks, boot.Certificate, q)
	if err != nil {
		return nil, err
	}
	l.UseKeys(keys)
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("replica: bootstrap: %w", err)
	}
	for ck := uint64(boot.Certificate.Seq) + cfg.CheckpointInterval; ck <= l.Height(); ck += cfg.CheckpointInterval {
		if _, err := l.Checkpoint(types.SeqNum(ck)); err != nil {
			return nil, fmt.Errorf("replica: bootstrap: %w", err)
		}
	}
	return l, nil
}

// Ledger exposes the replica's blockchain for inspection.
func (r *Replica) Ledger() *ledger.Ledger { return r.ledger }

// Store exposes the replica's record table.
func (r *Replica) Store() store.Store { return r.store }

// LastRetired returns the highest sequence number whose batch has fully
// executed and retired — the store reflects exactly the batches up to
// this point, while the ledger's height tracks commitment, which
// execution trails.
func (r *Replica) LastRetired() types.SeqNum { return types.SeqNum(r.lastRetired.Load()) }

// ID returns the replica identifier.
func (r *Replica) ID() types.ReplicaID { return r.cfg.ID }

// IsPrimary reports whether this replica currently leads. It is
// lock-free (the engine's observers are atomic-backed).
func (r *Replica) IsPrimary() bool {
	return r.engine.IsPrimary()
}

// ProposalHead returns the highest sequence number the consensus engine
// has proposed or adopted, or 0 if the engine does not expose it.
func (r *Replica) ProposalHead() types.SeqNum {
	if ph, ok := r.engine.(consensus.ProposalHeader); ok {
		return ph.LastProposed()
	}
	return 0
}

// Stats returns a snapshot of the replica's counters. It takes no locks —
// engine observers and every replica counter are atomics — so polling
// stats never contends with consensus.
func (r *Replica) Stats() Stats {
	es := r.engine.Stats()
	s := Stats{
		TxnsExecuted:    r.txnsExecuted.Load(),
		BatchesExecuted: r.batchesExecuted.Load(),
		ReadsExecuted:   r.readsExecuted.Load(),
		LocalReads:      r.localReads.Load(),
		LocalReadDrops:  r.localReadDrops.Load(),
		BatchesProposed: es.Proposed,
		MsgsIn:          r.msgsIn.Load(),
		MsgsOut:         r.msgsOut.Load(),
		AuthFailures:    r.authFailures.Load(),
		DecodeFailures:  r.decodeFailures.Load(),
		NetDrops:        r.cfg.Endpoint.Drops(),
		Checkpoints:     es.Checkpoints,
		View:            r.engine.View(),
		LedgerHeight:    r.ledger.Height(),
	}
	for i := range s.BusyNS {
		s.BusyNS[i] = r.busyNS[i].Load()
	}
	s.ExecShards = r.execShards
	s.ExecShardBusyNS = make([]uint64, r.execShards)
	for i := range s.ExecShardBusyNS {
		s.ExecShardBusyNS[i] = r.shardBusyNS[i].Load()
	}
	s.ExecPipelineDepth = r.execDepth
	s.StoreWriteFailures = r.storeFailures.Load()
	if r.syncStats != nil {
		sy := r.syncStats.SyncStats()
		s.StoreFsyncs = sy.Fsyncs
		s.StoreFsyncStallNS = sy.FsyncStallNS
	}
	if r.compactor != nil {
		cs := r.compactor.CompactStats()
		s.StoreCompactions = cs.Compactions
		s.StoreCompactFailures = cs.Failures
		s.StoreCompactReclaimedBytes = cs.ReclaimedBytes
		s.StoreCompactStallNS = cs.StallNS
	}
	s.EncodePoolHits, s.EncodePoolMisses = r.encBufs.Stats()
	s.Evidence = r.evidence.Load()
	s.CheckpointSigs = r.ckptSigs.Load()
	s.CheckpointVerifies = r.ckptVerifies.Load()
	s.CheckpointRejects = r.ckptRejects.Load()
	r.queueGauges(&s)
	return s
}

// queueGauges snapshots every bounded pipeline queue into the stats
// record. Channel len/cap reads and the ring's atomic cursors are
// lock-free, so this is safe from any goroutine while the pipeline runs.
func (r *Replica) queueGauges(s *Stats) {
	ep := r.cfg.Endpoint
	for i := 0; i < ep.Inboxes(); i++ {
		ch := ep.Inbox(i)
		if n := len(ch); n > s.InputQueueDepth {
			s.InputQueueDepth = n
		}
		if c := cap(ch); c > s.InputQueueCap {
			s.InputQueueCap = c
		}
	}
	s.BatchQueueDepth = r.batchQ.Len()
	s.BatchQueueCap = r.batchQ.Cap()
	s.WorkQueueDepth = len(r.workQ)
	s.WorkQueueCap = cap(r.workQ)
	s.ExecBacklog = int(r.execPending.Load())
	s.ExecWindow = r.execWindow
	s.BusyGauge = r.busyGauge()
}

// busyGauge compresses the pipeline's queue occupancy into the 0..255
// saturation scalar piggybacked on every client response: the fill
// fraction of the fullest bounded queue, scaled. 0 is idle; 255 means
// some queue is full and the next arrival on it would be dropped. It is
// recomputed once per retired batch (and on Stats), never per
// transaction, and reads only channel lengths and atomics. Nothing on the
// sending side is in it: the replica's own output queues read empty on
// every workload (p95 fill 0.0004) until they were removed, and a peer
// writer's backlog is one slow peer's, not this replica's load.
func (r *Replica) busyGauge() uint8 {
	g := 0
	sat := func(n, c int) {
		if c <= 0 {
			return
		}
		if n > c {
			n = c
		}
		if s := n * 255 / c; s > g {
			g = s
		}
	}
	ep := r.cfg.Endpoint
	for i := 0; i < ep.Inboxes(); i++ {
		ch := ep.Inbox(i)
		sat(len(ch), cap(ch))
	}
	sat(r.batchQ.Len(), r.batchQ.Cap())
	sat(len(r.workQ), cap(r.workQ))
	sat(int(r.execPending.Load()), r.execWindow)
	return uint8(g)
}

// DedupSnapshot copies the execution-side dedup table: the last executed
// client sequence per client. A restarting replica seeds Bootstrap.LastExec
// from a live peer's snapshot so a retransmitted, already-acknowledged
// request is skipped on both — re-executing it would diverge store state
// from the ledger.
func (r *Replica) DedupSnapshot() map[types.ClientID]uint64 {
	r.dedupMu.Lock()
	defer r.dedupMu.Unlock()
	out := make(map[types.ClientID]uint64, len(r.lastExec))
	for c, seq := range r.lastExec {
		out[c] = seq
	}
	return out
}

func (r *Replica) addBusy(stage Stage, d time.Duration) {
	if d > 0 {
		r.busyNS[stage].Add(uint64(d))
	}
}

// Start launches the pipeline goroutines.
func (r *Replica) Start() {
	if r.cfg.VerifyThreads > 0 {
		r.verifyPool = crypto.NewVerifyPool(r.auth, r.cfg.VerifyThreads, r.cfg.VerifyThreads*64)
	}

	// Input: client traffic on inbox 0, replica traffic on the rest.
	r.inputWg.Add(1)
	go r.inputClientLoop(r.cfg.Endpoint.Inbox(0))
	for i := 1; i < r.cfg.Endpoint.Inboxes(); i++ {
		r.inputWg.Add(1)
		go r.inputReplicaLoop(r.cfg.Endpoint.Inbox(i))
	}

	// Read lane: two workers answering locally served reads keep one slow
	// multi-key (disk-bound) read from serializing the whole local read
	// path while staying far from oversubscribing the machine.
	for i := 0; i < 2; i++ {
		r.readWg.Add(1)
		go r.readLoop()
	}

	for i := 0; i < r.cfg.BatchThreads; i++ {
		r.stage1Wg.Add(1)
		go r.batchLoop()
	}
	r.stage1Wg.Add(1)
	go r.workerLoop()
	r.stage1Wg.Add(1)
	go r.checkpointLoop()

	if r.cfg.ExecuteThreads > 0 {
		r.execWg.Add(1)
		go r.executeLoop()
	}
	for shard := 0; shard < r.execShards; shard++ {
		r.shardWg.Add(1)
		go r.execShardLoop(shard)
	}
	if r.durableQ != nil {
		r.durableWg.Add(1)
		go r.durableWaitLoop()
	}

	if r.compactor != nil {
		r.compactWg.Add(1)
		go r.compactLoop()
	}

	if r.cfg.ViewTimeout > 0 {
		r.watchWg.Add(1)
		go r.watchdogLoop()
	}
}

// Stop shuts the pipeline down gracefully and waits for every goroutine.
// The replica's endpoint is closed first, as part of the shutdown, and a
// closed endpoint refuses a send: whatever a stage still produces while it
// drains (a late retransmission, a watchdog time-out, a queued read's
// reply) is released by its sender and goes nowhere.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.cfg.Endpoint.Close()
		r.inputWg.Wait()

		// The input loops were the read lane's only producers.
		close(r.readQ)
		r.readWg.Wait()

		r.batchQ.Close()
		close(r.workQ)
		close(r.ckptQ)
		r.stage1Wg.Wait()

		// Batch-threads fan client-signature checks through the verify
		// pool, so it must outlive stage 1; close it only once they exit.
		if r.verifyPool != nil {
			r.verifyPool.Close()
		}

		r.execIn.Close()
		r.execWg.Wait()

		// The coordinator is gone, so no shard job can be in flight.
		for _, q := range r.shardQs {
			close(q)
		}
		r.shardWg.Wait()
		// The shard workers were the durable waiter's only producers.
		if r.durableQ != nil {
			close(r.durableQ)
		}
		r.durableWg.Wait()
		r.compactWg.Wait()
		r.watchWg.Wait()
	})
}
