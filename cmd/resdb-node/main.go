// Command resdb-node runs one replica of the fabric over TCP.
//
// Every node of a deployment is started with the same -n, -seed, and
// -peers list; key material is derived deterministically from the seed
// (see internal/crypto), standing in for out-of-band provisioning. Those
// flags are shared with resdb-client and resdb-gateway and registered by
// cmd/internal/deploy. A node runs PBFT.
//
// Inbound TCP frames are always decoded in place from pooled buffers,
// outbound bodies always marshal into pooled arenas, each peer's writer
// sends what is queued, up to 64 envelopes, as one frame, and verify
// workers always drain their queue in batches (Section 4.8; see "Memory &
// buffer pools" in docs/ARCHITECTURE.md) — these are how the node works,
// not knobs.
//
// Every flag is described by its usage string (resdb-node -h); the
// pipeline-shape and store flags bind straight into replica.Config and
// store.BackendConfig, so they follow those types' conventions: 0 is the
// paper's standard 2B1E replica and -1 folds a stage into the
// worker-thread. docs/ARCHITECTURE.md's knob reference prints them.
//
// Example 4-replica deployment on one machine:
//
//	resdb-node -id 0 -n 4 -listen 127.0.0.1:7000 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	resdb-node -id 1 -n 4 -listen 127.0.0.1:7001 -peers ... &
//	resdb-node -id 2 -n 4 -listen 127.0.0.1:7002 -peers ... &
//	resdb-node -id 3 -n 4 -listen 127.0.0.1:7003 -peers ... &
//	resdb-client -n 4 -replicas 127.0.0.1:7000,...  -clients 16 -duration 10s
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only with -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"resilientdb/cmd/internal/deploy"
	"resilientdb/internal/chaos"
	"resilientdb/internal/replica"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

func main() {
	os.Exit(run())
}

// nodeFlags is what resdb-node's command line sets. The pipeline-shape and
// store flags bind into the configs that own their defaults.
type nodeFlags struct {
	dep       *deploy.Flags
	id        int
	listen    string
	rep       replica.Config
	store     store.BackendConfig
	storeSync bool
	chaos     string
	pprofAddr string
	stats     time.Duration
}

// register adds resdb-node's flags to fs.
func register(fs *flag.FlagSet) *nodeFlags {
	f := &nodeFlags{dep: deploy.Register(fs, true)}
	fs.IntVar(&f.id, "id", 0, "replica identifier (0..n-1)")
	fs.StringVar(&f.listen, "listen", "127.0.0.1:7000", "TCP listen address")
	fs.IntVar(&f.rep.BatchSize, "batch", f.rep.BatchSize, "most transactions per consensus batch (0 = 100); a batch-thread proposes what is queued and never waits for more")
	fs.IntVar(&f.rep.BatchThreads, "batch-threads", f.rep.BatchThreads, "batch-threads B at the primary (0 = 2); -1 folds batching into the worker-thread (the paper's 0B)")
	fs.IntVar(&f.rep.ExecuteThreads, "execute-shards", f.rep.ExecuteThreads, "execution shards E (0 = 1, the paper's execute-thread); -1 folds execution into the worker-thread (0E); E > 1 partitions each batch's write-set across E shards, retired in batch order (deterministic)")
	fs.IntVar(&f.rep.ExecPipelineDepth, "exec-pipeline-depth", f.rep.ExecPipelineDepth, "committed batches in flight across the execution shards at once when E > 1 (0 = 1, the per-batch barrier); per-shard FIFO keeps each key partition in batch order")
	fs.IntVar(&f.rep.VerifyThreads, "verify-threads", f.rep.VerifyThreads, "V workers check a batch's client signatures while input-threads authenticate peer envelopes before decoding them (0 = 2); -1 verifies both inline on the worker-thread and batch-threads (the paper's baseline)")
	fs.StringVar(&f.store.Backend, "store-backend", f.store.Backend, "record store: mem, the in-memory table (empty = mem) | sharded, a MemStore plus one CRC-checked append log that every execution shard writes to, recovered to its longest valid prefix")
	fs.StringVar(&f.store.Dir, "store-dir", f.store.Dir, "directory of the sharded store (empty = resdb-data/replica-N for -id N)")
	fs.BoolVar(&f.storeSync, "store-sync", false, "make the sharded store durable: the log's committer fsyncs whenever something appended is not yet covered, and no response leaves before its fsync (off = page cache only)")
	fs.Float64Var(&f.store.CompactRatio, "store-compact-ratio", f.store.CompactRatio, "garbage ratio (dead/total log bytes) at which a stable checkpoint rewrites the log to its live records (0 = 0.5, negative disables compaction)")
	fs.Int64Var(&f.store.CompactMinBytes, "store-compact-min-bytes", f.store.CompactMinBytes, "log size below which compaction never rewrites (0 = 1 MiB, negative removes the floor)")
	fs.StringVar(&f.chaos, "chaos", "", "fault-injection spec for this replica's outbound traffic: drop=P,dup=P,corrupt=P,delay=D,reorder=D,byz=mode@replica,seed=N (empty disables; see internal/chaos)")
	fs.StringVar(&f.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address and add heap, GC, pool and queue figures to the stats tick (empty disables)")
	fs.DurationVar(&f.stats, "stats", 5*time.Second, "stats print interval")
	return f
}

func run() int {
	f := register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		// -store-sync took a duration once; as a switch it would leave "2ms"
		// here and every flag after it unparsed.
		fmt.Fprintf(os.Stderr, "unexpected argument %q (-store-sync is a switch and takes no duration)\n", flag.Arg(0))
		return 2
	}

	d, err := f.dep.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	id := types.ReplicaID(f.id)
	ep, err := d.ReplicaEndpoint(id, f.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// The chaos fabric wraps only the endpoint handed to the replica, so
	// ep stays typed *transport.TCPEndpoint for Addr and the frame-pool stats.
	repEP := transport.Endpoint(ep)
	if f.chaos != "" {
		spec, err := chaos.ParseSpec(f.chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		repEP = spec.Fabric().WrapEndpoint(id, repEP, d.Directory)
	}

	if f.store.Dir == "" {
		f.store.Dir = filepath.Join("resdb-data", fmt.Sprintf("replica-%d", f.id))
	}
	if f.storeSync {
		f.store.SyncLinger = 1 // > 0 = durable; the magnitude is ignored
	}
	// The same constructor the in-process cluster uses, so backend
	// semantics cannot drift between deployments.
	st, err := store.OpenBackend(f.store)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer st.Close()

	f.rep.ID, f.rep.N = id, d.N
	f.rep.Store, f.rep.Directory, f.rep.Endpoint = st, d.Directory, repEP
	f.rep.ViewTimeout = 2 * time.Second
	rep, err := replica.New(f.rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep.Start()
	fmt.Printf("replica %d/%d listening on %s\n", id, d.N, ep.Addr())

	profiling := f.pprofAddr != ""
	if profiling {
		// DefaultServeMux carries the net/http/pprof handlers via the
		// blank import; nothing else registers on it.
		go func() {
			if err := http.ListenAndServe(f.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", f.pprofAddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(f.stats)
	defer tick.Stop()
	var last uint64
	var lastMem runtime.MemStats
	if profiling {
		runtime.ReadMemStats(&lastMem)
	}
	for {
		select {
		case <-stop:
			rep.Stop()
			s := rep.Stats()
			fmt.Printf("final: txns=%d batches=%d reads=%d localreads=%d localreaddrops=%d height=%d view=%d drops=%d fsyncs=%d fsync-stall=%s compactions=%d reclaimed=%dB %s\n",
				s.TxnsExecuted, s.BatchesExecuted, s.ReadsExecuted, s.LocalReads, s.LocalReadDrops,
				s.LedgerHeight, s.View, s.NetDrops,
				s.StoreFsyncs, time.Duration(s.StoreFsyncStallNS),
				s.StoreCompactions, s.StoreCompactReclaimedBytes, checkpointSigs(s))
			if profiling {
				hits, misses := ep.FramePoolStats()
				fmt.Printf("final-mem: framepool-hits=%d framepool-misses=%d encpool-hits=%d encpool-misses=%d\n",
					hits, misses, s.EncodePoolHits, s.EncodePoolMisses)
			}
			return 0
		case <-tick.C:
			s := rep.Stats()
			line := fmt.Sprintf("txns=%d (+%d) height=%d view=%d in=%d out=%d authfail=%d drops=%d localreaddrops=%d compactions=%d %s",
				s.TxnsExecuted, s.TxnsExecuted-last, s.LedgerHeight, s.View,
				s.MsgsIn, s.MsgsOut, s.AuthFailures, s.NetDrops, s.LocalReadDrops, s.StoreCompactions, checkpointSigs(s))
			if profiling {
				// Heap and GC deltas since the previous tick: together with
				// the pool counters these are the live view of what the
				// zero-copy path saves (allocation pressure, pause time).
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				hits, misses := ep.FramePoolStats()
				line += fmt.Sprintf(" heap=%dKiB gc=+%d pause=+%s framepool=%d/%d encpool=%d/%d",
					m.HeapAlloc>>10, m.NumGC-lastMem.NumGC,
					time.Duration(m.PauseTotalNs-lastMem.PauseTotalNs),
					hits, hits+misses, s.EncodePoolHits, s.EncodePoolHits+s.EncodePoolMisses)
				// Pipeline queue depths and the saturation gauge the replica
				// piggybacks on its responses (what gateway admission sees).
				line += fmt.Sprintf(" queues=in:%d/%d,batch:%d/%d,work:%d/%d,exec:%d/%d busy=%d",
					s.InputQueueDepth, s.InputQueueCap, s.BatchQueueDepth, s.BatchQueueCap,
					s.WorkQueueDepth, s.WorkQueueCap, s.ExecBacklog, s.ExecWindow, s.BusyGauge)
				lastMem = m
			}
			fmt.Println(line)
			last = s.TxnsExecuted
		}
	}
}

// checkpointSigs renders what checkpoint certificates cost this replica:
// the ED25519 signatures it made and verified per 1,000 executed
// transactions, and the peer votes whose signature failed.
func checkpointSigs(s replica.Stats) string {
	perK := func(n uint64) float64 {
		if s.TxnsExecuted == 0 {
			return 0
		}
		return float64(n) * 1000 / float64(s.TxnsExecuted)
	}
	return fmt.Sprintf("ckptsign/ktxn=%.3f ckptverify/ktxn=%.3f ckptreject=%d",
		perK(s.CheckpointSigs), perK(s.CheckpointVerifies), s.CheckpointRejects)
}
