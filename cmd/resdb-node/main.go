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
// The hot-path knobs. The pipeline-shape flags (-batch, -batch-threads,
// -verify-threads, -execute-shards, -exec-pipeline-depth) are handed to
// replica.Config as given, so they follow its convention: 0 = the paper's
// standard 2B1E replica, and for the foldable stages (-batch-threads,
// -verify-threads, -execute-shards) -1 folds the stage into the one
// worker-thread:
//
//   - -batch N: transactions per consensus batch (0 = 100).
//   - -batch-threads B: assemble and propose batches on B batch-threads
//     at the primary (0 = 2); -1 folds batch assembly into the
//     worker-thread (the paper's 0B configuration).
//   - -verify-threads V: input-threads authenticate peer envelopes before
//     decoding them and V pool workers check a batch's client signatures
//     (0 = 2); -1 verifies inline on the worker-thread and batch-threads
//     (the paper's baseline assignment).
//   - -execute-shards E: apply committed batches on E parallel execution
//     shards, each owning a hash partition of the key space (write-set
//     partitioning keeps parallel execution deterministic; in-order batch
//     retirement preserves batch order). 0 runs the paper's single
//     execute-thread; -1 folds execution into the worker-thread (0E).
//   - -exec-pipeline-depth P: with E > 1, let up to P committed batches
//     be in flight across the execution shards at once (cross-batch
//     pipelining; per-shard FIFO keeps conflicting key partitions in
//     batch order, and ledger appends stay strictly sequential). 0 is
//     the strict per-batch barrier.
//   - -store-backend mem|sharded: the record store. mem (default) is the
//     paper's recommended in-memory table; sharded is the durable
//     group-commit store — an append log every execution shard writes
//     to, recovered to its longest valid prefix after a crash.
//   - -store-dir D: root directory for the sharded backend (default
//     resdb-data/replica-<id>).
//   - -store-sync: durability. Off (default) never fsyncs; on, the
//     sharded backend group-commits: writes are visible once appended, no
//     response leaves before a covering fsync, and the log's committer
//     fsyncs whenever there is something to cover — what is appended
//     during one fsync shares the next.
//   - -store-compact-ratio R: checkpoint-driven log compaction for the
//     sharded backend. When a stable checkpoint fires and the log's
//     garbage fraction (dead bytes / total bytes) has reached R, the log
//     is rewritten to live records only. 0 (default) uses the built-in 0.5; negative
//     disables compaction (logs grow with history).
//   - -store-compact-min-bytes B: log size below which compaction never
//     rewrites (rewriting a tiny log cannot pay for its stall). 0
//     (default) uses the built-in 1 MiB; negative removes the floor.
//   - -pprof-addr ADDR: serve net/http/pprof on ADDR (e.g.
//     127.0.0.1:6060) and add heap/GC deltas to the stats tick; empty
//     (default) disables profiling entirely.
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

func run() int {
	dep := deploy.Register(flag.CommandLine, true)
	id := flag.Int("id", 0, "replica identifier (0..n-1)")
	listen := flag.String("listen", "127.0.0.1:7000", "listen address")
	batch := flag.Int("batch", 0, "transactions per consensus batch (0 = default 100)")
	batchThreads := flag.Int("batch-threads", 0, "batch-threads B (0 = default 2, -1 folds batching into the worker-thread)")
	execShards := flag.Int("execute-shards", 0, "execution shards E (0 = default single execute-thread, -1 folds execution into the worker-thread, E > 1 = parallel write-set-partitioned shards)")
	execDepth := flag.Int("exec-pipeline-depth", 0, "cross-batch execution pipelining depth P (0 = default 1, the strict per-batch barrier; P > 1 overlaps up to P batches across the execution shards)")
	storeBackend := flag.String("store-backend", "mem", "record store: mem | sharded (durable, group-commit, one append log)")
	storeDir := flag.String("store-dir", "", "root directory for the sharded store (default resdb-data/replica-<id>)")
	storeSync := flag.Bool("store-sync", false, "make the sharded store durable: group-commit fsyncs, no response before one covers its writes (off = page cache only)")
	storeCompactRatio := flag.Float64("store-compact-ratio", 0, "garbage ratio (dead/total log bytes) past which a stable checkpoint compacts the log (0 = default 0.5, negative disables compaction)")
	storeCompactMin := flag.Int64("store-compact-min-bytes", 0, "log size below which checkpoint-driven compaction never rewrites (0 = default 1 MiB, negative removes the floor)")
	verifyThreads := flag.Int("verify-threads", 0, "client-signature verification workers; input-threads verify peer envelopes (0 = default 2, -1 verifies both inline on the worker-thread and batch-threads)")
	chaosSpec := flag.String("chaos", "", "fault-injection spec for this replica's outbound traffic: drop=P,dup=P,corrupt=P,delay=D,reorder=D,byz=mode@replica,seed=N (empty disables; see internal/chaos)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address and report heap/GC deltas in the stats tick (empty disables)")
	statsEvery := flag.Duration("stats", 5*time.Second, "stats print interval")
	flag.Parse()
	if flag.NArg() > 0 {
		// -store-sync took a duration once; as a switch it would leave "2ms"
		// here and every flag after it unparsed.
		fmt.Fprintf(os.Stderr, "unexpected argument %q (-store-sync is a switch and takes no duration)\n", flag.Arg(0))
		return 2
	}

	d, err := dep.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	ep, err := d.ReplicaEndpoint(types.ReplicaID(*id), *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// The chaos fabric wraps only the endpoint handed to the replica, so
	// ep stays typed *transport.TCP for Addr and the frame-pool stats.
	repEP := transport.Endpoint(ep)
	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		repEP = spec.Fabric().WrapEndpoint(types.ReplicaID(*id), repEP, d.Directory)
	}

	if *storeDir == "" {
		*storeDir = filepath.Join("resdb-data", fmt.Sprintf("replica-%d", *id))
	}
	// The same constructor the in-process cluster uses, so backend
	// semantics cannot drift between deployments.
	storeCfg := store.BackendConfig{
		Backend:         *storeBackend,
		Dir:             *storeDir,
		CompactRatio:    *storeCompactRatio,
		CompactMinBytes: *storeCompactMin,
	}
	if *storeSync {
		storeCfg.SyncLinger = 1 // > 0 = durable; the magnitude is ignored
	}
	st, err := store.OpenBackend(storeCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer st.Close()

	rep, err := replica.New(replica.Config{
		ID:                types.ReplicaID(*id),
		N:                 d.N,
		BatchSize:         *batch,
		BatchThreads:      *batchThreads,
		ExecuteThreads:    *execShards,
		ExecPipelineDepth: *execDepth,
		VerifyThreads:     *verifyThreads,
		Store:             st,
		Directory:         d.Directory,
		Endpoint:          repEP,
		VerifyClientSigs:  true,
		ViewTimeout:       2 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep.Start()
	fmt.Printf("replica %d/%d listening on %s\n", *id, d.N, ep.Addr())

	profiling := *pprofAddr != ""
	if profiling {
		// DefaultServeMux carries the net/http/pprof handlers via the
		// blank import; nothing else registers on it.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*statsEvery)
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
