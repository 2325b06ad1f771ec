package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

const shardTestRecords = 4096

// newShardReplica builds and starts a backup replica with E execution
// shards whose execute stage can be driven directly through execIn.
func newShardReplica(t *testing.T, execThreads int) *Replica {
	t.Helper()
	return newExecReplica(t, execThreads, 1, store.NewMemStore(shardTestRecords))
}

// newExecReplica is the general form: E execution shards, a cross-batch
// pipelining depth, and an arbitrary store.
func newExecReplica(t *testing.T, execThreads, depth int, st store.Store) *Replica {
	t.Helper()
	dir, err := crypto.NewDirectory(crypto.NoSig(), [32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInproc()
	r, err := New(Config{
		ID:                 1, // backup: the batch stage stays idle
		N:                  4,
		Protocol:           PBFT,
		ExecuteThreads:     execThreads,
		ExecPipelineDepth:  depth,
		CheckpointInterval: 8, // several checkpoints over a 32-batch run
		LedgerMode:         ledger.HashChain,
		Store:              st,
		Directory:          dir,
		Endpoint:           net.Endpoint(types.ReplicaNode(1), 3, 1<<10),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Stop)
	return r
}

// shardTestBatches builds a deterministic committed-batch history: several
// Zipfian clients with multi-op transactions, plus one request duplicated
// across batches so the dedup path runs under both execution modes.
func shardTestBatches(t *testing.T, batches int) []consensus.Execute {
	t.Helper()
	wcfg := workload.Config{
		Records:      shardTestRecords,
		OpsPerTxn:    4,
		ValueSize:    64,
		Distribution: workload.Zipf,
		Seed:         7,
	}
	const clients = 4
	wls := make([]*workload.Workload, clients)
	for c := range wls {
		wl, err := workload.New(wcfg, int64(c))
		if err != nil {
			t.Fatal(err)
		}
		wls[c] = wl
	}
	var dup types.ClientRequest
	acts := make([]consensus.Execute, batches)
	for b := 0; b < batches; b++ {
		reqs := make([]types.ClientRequest, 0, clients+1)
		for c := 0; c < clients; c++ {
			reqs = append(reqs, wls[c].NextRequest(types.ClientID(c), uint64(b*2+1), 2))
		}
		if b == 1 {
			dup = reqs[0]
		}
		if b == 2 {
			// Re-delivered request (e.g. re-proposed after a view change):
			// execution must skip it, identically under every E.
			reqs = append(reqs, dup)
		}
		acts[b] = consensus.Execute{
			Seq:      types.SeqNum(b + 1),
			Digest:   types.BatchDigest(reqs),
			Requests: reqs,
		}
	}
	return acts
}

func waitBatches(t *testing.T, r *Replica, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.Stats().BatchesExecuted >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("executed %d batches, want %d", r.Stats().BatchesExecuted, want)
}

// storeDigest hashes every live record in key order; byte-identical store
// state yields identical digests.
func storeDigest(t *testing.T, st store.Store) types.Digest {
	t.Helper()
	return digestRecords(t, st.Get)
}

// digestRecords is storeDigest over anything that can answer a Get.
func digestRecords(t *testing.T, get func(uint64) ([]byte, error)) types.Digest {
	t.Helper()
	var buf bytes.Buffer
	var hdr [12]byte
	for k := uint64(0); k < shardTestRecords; k++ {
		v, err := get(k)
		if errors.Is(err, store.ErrNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(hdr[:8], k)
		binary.BigEndian.PutUint32(hdr[8:], uint32(len(v)))
		buf.Write(hdr[:])
		buf.Write(v)
	}
	return crypto.Hash256(buf.Bytes())
}

// TestExecShardDeterminism is the acceptance check for write-set
// partitioned execution: the same committed batches produce byte-identical
// ledger digests and store state under E=1 (serial) and E=4 (sharded),
// and under a Zipfian write load every shard does work; so does the disk
// store at every E of diskShards.
func TestExecShardDeterminism(t *testing.T) {
	const batches = 32
	acts := shardTestBatches(t, batches)

	serial := newShardReplica(t, 1)
	sharded := newShardReplica(t, 4)
	for _, act := range acts {
		serial.execIn.Offer(uint64(act.Seq), execItem{act: act})
		sharded.execIn.Offer(uint64(act.Seq), execItem{act: act})
	}
	waitBatches(t, serial, batches)
	waitBatches(t, sharded, batches)

	if got, want := sharded.Ledger().StateDigest(), serial.Ledger().StateDigest(); got != want {
		t.Fatalf("ledger head digest diverged: E=4 %x vs E=1 %x", got[:8], want[:8])
	}
	ss, sh := serial.Stats(), sharded.Stats()
	if ss.TxnsExecuted != sh.TxnsExecuted {
		t.Fatalf("txns executed diverged: E=1 %d vs E=4 %d", ss.TxnsExecuted, sh.TxnsExecuted)
	}
	if got, want := storeDigest(t, sharded.Store()), storeDigest(t, serial.Store()); got != want {
		t.Fatalf("store state diverged: E=4 %x vs E=1 %x", got[:8], want[:8])
	}

	if ss.ExecShards != 0 || len(ss.ExecShardBusyNS) != 0 {
		t.Fatalf("serial replica reports shards: %d (%v)", ss.ExecShards, ss.ExecShardBusyNS)
	}
	if sh.ExecShards != 4 || len(sh.ExecShardBusyNS) != 4 {
		t.Fatalf("sharded replica reports %d shards (%v)", sh.ExecShards, sh.ExecShardBusyNS)
	}
	for i, ns := range sh.ExecShardBusyNS {
		if ns == 0 {
			t.Fatalf("shard %d never did work: %v", i, sh.ExecShardBusyNS)
		}
	}

	// The same over the durable store behind the strict per-batch barrier
	// (depth 1), its E workers appending to its one log.
	for _, e := range diskShards {
		t.Run(fmt.Sprintf("E=%d/logs=1", e), func(t *testing.T) {
			disk, err := store.OpenShardedDisk(t.TempDir(), store.ShardedDiskOptions{SyncLinger: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			r := newExecReplica(t, e, 1, disk)
			for _, act := range acts {
				r.execIn.Offer(uint64(act.Seq), execItem{act: act})
			}
			waitBatches(t, r, batches)
			if got, want := r.Ledger().StateDigest(), serial.Ledger().StateDigest(); got != want {
				t.Fatalf("ledger head digest diverged: %x vs E=1 %x", got[:8], want[:8])
			}
			if got, want := storeDigest(t, disk), storeDigest(t, serial.Store()); got != want {
				t.Fatalf("store state diverged: %x vs E=1 %x", got[:8], want[:8])
			}
		})
	}
}

// checkGroupCommit asserts the pipelined run fsynced and spent less than one
// fsync per partition applied (E per batch). Sibling partitions share an
// fsync whoever waits, so the count that pins the one log is
// TestFsyncsPerBatch's; fewer fsyncs than batches happens but is not
// promised — a committer that starts between two workers' appends splits a
// batch over two (32–51 fsyncs for these 32 batches under -race).
func checkGroupCommit(t *testing.T, fsyncs uint64, batches, e int) {
	t.Helper()
	if fsyncs == 0 {
		t.Fatal("group-commit store never fsynced under the pipelined run")
	}
	if fsyncs >= uint64(batches*e) {
		t.Fatalf("%d fsyncs for %d batches of %d partitions: none ever shared one", fsyncs, batches, e)
	}
}

// preloadEven fills every even key, so reads and scans hit both existing
// and missing keys, in one batched write: a Put per key would wait out an
// fsync each.
func preloadEven(t *testing.T, st store.Store) {
	t.Helper()
	var kvs []store.KV
	for k := uint64(0); k < shardTestRecords; k += 2 {
		kvs = append(kvs, store.KV{Key: k, Value: []byte{byte(k), byte(k >> 8)}})
	}
	if err := st.(store.Batcher).PutMany(kvs); err != nil {
		t.Fatal(err)
	}
}

// diskShards are the execution shard counts the determinism tests run over
// the durable store at, every shard appending to its one log.
var diskShards = []int{2, 4}

// TestExecPipelineDeterminism is the acceptance check for cross-batch
// pipelined execution over the durable store: E execution shards with
// pipeline depth 3 appending their partitions to the group-commit disk
// store's one log must produce ledger and checkpoint
// digests and store contents byte-identical to E=1 serial execution over a
// MemStore, and so to each other. Per-shard FIFO ordering (the conflict
// mechanism) plus in-order retirement is what makes this hold.
func TestExecPipelineDeterminism(t *testing.T) {
	const batches = 32
	acts := shardTestBatches(t, batches)

	serial, serialEPs := newReadMixReplica(t, 1, 1, 4, store.NewMemStore(shardTestRecords))
	for _, act := range acts {
		serial.execIn.Offer(uint64(act.Seq), execItem{act: act})
	}
	waitBatches(t, serial, batches)
	checkAgainstModel(t, acts, false, serial, serialEPs)
	ss := serial.Stats()
	if ss.ExecPipelineDepth != 1 {
		t.Fatalf("serial replica reports depth %d, want 1", ss.ExecPipelineDepth)
	}

	for _, e := range diskShards {
		t.Run(fmt.Sprintf("E=%d/logs=1", e), func(t *testing.T) {
			disk, err := store.OpenShardedDisk(t.TempDir(), store.ShardedDiskOptions{SyncLinger: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			pipelined := newExecReplica(t, e, 3, disk)

			// Feed the pipelined replica in two halves with a full log
			// compaction between them, while execution is live: a mid-run
			// rewrite of the durable store must be invisible to the ledger,
			// the checkpoint digests, and the final store state.
			for _, act := range acts[:batches/2] {
				pipelined.execIn.Offer(uint64(act.Seq), execItem{act: act})
			}
			waitBatches(t, pipelined, batches/2)
			if err := disk.Compact(); err != nil {
				t.Fatal(err)
			}
			for _, act := range acts[batches/2:] {
				pipelined.execIn.Offer(uint64(act.Seq), execItem{act: act})
			}
			waitBatches(t, pipelined, batches)
			if cs := disk.CompactStats(); cs.Compactions == 0 {
				t.Fatal("the sharded store never compacted mid-run")
			}

			if got, want := pipelined.Ledger().StateDigest(), serial.Ledger().StateDigest(); got != want {
				t.Fatalf("ledger head digest diverged: pipelined %x vs serial %x", got[:8], want[:8])
			}
			// Checkpoint digests: with interval 8 both replicas reported
			// executions at the same sequence boundaries; compare the full
			// chains height by height so an out-of-order retirement cannot
			// hide in the head digest.
			if err := ledger.VerifyChainEquality(serial.Ledger(), pipelined.Ledger()); err != nil {
				t.Fatalf("chains diverged: %v", err)
			}
			ps := pipelined.Stats()
			if ss.TxnsExecuted != ps.TxnsExecuted {
				t.Fatalf("txns executed diverged: serial %d vs pipelined %d", ss.TxnsExecuted, ps.TxnsExecuted)
			}
			if ps.ExecPipelineDepth != 3 {
				t.Fatalf("pipelined replica reports depth %d, want 3", ps.ExecPipelineDepth)
			}
			checkGroupCommit(t, ps.StoreFsyncs, batches, e)
			if got, want := storeDigest(t, pipelined.Store()), storeDigest(t, serial.Store()); got != want {
				t.Fatalf("store state diverged: pipelined sharded disk %x vs serial mem %x", got[:8], want[:8])
			}
		})
	}
}

// TestExecShardDiskStoreFallback: a bare store.Store — no Batcher, no
// Appender, the interface's minimum — must still execute correctly through
// the per-op Put fallback, at E=4 through the shard workers and at E=1
// inline, and end byte-identical to the batched path.
func TestExecShardDiskStoreFallback(t *testing.T) {
	const batches = 4
	acts := shardTestBatches(t, batches)
	batched := newShardReplica(t, 1)
	for _, act := range acts {
		batched.execIn.Offer(uint64(act.Seq), execItem{act: act})
	}
	waitBatches(t, batched, batches)

	for _, e := range []int{1, 4} {
		mem := store.NewMemStore(shardTestRecords)
		// The embedding promotes only store.Store's methods, so no optional
		// capability shows through.
		r := newExecReplica(t, e, 1, struct{ store.Store }{mem})
		if r.execAppend != nil || r.execBatch != nil || r.scanner != nil {
			t.Fatalf("E=%d: the bare store leaked a capability", e)
		}
		for _, act := range acts {
			r.execIn.Offer(uint64(act.Seq), execItem{act: act})
		}
		waitBatches(t, r, batches)
		if got, want := storeDigest(t, mem), storeDigest(t, batched.Store()); got != want {
			t.Fatalf("E=%d: per-op fallback state diverged from the batched path: %x vs %x", e, got[:8], want[:8])
		}
		if got, want := r.Ledger().StateDigest(), batched.Ledger().StateDigest(); got != want {
			t.Fatalf("E=%d: ledger diverged: %x vs %x", e, got[:8], want[:8])
		}
		if got := r.Stats().StoreWriteFailures; got != 0 {
			t.Fatalf("E=%d: %d store failures on a healthy run", e, got)
		}
	}
}
