// Determinism tests live in an external test package so they can drive
// the stores with the real workload generator (workload imports store, so
// an internal test file could not import it back).
package store_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"resilientdb/internal/store"
	"resilientdb/internal/workload"
)

// TestZipfianStoreDeterminism is the store half of the execution
// determinism contract: a randomized Zipfian write history, partitioned
// by the execute stage's hash and applied with concurrent per-partition
// PutMany calls, must leave MemStore and the sharded group-commit disk
// store in byte-identical final state — same live keys, same bytes —
// regardless of how the concurrent partitions interleave.
func TestZipfianStoreDeterminism(t *testing.T) {
	const (
		records = 2048
		batches = 40
		perB    = 64
		// partitions is E: each batch reaches the stores the way four
		// execute shards apply it.
		partitions = 4
	)
	wl, err := workload.New(workload.Config{
		Records:      records,
		OpsPerTxn:    4,
		ValueSize:    48,
		Distribution: workload.Zipf,
		Seed:         99,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}

	mem := store.NewMemStore(records)
	defer mem.Close()
	disk, err := store.OpenShardedDisk(t.TempDir(), store.ShardedDiskOptions{SyncLinger: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	// Apply the same batch history to both stores: partition each batch by
	// ShardOf and fan the partitions out concurrently, exactly as the
	// execute stage does. Same-key writes stay ordered because one key
	// always maps to one partition, and batches are separated by a barrier.
	// Halfway through, the disk store compacts — a log rewrite mid-history
	// must be invisible to the final state.
	for b := 0; b < batches; b++ {
		if b == batches/2 {
			if err := disk.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		parts := make([][]store.KV, partitions)
		req := wl.NextRequest(1, uint64(b*perB+1), perB)
		for i := range req.Txns {
			for _, op := range req.Txns[i].Ops {
				sh := workload.ShardOf(op.Key, partitions)
				parts[sh] = append(parts[sh], store.KV{Key: op.Key, Value: op.Value})
			}
		}
		for _, st := range []store.Store{mem, disk} {
			batcher := st.(store.Batcher)
			var wg sync.WaitGroup
			for sh := range parts {
				if len(parts[sh]) == 0 {
					continue
				}
				wg.Add(1)
				go func(kvs []store.KV) {
					defer wg.Done()
					if err := batcher.PutMany(kvs); err != nil {
						t.Error(err)
					}
				}(parts[sh])
			}
			wg.Wait()
		}
	}

	if mem.Len() != disk.Len() {
		t.Fatalf("live record counts diverged: mem %d vs sharded disk %d", mem.Len(), disk.Len())
	}
	var memState, diskState bytes.Buffer
	live := 0
	for k := uint64(0); k < records; k++ {
		mv, merr := mem.Get(k)
		dv, derr := disk.Get(k)
		if (merr == nil) != (derr == nil) {
			t.Fatalf("key %d liveness diverged: mem err %v vs disk err %v", k, merr, derr)
		}
		if merr != nil {
			continue
		}
		live++
		fmt.Fprintf(&memState, "%d=%x;", k, mv)
		fmt.Fprintf(&diskState, "%d=%x;", k, dv)
	}
	if live == 0 {
		t.Fatal("workload wrote no records")
	}
	if !bytes.Equal(memState.Bytes(), diskState.Bytes()) {
		t.Fatal("MemStore and ShardedDiskStore final states are not byte-identical")
	}
	if cs := disk.CompactStats(); cs.Compactions == 0 {
		t.Fatal("the disk store never compacted: the mid-run rewrite was not exercised")
	}
}
