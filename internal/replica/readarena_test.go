package replica

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/store"
	"resilientdb/internal/types"
)

// TestMergeScanFragsIsSortThenTruncate: the k-way merge of ascending,
// key-disjoint fragments equals sorting their concatenation and cutting it
// at limit, for random fragments — some empty, limits below, at and above
// the row count — and appends after whatever dst already holds.
func TestMergeScanFragsIsSortThenTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for iter := 0; iter < 2000; iter++ {
		frags := make([][]types.ScanRow, 1+rng.Intn(5))
		var all []types.ScanRow
		used := make(map[uint64]bool)
		for i := rng.Intn(40); i > 0; i-- {
			k := uint64(rng.Intn(200))
			if used[k] {
				continue
			}
			used[k] = true
			row := types.ScanRow{Key: k, Value: []byte{byte(k)}}
			f := rng.Intn(len(frags))
			frags[f] = append(frags[f], row)
			all = append(all, row)
		}
		for _, f := range frags {
			slices.SortFunc(f, func(a, b types.ScanRow) int { return cmp.Compare(a.Key, b.Key) })
		}
		slices.SortFunc(all, func(a, b types.ScanRow) int { return cmp.Compare(a.Key, b.Key) })
		limit := uint32(rng.Intn(len(all) + 3))
		want := all
		if uint32(len(want)) > limit {
			want = want[:limit]
		}
		prefix := []types.ScanRow{{Key: 1 << 40}}
		got := mergeScanFrags(slices.Clone(prefix), frags, limit)
		if got[0].Key != prefix[0].Key {
			t.Fatalf("iteration %d: the merge overwrote dst's prefix", iter)
		}
		got = got[1:]
		if len(got) != len(want) {
			t.Fatalf("iteration %d (limit %d): merged %d rows, want %d", iter, limit, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || got[i].Value[0] != want[i].Value[0] {
				t.Fatalf("iteration %d (limit %d): row %d is %d, want %d", iter, limit, i, got[i].Key, want[i].Key)
			}
		}
	}
}

// countingStore counts every value read out of its MemStore, whichever
// way the replica asks: Get, a row Scan visits, or AppendValue.
type countingStore struct {
	*store.MemStore
	resolved atomic.Int64
}

func (c *countingStore) Get(key uint64) ([]byte, error) {
	c.resolved.Add(1)
	return c.MemStore.Get(key)
}

func (c *countingStore) Scan(start, end uint64, fn func(uint64, []byte) bool) error {
	return c.MemStore.Scan(start, end, func(k uint64, v []byte) bool {
		c.resolved.Add(1)
		return fn(k, v)
	})
}

func (c *countingStore) AppendValue(dst []byte, key uint64) ([]byte, error) {
	c.resolved.Add(1)
	return c.MemStore.AppendValue(dst, key)
}

// TestScanResolvesEachKeyOnce: at E=2 a scan over S keys fans out to both
// shards, and between them they read S values from the store, not 2S —
// each shard resolves only the keys it owns. The rows still come back
// whole, in order.
func TestScanResolvesEachKeyOnce(t *testing.T) {
	const keys = 64
	cs := &countingStore{MemStore: store.NewMemStore(keys)}
	kvs := make([]store.KV, keys)
	for k := range kvs {
		kvs[k] = store.KV{Key: uint64(k), Value: []byte(fmt.Sprintf("v%d", k))}
	}
	if err := cs.PutMany(kvs); err != nil {
		t.Fatal(err)
	}
	r, eps := newReadMixReplica(t, 2, 1, 1, cs)
	req := types.ClientRequest{Client: 0, FirstSeq: 1, Txns: []types.Transaction{{
		Client: 0, ClientSeq: 1,
		Ops: []types.Op{{Kind: types.OpScan, Key: 0, EndKey: keys - 1, Limit: keys}},
	}}}
	act := consensus.Execute{Seq: 1, Digest: types.BatchDigest([]types.ClientRequest{req}), Requests: []types.ClientRequest{req}}
	r.execIn.Offer(1, execItem{act: act})
	waitBatches(t, r, 1)

	rows := make([]types.ScanRow, keys)
	for k := range rows {
		rows[k] = types.ScanRow{Key: uint64(k), Value: kvs[k].Value}
	}
	reads := []types.ReadResult{{Scan: true, Rows: rows}}
	want := renderResponse(types.ResponseDigest(1, 0, 1, reads), reads)
	if got := collectResponses(t, eps, 1)[respFingerprint{client: 0, clientSeq: 1, seq: 1}]; got != want {
		t.Fatalf("scan answered\n%s\nwant\n%s", got, want)
	}
	if n := cs.resolved.Load(); n != keys {
		t.Fatalf("a scan over %d keys at E=2 read %d values from the store, want %d", keys, n, keys)
	}
}

// TestPoisonedReadArenas pins who may keep what the execute stage lends. A
// read's value lives in its partition's arena and a scan's rows in its row
// slab, and both are overwritten with 0xDB the moment the batch is
// recycled; a response encoded after that reads poison. A read-and-scan mix
// — read-your-writes and limit-cut scans included — runs at E=1 and at E=2
// with depth 2, on both backends, and every response must equal the
// test-side model's.
func TestPoisonedReadArenas(t *testing.T) {
	poisonRecycled.Store(true)
	t.Cleanup(func() { poisonRecycled.Store(false) })
	const batches = 32
	const clients = 4
	acts := scanTxnBatches(t, batches)
	for _, e := range []int{1, 2} {
		for _, backend := range []string{"mem", "disk"} {
			t.Run(fmt.Sprintf("E=%d/%s", e, backend), func(t *testing.T) {
				var st store.Store = store.NewMemStore(shardTestRecords)
				if backend == "disk" {
					disk, err := store.OpenShardedDisk(t.TempDir(), store.ShardedDiskOptions{SyncLinger: 1})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { disk.Close() })
					st = disk
				}
				preloadEven(t, st)
				r, eps := newReadMixReplica(t, e, 2, clients+1, st)
				for _, act := range acts {
					r.execIn.Offer(uint64(act.Seq), execItem{act: act})
				}
				waitBatches(t, r, batches)
				checkAgainstModel(t, acts, true, r, eps)
			})
		}
	}
}
