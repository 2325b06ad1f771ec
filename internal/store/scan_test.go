package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// scanBackends builds one instance of each Scanner-capable backend for a
// subtest run. The disk backend runs at one shard and at four, with the
// read index enabled (the replica deployment shape); the four-shard store
// is durable, so scans race real fsync scheduling.
func scanBackends(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{
		"mem":       NewMemStore(64),
		"sharded-1": openSharded(t, t.TempDir(), ShardedDiskOptions{Shards: 1, ReadIndex: true}),
		"sharded-4": openSharded(t, t.TempDir(), ShardedDiskOptions{Shards: 4, SyncLinger: 200 * time.Microsecond, ReadIndex: true}),
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	for name, st := range scanBackends(t) {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			// Insert out of order, with overwrites, spanning several sidecar
			// chunks (the scanVia chunk size is 128).
			const n = 400
			perm := rand.New(rand.NewSource(7)).Perm(n)
			for _, i := range perm {
				if err := st.Put(uint64(i*3), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			for i := 0; i < n; i += 5 {
				if err := st.Put(uint64(i*3), []byte(fmt.Sprintf("w%d", i))); err != nil {
					t.Fatalf("overwrite: %v", err)
				}
			}
			sc := st.(Scanner)

			var keys []uint64
			err := sc.Scan(30, 90, func(k uint64, v []byte) bool {
				keys = append(keys, k)
				i := int(k / 3)
				want := fmt.Sprintf("v%d", i)
				if i%5 == 0 {
					want = fmt.Sprintf("w%d", i)
				}
				if string(v) != want {
					t.Errorf("key %d: value %q, want %q", k, v, want)
				}
				return true
			})
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if len(keys) != 21 { // 30, 33, ..., 90
				t.Fatalf("scan [30,90] returned %d keys, want 21: %v", len(keys), keys)
			}
			for i := range keys {
				if keys[i] != uint64(30+3*i) {
					t.Fatalf("keys out of order at %d: %v", i, keys)
				}
			}

			// Whole-range scan sees every key, ascending.
			var all []uint64
			if err := sc.Scan(0, ^uint64(0), func(k uint64, _ []byte) bool {
				all = append(all, k)
				return true
			}); err != nil {
				t.Fatalf("full Scan: %v", err)
			}
			if len(all) != n {
				t.Fatalf("full scan returned %d keys, want %d", len(all), n)
			}
			for i := 1; i < len(all); i++ {
				if all[i-1] >= all[i] {
					t.Fatalf("full scan not strictly ascending at %d: %d then %d", i, all[i-1], all[i])
				}
			}

			// Inverted range and early stop.
			if err := sc.Scan(90, 30, func(uint64, []byte) bool {
				t.Fatal("inverted range visited a key")
				return false
			}); err != nil {
				t.Fatalf("inverted Scan: %v", err)
			}
			seen := 0
			if err := sc.Scan(0, ^uint64(0), func(uint64, []byte) bool {
				seen++
				return seen < 5
			}); err != nil {
				t.Fatalf("early-stop Scan: %v", err)
			}
			if seen != 5 {
				t.Fatalf("early stop visited %d keys, want 5", seen)
			}
		})
	}
}

// TestScanAfterReopen checks the disk backend seeds its ordered sidecar
// from the recovered indexes, so scans work on a freshly reopened store —
// reading values back through the log or through the read index.
func TestScanAfterReopen(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, readIndex := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards-%d/readindex-%v", shards, readIndex), func(t *testing.T) {
				dir := t.TempDir()
				st := openSharded(t, dir, ShardedDiskOptions{Shards: shards})
				for k := uint64(0); k < 100; k++ {
					if err := st.Put(k, []byte{byte(k)}); err != nil {
						t.Fatalf("Put: %v", err)
					}
				}
				st.Close()

				st = openSharded(t, dir, ShardedDiskOptions{ReadIndex: readIndex})
				defer st.Close()
				next := uint64(10)
				if err := st.Scan(10, 19, func(k uint64, v []byte) bool {
					if k != next || len(v) != 1 || v[0] != byte(k) {
						t.Errorf("row (%d,%v), want (%d,[%d])", k, v, next, byte(next))
					}
					next++
					return true
				}); err != nil {
					t.Fatalf("reopen Scan: %v", err)
				}
				if next != 20 {
					t.Fatalf("reopen scan visited %d keys, want 10", next-10)
				}
			})
		}
	}
}

// TestScanConcurrentWithWrites races scans against Put, PutMany, and
// Compact on every backend: the snapshot-per-key contract says a scan
// must stay deadlock-free and ascending, visit every key that existed
// before it started, and resolve each visited key to some live value.
// Run with -race this is also the sidecar's data-race proof.
func TestScanConcurrentWithWrites(t *testing.T) {
	for name, st := range scanBackends(t) {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			const base = 512
			for k := uint64(0); k < base; k++ {
				if err := st.Put(k, []byte{0}); err != nil {
					t.Fatalf("seed Put: %v", err)
				}
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // writer: overwrites + fresh keys, point and batched
				defer wg.Done()
				rnd := rand.New(rand.NewSource(11))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%3 == 0 {
						kvs := make([]KV, 8)
						for j := range kvs {
							kvs[j] = KV{Key: uint64(rnd.Intn(2 * base)), Value: []byte{byte(i)}}
						}
						if b, ok := st.(Batcher); ok {
							if err := b.PutMany(kvs); err != nil {
								t.Errorf("PutMany: %v", err)
								return
							}
							continue
						}
					}
					if err := st.Put(uint64(rnd.Intn(2*base)), []byte{byte(i)}); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
			}()
			go func() { // compactor, where the backend has one
				defer wg.Done()
				c, ok := st.(Compactor)
				if !ok {
					return
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := c.Compact(); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
				}
			}()

			deadline := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(deadline) {
				var prev uint64
				count, first := 0, true
				err := st.(Scanner).Scan(0, 2*base, func(k uint64, v []byte) bool {
					if !first && k <= prev {
						t.Errorf("scan not ascending: %d after %d", k, prev)
						return false
					}
					if len(v) != 1 {
						t.Errorf("key %d: bad value %v", k, v)
						return false
					}
					prev, first = k, false
					count++
					return true
				})
				if err != nil {
					t.Fatalf("Scan: %v", err)
				}
				if count < base {
					t.Fatalf("scan saw %d keys, want >= %d (pre-existing keys must all appear)", count, base)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestOrderedKeysBlocks exercises the sidecar's block split and seeding
// paths directly across several thousand keys.
func TestOrderedKeysBlocks(t *testing.T) {
	o := &orderedKeys{}
	rnd := rand.New(rand.NewSource(3))
	perm := rnd.Perm(5000)
	for _, k := range perm {
		o.insert(uint64(k * 2))
	}
	for _, k := range perm[:500] { // duplicates are no-ops
		o.insert(uint64(k * 2))
	}
	if o.size() != 5000 {
		t.Fatalf("size = %d, want 5000", o.size())
	}
	seeded := newOrderedKeys(func() []uint64 {
		keys := make([]uint64, 5000)
		for i, k := range perm {
			keys[i] = uint64(k * 2)
		}
		return keys
	}())
	for _, o := range []*orderedKeys{o, seeded} {
		got := o.chunk(0, ^uint64(0), make([]uint64, 0, 6000))
		if len(got) != 5000 {
			t.Fatalf("chunk returned %d keys, want 5000", len(got))
		}
		for i := range got {
			if got[i] != uint64(i*2) {
				t.Fatalf("key %d = %d, want %d", i, got[i], i*2)
			}
		}
	}
}
