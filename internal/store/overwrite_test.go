package store

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// patternValue is a value that checks itself: every byte is the seed's low
// byte and the length is a function of that byte, so a reader that caught
// a value halfway through an in-place overwrite (old bytes beside new, or
// a new length over old bytes) cannot pass checkPattern.
func patternValue(seed uint32, buf []byte) []byte {
	b := byte(seed)
	buf = buf[:0]
	for i := 0; i < 1+int(b)%61; i++ {
		buf = append(buf, b)
	}
	return buf
}

func checkPattern(v []byte) error {
	if len(v) == 0 {
		return fmt.Errorf("empty value")
	}
	b := v[0]
	if len(v) != 1+int(b)%61 {
		return fmt.Errorf("torn value: %d bytes of %#x, want %d", len(v), b, 1+int(b)%61)
	}
	for i := range v {
		if v[i] != b {
			return fmt.Errorf("torn value: byte %d is %#x, byte 0 is %#x", i, v[i], b)
		}
	}
	return nil
}

// overwriteStores are the stores whose table overwrites in place: the
// memory store, and the disk store that embeds one.
func overwriteStores(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{
		"mem":  NewMemStore(64),
		"disk": openSharded(t, t.TempDir(), ShardedDiskOptions{}),
	}
}

// TestOverwriteConcurrentReadersNeverSeeTornValues overwrites a small set
// of keys in place from several writers — overlapping on purpose: the lock
// discipline, not key-disjointness, is what is under test — while readers
// Get and Scan them. Every value read must be a whole pattern. Run under
// -race this is also the proof that Get copies before it unlocks.
func TestOverwriteConcurrentReadersNeverSeeTornValues(t *testing.T) {
	const keys, writers, readers, rounds = 16, 3, 3, 400
	for name, s := range overwriteStores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			scanner := s.(Scanner)
			batcher := s.(Batcher)
			for k := uint64(0); k < keys; k++ {
				if err := s.Put(k, patternValue(uint32(k), nil)); err != nil {
					t.Fatal(err)
				}
			}
			var stop atomic.Bool
			var writersWg, readersWg sync.WaitGroup
			for w := 0; w < writers; w++ {
				writersWg.Add(1)
				go func(w int) {
					defer writersWg.Done()
					bufs := make([][]byte, keys)
					kvs := make([]KV, keys)
					for r := 0; r < rounds; r++ {
						for k := range kvs {
							// The buffers are recycled every round: the store must
							// have copied out of them.
							bufs[k] = patternValue(uint32(w*rounds*keys+r*keys+k), bufs[k])
							kvs[k] = KV{Key: uint64(k), Value: bufs[k]}
						}
						if err := batcher.PutMany(kvs); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				readersWg.Add(1)
				go func(r int) {
					defer readersWg.Done()
					for i := 0; !stop.Load(); i++ {
						if r == 0 {
							err := scanner.Scan(0, keys-1, func(k uint64, v []byte) bool {
								if err := checkPattern(v); err != nil {
									t.Errorf("Scan key %d: %v", k, err)
								}
								return true
							})
							if err != nil {
								t.Error(err)
							}
							continue
						}
						k := uint64(i % keys)
						v, err := s.Get(k)
						if err != nil {
							t.Error(err)
							return
						}
						if err := checkPattern(v); err != nil {
							t.Errorf("Get(%d): %v", k, err)
							return
						}
					}
				}(r)
			}
			writersWg.Wait()
			stop.Store(true)
			readersWg.Wait()
			if s.Len() != keys {
				t.Fatalf("Len = %d, want %d", s.Len(), keys)
			}
		})
	}
}

// TestOverwriteLengths walks one key through equal-length, shrinking and
// growing overwrites (a small shrink keeps the slot, a later grow inside it
// reuses it, a grow beyond it or a shrink below half of it moves the value,
// one longer than a page to a page of its own, an empty one out of the
// pages) and checks after each that Get returns exactly the new value, empty
// but not nil for an empty one, that a value handed out earlier did not
// change under its holder, and that Scan still finds the key once.
func TestOverwriteLengths(t *testing.T) {
	for name, s := range overwriteStores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			var held [][]byte
			var want []string
			page := strings.Repeat("p", pageSize+1)
			for _, val := range []string{"first-value", "equal-bytes", "tiny", "", "midsize", "first-value", "grown past every earlier capacity", page, page[:pageSize], "", "after a page"} {
				if err := s.Put(7, []byte(val)); err != nil {
					t.Fatal(err)
				}
				got, err := s.Get(7)
				if err != nil || string(got) != val || got == nil {
					t.Fatalf("Get after Put(%.40q) = (%.40q,%v)", val, got, err)
				}
				held, want = append(held, got), append(want, val)
				for i := range held {
					if string(held[i]) != want[i] {
						t.Fatalf("value %.40q, handed out earlier, reads %.40q after Put(%.40q)", want[i], held[i], val)
					}
				}
			}
			rows := 0
			err := s.(Scanner).Scan(0, 100, func(k uint64, v []byte) bool {
				rows++
				if k != 7 || string(v) != want[len(want)-1] {
					t.Errorf("Scan row (%d,%.40q)", k, v)
				}
				return true
			})
			if err != nil || rows != 1 {
				t.Fatalf("Scan visited %d rows (err %v), want 1", rows, err)
			}
		})
	}
}

// TestMemStoreOverwriteAllocatesNothing is the allocation gate for the
// write path of a loaded table: a PutMany of same-sized values over keys
// that exist costs no allocation, in the memory store and in the durable
// disk store's Append (records are encoded into the store's own buffer, then
// copied into its table).
// Inserting keys into a table sized for them allocates only the pages their
// values fill (and the page and free lists when they grow), and into a table
// sized for none only that and the index's doublings; in MemStore a partition with a
// new key also reaches the ordered sidecar, which is not held to it.
func TestMemStoreOverwriteAllocatesNothing(t *testing.T) {
	// AllocsPerRun counts the whole process's mallocs, and the process's
	// first GC cycle starts a background mark worker per P, four objects
	// each (four under AllocsPerRun's one P). Landing inside a counted run
	// below, they read as the table's; a cycle here makes them first.
	runtime.GC()
	const records, burst = 4096, 32
	val := make([]byte, 100)
	kvs := make([]KV, burst)
	fill := func(i int) {
		val[0] = byte(i)
		for j := range kvs {
			kvs[j] = KV{Key: uint64(i*burst+j) % records, Value: val}
		}
	}
	preload := func(put func([]KV)) {
		for i := 0; i < records/burst; i++ {
			fill(i)
			put(kvs)
		}
	}

	mem := NewMemStore(records)
	preload(func(kvs []KV) {
		if err := mem.PutMany(kvs); err != nil {
			t.Fatal(err)
		}
	})
	i := 0
	memAllocs := testing.AllocsPerRun(500, func() {
		fill(i)
		i++
		if err := mem.PutMany(kvs); err != nil {
			t.Fatal(err)
		}
	})

	disk, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{SyncLinger: 1})
	if err != nil {
		t.Fatal(err)
	}
	preload(func(kvs []KV) {
		if err := disk.PutMany(kvs); err != nil {
			t.Fatal(err)
		}
	})
	var ticket Ticket
	diskAllocs := testing.AllocsPerRun(500, func() {
		fill(i)
		i++
		if ticket, err = disk.Append(kvs, ticket); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per %d-record overwrite: MemStore.PutMany %.0f, ShardedDiskStore.Append %.0f", burst, memAllocs, diskAllocs)
	if memAllocs != 0 || diskAllocs != 0 {
		t.Fatalf("overwriting %d records allocates %.0f (MemStore) and %.0f (disk Append), want 0 each", burst, memAllocs, diskAllocs)
	}
	// The disk store's committer fsyncs on its own goroutine, and a blocking
	// syscall can make the runtime start a thread, whose allocations would
	// land in the one counted fresh-key round below.
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// Inserting fresh keys: the fewest allocations of three fresh tables,
	// since a runtime allocation (a GC worker starting, say) can land in any
	// one count; a table that allocated per key would count thousands in
	// each.
	for _, hint := range []int{records, 0} {
		fewest, allowed := -1, 0
		for try := 0; try < 3; try++ {
			tab := newTable(hint)
			pageList, freeList, slots, growths := cap(tab.pages), cap(tab.free), len(tab.index.slots), 0
			allocs := countAllocs(func() {
				for k := 0; k < records; k++ {
					tab.put(uint64(k), val)
					for _, grew := range []bool{cap(tab.pages) != pageList, cap(tab.free) != freeList, len(tab.index.slots) != slots} {
						if grew {
							growths++
						}
					}
					pageList, freeList, slots = cap(tab.pages), cap(tab.free), len(tab.index.slots)
				}
			})
			allowed = len(tab.pages) + growths
			if fewest < 0 || allocs < fewest {
				fewest = allocs
			}
		}
		t.Logf("inserting %d fresh keys into a table sized for %d allocates %d; its pages, list growths and index doublings number %d", records, hint, fewest, allowed)
		if fewest > allowed {
			t.Errorf("inserting %d fresh keys into a table sized for %d allocates %d, more than the %d pages it filled, list growths and index doublings", records, hint, fewest, allowed)
		}
	}
}

// countAllocs returns the mallocs f makes, counted as testing.AllocsPerRun
// counts them, for one run with no warm-up.
func countAllocs(f func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.Mallocs - before.Mallocs)
}

// TestAppendValueMissAllocatesNothing: reading an absent key — what a
// read or scan of the execute stage and of the local read lane does for
// every key nobody wrote — costs no allocation, in the memory store and in
// the disk store that embeds one. The miss is the bare ErrNotFound and
// leaves the caller's buffer as it was.
func TestAppendValueMissAllocatesNothing(t *testing.T) {
	runtime.GC() // the first cycle's mark workers, outside the count
	disk, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{SyncLinger: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, s := range []struct {
		name string
		st   interface {
			Put(uint64, []byte) error
			ValueAppender
		}
	}{{"MemStore", NewMemStore(64)}, {"ShardedDiskStore", disk}} {
		if err := s.st.Put(7, []byte("v7")); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, 16)
		var got []byte
		allocs := testing.AllocsPerRun(200, func() {
			got, err = s.st.AppendValue(dst, 8)
		})
		if err != ErrNotFound || len(got) != 0 {
			t.Fatalf("%s: AppendValue(absent) = (%q, %v), want the buffer unchanged and ErrNotFound", s.name, got, err)
		}
		if allocs != 0 {
			t.Fatalf("%s: a miss allocates %.0f, want 0", s.name, allocs)
		}
	}
}
