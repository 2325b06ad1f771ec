package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
)

// fileSize stats path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestPreExtendLogGrowsByChunks pins the pre-extension invariant: a log
// never grows by an append, only by whole chunks of zeros
// written ahead of one, so between two appends inside a chunk the file's size
// does not change; every byte in [off, alloc) is zero; a record that
// straddles a chunk boundary, one that ends exactly on it and one larger than
// a chunk all read back; an unclean stop leaves a zero tail that recovery
// cuts off without a word; and a clean Close leaves exactly the records.
func TestPreExtendLogGrowsByChunks(t *testing.T) {
	// Sixteen zero bytes must not parse as a record, or recovery would walk
	// into the zeros: the checksum of a zero key and length is not zero.
	var zeroHdr [recHdr]byte
	if recordCRC(zeroHdr[:], nil) == 0 {
		t.Fatal("a zero header carries a valid checksum: a zero tail would recover as records of key 0")
	}

	logs := captureLogs(t)
	dir := t.TempDir()
	s := openSharded(t, dir, ShardedDiskOptions{SyncLinger: 1, CompactRatio: -1})
	want := make(map[uint64][]byte)
	put := func(key uint64, n int) {
		t.Helper()
		v := bytes.Repeat([]byte{byte(key) | 1}, n)
		if err := s.Put(key, v); err != nil {
			t.Fatal(err)
		}
		want[key] = v
	}
	// tailIsZeros checks the invariant against the file itself.
	tailIsZeros := func() {
		t.Helper()
		if got := fileSize(t, s.path); got != s.alloc {
			t.Fatalf("file is %d bytes, the store has extended it to %d", got, s.alloc)
		}
		tail := make([]byte, s.alloc-s.off)
		if _, err := s.f.ReadAt(tail, s.off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Fatalf("[%d, %d) is not all zeros", s.off, s.alloc)
		}
	}

	if s.alloc != s.off || fileSize(t, s.path) != int64(len(logMagic)) {
		t.Fatalf("a new log is %d bytes with alloc %d: nothing is extended before the first append", fileSize(t, s.path), s.alloc)
	}
	put(1, 100)
	first := fileSize(t, s.path)
	if first != int64(len(logMagic))+logChunk {
		t.Fatalf("after the first append the file is %d bytes, want the header and one chunk", first)
	}
	put(2, 100)
	if got := fileSize(t, s.path); got != first {
		t.Fatalf("an append inside the chunk moved the file's size from %d to %d", first, got)
	}
	tailIsZeros()

	// Fill the chunk to 1000 bytes short of its end, then straddle it.
	put(3, int(s.alloc-s.off)-recHdr-1000)
	if got := fileSize(t, s.path); got != first {
		t.Fatalf("an append ending inside the chunk moved the file's size from %d to %d", first, got)
	}
	put(4, 5000)
	if got := fileSize(t, s.path); got != first+logChunk || s.off <= first {
		t.Fatalf("a record across the boundary at %d left the file at %d bytes and the log at %d, want one more chunk", first, got, s.off)
	}
	tailIsZeros()
	// End exactly on the boundary: nothing grows until the next append.
	put(5, int(s.alloc-s.off)-recHdr)
	if s.off != s.alloc || fileSize(t, s.path) != first+logChunk {
		t.Fatalf("a record ending on the boundary: log at %d, file at %d bytes, alloc %d", s.off, fileSize(t, s.path), s.alloc)
	}
	put(6, 0)
	if got := fileSize(t, s.path); got != first+2*logChunk {
		t.Fatalf("the append after the boundary left the file at %d bytes, want %d", got, first+2*logChunk)
	}
	// Larger than a chunk: as many chunks as it takes, no more.
	put(7, logChunk+logChunk/2)
	if s.alloc < s.off || s.alloc-s.off >= logChunk {
		t.Fatalf("after a record larger than a chunk: log at %d, alloc %d", s.off, s.alloc)
	}
	tailIsZeros()

	check := func(s *ShardedDiskStore, when string) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", when, s.Len(), len(want))
		}
		for k, w := range want {
			if v, err := s.Get(k); err != nil || !bytes.Equal(v, w) {
				t.Fatalf("%s: Get(%d) = (%d bytes, %v), want %d", when, k, len(v), err, len(w))
			}
		}
	}
	check(s, "open")

	// An unclean stop: the file as it is now, zero tail and all.
	records := s.off
	unclean, err := os.ReadFile(s.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, s.path); got != records {
		t.Fatalf("a closed log is %d bytes, want exactly its %d bytes of records", got, records)
	}
	if err := os.WriteFile(s.path, unclean, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openSharded(t, dir, ShardedDiskOptions{SyncLinger: 1})
	defer s2.Close()
	if s2.off != records || s2.alloc != records || fileSize(t, s2.path) != records {
		t.Fatalf("recovered from a zero tail: log at %d, alloc %d, file %d bytes, want %d for all three", s2.off, s2.alloc, fileSize(t, s2.path), records)
	}
	check(s2, "recovered")
	if out := logs.String(); out != "" {
		t.Fatalf("a zero tail is a clean end, and recovery said:\n%s", out)
	}
}

// syncedImage is an fsync hook that remembers what was in each log when its
// last completed fsync began: the bytes a power loss cannot take back.
type syncedImage struct {
	mu  sync.Mutex
	img map[string][]byte // by log path
}

func (si *syncedImage) sync(f *os.File) error {
	before, err := os.ReadFile(f.Name())
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	si.set(f.Name(), before)
	return nil
}

func (si *syncedImage) set(path string, img []byte) {
	si.mu.Lock()
	si.img[path] = img
	si.mu.Unlock()
}

// powerLoss builds what a power loss leaves of a log whose last completed
// fsync covered synced and whose bytes are now current: synced, overlaid with
// a random subset of the 4 KiB pages written since, cut at a random length
// between the two (a file's size is metadata, and as unsynced as the pages).
func powerLoss(rng *rand.Rand, synced, current []byte) []byte {
	const page = 4096
	out := make([]byte, len(current))
	copy(out, synced)
	for at := 0; at < len(current); at += page {
		end := min(at+page, len(current))
		if rng.Intn(2) == 0 {
			copy(out[at:end], current[at:end])
		}
	}
	return out[:len(synced)+rng.Intn(len(current)-len(synced)+1)]
}

// TestPowerLossModel is the store against "everything written after the last
// completed fsync may or may not be there, page by page". Each cycle opens
// the log the previous crash left, writes acknowledged partitions (PutMany
// returned, or WaitDurable did) and unacknowledged ones (Append alone) with
// values sized so that records straddle chunk boundaries, and then loses
// power — every other cycle between a chunk's zero write and the record it
// was written for. After the crash every acknowledged write must read back
// with its last acknowledged value or one written after it, nothing that was
// never written may surface, and the log must take the next cycle's appends
// and recover them in turn.
func TestPowerLossModel(t *testing.T) {
	captureLogs(t) // torn tails are the point here; the warning has its own test
	forEachShardCount(t, testPowerLossModel)
}

func testPowerLossModel(t *testing.T, shards int) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			const keys = 24
			// history[k] is every value written to k since (and including)
			// its last acknowledged one, oldest first; acked[k] says whether
			// history[k][0] was acknowledged, so k must be found.
			history := make(map[uint64][][]byte)
			acked := make(map[uint64]bool)
			straddles, zeroCrashes := 0, 0
			for cycle := 0; cycle < 8; cycle++ {
				si := &syncedImage{img: make(map[string][]byte)}
				s, err := openShardedDisk(dir, ShardedDiskOptions{Shards: shards, SyncLinger: 1, CompactRatio: -1}, si.sync)
				if err != nil {
					t.Fatalf("cycle %d: reopening after a power loss: %v", cycle, err)
				}

				// What the crash left: for every key one of the values
				// written since its last acknowledgement, which from here on
				// is its acknowledged value — it is on the disk.
				if err := s.Scan(0, ^uint64(0), func(k uint64, _ []byte) bool {
					if history[k] == nil {
						t.Errorf("cycle %d: key %d recovered, and no write to it can have survived", cycle, k)
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				for k, vals := range history {
					v, err := s.Get(k)
					if err != nil {
						if acked[k] {
							t.Fatalf("cycle %d: acknowledged key %d is gone: %v", cycle, k, err)
						}
						delete(history, k)
						continue
					}
					at := -1
					for i := range vals {
						if bytes.Equal(vals[i], v) {
							at = i
						}
					}
					if at < 0 {
						t.Fatalf("cycle %d: Get(%d) = %d bytes starting %x: never written, or older than the acknowledged value", cycle, k, len(v), v[:min(len(v), 8)])
					}
					history[k], acked[k] = [][]byte{v}, true
				}
				recovered, err := os.ReadFile(s.path) // the recovered log is the disk's state
				if err != nil {
					t.Fatal(err)
				}
				si.set(s.path, recovered)

				write := func(wait bool) {
					var kvs []KV
					for n := 1 + rng.Intn(3); n > 0; n-- {
						v := make([]byte, rng.Intn(48<<10))
						rng.Read(v)
						kvs = append(kvs, KV{Key: uint64(rng.Intn(keys)), Value: v})
					}
					off, alloc := s.off, s.alloc
					ticket, err := s.Append(kvs, Ticket{})
					if err != nil {
						t.Fatal(err)
					}
					if off < alloc && alloc < s.off {
						straddles++
					}
					if wait {
						if err := s.WaitDurable(ticket); err != nil {
							t.Fatal(err)
						}
					}
					for _, kv := range kvs {
						if wait {
							history[kv.Key], acked[kv.Key] = nil, true
						}
						history[kv.Key] = append(history[kv.Key], kv.Value)
					}
				}
				for i := 10 + rng.Intn(10); i > 0; i-- {
					write(true)
				}
				for i := rng.Intn(4); i > 0; i-- {
					write(false)
				}
				if cycle%2 == 1 {
					// The zero write of the next extension, and no record.
					s.mu.Lock()
					err := s.extend(s.f, s.alloc+1)
					s.mu.Unlock()
					if err != nil {
						t.Fatal(err)
					}
					zeroCrashes++
				}

				// Power loss. Wait out an fsync in flight first, so that the
				// log's image and its file are read at one moment.
				s.mu.Lock()
				for s.syncing {
					s.cond.Wait()
				}
				current, err := os.ReadFile(s.path)
				si.mu.Lock()
				synced := si.img[s.path]
				si.mu.Unlock()
				s.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				left := powerLoss(rng, synced, current)
				s.Close()
				if err := os.WriteFile(s.path, left, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if straddles == 0 || zeroCrashes == 0 {
				t.Fatalf("%d records straddled a chunk boundary, %d crashes fell between a zero write and its record: the run missed what it is for", straddles, zeroCrashes)
			}
		})
	}
}

// TestPreExtendRecoveryWarnsOnceOnATornTail: a tail that is not zeros is a
// torn or rotted record, and recovery says which log lost how many bytes
// where — once.
func TestPreExtendRecoveryWarnsOnceOnATornTail(t *testing.T) {
	logs := captureLogs(t)
	dir := t.TempDir()
	s := openSharded(t, dir, ShardedDiskOptions{})
	const k = 1
	if err := s.Put(k, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	valid := fileSize(t, logPath(dir))
	// Zeros, as pre-extension leaves them, and then a record's worth of
	// garbage behind them: still a clean end, the scan never gets that far.
	appendRaw(t, dir, append(make([]byte, 64), 0xAB, 0xCD))
	s = openSharded(t, dir, ShardedDiskOptions{})
	s.Close()
	if out := logs.String(); out != "" {
		t.Fatalf("a tail that starts with zeros is a clean end, and recovery said:\n%s", out)
	}
	appendRaw(t, dir, []byte{0, 0, 0, 0, 0, 0, 0, 9, 0, 0}) // half a header
	s = openSharded(t, dir, ShardedDiskOptions{})
	defer s.Close()
	out := logs.String()
	for _, attr := range []string{"level=WARN", "path=" + logPath(dir), fmt.Sprintf("offset=%d", valid), "dropped=10"} {
		if strings.Count(out, attr) != 1 {
			t.Fatalf("recovery of one torn tail logged (want %q once):\n%s", attr, out)
		}
	}
	if v, err := s.Get(k); err != nil || string(v) != "kept" {
		t.Fatalf("Get(%d) = (%q,%v)", k, v, err)
	}
}
