package store

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// logSize returns the bytes of header and records in the log of s. The
// file itself is larger while the store is open, by the zeros written ahead
// of the appends, and never by more than one chunk: that is checked here
// against the file on disk.
func logSize(t *testing.T, s *ShardedDiskStore) int64 {
	t.Helper()
	s.mu.Lock()
	off, alloc := s.off, s.alloc
	s.mu.Unlock()
	if size := fileSize(t, s.path); size != alloc || alloc < off || alloc > off+logChunk {
		t.Fatalf("%s is %d bytes on disk: the log has records up to %d and zeros up to %d", s.path, size, off, alloc)
	}
	return off
}

// writeOverwriteHistory writes versions rounds of the keys [0, keys), so
// every key's final value is "v<versions-1>-<key>" and the logs hold
// versions times the live data.
func writeOverwriteHistory(t *testing.T, s Store, keys uint64, versions int) {
	t.Helper()
	for v := 0; v < versions; v++ {
		for k := uint64(0); k < keys; k++ {
			if err := s.Put(k, []byte(fmt.Sprintf("v%d-%d", v, k))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func checkFinalHistory(t *testing.T, s Store, keys uint64, versions int) {
	t.Helper()
	if got := s.Len(); got != int(keys) {
		t.Fatalf("Len = %d, want %d", got, keys)
	}
	for k := uint64(0); k < keys; k++ {
		want := fmt.Sprintf("v%d-%d", versions-1, k)
		if v, err := s.Get(k); err != nil || string(v) != want {
			t.Fatalf("Get(%d) = (%q,%v), want %q", k, v, err, want)
		}
	}
}

// TestShardedDiskCompactionBoundsLog: after an overwrite-heavy history,
// Compact must shrink the log to ≈ live data, keep every live value
// readable, survive a reopen (the compacted log is v2, CRC-verified),
// and report its work through CompactStats.
func TestShardedDiskCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDisk(dir, ShardedDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const keys, versions = 128, 10
	writeOverwriteHistory(t, s, keys, versions)
	pre := logSize(t, s)

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	post := logSize(t, s)
	if post >= pre/2 {
		t.Fatalf("compaction barely shrank the log: %d -> %d bytes (%d versions of history)", pre, post, versions)
	}
	checkFinalHistory(t, s, keys, versions)

	cs := s.CompactStats()
	if cs.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", cs.Compactions)
	}
	if cs.Failures != 0 {
		t.Fatalf("Failures = %d, want 0", cs.Failures)
	}
	if cs.ReclaimedBytes == 0 || int64(cs.ReclaimedBytes) < pre-post-64 {
		t.Fatalf("ReclaimedBytes = %d, the log shrank by %d", cs.ReclaimedBytes, pre-post)
	}
	if cs.StallNS == 0 {
		t.Fatal("StallNS = 0: compaction stall time not recorded")
	}

	// Writes after compaction land in the new log; everything must
	// survive a restart.
	if err := s.Put(keys, []byte("after-compact")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenShardedDisk(dir, ShardedDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, err := s2.Get(keys); err != nil || string(v) != "after-compact" {
		t.Fatalf("Get(%d) = (%q,%v)", keys, v, err)
	}
	checkFinalHistoryLenient(t, s2, keys, versions)
}

func checkFinalHistoryLenient(t *testing.T, s Store, keys uint64, versions int) {
	t.Helper()
	for k := uint64(0); k < keys; k++ {
		want := fmt.Sprintf("v%d-%d", versions-1, k)
		if v, err := s.Get(k); err != nil || string(v) != want {
			t.Fatalf("recovered Get(%d) = (%q,%v), want %q", k, v, err, want)
		}
	}
}

// TestShardedDiskMaybeCompactThresholds: the garbage-ratio trigger must
// skip a clean or under-floor log, fire past the threshold, and stay off
// when disabled.
func TestShardedDiskMaybeCompactThresholds(t *testing.T) {
	t.Run("floor", func(t *testing.T) {
		s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{CompactRatio: 0.1, CompactMinBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		writeOverwriteHistory(t, s, 64, 4)
		n, err := s.MaybeCompact()
		if err != nil || n != 0 {
			t.Fatalf("MaybeCompact under the size floor = (%d,%v), want (0,nil)", n, err)
		}
	})
	t.Run("ratio", func(t *testing.T) {
		s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{CompactRatio: 0.5, CompactMinBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// One version: no garbage at all, nothing to compact.
		writeOverwriteHistory(t, s, 64, 1)
		if n, err := s.MaybeCompact(); err != nil || n != 0 {
			t.Fatalf("MaybeCompact with no garbage = (%d,%v), want (0,nil)", n, err)
		}
		// Four versions: 75% garbage, the log must be rewritten.
		writeOverwriteHistory(t, s, 64, 4)
		n, err := s.MaybeCompact()
		if err != nil || n != 1 {
			t.Fatalf("MaybeCompact past the ratio = (%d,%v), want (1,nil)", n, err)
		}
		checkFinalHistory(t, s, 64, 4)
		// Immediately after compacting there is no garbage again.
		if n, _ := s.MaybeCompact(); n != 0 {
			t.Fatalf("MaybeCompact right after compaction = %d, want 0", n)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{CompactRatio: -1, CompactMinBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		writeOverwriteHistory(t, s, 64, 8)
		if n, err := s.MaybeCompact(); err != nil || n != 0 {
			t.Fatalf("disabled MaybeCompact = (%d,%v), want (0,nil)", n, err)
		}
	})
}

// TestDiskStoreCompaction: MaybeCompact honors the thresholds and bounds
// the log, and the compacted log recovers.
func TestDiskStoreCompaction(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		s := openSharded(t, dir, ShardedDiskOptions{Shards: shards, CompactRatio: 0.5, CompactMinBytes: -1})
		const keys, versions = 100, 8
		writeOverwriteHistory(t, s, keys, versions)
		pre := logSize(t, s)

		n, err := s.MaybeCompact()
		if err != nil || n != 1 {
			t.Fatalf("MaybeCompact = (%d,%v), want (1,nil)", n, err)
		}
		if post := logSize(t, s); post >= pre/2 {
			t.Fatalf("compaction barely shrank the log: %d -> %d", pre, post)
		}
		checkFinalHistory(t, s, keys, versions)
		cs := s.CompactStats()
		if cs.Compactions != 1 || cs.ReclaimedBytes == 0 {
			t.Fatalf("CompactStats = %+v", cs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2 := openSharded(t, dir, ShardedDiskOptions{})
		defer s2.Close()
		checkFinalHistoryLenient(t, s2, keys, versions)
	})
}

// TestV2MidLogCorruptionDetected: a flipped byte in the middle of a log —
// in a value and in a header — must be detected by the CRC on recovery,
// which keeps the longest valid prefix; the repair must be durable across
// a second restart.
func TestV2MidLogCorruptionDetected(t *testing.T) {
	for name, flip := range map[string]int64{
		"value":  16 + 4,     // inside record 0's value bytes
		"header": 16 + 9 + 2, // inside record 1's header (its key field)
	} {
		t.Run(name, func(t *testing.T) {
			forEachShardCount(t, func(t *testing.T, shards int) {
				testMidLogCorruption(t, shards, flip, name == "value")
			})
		})
	}
}

func testMidLogCorruption(t *testing.T, shards int, flip int64, firstRecord bool) {
	dir := t.TempDir()
	s := openSharded(t, dir, ShardedDiskOptions{Shards: shards})
	// Three records with distinct keys, and a fourth key for the
	// post-repair write: 9-byte values at offsets 8 (header), 8+25, 8+50.
	same := []uint64{0, 1, 2, 3}
	value := func(k uint64) string { return fmt.Sprintf("value-%03d", k%1000) }
	for _, k := range same[:3] {
		if err := s.Put(k, []byte(value(k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte mid-log (not in the tail record).
	f, err := os.OpenFile(logPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := int64(8) + flip // past the file magic
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenShardedDisk(dir, ShardedDiskOptions{})
	if err != nil {
		t.Fatalf("recovery after mid-log corruption: %v", err)
	}
	// The corrupt record and everything after it are gone; the records
	// before it survive — the longest valid prefix.
	wantLive := same[:1]
	if firstRecord {
		wantLive = nil // record 0 is the corrupt one
	}
	if got := s2.Len(); got != len(wantLive) {
		t.Fatalf("Len after corruption = %d, want %d (longest valid prefix)", got, len(wantLive))
	}
	for _, k := range wantLive {
		if v, err := s2.Get(k); err != nil || string(v) != value(k) {
			t.Fatalf("Get(%d) = (%q,%v), want %q", k, v, err, value(k))
		}
	}
	// The log is writable after the truncation and the repair is durable
	// across another restart.
	if err := s2.Put(same[3], []byte("after-repair")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenShardedDisk(dir, ShardedDiskOptions{})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer s3.Close()
	if got := s3.Len(); got != len(wantLive)+1 {
		t.Fatalf("Len after second recovery = %d, want %d", got, len(wantLive)+1)
	}
	if v, err := s3.Get(same[3]); err != nil || string(v) != "after-repair" {
		t.Fatalf("Get(%d) = (%q,%v)", same[3], v, err)
	}
}

// TestCorruptLogHeaderIsAnErrorNotARepair: one flipped bit in a log's magic
// header must fail the open with an error naming the file, and leave the
// file byte for byte as it was — the records behind a rotted header are
// intact, and it is the operator's call what to do with them. A file too
// short to hold the header is the other case: a torn first write, which the
// open replaces with an empty log.
func TestCorruptLogHeaderIsAnErrorNotARepair(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		s := openSharded(t, dir, ShardedDiskOptions{Shards: shards})
		same := []uint64{1, 2, 3}
		for _, k := range same {
			if err := s.Put(k, []byte(fmt.Sprintf("v-%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		path := logPath(dir)
		healthy, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := append([]byte(nil), healthy...)
		corrupt[3] ^= 0x10
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}

		if s, err := OpenShardedDisk(dir, ShardedDiskOptions{}); err == nil {
			s.Close()
			t.Fatal("a log with a corrupt header opened")
		} else if !strings.Contains(err.Error(), path) {
			t.Fatalf("error does not name the log: %v", err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, corrupt) {
			t.Fatalf("failed open rewrote the log: %d bytes before, %d after", len(corrupt), len(after))
		}

		// Undo the flip and every record is still there.
		if err := os.WriteFile(path, healthy, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openSharded(t, dir, ShardedDiskOptions{})
		for _, k := range same {
			if v, err := s2.Get(k); err != nil || string(v) != fmt.Sprintf("v-%d", k) {
				t.Fatalf("Get(%d) after restoring the header = (%q,%v)", k, v, err)
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}

		// A torn header, by contrast, is an empty log.
		if err := os.WriteFile(path, healthy[:5], 0o644); err != nil {
			t.Fatal(err)
		}
		s3 := openSharded(t, dir, ShardedDiskOptions{})
		defer s3.Close()
		if _, err := s3.Get(same[0]); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get on a log reinitialized from a torn header: %v", err)
		}
	})
}

// TestCompactionCrashMatrix simulates a crash at each rung of the
// compaction ladder — mid-rewrite (partial temp), after the temp's fsync
// but before the rename, and after the rename — with a double restart at
// every point: no acknowledged write may be lost, and stray temp files
// must be cleaned up.
func TestCompactionCrashMatrix(t *testing.T) {
	forEachShardCount(t, testCompactionCrashMatrix)
}

func testCompactionCrashMatrix(t *testing.T, shards int) {
	const keys, versions = 48, 4
	setup := func(t *testing.T) (string, map[uint64]string) {
		dir := t.TempDir()
		s, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		writeOverwriteHistory(t, s, keys, versions)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64]string, keys)
		for k := uint64(0); k < keys; k++ {
			want[k] = fmt.Sprintf("v%d-%d", versions-1, k)
		}
		return dir, want
	}
	verify := func(t *testing.T, dir string, want map[uint64]string) {
		// Double restart: open, check, write, close, open, check again —
		// the recovery (and any temp cleanup) must itself be durable.
		for round := 0; round < 2; round++ {
			s, err := OpenShardedDisk(dir, ShardedDiskOptions{})
			if err != nil {
				t.Fatalf("restart %d: %v", round, err)
			}
			for k, w := range want {
				if v, err := s.Get(k); err != nil || string(v) != w {
					t.Fatalf("restart %d: Get(%d) = (%q,%v), want %q", round, k, v, err, w)
				}
			}
			if err := s.Put(1000+uint64(round), []byte("post-crash")); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		strays, _ := filepath.Glob(filepath.Join(dir, ".compact-*"))
		if len(strays) != 0 {
			t.Fatalf("compaction temps survived recovery: %v", strays)
		}
	}

	t.Run("mid-rewrite", func(t *testing.T) {
		dir, want := setup(t)
		// The crash left a half-written temp: garbage bytes, no rename.
		if err := os.WriteFile(filepath.Join(dir, ".compact-123"), []byte("partial rewrite"), 0o600); err != nil {
			t.Fatal(err)
		}
		verify(t, dir, want)
	})
	t.Run("fsynced-before-rename", func(t *testing.T) {
		dir, want := setup(t)
		// The crash left a complete, valid rewrite of the log that was
		// never renamed: it must be ignored (the original log is still
		// authoritative) and removed.
		src, err := os.Open(filepath.Join(dir, "shard-000.log"))
		if err != nil {
			t.Fatal(err)
		}
		m := NewMemStore(0)
		if _, _, err := recoverLog(src, m); err != nil {
			t.Fatal(err)
		}
		tmp, lState, err := rewriteLiveRecords(m.t, filepath.Join(dir, "shard-000.log.ignored"))
		if err != nil {
			t.Fatal(err)
		}
		if lState.total == 0 {
			t.Fatal("rewrite produced no live records")
		}
		tmp.Close()
		src.Close()
		// rewriteLiveRecords renamed to .ignored; move it back to a temp
		// name, as if the crash hit between fsync and the real rename.
		if err := os.Rename(filepath.Join(dir, "shard-000.log.ignored"), filepath.Join(dir, ".compact-999")); err != nil {
			t.Fatal(err)
		}
		verify(t, dir, want)
	})
	t.Run("after-rename", func(t *testing.T) {
		dir, want := setup(t)
		// A completed compaction (the rename landed); the compacted log is
		// the authoritative state.
		s, err := OpenShardedDisk(dir, ShardedDiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		// Crash immediately after: no clean Close of the new logs.
		// (Simulated by just not writing anything further; the log is
		// already fsynced by the rewrite.)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		verify(t, dir, want)
	})
}

// captureLogs routes slog's default logger into the returned buffer until
// the test ends. Read it only after the event that logged is known to be
// over.
func captureLogs(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	t.Cleanup(func() { slog.SetDefault(old) })
	return &buf
}

// TestCompactionValueSources: the rewrite takes every value from the table,
// the byte count it keeps says exactly how long the rewritten log is, and
// every key reads back byte for byte what it read before — from the swapped
// log, and from a cold reopen that verifies every record's checksum. The
// history has overwrites that grow and shrink, empty values, and one value
// larger than a page, which the table keeps in an allocation of its own.
func TestCompactionValueSources(t *testing.T) {
	// The row is named for the ReadIndex setting it opens the store with;
	// the option is ignored, and callers still set it.
	t.Run("readindex=true", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenShardedDisk(dir, ShardedDiskOptions{ReadIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		const keys = 200
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 4; round++ {
			var kvs []KV
			for k := uint64(0); k < keys; k++ {
				if round > 0 && rng.Intn(3) == 0 {
					continue // this key's live record stays in an earlier round
				}
				v := make([]byte, rng.Intn(300))
				rng.Read(v)
				kvs = append(kvs, KV{Key: k, Value: v})
			}
			if err := s.PutMany(kvs); err != nil {
				t.Fatal(err)
			}
		}
		big := make([]byte, 300<<10)
		rng.Read(big)
		for _, kv := range []KV{{Key: keys, Value: big}, {Key: keys + 1, Value: nil}, {Key: 3, Value: []byte("last write wins")}} {
			if err := s.Put(kv.Key, kv.Value); err != nil {
				t.Fatal(err)
			}
		}
		want := make(map[uint64][]byte)
		for k := uint64(0); k < keys+2; k++ {
			if want[k], err = s.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		pre := logSize(t, s)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if live := liveBytes(s.t); live != s.total || s.off != s.total+int64(len(logMagic)) {
			t.Fatalf("compacted log: live %d, total %d, append offset %d", live, s.total, s.off)
		}
		// The rewrite padded the new log to its next chunk boundary.
		if s.alloc%logChunk != 0 || s.alloc < s.off || s.alloc-s.off >= logChunk {
			t.Fatalf("compacted log: records end at %d, the file at %d", s.off, s.alloc)
		}
		closed := s.off // what the file must be once the store is closed
		if post := logSize(t, s); post >= pre {
			t.Fatalf("the log went from %d to %d bytes of records", pre, post)
		}
		check := func(s *ShardedDiskStore, when string) {
			t.Helper()
			if s.Len() != len(want) {
				t.Fatalf("%s: Len = %d, want %d", when, s.Len(), len(want))
			}
			for k, w := range want {
				if v, err := s.Get(k); err != nil || !bytes.Equal(v, w) {
					t.Fatalf("%s: Get(%d) = (%d bytes, %v), want the %d bytes it held before", when, k, len(v), err, len(w))
				}
			}
		}
		check(s, "after the swap")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fileSize(t, s.path); got != closed {
			t.Fatalf("%s is %d bytes after Close, want its %d bytes of records", s.path, got, closed)
		}
		s2, err := OpenShardedDisk(dir, ShardedDiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		check(s2, "reopened")
	})
}

// TestCompactionNotStarvedByBusyShard: a saturated log is inside an fsync
// nearly always, and a rewrite cannot swap the log under one — so the
// committer starts no fsync while a rewrite waits, and the rewrite gets in
// after the one in flight instead of after the load.
func TestCompactionNotStarvedByBusyShard(t *testing.T) {
	const stream = 500 * time.Millisecond
	s, err := openShardedDisk(t.TempDir(), ShardedDiskOptions{SyncLinger: 1}, slowFsync(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wait := streamPuts(t, s, 8, stream)
	time.Sleep(stream / 10)
	c0 := time.Now()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(c0); took > stream/2 {
		t.Fatalf("Compact took %v on a log with 8 durable writers: it waited for the load to stop", took)
	}
	wait()
}

// TestFailedCompactionSaysSoOnce: a rewrite that cannot happen (its
// directory is gone) is counted, logged once with the log's path, and
// leaves the store on its old log, usable. The committer stood back for the
// rewrite while it waited for the lock; the waiter parked meanwhile must
// get its fsync from the committer after all.
func TestFailedCompactionSaysSoOnce(t *testing.T) {
	logs := captureLogs(t)
	dir := t.TempDir()
	s, held := openHeld(t, dir)
	ticket, err := s.Append([]KV{{Key: 9, Value: []byte("nine")}}, Ticket{})
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- s.WaitDurable(ticket) }()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	compacted := make(chan error, 1)
	go func() { compacted <- s.Compact() }()
	awaitCompactor(s)
	held.letGo()
	if err := <-compacted; err == nil {
		t.Fatal("Compact succeeded with its directory gone")
	}
	select {
	case err := <-waited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter a failed rewrite left unsynced is still parked")
	}
	if cs := s.CompactStats(); cs.Failures != 1 || cs.Compactions != 0 {
		t.Fatalf("CompactStats = %+v, want one failure and nothing else", cs)
	}
	out := logs.String()
	if strings.Count(out, "level=ERROR") != 1 || !strings.Contains(out, s.path) {
		t.Fatalf("one failed compaction logged:\n%s", out)
	}
	if v, err := s.Get(9); err != nil || string(v) != "nine" {
		t.Fatalf("Get(9) after the failed rewrite = (%q,%v)", v, err)
	}
}

// TestShardedDiskCompactDuringGroupCommit: compaction under group commit
// must release writers parked behind the next fsync (the rewrite's fsync
// covers them) and keep every acknowledged write across a restart.
func TestShardedDiskCompactDuringGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDisk(dir, ShardedDiskOptions{SyncLinger: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 64
	var wg sync.WaitGroup
	stopCompact := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopCompact:
				return
			default:
				if err := s.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var put sync.WaitGroup
	for w := 0; w < writers; w++ {
		put.Add(1)
		go func(w int) {
			defer put.Done()
			for i := 0; i < per; i++ {
				key := uint64(w*per + i)
				if err := s.Put(key, []byte(fmt.Sprintf("v-%d", key))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	put.Wait()
	close(stopCompact)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenShardedDisk(dir, ShardedDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != writers*per {
		t.Fatalf("recovered Len = %d, want %d", got, writers*per)
	}
	for key := uint64(0); key < writers*per; key++ {
		if v, err := s2.Get(key); err != nil || string(v) != fmt.Sprintf("v-%d", key) {
			t.Fatalf("recovered Get(%d) = (%q,%v)", key, v, err)
		}
	}
}

// TestShardedDiskConcurrentGetPutCompactClose is the -race test for the
// lock-free Get read path: concurrent readers, writers, a compactor
// swapping the log files under them, and finally Close racing the lot.
// Readers must only ever see a complete value or a clean error
// (ErrNotFound before the key exists, ErrClosed after Close) — never a
// torn read, a panic, or a deadlock.
func TestShardedDiskConcurrentGetPutCompactClose(t *testing.T) {
	for name, durable := range map[string]time.Duration{"nosync": 0, "groupcommit": 1} {
		t.Run(name, func(t *testing.T) {
			s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{SyncLinger: durable})
			if err != nil {
				t.Fatal(err)
			}
			const keys = 64
			// Seed every key so readers can verify value integrity.
			for k := uint64(0); k < keys; k++ {
				if err := s.Put(k, []byte(fmt.Sprintf("v0-%d", k))); err != nil {
					t.Fatal(err)
				}
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) { // writers: overwrite with versioned values
					defer wg.Done()
					v := 1
					for {
						select {
						case <-stop:
							return
						default:
						}
						for k := uint64(0); k < keys; k++ {
							if err := s.Put(k, []byte(fmt.Sprintf("v%d-%d", v, k))); err != nil {
								if errors.Is(err, ErrClosed) {
									return
								}
								t.Error(err)
								return
							}
						}
						v++
					}
				}(w)
			}
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() { // readers: every value must be a complete "v<n>-<k>"
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						k := uint64(time.Now().UnixNano()) % keys
						v, err := s.Get(k)
						if err != nil {
							if errors.Is(err, ErrClosed) {
								return
							}
							t.Errorf("Get(%d) = %v", k, err)
							return
						}
						var ver int
						var key uint64
						if n, _ := fmt.Sscanf(string(v), "v%d-%d", &ver, &key); n != 2 || key != k {
							t.Errorf("torn or misplaced read: Get(%d) = %q", k, v)
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() { // compactor: swap the files under everyone
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Compact(); err != nil && !errors.Is(err, ErrClosed) {
						t.Error(err)
						return
					}
				}
			}()
			time.Sleep(50 * time.Millisecond)
			// Close while everything is still running: goroutines must exit
			// through clean ErrClosed paths.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()
		})
	}
}
