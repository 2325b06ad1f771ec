package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShardedDiskConformance runs the Store contract against the disk
// store in both durability modes.
func TestShardedDiskConformance(t *testing.T) {
	for name, durable := range map[string]time.Duration{"nosync": 0, "groupcommit": 100 * time.Microsecond} {
		t.Run(name, func(t *testing.T) {
			s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{SyncLinger: durable})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Get(1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on empty = %v, want ErrNotFound", err)
			}
			for i := uint64(0); i < 64; i++ {
				if err := s.Put(i, []byte(fmt.Sprintf("v-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// Overwrite and empty-value round trips.
			if err := s.Put(1, []byte("uno")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(100, nil); err != nil {
				t.Fatal(err)
			}
			if v, err := s.Get(1); err != nil || string(v) != "uno" {
				t.Fatalf("Get(1) = (%q,%v)", v, err)
			}
			if v, err := s.Get(100); err != nil || len(v) != 0 {
				t.Fatalf("Get(100) = (%q,%v)", v, err)
			}
			if s.Len() != 65 {
				t.Fatalf("Len = %d, want 65", s.Len())
			}
			// Value isolation, like the other stores.
			src := []byte("mutable")
			if err := s.Put(7, src); err != nil {
				t.Fatal(err)
			}
			src[0] = 'X'
			if v, _ := s.Get(7); string(v) != "mutable" {
				t.Fatalf("store aliased caller buffer: %q", v)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(1, []byte("x")); !errors.Is(err, ErrClosed) {
				t.Fatalf("Put after close = %v", err)
			}
			if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
				t.Fatalf("Get after close = %v", err)
			}
		})
	}
}

// TestShardedDiskPutMany: a partition lands in order, so the last write to
// a key in it wins, and an empty one is a no-op.
func TestShardedDiskPutMany(t *testing.T) {
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	kvs := []KV{{1, []byte("one")}, {2, []byte("two")}, {3, []byte("three")}, {1, []byte("one-v2")}}
	if err := s.PutMany(kvs); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[uint64]string{1: "one-v2", 2: "two", 3: "three"} {
		if v, err := s.Get(k); err != nil || string(v) != want {
			t.Fatalf("Get(%d) = (%q,%v), want %q", k, v, err, want)
		}
	}
	if err := s.PutMany(nil); err != nil {
		t.Fatalf("PutMany(nil) = %v", err)
	}
}

// TestShardedDiskPutManyMixedGroupCommit drives PutMany under group
// commit: a partition of many keys must be fsynced before PutMany returns
// and read back correctly after a reopen.
func TestShardedDiskPutManyMixedGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDisk(dir, ShardedDiskOptions{SyncLinger: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var kvs []KV
	for k := uint64(0); k < 32; k++ {
		kvs = append(kvs, KV{Key: k, Value: []byte(fmt.Sprintf("v-%d", k))})
	}
	if err := s.PutMany(kvs); err != nil {
		t.Fatal(err)
	}
	if st := s.SyncStats(); st.Fsyncs == 0 {
		t.Fatal("PutMany returned without an fsync under group commit")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenShardedDisk(dir, ShardedDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, kv := range kvs {
		if v, err := s2.Get(kv.Key); err != nil || !bytes.Equal(v, kv.Value) {
			t.Fatalf("recovered Get(%d) = (%q,%v), want %q", kv.Key, v, err, kv.Value)
		}
	}
}

// TestShardedDiskGroupCommit checks that group commit is both durable and
// grouped: concurrent writers all become readable after reopen, and the
// fsync count stays well below the write count.
func TestShardedDiskGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDisk(dir, ShardedDiskOptions{SyncLinger: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := uint64(w*per + i)
				if err := s.Put(key, []byte(fmt.Sprintf("v-%d", key))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.SyncStats()
	if st.Fsyncs == 0 {
		t.Fatal("group commit never fsynced")
	}
	if st.Fsyncs >= writers*per {
		t.Fatalf("fsyncs = %d for %d writes: no grouping happened", st.Fsyncs, writers*per)
	}
	if st.FsyncStallNS == 0 {
		t.Fatal("writers never recorded fsync stall time")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenShardedDisk(dir, ShardedDiskOptions{SyncLinger: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != writers*per {
		t.Fatalf("recovered Len = %d, want %d", s2.Len(), writers*per)
	}
	for key := uint64(0); key < writers*per; key++ {
		if v, err := s2.Get(key); err != nil || string(v) != fmt.Sprintf("v-%d", key) {
			t.Fatalf("recovered Get(%d) = (%q,%v)", key, v, err)
		}
	}
}

// TestShardedDiskTornTailDoubleRestart: tear the log's tail in the middle
// of a record that overwrites a key, recover (the key keeps its pre-torn
// version and every other record survives), write more, and restart again
// — the repair must be durable across the second restart.
func TestShardedDiskTornTailDoubleRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDisk(dir, ShardedDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const records = 64
	for k := uint64(0); k < records; k++ {
		if err := s.Put(k, []byte(fmt.Sprintf("v-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the log: a full header claiming 100 value bytes with only 10
	// written. The record overwrites an existing key — recovery must keep
	// the pre-torn version.
	const victim = 2
	f, err := os.OpenFile(logPath(dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 12)
	for i := 0; i < 8; i++ {
		hdr[7-i] = byte(victim >> (8 * i))
	}
	hdr[11] = 100
	if _, err := f.Write(append(hdr, bytes.Repeat([]byte{0xAB}, 10)...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenShardedDisk(dir, ShardedDiskOptions{})
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	if s2.Len() != records {
		t.Fatalf("Len after torn-tail recovery = %d, want %d", s2.Len(), records)
	}
	if v, err := s2.Get(victim); err != nil || string(v) != fmt.Sprintf("v-%d", victim) {
		t.Fatalf("Get(%d) = (%q,%v), want the pre-torn version", victim, v, err)
	}
	if err := s2.Put(records, []byte("after-repair")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second restart: the truncated log plus the new record must recover
	// cleanly — the tail repair is durable, not a one-shot in-memory fix.
	s3, err := OpenShardedDisk(dir, ShardedDiskOptions{})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer s3.Close()
	if s3.Len() != records+1 {
		t.Fatalf("Len after second recovery = %d, want %d", s3.Len(), records+1)
	}
	for k := uint64(0); k < records; k++ {
		if v, err := s3.Get(k); err != nil || string(v) != fmt.Sprintf("v-%d", k) {
			t.Fatalf("Get(%d) = (%q,%v)", k, v, err)
		}
	}
	if v, err := s3.Get(records); err != nil || string(v) != "after-repair" {
		t.Fatalf("Get(%d) = (%q,%v)", records, v, err)
	}
}

// TestLayoutSurvivesExecShards is the upgrade path to one log per store.
// Whatever -execute-shards a restart names, and whatever log count a caller
// passes, a store is its one log, shard-000.log:
//
//   - this-build: a directory OpenBackend made at ExecShards 2 holds that
//     log and nothing else, and reopens at 4 and at 1 with every key,
//     taking writes.
//   - one-log-from-an-earlier-build: the layout earlier builds left on one
//     log — a SHARDS file reading 1 beside shard-000.log, built here by
//     hand — opens with every record, with a count passed (2, as the
//     benchmark's store probe passes) and without, and the SHARDS file
//     stays as it was.
//   - two-logs-from-an-earlier-build: a directory holding shard-000.log and
//     shard-001.log is refused, with an error naming two logs, and every
//     byte of it stays as it was: logs are not merged.
func TestLayoutSurvivesExecShards(t *testing.T) {
	const keys = 64
	value := func(k uint64) string { return fmt.Sprintf("v-%d", k) }
	// earlierLog is a log as earlier builds wrote it, holding keys [from, to).
	earlierLog := func(from, to uint64) []byte {
		var kvs []KV
		for k := from; k < to; k++ {
			kvs = append(kvs, KV{Key: k, Value: []byte(value(k))})
		}
		return append(append([]byte(nil), logMagic[:]...), encodeRecords(nil, kvs)...)
	}
	openAt := func(dir string, e int) (Store, error) {
		return OpenBackend(BackendConfig{Backend: "sharded", Dir: dir, ExecShards: e, SyncLinger: 1})
	}
	check := func(t *testing.T, s Store, n uint64) {
		t.Helper()
		if s.Len() != int(n) {
			t.Fatalf("Len = %d, want %d", s.Len(), n)
		}
		for k := uint64(0); k < n; k++ {
			if v, err := s.Get(k); err != nil || string(v) != value(k) {
				t.Fatalf("Get(%d) = (%q,%v)", k, v, err)
			}
		}
	}
	files := func(t *testing.T, dir string) map[string][]byte {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		for _, e := range entries {
			if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	writeFiles := func(t *testing.T, dir string, fs map[string][]byte) {
		t.Helper()
		for name, b := range fs {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("this-build", func(t *testing.T) {
		dir := t.TempDir()
		s, err := openAt(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < keys; k++ {
			if err := s.Put(k, []byte(value(k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for i, e := range []int{4, 1} {
			s, err := openAt(dir, e)
			if err != nil {
				t.Fatalf("reopening at ExecShards %d: %v", e, err)
			}
			check(t, s, keys+uint64(i))
			k := keys + uint64(i)
			if err := s.Put(k, []byte(value(k))); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if fs := files(t, dir); len(fs) != 1 || fs[logName] == nil {
			t.Fatalf("the directory holds %d files, want %s alone", len(fs), logName)
		}
	})

	t.Run("one-log-from-an-earlier-build", func(t *testing.T) {
		dir := t.TempDir()
		writeFiles(t, dir, map[string][]byte{"SHARDS": []byte("1\n"), logName: earlierLog(0, keys)})
		for _, shards := range []int{2, 0} {
			s, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: shards, SyncLinger: 1})
			if err != nil {
				t.Fatalf("opening with Shards %d: %v", shards, err)
			}
			check(t, s, keys)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if fs := files(t, dir); len(fs) != 2 || string(fs["SHARDS"]) != "1\n" {
			t.Fatalf("the directory holds %d files, SHARDS reading %q: want the log and SHARDS as it was", len(fs), fs["SHARDS"])
		}
	})

	t.Run("two-logs-from-an-earlier-build", func(t *testing.T) {
		dir := t.TempDir()
		before := map[string][]byte{
			"SHARDS":        []byte("2\n"),
			logName:         earlierLog(0, keys/2),
			"shard-001.log": earlierLog(keys/2, keys),
		}
		writeFiles(t, dir, before)
		for _, e := range []int{2, 1} {
			if s, err := openAt(dir, e); err == nil {
				s.Close()
				t.Fatalf("a directory of two logs opened at ExecShards %d", e)
			} else if !strings.Contains(err.Error(), "2 append logs") {
				t.Fatalf("the refusal does not say how many logs it found: %v", err)
			}
		}
		after := files(t, dir)
		if len(after) != len(before) {
			t.Fatalf("the refused directory holds %d files, had %d", len(after), len(before))
		}
		for name, b := range before {
			if !bytes.Equal(after[name], b) {
				t.Fatalf("refusing the directory changed %s", name)
			}
		}
	})
}

// TestShardedDiskMetaPinsShardCount: a directory's log count is pinned at
// one. A count passed at create or at reopen neither picks the layout nor is
// checked against it, and no SHARDS meta file is written to pin it.
func TestShardedDiskMetaPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	s := openSharded(t, dir, ShardedDiskOptions{Shards: 4})
	if err := s.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{8, 0} {
		s := openSharded(t, dir, ShardedDiskOptions{Shards: shards})
		if v, err := s.Get(1); err != nil || string(v) != "one" {
			t.Fatalf("Shards %d: Get(1) = (%q,%v)", shards, v, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != logName {
		t.Fatalf("the directory holds %d entries, want %s alone", len(entries), logName)
	}
}

// TestOpenBackendOneLog: the log count is the store's business, not the
// execute stage's. However many execution shards a deployment names, a
// fresh directory OpenBackend makes holds one log: a committed batch touches
// every execution shard's partition and must wait for one fsync, not one per
// shard.
func TestOpenBackendOneLog(t *testing.T) {
	for _, e := range []int{1, 2, 4} {
		dir := t.TempDir()
		st, err := OpenBackend(BackendConfig{Backend: "sharded", Dir: dir, ExecShards: e})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 16; k++ {
			if err := st.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != logName {
			t.Errorf("ExecShards %d left %d entries, want %s alone", e, len(entries), logName)
		}
	}
}

// TestShardedDiskConcurrentPartitions is the execution-shard contract
// against the durable store: key-disjoint partitions applied concurrently
// through PutMany must land exactly as if applied serially.
func TestShardedDiskConcurrentPartitions(t *testing.T) {
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{SyncLinger: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const parts, per = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		kvs := make([]KV, per)
		for i := range kvs {
			key := uint64(p + i*parts) // disjoint: key % parts == p
			kvs[i] = KV{Key: key, Value: []byte(fmt.Sprintf("v-%d", key))}
		}
		wg.Add(1)
		go func(kvs []KV) {
			defer wg.Done()
			if err := s.PutMany(kvs); err != nil {
				t.Error(err)
			}
		}(kvs)
	}
	wg.Wait()
	if s.Len() != parts*per {
		t.Fatalf("Len = %d, want %d", s.Len(), parts*per)
	}
}
