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

// TestShardedDiskConformance runs the Store contract against the sharded
// store in both durability modes.
func TestShardedDiskConformance(t *testing.T) {
	for name, durable := range map[string]time.Duration{"nosync": 0, "groupcommit": 100 * time.Microsecond} {
		t.Run(name, func(t *testing.T) {
			s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 4, SyncLinger: durable})
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

// TestShardedDiskPutMany covers both PutMany paths: a partition aligned
// to one shard and a mixed partition spanning all of them, with in-order
// last-write-wins per key.
func TestShardedDiskPutMany(t *testing.T) {
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Aligned: every key in shard 0 (keys ≥ 1000, disjoint from the mixed
	// batch below).
	var aligned []KV
	for k := uint64(1000); len(aligned) < 8; k++ {
		if ShardOf(k, 4) == 0 {
			aligned = append(aligned, KV{Key: k, Value: []byte(fmt.Sprintf("a-%d", k))})
		}
	}
	if err := s.PutMany(aligned); err != nil {
		t.Fatal(err)
	}
	// Mixed, with a same-key overwrite later in the batch.
	mixed := []KV{{1, []byte("one")}, {2, []byte("two")}, {3, []byte("three")}, {1, []byte("one-v2")}}
	if err := s.PutMany(mixed); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get(1); err != nil || string(v) != "one-v2" {
		t.Fatalf("Get(1) = (%q,%v), want in-order last write", v, err)
	}
	for _, kv := range aligned {
		if v, err := s.Get(kv.Key); err != nil || !bytes.Equal(v, kv.Value) {
			t.Fatalf("Get(%d) = (%q,%v), want %q", kv.Key, v, err, kv.Value)
		}
	}
	if err := s.PutMany(nil); err != nil {
		t.Fatalf("PutMany(nil) = %v", err)
	}
}

// TestShardedDiskPutManyMixedGroupCommit drives the mixed-partition path
// under group commit: a batch spanning every shard must append to all of
// them before waiting, become durable, and read back correctly.
func TestShardedDiskPutManyMixedGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: 4, SyncLinger: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var kvs []KV
	covered := map[int]bool{}
	for k := uint64(0); len(covered) < 4 || len(kvs) < 32; k++ {
		covered[ShardOf(k, 4)] = true
		kvs = append(kvs, KV{Key: k, Value: []byte(fmt.Sprintf("v-%d", k))})
	}
	if err := s.PutMany(kvs); err != nil {
		t.Fatal(err)
	}
	if st := s.SyncStats(); st.Fsyncs == 0 {
		t.Fatal("mixed PutMany never fsynced under group commit")
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
	s, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: 4, SyncLinger: 200 * time.Microsecond})
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

	s2, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: 4, SyncLinger: 200 * time.Microsecond})
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

// TestShardedDiskTornTailDoubleRestart is the many-shard companion of the
// single-log torn-tail tests: corrupt one shard's log tail, recover (the
// truncation must not disturb the other shards), write more, and restart
// again — the repair must be durable across the second restart.
func TestShardedDiskTornTailDoubleRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: 4})
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

	// Tear shard 2's log: a full header claiming 100 value bytes with only
	// 10 written. The record names a key that shard 2 owns, overwriting an
	// existing version — recovery must keep the pre-torn version.
	var victim uint64
	for k := uint64(0); k < records; k++ {
		if ShardOf(k, 4) == 2 {
			victim = k
			break
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, "shard-002.log"), os.O_APPEND|os.O_WRONLY, 0)
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

	s2, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: 4})
	if err != nil {
		t.Fatalf("recovery after torn shard tail: %v", err)
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

	// Second restart: the truncated shard plus the new record must recover
	// cleanly — the tail repair is durable, not a one-shot in-memory fix.
	s3, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: 4})
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

// TestShardedDiskMetaPinsShardCount: reopening with a conflicting shard
// count must fail loudly (keys would hash to the wrong logs), and a
// zero-count open must adopt the persisted count.
func TestShardedDiskMetaPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: 8}); err == nil {
		t.Fatal("reopening with a different shard count must fail")
	}
	s2, err := OpenShardedDisk(dir, ShardedDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Shards(); got != 4 {
		t.Fatalf("adopted shard count = %d, want 4", got)
	}
	if v, err := s2.Get(1); err != nil || string(v) != "one" {
		t.Fatalf("Get(1) = (%q,%v)", v, err)
	}
}

// TestOpenBackendOneLog: the log count is the store's business, not the
// execute stage's. However many execution shards a deployment names, a
// store opened without a count gets one log: a committed batch touches every
// execution shard's partition and must wait for one fsync, not one per shard.
func TestOpenBackendOneLog(t *testing.T) {
	for _, e := range []int{1, 2, 4} {
		st, err := OpenBackend(BackendConfig{Backend: "sharded", Dir: t.TempDir(), ExecShards: e})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.(*ShardedDiskStore).Shards(); got != 1 {
			t.Errorf("ExecShards %d opened %d logs, want 1", e, got)
		}
		st.Close()
	}
}

// TestLayoutSurvivesExecShards: a directory keeps the log count it was
// created with — by this build (one) or by an earlier one that followed the
// execution shard count (two here) — when the operator, who never named a
// log count, restarts with another -execute-shards. Every key stays
// readable, the store takes writes, and an adopted count that is not the one
// a fresh directory would get is said once per open.
func TestLayoutSurvivesExecShards(t *testing.T) {
	for name, created := range map[string]int{"this-build": 0, "two-logs-from-an-earlier-build": 2} {
		t.Run(name, func(t *testing.T) {
			logs := captureLogs(t)
			dir := t.TempDir()
			open := func(e int) *ShardedDiskStore {
				t.Helper()
				st, err := OpenBackend(BackendConfig{Backend: "sharded", Dir: dir, ExecShards: e, SyncLinger: 1})
				if err != nil {
					t.Fatalf("opening at ExecShards %d: %v", e, err)
				}
				return st.(*ShardedDiskStore)
			}
			var s *ShardedDiskStore
			if created == 0 {
				s = open(2)
			} else {
				s = openSharded(t, dir, ShardedDiskOptions{Shards: created, SyncLinger: 1})
			}
			want := s.Shards()
			const keys = 64
			for k := uint64(0); k < keys; k++ {
				if err := s.Put(k, []byte(fmt.Sprintf("v-%d", k))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			logs.Reset()
			for i, e := range []int{4, 1} {
				s := open(e)
				if got := s.Shards(); got != want {
					t.Fatalf("reopened at ExecShards %d with %d logs, created with %d", e, got, want)
				}
				for k := uint64(0); k < keys+uint64(i); k++ {
					if v, err := s.Get(k); err != nil || string(v) != fmt.Sprintf("v-%d", k) {
						t.Fatalf("ExecShards %d: Get(%d) = (%q,%v)", e, k, v, err)
					}
				}
				k := keys + uint64(i)
				if err := s.Put(k, []byte(fmt.Sprintf("v-%d", k))); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			wantSaid := 0
			if want != 1 {
				wantSaid = 2 // one per reopen
			}
			if said := strings.Count(logs.String(), fmt.Sprintf("logs=%d", want)); said != wantSaid {
				t.Fatalf("two reopens of a %d-log directory said so %d times, want %d:\n%s", want, said, wantSaid, logs.String())
			}
		})
	}
}

// TestShardedDiskConcurrentPartitions is the execution-shard contract
// against the durable store: key-disjoint partitions applied concurrently
// through PutMany must land exactly as if applied serially.
func TestShardedDiskConcurrentPartitions(t *testing.T) {
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 8, SyncLinger: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const parts, per = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		var kvs []KV
		for key := uint64(0); len(kvs) < per; key++ {
			if ShardOf(key, parts) == p {
				kvs = append(kvs, KV{Key: key, Value: []byte(fmt.Sprintf("v-%d", key))})
			}
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
