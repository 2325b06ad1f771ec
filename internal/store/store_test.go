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
)

// shardCounts are the shapes every single-log test of the disk backend
// runs at: one shard, which is what the serial store was, and four.
var shardCounts = []int{1, 4}

// forEachShardCount runs test once per entry of shardCounts, as a subtest.
func forEachShardCount(t *testing.T, test func(t *testing.T, shards int)) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) { test(t, shards) })
	}
}

// openSharded opens (or reopens) the sharded store under dir.
func openSharded(t testing.TB, dir string, opts ShardedDiskOptions) *ShardedDiskStore {
	t.Helper()
	s, err := OpenShardedDisk(dir, opts)
	if err != nil {
		t.Fatalf("OpenShardedDisk: %v", err)
	}
	return s
}

// shardLog is the path of the log that owns key in a store of shards logs.
func shardLog(dir string, key uint64, shards int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.log", ShardOf(key, shards)))
}

// keysOnShardOf returns the first n keys living in the same log as key.
func keysOnShardOf(key uint64, shards, n int) []uint64 {
	var keys []uint64
	for k := key; len(keys) < n; k++ {
		if ShardOf(k, shards) == ShardOf(key, shards) {
			keys = append(keys, k)
		}
	}
	return keys
}

// stores builds one of each Store implementation for shared conformance
// tests.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	out := map[string]Store{"mem": NewMemStore(100)}
	for _, shards := range shardCounts {
		out[fmt.Sprintf("sharded-%d", shards)] = openSharded(t, t.TempDir(), ShardedDiskOptions{Shards: shards})
	}
	return out
}

func TestStoreConformance(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if _, err := s.Get(1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on empty = %v, want ErrNotFound", err)
			}
			if err := s.Put(1, []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(2, []byte("two")); err != nil {
				t.Fatal(err)
			}
			v, err := s.Get(1)
			if err != nil || string(v) != "one" {
				t.Fatalf("Get(1) = (%q,%v)", v, err)
			}
			// Overwrite.
			if err := s.Put(1, []byte("uno")); err != nil {
				t.Fatal(err)
			}
			v, err = s.Get(1)
			if err != nil || string(v) != "uno" {
				t.Fatalf("Get(1) after overwrite = (%q,%v)", v, err)
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d, want 2", s.Len())
			}
			// Empty value round-trips.
			if err := s.Put(3, nil); err != nil {
				t.Fatal(err)
			}
			v, err = s.Get(3)
			if err != nil || len(v) != 0 {
				t.Fatalf("Get(3) = (%q,%v)", v, err)
			}
		})
	}
}

func TestStoreClosedErrors(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
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

func TestStoreValueIsolation(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			src := []byte("mutable")
			if err := s.Put(1, src); err != nil {
				t.Fatal(err)
			}
			src[0] = 'X' // caller mutates its buffer after Put
			v, err := s.Get(1)
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != "mutable" {
				t.Fatalf("store aliased caller buffer: %q", v)
			}
			v[0] = 'Y' // caller mutates the returned buffer
			v2, _ := s.Get(1)
			if string(v2) != "mutable" {
				t.Fatalf("store returned aliased buffer: %q", v2)
			}
		})
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore(1000)
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := uint64(w*2000 + i)
				val := []byte(fmt.Sprintf("v-%d", key))
				if err := s.Put(key, val); err != nil {
					t.Error(err)
					return
				}
				got, err := s.Get(key)
				if err != nil || !bytes.Equal(got, val) {
					t.Errorf("Get(%d) = (%q,%v)", key, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 16000 {
		t.Fatalf("Len = %d, want 16000", s.Len())
	}
}

func TestMemStorePutMany(t *testing.T) {
	s := NewMemStore(100)
	defer s.Close()
	src := []byte("batched")
	kvs := []KV{{1, src}, {2, []byte("two")}, {1, []byte("one-v2")}}
	if err := s.PutMany(kvs); err != nil {
		t.Fatal(err)
	}
	src[0] = 'X' // batched writes must copy, like Put
	if v, err := s.Get(1); err != nil || string(v) != "one-v2" {
		t.Fatalf("Get(1) = (%q,%v), want in-order last write", v, err)
	}
	if v, err := s.Get(2); err != nil || string(v) != "two" {
		t.Fatalf("Get(2) = (%q,%v)", v, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMany(kvs); !errors.Is(err, ErrClosed) {
		t.Fatalf("PutMany after close = %v, want ErrClosed", err)
	}
}

// TestMemStorePutManyConcurrentPartitions is the execution-shard contract:
// key-disjoint partitions applied concurrently must land exactly as if
// applied serially.
func TestMemStorePutManyConcurrentPartitions(t *testing.T) {
	s := NewMemStore(1000)
	defer s.Close()
	const parts, per = 8, 500
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
	for key := uint64(0); key < parts*per; key++ {
		v, err := s.Get(key)
		if err != nil || string(v) != fmt.Sprintf("v-%d", key) {
			t.Fatalf("Get(%d) = (%q,%v)", key, v, err)
		}
	}
}

// TestOpenBackendRejectsDisk: the serial "disk" backend is gone, and asking
// for it must say what replaces it.
func TestOpenBackendRejectsDisk(t *testing.T) {
	_, err := OpenBackend(BackendConfig{Backend: "disk", Dir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "sharded -store-shards 1") {
		t.Fatalf("OpenBackend(disk) = %v, want an error naming sharded -store-shards 1", err)
	}
}

func TestDiskStoreRecovery(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		s := openSharded(t, dir, ShardedDiskOptions{Shards: shards})
		for i := uint64(0); i < 100; i++ {
			if err := s.Put(i, []byte(fmt.Sprintf("value-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// Overwrite some keys so recovery must keep only the latest version.
		if err := s.Put(7, []byte("seven-v2")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2 := openSharded(t, dir, ShardedDiskOptions{})
		defer s2.Close()
		if s2.Len() != 100 {
			t.Fatalf("recovered Len = %d, want 100", s2.Len())
		}
		v, err := s2.Get(7)
		if err != nil || string(v) != "seven-v2" {
			t.Fatalf("recovered Get(7) = (%q,%v)", v, err)
		}
		v, err = s2.Get(42)
		if err != nil || string(v) != "value-42" {
			t.Fatalf("recovered Get(42) = (%q,%v)", v, err)
		}
	})
}

// appendRaw appends raw bytes to the log owning key, as a crash mid-write
// would leave them.
func appendRaw(t *testing.T, dir string, key uint64, shards int, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(shardLog(dir, key, shards), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreTornWriteRecovery(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		s := openSharded(t, dir, ShardedDiskOptions{Shards: shards})
		if err := s.Put(1, []byte("complete")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		intact, err := os.Stat(shardLog(dir, 1, shards))
		if err != nil {
			t.Fatal(err)
		}
		// Simulate a torn write: append half a record header.
		appendRaw(t, dir, 1, shards, []byte{0, 0, 0, 0, 0, 0, 0, 9, 0, 0})

		s2, err := OpenShardedDisk(dir, ShardedDiskOptions{})
		if err != nil {
			t.Fatalf("recovery after torn write: %v", err)
		}
		defer s2.Close()
		// Open itself cuts the torn header off: the log on disk is its valid
		// prefix before anything is appended to it.
		if fi, err := os.Stat(shardLog(dir, 1, shards)); err != nil || fi.Size() != intact.Size() {
			t.Fatalf("log is %d bytes after recovery (err %v), want the %d-byte valid prefix", fi.Size(), err, intact.Size())
		}
		if s2.Len() != 1 {
			t.Fatalf("Len = %d, want 1", s2.Len())
		}
		v, err := s2.Get(1)
		if err != nil || string(v) != "complete" {
			t.Fatalf("Get(1) = (%q,%v)", v, err)
		}
		// The store must be writable again after truncating the torn tail,
		// in the log that was torn.
		after := keysOnShardOf(1, shards, 2)[1]
		if err := s2.Put(after, []byte("after")); err != nil {
			t.Fatal(err)
		}
		v, err = s2.Get(after)
		if err != nil || string(v) != "after" {
			t.Fatalf("Get(%d) = (%q,%v)", after, v, err)
		}
	})
}

// TestDiskStoreTornValueRecovery covers the other torn-write shape: a
// complete record header whose value bytes were only partially written.
// Recovery must discard the tail record — keeping the key's previous
// version — and the truncation must survive further restarts.
func TestDiskStoreTornValueRecovery(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		s := openSharded(t, dir, ShardedDiskOptions{Shards: shards})
		// Three keys of one log: the torn record and the post-repair write
		// land where the intact versions live.
		same := keysOnShardOf(1, shards, 3)
		if err := s.Put(same[0], []byte("one-v1")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(same[1], []byte("two")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Torn value for key 1: the header claims 100 bytes, only 20 landed.
		hdr := make([]byte, recHdr)
		hdr[7] = 1    // key 1, big-endian
		hdr[11] = 100 // value length 100
		appendRaw(t, dir, 1, shards, append(hdr, bytes.Repeat([]byte{0xAB}, 20)...))

		s2, err := OpenShardedDisk(dir, ShardedDiskOptions{})
		if err != nil {
			t.Fatalf("recovery after torn value: %v", err)
		}
		if s2.Len() != 2 {
			t.Fatalf("Len = %d, want 2", s2.Len())
		}
		// The torn overwrite must not shadow the intact earlier version.
		if v, err := s2.Get(1); err != nil || string(v) != "one-v1" {
			t.Fatalf("Get(1) = (%q,%v), want the pre-torn version", v, err)
		}
		if err := s2.Put(same[2], []byte("three")); err != nil {
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
		if s3.Len() != 3 {
			t.Fatalf("Len after second recovery = %d, want 3", s3.Len())
		}
		for key, want := range map[uint64]string{same[0]: "one-v1", same[1]: "two", same[2]: "three"} {
			if v, err := s3.Get(key); err != nil || string(v) != want {
				t.Fatalf("Get(%d) = (%q,%v), want %q", key, v, err, want)
			}
		}
	})
}

// ---- Calibration benchmarks for the Section 5.7 storage experiment. ----

func BenchmarkMemStorePut(b *testing.B) {
	s := NewMemStore(b.N)
	defer s.Close()
	val := bytes.Repeat([]byte{0x11}, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(uint64(i%600000), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskStorePut(b *testing.B) {
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s := openSharded(b, b.TempDir(), ShardedDiskOptions{Shards: shards})
			defer s.Close()
			val := bytes.Repeat([]byte{0x11}, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(uint64(i%600000), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMemStoreGet(b *testing.B) {
	s := NewMemStore(1000)
	defer s.Close()
	val := bytes.Repeat([]byte{0x11}, 100)
	for i := uint64(0); i < 1000; i++ {
		if err := s.Put(i, val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(uint64(i % 1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskStoreGet(b *testing.B) {
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s := openSharded(b, b.TempDir(), ShardedDiskOptions{Shards: shards})
			defer s.Close()
			val := bytes.Repeat([]byte{0x11}, 100)
			for i := uint64(0); i < 1000; i++ {
				if err := s.Put(i, val); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get(uint64(i % 1000)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
