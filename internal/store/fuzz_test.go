// The recovery fuzz target lives in the external test package because its
// seeds come from the chaos corpus, and chaos imports store.
package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientdb/internal/chaos"
	"resilientdb/internal/store"
)

// snapshot renders every live record of s, in key order.
func snapshot(t *testing.T, s *store.ShardedDiskStore) string {
	t.Helper()
	var b strings.Builder
	err := s.Scan(0, ^uint64(0), func(key uint64, value []byte) bool {
		fmt.Fprintf(&b, "%d=%x ", key, value)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// FuzzLogRecovery hands arbitrary bytes to log recovery as a shard log.
// The open must either refuse the file and leave it exactly as it was, or
// keep a prefix of it: what the first open recovered must be what every
// later open recovers, and the log must take appends.
func FuzzLogRecovery(f *testing.F) {
	const magic = "RDBLOG2\n"
	// A healthy log of three records, one overwritten, as the valid seed.
	seedDir := f.TempDir()
	s, err := store.OpenShardedDisk(seedDir, store.ShardedDiskOptions{Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, kv := range []store.KV{{Key: 1, Value: []byte("one")}, {Key: 2, Value: nil}, {Key: 1, Value: []byte("uno")}} {
		if err := s.Put(kv.Key, kv.Value); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	healthy, err := os.ReadFile(filepath.Join(seedDir, "shard-000.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-2])                      // torn tail
	f.Add(append([]byte("RDBLOG3\n"), healthy[8:]...))   // one bit off in the magic
	f.Add(append(append([]byte{}, healthy...), 0xFF, 0)) // garbage after the last record
	for _, garbage := range append(chaos.MalformedFrames(), chaos.MalformedBodies()...) {
		f.Add(garbage)                                          // as the whole file
		f.Add(append([]byte(magic), garbage...))                // as the records of a log
		f.Add(append(append([]byte{}, healthy...), garbage...)) // as the tail of a healthy one
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "shard-000.log")
		s, err := store.OpenShardedDisk(dir, store.ShardedDiskOptions{Shards: 1}) // lays out SHARDS
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err = store.OpenShardedDisk(dir, store.ShardedDiskOptions{})
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error does not name the log: %v", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("refused log was modified: %x, was %x", after, data)
			}
			if len(data) >= len(magic) && string(data[:len(magic)]) == magic {
				t.Fatalf("a log with an intact header was refused: %v", err)
			}
			return
		}
		first := snapshot(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(repaired, []byte(magic)) || (len(data) >= len(magic) && !bytes.HasPrefix(data, repaired)) {
			t.Fatalf("recovery left %x of %x: not a header plus a prefix of the input", repaired, data)
		}

		s, err = store.OpenShardedDisk(dir, store.ShardedDiskOptions{})
		if err != nil {
			t.Fatalf("repaired log does not reopen: %v", err)
		}
		if again := snapshot(t, s); again != first {
			t.Fatalf("reopen sees %q, first open saw %q", again, first)
		}
		if err := s.Put(99, []byte("after")); err != nil {
			t.Fatal(err)
		}
		want := snapshot(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = store.OpenShardedDisk(dir, store.ShardedDiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := snapshot(t, s); got != want {
			t.Fatalf("after an append and a reopen the log holds %q, want %q", got, want)
		}
	})
}
