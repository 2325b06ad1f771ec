// The recovery fuzz target lives in the external test package because its
// seeds come from the chaos corpus, and chaos imports store.
package store_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientdb/internal/chaos"
	"resilientdb/internal/store"
)

const magic = "RDBLOG2\n"

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

// The test's own reading of the log format (see format.go), so that what
// recovery keeps is checked against something other than recovery.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func recordSum(hdr, value []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:12], castagnoli), castagnoli, value)
}

// record encodes one log record.
func record(key uint64, value []byte) []byte {
	rec := make([]byte, 16, 16+len(value))
	binary.BigEndian.PutUint64(rec, key)
	binary.BigEndian.PutUint32(rec[8:], uint32(len(value)))
	binary.BigEndian.PutUint32(rec[12:], recordSum(rec, value))
	return append(rec, value...)
}

// validPrefix is the length of the header plus every record up to the first
// one that is cut short or fails its checksum. Recovery must keep exactly this
// much of a log, whatever follows — zeros, garbage, or records that would
// verify if the scan skipped ahead to them.
func validPrefix(log []byte) int {
	at := 8
	for at+16 <= len(log) {
		end := at + 16 + int(binary.BigEndian.Uint32(log[at+8:]))
		if end > len(log) || recordSum(log[at:], log[at+16:end]) != binary.BigEndian.Uint32(log[at+12:]) {
			break
		}
		at = end
	}
	return at
}

// FuzzLogRecovery hands arbitrary bytes to log recovery as a shard log.
// The open must either refuse the file and leave it exactly as it was, or
// keep its valid prefix: what the first open recovered must be what every
// later open recovers, and the log must take appends.
func FuzzLogRecovery(f *testing.F) {
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
	// What pre-extension leaves: a zero tail, and zeros with a record that
	// verifies behind them, which must stay behind them.
	zeros := make([]byte, 4096)
	f.Add(append(append([]byte{}, healthy...), zeros...))
	f.Add(append(append(append([]byte{}, healthy...), zeros[:64]...), healthy[8:]...))
	for _, garbage := range append(chaos.MalformedFrames(), chaos.MalformedBodies()...) {
		f.Add(garbage)                                          // as the whole file
		f.Add(append([]byte(magic), garbage...))                // as the records of a log
		f.Add(append(append([]byte{}, healthy...), garbage...)) // as the tail of a healthy one
	}

	f.Fuzz(checkLogRecovery)
}

// TestLogRecoveryAtAChunkBoundary runs the fuzz target's checks over a log
// whose last record ends exactly where a 256 KiB chunk does, bare and with a
// zero tail. A test and not a seed: with one input of that size in the corpus
// the engine gets through a fourteenth of the executions.
func TestLogRecoveryAtAChunkBoundary(t *testing.T) {
	const chunk = 256 << 10 // the store's logChunk
	log := append([]byte(magic), record(1, []byte("one"))...)
	log = append(log, record(7, make([]byte, chunk-len(log)-16))...)
	if len(log) != chunk || validPrefix(log) != chunk {
		t.Fatalf("the log is %d bytes, %d of them valid, want %d", len(log), validPrefix(log), chunk)
	}
	checkLogRecovery(t, log)
	checkLogRecovery(t, append(log, make([]byte, 64)...))
}

// checkLogRecovery is FuzzLogRecovery's body.
func checkLogRecovery(t *testing.T, data []byte) {
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
	if !bytes.HasPrefix(repaired, []byte(magic)) || (len(data) >= len(magic) && !bytes.Equal(repaired, data[:validPrefix(data)])) {
		t.Fatalf("recovery left %d bytes of %d: not the header plus the valid prefix of the input (%d)", len(repaired), len(data), validPrefix(data))
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
}
