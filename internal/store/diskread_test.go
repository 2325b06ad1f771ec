package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The read index these tests are named for is the disk store's table: its
// reads never touch the log.

// openIndexed opens the disk backend.
func openIndexed(t *testing.T, shards int, dir string, durable time.Duration) Store {
	t.Helper()
	return openSharded(t, dir, ShardedDiskOptions{Shards: shards, SyncLinger: durable})
}

// TestReadIndexCorrectness: Get returns the latest applied value across
// overwrites, survives compaction (which rewrites the log but changes no
// values), and a reopen refills the table from the recovered log.
func TestReadIndexCorrectness(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		st := openIndexed(t, shards, dir, 100*time.Microsecond)
		for k := uint64(0); k < 64; k++ {
			if err := st.Put(k, []byte(fmt.Sprintf("v1-%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < 32; k++ {
			if err := st.Put(k, []byte(fmt.Sprintf("v2-%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		check := func(stage string) {
			t.Helper()
			for k := uint64(0); k < 64; k++ {
				want := fmt.Sprintf("v2-%d", k)
				if k >= 32 {
					want = fmt.Sprintf("v1-%d", k)
				}
				v, err := st.Get(k)
				if err != nil {
					t.Fatalf("%s: Get(%d): %v", stage, k, err)
				}
				if !bytes.Equal(v, []byte(want)) {
					t.Fatalf("%s: Get(%d) = %q, want %q", stage, k, v, want)
				}
			}
			if _, err := st.Get(9999); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: Get(missing) = %v, want ErrNotFound", stage, err)
			}
		}
		check("before compaction")
		if err := st.(Compactor).Compact(); err != nil {
			t.Fatal(err)
		}
		check("after compaction")
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st = openIndexed(t, shards, dir, 100*time.Microsecond)
		defer st.Close()
		check("after reopen")
	})
}

// TestReadIndexGetCopies: a caller mutating a returned value must not
// poison the table.
func TestReadIndexGetCopies(t *testing.T) {
	st := openIndexed(t, 4, t.TempDir(), 0)
	defer st.Close()
	if err := st.Put(1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v, err := st.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	v[0] = 'X'
	v2, err := st.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2, []byte("abc")) {
		t.Fatalf("Get aliases the index: %q", v2)
	}
}

// TestReadIndexConcurrentReads is the local-read race check: reader
// goroutines hammer Get — the path the consensus-bypassing read path uses —
// while writers overwrite the same keys and compactions rewrite the log
// underneath. Run under -race (CI does); correctness here means every read
// observes some applied value, never a torn or stale-beyond-applied one.
func TestReadIndexConcurrentReads(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		st := openIndexed(t, shards, t.TempDir(), 0)
		defer st.Close()

		const keys = 32
		// Seed every key so readers never see NotFound.
		for k := uint64(0); k < keys; k++ {
			if err := st.Put(k, versionValue(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				k := uint64(r)
				for {
					select {
					case <-stop:
						return
					default:
					}
					k = (k + 7) % keys
					v, err := st.Get(k)
					if err != nil {
						errs <- fmt.Errorf("Get(%d): %w", k, err)
						return
					}
					if len(v) < 16 || !bytes.Equal(v[:8], versionValue(k, 0)[:8]) {
						errs <- fmt.Errorf("Get(%d) returned torn value %q", k, v)
						return
					}
				}
			}(r)
		}
		// Writer + compactor share the main goroutine: overwrite every
		// key repeatedly with full-log compactions interleaved.
		for round := uint64(1); round <= 50; round++ {
			for k := uint64(0); k < keys; k++ {
				if err := st.Put(k, versionValue(k, round)); err != nil {
					t.Fatal(err)
				}
			}
			if round%10 == 0 {
				if err := st.(Compactor).Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(stop)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	})
}

// TestClosedDiskStoreRefusesReads: a closed store, the disk store opened
// through OpenBackend as every deployment opens it and the MemStore beside
// it, answers Get, AppendValue, AppendKeys and Scan with ErrClosed, not with
// the records it held, and refuses an Append.
func TestClosedDiskStoreRefusesReads(t *testing.T) {
	for _, backend := range []string{"sharded", "mem"} {
		t.Run(backend, func(t *testing.T) {
			st, err := OpenBackend(BackendConfig{Backend: backend, Dir: t.TempDir(), SyncLinger: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(1, []byte("held")); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if v, err := st.Get(1); !errors.Is(err, ErrClosed) {
				t.Fatalf("Get after Close = (%q,%v), want ErrClosed", v, err)
			}
			if v, err := st.AppendValue(nil, 1); !errors.Is(err, ErrClosed) || v != nil {
				t.Fatalf("AppendValue after Close = (%q,%v), want ErrClosed", v, err)
			}
			if keys, err := st.AppendKeys(make([]uint64, 0, 4), 0, 10); !errors.Is(err, ErrClosed) || len(keys) != 0 {
				t.Fatalf("AppendKeys after Close = (%v,%v), want ErrClosed and no keys", keys, err)
			}
			rows := 0
			err = st.Scan(0, 10, func(uint64, []byte) bool { rows++; return true })
			if !errors.Is(err, ErrClosed) || rows != 0 {
				t.Fatalf("Scan after Close = %v after %d rows, want ErrClosed and none", err, rows)
			}
			if _, err := st.Append([]KV{{Key: 2, Value: []byte("late")}}, Ticket{}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Append after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// versionValue builds a value whose first 8 bytes identify the key and the
// rest the version, so a torn read is detectable.
func versionValue(key, version uint64) []byte {
	return []byte(fmt.Sprintf("%08d-version-%08d", key, version))
}
