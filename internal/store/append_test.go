package store

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A linger far longer than any test step: on a primed shard whatever is
// appended before the first wait falls inside one spacing interval and
// shares the fsync that ends it, or — for the tests that never let the
// interval expire — no further committer fsync happens at all.
const (
	oneWindow  = 100 * time.Millisecond
	neverFires = time.Minute
)

// primeKey is far above every key the tests below write or scan.
const primeKey = 1 << 40

// prime makes one durable append to every shard and returns the fsyncs that
// cost. An idle shard syncs at once, so on a fresh store the linger holds
// nothing back; after priming, every shard's committer has just started an
// fsync and the linger is what stands between it and the next.
func prime(t *testing.T, s *ShardedDiskStore) uint64 {
	t.Helper()
	for i := range s.shards {
		if err := s.Put(keyInShard(primeKey, i, len(s.shards)), []byte("prime")); err != nil {
			t.Fatal(err)
		}
	}
	return s.SyncStats().Fsyncs
}

// keyInShard returns the first key at or after from that ShardOf maps to
// shard.
func keyInShard(from uint64, shard, shards int) uint64 {
	for k := from; ; k++ {
		if ShardOf(k, shards) == shard {
			return k
		}
	}
}

// progress reads a shard's group-commit counters.
func (sh *diskLogShard) progress() (synced, appended uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.synced, sh.appended
}

// TestAppendVisibleThenDurable is the Appender contract on one shard: an
// append is readable by Get and Scan the moment it returns, with and
// without the read index, while no fsync has happened yet; N appends and
// one wait on the last ticket cost exactly one fsync; and every earlier
// ticket is then covered, so waiting on it neither blocks nor syncs.
func TestAppendVisibleThenDurable(t *testing.T) {
	for _, readIndex := range []bool{false, true} {
		t.Run(fmt.Sprintf("readindex=%v", readIndex), func(t *testing.T) {
			s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 1, SyncLinger: oneWindow, ReadIndex: readIndex})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			primed := prime(t, s)
			const n = 5
			var tickets []Ticket
			var ticket Ticket
			for i := uint64(0); i < n; i++ {
				kvs := []KV{
					{Key: 2 * i, Value: []byte(fmt.Sprintf("a-%d", i))},
					{Key: 2*i + 1, Value: []byte(fmt.Sprintf("b-%d", i))},
				}
				if ticket, err = s.Append(kvs, ticket); err != nil {
					t.Fatal(err)
				}
				tickets = append(tickets, ticket)
				if v, err := s.Get(2 * i); err != nil || string(v) != fmt.Sprintf("a-%d", i) {
					t.Fatalf("Get(%d) right after Append = (%q,%v)", 2*i, v, err)
				}
			}
			var rows []string
			if err := s.Scan(0, 2*n, func(k uint64, v []byte) bool {
				rows = append(rows, fmt.Sprintf("%d=%s", k, v))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(rows) != 2*n || rows[0] != "0=a-0" || rows[2*n-1] != fmt.Sprintf("%d=b-%d", 2*n-1, n-1) {
				t.Fatalf("Scan over appended, unsynced writes = %v", rows)
			}
			if got := s.SyncStats().Fsyncs - primed; got != 0 {
				t.Fatalf("%d fsyncs before anyone waited inside the spacing interval", got)
			}

			if err := s.WaitDurable(ticket); err != nil {
				t.Fatal(err)
			}
			after := s.SyncStats()
			if got := after.Fsyncs - primed; got != 1 {
				t.Fatalf("%d appends and one wait cost %d fsyncs, want exactly 1", n, got)
			}
			for i, earlier := range tickets {
				if err := s.WaitDurable(earlier); err != nil {
					t.Fatalf("ticket %d: %v", i, err)
				}
			}
			if again := s.SyncStats(); again != after {
				t.Fatalf("waiting on covered tickets moved the sync stats: %+v then %+v", after, again)
			}
			if err := s.WaitDurable(Ticket{}); err != nil {
				t.Fatalf("zero ticket: %v", err)
			}
		})
	}
}

// TestAppendTicketCoversPrev: the ticket Append returns covers everything
// prev covered, also when prev sits on another shard and when the
// partition itself spans shards — the cases a caller holding only its last
// ticket cannot see. Whatever such a ticket does not cover by position is
// durable before Append returns.
func TestAppendTicketCoversPrev(t *testing.T) {
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 2, SyncLinger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k0, k1 := keyInShard(0, 0, 2), keyInShard(0, 1, 2)
	t0, err := s.Append([]KV{{Key: k0, Value: []byte("zero")}}, Ticket{})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.Append([]KV{{Key: k1, Value: []byte("one")}}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if t1.shard == t0.shard {
		t.Fatalf("tickets %+v and %+v on one shard: the keys were not split", t0, t1)
	}
	if synced, _ := s.shards[t0.shard].progress(); synced < t0.seq {
		t.Fatal("Append moved the ticket to another shard without waiting out prev")
	}
	// A partition over both shards, chained onto t1.
	mixed := []KV{
		{Key: keyInShard(k0+1, 0, 2), Value: []byte("m0")},
		{Key: keyInShard(k1+1, 1, 2), Value: []byte("m1")},
		{Key: keyInShard(k0+100, 0, 2), Value: []byte("m2")},
	}
	t2, err := s.Append(mixed, t1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(t2); err != nil {
		t.Fatal(err)
	}
	for i, sh := range s.shards {
		if synced, appended := sh.progress(); synced != appended {
			t.Fatalf("shard %d: synced %d of %d appends after waiting on the last ticket", i, synced, appended)
		}
	}
	for _, kv := range mixed {
		if v, err := s.Get(kv.Key); err != nil || !bytes.Equal(v, kv.Value) {
			t.Fatalf("Get(%d) = (%q,%v), want %q", kv.Key, v, err, kv.Value)
		}
	}
}

// TestAppendStickySyncError: a failed fsync surfaces through the wait that
// needed it and, sticky, through every later append and wait — the shard
// refuses to pretend.
func TestAppendStickySyncError(t *testing.T) {
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 1, SyncLinger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	// Closing the log under the shard lock right after the append makes the
	// committer's fsync, a linger later, fail.
	sh.mu.Lock()
	if _, err := sh.appendLocked([]KV{{Key: 1, Value: []byte("doomed")}}); err != nil {
		t.Fatal(err)
	}
	sh.f.Close()
	sh.mu.Unlock()
	ticket := Ticket{shard: 0, seq: 1}
	err = s.WaitDurable(ticket)
	if err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("WaitDurable after a failed fsync = %v", err)
	}
	if got, err2 := s.Append([]KV{{Key: 2, Value: []byte("refused")}}, ticket); err2 == nil || err2.Error() != err.Error() || got != ticket {
		t.Fatalf("Append after a failed fsync = (%+v,%v), want (%+v,%v)", got, err2, ticket, err)
	}
	if err2 := s.WaitDurable(ticket); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second WaitDurable = %v, want the sticky %v", err2, err)
	}
	if got := s.SyncStats().Fsyncs; got != 0 {
		t.Fatalf("failed fsyncs counted as durable: %d", got)
	}
}

// TestAppendWaitersReleasedByCloseAndCompact: a waiter parked behind a
// spacing interval that never expires is released by the two other events
// that make its writes durable — Close's final fsync and a completed
// compaction rewrite — each counted as the one covering fsync, with no
// error.
func TestAppendWaitersReleasedByCloseAndCompact(t *testing.T) {
	releasers := map[string]func(*ShardedDiskStore) error{
		"close":   (*ShardedDiskStore).Close,
		"compact": (*ShardedDiskStore).Compact,
	}
	for name, release := range releasers {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenShardedDisk(dir, ShardedDiskOptions{Shards: 1, SyncLinger: neverFires})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			primed := prime(t, s)
			ticket, err := s.Append([]KV{{Key: 9, Value: []byte("nine")}}, Ticket{})
			if err != nil {
				t.Fatal(err)
			}
			waited := make(chan error, 1)
			go func() { waited <- s.WaitDurable(ticket) }()
			select {
			case err := <-waited:
				t.Fatalf("WaitDurable returned %v with no fsync possible yet", err)
			case <-time.After(20 * time.Millisecond):
			}
			if err := release(s); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-waited:
				if err != nil {
					t.Fatalf("released waiter got %v, want nil: its write is durable", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("waiter still parked")
			}
			if got := s.SyncStats().Fsyncs - primed; got != 1 {
				t.Fatalf("Fsyncs = %d after priming, want the one covering sync", got)
			}
			s.Close()
			s2, err := OpenShardedDisk(dir, ShardedDiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if v, err := s2.Get(9); err != nil || string(v) != "nine" {
				t.Fatalf("recovered Get(9) = (%q,%v)", v, err)
			}
		})
	}
}

// TestIdleShardSyncsAtOnce: the linger spaces fsyncs, it does not delay the
// first. On a fresh shard nothing has synced within the last hour, so an
// append's fsync starts at once and its waiter pays one fsync, not an hour
// and one fsync.
func TestIdleShardSyncsAtOnce(t *testing.T) {
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 1, SyncLinger: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ticket, err := s.Append([]KV{{Key: 1, Value: []byte("one")}}, Ticket{})
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- s.WaitDurable(ticket) }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first waiter on an idle shard is still parked: the committer slept before its fsync")
	}
	if got := s.SyncStats().Fsyncs; got != 1 {
		t.Fatalf("Fsyncs = %d, want 1", got)
	}
}

// TestSyncSpacingCapsFsyncs is the promise SyncLinger's docs make: under a
// steady stream of durable writes for T, one shard's committer completes at
// most T/SyncLinger + 1 fsyncs (consecutive fsyncs start at least a linger
// apart, and the first may start at once), and the writers share them.
func TestSyncSpacingCapsFsyncs(t *testing.T) {
	const (
		linger  = 20 * time.Millisecond
		stream  = 300 * time.Millisecond
		writers = 4
	)
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 1, SyncLinger: linger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var puts atomic.Uint64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := uint64(0); w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for k := w << 32; time.Since(t0) < stream; k++ {
				if err := s.Put(k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				puts.Add(1)
			}
		}(w)
	}
	wg.Wait()
	fsyncs := s.SyncStats().Fsyncs
	limit := uint64(time.Since(t0)/linger) + 1
	if fsyncs > limit {
		t.Fatalf("%d fsyncs in %v at SyncLinger %v, want at most %d", fsyncs, time.Since(t0), linger, limit)
	}
	if fsyncs < 2 || puts.Load() <= fsyncs {
		t.Fatalf("%d durable puts over %d fsyncs: the stream never exercised the spacing or shared no fsync", puts.Load(), fsyncs)
	}
}
