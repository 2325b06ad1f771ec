package store

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// heldFsync is an fsync hook a test can hold the committer with: every
// call announces itself on entered and then waits for letGo before the real
// fsync.
type heldFsync struct {
	entered, release chan struct{}
	once             sync.Once
}

func newHeldFsync() *heldFsync {
	// entered is sized past any number of fsyncs a test here causes, so the
	// hook never blocks on a test that stopped listening.
	return &heldFsync{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (h *heldFsync) letGo() { h.once.Do(func() { close(h.release) }) }

func (h *heldFsync) sync(f *os.File) error {
	h.entered <- struct{}{}
	<-h.release
	return f.Sync()
}

// openHeld opens a durable one-shard store whose committer is parked inside
// the fsync for one append to primeKey, which is how it stays until the
// test calls letGo: whatever the test appends meanwhile is visible and not
// durable, and forms the next group.
func openHeld(t *testing.T, dir string, readIndex bool) (*ShardedDiskStore, *heldFsync) {
	t.Helper()
	h := newHeldFsync()
	s, err := openShardedDisk(dir, ShardedDiskOptions{Shards: 1, SyncLinger: 1, ReadIndex: readIndex}, h.sync)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.letGo()
		s.Close()
	})
	if _, err := s.Append([]KV{{Key: primeKey, Value: []byte("prime")}}, Ticket{}); err != nil {
		t.Fatal(err)
	}
	<-h.entered
	return s, h
}

// primeKey is far above every key the tests below write or scan.
const primeKey = 1 << 40

// slowFsync is an fsync hook that takes at least d: long enough for writers
// to pile up behind it whatever the disk under the test is.
func slowFsync(d time.Duration) func(*os.File) error {
	return func(f *os.File) error {
		time.Sleep(d)
		return f.Sync()
	}
}

// streamPuts starts writers goroutines that each Put one fresh key after
// another for d, and returns a function that waits for them and reports how
// many Puts returned.
func streamPuts(t *testing.T, s Store, writers uint64, d time.Duration) (wait func() uint64) {
	var puts atomic.Uint64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := uint64(0); w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for k := w << 32; time.Since(t0) < d; k++ {
				if err := s.Put(k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				puts.Add(1)
			}
		}(w)
	}
	return func() uint64 {
		wg.Wait()
		return puts.Load()
	}
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

// awaitCompactor returns once a compaction is waiting for the shard's
// in-flight fsync to end.
func awaitCompactor(sh *diskLogShard) {
	for waiting := 0; waiting == 0; time.Sleep(time.Millisecond) {
		sh.mu.Lock()
		waiting = sh.compactors
		sh.mu.Unlock()
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
// without the read index, while no fsync has completed yet; N appends that
// land during one fsync and one wait on the last ticket cost exactly one
// more; and every earlier ticket is then covered, so waiting on it neither
// blocks nor syncs.
func TestAppendVisibleThenDurable(t *testing.T) {
	for _, readIndex := range []bool{false, true} {
		t.Run(fmt.Sprintf("readindex=%v", readIndex), func(t *testing.T) {
			s, held := openHeld(t, t.TempDir(), readIndex)
			const n = 5
			var tickets []Ticket
			var ticket Ticket
			var err error
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
			if got := s.SyncStats().Fsyncs; got != 0 {
				t.Fatalf("%d fsyncs completed while the committer was held in its first", got)
			}

			held.letGo()
			if err := s.WaitDurable(ticket); err != nil {
				t.Fatal(err)
			}
			after := s.SyncStats()
			if after.Fsyncs != 2 {
				t.Fatalf("%d appends during one fsync and one wait cost %d fsyncs, want the held one and exactly 1 more", n, after.Fsyncs)
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
// refuses to pretend, and says why in the log once, not per refusal.
func TestAppendStickySyncError(t *testing.T) {
	logs := captureLogs(t)
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 1, SyncLinger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	// Closing the log under the shard lock right after the append makes the
	// committer's fsync fail.
	sh.mu.Lock()
	if _, err := sh.appendLocked([]KV{{Key: 1, Value: []byte("doomed")}}); err != nil {
		t.Fatal(err)
	}
	sh.f.Close()
	sh.arm()
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
	if out := logs.String(); strings.Count(out, "level=ERROR") != 1 || !strings.Contains(out, "shard=0") || !strings.Contains(out, sh.path) {
		t.Fatalf("a shard going sticky, then refusing twice, logged:\n%s", out)
	}
}

// TestAppendErrorLeavesGetAndScanAgreeing: when a partition spans shards and
// a later shard refuses it (a sticky fsync error), the groups that did land
// are readable by Get, so Scan must see their keys too — not only after a
// restart rebuilds the ordered sidecar.
func TestAppendErrorLeavesGetAndScanAgreeing(t *testing.T) {
	captureLogs(t)
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 2, SyncLinger: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Shard 1 goes sticky the way TestAppendStickySyncError's does.
	doomed := keyInShard(0, 1, 2)
	sh := s.shards[1]
	sh.mu.Lock()
	if _, err := sh.appendLocked([]KV{{Key: doomed, Value: []byte("doomed")}}); err != nil {
		t.Fatal(err)
	}
	sh.f.Close()
	sh.arm()
	sh.mu.Unlock()
	if err := s.WaitDurable(Ticket{shard: 1, seq: 1}); err == nil {
		t.Fatal("WaitDurable on a shard whose log is closed succeeded")
	}

	landed, refused := keyInShard(doomed+1, 0, 2), keyInShard(doomed+1, 1, 2)
	if _, err := s.Append([]KV{{Key: landed, Value: []byte("landed")}, {Key: refused, Value: []byte("refused")}}, Ticket{}); err == nil {
		t.Fatal("Append over a healthy and a sticky shard succeeded")
	}
	if v, err := s.Get(landed); err != nil || string(v) != "landed" {
		t.Fatalf("Get(%d) on the healthy shard = (%q,%v)", landed, v, err)
	}
	var scanned []uint64
	if err := s.Scan(landed, landed, func(k uint64, _ []byte) bool {
		scanned = append(scanned, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != 1 {
		t.Fatalf("Scan over key %d, which Get returns, visited %v", landed, scanned)
	}
}

// TestAppendWaitersReleasedByCloseAndCompact: a waiter parked behind a
// committer that is held inside an earlier fsync is released by the two
// other events that make its writes durable — Close's final fsync and a
// completed compaction rewrite — with no error, and counted as the one
// covering fsync. The compaction is deterministic: the committer starts no
// fsync while a rewrite waits for the shard. Close races the committer for
// the last group, and either of them syncs it once.
func TestAppendWaitersReleasedByCloseAndCompact(t *testing.T) {
	for _, name := range []string{"close", "compact"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, held := openHeld(t, dir, false)
			sh := s.shards[0]
			ticket, err := s.Append([]KV{{Key: 9, Value: []byte("nine")}}, Ticket{})
			if err != nil {
				t.Fatal(err)
			}
			waited := make(chan error, 1)
			go func() { waited <- s.WaitDurable(ticket) }()
			select {
			case err := <-waited:
				t.Fatalf("WaitDurable returned %v with the only fsync so far held", err)
			case <-time.After(20 * time.Millisecond):
			}
			released := make(chan error, 1)
			if name == "close" {
				go func() { released <- s.Close() }()
				<-s.stop
			} else {
				go func() { released <- s.Compact() }()
				awaitCompactor(sh)
			}
			held.letGo()
			if err := <-released; err != nil {
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
			if got := s.SyncStats().Fsyncs; got != 2 {
				t.Fatalf("Fsyncs = %d, want the held one and the one covering sync", got)
			}
			if name == "compact" {
				if synced, appended := sh.progress(); synced != appended || len(held.entered) != 0 {
					t.Fatalf("synced %d of %d appends, %d more committer fsyncs: the rewrite was not the covering commit", synced, appended, len(held.entered))
				}
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

// TestLonePutSyncsAtOnce: nothing stands between a lone write and its
// fsync, neither on a fresh shard nor on one that synced a moment ago — each
// Put returns after exactly one fsync, whatever the magnitude of SyncLinger.
func TestLonePutSyncsAtOnce(t *testing.T) {
	const fsyncTakes = 5 * time.Millisecond
	s, err := openShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 1, SyncLinger: time.Hour}, slowFsync(fsyncTakes))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint64(1); i <= 3; i++ {
		t0 := time.Now()
		if err := s.Put(i, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(t0); took > time.Second {
			t.Fatalf("lone Put %d took %v with a %v fsync: something else stood in front of it", i, took, fsyncTakes)
		}
		if got := s.SyncStats().Fsyncs; got != i {
			t.Fatalf("Fsyncs = %d after %d lone Puts, want one each", got, i)
		}
	}
}

// TestGroupCommitFormsItsOwnGroups is natural group commit under load: with
// an fsync that takes 5 ms and 8 writers on one shard, the writers that
// append during one fsync share the next, so durable puts outnumber fsyncs;
// no fsync starts with nothing to cover; and while a waiter is parked the
// committer goes from one fsync straight into the next — the gap between
// them is scheduling, not a timer.
func TestGroupCommitFormsItsOwnGroups(t *testing.T) {
	const (
		fsyncTakes = 5 * time.Millisecond
		stream     = 200 * time.Millisecond
		writers    = 8
	)
	// The hook's state is the committer's alone until Close has waited
	// for it. lastEnd is when the previous fsync ended, if it left a waiter
	// parked.
	var s *ShardedDiskStore
	var empty int
	var lastEnd time.Time
	var gaps []time.Duration
	slow := func(f *os.File) error {
		start := time.Now()
		synced, target := s.shards[0].progress()
		if target == synced {
			empty++
		}
		if !lastEnd.IsZero() {
			gaps = append(gaps, start.Sub(lastEnd))
		}
		err := slowFsync(fsyncTakes)(f)
		// Every writer is a Put, append then wait: an append this fsync
		// does not cover has a waiter parked behind the next.
		lastEnd = time.Time{}
		if _, appended := s.shards[0].progress(); appended > target {
			lastEnd = time.Now()
		}
		return err
	}
	s, err := openShardedDisk(t.TempDir(), ShardedDiskOptions{Shards: 1, SyncLinger: time.Hour}, slow)
	if err != nil {
		t.Fatal(err)
	}
	puts := streamPuts(t, s, writers, stream)()
	s.Close() // the committer is gone: the hook's state is ours to read
	fsyncs := s.SyncStats().Fsyncs
	if fsyncs < 2 || puts <= fsyncs {
		t.Fatalf("%d durable puts over %d fsyncs: the writers shared none", puts, fsyncs)
	}
	if empty != 0 {
		t.Fatalf("%d of %d fsyncs started with nothing appended since the last", empty, fsyncs)
	}
	if len(gaps) < 2 {
		t.Fatalf("%d fsyncs followed one that left a waiter parked: the stream never kept the committer busy", len(gaps))
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	median := gaps[len(gaps)/2]
	t.Logf("%d puts, %d fsyncs, %d back-to-back gaps: median %v, max %v", puts, fsyncs, len(gaps), median, gaps[len(gaps)-1])
	if median > time.Millisecond {
		t.Fatalf("median gap between an fsync and the next with a waiter parked = %v (max %v): the committer waited for something", median, gaps[len(gaps)-1])
	}
}
