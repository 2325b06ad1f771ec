package store

import (
	"errors"
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

// openHeld opens a durable store whose committer is parked inside
// the fsync for one append to primeKey, which is how it stays until the
// test calls letGo: whatever the test appends meanwhile is visible and not
// durable, and forms the next group.
func openHeld(t *testing.T, dir string) (*ShardedDiskStore, *heldFsync) {
	t.Helper()
	return openHeldWith(t, dir, ShardedDiskOptions{})
}

// openHeldWith is openHeld with the caller's options; SyncLinger is set to 1.
func openHeldWith(t *testing.T, dir string, opts ShardedDiskOptions) (*ShardedDiskStore, *heldFsync) {
	t.Helper()
	h := newHeldFsync()
	opts.SyncLinger = 1
	s, err := openShardedDisk(dir, opts, h.sync)
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

// awaitCompactor returns once a compaction is waiting for the in-flight
// fsync to end.
func awaitCompactor(s *ShardedDiskStore) {
	for waiting := 0; waiting == 0; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		waiting = s.compactors
		s.mu.Unlock()
	}
}

// progress reads the group-commit counters.
func (s *ShardedDiskStore) progress() (synced, appended uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synced, s.appended
}

// goSticky appends kvs and closes the log under the same lock hold, so the
// committer's fsync for them fails and the store goes sticky. The writes are
// visible, as an Append's are, and never durable.
func goSticky(t *testing.T, s *ShardedDiskStore, kvs []KV) Ticket {
	t.Helper()
	s.mu.Lock()
	ticket, err := s.appendLocked(kvs)
	if err == nil {
		err = s.f.Close()
	}
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return ticket
}

// TestAppendVisibleThenDurable is the Appender contract: an append is
// readable by Get and Scan the moment it returns, while no fsync has
// completed yet; N appends that land during one fsync and one wait on the
// last ticket cost exactly one more; and every earlier ticket is then
// covered, so waiting on it neither blocks nor syncs. The rows open the
// store with each setting of the ignored ReadIndex option, which callers
// still set, and must behave the same.
func TestAppendVisibleThenDurable(t *testing.T) {
	for _, readIndex := range []bool{false, true} {
		t.Run(fmt.Sprintf("readindex=%v", readIndex), func(t *testing.T) {
			s, held := openHeldWith(t, t.TempDir(), ShardedDiskOptions{ReadIndex: readIndex})
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
// prev covered, so a caller threading its last ticket through a chain of
// appends made while no fsync could complete waits once, on the last one,
// and finds every append of the chain synced; an Append of nothing returns
// prev itself.
func TestAppendTicketCoversPrev(t *testing.T) {
	s, held := openHeld(t, t.TempDir())
	var ticket Ticket
	for k := uint64(0); k < 4; k++ {
		prev := ticket
		var err error
		if ticket, err = s.Append([]KV{{Key: k, Value: []byte("v")}}, prev); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Append(nil, ticket); err != nil || got != ticket {
			t.Fatalf("Append(nil, %+v) = (%+v,%v), want prev back", ticket, got, err)
		}
	}
	held.letGo()
	if err := s.WaitDurable(ticket); err != nil {
		t.Fatal(err)
	}
	if synced, appended := s.progress(); synced != appended {
		t.Fatalf("synced %d of %d appends after waiting on the last ticket of the chain", synced, appended)
	}
}

// TestAppendStickySyncError: a failed fsync surfaces through the wait that
// needed it and, sticky, through every later append and wait — the store
// refuses to pretend, and says why in the log once, not per refusal.
func TestAppendStickySyncError(t *testing.T) {
	logs := captureLogs(t)
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{SyncLinger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ticket := goSticky(t, s, []KV{{Key: 1, Value: []byte("doomed")}})
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
	if out := logs.String(); strings.Count(out, "level=ERROR") != 1 || !strings.Contains(out, s.path) {
		t.Fatalf("the store going sticky, then refusing twice, logged:\n%s", out)
	}
}

// TestAppendErrorLeavesGetAndScanAgreeing: Get and Scan see the same writes
// around a failed fsync. The write whose fsync failed was appended, so both
// see it; an Append the sticky store refuses leaves nothing, so neither
// does — not only after a restart rebuilds the table. Neither reads the
// log file, which is closed under the store.
func TestAppendErrorLeavesGetAndScanAgreeing(t *testing.T) {
	captureLogs(t)
	s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{SyncLinger: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const doomed, refused = 1, 2
	if err := s.WaitDurable(goSticky(t, s, []KV{{Key: doomed, Value: []byte("doomed")}})); err == nil {
		t.Fatal("WaitDurable on a closed log succeeded")
	}
	if _, err := s.Append([]KV{{Key: refused, Value: []byte("refused")}}, Ticket{}); err == nil {
		t.Fatal("Append to a sticky store succeeded")
	}
	if v, err := s.Get(doomed); err != nil || string(v) != "doomed" {
		t.Fatalf("Get(%d), appended before the failed fsync = (%q,%v)", doomed, v, err)
	}
	if _, err := s.Get(refused); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(%d), refused = %v, want ErrNotFound", refused, err)
	}
	var scanned []uint64
	if err := s.Scan(0, 10, func(k uint64, _ []byte) bool {
		scanned = append(scanned, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != 1 || scanned[0] != doomed {
		t.Fatalf("Scan visited %v, Get returns key %d alone", scanned, doomed)
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
			s, held := openHeld(t, dir)
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
				awaitCompactor(s)
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
				if synced, appended := s.progress(); synced != appended || len(held.entered) != 0 {
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
// fsync, neither on a fresh log nor on one that synced a moment ago — each
// Put returns after exactly one fsync, whatever the magnitude of SyncLinger.
func TestLonePutSyncsAtOnce(t *testing.T) {
	const fsyncTakes = 5 * time.Millisecond
	s, err := openShardedDisk(t.TempDir(), ShardedDiskOptions{SyncLinger: time.Hour}, slowFsync(fsyncTakes))
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
// an fsync that takes 5 ms and 8 writers, the writers that
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
		synced, target := s.progress()
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
		if _, appended := s.progress(); appended > target {
			lastEnd = time.Now()
		}
		return err
	}
	s, err := openShardedDisk(t.TempDir(), ShardedDiskOptions{SyncLinger: time.Hour}, slow)
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
