package store

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedDiskStore is the pipelined off-memory store: a MemStore, the append
// log it is rebuilt from, and durability provided by group commit. Every
// read — Get, AppendValue, AppendKeys, Scan, Len — is the embedded
// MemStore's and never touches the log; the store adds the writes, which
// land in the log and then the table, and the log's upkeep. It exists to
// show what the paper's Section 5.7 off-memory penalty costs once the
// storage layer is given the same treatment as every other stage — batch
// the expensive syscall, and keep whoever appends from waiting for it:
//
//   - The unit of durability is the committed batch, and a batch touches
//     every execution shard's partition. So the execute stage's shard workers
//     all append to the one log (a partition is one write syscall under the
//     log's lock) and one fsync covers all of them.
//   - A durable store runs one committer with no timer in it: an fsync
//     covers every write appended before it started, and the writes that
//     arrive while it runs form the next group (group commit). Visible and
//     durable are separate events (Appender): an append is readable at once
//     and returns a ticket, and whoever must not act before the write is
//     safe waits on the ticket, so a lone write pays one fsync, N appends
//     during one fsync share the next instead of paying N, and the appending
//     goroutine never waits for the disk. Put and PutMany are the
//     synchronous form, append then wait.
//
// The log is a CRC-32C-per-record log (see format.go): on open every record
// of its valid prefix is put into the table in log order, and a torn tail or
// any record failing its CRC ends the prefix. It is grown ahead of its
// appends by chunks of zeros (logChunk), so that a group-commit fsync
// flushes data and not a change of file size; Close trims them.
//
// The log is append-only, so superseded values accumulate until Compact
// (or the threshold-driven MaybeCompact, which the replica fires on stable
// checkpoints) rewrites the table to a fresh one: temp file + fsync +
// rename + directory fsync, crash-safe at every point, after which log
// size tracks live data instead of history and restart replays only the
// compacted log.
type ShardedDiskStore struct {
	// MemStore holds every key's latest value. After open its one writer
	// is appendLocked, under mu, so a holder of mu reads the table unlocked.
	*MemStore

	durable bool
	// fsync is (*os.File).Sync everywhere but in tests, which slow it down
	// or hold it to see how the committer groups.
	fsync func(*os.File) error

	compactRatio float64
	compactMin   int64

	stop    chan struct{}
	wg      sync.WaitGroup
	closing sync.Once

	// fsync and compaction accounting (atomic: SyncStats/CompactStats
	// must not take mu).
	fsyncs  atomic.Uint64
	stallNS atomic.Uint64
	cstats  compactCounters

	mu   sync.Mutex
	cond *sync.Cond // signalled when synced advances, a sync/compaction finishes, or the store closes
	f    *os.File
	path string
	// logState is the log bookkeeping (append offset, total bytes), guarded
	// by mu.
	logState

	// Group commit: appended counts append operations, synced the prefix
	// of them covered by a completed fsync. An append's ticket is the value
	// of appended it produced; WaitDurable blocks until synced reaches it.
	// syncErr is sticky — after a failed fsync the store refuses further
	// appends rather than lying about durability.
	// syncing marks an fsync in flight on f outside the lock, so
	// compaction never swaps (and closes) the file under it; compactors
	// counts the compactions waiting for that fsync to end, and while there
	// is one the committer starts no other — a busy log is syncing nearly
	// always, and the rewrite covers whatever the committer would have.
	appended   uint64
	synced     uint64
	syncErr    error
	syncing    bool
	compactors int
	dirtyC     chan struct{} // capacity 1: wakes the committer
	closed     bool
	// enc is the append encode buffer, reused because appendLocked runs
	// under mu and its write is synchronous.
	enc []byte
}

// ShardedDiskOptions configures a ShardedDiskStore.
type ShardedDiskOptions struct {
	// Shards is ignored: a store is one log. The name stays until the
	// benchmark that sets it can be changed.
	Shards int
	// SyncLinger selects durability: 0 never fsyncs (writes reach the page
	// cache only); > 0 group-commits, so every Put/PutMany returns only
	// after a covering fsync and every Append ticket can be waited on for
	// one. The magnitude is ignored: it once set an fsync linger, the
	// committer keeps no clock, and the name stays until the benchmark
	// that sets it can be changed.
	SyncLinger time.Duration
	// CompactRatio is the garbage fraction (dead bytes / total log bytes)
	// past which MaybeCompact rewrites the log. 0 means the default
	// (DefaultCompactRatio); negative disables MaybeCompact.
	CompactRatio float64
	// CompactMinBytes is the log size below which MaybeCompact never
	// rewrites. 0 means the default (DefaultCompactMinBytes); negative
	// removes the floor.
	CompactMinBytes int64
	// ReadIndex is ignored: every value is in memory and no read touches
	// the log. The name stays until the benchmark that sets it can be
	// changed.
	ReadIndex bool
}

// OpenShardedDisk opens (or creates) the store rooted at dir, recovering
// its log. A directory holding more than one log, as earlier builds could
// leave it, is refused and left as it is.
func OpenShardedDisk(dir string, opts ShardedDiskOptions) (*ShardedDiskStore, error) {
	return openShardedDisk(dir, opts, (*os.File).Sync)
}

func openShardedDisk(dir string, opts ShardedDiskOptions, fsync func(*os.File) error) (*ShardedDiskStore, error) {
	if opts.SyncLinger < 0 {
		return nil, fmt.Errorf("store: negative SyncLinger %v", opts.SyncLinger)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating store dir: %w", err)
	}
	// Earlier builds could keep several logs, shard-000.log onwards. The
	// one log keeps the first one's name, so the directories they left on
	// one log open unchanged; any other is refused before anything in dir
	// is touched — it is the operator's to move aside or to read with the
	// build that wrote it.
	path := filepath.Join(dir, "shard-000.log")
	logs, err := filepath.Glob(filepath.Join(dir, "shard-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: listing logs: %w", err)
	}
	if len(logs) > 1 || len(logs) == 1 && filepath.Base(logs[0]) != filepath.Base(path) {
		return nil, fmt.Errorf("store: %s holds %d append logs; a store keeps one, %s, and does not merge others into it", dir, len(logs), filepath.Base(path))
	}
	// A crash mid-compaction leaves a temp rewrite behind; it is garbage
	// until renamed, so clear strays before recovering the real log.
	removeCompactTemps(dir)
	m := NewMemStore(0)
	f, st, torn, err := openLog(path, m)
	if err != nil {
		return nil, fmt.Errorf("store: recovering log: %w", err)
	}
	if torn > 0 {
		slog.Warn("store: recovery cut a torn or corrupt tail off the log", "path", path, "offset", st.off, "dropped", torn)
	}
	s := &ShardedDiskStore{
		MemStore: m, durable: opts.SyncLinger > 0, fsync: fsync, stop: make(chan struct{}),
		f: f, path: path, logState: st, dirtyC: make(chan struct{}, 1),
	}
	s.cond = sync.NewCond(&s.mu)
	s.compactRatio, s.compactMin = resolveCompactKnobs(opts.CompactRatio, opts.CompactMinBytes)
	if s.durable {
		s.wg.Add(1)
		go s.commitLoop()
	}
	return s, nil
}

// arm wakes the committer if it is idle; it never blocks.
func (s *ShardedDiskStore) arm() {
	select {
	case s.dirtyC <- struct{}{}:
	default:
	}
}

// appendLocked writes the records to the log in order, then puts them into
// the table and, in group commit mode, arms the committer; the caller holds
// s.mu. One contiguous buffer means one write syscall per call regardless
// of record count. It returns the records' ticket — the append counter in
// group commit mode, the zero Ticket when the store never fsyncs.
func (s *ShardedDiskStore) appendLocked(kvs []KV) (Ticket, error) {
	if s.closed {
		return Ticket{}, ErrClosed
	}
	if s.syncErr != nil {
		return Ticket{}, s.syncErr
	}
	buf := encodeRecords(s.enc, kvs)
	s.enc = buf
	if err := s.extend(s.f, s.off+int64(len(buf))); err != nil {
		return Ticket{}, fmt.Errorf("store: extending log: %w", err)
	}
	if _, err := s.f.WriteAt(buf, s.off); err != nil {
		return Ticket{}, fmt.Errorf("store: appending records: %w", err)
	}
	s.off += int64(len(buf))
	s.total += int64(len(buf))
	s.appended++
	// The table refuses only once closed, and Close marks it under s.mu.
	_ = s.MemStore.PutMany(kvs)
	if !s.durable {
		return Ticket{}, nil
	}
	s.arm()
	return Ticket{seq: s.appended}, nil
}

// commitLoop is the group committer. It keeps no clock: woken by a dirty
// append it fsyncs at once, releases every WaitDurable the sync covered,
// and goes straight round again while appends landed meanwhile — the group
// is whatever arrived during the previous fsync. A lone write pays one
// fsync; under load the groups grow by themselves.
func (s *ShardedDiskStore) commitLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.dirtyC:
		case <-s.stop:
			return
		}

		s.mu.Lock()
		target := s.appended
		f := s.f
		// Snapshot f and mark the sync in flight under the lock: the
		// syncing flag is what keeps compaction from swapping (and
		// closing) the file while the fsync below runs outside the lock.
		skip := target == s.synced || s.syncErr != nil || s.closed || s.compactors > 0
		if !skip {
			s.syncing = true
		}
		s.mu.Unlock()
		if skip {
			// Nothing to sync: an fsync or a compaction rewrite already
			// covered the append that armed dirtyC, or a rewrite is about
			// to (and arms again if it fails).
			continue
		}

		err := s.fsync(f) // outside the lock: appends may proceed meanwhile

		s.mu.Lock()
		s.syncing = false
		if err != nil {
			s.failSync("fsync", err)
		} else {
			s.fsyncs.Add(1) // only completed fsyncs count as durable
			if target > s.synced {
				s.synced = target
			}
		}
		rearm := s.appended > s.synced && s.syncErr == nil
		s.cond.Broadcast()
		s.mu.Unlock()
		if rearm {
			s.arm()
		}
	}
}

// failSync makes a failed fsync sticky and says so, once: every later
// append and wait returns the same error. The caller holds s.mu.
func (s *ShardedDiskStore) failSync(op string, err error) {
	s.syncErr = fmt.Errorf("store: %s: %w", op, err)
	slog.Error("store: fsync failed, the log refuses further writes", "path", s.path, "err", err)
}

// Put implements Store: append to the log and, in group commit mode, wait
// for a covering fsync.
func (s *ShardedDiskStore) Put(key uint64, value []byte) error {
	return s.PutMany([]KV{{Key: key, Value: value}})
}

// PutMany implements Batcher as Append followed by WaitDurable: the
// synchronous form, for callers (table preload, tests, the execute stage
// behind a wrapper that hides Appender) that want the write durable on
// return.
func (s *ShardedDiskStore) PutMany(kvs []KV) error {
	t, err := s.Append(kvs, Ticket{})
	if err != nil {
		return err
	}
	return s.WaitDurable(t)
}

// Append implements Appender: the writes are appended with a single write
// syscall, after which they are in the table — visible to Get and Scan —
// and the committer is armed. Nothing here waits for a disk, and the new
// ticket covers prev: tickets count appends to the one log.
func (s *ShardedDiskStore) Append(kvs []KV, prev Ticket) (Ticket, error) {
	if len(kvs) == 0 {
		return prev, nil
	}
	s.mu.Lock()
	t, err := s.appendLocked(kvs)
	s.mu.Unlock()
	if err != nil {
		return prev, err
	}
	return t, nil
}

// WaitDurable implements Appender: it blocks until a completed fsync (the
// committer's, a compaction rewrite's, or Close's final one) covers t, and
// otherwise returns the sticky sync error, or ErrClosed when the store
// closed first. Time spent blocked is reported as fsync stall.
func (s *ShardedDiskStore) WaitDurable(t Ticket) error {
	if t.seq == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.synced >= t.seq {
		return nil
	}
	t0 := time.Now()
	for s.synced < t.seq && s.syncErr == nil && !s.closed {
		s.cond.Wait()
	}
	s.stallNS.Add(uint64(time.Since(t0)))
	switch {
	case s.synced >= t.seq:
		return nil
	case s.syncErr != nil:
		return s.syncErr
	default:
		return ErrClosed
	}
}

// SyncStats implements SyncStatser.
func (s *ShardedDiskStore) SyncStats() SyncStats {
	return SyncStats{Fsyncs: s.fsyncs.Load(), FsyncStallNS: s.stallNS.Load()}
}

// CompactStats implements Compactor.
func (s *ShardedDiskStore) CompactStats() CompactStats {
	return s.cstats.stats()
}

// MaybeCompact implements Compactor: the log is rewritten if it clears the
// configured size floor and garbage-ratio threshold. It returns 1 if it
// was, else 0.
func (s *ShardedDiskStore) MaybeCompact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if !shouldCompact(liveBytes(&s.t), s.total, s.compactRatio, s.compactMin) {
		return 0, nil
	}
	if err := s.compactLocked(); err != nil {
		return 0, err
	}
	return 1, nil
}

// Compact implements Compactor: the log is rewritten to live records only,
// unconditionally.
func (s *ShardedDiskStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked rewrites the table to a fresh log; the caller holds s.mu
// (writers stall for the duration, which is what CompactStats.StallNS
// measures). Because the rewrite fsyncs every live record before the
// rename, a completed compaction is also a covering group commit: callers
// parked in WaitDurable are released, since the latest version of every
// appended key is now durable.
func (s *ShardedDiskStore) compactLocked() error {
	// Never swap the file while the committer has an fsync in flight on
	// it outside the lock: closing the old handle mid-Sync would turn a
	// healthy fsync into a sticky syncErr. Compaction holds the lock
	// otherwise, and the committer starts no fsync while one waits here.
	s.compactors++
	for s.syncing && !s.closed {
		s.cond.Wait()
	}
	s.compactors--
	if s.closed {
		return ErrClosed
	}
	t0 := time.Now()
	newF, st, err := rewriteLiveRecords(&s.t, s.path)
	if err != nil {
		s.cstats.failures.Add(1)
		slog.Error("store: compaction failed, the store stays on its old log", "path", s.path, "err", err)
		s.arm() // the committer stood back for a covering rewrite that never came
		return err
	}
	reclaimed := s.off - st.off
	old := s.f
	s.f, s.logState = newF, st
	if s.durable && s.synced < s.appended && s.syncErr == nil {
		s.synced = s.appended
		s.fsyncs.Add(1) // the rewrite's fsync doubled as a group commit
	}
	old.Close()
	s.cond.Broadcast()
	s.cstats.compactions.Add(1)
	if reclaimed > 0 {
		s.cstats.reclaimed.Add(uint64(reclaimed))
	}
	s.cstats.stallNS.Add(uint64(time.Since(t0)))
	return nil
}

// Close implements Store. Pending group-commit writes are made durable
// with one final fsync before waiters are released, so a clean shutdown
// never loses an acknowledged-in-flight write. Only fsyncs that actually
// completed are counted in SyncStats.
func (s *ShardedDiskStore) Close() error {
	var err error
	s.closing.Do(func() {
		close(s.stop)
		s.wg.Wait() // the committer is gone; the log is ours to finalize
		s.mu.Lock()
		defer s.mu.Unlock()
		// Trim the zeros ahead of the last append: a closed store's log is
		// exactly its records. Before the final fsync, so that when there
		// is one it covers the new size too.
		if terr := s.f.Truncate(s.off); terr != nil {
			err = fmt.Errorf("store: trimming log: %w", terr)
		}
		if s.durable && s.synced < s.appended && s.syncErr == nil {
			if serr := s.fsync(s.f); serr != nil {
				s.failSync("final fsync", serr)
			} else {
				s.synced = s.appended
				s.fsyncs.Add(1)
			}
		}
		s.closed = true
		s.MemStore.Close()
		if cerr := s.f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("store: closing log: %w", cerr)
		}
		s.cond.Broadcast()
	})
	return err
}
