package store

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedDiskStore is the pipelined off-memory store: an append log (one
// unless a count is asked for), keys partitioned over the logs by the
// canonical ShardOf hash, and durability provided by per-log group commit.
// It exists to show what the paper's Section 5.7 off-memory penalty costs
// once the storage layer is given the same treatment as every other stage —
// batch the expensive syscall, and keep whoever appends from waiting for it:
//
//   - The unit of durability is the committed batch, and a batch touches
//     every execution shard's partition. So the execute stage's shard workers
//     all append to the one log (a partition is one write syscall under the
//     log's lock) and one fsync covers all of them; on a log per worker the
//     batch waits for the slowest of several. Explicit Shards: N gives N
//     logs, each with its own file, lock and committer.
//   - A durable store runs one committer per log with no timer in it:
//     an fsync covers every write appended before it started, and the
//     writes that arrive while it runs form the next group (group commit).
//     Visible and durable are separate events (Appender): an append is
//     readable at once and returns a ticket, and whoever must not act
//     before the write is safe waits on the ticket, so a lone write pays
//     one fsync, N appends during one fsync share the next instead of
//     paying N, and the appending goroutine never waits for the disk. Put
//     and PutMany are the synchronous form, append then wait.
//
// Each log is a CRC-32C-per-record log (see format.go): on open a
// torn tail or any record failing its CRC ends the valid prefix,
// independently per log. A log is grown ahead of its appends by chunks of
// zeros (logChunk), so that a group-commit fsync flushes data and not a
// change of file size; Close trims them. A SHARDS
// meta file pins the log count, since reopening with a different count
// would look keys up in the wrong logs.
//
// Logs are append-only, so superseded values accumulate until
// Compact (or the threshold-driven MaybeCompact, which the replica fires
// on stable checkpoints) rewrites a log's live records to a fresh one:
// temp file + fsync + rename + directory fsync, crash-safe at every
// point, after which log size tracks live data instead of history and
// restart replays only the compacted log.
type ShardedDiskStore struct {
	shards  []*diskLogShard
	dir     string
	durable bool
	// fsync is (*os.File).Sync everywhere but in tests, which slow it down
	// or hold it to see how the committer groups.
	fsync func(*os.File) error

	compactRatio float64
	compactMin   int64

	stop    chan struct{}
	wg      sync.WaitGroup
	closing sync.Once

	// ordered is the store-wide sorted key sidecar behind Scan, seeded
	// from the recovered shard indexes at open. Put/PutMany insert into it
	// only after their shard appends return (no shard lock held), so scans
	// and writers never hold the sidecar and a shard lock at once.
	ordered *orderedKeys

	// fsync and compaction accounting (atomic: SyncStats/CompactStats
	// must not take shard locks).
	fsyncs  atomic.Uint64
	stallNS atomic.Uint64
	cstats  compactCounters
}

// diskLogShard is one append log plus its group-commit state.
type diskLogShard struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled when synced advances, a sync/compaction finishes, or the shard closes
	f    *os.File
	idx  int
	path string
	// logState is the log bookkeeping (index, append offset, live/total
	// bytes), guarded by mu like the rest of the shard.
	logState

	// Group commit: appended counts append operations, synced the prefix
	// of them covered by a completed fsync. An append's ticket is the value
	// of appended it produced; WaitDurable blocks until synced reaches it.
	// syncErr is sticky — after a failed fsync the shard refuses further
	// appends rather than lying about durability.
	// syncing marks an fsync in flight on f outside the lock, so
	// compaction never swaps (and closes) the file under it; compactors
	// counts the compactions waiting for that fsync to end, and while there
	// is one the committer starts no other — a busy shard is syncing nearly
	// always, and the rewrite covers whatever the committer would have.
	appended   uint64
	synced     uint64
	syncErr    error
	syncing    bool
	compactors int
	dirtyC     chan struct{} // capacity 1: wakes this shard's committer
	closed     bool
	// enc is the append encode buffer, reused because appendLocked runs
	// under mu and its write is synchronous.
	enc []byte

	// ri, when non-nil, answers Get from memory without touching the log
	// file or the shard lock (see readindex.go). Appends update it under
	// mu; compaction leaves it untouched, since rewriting the log changes
	// record positions but no values.
	ri *readIndex
}

// ShardedDiskOptions configures a ShardedDiskStore.
type ShardedDiskOptions struct {
	// Shards is the number of append logs. 0 means the count the
	// directory's SHARDS file pins, else 1: a layout outlives the options
	// of the process that made it. Opening an existing store with a
	// conflicting non-zero count is an error.
	Shards int
	// SyncLinger selects durability: 0 never fsyncs (writes reach the page
	// cache only); > 0 group-commits, so every Put/PutMany returns only
	// after a covering fsync and every Append ticket can be waited on for
	// one. The magnitude is ignored: it once set an fsync linger, the
	// committer keeps no clock, and the name stays until the benchmark
	// that sets it can be changed.
	SyncLinger time.Duration
	// CompactRatio is the per-shard garbage fraction (dead bytes / total
	// log bytes) past which MaybeCompact rewrites that shard's log. 0
	// means the default (DefaultCompactRatio); negative disables
	// MaybeCompact.
	CompactRatio float64
	// CompactMinBytes is the per-shard log size below which MaybeCompact
	// never rewrites. 0 means the default (DefaultCompactMinBytes);
	// negative removes the floor.
	CompactMinBytes int64
	// ReadIndex keeps every key's latest value in memory, per shard, so
	// Get never reads a shard log or takes a shard lock. Off by default —
	// the Section 5.7 contrast is the blocking storage API — and enabled
	// by OpenBackend for replica deployments serving local reads.
	ReadIndex bool
}

const shardMetaFile = "SHARDS"

// OpenShardedDisk opens (or creates) a sharded store rooted at dir,
// recovering each shard's log independently.
func OpenShardedDisk(dir string, opts ShardedDiskOptions) (*ShardedDiskStore, error) {
	return openShardedDisk(dir, opts, (*os.File).Sync)
}

func openShardedDisk(dir string, opts ShardedDiskOptions, fsync func(*os.File) error) (*ShardedDiskStore, error) {
	if opts.SyncLinger < 0 {
		return nil, fmt.Errorf("store: negative SyncLinger %v", opts.SyncLinger)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating shard dir: %w", err)
	}
	// A crash mid-compaction leaves a temp rewrite behind; it is garbage
	// until renamed, so clear strays before recovering the real logs.
	removeCompactTemps(dir)
	n := opts.Shards
	metaPath := filepath.Join(dir, shardMetaFile)
	haveMeta := false
	if raw, err := os.ReadFile(metaPath); err == nil {
		persisted, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil || persisted < 1 {
			return nil, fmt.Errorf("store: corrupt shard meta %q", strings.TrimSpace(string(raw)))
		}
		if n == 0 {
			n = persisted
			if n != 1 {
				slog.Info("store: directory keeps the log count it was created with", "dir", dir, "logs", n)
			}
		} else if n != persisted {
			return nil, fmt.Errorf("store: existing store has %d shards, requested %d", persisted, n)
		}
		haveMeta = true
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: reading shard meta: %w", err)
	}
	if n == 0 {
		n = 1
	}
	if n < 1 {
		return nil, fmt.Errorf("store: need at least one shard, got %d", n)
	}
	// The meta is written exactly once, at creation, and durably (temp
	// file + fsync + rename + directory fsync): a crash must never leave
	// a store whose fsynced logs survive but whose shard count is gone or
	// torn — reopening with a guessed count would look keys up in the
	// wrong logs. An existing meta is never rewritten, so a crash mid-open
	// cannot brick a healthy store either.
	if !haveMeta {
		if err := persistShardMeta(dir, metaPath, n); err != nil {
			return nil, err
		}
	}

	s := &ShardedDiskStore{dir: dir, durable: opts.SyncLinger > 0, fsync: fsync, stop: make(chan struct{})}
	s.compactRatio, s.compactMin = resolveCompactKnobs(opts.CompactRatio, opts.CompactMinBytes)
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%03d.log", i))
		f, st, torn, err := openLog(path)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("store: recovering shard %d: %w", i, err)
		}
		if torn > 0 {
			slog.Warn("store: recovery cut a torn or corrupt tail off the log", "shard", i, "path", path, "offset", st.off, "dropped", torn)
		}
		sh := &diskLogShard{f: f, idx: i, path: path, logState: st, dirtyC: make(chan struct{}, 1)}
		sh.cond = sync.NewCond(&sh.mu)
		if opts.ReadIndex {
			ri, err := loadReadIndex(f, st.index)
			if err != nil {
				f.Close()
				s.closeFiles()
				return nil, fmt.Errorf("store: loading shard %d read index: %w", i, err)
			}
			sh.ri = ri
		}
		s.shards = append(s.shards, sh)
	}
	var keys []uint64
	for _, sh := range s.shards {
		for k := range sh.index {
			keys = append(keys, k)
		}
	}
	s.ordered = newOrderedKeys(keys)
	if s.durable {
		for _, sh := range s.shards {
			s.wg.Add(1)
			go s.commitLoop(sh)
		}
	}
	return s, nil
}

// persistShardMeta durably records the shard count at store creation. The
// temp file is removed on every failure path — including a failed fsync —
// so aborted creations leave no debris.
func persistShardMeta(dir, metaPath string, n int) error {
	tmp, err := os.CreateTemp(dir, ".shards-*")
	if err != nil {
		return fmt.Errorf("store: writing shard meta: %w", err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing shard meta: %w", err)
	}
	if _, err := tmp.WriteString(strconv.Itoa(n) + "\n"); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp.Name(), metaPath); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing shard meta: %w", err)
	}
	syncDir(dir) // make the rename itself durable; best effort
	return nil
}

// closeFiles releases already-opened shard files after a failed open.
func (s *ShardedDiskStore) closeFiles() {
	for _, sh := range s.shards {
		sh.f.Close()
	}
}

// Shards returns the shard (append log) count.
func (s *ShardedDiskStore) Shards() int { return len(s.shards) }

// shardFor returns the shard owning key.
func (s *ShardedDiskStore) shardFor(key uint64) *diskLogShard {
	return s.shards[ShardOf(key, len(s.shards))]
}

// arm wakes the shard's committer if it is idle; it never blocks.
func (sh *diskLogShard) arm() {
	select {
	case sh.dirtyC <- struct{}{}:
	default:
	}
}

// appendLocked writes the records to the shard's log in order and updates
// the index and byte accounting; the caller holds sh.mu. One contiguous
// buffer means one write syscall per call regardless of record count. It
// reports whether any record's key was new to the shard.
func (sh *diskLogShard) appendLocked(kvs []KV) (fresh bool, err error) {
	buf := encodeRecords(sh.enc, kvs)
	sh.enc = buf
	if err := sh.extend(sh.f, sh.off+int64(len(buf))); err != nil {
		return false, fmt.Errorf("store: extending log: %w", err)
	}
	if _, err := sh.f.WriteAt(buf, sh.off); err != nil {
		return false, fmt.Errorf("store: appending records: %w", err)
	}
	at := int64(0)
	for i := range kvs {
		if !sh.account(kvs[i].Key, sh.off+at+recHdr, uint32(len(kvs[i].Value))) {
			fresh = true
		}
		at += recHdr + int64(len(kvs[i].Value))
	}
	sh.off += int64(len(buf))
	sh.appended++
	if sh.ri != nil {
		sh.ri.putMany(kvs)
	}
	return fresh, nil
}

// commitLoop is one shard's group committer. It keeps no clock: woken by a
// dirty append it fsyncs at once, releases every WaitDurable the sync
// covered, and goes straight round again while appends landed meanwhile —
// the group is whatever arrived during the previous fsync. A lone write
// pays one fsync; under load the groups grow by themselves.
func (s *ShardedDiskStore) commitLoop(sh *diskLogShard) {
	defer s.wg.Done()
	for {
		select {
		case <-sh.dirtyC:
		case <-s.stop:
			return
		}

		sh.mu.Lock()
		target := sh.appended
		f := sh.f
		// Snapshot f and mark the sync in flight under the lock: the
		// syncing flag is what keeps compaction from swapping (and
		// closing) the file while the fsync below runs outside the lock.
		skip := target == sh.synced || sh.syncErr != nil || sh.closed || sh.compactors > 0
		if !skip {
			sh.syncing = true
		}
		sh.mu.Unlock()
		if skip {
			// Nothing to sync: an fsync or a compaction rewrite already
			// covered the append that armed dirtyC, or a rewrite is about
			// to (and arms again if it fails).
			continue
		}

		err := s.fsync(f) // outside the lock: appends may proceed meanwhile

		sh.mu.Lock()
		sh.syncing = false
		if err != nil {
			sh.failSync("fsync", err)
		} else {
			s.fsyncs.Add(1) // only completed fsyncs count as durable
			if target > sh.synced {
				sh.synced = target
			}
		}
		rearm := sh.appended > sh.synced && sh.syncErr == nil
		sh.cond.Broadcast()
		sh.mu.Unlock()
		if rearm {
			sh.arm()
		}
	}
}

// failSync makes a failed fsync sticky and says so, once: every later
// append and wait on the shard returns the same error. The caller holds
// sh.mu.
func (sh *diskLogShard) failSync(op string, err error) {
	sh.syncErr = fmt.Errorf("store: %s: %w", op, err)
	slog.Error("store: fsync failed, shard refuses further writes", "shard", sh.idx, "path", sh.path, "err", err)
}

// Put implements Store: append to the owning shard's log and, in group
// commit mode, wait for a covering fsync.
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

// Append implements Appender: writes are grouped by owning shard and each
// group is appended with a single write syscall, after which it is in the
// index, the read index and the ordered sidecar — visible to Get and Scan —
// and its shard's committer is armed. The sidecar hears only of partitions
// that brought a new key: the index lookup already knows an overwrite's key
// is in it. Nothing here waits for a disk when the whole call lands in one
// log — always, on a one-log store — and the new ticket covers prev. A call
// that spans logs, or a prev on another log, leaves several tickets; all but
// the last touched log's are waited for here, after every append has been
// issued so the logs' group commits overlap.
func (s *ShardedDiskStore) Append(kvs []KV, prev Ticket) (Ticket, error) {
	if len(kvs) == 0 {
		return prev, nil
	}
	// Common case first: every key in one shard. Grouping starts at the
	// first key that is not, so each key is hashed once either way.
	n := len(s.shards)
	first := ShardOf(kvs[0].Key, n)
	var groups [][]KV
	for i := 1; i < len(kvs); i++ {
		sh := ShardOf(kvs[i].Key, n)
		if groups == nil {
			if sh == first {
				continue
			}
			groups = make([][]KV, n)
			groups[first] = append(groups[first], kvs[:i]...)
		}
		groups[sh] = append(groups[sh], kvs[i])
	}
	// last is the ticket to return; early collects the tickets it does not
	// cover, which only exist on a store of several logs.
	last := prev
	var early []Ticket
	appendGroup := func(idx int, g []KV) error {
		t, fresh, err := s.appendShard(idx, g)
		if err != nil {
			return err
		}
		// Group by group, not once at the end: a group that landed is
		// readable by Get, and must be by Scan too if a later group fails.
		if fresh {
			s.ordered.insertMany(g)
		}
		if last.seq != 0 && last.shard != t.shard {
			early = append(early, last)
		}
		last = t
		return nil
	}
	if groups == nil {
		if err := appendGroup(first, kvs); err != nil {
			return prev, err
		}
	}
	for idx, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := appendGroup(idx, g); err != nil {
			return prev, err
		}
	}
	for _, t := range early {
		if err := s.WaitDurable(t); err != nil {
			return last, err
		}
	}
	return last, nil
}

// appendShard appends one shard's records and returns their ticket — the
// shard's append counter in group commit mode, the zero Ticket when the
// store never fsyncs — and whether any of their keys was new.
func (s *ShardedDiskStore) appendShard(idx int, kvs []KV) (Ticket, bool, error) {
	sh := s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return Ticket{}, false, ErrClosed
	}
	if sh.syncErr != nil {
		return Ticket{}, false, sh.syncErr
	}
	fresh, err := sh.appendLocked(kvs)
	if err != nil {
		return Ticket{}, false, err
	}
	if !s.durable {
		return Ticket{}, fresh, nil
	}
	sh.arm()
	return Ticket{shard: idx, seq: sh.appended}, fresh, nil
}

// WaitDurable implements Appender: it blocks until a completed fsync (the
// committer's, a compaction rewrite's, or Close's final one) covers t, and
// otherwise returns the shard's sticky sync error, or ErrClosed when the
// store closed first. Time spent blocked is reported as fsync stall.
func (s *ShardedDiskStore) WaitDurable(t Ticket) error {
	if t.seq == 0 {
		return nil
	}
	sh := s.shards[t.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.synced >= t.seq {
		return nil
	}
	t0 := time.Now()
	for sh.synced < t.seq && sh.syncErr == nil && !sh.closed {
		sh.cond.Wait()
	}
	s.stallNS.Add(uint64(time.Since(t0)))
	switch {
	case sh.synced >= t.seq:
		return nil
	case sh.syncErr != nil:
		return sh.syncErr
	default:
		return ErrClosed
	}
}

// Get implements Store. With the read index enabled the value comes from
// the owning shard's in-memory index without touching its log file or
// lock. Otherwise the value bytes are read back from the shard's log: the
// record reference and file handle are snapshotted under the shard lock
// but the ReadAt syscall runs outside it, so one disk read never stalls
// the shard's writers or its group committer. If compaction (or Close)
// retires the snapshotted handle mid-read the read fails with
// fs.ErrClosed and is retried against the fresh handle; a closed store
// surfaces as ErrClosed at the top of the retry.
func (s *ShardedDiskStore) Get(key uint64) ([]byte, error) {
	sh := s.shardFor(key)
	if sh.ri != nil {
		if v, ok := sh.ri.get(key); ok {
			return v, nil
		}
		return nil, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	for {
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			return nil, ErrClosed
		}
		ref, ok := sh.index[key]
		f := sh.f
		sh.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrNotFound, key)
		}
		out := make([]byte, ref.length)
		if _, err := f.ReadAt(out, ref.off); err != nil {
			if errors.Is(err, fs.ErrClosed) {
				continue // the handle was swapped or the store closed; re-snapshot
			}
			return nil, fmt.Errorf("store: reading record: %w", err)
		}
		return out, nil
	}
}

// Scan implements Scanner. Keys come from the store-wide ordered sidecar
// in bounded chunks and values from Get, so each row is one shard read
// (or a read-index hit) and a scan never stalls a shard's writers or its
// group committer for longer than a point read would.
func (s *ShardedDiskStore) Scan(start, end uint64, fn func(key uint64, value []byte) bool) error {
	return scanVia(s.ordered, s.Get, start, end, fn)
}

// Len implements Store.
func (s *ShardedDiskStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}

// SyncStats implements SyncStatser.
func (s *ShardedDiskStore) SyncStats() SyncStats {
	return SyncStats{Fsyncs: s.fsyncs.Load(), FsyncStallNS: s.stallNS.Load()}
}

// CompactStats implements Compactor.
func (s *ShardedDiskStore) CompactStats() CompactStats {
	return s.cstats.stats()
}

// MaybeCompact implements Compactor: each shard whose log clears the
// configured size floor and garbage-ratio threshold is rewritten. Shards
// are checked and compacted one at a time, so at most one shard's writers
// are stalled at any moment while the rest of the store runs. It returns
// how many shard logs were rewritten.
func (s *ShardedDiskStore) MaybeCompact() (int, error) {
	compacted := 0
	var firstErr error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			if firstErr == nil {
				firstErr = ErrClosed
			}
			continue
		}
		if !shouldCompact(sh.live, sh.total, s.compactRatio, s.compactMin) {
			sh.mu.Unlock()
			continue
		}
		err := s.compactShardLocked(sh)
		sh.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err == nil {
			compacted++
		}
	}
	return compacted, firstErr
}

// Compact implements Compactor: every shard's log is rewritten to live
// records only, unconditionally.
func (s *ShardedDiskStore) Compact() error {
	var firstErr error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			if firstErr == nil {
				firstErr = ErrClosed
			}
			continue
		}
		err := s.compactShardLocked(sh)
		sh.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// compactShardLocked rewrites one shard's live records to a fresh log;
// the caller holds sh.mu (writers to this shard stall for the duration,
// which is what CompactStats.StallNS measures). Because the rewrite
// fsyncs every live record before the rename, a completed compaction is
// also a covering group commit: callers parked in WaitDurable are released,
// since the latest version of every appended key is now durable.
func (s *ShardedDiskStore) compactShardLocked(sh *diskLogShard) error {
	// Never swap the file while the committer has an fsync in flight on
	// it outside the lock: closing the old handle mid-Sync would turn a
	// healthy fsync into a sticky syncErr. Compaction holds the lock
	// otherwise, and the committer starts no fsync while one waits here.
	sh.compactors++
	for sh.syncing && !sh.closed {
		sh.cond.Wait()
	}
	sh.compactors--
	if sh.closed {
		return ErrClosed
	}
	t0 := time.Now()
	var values map[uint64][]byte
	if sh.ri != nil {
		values = sh.ri.m // appends, its only writers, hold sh.mu as we do
	}
	newF, st, err := rewriteLiveRecords(sh.f, sh.logState, values, sh.path)
	if err != nil {
		s.cstats.failures.Add(1)
		slog.Error("store: compaction failed, shard stays on its old log", "shard", sh.idx, "path", sh.path, "err", err)
		sh.arm() // the committer stood back for a covering rewrite that never came
		return err
	}
	reclaimed := sh.off - st.off
	old := sh.f
	sh.f, sh.logState = newF, st
	if s.durable && sh.synced < sh.appended && sh.syncErr == nil {
		sh.synced = sh.appended
		s.fsyncs.Add(1) // the rewrite's fsync doubled as a group commit
	}
	old.Close()
	sh.cond.Broadcast()
	s.cstats.compactions.Add(1)
	if reclaimed > 0 {
		s.cstats.reclaimed.Add(uint64(reclaimed))
	}
	s.cstats.stallNS.Add(uint64(time.Since(t0)))
	return nil
}

// Close implements Store. Pending group-commit writes are made durable
// with one final fsync per dirty shard before waiters are released, so a
// clean shutdown never loses an acknowledged-in-flight write. Only
// fsyncs that actually completed are counted in SyncStats.
func (s *ShardedDiskStore) Close() error {
	var firstErr error
	s.closing.Do(func() {
		close(s.stop)
		s.wg.Wait() // committers are gone; shard state is ours to finalize
		for _, sh := range s.shards {
			sh.mu.Lock()
			// Trim the zeros ahead of the last append: a closed store's logs
			// are exactly their records. Before the final fsync, so that when
			// there is one it covers the new size too.
			if err := sh.f.Truncate(sh.off); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("store: trimming shard log: %w", err)
			}
			if s.durable && sh.synced < sh.appended && sh.syncErr == nil {
				if err := s.fsync(sh.f); err != nil {
					sh.failSync("final fsync", err)
				} else {
					sh.synced = sh.appended
					s.fsyncs.Add(1)
				}
			}
			sh.closed = true
			if err := sh.f.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("store: closing shard log: %w", err)
			}
			sh.cond.Broadcast()
			sh.mu.Unlock()
		}
	})
	return firstErr
}
