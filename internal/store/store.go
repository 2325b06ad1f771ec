// Package store is the storage layer of the fabric (paper Figure 5): the
// record tables the execution layer reads and writes.
//
// Both implementations are a Backend, the one contract the execute stage
// runs against: a write is an Append that returns a ticket to wait on, a
// read lands in memory the caller owns. They mirror the two sides of the
// Section 5.7 experiment. MemStore keeps records in an in-memory key-value structure: the paper's
// conclusion (Section 6, "Memory Storage") is that replicas can keep
// records in memory because at most f replicas fail. It is one record
// table (table.go) that holds values in 64 KiB pages under an index with
// no pointers in it, so what the garbage collector pays for it does not
// grow with the record count. A value that fits its slot is overwritten in
// place, one that does not moves and leaves its slot to a free list of its
// size class; a table whose free lists outgrow its live bytes repacks into
// new pages. Readers copy a value out under the lock writers take.
// ShardedDiskStore is the off-memory side, and the middle the paper did
// not build: a MemStore plus the append log it is rebuilt from, the split
// of an append-only ledger and a current-state store. Reads never touch the
// log; writes land in the log and then the table, and are made durable by
// group-commit fsync, so durability stops being the serialized tail of the
// pipeline. Reached through nothing but the blocking Store interface
// (AsBackend, every Put waiting out its own fsync) it is the paper's naive
// off-memory store — the role SQLite plays there; the diskpipe bench runs
// it both ways to quantify how much of the penalty the engineering wins
// back.
//
// The log stays bounded: records carry a CRC-32C (recovery keeps the
// longest valid prefix) and superseded values are garbage-collected by
// Compactor, which the replica triggers from its stable-checkpoint path —
// the paper's Section 4.7 license to discard old state. The compaction
// bench measures log bytes and reopen time before/after.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrNotFound is returned by Get when no record exists for the key.
var ErrNotFound = errors.New("store: key not found")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Store is the blocking record table interface: every call returns once
// its work is done, a write once it is durable. Backend is what the execute
// stage runs; AsBackend puts any Store behind it.
type Store interface {
	// Put stores value under key, overwriting any previous value.
	Put(key uint64, value []byte) error
	// Get returns the value stored under key.
	Get(key uint64) ([]byte, error)
	// Len returns the number of live records.
	Len() int
	// Close releases resources. Operations after Close fail with ErrClosed.
	Close() error
	Batcher
	Scanner
}

// KV is one write in a batch handed to a Batcher.
type KV struct {
	Key   uint64
	Value []byte
}

// Batcher is the Store's batched write: PutMany applies a whole write
// partition with a single liveness check instead of one per Put. Execution
// shard workers apply their key partitions concurrently — callers must
// guarantee the partitions are key-disjoint, which is what makes the result
// order-independent across callers.
type Batcher interface {
	// PutMany applies every write in kvs in order. Distinct concurrent
	// calls must cover disjoint key sets.
	PutMany(kvs []KV) error
}

// Appender is Backend's write, which splits visible from durable so the
// goroutine applying writes never waits for a disk: Append makes a
// partition visible to Get and Scan at once and hands back a Ticket;
// WaitDurable, called by whoever must not act before the writes are safe,
// blocks until a completed fsync covers the ticket. MemStore has no disk:
// its Append is PutMany and its tickets are always durable. The same
// key-disjointness rule as Batcher applies to concurrent Append callers.
type Appender interface {
	// Append applies every write in kvs in order and returns a ticket that
	// covers them and everything prev covered, so a caller threading its
	// last ticket through its next Append only ever holds one. On error the
	// ticket is prev, unless the writes were applied and it was the wait
	// for prev that failed.
	Append(kvs []KV, prev Ticket) (Ticket, error)
	// WaitDurable returns once a completed fsync covers t. It returns at
	// once for the zero Ticket and for a store that does not fsync.
	WaitDurable(t Ticket) error
}

// ValueAppender is Backend's read, into memory the caller owns.
// AppendValue copies a key's value onto the end of the caller's buffer, so a
// caller that keeps one buffer per batch — the execute stage's value arena —
// reads without allocating; AppendKeys lists the live keys of a range, so a
// caller that wants only some of them — an execution shard, the keys of its
// own partition — resolves only those. MemStore builds Get and Scan on it,
// so it has one read path, which ShardedDiskStore reads through too.
type ValueAppender interface {
	// AppendValue appends the value stored under key to dst and returns the
	// extended slice. The appended bytes are a copy: later writes to key
	// leave them alone. On any error, ErrNotFound for a missing key among
	// them, it returns dst unchanged.
	AppendValue(dst []byte, key uint64) ([]byte, error)
	// AppendKeys appends the live keys in [start, end] to dst, ascending,
	// until the range is exhausted or dst is full (len == cap); a caller
	// that filled it goes on from the last key + 1. dst must have room for
	// at least one key. Keys follow Scan's consistency contract.
	AppendKeys(dst []uint64, start, end uint64) ([]uint64, error)
}

// Ticket names a position in a store's append stream. It is
// prefix-covering: an fsync that covers a ticket covers every earlier
// append. The zero Ticket covers nothing and is always durable.
type Ticket struct {
	seq uint64
}

// SyncStats reports a durable store's group-commit behaviour: how many
// fsyncs it issued and how long writers cumulatively stalled waiting for
// one. The replica surfaces these in its Stats so the diskpipe bench can
// show what group commit buys over per-op fsync.
type SyncStats struct {
	// Fsyncs is the number of fsync calls issued.
	Fsyncs uint64
	// FsyncStallNS is the cumulative time callers spent blocked in
	// WaitDurable (Put and PutMany included) waiting for an fsync to cover
	// their writes.
	FsyncStallNS uint64
}

// SyncStatser is an optional Store capability: durable stores report
// their fsync accounting through it. MemStore has nothing to report and
// does not implement it.
type SyncStatser interface {
	SyncStats() SyncStats
}

// CompactStats reports a log-structured store's garbage collection: how
// many log rewrites completed, how many failed (the store stays on its
// old log and remains usable), how many log bytes the rewrites dropped,
// and how long writers were stalled behind a rewrite. The replica
// surfaces these in its Stats next to SyncStats.
type CompactStats struct {
	// Compactions is the number of log rewrites completed.
	Compactions uint64
	// Failures is the number of attempted rewrites that failed; each
	// leaves the original log authoritative and the store usable.
	Failures uint64
	// ReclaimedBytes is the total log bytes dropped by compaction
	// (superseded record versions).
	ReclaimedBytes uint64
	// StallNS is the cumulative time writers were blocked behind a log
	// rewrite.
	StallNS uint64
}

// compactCounters is the atomic backing for CompactStats.
type compactCounters struct {
	compactions atomic.Uint64
	failures    atomic.Uint64
	reclaimed   atomic.Uint64
	stallNS     atomic.Uint64
}

func (c *compactCounters) stats() CompactStats {
	return CompactStats{
		Compactions:    c.compactions.Load(),
		Failures:       c.failures.Load(),
		ReclaimedBytes: c.reclaimed.Load(),
		StallNS:        c.stallNS.Load(),
	}
}

// Compactor is an optional Store capability: a log-structured store whose
// log accumulates superseded values implements it so the replica can drive
// garbage collection from its stable-checkpoint path (the paper's §4.7
// moment: a stable checkpoint licenses discarding old state). MemStore
// overwrites in place and has nothing to compact.
type Compactor interface {
	// MaybeCompact rewrites the log if it clears the store's configured
	// size floor and garbage-ratio threshold; it returns 1 if it did, else
	// 0. A failed rewrite leaves the log authoritative and is reported in
	// CompactStats.Failures.
	MaybeCompact() (int, error)
	// Compact rewrites the log unconditionally, keeping only live records.
	Compact() error
	// CompactStats reports the compaction counters.
	CompactStats() CompactStats
}

// Compile-time interface compliance checks.
var (
	_ Backend     = (*MemStore)(nil)
	_ Backend     = (*ShardedDiskStore)(nil)
	_ SyncStatser = (*ShardedDiskStore)(nil)
	_ Compactor   = (*ShardedDiskStore)(nil)
)

// MemStore is the in-memory key-value record table: one table under one
// lock, beside the ordered key sidecar behind Scan. Execution shards
// applying key-disjoint partitions take the lock in turn; each holds it for
// the copies of one partition.
type MemStore struct {
	mu   sync.RWMutex // guards t and dead
	t    table
	dead bool
	// ordered is the sorted key sidecar behind Scan. Writers insert into
	// the table first and the sidecar second, so the sidecar is always a
	// subset of the table and scanned keys resolve.
	ordered orderedKeys
}

// NewMemStore returns an empty in-memory store sized for sizeHint records.
func NewMemStore(sizeHint int) *MemStore {
	return &MemStore{t: newTable(sizeHint)}
}

// Put implements Store.
func (s *MemStore) Put(key uint64, value []byte) error {
	return s.PutMany([]KV{{Key: key, Value: value}})
}

// PutMany implements Batcher: it pays the closed-store check and the lock
// once for the whole partition, then applies the writes in order, having
// read every key's home slot before it writes any (table.putMany). With
// key-disjoint partitions the final contents are independent of how
// concurrent callers interleave. The ordered sidecar hears only of
// partitions that brought a new key: the table lookup already knows an
// overwrite's key is in it.
func (s *MemStore) PutMany(kvs []KV) error {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return ErrClosed
	}
	fresh := s.t.putMany(kvs)
	s.mu.Unlock()
	if fresh {
		s.ordered.insertMany(kvs)
	}
	return nil
}

// AppendValue implements ValueAppender. The copy is taken under the lock:
// a writer may overwrite the value in its page the moment it is released.
func (s *MemStore) AppendValue(dst []byte, key uint64) ([]byte, error) {
	s.mu.RLock()
	if s.dead {
		s.mu.RUnlock()
		return dst, ErrClosed
	}
	v, ok := s.t.get(key)
	if ok {
		dst = append(dst, v...)
	}
	s.mu.RUnlock()
	if !ok {
		return dst, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	return dst, nil
}

// AppendKeys implements ValueAppender from the ordered sidecar.
func (s *MemStore) AppendKeys(dst []uint64, start, end uint64) ([]uint64, error) {
	if s.isDead() {
		return dst, ErrClosed
	}
	return s.ordered.chunk(start, end, dst), nil
}

// Append implements Appender as PutMany: the writes are durable, for what a
// memory store's durability is worth, as soon as they are visible.
func (s *MemStore) Append(kvs []KV, prev Ticket) (Ticket, error) {
	return prev, s.PutMany(kvs)
}

// WaitDurable implements Appender: every MemStore ticket is durable.
func (s *MemStore) WaitDurable(Ticket) error { return nil }

// Get implements Store through AppendValue: a value the caller owns, empty
// but not nil for an empty record.
func (s *MemStore) Get(key uint64) ([]byte, error) {
	v, err := s.AppendValue(nil, key)
	if err == nil && v == nil {
		v = []byte{}
	}
	return v, err
}

// Scan implements Scanner: keys are gathered from the ordered sidecar in
// bounded chunks under its read lock, then each is resolved through
// AppendValue with no sidecar lock held, into one buffer the scan reuses
// and lends to fn. Never holding the sidecar lock across the table's is
// what makes Scan deadlock-free against writers, which take the table's
// lock first and the sidecar's after it; and since they insert into the
// sidecar last, every key a scan finds resolves.
func (s *MemStore) Scan(start, end uint64, fn func(key uint64, value []byte) bool) error {
	if s.isDead() {
		return ErrClosed
	}
	if start > end {
		return nil
	}
	var arr [128]uint64
	var val []byte
	cur := start
	for {
		keys := s.ordered.chunk(cur, end, arr[:0])
		if len(keys) == 0 {
			return nil
		}
		for _, k := range keys {
			var err error
			if val, err = s.AppendValue(val[:0], k); err != nil {
				return err
			}
			if !fn(k, val[:len(val):len(val)]) {
				return nil
			}
		}
		last := keys[len(keys)-1]
		if last >= end || last == ^uint64(0) {
			return nil
		}
		cur = last + 1
	}
}

// Len implements Store.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.t.index.len()
}

// isDead reports whether Close has run.
func (s *MemStore) isDead() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dead
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	s.dead = true
	s.mu.Unlock()
	return nil
}
