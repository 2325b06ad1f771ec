// Package store is the storage layer of the fabric (paper Figure 5): the
// record tables the execution layer reads and writes.
//
// Two implementations mirror the two sides of the Section 5.7 experiment.
// MemStore keeps records in an in-memory key-value structure: the paper's
// conclusion (Section 6, "Memory Storage") is that replicas can keep
// records in memory because at most f replicas fail. Its shards, like the
// disk store's read index, are record tables (table.go) that hold values
// in 64 KiB pages under an index with no pointers in it, so what the
// garbage collector pays for them does not grow with the record count. A
// value that fits its slot is overwritten in place, one that does not
// moves and leaves its slot to a free list of its size class; a table
// whose free lists outgrow its live bytes repacks into new pages. Readers
// copy a value out under the lock writers take. ShardedDiskStore is
// the off-memory side, and the middle the paper did not build: a durable
// store engineered like every other pipeline stage — one append log that
// every execution shard writes to, and group-commit fsync, so durability
// stops being the serialized tail of the pipeline. Reached through nothing
// but the blocking Store interface (every Put waiting out its own fsync)
// it is the paper's naive off-memory store — the role SQLite plays there;
// the diskpipe bench runs it both ways to quantify how much of the penalty
// the engineering wins back.
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

// Store is the record table interface used by the execute-thread.
type Store interface {
	// Put stores value under key, overwriting any previous value.
	Put(key uint64, value []byte) error
	// Get returns the value stored under key.
	Get(key uint64) ([]byte, error)
	// Len returns the number of live records.
	Len() int
	// Close releases resources. Operations after Close fail with ErrClosed.
	Close() error
}

// KV is one write in a batch handed to a Batcher.
type KV struct {
	Key   uint64
	Value []byte
}

// Batcher is an optional Store capability: PutMany applies a whole write
// partition with a single liveness check instead of one per Put. Execution
// shard workers apply their key partitions through it concurrently —
// callers must guarantee the partitions are key-disjoint, which is what
// makes the result order-independent across callers. MemStore and
// ShardedDiskStore implement it (the sharded store additionally writes a
// partition to its append log with one write syscall; its
// PutMany is Append followed by WaitDurable, so it returns only once a
// completed fsync covers the partition). A store that offers neither this
// nor Appender is applied one blocking Put at a time.
type Batcher interface {
	// PutMany applies every write in kvs in order. Distinct concurrent
	// calls must cover disjoint key sets.
	PutMany(kvs []KV) error
}

// Appender is an optional Store capability beside Batcher that splits
// visible from durable, so the goroutine applying writes never waits for a
// disk: Append makes a partition visible to Get and Scan at once and hands
// back a Ticket; WaitDurable, called by whoever must not act before the
// writes are safe, blocks until a completed fsync covers the ticket. Only
// ShardedDiskStore implements it. The same key-disjointness rule as
// Batcher applies to concurrent Append callers.
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

// ValueAppender is an optional Store capability: reads into memory the
// caller owns. AppendValue copies a key's value onto the end of the
// caller's buffer, so a caller that keeps one buffer per batch — the execute
// stage's value arena — reads without allocating; AppendKeys lists the live
// keys of a range, so a caller that wants only some of them — an execution
// shard, the keys of its own partition — resolves only those. MemStore and
// ShardedDiskStore implement it and build Get and Scan on it, so each has
// one read path. A store without it is read through Get and Scan.
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
	AppendKeys(dst []uint64, start, end uint64) []uint64
}

// getVia is Get built on AppendValue: a value the caller owns, empty but
// not nil for an empty record.
func getVia(va ValueAppender, key uint64) ([]byte, error) {
	v, err := va.AppendValue(nil, key)
	if err == nil && v == nil {
		v = []byte{}
	}
	return v, err
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
	_ Store         = (*MemStore)(nil)
	_ Store         = (*ShardedDiskStore)(nil)
	_ Batcher       = (*MemStore)(nil)
	_ Batcher       = (*ShardedDiskStore)(nil)
	_ Appender      = (*ShardedDiskStore)(nil)
	_ SyncStatser   = (*ShardedDiskStore)(nil)
	_ Compactor     = (*ShardedDiskStore)(nil)
	_ Scanner       = (*MemStore)(nil)
	_ Scanner       = (*ShardedDiskStore)(nil)
	_ ValueAppender = (*MemStore)(nil)
	_ ValueAppender = (*ShardedDiskStore)(nil)
)

// memShards splits the key space to keep lock contention negligible even
// with several execution threads.
const memShards = 64

type memShard struct {
	mu sync.RWMutex
	t  table
}

// MemStore is the in-memory key-value record table.
type MemStore struct {
	shards [memShards]memShard
	closed sync.Once
	dead   bool
	mu     sync.RWMutex // guards dead
	// ordered is the sorted key sidecar behind Scan. Writers insert into
	// their shard's table first and the sidecar second, so the sidecar is
	// always a subset of the tables and scanned keys resolve.
	ordered orderedKeys
}

// NewMemStore returns an empty in-memory store sized for sizeHint records.
func NewMemStore(sizeHint int) *MemStore {
	s := &MemStore{}
	per := sizeHint/memShards + 1
	for i := range s.shards {
		s.shards[i].t = newTable(per)
	}
	return s
}

func (s *MemStore) shard(key uint64) *memShard {
	// Spread sequential keys across shards.
	return &s.shards[(key*0x9E3779B97F4A7C15)>>58%memShards]
}

// put stores value under the shard's write lock (see table).
func (sh *memShard) put(key uint64, value []byte) bool {
	sh.mu.Lock()
	existed := sh.t.put(key, value)
	sh.mu.Unlock()
	return existed
}

// Put implements Store.
func (s *MemStore) Put(key uint64, value []byte) error {
	s.mu.RLock()
	if s.dead {
		s.mu.RUnlock()
		return ErrClosed
	}
	s.mu.RUnlock()
	if !s.shard(key).put(key, value) {
		s.ordered.insert(key)
	}
	return nil
}

// PutMany implements Batcher: it pays the closed-store check once for the
// whole partition, then applies the writes in order. Concurrent callers
// are safe — the per-shard locks serialize same-shard collisions — and
// with key-disjoint partitions the final contents are independent of how
// callers interleave. The ordered sidecar hears only of partitions that
// brought a new key: the table lookup already knows an overwrite's key is
// in it.
func (s *MemStore) PutMany(kvs []KV) error {
	s.mu.RLock()
	if s.dead {
		s.mu.RUnlock()
		return ErrClosed
	}
	s.mu.RUnlock()
	fresh := false
	for i := range kvs {
		if !s.shard(kvs[i].Key).put(kvs[i].Key, kvs[i].Value) {
			fresh = true
		}
	}
	if fresh {
		s.ordered.insertMany(kvs)
	}
	return nil
}

// AppendValue implements ValueAppender. The copy is taken under the shard
// lock: a writer may overwrite the value in its page the moment the lock is
// released.
func (s *MemStore) AppendValue(dst []byte, key uint64) ([]byte, error) {
	s.mu.RLock()
	if s.dead {
		s.mu.RUnlock()
		return dst, ErrClosed
	}
	s.mu.RUnlock()
	sh := s.shard(key)
	sh.mu.RLock()
	v, ok := sh.t.get(key)
	if ok {
		dst = append(dst, v...)
	}
	sh.mu.RUnlock()
	if !ok {
		return dst, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	return dst, nil
}

// AppendKeys implements ValueAppender from the ordered sidecar.
func (s *MemStore) AppendKeys(dst []uint64, start, end uint64) []uint64 {
	return s.ordered.chunk(start, end, dst)
}

// Get implements Store through AppendValue.
func (s *MemStore) Get(key uint64) ([]byte, error) {
	return getVia(s, key)
}

// Scan implements Scanner through AppendKeys' sidecar and AppendValue, so a
// scan never holds the sidecar lock across a shard lock (see scanVia for
// the contract).
func (s *MemStore) Scan(start, end uint64, fn func(key uint64, value []byte) bool) error {
	s.mu.RLock()
	if s.dead {
		s.mu.RUnlock()
		return ErrClosed
	}
	s.mu.RUnlock()
	return scanVia(&s.ordered, s, start, end, fn)
}

// Len implements Store.
func (s *MemStore) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].t.index)
		s.shards[i].mu.RUnlock()
	}
	return n
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	s.dead = true
	s.mu.Unlock()
	return nil
}
