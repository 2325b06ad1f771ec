package store

import (
	"sort"
	"sync"
)

// Scanner is an optional Store capability: an ordered view over the live
// keys, the storage half of the general-transaction refactor (range scans
// travel the same execute pipeline as reads). MemStore implements it, and
// the disk store through the MemStore it embeds, with an insert-only
// ordered key sidecar — the fabric has no deletes, so the sidecar only ever
// grows, which keeps it a sorted set maintained outside the table's lock.
//
// The consistency contract is snapshot-per-key, not a range snapshot: a
// Scan runs concurrently with Put/PutMany/Compact, every key present
// before the Scan started is visited (keys never disappear — overwrites
// keep their key, and compaction rewrites logs without touching the key
// set), each visited key resolves to its live value at visit time, and
// keys inserted mid-scan behind the cursor may or may not appear.
// Deterministic scans (byte-identical across replicas) are the execute
// coordinator's job: it orders scans against the write stream with its
// shard flush barrier, so the store-level contract only needs to be
// race-free, not serializable.
type Scanner interface {
	// Scan visits every live record with start <= key <= end in ascending
	// key order, calling fn for each until fn returns false or the range
	// is exhausted. The value slice is lent to fn for that one call: every
	// row is read into one buffer the scan reuses, so fn copies whatever it
	// keeps.
	Scan(start, end uint64, fn func(key uint64, value []byte) bool) error
}

// orderedBlockMax bounds one sidecar block; a block that outgrows it
// splits in two, keeping inserts O(block) instead of O(keys). The memory
// cost of the sidecar is 8 bytes per live key plus per-block slice
// headers — ~8.1 bytes/record at this block size.
const orderedBlockMax = 512

// orderedKeys is the insert-only sorted key set behind every Scanner:
// sorted non-overlapping blocks of ascending uint64 keys. Lookups binary
// search the block directory then the block. The fast path is the
// overwrite (key already present), which takes only the read lock.
type orderedKeys struct {
	mu     sync.RWMutex
	blocks [][]uint64
}

// insertMany adds every key of kvs with one read-locked membership pass;
// the write lock is taken only from the first absent key on, which on
// overwrite-dominated traffic is almost never.
func (o *orderedKeys) insertMany(kvs []KV) {
	o.mu.RLock()
	i := 0
	for i < len(kvs) && o.containsLocked(kvs[i].Key) {
		i++
	}
	o.mu.RUnlock()
	if i == len(kvs) {
		return
	}
	o.mu.Lock()
	for ; i < len(kvs); i++ {
		o.insertLocked(kvs[i].Key)
	}
	o.mu.Unlock()
}

// containsLocked reports membership; the caller holds mu (either mode).
func (o *orderedKeys) containsLocked(k uint64) bool {
	bi := o.blockFor(k)
	if bi >= len(o.blocks) {
		return false
	}
	b := o.blocks[bi]
	pos := sort.Search(len(b), func(i int) bool { return b[i] >= k })
	return pos < len(b) && b[pos] == k
}

// blockFor returns the index of the only block that could contain k: the
// last block whose first key is <= k (0 if k sorts before everything).
func (o *orderedKeys) blockFor(k uint64) int {
	bi := sort.Search(len(o.blocks), func(i int) bool { return o.blocks[i][0] > k }) - 1
	if bi < 0 {
		bi = 0
	}
	return bi
}

func (o *orderedKeys) insertLocked(k uint64) {
	if len(o.blocks) == 0 {
		o.blocks = append(o.blocks, []uint64{k})
		return
	}
	bi := o.blockFor(k)
	b := o.blocks[bi]
	pos := sort.Search(len(b), func(i int) bool { return b[i] >= k })
	if pos < len(b) && b[pos] == k {
		return
	}
	b = append(b, 0)
	copy(b[pos+1:], b[pos:])
	b[pos] = k
	if len(b) <= orderedBlockMax {
		o.blocks[bi] = b
		return
	}
	// Split: left half keeps the slot, right half slides in after it. The
	// halves get private arrays so later appends never alias each other.
	half := len(b) / 2
	left := append([]uint64(nil), b[:half]...)
	right := append([]uint64(nil), b[half:]...)
	o.blocks[bi] = left
	o.blocks = append(o.blocks, nil)
	copy(o.blocks[bi+2:], o.blocks[bi+1:])
	o.blocks[bi+1] = right
}

// chunk appends to out (up to its capacity) the keys in [start, end],
// ascending, and returns the extended slice. Bounded chunks are what let
// Scan release the sidecar lock before it takes the table's.
func (o *orderedKeys) chunk(start, end uint64, out []uint64) []uint64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	bi := sort.Search(len(o.blocks), func(i int) bool {
		b := o.blocks[i]
		return b[len(b)-1] >= start
	})
	for ; bi < len(o.blocks); bi++ {
		b := o.blocks[bi]
		lo := sort.Search(len(b), func(i int) bool { return b[i] >= start })
		for _, k := range b[lo:] {
			if k > end {
				return out
			}
			out = append(out, k)
			if len(out) == cap(out) {
				return out
			}
		}
	}
	return out
}
