package store

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// The record table's memory — its value pages, its large values and its
// index's slot array — is not the Go heap's. On unix it is anonymous
// mappings (mapped_unix.go), which the collector neither scans nor counts
// in its heap goal, so a replica's records no longer set how far the heap
// grows before the next collection; elsewhere it is heap slices
// (mapped_other.go). The collector does not see mapped memory, so nothing
// stored in it may be a Go pointer: what it pointed to could be freed under
// it (TestTableHoldsNoPointers).
//
// A table gives its memory back at defined points: the pages it drops when
// it repacks, a large value's own mapping when the value moves, its old
// slot array when its index grows, and everything when its store closes —
// or, for a store nobody closed, once the collector finds the store
// unreachable (NewMemStore's cleanup). What comes back goes on one
// process-wide free list, up to keepMapped bytes, and the next table takes
// from it before it maps anything: a replica built after another one closed
// takes the closed one's memory, already faulted in, instead of faulting
// fresh pages. What the list has no room for is unmapped.

// keepMapped is the most the free list keeps: a benchmark system's four
// 100 000-record tables (about 13 MiB each) fit, so one set-up's tables are
// the next one's.
const keepMapped = 64 << 20

// mapped is the free list, by mapping length.
var mapped struct {
	mu   sync.Mutex
	free map[int][][]byte
	kept int // bytes on free
}

// liveMapped counts the bytes of the mappings tables hold.
var liveMapped atomic.Int64

// MappedBytes returns how many bytes of memory outside the Go heap the
// record tables of open stores hold. Once every store is closed it reads
// what it read before they were opened; anything more is a leak. (On
// platforms without anonymous mappings the tables' heap slices are counted
// the same way.)
func MappedBytes() int64 { return liveMapped.Load() }

// mapLength is the length of the mapping that holds n bytes.
func mapLength(n int) int { return (n + mapUnit - 1) / mapUnit * mapUnit }

// mapBytes returns n bytes of table memory: length n, capacity the whole
// mapping, taken from the free list when it holds a mapping of that length.
// A fresh mapping is zero; a reused one is cleared only when zero is set —
// a page's bytes are written before any entry reaches them, an index's
// slots are read as they are.
func mapBytes(n int, zero bool) []byte {
	size := mapLength(n)
	var b []byte
	mapped.mu.Lock()
	if l := mapped.free[size]; len(l) > 0 {
		b = l[len(l)-1]
		l[len(l)-1] = nil
		mapped.free[size] = l[:len(l)-1]
		mapped.kept -= size
	}
	mapped.mu.Unlock()
	if b == nil {
		b = sysMap(size)
	} else if zero {
		clear(b)
	}
	liveMapped.Add(int64(size))
	return b[:n]
}

// unmapBytes gives back memory mapBytes returned, resliced or not (its
// start and capacity name the mapping): to the free list while it has
// room, else to the system. The caller keeps no reference into it. A nil
// slice is nothing to give back.
func unmapBytes(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	size := len(b)
	liveMapped.Add(-int64(size))
	mapped.mu.Lock()
	if mapped.kept+size <= keepMapped {
		if mapped.free == nil {
			mapped.free = make(map[int][][]byte)
		}
		mapped.free[size] = append(mapped.free[size], b)
		mapped.kept += size
		b = nil
	}
	mapped.mu.Unlock()
	if b != nil {
		sysUnmap(b)
	}
}

const slotSize = int(unsafe.Sizeof(slot{}))

// mapSlots returns n empty index slots in table memory.
func mapSlots(n int) []slot {
	b := mapBytes(n*slotSize, true)
	return unsafe.Slice((*slot)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// unmapSlots gives back a slot array mapSlots returned, or nothing for nil.
func unmapSlots(s []slot) {
	unmapBytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), mapLength(cap(s)*slotSize)))
}
