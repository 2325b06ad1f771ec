// Package pool implements the buffer-pool management of Section 4.8:
// encode and frame buffers are recycled instead of being allocated and
// freed once per message.
package pool

import (
	"sync"
	"sync/atomic"
)

// BytePool recycles byte slices bucketed by capacity class. It backs the
// encoding buffers of the output threads and the zero-copy frame arenas
// of the receive path, where message sizes vary with batch size and
// payload (Sections 5.3 and 5.5). Hit/miss counters let the node stats
// tick and the benchmark observe reuse.
//
// Each class is a free list bounded by bytes and by count (classBytes,
// classBufs), holding the slices themselves: a Put stores a slice header, not a box around one, so
// a steady Get/Put cycle allocates nothing, and the stock survives garbage
// collections, which a sync.Pool's does not. The zero value is ready to
// use.
type BytePool struct {
	classes [numClasses]freeList

	hits   atomic.Uint64
	misses atomic.Uint64
}

// freeList is one class's stock.
type freeList struct {
	mu   sync.Mutex
	bufs [][]byte
}

const (
	minClassBits = 8  // 256 B
	maxClassBits = 24 // 16 MiB
	numClasses   = maxClassBits - minClassBits + 1
	// classBytes is the most stock one class keeps, and classBufs the
	// most buffers: 256 of up to 16 KiB, 64 of 64 KiB, and one of any class
	// larger than classBytes.
	classBytes = 4 << 20
	classBufs  = 256
)

// keep is how many buffers class c keeps.
func keep(c int) int { return min(max(classBytes>>(c+minClassBits), 1), classBufs) }

// classFor returns the bucket index for a capacity, or -1 if out of range.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	bits := 0
	for (1 << bits) < n {
		bits++
	}
	if bits < minClassBits {
		return 0
	}
	if bits > maxClassBits {
		return -1
	}
	return bits - minClassBits
}

// Get returns a zero-length slice with capacity at least n.
func (b *BytePool) Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		b.misses.Add(1)
		return make([]byte, 0, n)
	}
	l := &b.classes[c]
	l.mu.Lock()
	if k := len(l.bufs); k > 0 {
		s := l.bufs[k-1]
		l.bufs[k-1] = nil
		l.bufs = l.bufs[:k-1]
		l.mu.Unlock()
		b.hits.Add(1)
		return s[:0]
	}
	l.mu.Unlock()
	b.misses.Add(1)
	return make([]byte, 0, 1<<(c+minClassBits))
}

// Stats returns the cumulative hit and miss counts. A miss is a Get that
// had to allocate — either an empty class or an out-of-range size.
func (b *BytePool) Stats() (hits, misses uint64) {
	return b.hits.Load(), b.misses.Load()
}

// Put recycles a slice obtained from Get. A slice its class has no room
// for is left to the collector.
func (b *BytePool) Put(s []byte) {
	if cap(s) < 1<<minClassBits || cap(s) > 1<<maxClassBits {
		return
	}
	// The class the capacity fully covers, so Get's capacity promise holds.
	c := maxClassBits - minClassBits
	for cap(s) < 1<<(c+minClassBits) {
		c--
	}
	l := &b.classes[c]
	l.mu.Lock()
	if l.bufs == nil {
		// The class's one allocation: every later Put stores into it.
		l.bufs = make([][]byte, 0, keep(c))
	}
	if len(l.bufs) < cap(l.bufs) {
		l.bufs = append(l.bufs, s[:0])
	}
	l.mu.Unlock()
}
