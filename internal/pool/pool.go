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
type BytePool struct {
	pools [numClasses]sync.Pool
	// boxes recycles the *[]byte headers the class pools store, so a
	// steady-state Get/Put cycle allocates nothing at all — without it
	// every Put would heap-allocate a fresh header for its slice.
	boxes sync.Pool

	hits   atomic.Uint64
	misses atomic.Uint64
}

const (
	minClassBits = 8  // 256 B
	maxClassBits = 24 // 16 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

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
	if v := b.pools[c].Get(); v != nil {
		if p, ok := v.(*[]byte); ok && cap(*p) >= n {
			s := *p
			*p = nil
			b.boxes.Put(p)
			b.hits.Add(1)
			return s[:0]
		}
	}
	b.misses.Add(1)
	return make([]byte, 0, 1<<(c+minClassBits))
}

// Stats returns the cumulative hit and miss counts. A miss is a Get that
// had to allocate — either an empty class or an out-of-range size.
func (b *BytePool) Stats() (hits, misses uint64) {
	return b.hits.Load(), b.misses.Load()
}

// Put recycles a slice obtained from Get.
func (b *BytePool) Put(s []byte) {
	c := classFor(cap(s))
	if c < 0 {
		return
	}
	// Only recycle slices that exactly fit their class so Get's capacity
	// promise holds.
	if cap(s) != 1<<(c+minClassBits) {
		if cap(s) < 1<<minClassBits {
			return
		}
		// Find the class the capacity fully covers.
		c = -1
		for bits := maxClassBits; bits >= minClassBits; bits-- {
			if cap(s) >= 1<<bits {
				c = bits - minClassBits
				break
			}
		}
		if c < 0 {
			return
		}
	}
	var p *[]byte
	if v := b.boxes.Get(); v != nil {
		p = v.(*[]byte)
	} else {
		p = new([]byte)
	}
	*p = s[:0]
	b.pools[c].Put(p)
}
