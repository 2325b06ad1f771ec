package pool

import (
	"runtime"
	"testing"
)

func TestBytePoolCapacityPromise(t *testing.T) {
	var bp BytePool
	for _, n := range []int{1, 100, 256, 300, 4096, 100000} {
		s := bp.Get(n)
		if cap(s) < n {
			t.Fatalf("Get(%d) capacity %d", n, cap(s))
		}
		if len(s) != 0 {
			t.Fatalf("Get(%d) length %d, want 0", n, len(s))
		}
		bp.Put(s)
		s2 := bp.Get(n)
		if cap(s2) < n {
			t.Fatalf("recycled Get(%d) capacity %d", n, cap(s2))
		}
	}
}

func TestBytePoolHugeSlices(t *testing.T) {
	var bp BytePool
	s := bp.Get(1 << 25) // beyond the largest class
	if cap(s) < 1<<25 {
		t.Fatal("huge Get under capacity")
	}
	bp.Put(s) // must not panic; slice is simply dropped
}

// TestBytePoolKeepsStockAcrossCollections: what a warm pool holds is still
// there after two garbage collections — a sync.Pool drops its stock at
// each — and a Get hands back the very buffers that were put.
func TestBytePoolKeepsStockAcrossCollections(t *testing.T) {
	var bp BytePool
	const n = 8
	put := make(map[*byte]bool)
	var bufs [][]byte
	for i := 0; i < n; i++ {
		bufs = append(bufs, bp.Get(4000))
	}
	for _, b := range bufs {
		put[&b[:1][0]] = true
		bp.Put(b)
	}
	runtime.GC()
	runtime.GC()
	_, missed := bp.Stats()
	for i := 0; i < n; i++ {
		b := bp.Get(4000)
		if !put[&b[:1][0]] {
			t.Fatalf("Get %d after two collections returned a buffer that was never put", i)
		}
		delete(put, &b[:1][0])
	}
	if _, misses := bp.Stats(); misses != missed {
		t.Fatalf("%d Gets after two collections missed", misses-missed)
	}
}

// TestBytePoolBoundedPerClass: a class keeps at most classBytes of stock,
// and what does not fit is dropped, not queued.
func TestBytePoolBoundedPerClass(t *testing.T) {
	var bp BytePool
	const size = 64 << 10
	c := classFor(size)
	var bufs [][]byte
	for i := 0; i < keep(c)+5; i++ {
		bufs = append(bufs, bp.Get(size))
	}
	for _, b := range bufs {
		bp.Put(b)
	}
	if got := len(bp.classes[c].bufs); got != keep(c) || got*size > classBytes {
		t.Fatalf("class of %d B keeps %d buffers, want %d (%d bytes at most)", size, got, keep(c), classBytes)
	}
}

// TestBytePoolPutAllocatesNothing: once a class's list has grown, putting
// and getting a buffer allocates nothing — no box, no header.
func TestBytePoolPutAllocatesNothing(t *testing.T) {
	var bp BytePool
	b := bp.Get(1000)
	bp.Put(b)
	if n := testing.AllocsPerRun(1000, func() { bp.Put(bp.Get(1000)) }); n != 0 {
		t.Fatalf("a Get/Put cycle allocates %.1f", n)
	}
}
