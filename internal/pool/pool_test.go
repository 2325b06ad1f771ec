package pool

import "testing"

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
