package store

import "math/rand/v2"

// slot is one key of the index beside its entry: 24 bytes and no pointers,
// so a lookup that finds its key finds its entry in the same read, and the
// collector never scans the index. A slot whose key is 0 is empty; key 0
// itself is held apart, in index.zero.
type slot struct {
	key uint64
	e   entry
}

// minSlots is the size of an index's first slot array.
const minSlots = 8

// index maps keys to entries by open addressing: a power-of-two array of
// slots, searched linearly from a key's home slot to the key or to an empty
// slot, and rehashed into twice the slots before it is more than 7/8 full.
// There is no delete, so there are no tombstones.
//
// A key's home is a hash of it and a seed drawn when the index is made, so
// which keys share a home differs from index to index and from run to run,
// and no client that chooses its keys can pile them onto one run of slots.
// Inserts place keys Robin Hood fashion: a key walking from its home takes
// the slot of one that sits nearer its own, and that one walks on. The runs
// of full slots are the same as without it (a lookup walks as far), but no
// key ends up far from home: at 7/8 full a lookup examines 4.5 slots on
// average, as for any linear probing, and a few dozen at most, not hundreds.
type index struct {
	slots []slot
	mask  uint64 // len(slots) - 1
	seed  uint64
	// n counts the keys in slots; key 0, when present, is the one more.
	n       int
	zero    entry
	hasZero bool
	// sink keeps warm's loads: the compiler drops a load whose value
	// nothing uses.
	sink uint64
}

// newIndex returns an index with room for hint keys before it first grows.
func newIndex(hint int) index {
	x := index{seed: rand.Uint64()}
	if hint > 0 {
		size := minSlots
		for size/8*7 < hint {
			size *= 2
		}
		x.slots, x.mask = make([]slot, size), uint64(size-1)
	}
	return x
}

// len returns the number of keys held.
func (x *index) len() int {
	if x.hasZero {
		return x.n + 1
	}
	return x.n
}

// home returns key's home slot: fmix64, MurmurHash3's finalizer, of key
// and the seed, whose every output bit depends on every input bit.
func (x *index) home(key uint64) uint64 {
	h := key ^ x.seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h & x.mask
}

// find returns key's entry, to read or to update in place, and whether key
// is held. The pointer is good until the next insert.
func (x *index) find(key uint64) (*entry, bool) {
	if key == 0 {
		return &x.zero, x.hasZero
	}
	if x.n == 0 {
		return nil, false
	}
	for i := x.home(key); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.key == key {
			return &s.e, true
		}
		if s.key == 0 {
			return nil, false
		}
	}
}

// warm reads the home slot of every key in kvs. The loads depend on
// nothing loaded before them and decide no branch, so the processor has as
// many of their cache misses in flight at once as it can; a lookup that
// tests each slot it loads waits on every miss in turn, since whether its
// key sits in its home slot is a branch the processor mispredicts as often
// as not. Called before a partition's writes, it leaves their lookups to
// find their slots in cache.
func (x *index) warm(kvs []KV) {
	if x.n == 0 {
		return
	}
	var acc uint64
	for i := range kvs {
		acc ^= x.slots[x.home(kvs[i].Key)].key
	}
	x.sink = acc
}

// insert adds key, which the index does not hold, with entry e.
func (x *index) insert(key uint64, e entry) {
	if key == 0 {
		x.zero, x.hasZero = e, true
		return
	}
	if (x.n+1)*8 > len(x.slots)*7 {
		x.grow()
	}
	x.n++
	x.place(slot{key: key, e: e})
}

// grow rehashes the keys into twice the slots.
func (x *index) grow() {
	old := x.slots
	size := max(2*len(old), minSlots)
	x.slots, x.mask = make([]slot, size), uint64(size-1)
	for i := range old {
		if old[i].key != 0 {
			x.place(old[i])
		}
	}
}

// place puts s into the first slot from its home that is empty or holds a
// key nearer its own home than s is to s's, and walks the key it displaces
// on the same way. The slots must have room.
func (x *index) place(s slot) {
	dist := uint64(0)
	for i := x.home(s.key); ; i = (i + 1) & x.mask {
		cur := &x.slots[i]
		if cur.key == 0 {
			*cur = s
			return
		}
		if d := (i - x.home(cur.key)) & x.mask; d < dist {
			*cur, s = s, *cur
			dist = d
		}
		dist++
	}
}

// each calls fn with every key and its entry, which fn may change in place,
// in no particular order.
func (x *index) each(fn func(key uint64, e *entry)) {
	if x.hasZero {
		fn(0, &x.zero)
	}
	for i := range x.slots {
		if s := &x.slots[i]; s.key != 0 {
			fn(s.key, &s.e)
		}
	}
}
