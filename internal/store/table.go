package store

import "encoding/binary"

// The record table (MemStore's, and so the disk store's) keeps its values
// in pages and its index pointer-free, so a table costs the garbage
// collector nothing per record: the index is an array of plain structs
// (index.go) and the pages are byte slices, neither of which the collector
// scans, and a new key allocates only when it fills a page or the index
// doubles.
const (
	// pageSize is the size of the pages small values are carved from.
	pageSize = 64 << 10
	// largeValue is the longest value carved from a page; a longer one gets
	// an allocation of its own, so no page ends in a large unused tail.
	largeValue = pageSize / 4
	// classStep is the granularity of slot sizes: a slot is the value's
	// length rounded up to it, and freed slots are reused by size class.
	classStep = 8
)

// entry locates a key's value: the first length bytes of the slot at
// pages[page][off:off+capacity]. It holds no pointers.
type entry struct {
	page, off, length, capacity uint32
}

// table maps keys to values held in pages. It has no lock: its owner's lock
// guards it, writers (set, put) holding it exclusively and readers (get)
// copying a value out before they release it, because a writer overwrites a
// value that fits its slot in place.
//
// A value that no longer fits its slot moves to a new one and its old slot
// goes on the free list of its size class, for the next value of that class.
// A free slot's first 8 bytes link to the next free slot of its class, so
// the lists cost no memory of their own. Slots freed in a class that no
// later value takes (values that grow for good, say) are not lost: once the
// free lists hold more bytes than the keys do, the table copies its values
// into new pages and drops the old ones, so the pages stay within a small
// factor of the bytes live.
type table struct {
	index index
	pages [][]byte
	// cur is the page small values are carved from, and room how much of it
	// is still uncarved, at its end.
	cur, room uint32
	// free holds, per size class (slot size / classStep), the reference
	// (page<<32 | off, plus one; zero ends a list) of the first free slot.
	free []uint64
	// spare lists the pages whose large value moved, for the next page.
	spare []uint32
	// held is the bytes of the page slots keys hold, and freed those on the
	// free lists.
	held, freed int
	// bytes is the length of every key's value, together: with a record
	// header per key, what a log rewritten from the table holds.
	bytes int
}

func newTable(hint int) table {
	return table{index: newIndex(hint)}
}

// get returns the value stored under key, lent: it aliases the page, so the
// caller copies what it keeps before it releases the owner's lock.
func (t *table) get(key uint64) ([]byte, bool) {
	e, ok := t.index.find(key)
	if !ok || e.length == 0 {
		return nil, ok
	}
	return t.pages[e.page][e.off : e.off+e.length : e.off+e.length], true
}

// put stores value under key and reports whether key was already there.
func (t *table) put(key uint64, value []byte) bool {
	dst, existed := t.set(key, len(value))
	copy(dst, value)
	return existed
}

// putMany stores every write of kvs in order and reports whether any key
// was new. It first reads every key's home slot (index.warm), so that the
// cache misses of a partition's lookups overlap instead of each waiting
// behind the write before it, and then puts the writes one by one.
func (t *table) putMany(kvs []KV) (fresh bool) {
	t.index.warm(kvs)
	for i := range kvs {
		if !t.put(kvs[i].Key, kvs[i].Value) {
			fresh = true
		}
	}
	return fresh
}

// set makes key's value n bytes long and returns them for the caller to
// fill, and whether key was already there. A value that fits the key's slot
// — no longer than it and at least half as long — stays in it, and its
// entry is written back only when the length changes; any other moves, so
// a slot is never more than twice what it holds and the bytes kept follow
// the bytes live, not each key's longest value.
func (t *table) set(key uint64, n int) ([]byte, bool) {
	p, ok := t.index.find(key)
	var e entry
	if ok {
		e = *p
	}
	t.bytes += n - int(e.length)
	switch {
	case !ok || uint32(n) > e.capacity || uint32(n) < e.capacity/2:
		if ok {
			t.release(e)
		}
		e = t.alloc(uint32(n))
		if ok {
			*p = e
		} else {
			t.index.insert(key, e)
		}
		if t.freed > t.held && t.freed >= pageSize {
			t.repack()
			p, _ = t.index.find(key)
			e = *p
		}
	case uint32(n) != e.length:
		e.length = uint32(n)
		p.length = e.length
	}
	if n == 0 {
		return nil, ok
	}
	return t.pages[e.page][e.off : e.off+e.length], ok
}

// alloc returns a slot for an n-byte value: a large value's own page, else
// a free slot of its class, else the next bytes of the current page.
func (t *table) alloc(n uint32) entry {
	if n == 0 {
		return entry{}
	}
	if n > largeValue {
		return entry{page: t.addPage(make([]byte, n)), length: n, capacity: n}
	}
	size := (n + classStep - 1) / classStep * classStep
	if c := size / classStep; int(c) < len(t.free) && t.free[c] != 0 {
		ref := t.free[c] - 1
		e := entry{page: uint32(ref >> 32), off: uint32(ref), length: n, capacity: size}
		t.free[c] = binary.LittleEndian.Uint64(t.pages[e.page][e.off:])
		t.freed -= int(size)
		t.held += int(size)
		return e
	}
	if size > t.room {
		if t.room > 0 {
			// The current page's uncarved end is a free slot like any other.
			t.push(entry{page: t.cur, off: pageSize - t.room, capacity: t.room})
		}
		t.cur, t.room = t.addPage(make([]byte, pageSize)), pageSize
	}
	e := entry{page: t.cur, off: pageSize - t.room, length: n, capacity: size}
	t.room -= size
	t.held += int(size)
	return e
}

// release returns a slot that no key holds any more.
func (t *table) release(e entry) {
	switch {
	case e.capacity == 0:
	case e.capacity > largeValue:
		t.pages[e.page] = nil
		t.spare = append(t.spare, e.page)
	default:
		t.held -= int(e.capacity)
		t.push(e)
	}
}

// push puts a page slot on the free list of its class.
func (t *table) push(e entry) {
	c := e.capacity / classStep
	if int(c) >= len(t.free) {
		// One allocation, built with the race detector too, where
		// append(t.free, make(...)...) makes two.
		free := make([]uint64, int(c)+1)
		copy(free, t.free)
		t.free = free
	}
	binary.LittleEndian.PutUint64(t.pages[e.page][e.off:], t.free[c])
	t.free[c] = (uint64(e.page)<<32 | uint64(e.off)) + 1
	t.freed += int(e.capacity)
}

// repack copies every small value into new pages, in fresh slots of its
// class, keeps each large value's allocation, and drops the old pages with
// everything on the free lists. It copies the bytes live and runs only once
// more bytes than that have been freed since it last ran, so its cost is
// bounded by the writes that freed them.
func (t *table) repack() {
	old := t.pages
	t.pages, t.free, t.spare = nil, nil, nil
	t.cur, t.room, t.held, t.freed = 0, 0, 0, 0
	t.index.each(func(_ uint64, e *entry) {
		switch {
		case e.capacity == 0:
		case e.capacity > largeValue:
			e.page = t.addPage(old[e.page])
		default:
			src := old[e.page][e.off : e.off+e.length]
			*e = t.alloc(e.length)
			copy(t.pages[e.page][e.off:], src)
		}
	})
}

// addPage stores p in a spare page slot, or a new one, and returns its
// number.
func (t *table) addPage(p []byte) uint32 {
	if n := len(t.spare); n > 0 {
		i := t.spare[n-1]
		t.spare = t.spare[:n-1]
		t.pages[i] = p
		return i
	}
	t.pages = append(t.pages, p)
	return uint32(len(t.pages) - 1)
}
