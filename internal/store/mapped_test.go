package store

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// unmapKept gives every mapping on the free list back to the system, so a
// test starts from an empty list and a mapping a closed table gave back is
// gone: a table that read it after that would fault.
func unmapKept() {
	mapped.mu.Lock()
	free := mapped.free
	mapped.free, mapped.kept = nil, 0
	mapped.mu.Unlock()
	for _, l := range free {
		for _, b := range l {
			sysUnmap(b)
		}
	}
}

// keptBytes returns the bytes on the free list.
func keptBytes() int {
	mapped.mu.Lock()
	defer mapped.mu.Unlock()
	return mapped.kept
}

// isKept reports whether the free list holds the mapping that starts at
// base.
func isKept(base *byte) bool {
	mapped.mu.Lock()
	defer mapped.mu.Unlock()
	for _, l := range mapped.free {
		for _, b := range l {
			if unsafe.SliceData(b) == base {
				return true
			}
		}
	}
	return false
}

// slotBase is where the mapping of x's slot array starts.
func slotBase(x *index) *byte { return (*byte)(unsafe.Pointer(unsafe.SliceData(x.slots))) }

// TestClosedStoreMappingsReused: the store opened after another closed
// takes the closed one's index and pages, and what it reads through them is
// its own: none of the old keys, an index with every slot empty, and the
// values written since.
func TestClosedStoreMappingsReused(t *testing.T) {
	unmapKept()
	const keys = 5000
	before := MappedBytes()
	old := NewMemStore(keys)
	val := bytes.Repeat([]byte{0xAB}, 100)
	for k := uint64(0); k < keys; k++ {
		if err := old.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	slots := slotBase(&old.t.index)
	pages := make(map[*byte]bool)
	for _, p := range old.t.pages {
		pages[unsafe.SliceData(p)] = true
	}
	if MappedBytes() == before {
		t.Fatal("a store of 5000 records maps nothing")
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if got := MappedBytes(); got != before {
		t.Fatalf("%d bytes still mapped after Close, %d before the store opened", got, before)
	}

	s := NewMemStore(keys)
	defer s.Close()
	if slotBase(&s.t.index) != slots {
		t.Fatal("the new store's index is not the closed store's mapping")
	}
	for i, sl := range s.t.index.slots {
		if sl != (slot{}) {
			t.Fatalf("slot %d of the reused index reads %+v, want empty", i, sl)
		}
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("the new store holds %d keys", n)
	}
	for k := uint64(0); k < keys; k++ {
		if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%d) on the new store = %v, want ErrNotFound", k, err)
		}
	}
	want := []byte("new")
	if err := s.Put(7, want); err != nil {
		t.Fatal(err)
	}
	if !pages[unsafe.SliceData(s.t.pages[0])] {
		t.Fatal("the new store's first page is not one of the closed store's")
	}
	if got, err := s.Get(7); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get(7) = (%q, %v), want %q", got, err, want)
	}
}

// TestCloseRacesReadersAndWriters: Close while AppendValue, Scan, PutMany
// and (on the disk store) Compact run: each either completes or returns
// ErrClosed, and none reads the table's memory once Close gave it back —
// the free list is emptied to the system right after Close, so one that did
// would fault.
func TestCloseRacesReadersAndWriters(t *testing.T) {
	open := map[string]func(t *testing.T) Store{
		"mem": func(*testing.T) Store { return NewMemStore(0) },
		"disk": func(t *testing.T) Store {
			s, err := OpenShardedDisk(t.TempDir(), ShardedDiskOptions{CompactRatio: -1})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, open := range open {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 10; round++ {
				testCloseRace(t, open(t), time.Duration(round)*300*time.Microsecond)
			}
		})
	}
}

func testCloseRace(t *testing.T, s Store, after time.Duration) {
	const keys = 128
	kvs := make([]KV, keys)
	for k := range kvs {
		// Values past largeValue take mappings of their own.
		kvs[k] = KV{Key: uint64(k), Value: bytes.Repeat([]byte{byte(k)}, 8+k%3*largeValue)}
	}
	if err := s.PutMany(kvs); err != nil {
		t.Fatal(err)
	}
	fail := func(op string, err error) bool {
		if errors.Is(err, ErrClosed) {
			return true
		}
		if err != nil {
			t.Errorf("%s: %v", op, err)
			return true
		}
		return false
	}
	var wg sync.WaitGroup
	run := func(op string, fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !fail(op, fn(i)); i++ {
			}
		}()
	}
	run("AppendValue", func(i int) error {
		k := uint64(i % keys)
		v, err := s.(ValueAppender).AppendValue(nil, k)
		if err == nil && !bytes.Equal(v, kvs[k].Value) {
			return fmt.Errorf("key %d reads %d bytes, want %d", k, len(v), len(kvs[k].Value))
		}
		return err
	})
	run("Scan", func(int) error {
		var bad error
		err := s.Scan(0, keys, func(k uint64, v []byte) bool {
			if !bytes.Equal(v, kvs[k].Value) {
				bad = fmt.Errorf("key %d scans as %d bytes, want %d", k, len(v), len(kvs[k].Value))
			}
			return bad == nil
		})
		return errors.Join(err, bad)
	})
	run("PutMany", func(i int) error {
		part := kvs[i%4*keys/4 : (i%4+1)*keys/4]
		return s.PutMany(part)
	})
	if c, ok := s.(Compactor); ok {
		run("Compact", func(int) error { return c.Compact() })
	}
	time.Sleep(after)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	unmapKept()
	wg.Wait()
}

// TestUnclosedStoreReturnsMappings: a store nobody closes gives its table's
// memory back once the collector finds it unreachable.
func TestUnclosedStoreReturnsMappings(t *testing.T) {
	unmapKept()
	before := MappedBytes()
	s := NewMemStore(1000)
	for k := uint64(0); k < 1000; k++ {
		if err := s.Put(k, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	base := slotBase(&s.t.index)
	held := MappedBytes() - before
	s = nil
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		if isKept(base) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("an unreachable store still holds its %d mapped bytes after 10 s of collections", held)
		}
	}
	if got := MappedBytes(); got > before {
		t.Fatalf("%d bytes mapped after the store's cleanup, %d before it opened", got, before)
	}
}

// TestFreeListBounded: closing more tables than the free list has room for
// keeps at most keepMapped bytes and gives the rest back to the system.
func TestFreeListBounded(t *testing.T) {
	unmapKept()
	defer unmapKept()
	const hint = 100_000 // a 131 072-slot index: 3 MiB, mapped and never touched
	before := MappedBytes()
	size := mapLength(131072 * slotSize)
	var stores []*MemStore
	for len(stores)*size <= keepMapped {
		stores = append(stores, NewMemStore(hint))
	}
	for _, s := range stores {
		s.Close()
	}
	if kept := keptBytes(); kept > keepMapped || kept <= keepMapped-size {
		t.Fatalf("closing %d tables of %d bytes kept %d bytes, want the most up to %d", len(stores), size, kept, keepMapped)
	}
	if got := MappedBytes(); got != before {
		t.Fatalf("%d bytes mapped after every table closed, %d before", got, before)
	}
}
