package store

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// pageBytes is the memory t holds in pages, large values' included.
func (t *table) pageBytes() int {
	n := 0
	for _, p := range t.pages {
		n += len(p)
	}
	return n
}

// entry returns key's entry, or the zero entry for a key t does not hold.
func (t *table) entry(key uint64) entry {
	if e, ok := t.index.find(key); ok {
		return *e
	}
	return entry{}
}

// checkTable compares every key of model with t, and the byte count t keeps
// with the model's values.
func checkTable(t *testing.T, tab *table, model map[uint64][]byte) {
	t.Helper()
	if tab.index.len() != len(model) {
		t.Fatalf("table holds %d keys, want %d", tab.index.len(), len(model))
	}
	total := 0
	for k, want := range model {
		got, ok := tab.get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("get(%d) = (%d bytes, %v), want %d bytes", k, len(got), ok, len(want))
		}
		total += len(want)
	}
	if tab.bytes != total {
		t.Fatalf("table counts %d value bytes, its values hold %d", tab.bytes, total)
	}
}

// TestTableReusesFreedSlots: a value that moves leaves its slot to the next
// value of its size class, and over many rounds of values that grow, shrink
// and change class on a fixed key set the pages stop growing, within a small
// factor of the most bytes ever live at once.
func TestTableReusesFreedSlots(t *testing.T) {
	t.Run("next-of-class", func(t *testing.T) {
		tab := newTable(0)
		tab.put(1, make([]byte, 10))
		freed := tab.entry(1)
		tab.put(1, make([]byte, 100)) // outgrows its slot and moves
		if tab.entry(1).off == freed.off {
			t.Fatalf("a value that outgrew its slot stayed at offset %d", freed.off)
		}
		tab.put(2, bytes.Repeat([]byte{2}, 13)) // a new key of the freed slot's class
		if got := tab.entry(2); got.page != freed.page || got.off != freed.off {
			t.Fatalf("the next value of the freed class went to %+v, want the freed slot %+v", got, freed)
		}
		checkTable(t, &tab, map[uint64][]byte{1: make([]byte, 100), 2: bytes.Repeat([]byte{2}, 13)})
	})

	t.Run("bounded", func(t *testing.T) {
		const keys, rounds = 4096, 200
		rng := rand.New(rand.NewSource(7))
		tab := newTable(keys)
		model := make(map[uint64][]byte, keys)
		live, peak, settled := 0, 0, 0
		for r := 0; r < rounds; r++ {
			for k := uint64(0); k < keys; k++ {
				// Short, record-sized and long values: keys move between
				// classes both ways, and one that grows moves.
				var n int
				switch rng.Intn(3) {
				case 0:
					n = rng.Intn(16)
				case 1:
					n = 90 + rng.Intn(20)
				default:
					n = 200 + rng.Intn(200)
				}
				v := bytes.Repeat([]byte{byte(r + int(k))}, n)
				live += n - len(model[k])
				tab.put(k, v)
				model[k] = v
				peak = max(peak, live)
			}
			if r == rounds/4 {
				settled = tab.pageBytes()
			}
		}
		checkTable(t, &tab, model)
		held := tab.pageBytes()
		t.Logf("%d keys: %d page bytes after %d rounds, %d after %d; peak live %d (%.2fx)", keys, settled, rounds/4+1, held, rounds, peak, float64(held)/float64(peak))
		if held > settled+pageSize {
			t.Errorf("pages grew from %d to %d bytes between rounds %d and %d: freed slots are not reused", settled, held, rounds/4+1, rounds)
		}
		if held > 3*peak {
			t.Errorf("pages hold %d bytes after %d rounds, more than 3x the peak live %d", held, rounds, peak)
		}
	})

	// Every value grows by one class a round, so no later value takes the
	// slot a move frees: the pages follow the live bytes only because the
	// table repacks, and an empty and a large value ride through the repacks.
	t.Run("growing", func(t *testing.T) {
		const keys, rounds = 512, 150
		tab := newTable(keys)
		model := map[uint64][]byte{keys: {}, keys + 1: bytes.Repeat([]byte{9}, pageSize+1)}
		for k, v := range model {
			tab.put(k, v)
		}
		most := 0
		for r := 1; r <= rounds; r++ {
			for k := uint64(0); k < keys; k++ {
				v := bytes.Repeat([]byte{byte(r + int(k))}, r*classStep)
				tab.put(k, v)
				model[k] = v
				most = max(most, tab.pageBytes())
			}
		}
		checkTable(t, &tab, model)
		peak := keys*rounds*classStep + pageSize + 1
		t.Logf("%d keys grown over %d classes: at most %d page bytes, peak live %d (%.2fx)", keys, rounds, most, peak, float64(most)/float64(peak))
		if most > 3*peak {
			t.Errorf("pages held up to %d bytes, more than 3x the peak live %d: slots freed by values that grew are kept", most, peak)
		}
	})
}

// TestTableEdgeValues: an empty value is present and empty, and a value
// larger than a page is stored, overwritten in place, and moved, its page
// going to the next large value.
func TestTableEdgeValues(t *testing.T) {
	tab := newTable(0)
	model := map[uint64][]byte{}
	put := func(k uint64, v []byte) {
		tab.put(k, v)
		model[k] = v
		checkTable(t, &tab, model)
	}
	put(1, []byte{})
	put(2, bytes.Repeat([]byte{2}, pageSize+1))
	put(2, bytes.Repeat([]byte{3}, pageSize)) // fits: stays
	put(1, []byte("grown"))
	put(2, bytes.Repeat([]byte{4}, 2*pageSize)) // outgrows: moves to the spare page
	if len(tab.pages) != 2 {
		t.Fatalf("table holds %d pages, want 2: a moved large value's page is reused", len(tab.pages))
	}
	put(2, nil) // moves off its page, which goes spare
	put(3, []byte{})
	put(4, bytes.Repeat([]byte{5}, largeValue+1))
	if len(tab.pages) != 2 {
		t.Fatalf("table holds %d pages, want 2: a spare page is reused", len(tab.pages))
	}
}

// hasPointers reports whether a value of type typ holds a pointer the
// garbage collector would follow.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}

// TestTableHoldsNoPointers keeps the record tables out of the garbage
// collector's work: it fails if an index slot (its key or its entry), or a
// page's element, becomes a type that holds a pointer (a slice put into the
// entry, say), which would make every collection trace every record again.
func TestTableHoldsNoPointers(t *testing.T) {
	var tab table
	slots, pages := reflect.TypeOf(tab.index.slots), reflect.TypeOf(tab.pages)
	for _, typ := range []reflect.Type{slots.Elem(), pages.Elem().Elem()} {
		if hasPointers(typ) {
			t.Errorf("table holds %v, a type with pointers", typ)
		}
	}
	if size := slots.Elem().Size(); size > 24 {
		t.Errorf("an index slot is %d bytes, more than a key and its entry's 24", size)
	}
	if !hasPointers(reflect.TypeOf([]byte(nil))) || !hasPointers(reflect.TypeOf(struct{ p *int }{})) {
		t.Fatal("hasPointers misses a pointer")
	}
}
