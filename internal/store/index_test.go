package store

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// probes returns the mean and the largest number of slots a lookup of a
// key the index holds examines, its home slot included (key 0, held apart,
// examines none and is left out).
func (x *index) probes() (mean float64, most int) {
	total := 0
	for i := range x.slots {
		if s := &x.slots[i]; s.key != 0 {
			n := int((uint64(i)-x.home(s.key))&x.mask) + 1
			total += n
			most = max(most, n)
		}
	}
	return float64(total) / float64(x.n), most
}

// sharers returns n keys other than 1 whose home in x's slot array is key
// 1's: keys that collide until the index next doubles.
func (x *index) sharers(n int) []uint64 {
	var keys []uint64
	for k := uint64(2); len(keys) < n; k++ {
		if x.home(k) == x.home(1) {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkTableModel runs ops on a table whose index has the given seed and on
// a map beside it, three bytes an op: what to do, a key and a length. The
// low bit of the first says put or get, and the next two which key: 0, the
// second byte, the largest key less the second byte, or one of eight keys
// that share key 1's home. A length byte of 0 puts an empty value, 255 one
// too large for a page, any other that many times 8 bytes, so a key's values
// grow, shrink and move between slots. Every get is checked against the map
// as it runs, and the whole table every 1024 ops and at the end: each
// key's value, the key count, and that each visits every key once. It
// returns how often the index doubled and the table repacked.
func checkTableModel(t *testing.T, seed uint64, ops []byte) (doublings, repacks int) {
	t.Helper()
	tab := newTable(0)
	tab.index.seed = seed
	model := map[uint64][]byte{}
	shared := map[uint64][]uint64{} // by slot mask
	for i := 0; i+3 <= len(ops); i += 3 {
		what, k, l := ops[i], ops[i+1], ops[i+2]
		var key uint64
		switch what >> 1 & 3 {
		case 0:
		case 1:
			key = uint64(k)
		case 2:
			key = math.MaxUint64 - uint64(k)
		case 3:
			if shared[tab.index.mask] == nil {
				shared[tab.index.mask] = tab.index.sharers(8)
			}
			key = shared[tab.index.mask][k%8]
		}
		if what&1 == 1 {
			got, ok := tab.get(key)
			if want, held := model[key]; ok != held || !bytes.Equal(got, want) {
				t.Fatalf("op %d: get(%d) = (%d bytes, %v), the model (%d bytes, %v)", i/3, key, len(got), ok, len(want), held)
			}
			continue
		}
		n := int(l) * 8
		if l == 255 {
			n = largeValue + 1 + int(k)
		}
		v := bytes.Repeat([]byte{byte(i / 3)}, n)
		slots, classes := len(tab.index.slots), len(tab.free)
		_, existed := model[key]
		if got := tab.put(key, v); got != existed {
			t.Fatalf("op %d: put(%d) reports existed=%v, the model %v", i/3, key, got, existed)
		}
		model[key] = v
		if len(tab.index.slots) > slots && slots > 0 {
			doublings++
		}
		if len(tab.free) < classes { // only a repack drops the free lists
			repacks++
		}
		if i/3%1024 == 1023 {
			checkModel(t, &tab, model)
		}
	}
	checkModel(t, &tab, model)
	return doublings, repacks
}

// checkModel is checkTable, and that each visits every key of the model once
// with its entry's length.
func checkModel(t *testing.T, tab *table, model map[uint64][]byte) {
	t.Helper()
	checkTable(t, tab, model)
	seen := map[uint64]bool{}
	tab.index.each(func(k uint64, e *entry) {
		if want, held := model[k]; seen[k] || !held || int(e.length) != len(want) {
			t.Fatalf("each visits key %d (again: %v) with %d bytes, the model holds (%d bytes, %v)", k, seen[k], e.length, len(want), held)
		}
		seen[k] = true
	})
	if len(seen) != len(model) {
		t.Fatalf("each visits %d keys, the model holds %d", len(seen), len(model))
	}
}

// FuzzTableMatchesModel: any sequence of puts and gets leaves the table
// holding what a map holds (checkTableModel).
func FuzzTableMatchesModel(f *testing.F) {
	f.Add(uint64(0), []byte{0, 0, 3, 1, 0, 0, 0, 0, 0, 1, 0, 0}) // key 0: put, get, overwrite empty, get
	f.Add(uint64(1), []byte{6, 0, 1, 6, 1, 1, 6, 2, 1, 6, 3, 1, 6, 0, 100, 7, 0, 0, 7, 3, 0, 7, 4, 0})
	f.Add(uint64(2), []byte{2, 9, 10, 2, 9, 8, 2, 9, 11, 2, 9, 3, 2, 9, 255, 2, 9, 1, 3, 9, 0}) // fits, grows, shrinks, goes large
	f.Add(uint64(3), tableOps(rand.New(rand.NewSource(3)), 600, 0))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		checkTableModel(t, seed, ops[:min(len(ops), 3*4096)])
	})
}

// tableOps returns n random ops for checkTableModel, half puts and half
// gets, most on the first 256 keys. Put lengths drift up by drift per 500
// ops, so values outgrow their slots for good and the free lists fill.
func tableOps(rng *rand.Rand, n, drift int) []byte {
	ops := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		family := []byte{0, 1, 1, 1, 1, 2, 3, 3}[rng.Intn(8)]
		l := min(254, 1+rng.Intn(8)+drift*i/500)
		switch rng.Intn(16) {
		case 0:
			l = 0
		case 1:
			l = 255
		}
		ops = append(ops, family<<1|byte(rng.Intn(2)), byte(rng.Intn(256)), byte(l))
	}
	return ops
}

// TestTableMatchesModelThroughGrowth runs checkTableModel over ops that take
// the table from an empty index through several doublings and repacks. A
// test and not a seed: the fuzzing engine would spend most of its time on an
// input this long.
func TestTableMatchesModelThroughGrowth(t *testing.T) {
	doublings, repacks := checkTableModel(t, 5, tableOps(rand.New(rand.NewSource(5)), 30_000, 8))
	t.Logf("%d doublings, %d repacks", doublings, repacks)
	if doublings < 3 || repacks < 1 {
		t.Fatalf("%d doublings and %d repacks, want at least 3 and 1", doublings, repacks)
	}
}

// TestPutManyMatchesPuts: a partition's writes land exactly as the same
// writes put one by one, when a key comes back later in the partition after
// a write that changed its length, moved it, or made it new, and when the
// writes before such a key overwrite others in place.
func TestPutManyMatchesPuts(t *testing.T) {
	v := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	preload := []KV{{1, v(1, 10)}, {2, v(2, 100)}, {3, v(3, 40)}}
	for name, kvs := range map[string][]KV{
		"grows then fits":      {{2, v(4, 100)}, {1, v(5, 20)}, {1, v(6, 20)}},
		"shrinks then regrows": {{3, v(4, 40)}, {3, v(5, 4)}, {3, v(6, 40)}},
		"new then overwritten": {{1, v(4, 10)}, {9, v(5, 10)}, {9, v(6, 10)}, {0, v(7, 3)}, {0, nil}},
		"same length twice":    {{2, v(4, 100)}, {2, v(5, 100)}, {3, v(6, 40)}},
	} {
		t.Run(name, func(t *testing.T) {
			many, one := newTable(4), newTable(4)
			many.putMany(preload)
			for _, kv := range preload {
				one.put(kv.Key, kv.Value)
			}
			fresh := many.putMany(kvs)
			wantFresh := false
			for _, kv := range kvs {
				if !one.put(kv.Key, kv.Value) {
					wantFresh = true
				}
			}
			if fresh != wantFresh {
				t.Fatalf("putMany reports fresh=%v, puts %v", fresh, wantFresh)
			}
			if many.bytes != one.bytes || many.held != one.held || many.freed != one.freed || many.index.len() != one.index.len() {
				t.Fatalf("putMany leaves bytes/held/freed/keys %d/%d/%d/%d, puts %d/%d/%d/%d",
					many.bytes, many.held, many.freed, many.index.len(), one.bytes, one.held, one.freed, one.index.len())
			}
			one.index.each(func(k uint64, e *entry) {
				got, _ := many.get(k)
				want, _ := one.get(k)
				if many.entry(k) != *e || !bytes.Equal(got, want) {
					t.Fatalf("key %d: putMany leaves %+v (%q), puts %+v (%q)", k, many.entry(k), got, *e, want)
				}
			})
		})
	}
}

// TestIndexSeedsDiffer: two tables made in one process hash with different
// seeds, so keys that share a home in one are spread in the other.
func TestIndexSeedsDiffer(t *testing.T) {
	a, b := newTable(0), newTable(0)
	if a.index.seed == b.index.seed {
		t.Fatalf("two tables hash with the same seed %#x", a.index.seed)
	}
}
