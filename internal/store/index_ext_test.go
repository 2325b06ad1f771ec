package store_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"resilientdb/internal/store"
	"resilientdb/internal/workload"
)

// TestIndexAdversarialKeys fills an index to 7/8, the fullest it gets, with
// key families that defeat a weak hash: sequential keys, strides of 2^k for
// every k (all of whose keys share their low k bits, and so a home under
// any hash of the low bits alone), one shared low-17-bit residue, and the
// keys the YCSB Zipf generator draws. Each must probe like keys drawn at
// random. Linear probing at load a examines (1 + 1/(1-a))/2 slots on
// average for a key it holds (Knuth), 4.5 at 7/8: the mean may exceed that
// by a quarter, in a family of 1024 keys or more (a stride of 2^54 or more
// holds fewer, and the mean of a few dozen keys scatters by chance). Robin
// Hood placement keeps the longest walk at 7/8 to a few dozen slots (40 to
// 69 for the worst of these families, over 111 seeds; plain placement left
// 360 to 470); no key may sit more than 128 from home.
// A hash of the low bits alone puts a stride's keys on a few homes, and
// then the mean runs to thousands.
func TestIndexAdversarialKeys(t *testing.T) {
	const n = 1 << 17 / 8 * 7
	families := map[string][]uint64{}
	seq := make([]uint64, n)
	residue := make([]uint64, n)
	for i := range seq {
		seq[i] = uint64(i + 1)
		residue[i] = uint64(i)<<17 | 0x1abcd
	}
	families["sequential"], families["residue"] = seq, residue
	for k := 0; k < 64; k++ {
		var keys []uint64
		for i := uint64(1); i < n+1 && i<<k>>k == i; i++ {
			keys = append(keys, i<<k)
		}
		families[fmt.Sprintf("stride-2^%d", k)] = keys
	}
	zipf := workload.NewZipfian(rand.New(rand.NewSource(13)), 600_000, 0.99)
	seen := map[uint64]bool{0: true}
	var drawn []uint64
	for i := 0; i < 40*n && len(drawn) < n; i++ {
		if k := zipf.Next(); !seen[k] {
			seen[k] = true
			drawn = append(drawn, k)
		}
	}
	families["ycsb-zipf"] = drawn
	random := rand.New(rand.NewSource(7))
	uniform := make([]uint64, n)
	for i := range uniform {
		uniform[i] = random.Uint64() | 1
	}
	families["random"] = uniform

	for name, keys := range families {
		slots, mean, most := store.IndexProbes(keys)
		load := float64(len(keys)) / float64(slots)
		bound := 1.25 * (1 + 1/(1-load)) / 2
		if !strings.HasPrefix(name, "stride") {
			t.Logf("%-12s %6d keys in %6d slots (load %.3f): mean probe %.2f (bound %.2f), longest %d", name, len(keys), slots, load, mean, bound, most)
		}
		if mean > bound && len(keys) >= 1024 || most > 128 {
			t.Errorf("%s: %d keys in %d slots probe %.2f slots on average (bound %.2f), at most %d (bound 128)", name, len(keys), slots, mean, bound, most)
		}
	}
}
