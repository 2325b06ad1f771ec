package store

// IndexProbes puts keys into an index sized for them and returns its slot
// count and the mean and the largest number of slots a lookup of one of
// them examines. Keys are distinct and none is 0.
func IndexProbes(keys []uint64) (slots int, mean float64, most int) {
	x := newIndex(len(keys))
	for _, k := range keys {
		x.insert(k, entry{})
	}
	mean, most = x.probes()
	return len(x.slots), mean, most
}
