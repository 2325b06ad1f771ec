//go:build !unix

package store

// mapUnit is the granularity of a table allocation where there are no
// mappings: a slot, so that the sizes an index doubles through stay apart.
const mapUnit = 8

// sysMap returns a heap slice where anonymous mappings are not used: the
// table works the same, and the collector counts it, as it always did.
func sysMap(size int) []byte { return make([]byte, size) }

// sysUnmap leaves the slice to the collector.
func sysUnmap([]byte) {}
