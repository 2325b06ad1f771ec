package store

import "sync"

// readIndex is an in-memory map of each key's latest applied value,
// maintained alongside the append log. With it enabled, Get is
// answered entirely from memory — no log-file read, no log lock — so
// the locally-served read path never stalls behind writers,
// group commits, or compaction rewrites. Writers update the index after
// appending, so it always reflects the applied (not necessarily yet
// fsynced) state, which is exactly the last-executed snapshot the local
// read path serves; durability remains the log's concern.
//
// The raw store leaves the index off by default: the Section 5.7
// experiment's property under test is the blocking storage API, and an
// always-on cache would erase the contrast. OpenBackend turns it on for
// replica deployments.
type readIndex struct {
	mu sync.RWMutex
	m  map[uint64][]byte
}

func newReadIndex(hint int) *readIndex {
	return &readIndex{m: make(map[uint64][]byte, hint)}
}

// get returns a copy of the latest value for key, so callers can hold the
// result while writers keep updating the index.
func (ri *readIndex) get(key uint64) ([]byte, bool) {
	ri.mu.RLock()
	v, ok := ri.m[key]
	if !ok {
		ri.mu.RUnlock()
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	ri.mu.RUnlock()
	return out, true
}

// putMany stores a batch under one lock acquisition, in place where a
// value fits the slice its key already holds (see overwrite; get copies
// out under the same lock). Callers may recycle their buffers.
func (ri *readIndex) putMany(kvs []KV) {
	ri.mu.Lock()
	for i := range kvs {
		overwrite(ri.m, kvs[i].Key, kvs[i].Value)
	}
	ri.mu.Unlock()
}

// loadReadIndex eagerly populates a fresh index from a just-recovered
// log: every live record's value is read back once at open, after which
// no Get ever touches the file again.
func loadReadIndex(f interface {
	ReadAt(p []byte, off int64) (int, error)
}, index map[uint64]recordRef) (*readIndex, error) {
	ri := newReadIndex(len(index))
	for k, ref := range index {
		v := make([]byte, ref.length)
		if _, err := f.ReadAt(v, ref.off); err != nil {
			return nil, err
		}
		ri.m[k] = v
	}
	return ri, nil
}
