package chaos

import (
	"errors"
	"sync/atomic"
	"time"

	"resilientdb/internal/store"
)

// ErrInjectedWrite is the error returned by writes that StoreFaults chose
// to fail.
var ErrInjectedWrite = errors.New("chaos: injected write error")

// StoreFaults injects disk-layer faults into a wrapped store.Store:
// a per-write stall (modelling a saturated or degraded device) and a
// deterministic fail-every-Nth write error. Faults can be flipped while
// the store is in use; counters are atomic.
type StoreFaults struct {
	stallNS   atomic.Int64
	failEvery atomic.Int64
	writeSeq  atomic.Uint64

	Stalls         atomic.Uint64
	InjectedErrors atomic.Uint64
}

// NewStoreFaults returns a fault-free injector.
func NewStoreFaults() *StoreFaults { return &StoreFaults{} }

// SetWriteStall makes every Put/PutMany/Append sleep for d before touching
// the store; 0 disables the stall.
func (sf *StoreFaults) SetWriteStall(d time.Duration) { sf.stallNS.Store(int64(d)) }

// SetFailEvery makes every nth write (counted across Put, PutMany and
// Append calls) fail with ErrInjectedWrite without reaching the store; 0
// disables injection. Counting is deterministic, so tests can assert the
// exact number of injected failures.
func (sf *StoreFaults) SetFailEvery(n int) { sf.failEvery.Store(int64(n)) }

// before runs the fault schedule for one write call and reports whether
// the write should fail.
func (sf *StoreFaults) before() error {
	if d := sf.stallNS.Load(); d > 0 {
		sf.Stalls.Add(1)
		time.Sleep(time.Duration(d))
	}
	if n := sf.failEvery.Load(); n > 0 {
		if sf.writeSeq.Add(1)%uint64(n) == 0 {
			sf.InjectedErrors.Add(1)
			return ErrInjectedWrite
		}
	}
	return nil
}

// WrapStore wraps st with sf's write-fault injection. The wrapper is a
// store.Backend, so the replica runs the same write path through it as
// without it: a wrapped store is appended to, the ticket waited for where
// the replica waits. A wrapped disk store keeps its log's SyncStatser and
// Compactor, and a wrapped MemStore does not grow SyncStats it cannot
// honestly report. Its signature (modulo the receiver) matches
// cluster.Options.StoreWrapper.
func (sf *StoreFaults) WrapStore(st store.Store) store.Store {
	f := &faultStore{Backend: store.AsBackend(st), sf: sf}
	s, isS := st.(store.SyncStatser)
	c, isC := st.(store.Compactor)
	if isS && isC {
		return &faultLog{faultStore: f, SyncStatser: s, Compactor: c}
	}
	return f
}

// faultStore injects the faults on every write call; reads and the durable
// wait pass through untouched (the harness targets the write path, and the
// fsync is the real one).
type faultStore struct {
	store.Backend
	sf *StoreFaults
}

func (f *faultStore) Put(key uint64, value []byte) error {
	if err := f.sf.before(); err != nil {
		return err
	}
	return f.Backend.Put(key, value)
}

func (f *faultStore) PutMany(kvs []store.KV) error {
	if err := f.sf.before(); err != nil {
		return err
	}
	return f.Backend.PutMany(kvs)
}

// Append takes the write faults where the write happens: a stalled disk
// delays the append and with it the ticket, an injected error loses the
// partition.
func (f *faultStore) Append(kvs []store.KV, prev store.Ticket) (store.Ticket, error) {
	if err := f.sf.before(); err != nil {
		return prev, err
	}
	return f.Backend.Append(kvs, prev)
}

// faultLog is a wrapped disk store: a faultStore plus the log's accounting
// and compaction, which pass through.
type faultLog struct {
	*faultStore
	store.SyncStatser
	store.Compactor
}

var (
	_ store.Backend     = (*faultStore)(nil)
	_ store.Backend     = (*faultLog)(nil)
	_ store.SyncStatser = (*faultLog)(nil)
	_ store.Compactor   = (*faultLog)(nil)
)
