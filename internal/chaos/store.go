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

// WrapStore wraps st with sf's write-fault injection. The wrapper
// preserves the inner store's optional capabilities exactly — the replica
// type-asserts store.Batcher, store.Appender, store.SyncStatser,
// store.Compactor, store.Scanner and store.ValueAppender, so a wrapped
// ShardedDiskStore must still advertise all of them (without Appender its
// execute shards would quietly run the blocking PutMany fallback and the
// disk scenarios would test a path deployments do not take) and a wrapped
// MemStore must not grow SyncStats it cannot honestly report. Both backends
// implement Scanner and ValueAppender, so each typed variant requires them;
// a capability combination with no matching backend falls back to the
// capability-free core.
// Its signature (modulo the receiver) matches cluster.Options.StoreWrapper.
func (sf *StoreFaults) WrapStore(st store.Store) store.Store {
	base := faultStore{inner: st, sf: sf}
	b, isB := st.(store.Batcher)
	s, isS := st.(store.SyncStatser)
	c, isC := st.(store.Compactor)
	sc, isSc := st.(store.Scanner)
	a, isA := st.(store.Appender)
	va, isVa := st.(store.ValueAppender)
	switch {
	case isB && isA && isS && isC && isSc && isVa: // ShardedDiskStore
		return &faultStoreBSC{faultStore: base, b: b, a: a, s: s, c: c, sc: sc, ValueAppender: va}
	case isB && isSc && isVa: // MemStore
		return &faultStoreB{faultStore: base, b: b, sc: sc, ValueAppender: va}
	default:
		return &faultStore{inner: st, sf: sf}
	}
}

// faultStore is the capability-free core wrapper; reads pass through
// untouched (the harness targets the write/durability path).
type faultStore struct {
	inner store.Store
	sf    *StoreFaults
}

func (f *faultStore) Put(key uint64, value []byte) error {
	if err := f.sf.before(); err != nil {
		return err
	}
	return f.inner.Put(key, value)
}

func (f *faultStore) Get(key uint64) ([]byte, error) { return f.inner.Get(key) }
func (f *faultStore) Len() int                       { return f.inner.Len() }
func (f *faultStore) Close() error                   { return f.inner.Close() }

func (f *faultStore) putMany(b store.Batcher, kvs []store.KV) error {
	if err := f.sf.before(); err != nil {
		return err
	}
	return b.PutMany(kvs)
}

type faultStoreB struct {
	faultStore
	b  store.Batcher
	sc store.Scanner
	store.ValueAppender
}

func (f *faultStoreB) PutMany(kvs []store.KV) error { return f.putMany(f.b, kvs) }
func (f *faultStoreB) Scan(start, end uint64, fn func(uint64, []byte) bool) error {
	return f.sc.Scan(start, end, fn)
}

type faultStoreBSC struct {
	faultStore
	b  store.Batcher
	a  store.Appender
	s  store.SyncStatser
	c  store.Compactor
	sc store.Scanner
	store.ValueAppender
}

func (f *faultStoreBSC) PutMany(kvs []store.KV) error { return f.putMany(f.b, kvs) }

// Append takes the write faults where the write happens: a stalled disk
// delays the append and with it the ticket, an injected error loses the
// partition. WaitDurable passes through — the fsync is the real one.
func (f *faultStoreBSC) Append(kvs []store.KV, prev store.Ticket) (store.Ticket, error) {
	if err := f.sf.before(); err != nil {
		return prev, err
	}
	return f.a.Append(kvs, prev)
}
func (f *faultStoreBSC) WaitDurable(t store.Ticket) error { return f.a.WaitDurable(t) }

func (f *faultStoreBSC) SyncStats() store.SyncStats       { return f.s.SyncStats() }
func (f *faultStoreBSC) MaybeCompact() (int, error)       { return f.c.MaybeCompact() }
func (f *faultStoreBSC) Compact() error                   { return f.c.Compact() }
func (f *faultStoreBSC) CompactStats() store.CompactStats { return f.c.CompactStats() }
func (f *faultStoreBSC) Scan(start, end uint64, fn func(uint64, []byte) bool) error {
	return f.sc.Scan(start, end, fn)
}

// Compile-time capability checks: the wrappers must mirror the backends.
var (
	_ store.Store         = (*faultStore)(nil)
	_ store.Batcher       = (*faultStoreB)(nil)
	_ store.Scanner       = (*faultStoreB)(nil)
	_ store.ValueAppender = (*faultStoreB)(nil)
	_ store.Batcher       = (*faultStoreBSC)(nil)
	_ store.Appender      = (*faultStoreBSC)(nil)
	_ store.SyncStatser   = (*faultStoreBSC)(nil)
	_ store.Compactor     = (*faultStoreBSC)(nil)
	_ store.Scanner       = (*faultStoreBSC)(nil)
	_ store.ValueAppender = (*faultStoreBSC)(nil)
)
