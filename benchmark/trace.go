package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// span is one timed interval at a layer boundary. Driver spans share the
// request id (Req) and name their parent; wrapper spans carry the replica
// that made the call and no parent — tying them to a request needs tracing
// inside the program (ROADMAP item 2).
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Req     uint64 `json:"req,omitempty"`
	Replica int    `json:"replica"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// N and Bytes are the counts taken at the same boundary: messages and
	// bytes for transport.send, KVs or rows for store spans.
	N     int `json:"n,omitempty"`
	Bytes int `json:"bytes,omitempty"`
}

// maxSpansPerRecorder bounds each recorder's in-memory span list (and so
// the trace file); the per-layer metrics come from counters that keep
// counting past it.
const maxSpansPerRecorder = 4096

// tracer is the switch and clock every recorder of one run shares. While
// off, the wrappers pass calls straight through, so one system serves both
// the untraced reference window and the traced window of a traced run.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// recorder is a mutex-guarded capped span list; each wrapper owns one, so
// replicas do not contend on a shared trace buffer.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpansPerRecorder {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// tracedEndpoint counts and times every Send a replica makes. Inbox and the
// rest pass through untouched — the replica reads queue depths off the
// inbox channels themselves.
type tracedEndpoint struct {
	transport.Endpoint
	tr      *tracer
	replica int
	rec     recorder

	msgs   atomic.Uint64
	bytes  atomic.Uint64
	sendNS atomic.Uint64
}

func (e *tracedEndpoint) Send(env *types.Envelope) error {
	if !e.tr.on.Load() {
		return e.Endpoint.Send(env)
	}
	size := env.EncodedSize() // before Send: ownership of env moves with it
	start := e.tr.now()
	err := e.Endpoint.Send(env)
	end := e.tr.now()
	e.msgs.Add(1)
	e.bytes.Add(uint64(size))
	e.sendNS.Add(uint64(end - start))
	e.rec.add(span{Name: "transport.send", Replica: e.replica, Start: start, End: end, N: 1, Bytes: size})
	return err
}

// storeCounters is what a tracedStore accumulates while tracing is on.
type storeCounters struct {
	writeCalls, putManyCalls, kvs, writeNS atomic.Uint64
	gets, getNS                            atomic.Uint64
	scanRows, scanNS                       atomic.Uint64
}

// tracedStore times the record-store calls the execute stage makes. The
// replica type-asserts optional store capabilities, so the wrapper must
// advertise exactly what the wrapped backend has: tracedStore covers
// MemStore (Batcher + Scanner) and tracedDurableStore adds the sharded disk
// store's SyncStatser + Compactor.
type tracedStore struct {
	inner   store.Store
	batcher store.Batcher
	scanner store.Scanner
	tr      *tracer
	replica int
	rec     recorder
	c       storeCounters
}

type tracedDurableStore struct {
	*tracedStore
	store.SyncStatser
	store.Compactor
}

// wrapStore returns the store to hand to the replica and the tracedStore
// inside it, whose counters and spans the benchmark reads afterwards.
func wrapStore(tr *tracer, replica int, st store.Store) (store.Store, *tracedStore) {
	ts := &tracedStore{inner: st, tr: tr, replica: replica}
	ts.batcher, _ = st.(store.Batcher)
	ts.scanner, _ = st.(store.Scanner)
	ss, isSync := st.(store.SyncStatser)
	co, isCompactor := st.(store.Compactor)
	if isSync && isCompactor {
		return &tracedDurableStore{tracedStore: ts, SyncStatser: ss, Compactor: co}, ts
	}
	return ts, ts
}

func (s *tracedStore) Len() int     { return s.inner.Len() }
func (s *tracedStore) Close() error { return s.inner.Close() }

func (s *tracedStore) Put(key uint64, value []byte) error {
	if !s.tr.on.Load() {
		return s.inner.Put(key, value)
	}
	start := s.tr.now()
	err := s.inner.Put(key, value)
	end := s.tr.now()
	s.c.writeCalls.Add(1)
	s.c.kvs.Add(1)
	s.c.writeNS.Add(uint64(end - start))
	s.rec.add(span{Name: "store.put", Replica: s.replica, Start: start, End: end, N: 1})
	return err
}

func (s *tracedStore) PutMany(kvs []store.KV) error {
	if !s.tr.on.Load() {
		return s.batcher.PutMany(kvs)
	}
	start := s.tr.now()
	err := s.batcher.PutMany(kvs)
	end := s.tr.now()
	s.c.writeCalls.Add(1)
	s.c.putManyCalls.Add(1)
	s.c.kvs.Add(uint64(len(kvs)))
	s.c.writeNS.Add(uint64(end - start))
	s.rec.add(span{Name: "store.putmany", Replica: s.replica, Start: start, End: end, N: len(kvs)})
	return err
}

func (s *tracedStore) Get(key uint64) ([]byte, error) {
	if !s.tr.on.Load() {
		return s.inner.Get(key)
	}
	start := s.tr.now()
	v, err := s.inner.Get(key)
	end := s.tr.now()
	s.c.gets.Add(1)
	s.c.getNS.Add(uint64(end - start))
	s.rec.add(span{Name: "store.get", Replica: s.replica, Start: start, End: end, N: 1})
	return v, err
}

func (s *tracedStore) Scan(start, end uint64, fn func(key uint64, value []byte) bool) error {
	if !s.tr.on.Load() {
		return s.scanner.Scan(start, end, fn)
	}
	rows := 0
	t0 := s.tr.now()
	err := s.scanner.Scan(start, end, func(k uint64, v []byte) bool {
		rows++
		return fn(k, v)
	})
	t1 := s.tr.now()
	s.c.scanRows.Add(uint64(rows))
	s.c.scanNS.Add(uint64(t1 - t0))
	s.rec.add(span{Name: "store.scan", Replica: s.replica, Start: t0, End: t1, N: rows})
	return err
}

// writeTrace writes the spans kept in memory during the run, once, at the
// end.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
