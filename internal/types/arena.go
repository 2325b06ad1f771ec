// Arena-backed zero-copy decode: the buffer-pool management of the
// paper's Section 4.8 applied to the receive path. A frame read from the
// network borrows its buffer from a pool; every envelope decoded out of
// the frame holds a reference on the shared arena, and the buffer returns
// to the pool when the last pipeline stage releases its envelope. A message
// that carries client requests is decoded as views into the frame
// (DecodeEnvelope) and keeps a reference of its own on the arena until its
// last holder lets go (hold.go) — the request is never copied until a
// store persists it.

package types

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// FrameBuffers is the slice recycler an arena returns its buffer to.
// *pool.BytePool satisfies it; the indirection keeps types free of a
// dependency on the pool package.
type FrameBuffers interface {
	// Get returns a zero-length slice with capacity at least n.
	Get(n int) []byte
	// Put recycles a slice obtained from Get.
	Put(s []byte)
}

// Arena is one reference-counted pooled buffer shared by everything
// decoded out of it (or encoded into it). Retain adds a reference;
// Release drops one and returns the buffer to its FrameBuffers when the
// count reaches zero. After that point any slice aliasing the buffer may
// be overwritten by a future borrower, so a reference must outlive every
// alias: a view with no bounded lifetime is copied instead.
type Arena struct {
	buf  []byte
	bufs FrameBuffers
	refs atomic.Int32
}

// arenaPool recycles Arena structs themselves: one is born and retired
// per frame on the hot path, so leaving them to the garbage collector
// would put an allocation back on every receive.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// NewArena wraps buf, owned by bufs, with an initial reference count of
// one (the caller's reference).
func NewArena(buf []byte, bufs FrameBuffers) *Arena {
	a := arenaPool.Get().(*Arena)
	a.buf, a.bufs = buf, bufs
	a.refs.Store(1)
	return a
}

// Retain adds a reference. It is a no-op on a nil arena, so callers on
// paths where pooling may be disabled need no guard.
func (a *Arena) Retain() {
	if a == nil {
		return
	}
	a.refs.Add(1)
}

// Release drops one reference. The last one recycles the Arena struct and
// returns the buffer to its FrameBuffers. Releasing more times than
// retained corrupts the pool; missing a release only leaks the buffer to
// the garbage collector. Nil arenas are no-ops.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	if a.refs.Add(-1) != 0 {
		return
	}
	buf, bufs := a.buf, a.bufs
	a.buf, a.bufs = nil, nil
	arenaPool.Put(a)
	if bufs != nil && buf != nil {
		bufs.Put(buf)
	}
}

// envelopePool recycles Envelope structs on the pooled decode and encode
// paths. Only envelopes handed out by AcquireEnvelope return here.
var envelopePool = sync.Pool{New: func() any { return new(Envelope) }}

// AcquireEnvelope returns a pooled Envelope. Release returns it to the
// pool once its owner retires it; each acquired envelope must be released
// exactly once.
func AcquireEnvelope() *Envelope {
	e := envelopePool.Get().(*Envelope)
	e.pooled = true
	return e
}

// Attach ties e's lifetime to a, taking a new reference: the envelope's
// Body (or the batch it was decoded from) aliases a's buffer, and
// Release will drop the reference along with the envelope. Attaching nil
// is a no-op, matching marshal paths that run with pooling disabled.
func (e *Envelope) Attach(a *Arena) {
	if a == nil {
		return
	}
	a.Retain()
	e.arena = a
}

// Release retires the envelope: it drops the arena reference backing
// Body, if any, and returns pooled envelopes to the pool. It is safe on
// plain (non-pooled, non-arena) envelopes, where it is a no-op, and on
// nil. Each envelope has exactly one owner at a time; the owner releases
// it exactly once and must not touch it afterwards.
func (e *Envelope) Release() {
	if e == nil {
		return
	}
	a := e.arena
	e.arena = nil
	if a != nil {
		a.Release()
	}
	if e.pooled {
		*e = Envelope{}
		if poisonLent.Load() {
			e.auth = poisonAuth
		}
		envelopePool.Put(e)
	}
}

// Prepare, Commit and Checkpoint are most of a replica's traffic, inbound
// and outbound, and each lives for one engine step or one encode:
// DecodeEnvelope decodes them into structs recycled here, and engines build
// the ones they emit in them. So does a primary's engine with every
// PrePrepare it proposes, which lives until broadcast has encoded it, and
// DecodeEnvelope with a local read's ReadRequest, which lives until its
// reply is encoded and keeps its op array from read to read.
var (
	preparePool     = sync.Pool{New: func() any { return new(Prepare) }}
	commitPool      = sync.Pool{New: func() any { return new(Commit) }}
	checkpointPool  = sync.Pool{New: func() any { return new(Checkpoint) }}
	prePreparePool  = sync.Pool{New: func() any { return &PrePrepare{lent: true} }}
	readRequestPool = sync.Pool{New: func() any { return new(ReadRequest) }}
)

// AcquireVote returns a recycled struct for a vote type — *Prepare, *Commit
// or *Checkpoint — and nil for any other. Its fields hold whatever its last
// user left: whoever acquires one sets every field. A vote an engine emits
// is lent to the driver, which gives it back with ReleaseMessage once
// encoded.
func AcquireVote(t MsgType) Message {
	switch t {
	case MsgPrepare:
		return preparePool.Get().(*Prepare)
	case MsgCommit:
		return commitPool.Get().(*Commit)
	case MsgCheckpoint:
		return checkpointPool.Get().(*Checkpoint)
	}
	return nil
}

// AcquirePrePrepare returns a recycled PrePrepare for an engine to propose
// in. Its fields hold whatever its last user left: the engine sets every
// one. It is lent to the driver like an emitted vote, and given back with
// ReleaseMessage once encoded; one never given back is simply not reused.
func AcquirePrePrepare() *PrePrepare { return prePreparePool.Get().(*PrePrepare) }

// acquireLent returns a recycled struct to decode a body of type t into — a
// vote's or a ReadRequest's — and nil for any other type.
func acquireLent(t MsgType) Message {
	if t == MsgReadRequest {
		return readRequestPool.Get().(*ReadRequest)
	}
	return AcquireVote(t)
}

// releaseLent gives back a vote or ReadRequest DecodeEnvelope decoded, once
// the step it was decoded for is over, or a vote or lent PrePrepare an
// engine emitted, once it is encoded; whoever keeps one past that point
// keeps a copy. It ignores every other message: a decoded proposal goes
// back with ReleaseMessage, which tells the two kinds of PrePrepare apart.
func releaseLent(m Message) {
	poison := poisonLent.Load()
	switch v := m.(type) {
	case *Prepare:
		if poison {
			*v = Prepare{View: poisonView, Seq: poisonSeq, Digest: poisonDigest, Replica: poisonReplica}
		}
		preparePool.Put(v)
	case *Commit:
		if poison {
			*v = Commit{View: poisonView, Seq: poisonSeq, Digest: poisonDigest, Replica: poisonReplica}
		}
		commitPool.Put(v)
	case *Checkpoint:
		if poison {
			*v = Checkpoint{Seq: poisonSeq, StateDigest: poisonDigest, Replica: poisonReplica, Sig: Signature(poisonAuth)}
		}
		checkpointPool.Put(v)
	case *PrePrepare:
		if poison {
			*v = PrePrepare{View: poisonView, Seq: poisonSeq, Digest: poisonDigest, Requests: poisonRequests, lent: true}
		} else {
			*v = PrePrepare{lent: true} // let go of the batch's requests
		}
		prePreparePool.Put(v)
	case *ReadRequest:
		if poison {
			for i := range v.ops {
				v.ops[i] = poisonOps[0]
			}
			*v = ReadRequest{Client: poisonClient, ClientSeq: uint64(poisonSeq), MinSeq: poisonSeq, Ops: poisonOps, ops: v.ops}
		}
		readRequestPool.Put(v)
	}
}

// poisonLent is the test hook behind SetPoisonLent.
var poisonLent atomic.Bool

// What lent memory reads once poisoned: 0xDB in every byte.
const (
	poisonView    = View(0xDBDBDBDBDBDBDBDB)
	poisonSeq     = SeqNum(0xDBDBDBDBDBDBDBDB)
	poisonReplica = ReplicaID(0xDBDB)
)

var (
	poisonAuth   = [InlineAuthSize]byte(bytes.Repeat([]byte{0xDB}, InlineAuthSize))
	poisonDigest = Digest(bytes.Repeat([]byte{0xDB}, len(Digest{})))
)

// SetPoisonLent switches on (or off) the overwriting of what is lent rather
// than given: a pooled envelope's own authenticator storage on Release, a
// vote's, a proposed PrePrepare's and a ReadRequest's fields (and the
// latter's op array) on releaseLent, a decoded proposal's message and its
// request, transaction and op arrays on their last release. It is a test
// hook — a keeper that forgot to
// copy then reads 0xDB at once instead of, now and then, another message's
// bytes — and costs one atomic load per release while off.
func SetPoisonLent(on bool) { poisonLent.Store(on) }

// PoisonLent reports whether SetPoisonLent is on, for the keepers of lent
// memory outside this package (a gateway's session frames) to poison theirs
// under the same switch.
func PoisonLent() bool { return poisonLent.Load() }

// writerPool recycles Writers for the encode paths that build a frame or
// body, copy or write it out, and discard the scratch space.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns an empty pooled Writer. Return it with PutWriter once
// its bytes have been copied out or written; the buffer is reused.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter recycles w. The caller must not retain w.Bytes().
func PutWriter(w *Writer) { writerPool.Put(w) }
