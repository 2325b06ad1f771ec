// Arena-backed zero-copy decode: the buffer-pool management of the
// paper's Section 4.8 applied to the receive path. A frame read from the
// network borrows its buffer from a pool; every envelope decoded out of
// the frame holds a reference on the shared arena, and the buffer returns
// to the pool when the last pipeline stage releases its envelope. Frames
// that carried client requests are the exception: the replica decodes
// those as views into the frame (DecodeEnvelope) and the frame is
// disowned — the request is never copied until a store persists it.

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
// alias — or, for aliases with no bounded lifetime, the arena is disowned
// and the buffer never goes back.
type Arena struct {
	buf  []byte
	bufs FrameBuffers
	refs atomic.Int32
	// disowned is set by whichever reference holder decoded a long-lived
	// view into buf. Envelopes of one frame retire on different goroutines,
	// hence the atomic; the final Release reads it after the count hits
	// zero, which orders it after every holder's write.
	disowned atomic.Bool
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

// disown hands the buffer to the garbage collector: the final Release
// still recycles the Arena struct but no longer Puts the buffer, so
// slices aliasing it stay valid for as long as anything references them.
// It is the deliberate form of a missed release, for views that outlive
// every pipeline stage (a request logged by a consensus engine, then
// parked in the execute queue past the checkpoint that pruned it — there
// is no last stage to drop a reference at). The caller must hold a
// reference. Nil arenas are no-ops.
func (a *Arena) disown() {
	if a != nil {
		a.disowned.Store(true)
	}
}

// Release drops one reference. The last one recycles the Arena struct and,
// unless the arena was disowned, returns the buffer to its FrameBuffers.
// Releasing more times than retained corrupts the pool; missing a release
// only leaks the buffer to the garbage collector. Nil arenas are no-ops.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	if a.refs.Add(-1) != 0 {
		return
	}
	buf, bufs := a.buf, a.bufs
	if a.disowned.Swap(false) {
		bufs = nil
	}
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

// Prepare, Commit and Checkpoint are most of a replica's inbound traffic,
// and each lives for the one engine step it is decoded for: DecodeEnvelope
// decodes them into structs recycled here.
var (
	preparePool    = sync.Pool{New: func() any { return new(Prepare) }}
	commitPool     = sync.Pool{New: func() any { return new(Commit) }}
	checkpointPool = sync.Pool{New: func() any { return new(Checkpoint) }}
)

// acquireVote returns a recycled struct for a vote type, nil for any other.
// Decoding a vote sets every field, so a recycled one needs no reset.
func acquireVote(t MsgType) Message {
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

// ReleaseVote gives back a vote DecodeEnvelope decoded, once the step it
// was decoded for is over; whoever keeps a vote past that step keeps a copy.
// It ignores every other message: a proposal or a request outlives its step.
func ReleaseVote(m Message) {
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
			*v = Checkpoint{Seq: poisonSeq, StateDigest: poisonDigest, Replica: poisonReplica}
		}
		checkpointPool.Put(v)
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
// vote's fields on ReleaseVote. It is a test hook — a keeper that forgot to
// copy then reads 0xDB at once instead of, now and then, another message's
// bytes — and costs one atomic load per release while off.
func SetPoisonLent(on bool) { poisonLent.Store(on) }

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
