// Counted lifetimes for decoded proposals: the buffer-pool management of
// the paper's Section 4.8 carried through to the messages that outlive a
// pipeline step, and released at the moment Section 4.7's checkpoint
// garbage collection lets go of them.
//
// A request-bearing message — a ClientRequest at the primary, a PrePrepare
// or the NewView that re-proposes some at a backup — is decoded in place:
// its payloads, values and signatures are views into the frame it arrived
// in or, on the in-process fabric, into the sender's encode buffer. It
// lives far longer than the step it was decoded for: the consensus engine
// logs its requests until a stable checkpoint prunes them, and the execute
// stage reads them until the batch retires, in either order. So each such
// message gets a hold: a counted lifetime that keeps one reference on the
// arena its views alias and owns the message struct and the request,
// transaction and op arrays decode carved for it. Whoever keeps the
// requests past the step takes a reference of its own (RetainRequests) and
// drops it when done (ReleaseRequests); the decoder's own reference goes
// with ReleaseMessage. The last release returns the arena's buffer to its
// pool and the hold, arrays and all, to its hold pool for the next decode,
// every pointer in it cleared.

package types

import (
	"bytes"
	"sync/atomic"
)

// hold is the counted lifetime of one decoded proposal, or of a Batch the
// primary assembled from several. A decode fills cr or pp (another type's
// message is allocated and only its arrays come from here) and carves the
// message's requests, transactions and ops from the slabs. Each slab's
// length is what the current life used, its capacity what earlier lives
// grew it to, so a hold back from the pool decodes a message of the same
// size without allocating.
type hold struct {
	refs  atomic.Int32
	pool  holdPool // the pool the hold goes back to
	arena *Arena   // what the message's views alias; nil for a Batch
	// members are the holds of the requests a Batch was assembled from,
	// released with it.
	members []*hold

	cr ClientRequest
	pp PrePrepare

	reqs []ClientRequest
	txns []Transaction
	ops  []Op
}

// Holds are pooled by what they hold, so a slab grows to the largest
// message of its own kind: a proposal's arrays are a whole batch's, a
// request's one client's, and a batch has only its request array.
var (
	requestHolds  = make(holdPool, holdPoolCap)
	proposalHolds = make(holdPool, holdPoolCap)
	batchHolds    = make(holdPool, holdPoolCap)
)

// holdPoolCap bounds each hold pool. A stable checkpoint releases a
// window of proposals at once — at the default interval, 100 at each
// replica — and the next window's decodes take them back within
// milliseconds; what a release brings back beyond the cap goes to the
// collector. With four replicas in one process (the benchmark's clusters,
// 2 cores) 128 kept every allocation an unbounded pool saves, and 64 lost
// a tenth of them on write-mem-tcp; 256 leaves room for bursts that meet.
const holdPoolCap = 256

// holdPool is a bounded free list of holds of one kind: it keeps at most
// its capacity, whatever a checkpoint releases at once, and unlike a
// sync.Pool neither drops its stock at a collection nor at random under
// the race detector, so a warm pool decodes without allocating.
type holdPool chan *hold

func (p holdPool) get() *hold {
	select {
	case h := <-p:
		return h
	default:
		return new(hold)
	}
}

func (p holdPool) put(h *hold) {
	select {
	case p <- h:
	default: // full: the collector takes it
	}
}

// liveHolds counts the holds acquired and not yet released for the last
// time: decoded proposals and batches whose memory has not gone back to
// its pools.
var liveHolds atomic.Int64

// LiveProposals returns how many decoded proposals and assembled batches
// still hold memory that has not gone back to its pools. Once every holder
// has let go — a stopped cluster — it reads zero; anything else is a
// missed release.
func LiveProposals() int64 { return liveHolds.Load() }

// acquireHold returns an empty hold from pool with one reference, the
// caller's, and a reference of its own on a.
func acquireHold(pool holdPool, a *Arena) *hold {
	h := pool.get()
	h.pool = pool
	h.refs.Store(1)
	a.Retain()
	h.arena = a
	liveHolds.Add(1)
	return h
}

func (h *hold) retain() {
	if h != nil {
		h.refs.Add(1)
	}
}

// release drops one reference. The last one releases the batch's members
// and the arena, scrubs the hold and returns it to the pool. Nil holds
// (requests built in memory, or decoded by copy) are no-ops.
func (h *hold) release() {
	if h == nil || h.refs.Add(-1) != 0 {
		return
	}
	for _, m := range h.members {
		m.release()
	}
	a := h.arena
	h.scrub()
	liveHolds.Add(-1)
	h.pool.put(h)
	a.Release()
}

// scrub empties the hold for its next life, keeping every slab's capacity.
// What the last life lent is cleared, or, with SetPoisonLent on, poisoned:
// a keeper that read on past its release then sees 0xDB in every client,
// sequence number, key and value instead of, now and then, another
// proposal's.
func (h *hold) scrub() {
	clear(h.members)
	h.members = h.members[:0]
	h.arena = nil
	if poisonLent.Load() {
		// Through the message first: a slab that ran out of room
		// mid-message was replaced, and what was carved from the old one is
		// reachable only from the message.
		for i := range h.pp.Requests {
			poisonTxnArrays(h.pp.Requests[i].Txns)
		}
		poisonTxnArrays(h.cr.Txns)
		for i := range h.reqs {
			h.reqs[i] = poisonRequest
		}
		for i := range h.txns {
			h.txns[i] = poisonTxns[0]
		}
		for i := range h.ops {
			h.ops[i] = poisonOps[0]
		}
		h.cr = poisonRequest
		h.pp = PrePrepare{View: poisonView, Seq: poisonSeq, Digest: poisonDigest, Requests: poisonRequests}
	} else {
		clear(h.reqs)
		clear(h.txns)
		clear(h.ops)
		h.cr, h.pp = ClientRequest{}, PrePrepare{}
	}
	h.reqs, h.txns, h.ops = h.reqs[:0], h.txns[:0], h.ops[:0]
}

// poisonTxnArrays overwrites txns and their ops with poison, in place. A
// message this hold did not decode into this life still reads the poison
// of the last one: that is shared, and left alone.
func poisonTxnArrays(txns []Transaction) {
	if len(txns) > 0 && &txns[0] == &poisonTxns[0] {
		return
	}
	for i := range txns {
		for j := range txns[i].Ops {
			txns[i].Ops[j] = poisonOps[0]
		}
		txns[i] = poisonTxns[0]
	}
}

// What a released hold's message and arrays read once poisoned.
const (
	poisonClient = ClientID(0xDBDBDBDB)
	poisonKey    = 0xDBDBDBDBDBDBDBDB
)

var (
	poisonBytes = bytes.Repeat([]byte{0xDB}, 8)
	poisonOps   = []Op{{Key: poisonKey, Value: poisonBytes}}
	poisonTxns  = []Transaction{{Client: poisonClient, ClientSeq: uint64(poisonSeq), Ops: poisonOps, Payload: poisonBytes}}
	// poisonRequest carries a digest, so a stale reader neither rehashes it
	// nor races on the hold's next life to do so.
	poisonRequest  = ClientRequest{Client: poisonClient, FirstSeq: uint64(poisonSeq), Txns: poisonTxns, Sig: poisonBytes, d: poisonDigest, hashed: true}
	poisonRequests = []ClientRequest{poisonRequest}
	poisonRows     = []ScanRow{{Key: poisonKey, Value: poisonBytes}}
)

// carve returns n zeroed elements from the unused tail of *slab, clipped to
// capacity n so an append on them cannot run into their neighbours. A slab
// without room is replaced by one of twice its capacity, or of n or hint if
// more; what was carved from the old one stays where it is. Callers have
// checked n and hint against the bytes they decode from, so a forged count
// buys no more memory than the body it arrived in.
func carve[T any](slab *[]T, n, hint int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(2*cap(s), n, hint))
	}
	at := len(s)
	s = s[:at+n]
	*slab = s
	out := s[at : at+n : at+n]
	clear(out)
	return out
}

// RetainRequests takes one reference on the memory reqs live in, for a
// keeper that holds them past the step they were handed over in: a
// consensus engine logging a batch, an execute stage queueing it. Requests
// sharing a hold, as a decoded proposal's or an assembled batch's do, cost
// one reference for the run of them. Requests built in memory or decoded
// by copy have no hold and cost nothing. Release with ReleaseRequests on
// the same slice.
func RetainRequests(reqs []ClientRequest) {
	var last *hold
	for i := range reqs {
		if h := reqs[i].hold; h != nil && h != last {
			h.retain()
			last = h
		}
	}
}

// ReleaseRequests drops the reference RetainRequests took on the same
// slice. A run's hold is released only once the walk has left the run: the
// array reqs is in belongs to the hold of its requests when it belongs to
// any, and that hold's last release poisons it.
func ReleaseRequests(reqs []ClientRequest) {
	var last *hold
	for i := range reqs {
		if h := reqs[i].hold; h != nil && h != last {
			last.release()
			last = h
		}
	}
	last.release()
}

// ReleaseMessage gives back a message DecodeEnvelope returned, once the
// step it was decoded for is over, or a vote or PrePrepare an engine
// emitted, once it is encoded: a vote, a ReadRequest or a proposed
// PrePrepare goes back to its pool, a decoded proposal drops the decoder's
// reference on its hold.
// Whoever kept the proposal's requests took references of their own. It
// ignores every other message, and proposals that were neither lent nor
// decoded in place.
func ReleaseMessage(m Message) {
	switch v := m.(type) {
	case *ClientRequest:
		v.hold.release()
	case *PrePrepare:
		if v.lent {
			releaseLent(v)
		} else {
			v.hold.release()
		}
	case *NewView:
		v.hold.release()
	default:
		releaseLent(m)
	}
}

// Batch is a proposal the primary assembles from client requests decoded
// one at a time: it owns the array its requests are copied into and the
// decoder's reference on each of them, and is itself held like a decoded
// proposal — every request in it shares the batch's hold, so
// RetainRequests on Requests takes one reference, and the batch's last
// release releases every request it was built from.
type Batch hold

// AcquireBatch returns an empty batch from the batch holds' pool with one
// reference, the caller's.
func AcquireBatch() *Batch { return (*Batch)(acquireHold(batchHolds, nil)) }

// Add moves r into the batch: a copy joins Requests, and the reference r's
// decode gave it now belongs to the batch. The caller must not use r again.
func (b *Batch) Add(r *ClientRequest) {
	h := (*hold)(b)
	h.reqs = append(h.reqs, *r)
	h.reqs[len(h.reqs)-1].hold = h
	if r.hold != nil {
		h.members = append(h.members, r.hold)
	}
}

// Requests returns the batch's requests, in the order they were added. The
// slice is the batch's own array: valid while a reference on the batch is
// held, and not to be kept across an Add.
func (b *Batch) Requests() []ClientRequest {
	h := (*hold)(b)
	if len(h.reqs) == 0 {
		return nil
	}
	return h.reqs[:len(h.reqs):len(h.reqs)]
}

// Release drops the caller's reference on the batch.
func (b *Batch) Release() { (*hold)(b).release() }

// CloneRequests returns a copy of reqs that owns all of its memory and no
// hold: a keeper whose lifetime has no bound — a view change's
// re-proposals — keeps this instead of a reference. Digests carry over.
func CloneRequests(reqs []ClientRequest) []ClientRequest {
	if len(reqs) == 0 {
		return nil
	}
	w := GetWriter()
	for i := range reqs {
		reqs[i].marshal(w)
	}
	out := make([]ClientRequest, len(reqs))
	r := Reader{buf: w.Bytes()}
	for i := range out {
		out[i].unmarshal(&r)
	}
	PutWriter(w)
	return out
}
