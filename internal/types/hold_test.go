package types

import (
	"bytes"
	"testing"
)

// decodePrePrepare frames a PrePrepare of reqs alone and decodes it in
// place out of bufs, as a backup does: the envelope is released at once,
// the message keeps the frame.
func decodePrePrepare(t *testing.T, bufs FrameBuffers, reqs []ClientRequest) *PrePrepare {
	t.Helper()
	pp := &PrePrepare{View: 1, Seq: 9, Digest: BatchDigest(reqs), Requests: reqs}
	envs := recycleFrame(t, bufs, &Envelope{From: ReplicaNode(0), To: ReplicaNode(1), Type: MsgPrePrepare, Body: MarshalBody(pp), Auth: []byte("mac")})
	msg, err := DecodeEnvelope(envs[0])
	envs[0].Release()
	if err != nil {
		t.Fatal(err)
	}
	return msg.(*PrePrepare)
}

func holdRequest(client ClientID, key uint64) ClientRequest {
	return ClientRequest{Client: client, FirstSeq: 1, Sig: []byte("sig"), Txns: []Transaction{
		{Client: client, ClientSeq: 1, Ops: []Op{{Key: key, Value: []byte("value")}}},
		{Client: client, ClientSeq: 2, Ops: []Op{{Key: key + 1, Value: []byte("other")}, {Kind: OpRead, Key: key}}},
	}}
}

// TestHoldReturnsFrameAtLastRelease: a decoded proposal's frame goes back to
// its pool when the last of its holders lets go — the decoder, the engine's
// log and the execute stage, in whatever order — and not before; the
// requests read as sent until then, and the hold count comes back down.
func TestHoldReturnsFrameAtLastRelease(t *testing.T) {
	live := LiveProposals()
	bufs := &stubBuffers{}
	want := []ClientRequest{holdRequest(3, 10), holdRequest(4, 20)}
	pp := decodePrePrepare(t, bufs, want)
	RetainRequests(pp.Requests) // the engine's log
	RetainRequests(pp.Requests) // the execute stage
	ReleaseMessage(pp)          // the decoder
	if got := LiveProposals() - live; got != 1 {
		t.Fatalf("%d live proposals, want 1", got)
	}
	reqs := pp.Requests
	ReleaseRequests(reqs)
	if bufs.outstanding() != 1 {
		t.Fatal("frame recycled with a holder left")
	}
	if BatchDigest(reqs) != BatchDigest(want) || !bytes.Equal(reqs[1].Txns[1].Ops[0].Value, []byte("other")) {
		t.Fatal("requests changed while still held")
	}
	ReleaseRequests(reqs)
	if got := bufs.outstanding(); got != 0 {
		t.Fatalf("%d frames outstanding after the last release", got)
	}
	if got := LiveProposals() - live; got != 0 {
		t.Fatalf("%d live proposals after the last release", got)
	}
}

// TestReleasedHoldReadsPoison: with SetPoisonLent on, a request read after
// its last release shows 0xDB in its client, sequence numbers, keys and
// values — the frame's bytes and the arrays the hold lent alike.
func TestReleasedHoldReadsPoison(t *testing.T) {
	SetPoisonLent(true)
	defer SetPoisonLent(false)
	pp := decodePrePrepare(t, &stubBuffers{}, []ClientRequest{holdRequest(3, 10)})
	req := &pp.Requests[0]
	txn := &req.Txns[0]
	op := &txn.Ops[0]
	value := op.Value
	ReleaseMessage(pp)
	if req.Client != poisonClient || req.FirstSeq != uint64(poisonSeq) || req.Digest() != poisonDigest {
		t.Fatalf("released request reads %+v", *req)
	}
	if txn.ClientSeq != uint64(poisonSeq) || op.Key != poisonKey {
		t.Fatalf("released transaction reads %+v, op %+v", *txn, *op)
	}
	if !bytes.Equal(value, bytes.Repeat([]byte{0xDE}, len(value))) {
		t.Fatalf("released value reads %x, want the frame's poison", value)
	}
	if pp.Seq != poisonSeq || len(pp.Requests) != 1 || pp.Requests[0].Client != poisonClient {
		t.Fatalf("released pre-prepare reads %+v", *pp)
	}
}

// TestBatchReleasesItsMembers: a batch assembled from requests decoded one
// frame each shares one hold among its requests, keeps every frame while it
// is held, and returns every one with its own last release.
func TestBatchReleasesItsMembers(t *testing.T) {
	live := LiveProposals()
	bufs := &stubBuffers{}
	b := AcquireBatch()
	var want []ClientRequest
	for i := 0; i < 3; i++ {
		req := holdRequest(ClientID(i), uint64(10*i))
		req.Seal()
		want = append(want, req)
		envs := recycleFrame(t, bufs, &Envelope{From: ClientNode(ClientID(i)), To: ReplicaNode(0), Type: MsgClientRequest, Body: MarshalBody(&req), Auth: []byte("mac")})
		msg, err := DecodeEnvelope(envs[0])
		envs[0].Release()
		if err != nil {
			t.Fatal(err)
		}
		b.Add(msg.(*ClientRequest))
	}
	reqs := b.Requests()
	for i := range reqs {
		if reqs[i].hold != (*hold)(b) {
			t.Fatalf("request %d is not held by its batch", i)
		}
	}
	RetainRequests(reqs)
	if got := (*hold)(b).refs.Load(); got != 2 {
		t.Fatalf("a batch of 3 took %d references for one retain, want 2 in all", got)
	}
	b.Release()
	if bufs.outstanding() != 3 || BatchDigest(reqs) != BatchDigest(want) {
		t.Fatal("batch gave up its members while still held")
	}
	ReleaseRequests(reqs)
	if got := bufs.outstanding(); got != 0 {
		t.Fatalf("%d member frames outstanding after the batch's last release", got)
	}
	if got := LiveProposals() - live; got != 0 {
		t.Fatalf("%d live proposals after the batch's last release", got)
	}
}

// TestCloneRequestsOwnsItsMemory: a clone keeps every byte and the digest
// of the requests it copied, and none of their memory or hold.
func TestCloneRequestsOwnsItsMemory(t *testing.T) {
	bufs := &stubBuffers{}
	pp := decodePrePrepare(t, bufs, []ClientRequest{holdRequest(3, 10), holdRequest(4, 20)})
	want := BatchDigest(pp.Requests)
	clone := CloneRequests(pp.Requests)
	ReleaseMessage(pp)
	if bufs.outstanding() != 0 {
		t.Fatal("the clone held the frame")
	}
	for i := range clone {
		if clone[i].hold != nil {
			t.Fatalf("clone %d carries a hold", i)
		}
	}
	if got := BatchDigest(clone); got != want {
		t.Fatalf("clone digest %x, want %x", got[:8], want[:8])
	}
	if clone[1].Txns[1].Ops[0].Key != 21 || string(clone[1].Txns[1].Ops[0].Value) != "other" {
		t.Fatalf("clone reads %+v", clone[1].Txns[1])
	}
}

// TestRecycledHoldDecodesWithoutAllocating: a proposal decoded into a hold
// that has served one of its size before allocates nothing for its
// requests, transactions or ops.
func TestRecycledHoldDecodesWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
	}
	var reqs []ClientRequest
	for i := 0; i < 16; i++ {
		reqs = append(reqs, holdRequest(ClientID(i), uint64(i)))
	}
	pp := &PrePrepare{View: 1, Seq: 9, Digest: BatchDigest(reqs), Requests: reqs}
	env := &Envelope{From: ReplicaNode(0), To: ReplicaNode(1), Type: MsgPrePrepare, Body: MarshalBody(pp)}
	allocs := testing.AllocsPerRun(100, func() {
		msg, err := DecodeEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseMessage(msg)
	})
	if allocs > 0 {
		t.Fatalf("a recycled decode of 16 requests allocated %.1f, want 0", allocs)
	}
}

// TestHoldPoolKeepsAtMostItsCap: a release that brings back more holds
// than a pool's capacity, as a stable checkpoint's does, leaves the pool
// holding its capacity and the rest to the collector; the next acquire
// reuses a pooled hold.
func TestHoldPoolKeepsAtMostItsCap(t *testing.T) {
	live := LiveProposals()
	p := make(holdPool, 2)
	var held []*hold
	for range 3 {
		held = append(held, acquireHold(p, nil))
	}
	for _, h := range held {
		h.release()
	}
	if len(p) != 2 {
		t.Fatalf("pool keeps %d holds, want its capacity 2", len(p))
	}
	if got := LiveProposals() - live; got != 0 {
		t.Fatalf("%d live proposals after every release", got)
	}
	h := acquireHold(p, nil)
	defer h.release()
	if h != held[0] && h != held[1] {
		t.Fatal("acquire allocated while the pool had stock")
	}
}

// TestReleaseMessageTellsPrePreparesApart: ReleaseMessage gives a lent
// PrePrepare (an engine's proposal) back to its pool, poisoned under
// SetPoisonLent and still lent; it drops a decoded one's hold, returning its
// frame, without pooling the hold's struct; and it leaves a PrePrepare built
// in memory alone.
func TestReleaseMessageTellsPrePreparesApart(t *testing.T) {
	SetPoisonLent(true)
	defer SetPoisonLent(false)
	reqs := []ClientRequest{holdRequest(3, 10)}

	lent := AcquirePrePrepare()
	lent.View, lent.Seq, lent.Digest, lent.Requests = 1, 9, BatchDigest(reqs), reqs
	ReleaseMessage(lent)
	if lent.Seq != poisonSeq || lent.Digest != poisonDigest || !lent.lent || lent.hold != nil {
		t.Fatalf("a released lent PrePrepare reads seq %#x, lent %v: want poison, still lent", lent.Seq, lent.lent)
	}

	bufs := &stubBuffers{}
	decoded := decodePrePrepare(t, bufs, reqs)
	if decoded.lent {
		t.Fatal("a decoded PrePrepare reads as lent")
	}
	ReleaseMessage(decoded)
	if got := bufs.outstanding(); got != 0 {
		t.Fatalf("%d frames outstanding after a decoded PrePrepare's release", got)
	}

	built := &PrePrepare{View: 1, Seq: 9, Requests: reqs}
	ReleaseMessage(built)
	if built.Seq != 9 || len(built.Requests) != 1 {
		t.Fatal("releasing a PrePrepare built in memory changed it")
	}
}
