package types

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// stubBuffers is a FrameBuffers that tracks outstanding borrows and
// scribbles over returned buffers, so a test can prove (a) every buffer
// comes back exactly once and (b) nothing aliases a buffer after it did.
type stubBuffers struct {
	mu   sync.Mutex
	outs int
}

func (s *stubBuffers) Get(n int) []byte {
	s.mu.Lock()
	s.outs++
	s.mu.Unlock()
	return make([]byte, 0, n)
}

func (s *stubBuffers) Put(b []byte) {
	s.mu.Lock()
	s.outs--
	s.mu.Unlock()
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDE // poison: any alias still reading this buffer sees it
	}
}

func (s *stubBuffers) outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outs
}

func TestArenaRefCountReturnsBufferOnce(t *testing.T) {
	bufs := &stubBuffers{}
	a := NewArena(bufs.Get(64), bufs)
	a.Retain()
	a.Retain()
	a.Release()
	a.Release()
	if got := bufs.outstanding(); got != 1 {
		t.Fatalf("buffer returned with a reference still held (outstanding=%d)", got)
	}
	a.Release() // last reference
	if got := bufs.outstanding(); got != 0 {
		t.Fatalf("outstanding=%d after final release, want 0", got)
	}
}

func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	a.Retain()
	a.Release()
	e := &Envelope{}
	e.Attach(nil)
	e.Release()
	var nilEnv *Envelope
	nilEnv.Release()
}

// recycleFrame writes envs as one frame and reads it back through the
// pooled reader, so every returned envelope aliases one buffer of bufs.
func recycleFrame(t *testing.T, bufs FrameBuffers, envs ...*Envelope) []*Envelope {
	t.Helper()
	out, err := ReadFramesPooled(bytes.NewReader(frameOf(envs...)), bufs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(envs) {
		t.Fatalf("decoded %d envelopes, want %d", len(out), len(envs))
	}
	return out
}

// TestPooledDecodeCopiesSurviveRecycle is the core aliasing-safety
// contract: after every envelope from a pooled frame is released, what was
// decoded from it and the copied Auth bytes must be unaffected — by copy
// (DecodeBody: the frame is poisoned and recycled under the message) or by
// taking the frame out of the pool (DecodeEnvelope on a request: the
// message is a view, and no release may recycle what it looks at).
func TestPooledDecodeCopiesSurviveRecycle(t *testing.T) {
	payload := strings.Repeat("req-payload-", 32)
	req := &ClientRequest{
		Client:   7,
		FirstSeq: 99,
		Txns: []Transaction{{Ops: []Op{
			{Kind: OpWrite, Key: 42, Value: []byte(payload)},
		}}},
		Sig: []byte("client-signature"),
	}
	in := []*Envelope{
		{From: ClientNode(7), To: ReplicaNode(0), Type: MsgClientRequest,
			Body: MarshalBody(req), Auth: []byte("mac-bytes-0123456789")},
		{From: ReplicaNode(1), To: ReplicaNode(0), Type: MsgPrepare,
			Body: MarshalBody(&Prepare{View: 1, Seq: 5, Replica: 1}), Auth: []byte("auth-two")},
	}
	for _, mode := range []struct {
		name     string
		decode   func(*Envelope) (Message, error)
		recycled bool // does the frame go back to the pool?
	}{
		{"DecodeBody", func(e *Envelope) (Message, error) { return DecodeBody(e.Type, e.Body) }, true},
		{"DecodeEnvelope", DecodeEnvelope, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			bufs := &stubBuffers{}
			envs := recycleFrame(t, bufs, in...)
			msg, err := mode.decode(envs[0])
			if err != nil {
				t.Fatal(err)
			}
			vote, err := mode.decode(envs[1])
			if err != nil {
				t.Fatal(err)
			}
			// Auth is the envelope's own, never the frame's, and it goes
			// with the envelope: a keeper copies it before the release, as
			// an engine's vote table does.
			if e := envs[1]; &e.Auth[0] != &e.auth[0] {
				t.Fatal("envelope Auth is not in the envelope's own storage")
			}
			auth := bytes.Clone(envs[1].Auth)
			for _, e := range envs {
				e.Release()
			}
			want := 0
			if !mode.recycled {
				want = 1 // disowned: the collector frees it, the pool never sees it
			}
			if got := bufs.outstanding(); got != want {
				t.Fatalf("%d frame buffers never returned to the pool, want %d", got, want)
			}
			// Churn the pool: anything it got back is poisoned and reissued.
			for i := 0; i < 8; i++ {
				bufs.Put(append(bufs.Get(4096), "next frame's bytes"...))
			}

			got, ok := msg.(*ClientRequest)
			if !ok {
				t.Fatalf("decoded %T, want *ClientRequest", msg)
			}
			if got.Client != 7 || got.FirstSeq != 99 || len(got.Txns) != 1 || got.Txns[0].Ops[0].Key != 42 {
				t.Fatalf("decoded request mangled: %+v", got)
			}
			if string(got.Txns[0].Ops[0].Value) != payload {
				t.Fatal("decoded value mutated once the frame was released")
			}
			if !bytes.Equal(got.Sig, []byte("client-signature")) {
				t.Fatal("decoded signature mutated once the frame was released")
			}
			if p, ok := vote.(*Prepare); !ok || p.View != 1 || p.Seq != 5 || p.Replica != 1 {
				t.Fatalf("decoded vote mangled: %+v", vote)
			}
			if !bytes.Equal(auth, []byte("auth-two")) {
				t.Fatalf("kept authenticator %q, want %q", auth, "auth-two")
			}
		})
	}
}

// TestDecodeEnvelopeKeepsVoteFramesPooled is the converse: a frame that
// carried only votes still goes back to its pool after DecodeEnvelope, and
// so does a request frame whose body failed to decode — disowning is for
// frames something decoded now looks into, nothing else.
func TestDecodeEnvelopeKeepsVoteFramesPooled(t *testing.T) {
	vote := func(m Message) *Envelope {
		return &Envelope{From: ReplicaNode(1), To: ReplicaNode(0), Type: m.Type(), Body: MarshalBody(m), Auth: []byte("mac")}
	}
	bufs := &stubBuffers{}
	envs := recycleFrame(t, bufs,
		vote(&Prepare{View: 1, Seq: 5, Replica: 1}),
		vote(&Commit{View: 1, Seq: 5, Replica: 1}),
		vote(&Checkpoint{Seq: 8, Replica: 1}))
	for _, e := range envs {
		if _, err := DecodeEnvelope(e); err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	if got := bufs.outstanding(); got != 0 {
		t.Fatalf("vote-only frame not recycled (outstanding=%d)", got)
	}

	envs = recycleFrame(t, bufs, &Envelope{From: ClientNode(7), To: ReplicaNode(0),
		Type: MsgClientRequest, Body: []byte{0, 0, 0, 7, 0xFF}, Auth: []byte("mac")})
	if _, err := DecodeEnvelope(envs[0]); err == nil {
		t.Fatal("truncated request decoded")
	}
	envs[0].Release()
	if got := bufs.outstanding(); got != 0 {
		t.Fatalf("frame of an undecodable request not recycled (outstanding=%d)", got)
	}
}

// TestDecodeEnvelopeSharesBuffer pins down the difference between the two
// decode modes: a request DecodeEnvelope decoded observes buffer mutation,
// a DecodeBody copy does not. This is why DecodeEnvelope settles the
// buffer's lifetime in the same call.
func TestDecodeEnvelopeSharesBuffer(t *testing.T) {
	req := &ClientRequest{
		Client: 1, FirstSeq: 1,
		Txns: []Transaction{{Ops: []Op{{Kind: OpWrite, Key: 1, Value: []byte("AAAA")}}}},
		Sig:  []byte("sig0"),
	}
	body := MarshalBody(req)

	aliased, err := DecodeEnvelope(&Envelope{Type: MsgClientRequest, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	copied, err := DecodeBody(MsgClientRequest, body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xFF
	}
	if string(aliased.(*ClientRequest).Txns[0].Ops[0].Value) == "AAAA" {
		t.Fatal("alias-mode decode did not alias the input buffer")
	}
	if string(copied.(*ClientRequest).Txns[0].Ops[0].Value) != "AAAA" {
		t.Fatal("copy-mode decode aliased the input buffer")
	}
}

func TestPooledEnvelopeRecycleZeroes(t *testing.T) {
	e := AcquireEnvelope()
	e.From = ReplicaNode(3)
	e.Body = []byte("body")
	e.Auth = []byte("auth")
	e.Release()
	// The recycled envelope must come back zeroed no matter which Acquire
	// returns it; drain a few to be robust against pool internals.
	for i := 0; i < 8; i++ {
		got := AcquireEnvelope()
		if got.Body != nil || got.Auth != nil || got.From != 0 {
			t.Fatalf("recycled envelope not zeroed: %+v", got)
		}
		got.Release()
	}
}

// TestMarshalBodyArenaRoundTrip checks the pooled encode path produces the
// same bytes as the copying one and returns its buffer on release.
func TestMarshalBodyArenaRoundTrip(t *testing.T) {
	msg := &PrePrepare{View: 2, Seq: 77, Digest: Digest{1, 2, 3}}
	want := MarshalBody(msg)

	bufs := &stubBuffers{}
	body, arena := MarshalBodyArena(msg, bufs, 0)
	if !bytes.Equal(body, want) {
		t.Fatalf("pooled encode = %x, want %x", body, want)
	}
	e := AcquireEnvelope()
	e.Body = body
	e.Attach(arena)
	arena.Release() // builder's reference
	if got := bufs.outstanding(); got != 1 {
		t.Fatalf("buffer recycled while an envelope still carries it (outstanding=%d)", got)
	}
	e.Release()
	if got := bufs.outstanding(); got != 0 {
		t.Fatalf("outstanding=%d after last release, want 0", got)
	}
}

// TestMarshalBodyArenaPreservesWriterScratch is a regression test: the
// pooled encode borrows a Writer from the shared writer pool and swaps in
// an arena buffer. An earlier version returned the writer with a nil
// buffer, so every later GetWriter user (digests, signing bytes) re-grew
// from scratch — more allocation with pooling on than off.
func TestMarshalBodyArenaPreservesWriterScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; pool occupancy is nondeterministic")
	}
	// Prime the pool with a writer whose scratch has real capacity.
	w := GetWriter()
	w.Blob(bytes.Repeat([]byte{0xAB}, 4096))
	PutWriter(w)

	bufs := &stubBuffers{}
	for i := 0; i < 32; i++ {
		_, arena := MarshalBodyArena(&Prepare{View: 1, Seq: SeqNum(i)}, bufs, 0)
		arena.Release()
	}

	// After many pooled encodes, grabbing writers must still find at least
	// one with non-trivial capacity; a poisoned pool would be all-nil.
	found := false
	var ws []*Writer
	for i := 0; i < 8; i++ {
		w := GetWriter()
		if cap(w.buf) >= 4096 {
			found = true
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		PutWriter(w)
	}
	if !found {
		t.Fatal("pooled encode stripped writer-pool scratch buffers")
	}
}
