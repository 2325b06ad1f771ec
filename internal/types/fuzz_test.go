package types_test

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"resilientdb/internal/chaos"
	"resilientdb/internal/crypto"
	"resilientdb/internal/pool"
	"resilientdb/internal/types"
)

// validFrameCorpus returns well-formed wire frames so the fuzzer starts
// from inputs that exercise the success paths too: an empty frame, a
// one-envelope frame and a frame carrying two envelopes.
func validFrameCorpus() [][]byte {
	frame := func(envs ...*types.Envelope) []byte {
		var w types.Writer
		types.AppendBatchFrame(&w, envs)
		return w.Bytes()
	}
	env := &types.Envelope{
		From: types.ReplicaNode(0),
		To:   types.ReplicaNode(1),
		Type: types.MsgPrepare,
		Body: []byte{1, 2, 3},
		Auth: []byte{4, 5, 6},
	}
	out := [][]byte{frame(), frame(env), frame(env, env)}
	// Frames whose envelope bodies carry the scan wire arms (ops with
	// hostile bounds, scan read results).
	for _, seed := range scanBodyCorpus() {
		out = append(out, frame(&types.Envelope{
			From: types.ClientNode(1),
			To:   types.ReplicaNode(0),
			Type: seed.kind,
			Body: seed.body,
			Auth: []byte{7},
		}))
	}
	return out
}

// FuzzReadFramesPooled feeds arbitrary byte streams to the frame reader.
// The corpus seeds are the chaos harness's malformed frames — every shape
// its fabric injects on the wire — plus valid frames. Decoding must fail
// cleanly or yield envelopes that re-encode to the frame they came from,
// identically with and without a recycler; any panic is a bug to fix in
// the decoder, not to recover from. It also covers the arena
// reference-count contract: every returned envelope is released exactly
// once and the input must not be able to corrupt the pool.
func FuzzReadFramesPooled(f *testing.F) {
	for _, frame := range chaos.MalformedFrames() {
		f.Add(frame)
	}
	for _, frame := range validFrameCorpus() {
		f.Add(frame)
	}
	bufs := new(pool.BytePool)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.NewReader(data)
		envs, err := types.ReadFramesPooled(in, bufs)
		plain, perr := types.ReadFramesPooled(bytes.NewReader(data), nil)
		if (err == nil) != (perr == nil) {
			t.Fatalf("with a recycler: %v, without: %v", err, perr)
		}
		if err != nil {
			return
		}
		var pooled, unpooled types.Writer
		types.AppendBatchFrame(&pooled, envs)
		types.AppendBatchFrame(&unpooled, plain)
		for _, env := range envs {
			env.Release()
		}
		frame := data[:len(data)-in.Len()]
		if !bytes.Equal(pooled.Bytes(), frame) || !bytes.Equal(unpooled.Bytes(), frame) {
			t.Fatalf("frame %x re-encodes to %x (pooled), %x (nil recycler)", frame, pooled.Bytes(), unpooled.Bytes())
		}
	})
}

// scanBodyCorpus returns well-formed bodies exercising the scan wire
// arms, including semantically hostile bounds the decoder must carry
// without special-casing: an inverted range (start > end), a zero limit,
// and a saturating limit. Execution treats the first two as empty scans
// and caps the third; the wire layer's only job is round-tripping them.
func scanBodyCorpus() []struct {
	kind types.MsgType
	body []byte
} {
	invReq := &types.ClientRequest{Client: 1, FirstSeq: 1, Sig: []byte{1}, Txns: []types.Transaction{
		{Client: 1, ClientSeq: 1, Ops: []types.Op{
			{Kind: types.OpScan, Key: 10, EndKey: 5, Limit: 0},
			{Kind: types.OpWrite, Key: 3, Value: []byte("w")},
		}},
	}}
	satReq := &types.ClientRequest{Client: 1, FirstSeq: 2, Sig: []byte{1}, Txns: []types.Transaction{
		{Client: 1, ClientSeq: 2, Ops: []types.Op{
			{Kind: types.OpScan, Key: 0, EndKey: ^uint64(0), Limit: ^uint32(0)},
		}},
	}}
	readReq := &types.ReadRequest{Client: 1, ClientSeq: 3, MinSeq: 9, Ops: []types.Op{
		{Kind: types.OpRead, Key: 7},
		{Kind: types.OpScan, Key: 4, EndKey: 2, Limit: 0},
	}}
	resp := &types.ClientResponse{Seq: 1, Client: 1, ClientSeq: 1, ReadResults: []types.ReadResult{
		{Scan: true, Rows: []types.ScanRow{{Key: 5, Value: []byte("v")}, {Key: 6}}},
		{Scan: true},
		{Found: true, Value: []byte("p")},
	}}
	return []struct {
		kind types.MsgType
		body []byte
	}{
		{types.MsgClientRequest, types.MarshalBody(invReq)},
		{types.MsgClientRequest, types.MarshalBody(satReq)},
		{types.MsgReadRequest, types.MarshalBody(readReq)},
		{types.MsgClientResponse, types.MarshalBody(resp)},
	}
}

// requestsOf returns every client request a message carries, in place.
func requestsOf(msg types.Message) []*types.ClientRequest {
	var out []*types.ClientRequest
	add := func(reqs []types.ClientRequest) {
		for i := range reqs {
			out = append(out, &reqs[i])
		}
	}
	switch m := msg.(type) {
	case *types.ClientRequest:
		out = append(out, m)
	case *types.PrePrepare:
		add(m.Requests)
	case *types.NewView:
		for i := range m.PrePrepares {
			add(m.PrePrepares[i].Requests)
		}
	}
	return out
}

// appendEverywhere appends to every slice a decoded request hands out. Ops
// are carved from one slab per message and, in alias mode, every byte field
// is a window on the input, so an unclipped capacity would let these writes
// land in the neighbouring transaction, value or length prefix.
func appendEverywhere(msg types.Message) {
	for _, req := range requestsOf(msg) {
		for i := range req.Txns {
			txn := &req.Txns[i]
			for j := range txn.Ops {
				_ = append(txn.Ops[j].Value, 0xEE, 0xEE, 0xEE, 0xEE)
			}
			_ = append(txn.Ops, types.Op{Kind: types.OpScan, Key: ^uint64(0), Value: []byte("intruder")})
			_ = append(txn.Payload, 0xEE, 0xEE, 0xEE, 0xEE)
		}
		_ = append(req.Sig, 0xEE, 0xEE, 0xEE, 0xEE)
	}
}

// requestBodyCorpus returns one well-formed body per request-bearing type,
// each with several multi-op transactions so the op slab is shared, and a
// proposal body under tag 9, a reserved id no decoder accepts.
func requestBodyCorpus() []struct {
	kind types.MsgType
	body []byte
} {
	reqs := []types.ClientRequest{
		{Client: 3, FirstSeq: 10, Sig: []byte("sig-a"), Txns: []types.Transaction{
			{Client: 3, ClientSeq: 10, Ops: []types.Op{{Key: 1, Value: []byte("one")}, {Key: 2, Value: []byte("two")}}},
			{Client: 3, ClientSeq: 11, Ops: []types.Op{{Key: 3, Value: []byte("three")}}, Payload: []byte("pay")},
			{Client: 3, ClientSeq: 12},
		}},
		{Client: 4, FirstSeq: 1, Sig: []byte("sig-b"), Txns: []types.Transaction{
			{Client: 4, ClientSeq: 1, Ops: []types.Op{{Kind: types.OpRead, Key: 9}, {Kind: types.OpScan, Key: 1, EndKey: 5, Limit: 3}, {Key: 7, Value: []byte("w")}}},
		}},
	}
	pp := types.PrePrepare{View: 1, Seq: 2, Digest: types.BatchDigest(reqs), Requests: reqs}
	return []struct {
		kind types.MsgType
		body []byte
	}{
		{types.MsgClientRequest, types.MarshalBody(&reqs[0])},
		{types.MsgPrePrepare, types.MarshalBody(&pp)},
		{9, types.MarshalBody(&pp)},
		{types.MsgNewView, types.MarshalBody(&types.NewView{View: 2, PrePrepares: []types.PrePrepare{pp, pp}})},
	}
}

// FuzzDecodeBody covers body decoding for every message type the wire
// can carry, and for the reserved ids 9–12 (refused whatever the body),
// seeded with the chaos harness's malformed bodies. The two
// decode modes (DecodeBody copies, DecodeEnvelope builds views for the
// request-bearing types) must accept exactly the same bodies; decoding is
// canonical, so a body that decodes must re-marshal to the very bytes it
// was decoded from, in either mode; and no append on a slice the decoder
// handed out may change them (capacity clipping).
func FuzzDecodeBody(f *testing.F) {
	kinds := []types.MsgType{
		types.MsgClientRequest, types.MsgClientResponse, types.MsgPrePrepare,
		types.MsgPrepare, types.MsgCommit, types.MsgCheckpoint,
		types.MsgViewChange, types.MsgNewView, 9,
		types.MsgReadRequest, types.MsgReadReply, 10,
		11, 12,
	}
	for _, body := range chaos.MalformedBodies() {
		for _, kind := range kinds {
			f.Add(uint8(kind), body)
		}
	}
	for _, seed := range scanBodyCorpus() {
		f.Add(uint8(seed.kind), seed.body)
	}
	for _, seed := range requestBodyCorpus() {
		f.Add(uint8(seed.kind), seed.body)
	}
	// A signed checkpoint vote, alone and as a view change's state proof.
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{43})
	if err != nil {
		f.Fatal(err)
	}
	cp := types.Checkpoint{Seq: 100, StateDigest: types.Digest{0xC0}, Replica: 2}
	cp.Sig = dir.SignCheckpoint(types.ReplicaNode(2), cp.Seq, cp.StateDigest)
	f.Add(uint8(types.MsgCheckpoint), types.MarshalBody(&cp))
	f.Add(uint8(types.MsgViewChange), types.MarshalBody(&types.ViewChange{NewView: 1, StableSeq: 100, StateProof: []types.Checkpoint{cp}, Replica: 2}))
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		mt := types.MsgType(kind)
		input := append([]byte(nil), body...)
		copied, err := types.DecodeBody(mt, body)
		aliased, aerr := types.DecodeEnvelope(&types.Envelope{Type: mt, Body: body})
		if (err == nil) != (aerr == nil) {
			t.Fatalf("copy mode: %v, alias mode: %v", err, aerr)
		}
		if err != nil {
			return
		}
		enc := types.MarshalBody(copied)
		if !bytes.Equal(enc, input) {
			t.Fatalf("%v body %x decodes, but re-encodes to %x", mt, input, enc)
		}
		if got := types.MarshalBody(aliased); !bytes.Equal(got, enc) {
			t.Fatalf("alias-mode decode re-encodes to %x, copy-mode to %x", got, enc)
		}
		// The digest a request decodes with is taken from the input's own
		// bytes; it must be the digest of the request's canonical form.
		for _, msg := range []types.Message{copied, aliased} {
			for _, req := range requestsOf(msg) {
				if got, want := req.Digest(), sha256.Sum256(req.SigningBytes()); got != want {
					t.Fatalf("%v: request decoded with digest %x, SHA-256(SigningBytes) is %x", mt, got, want)
				}
			}
		}
		appendEverywhere(copied)
		appendEverywhere(aliased)
		if !bytes.Equal(body, input) {
			t.Fatalf("append on a decoded field wrote into the input buffer")
		}
		if got := types.MarshalBody(copied); !bytes.Equal(got, enc) {
			t.Fatalf("append on one field changed a neighbour (copy mode): %x, was %x", got, enc)
		}
		if got := types.MarshalBody(aliased); !bytes.Equal(got, enc) {
			t.Fatalf("append on one field changed a neighbour (alias mode): %x, was %x", got, enc)
		}
	})
}
