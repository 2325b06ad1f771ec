package types_test

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"

	"resilientdb/internal/types"
)

// digestBatch is a PrePrepare body carrying n 32-transaction requests, and
// the batch as built in memory.
func digestBatch(n int) ([]types.ClientRequest, []byte) {
	reqs := make([]types.ClientRequest, n)
	for i := range reqs {
		reqs[i] = types.ClientRequest{Client: types.ClientID(i), FirstSeq: 1, Sig: bytes.Repeat([]byte{byte(0x50 + i)}, 64)}
		for j := 0; j < 32; j++ {
			reqs[i].Txns = append(reqs[i].Txns, types.Transaction{
				Client: types.ClientID(i), ClientSeq: uint64(1 + j),
				Ops: []types.Op{{Key: uint64(j), Value: bytes.Repeat([]byte{byte(j)}, 100)}},
			})
		}
	}
	pp := &types.PrePrepare{View: 1, Seq: 2, Digest: types.BatchDigest(reqs), Requests: reqs}
	return reqs, types.MarshalBody(pp)
}

// TestDecodeCarriesDigest: a decoded request carries d =
// SHA-256(SigningBytes()) — the digest of the bytes as they lay in the
// frame equals the digest of the request re-marshalled — in both decode
// modes, for a lone request and for every request inside a proposal, and a
// sealed request agrees with both. The batch digest of the decoded
// requests is the one the builder computed.
func TestDecodeCarriesDigest(t *testing.T) {
	reqs, body := digestBatch(3)
	for _, mode := range []string{"copy", "alias"} {
		var msg types.Message
		var err error
		if mode == "copy" {
			msg, err = types.DecodeBody(types.MsgPrePrepare, body)
		} else {
			msg, err = types.DecodeEnvelope(&types.Envelope{Type: types.MsgPrePrepare, Body: append([]byte(nil), body...)})
		}
		if err != nil {
			t.Fatal(err)
		}
		pp := msg.(*types.PrePrepare)
		for i := range pp.Requests {
			got := pp.Requests[i].Digest()
			if want := sha256.Sum256(reqs[i].SigningBytes()); got != want {
				t.Fatalf("%s: request %d decoded with digest %x, SHA-256(SigningBytes) is %x", mode, i, got, want)
			}
			sealed := reqs[i]
			if sealed.Seal() != got || sealed.Digest() != got {
				t.Fatalf("%s: request %d: sealed and decoded digests differ", mode, i)
			}
		}
		if types.BatchDigest(pp.Requests) != pp.Digest {
			t.Fatalf("%s: batch digest of the decoded requests is not the proposal's", mode)
		}
	}
	lone := types.MarshalBody(&reqs[0])
	msg, err := types.DecodeBody(types.MsgClientRequest, lone)
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(*types.ClientRequest).Digest(); got != reqs[0].Digest() {
		t.Fatalf("lone request decoded with digest %x, want %x", got, reqs[0].Digest())
	}
}

// TestSealTracksChanges: sealing again after a change hashes again, so a
// builder that reuses a request value cannot sign a stale digest.
func TestSealTracksChanges(t *testing.T) {
	reqs, _ := digestBatch(1)
	r := reqs[0]
	first := r.Seal()
	r.FirstSeq++
	if r.Digest() != first {
		t.Fatal("a sealed request recomputed its digest on read")
	}
	if r.Seal() == first {
		t.Fatal("Seal after a change returned the old digest")
	}
}

// TestBatchDigestDecodedAllocatesNothing: over decoded requests the batch
// digest folds digests the decoder already computed — no marshal, no hash
// state, no allocation, whatever the requests' size.
func TestBatchDigestDecodedAllocatesNothing(t *testing.T) {
	_, body := digestBatch(8)
	msg, err := types.DecodeBody(types.MsgPrePrepare, body)
	if err != nil {
		t.Fatal(err)
	}
	pp := msg.(*types.PrePrepare)
	allocs := testing.AllocsPerRun(200, func() {
		if types.BatchDigest(pp.Requests) != pp.Digest {
			t.Fatal("digest mismatch")
		}
	})
	t.Logf("allocations per BatchDigest over 8 decoded requests: %.0f", allocs)
	if types.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the pooled Writer is nondeterministic")
	}
	if allocs > 0 {
		t.Fatalf("BatchDigest over decoded requests allocates %.0f, want 0", allocs)
	}
}

// TestDigestConcurrentReaders: the decoder sets the digest before the
// message is visible to anyone else, and readers only read — a decoded
// proposal is digested by worker lanes and verified by pool workers at
// once — while a request built in memory is digested on demand without a
// write. Run under -race.
func TestDigestConcurrentReaders(t *testing.T) {
	reqs, body := digestBatch(4)
	msg, err := types.DecodeEnvelope(&types.Envelope{Type: types.MsgPrePrepare, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	pp := msg.(*types.PrePrepare)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if types.BatchDigest(pp.Requests) != pp.Digest || types.BatchDigest(reqs) != pp.Digest {
					t.Error("digest changed under concurrent readers")
					return
				}
				if pp.Requests[i%4].Digest() != reqs[i%4].Digest() {
					t.Error("decoded and in-memory digests differ")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAuthenticatedBytes: a proposal's authenticator covers its fixed-size
// header, every other body is covered whole, and a body too short to hold
// the header is covered whole (and then fails to decode).
func TestAuthenticatedBytes(t *testing.T) {
	body := bytes.Repeat([]byte{7}, 200)
	for _, tt := range []struct {
		t    types.MsgType
		body []byte
		want int
	}{
		{types.MsgPrePrepare, body, 8 + 8 + 32},
		{types.MsgPrePrepare, body[:47], 47},
		{types.MsgPrepare, body, 200},
		{types.MsgNewView, body, 200},
		{types.MsgClientRequest, body, 200},
		{types.MsgClientResponse, body, 200},
	} {
		if got := len(types.AuthenticatedBytes(tt.t, tt.body)); got != tt.want {
			t.Errorf("%s body of %d bytes: %d authenticated, want %d", tt.t, len(tt.body), got, tt.want)
		}
	}
}
