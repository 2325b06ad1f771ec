package replica

import (
	"bytes"
	"sync/atomic"
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// proposalCounter wraps a replica's engine and counts the proposals that
// reach it.
type proposalCounter struct {
	consensus.Engine
	proposals atomic.Uint64
}

func (e *proposalCounter) OnMessage(from types.NodeID, msg types.Message, out *consensus.Out) {
	if _, ok := msg.(*types.PrePrepare); ok {
		e.proposals.Add(1)
	}
	e.Engine.OnMessage(from, msg, out)
}

// signRequest signs req as its client, with the benchmark driver's exact
// call: auth.Sign(ReplicaNode(0), req.SigningBytes()).
func signRequest(t *testing.T, dir *crypto.Directory, req *types.ClientRequest) {
	t.Helper()
	sig, err := dir.NodeAuth(types.ClientNode(req.Client)).Sign(types.ReplicaNode(0), req.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	req.Sig = sig
}

// signedBatch is n client requests, each signed by signRequest.
func signedBatch(t *testing.T, dir *crypto.Directory, n int) []types.ClientRequest {
	t.Helper()
	reqs := make([]types.ClientRequest, n)
	for i := range reqs {
		id := types.ClientID(10 + i)
		reqs[i] = types.ClientRequest{Client: id, FirstSeq: 1, Txns: []types.Transaction{
			{Client: id, ClientSeq: 1, Ops: []types.Op{{Key: uint64(i), Value: []byte("value")}}},
			{Client: id, ClientSeq: 2, Ops: []types.Op{{Kind: types.OpRead, Key: 3}}, Payload: []byte{0xAB}},
		}}
		signRequest(t, dir, &reqs[i])
	}
	return reqs
}

// TestForgedRequestDroppedByDefault: a replica built from a Config that
// says nothing about client signatures checks them, on the thread that
// proposes: a batch-thread, or the worker-thread at 0B. Of two queued
// requests, proposed as one batch, the one signed with another client's key
// is dropped before the proposal and counted in AuthFailures, and the
// authentic one is proposed.
func TestForgedRequestDroppedByDefault(t *testing.T) {
	for _, row := range []struct {
		name         string
		batchThreads int
	}{{"2B", 2}, {"0B", -1}} {
		t.Run(row.name, func(t *testing.T) {
			dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{24})
			if err != nil {
				t.Fatal(err)
			}
			net := transport.NewInproc()
			backup := net.Endpoint(types.ReplicaNode(1), 1, 64)
			r, err := New(Config{
				ID: 0, N: 4, BatchThreads: row.batchThreads,
				Directory: dir, Endpoint: net.Endpoint(types.ReplicaNode(0), 3, 64),
			})
			if err != nil {
				t.Fatal(err)
			}
			reqs := signedBatch(t, dir, 2)
			forged, err := dir.NodeAuth(types.ClientNode(reqs[0].Client)).Sign(types.ReplicaNode(0), reqs[1].SigningBytes())
			if err != nil {
				t.Fatal(err)
			}
			reqs[1].Sig = forged
			// Queued before Start, the pair is drained into one batch: by
			// the first batch-thread to take the turn, or by the
			// worker-thread, which proposes once its queue is empty.
			for _, req := range []*types.ClientRequest{&reqs[1], &reqs[0]} {
				if row.batchThreads > 0 {
					r.batchQ.Push(req, nil)
				} else {
					r.workQ.Push(workItem{req: req}, nil)
				}
			}
			r.Start()
			t.Cleanup(r.Stop)

			pp := nextPrePrepare(t, backup)
			if len(pp.Requests) != 1 || pp.Requests[0].Client != reqs[0].Client {
				clients := make([]types.ClientID, len(pp.Requests))
				for i := range pp.Requests {
					clients[i] = pp.Requests[i].Client
				}
				t.Fatalf("the proposal carries clients %v, want only the authentic %d", clients, reqs[0].Client)
			}
			if got := r.Stats().AuthFailures; got != 1 {
				t.Fatalf("%d auth failures, want the forged request's 1", got)
			}
		})
	}
}

// TestTamperedProposalNeverReachesEngine: a proposal's authenticator covers
// its header only, so the digest check is what authenticates the requests
// behind it. For an authenticated PrePrepare: flipping any single byte of
// the body — header, count, any request field, any signature byte —
// appending a request, dropping one, dropping all, or appending trailing
// bytes, under the original authenticator, never reaches the engine and is
// counted as an auth or decode failure. If the coverage of the authenticator, the
// request digest or the batch digest shrinks, some byte here gets through.
//
// The zyzzyva row sends a proposal under type 9, the id Zyzzyva's proposal
// had and that stays reserved, authentic in every byte: a replica refuses it
// before authenticating or decoding it, and counts it as malformed.
func TestTamperedProposalNeverReachesEngine(t *testing.T) {
	for _, proto := range []string{"pbft", "zyzzyva"} {
		t.Run(proto, func(t *testing.T) {
			dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{22})
			if err != nil {
				t.Fatal(err)
			}
			net := transport.NewInproc()
			primary, backup := types.ReplicaNode(0), types.ReplicaNode(1)
			r, err := New(Config{
				ID: 1, N: 4,
				Directory: dir, Endpoint: net.Endpoint(backup, 3, 1<<12),
			})
			if err != nil {
				t.Fatal(err)
			}
			engine := &proposalCounter{Engine: r.engine}
			r.engine = engine
			r.Start()
			defer r.Stop()
			sender := net.Endpoint(primary, 1, 16)
			defer sender.Close()
			send := func(mt types.MsgType, body []byte, tag []byte) {
				t.Helper()
				if err := sender.Send(&types.Envelope{From: primary, To: backup, Type: mt, Body: body, Auth: tag}); err != nil {
					t.Fatal(err)
				}
			}
			sign := func(mt types.MsgType, body []byte) []byte {
				t.Helper()
				tag, err := dir.NodeAuth(primary).Sign(backup, types.AuthenticatedBytes(mt, body))
				if err != nil {
					t.Fatal(err)
				}
				return tag
			}

			reqs := signedBatch(t, dir, 2)
			digest := types.BatchDigest(reqs)
			if proto == "zyzzyva" {
				body := types.MarshalBody(&types.PrePrepare{View: 0, Seq: 1, Digest: digest, Requests: reqs})
				send(9, body, sign(9, body))
				// A PrePrepare from the same sender queues behind it: once
				// the engine has it, the type-9 frame was handled.
				send(types.MsgPrePrepare, body, sign(types.MsgPrePrepare, body))
				waitFor(t, func() bool { return engine.proposals.Load() >= 1 }, "the authentic PrePrepare never reached the engine")
				if got := engine.proposals.Load(); got != 1 {
					t.Fatalf("%d proposals reached the engine, want only the PrePrepare", got)
				}
				if s := r.Stats(); s.DecodeFailures != 1 || s.AuthFailures != 0 {
					t.Fatalf("decode failures %d, auth failures %d; want the type-9 frame refused unauthenticated: 1, 0", s.DecodeFailures, s.AuthFailures)
				}
				return
			}

			extra := signedBatch(t, dir, 3)[2]
			build := func(reqs []types.ClientRequest) []byte {
				return types.MarshalBody(&types.PrePrepare{View: 0, Seq: 1, Digest: digest, Requests: reqs})
			}
			body := build(reqs)
			tag := sign(types.MsgPrePrepare, body)
			sent := uint64(0)
			sendTampered := func(body []byte) {
				t.Helper()
				send(types.MsgPrePrepare, body, tag)
				sent++
			}

			// Every variant keeps the authenticated header, so the
			// authenticator itself still verifies on all but the
			// header flips.
			for i := range body {
				flipped := append([]byte(nil), body...)
				flipped[i] ^= 0x01
				sendTampered(flipped)
			}
			sendTampered(build(append(append([]types.ClientRequest(nil), reqs...), extra)))
			sendTampered(build(reqs[:1]))
			sendTampered(build(nil))
			sendTampered(append(append([]byte(nil), body...), 0))
			tampered := sent

			waitFor(t, func() bool {
				s := r.Stats()
				return s.AuthFailures+s.DecodeFailures == tampered
			}, "a tampered proposal was not counted")
			if got := engine.proposals.Load(); got != 0 {
				t.Fatalf("%d of %d tampered proposals reached the engine", got, tampered)
			}
			s := r.Stats()
			t.Logf("%d-byte body: %d tampered proposals, %d auth failures, %d decode failures",
				len(body), tampered, s.AuthFailures, s.DecodeFailures)
			if s.AuthFailures == 0 || s.DecodeFailures == 0 {
				t.Fatalf("auth failures %d, decode failures %d: both kinds of tampering must be counted", s.AuthFailures, s.DecodeFailures)
			}

			// The untouched proposal, last: it alone gets through.
			send(types.MsgPrePrepare, append([]byte(nil), body...), tag)
			waitFor(t, func() bool { return engine.proposals.Load() == 1 }, "the authentic proposal never reached the engine")
			if s := r.Stats(); s.AuthFailures+s.DecodeFailures != tampered {
				t.Fatalf("the authentic proposal was counted as a failure: %+v", s)
			}
		})
	}
}

// TestDriverSignedRequestVerifiesAfterDecode: a request signed the way the
// benchmark's driver signs it — auth.Sign(ReplicaNode(0),
// req.SigningBytes()) — passes verifyClientSigs after encode → frame →
// DecodeEnvelope, alone and in a batch, over the digest decode computed; a
// flipped signature or payload byte fails and is counted; and the check on
// a decoded batch allocates nothing — no signing bytes are rebuilt,
// whatever the request's size.
func TestDriverSignedRequestVerifiesAfterDecode(t *testing.T) {
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{23})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInproc()
	r, err := New(Config{
		ID: 0, N: 4,
		Directory: dir, Endpoint: net.Endpoint(types.ReplicaNode(0), 3, 64),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	// decode sends each request through the wire: envelope, frame, pooled
	// frame reader, in-place decode.
	decode := func(reqs []types.ClientRequest) []*types.ClientRequest {
		t.Helper()
		envs := make([]*types.Envelope, len(reqs))
		for i := range reqs {
			envs[i] = &types.Envelope{
				From: types.ClientNode(reqs[i].Client), To: types.ReplicaNode(0),
				Type: types.MsgClientRequest, Body: types.MarshalBody(&reqs[i]),
			}
		}
		var w types.Writer
		types.AppendBatchFrame(&w, envs)
		got, err := types.ReadFramesPooled(bytes.NewReader(w.Bytes()), nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*types.ClientRequest, len(got))
		for i, env := range got {
			msg, err := types.DecodeEnvelope(env)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = msg.(*types.ClientRequest)
			env.Release()
		}
		return out
	}

	signed := signedBatch(t, dir, 3)
	signed[0].Txns[0].Payload = bytes.Repeat([]byte{0xC3}, 32<<10) // a request-sized buffer would show
	signRequest(t, dir, &signed[0])

	if kept := r.verifyClientSigs(decode(signed[:1])); len(kept) != 1 {
		t.Fatal("alone: a driver-signed request failed verification after decode")
	}
	if kept := r.verifyClientSigs(decode(signed)); len(kept) != 3 {
		t.Fatalf("batch: %d of 3 driver-signed requests verified after decode", len(kept))
	}
	if got := r.Stats().AuthFailures; got != 0 {
		t.Fatalf("%d auth failures on authentic requests", got)
	}

	badSig := append([]types.ClientRequest(nil), signed...)
	badSig[1].Sig = append([]byte(nil), badSig[1].Sig...)
	badSig[1].Sig[5] ^= 1
	if kept := r.verifyClientSigs(decode(badSig)); len(kept) != 2 || kept[0].Client != signed[0].Client || kept[1].Client != signed[2].Client {
		t.Fatalf("batch: flipped signature byte: kept %d requests", len(kept))
	}
	badBody := append([]types.ClientRequest(nil), signed[:1]...)
	badBody[0].FirstSeq++
	if kept := r.verifyClientSigs(decode(badBody)); len(kept) != 0 {
		t.Fatal("alone: a request changed after signing verified")
	}
	if got := r.Stats().AuthFailures; got != 2 {
		t.Fatalf("auth failures = %d, want 2", got)
	}

	batch := decode(signed)
	allocs := testing.AllocsPerRun(100, func() {
		if kept := r.verifyClientSigs(batch); len(kept) != 3 {
			t.Fatal("verification failed")
		}
	})
	t.Logf("allocations per verifyClientSigs of a decoded batch with a 32 KiB request: %.0f", allocs)
	if allocs > 0 {
		t.Fatalf("verifyClientSigs on a decoded request allocates %.0f, want 0", allocs)
	}
}

// stepCounter wraps a replica's engine, counts the peer messages that reach
// it and passes none on.
type stepCounter struct {
	consensus.Engine
	steps atomic.Uint64
}

func (e *stepCounter) OnMessage(types.NodeID, types.Message, *consensus.Out) {
	e.steps.Add(1)
}

// TestAuthBeforeDecode: nothing unauthenticated reaches the engine or the
// decoder. Over MAC links and signature links: a flipped authenticator on a
// well-formed vote counts one auth failure, no decode failure and no engine
// step; a good authenticator on a malformed body counts one decode failure;
// and a bad authenticator on a malformed body is an auth failure, since it
// never reached the decoder.
func TestAuthBeforeDecode(t *testing.T) {
	schemes := []struct {
		name string
		cfg  crypto.Config
	}{{"cmac-links", crypto.Recommended()}, {"ed25519-links", crypto.AllED25519()}}
	for _, scheme := range schemes {
		t.Run(scheme.name, func(t *testing.T) {
			dir, err := crypto.NewDirectory(scheme.cfg, [32]byte{30})
			if err != nil {
				t.Fatal(err)
			}
			net := transport.NewInproc()
			from, to := types.ReplicaNode(2), types.ReplicaNode(1)
			r, err := New(Config{
				ID: 1, N: 4,
				Directory: dir, Endpoint: net.Endpoint(to, 3, 64),
			})
			if err != nil {
				t.Fatal(err)
			}
			engine := &stepCounter{Engine: r.engine}
			r.engine = engine
			r.Start()
			defer r.Stop()
			sender := net.Endpoint(from, 1, 16)
			defer sender.Close()

			sign := func(body []byte) []byte {
				t.Helper()
				tag, err := dir.NodeAuth(from).Sign(to, types.AuthenticatedBytes(types.MsgPrepare, body))
				if err != nil {
					t.Fatal(err)
				}
				return tag
			}
			flip := func(tag []byte) []byte {
				bad := append([]byte(nil), tag...)
				bad[0] ^= 0x80
				return bad
			}
			// want is the counters after one more envelope.
			var want struct{ in, auth, decode, steps uint64 }
			deliver := func(what string, body, tag []byte) {
				t.Helper()
				if err := sender.Send(&types.Envelope{From: from, To: to, Type: types.MsgPrepare, Body: body, Auth: tag}); err != nil {
					t.Fatal(err)
				}
				want.in++
				waitFor(t, func() bool {
					s := r.Stats()
					return s.MsgsIn == want.in && s.AuthFailures+s.DecodeFailures+engine.steps.Load() == want.auth+want.decode+want.steps
				}, what+": not accounted for")
				s := r.Stats()
				if s.AuthFailures != want.auth || s.DecodeFailures != want.decode || engine.steps.Load() != want.steps {
					t.Fatalf("%s: auth failures %d, decode failures %d, engine steps %d; want %d, %d, %d",
						what, s.AuthFailures, s.DecodeFailures, engine.steps.Load(), want.auth, want.decode, want.steps)
				}
			}

			vote := types.MarshalBody(&types.Prepare{View: 0, Seq: 1})
			malformed := vote[:len(vote)-1]

			want.auth++
			deliver("flipped authenticator, well-formed body", vote, flip(sign(vote)))
			want.decode++
			deliver("good authenticator, malformed body", malformed, sign(malformed))
			want.auth++
			deliver("flipped authenticator, malformed body", malformed, flip(sign(malformed)))
			want.steps++
			deliver("good authenticator, well-formed body", vote, sign(vote))
		})
	}
}
