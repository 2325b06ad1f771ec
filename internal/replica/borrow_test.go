package replica

import (
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/consensus/pbft"
	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// holdNewViews wraps an endpoint so that NewView envelopes wait in its
// inboxes until release is closed; everything else passes through in
// order. A replica behind it enters a new view only after its peers' votes
// of that view reached it, so it keeps those votes and replays them.
type holdNewViews struct {
	transport.Endpoint
	inboxes []chan *types.Envelope
	release chan struct{}
}

func newHoldNewViews(ep transport.Endpoint) *holdNewViews {
	h := &holdNewViews{Endpoint: ep, release: make(chan struct{})}
	for i := 0; i < ep.Inboxes(); i++ {
		out := make(chan *types.Envelope, cap(ep.Inbox(i)))
		h.inboxes = append(h.inboxes, out)
		go h.relay(ep.Inbox(i), out)
	}
	return h
}

func (h *holdNewViews) relay(in <-chan *types.Envelope, out chan<- *types.Envelope) {
	defer close(out)
	var held []*types.Envelope
	release := h.release
	for {
		select {
		case env, ok := <-in:
			if !ok {
				for _, e := range held {
					e.Release()
				}
				return
			}
			if env.Type == types.MsgNewView && release != nil {
				held = append(held, env)
				continue
			}
			out <- env
		case <-release:
			for _, e := range held {
				out <- e
			}
			held, release = nil, nil
		}
	}
}

func (h *holdNewViews) Inbox(i int) <-chan *types.Envelope { return h.inboxes[i] }

// TestLentAuthAndVotesSurviveViewChange pins who copies what the pipeline
// lends. An envelope's authenticator lives in the envelope, a decoded vote
// in a recycled struct, and so does every PrePrepare, Prepare, Commit and
// Checkpoint an engine emits until broadcast has encoded it — the
// pre-prepares of replica 0 in view 0 and of replica 1 in view 1 among
// them; all are poisoned the moment they are given back, so an engine that
// keeps a vote without copying, or a replica that encodes its own proposal
// or vote after giving it back (a poisoned pre-prepare's digest matches no
// batch, an auth failure at every backup), reads 0xDB. (The
// engine keeps no authenticator: a stable checkpoint's signed votes are the
// ledger's proof, not the commits' MACs.) Four replicas with
// commit-certificate blocks run rounds in view 0, are forced into view 1 —
// with replica 3's NewView held back until the others have committed more
// batches in view 1, so replica 3 keeps their pre-prepares, prepares and
// commits and replays them when it enters the view — and run on. Every
// ledger must validate and ledgers and stores must agree, with no auth or
// decode failure anywhere. The run goes twice: once with no checkpoint, and
// once with one every fourth batch, where every replica's watermark must
// reach the last checkpoint its ledger holds and its ledger hold that
// checkpoint's certificate, which verifies against the node keys — a
// poisoned Checkpoint, signature and all, never makes a quorum.
func TestLentAuthAndVotesSurviveViewChange(t *testing.T) {
	for _, fabric := range []string{"tcp", "inproc"} {
		for _, e := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/E=%d", fabric, e), func(t *testing.T) {
				testLentAcrossViewChange(t, fabric == "tcp", e, 1<<20, false)
				testLentAcrossViewChange(t, fabric == "tcp", e, 4, false)
			})
		}
	}
}

func testLentAcrossViewChange(t *testing.T, tcp bool, execThreads int, interval uint64, disk bool) *recycleCluster {
	const (
		rounds = 3 // closed-loop rounds per phase
		window = 3 // requests in flight per round
		burst  = 4 // transactions per request
	)
	poisonLent(t)
	var held *holdNewViews
	c := newShapedRecycleCluster(t, tcp, execThreads, recycleShape{
		interval: interval,
		disk:     disk,
		wrap: func(id int, ep transport.Endpoint) transport.Endpoint {
			if id != 3 {
				return ep
			}
			held = newHoldNewViews(ep)
			return held
		},
	})
	wl, err := workload.New(workload.Config{
		Records: shardTestRecords, OpsPerTxn: 4, ValueSize: 64, Distribution: workload.Zipf,
		Seed: 34, ReadFraction: 0.3, ScanFraction: 0.1, ScanLength: 8,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tcp {
		for i := 0; i < 4; i++ {
			if err := c.client.(*transport.TCPEndpoint).Hello(types.ReplicaNode(types.ReplicaID(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	replies := make(chan *types.Envelope, 64)
	for i := 0; i < c.client.Inboxes(); i++ {
		go func(inbox <-chan *types.Envelope) {
			for env := range inbox {
				replies <- env
			}
		}(c.client.Inbox(i))
	}

	// got is every reply, rendered with the sequence number it was
	// executed at, by request and replica.
	got := make(map[uint64]map[types.ReplicaID]string)
	await := func(reqs []uint64, from ...types.ReplicaID) {
		t.Helper()
		done := func() bool {
			for _, first := range reqs {
				for _, id := range from {
					if _, ok := got[first][id]; !ok {
						return false
					}
				}
			}
			return true
		}
		deadline := time.After(10 * time.Second)
		for !done() {
			select {
			case env := <-replies:
				if err := c.auth.Verify(env.From, env.Body, env.Auth); err != nil {
					t.Fatalf("reply from %v failed authentication: %v", env.From, err)
				}
				msg, err := types.DecodeBody(env.Type, env.Body)
				env.Release()
				if err != nil {
					t.Fatal(err)
				}
				resp, ok := msg.(*types.ClientResponse)
				if !ok {
					continue
				}
				if got[resp.ClientSeq] == nil {
					got[resp.ClientSeq] = make(map[types.ReplicaID]string)
				}
				got[resp.ClientSeq][resp.Replica] = fmt.Sprintf("seq=%d %s", resp.Seq, renderResponse(resp.Result, resp.ReadResults))
			case <-deadline:
				t.Fatalf("replies from %v missing; heights %v, auth failures %v", from, c.heights(), c.authFailures())
			}
		}
	}
	next := uint64(1)
	round := func(primary types.ReplicaID) []uint64 {
		var reqs []uint64
		for i := 0; i < window; i++ {
			req := wl.NextRequest(recycleClient, next, burst)
			c.submit(t, types.ReplicaNode(primary), &req)
			reqs = append(reqs, req.FirstSeq)
			next += burst
		}
		return reqs
	}

	for i := 0; i < rounds; i++ {
		await(round(0), 0, 1, 2, 3)
	}

	// Everyone times out of view 0; replica 1 leads view 1, and replica 3
	// will not hear of it until released.
	for _, r := range c.replicas {
		var out consensus.Out
		r.engine.OnViewTimeout(0, &out)
		r.handleActions(&out)
	}
	waitFor(t, func() bool {
		return c.replicas[0].engine.View() == 1 && c.replicas[1].engine.View() == 1 && c.replicas[2].engine.View() == 1
	}, "replicas 0-2 never entered view 1")
	var inViewOne []uint64
	for i := 0; i < rounds; i++ {
		reqs := round(1)
		await(reqs, 0, 1, 2)
		inViewOne = append(inViewOne, reqs...)
	}
	lagging := c.replicas[3]
	if v, h := lagging.engine.View(), lagging.Ledger().Height(); v != 0 || h >= c.replicas[0].Ledger().Height() {
		t.Fatalf("replica 3 is in view %d at height %d with its NewView held back; the run proves nothing", v, h)
	}
	// What replica 3 executes from here it has only from the votes it kept:
	// nobody sends them again.
	close(held.release)
	await(inViewOne, 3)
	for i := 0; i < rounds; i++ {
		await(round(1), 0, 1, 2, 3)
	}

	for first, byReplica := range got {
		for id, g := range byReplica {
			if g != byReplica[0] {
				t.Fatalf("request %d: replica %d answered %s, replica 0 %s", first, id, g, byReplica[0])
			}
		}
	}
	for i, r := range c.replicas {
		s := r.Stats()
		if s.AuthFailures != 0 || s.DecodeFailures != 0 || s.StoreWriteFailures != 0 {
			t.Fatalf("replica %d: %d auth, %d decode, %d store failures", i, s.AuthFailures, s.DecodeFailures, s.StoreWriteFailures)
		}
		if err := r.Ledger().Validate(); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if err := ledger.VerifyChainEquality(c.replicas[0].Ledger(), r.Ledger()); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if r.Ledger().Height() != c.replicas[0].Ledger().Height() {
			t.Fatalf("heights %v", c.heights())
		}
		if got, want := storeDigest(t, r.Store()), storeDigest(t, c.replicas[0].Store()); got != want {
			t.Fatalf("replica %d's store diverged from replica 0's: %x vs %x", i, got[:8], want[:8])
		}
	}
	// The last checkpoint every replica executed must become stable at all
	// four: each needs the Checkpoints of at least two peers, as encoded.
	last := types.SeqNum(c.replicas[0].Ledger().Height() / interval * interval)
	waitFor(t, func() bool {
		for _, r := range c.replicas {
			if r.engine.(*pbft.Engine).LowWatermark() != last {
				return false
			}
		}
		return true
	}, fmt.Sprintf("a checkpoint at %d never became stable everywhere", last))
	for i, r := range c.replicas {
		if cert := r.Ledger().Certificate(); last > 0 && cert.Seq != last {
			t.Fatalf("replica %d holds the certificate of %d, want %d", i, cert.Seq, last)
		}
		if err := r.Ledger().Validate(); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if s := r.Stats(); s.CheckpointRejects != 0 {
			t.Fatalf("replica %d rejected %d checkpoint signatures", i, s.CheckpointRejects)
		}
	}
	t.Logf("%d blocks per replica, watermark %d", c.replicas[0].Ledger().Height(), last)
	return c
}

// TestVoteAdmitToEngineAllocatesNothing: a Prepare and a Commit that
// complete no quorum cost no allocation from the input-thread's admit to
// the engine's vote table. The envelope and its tag are the envelope
// pool's, the tag is checked over the body where it lies, the vote is
// decoded into a recycled struct and given back after its step, and the
// engine records it in an instance already open — votes routinely arrive
// before their pre-prepare, into an instance an earlier vote opened.
func TestVoteAdmitToEngineAllocatesNothing(t *testing.T) {
	const runs = 200
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{34})
	if err != nil {
		t.Fatal(err)
	}
	self, peer, opener := types.ReplicaNode(1), types.ReplicaNode(2), types.ReplicaNode(3)
	r, err := New(Config{
		ID: 1, N: 4, Protocol: PBFT,
		Directory: dir, Endpoint: transport.NewInproc().Endpoint(self, 3, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The test is the replica's input-thread and its worker-thread: nothing
	// started.
	type wire struct {
		mt        types.MsgType
		body, tag []byte
	}
	var votes []wire
	var out consensus.Out
	for seq := types.SeqNum(1); seq <= runs+1; seq++ { // AllocsPerRun warms up once
		d := types.Digest{byte(seq), byte(seq >> 8)}
		r.engine.OnMessage(opener, &types.Prepare{Seq: seq, Digest: d, Replica: 3}, &out)
		for _, m := range []types.Message{
			&types.Prepare{Seq: seq, Digest: d, Replica: 2},
			&types.Commit{Seq: seq, Digest: d, Replica: 2},
		} {
			body := types.MarshalBody(m)
			tag, err := dir.NodeAuth(peer).Sign(self, body)
			if err != nil {
				t.Fatal(err)
			}
			votes = append(votes, wire{m.Type(), body, tag})
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, v := range votes[next : next+2] {
			env := types.AcquireEnvelope()
			env.From, env.To, env.Type, env.Body = peer, self, v.mt, v.body
			env.Auth = append(env.AuthBuffer(), v.tag...)
			r.admit(env)
			r.processItem(<-r.workQ.C(), &out)
		}
		next += 2
	})
	s, es := r.Stats(), r.engine.Stats()
	if s.AuthFailures != 0 || s.DecodeFailures != 0 || es.Dropped != 0 || es.Executed != 0 || r.workQ.Len() != 0 {
		t.Fatalf("%d auth and %d decode failures, %d votes dropped, %d batches executed: the votes were not recorded as intended",
			s.AuthFailures, s.DecodeFailures, es.Dropped, es.Executed)
	}
	t.Logf("allocations per Prepare + Commit from admit through OnMessage: %.0f", allocs)
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
	}
	if allocs != 0 {
		t.Fatalf("a Prepare and a Commit cost %.0f allocations from admit to the vote table, want 0", allocs)
	}
}

func (c *recycleCluster) heights() []uint64 {
	var out []uint64
	for _, r := range c.replicas {
		out = append(out, r.Ledger().Height())
	}
	return out
}
