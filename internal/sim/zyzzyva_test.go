package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"resilientdb/internal/consensus"
	"resilientdb/internal/consensus/enginetest"
	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

// zyzzyvaCluster steps n Zyzzyva replicas in memory: it delivers their
// messages to each other in FIFO or seeded-random order, drops a downed
// replica's traffic and what is sent to clients, and plays the execution
// layer so checkpoints flow.
type zyzzyvaCluster struct {
	reps     []*zyzzyvaReplica
	down     map[types.ReplicaID]bool
	rng      *rand.Rand
	queue    []zyzzyvaDelivery
	executed [][]consensus.Execute
	state    []types.Digest
}

type zyzzyvaDelivery struct {
	from, to types.NodeID
	msg      any
}

func newZyzzyvaCluster(n int, interval uint64) *zyzzyvaCluster {
	c := &zyzzyvaCluster{
		down:     make(map[types.ReplicaID]bool),
		executed: make([][]consensus.Execute, n),
		state:    make([]types.Digest, n),
	}
	for i := 0; i < n; i++ {
		c.reps = append(c.reps, newZyzzyvaReplica(types.ReplicaID(i), n, interval))
	}
	return c
}

// step runs one step of rep and handles what it emitted, in order. The
// model releases batches in sequence order, so each executes at once.
func (c *zyzzyvaCluster) step(rep types.ReplicaID, f func(out *actions)) {
	var out actions
	f(&out)
	from := types.ReplicaNode(rep)
	for _, a := range out {
		switch a.kind {
		case consensus.KindBroadcast:
			for r := range c.reps {
				if types.ReplicaID(r) != rep && !c.down[rep] {
					c.queue = append(c.queue, zyzzyvaDelivery{from, types.ReplicaNode(types.ReplicaID(r)), a.msg})
				}
			}
		case consensus.KindSend:
			if !c.down[rep] {
				c.queue = append(c.queue, zyzzyvaDelivery{from, a.to, a.msg})
			}
		case consensus.KindExecute:
			c.executed[rep] = append(c.executed[rep], a.exec)
			c.state[rep] = crypto.HashChain(c.state[rep], a.exec.Digest)
			seq, state := a.exec.Seq, c.state[rep]
			c.step(rep, func(out *actions) { c.reps[rep].onExecuted(seq, state, out) })
		}
	}
}

func (c *zyzzyvaCluster) propose(reqs []types.ClientRequest) (ok bool) {
	c.step(0, func(out *actions) { ok = c.reps[0].propose(reqs, out) })
	return ok
}

// run delivers messages until the network is quiet.
func (c *zyzzyvaCluster) run() {
	for len(c.queue) > 0 {
		i := 0
		if c.rng != nil {
			i = c.rng.Intn(len(c.queue))
		}
		d := c.queue[i]
		c.queue = append(c.queue[:i], c.queue[i+1:]...)
		if rep := d.to.Replica(); d.to.IsReplica() && !c.down[rep] {
			c.step(rep, func(out *actions) { c.reps[rep].onMessage(d.from, d.msg, out) })
		}
	}
}

func oneRequest(client types.ClientID, seq uint64) []types.ClientRequest {
	return []types.ClientRequest{enginetest.MakeRequest(client, seq)}
}

// TestZyzzyvaSpeculativeExecutionSingleBatch orders one batch: every
// replica executes it at once, without a commit phase, and ends on the
// history H(0 || d).
func TestZyzzyvaSpeculativeExecutionSingleBatch(t *testing.T) {
	c := newZyzzyvaCluster(4, 100)
	reqs := oneRequest(1, 1)
	if !c.propose(reqs) {
		t.Fatal("primary refused the batch")
	}
	c.run()
	want := types.BatchDigest(reqs)
	wantHistory := crypto.HashChain(types.Digest{}, want)
	for r, rep := range c.reps {
		ex := c.executed[r]
		if len(ex) != 1 {
			t.Fatalf("replica %d executed %d batches", r, len(ex))
		}
		if ex[0].Seq != 1 || ex[0].Digest != want {
			t.Fatalf("replica %d executed seq %d digest %x", r, ex[0].Seq, ex[0].Digest)
		}
		if rep.history != wantHistory || rep.histories[1] != wantHistory {
			t.Fatalf("replica %d history mismatch", r)
		}
	}
}

// TestZyzzyvaHistoriesConvergeAcrossBatches orders 30 batches in FIFO
// delivery: every replica executes all of them and ends on the primary's
// history.
func TestZyzzyvaHistoriesConvergeAcrossBatches(t *testing.T) {
	c := newZyzzyvaCluster(4, 100)
	const batches = 30
	for i := 1; i <= batches; i++ {
		if !c.propose(oneRequest(1, uint64(i))) {
			t.Fatalf("primary refused batch %d", i)
		}
	}
	c.run()
	ref := c.reps[0].history
	for r, rep := range c.reps {
		if rep.history != ref {
			t.Fatalf("replica %d history diverged", r)
		}
		if len(c.executed[r]) != batches {
			t.Fatalf("replica %d executed %d/%d", r, len(c.executed[r]), batches)
		}
	}
}

// TestZyzzyvaSerializedEngineDrivesCluster steps each replica one event at
// a time — the shape the simulator drives it in — with a checkpoint every
// five batches, and checks histories converge over 20 batches and the
// checkpoints garbage collect.
func TestZyzzyvaSerializedEngineDrivesCluster(t *testing.T) {
	c := newZyzzyvaCluster(4, 5)
	for s := uint64(1); s <= 20; s++ {
		if !c.propose(oneRequest(1, s)) {
			t.Fatalf("primary refused batch %d", s)
		}
		c.run()
	}
	for r, rep := range c.reps {
		if rep.history != c.reps[0].history {
			t.Fatalf("replica %d history diverged", r)
		}
		if len(c.executed[r]) != 20 {
			t.Fatalf("replica %d executed %d batches, want 20", r, len(c.executed[r]))
		}
		if rep.lowWater != 20 {
			t.Fatalf("replica %d low watermark %d, want 20", r, rep.lowWater)
		}
	}
}

// TestZyzzyvaFillHoleBuffering delivers ordered requests in random order;
// replicas buffer the gaps, execute strictly in history order and end on
// the history h_k = H(h_{k-1} || d_k) of the primary's batches.
func TestZyzzyvaFillHoleBuffering(t *testing.T) {
	f := func(seed int64) bool {
		c := newZyzzyvaCluster(4, 100)
		c.rng = rand.New(rand.NewSource(seed))
		const batches = 15
		var history types.Digest
		for i := 1; i <= batches; i++ {
			reqs := oneRequest(1, uint64(i))
			c.propose(reqs)
			history = crypto.HashChain(history, types.BatchDigest(reqs))
		}
		c.run()
		for r, rep := range c.reps {
			if len(c.executed[r]) != batches || len(rep.pending) != 0 || rep.history != history {
				return false
			}
			for i, x := range c.executed[r] {
				if x.Seq != types.SeqNum(i+1) || x.Digest != c.executed[0][i].Digest {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestZyzzyvaDivergentHistoryRejected(t *testing.T) {
	e := newZyzzyvaReplica(1, 4, 100)
	reqs := oneRequest(1, 1)
	d := types.BatchDigest(reqs)
	// A byzantine primary sends a history that does not extend ours.
	var out actions
	e.onMessage(types.ReplicaNode(0), &orderedRequest{seq: 1, digest: d, history: types.Digest{0xBA, 0xD0}, requests: reqs}, &out)
	if len(out) != 0 || e.executed != 0 {
		t.Fatalf("accepted a divergent history: %d outputs, executed %d", len(out), e.executed)
	}
	e.onMessage(types.ReplicaNode(0), &orderedRequest{seq: 1, digest: d, history: crypto.HashChain(types.Digest{}, d), requests: reqs}, &out)
	if len(out) != 1 || out[0].kind != consensus.KindExecute || e.executed != 1 {
		t.Fatalf("refused the request that extends the history: %+v", out)
	}
}

func TestZyzzyvaOrderedRequestFromNonPrimaryDropped(t *testing.T) {
	e := newZyzzyvaReplica(1, 4, 100)
	reqs := oneRequest(1, 1)
	d := types.BatchDigest(reqs)
	var out actions
	e.onMessage(types.ReplicaNode(2), &orderedRequest{seq: 1, digest: d, history: crypto.HashChain(types.Digest{}, d), requests: reqs}, &out)
	if len(out) != 0 || e.executed != 0 || len(e.pending) != 0 {
		t.Fatal("accepted an ordered request from a non-primary")
	}
}

func TestZyzzyvaCommitCertAnswered(t *testing.T) {
	c := newZyzzyvaCluster(4, 100)
	c.propose(oneRequest(7, 3))
	c.run()
	e := c.reps[1]
	var out actions
	e.onMessage(types.ClientNode(7), &commitCert{client: 7, clientSeq: 3, seq: 1, history: e.history}, &out)
	if len(out) != 1 || out[0].kind != consensus.KindSend || out[0].to != types.ClientNode(7) {
		t.Fatalf("commit cert not acknowledged to the client: %+v", out)
	}
	if lc, ok := out[0].msg.(*localCommit); !ok || lc.clientSeq != 3 || lc.history != e.history {
		t.Fatalf("bad local commit: %+v", out[0].msg)
	}
}

func TestZyzzyvaCommitCertWrongHistoryIgnored(t *testing.T) {
	c := newZyzzyvaCluster(4, 100)
	c.propose(oneRequest(7, 3))
	c.run()
	var out actions
	c.reps[1].onMessage(types.ClientNode(7), &commitCert{client: 7, clientSeq: 3, seq: 1, history: types.Digest{0xFF}}, &out)
	if len(out) != 0 {
		t.Fatal("acknowledged a forged commit cert")
	}
}

// TestZyzzyvaCheckpointGarbageCollection: with Δ = 10, 25 batches reach the
// stable checkpoint at 20 everywhere, and what lies at or below it is
// pruned (the history at 20 itself stays, for commit certificates).
func TestZyzzyvaCheckpointGarbageCollection(t *testing.T) {
	c := newZyzzyvaCluster(4, 10)
	for i := 1; i <= 25; i++ {
		c.propose(oneRequest(1, uint64(i)))
	}
	c.run()
	for r, e := range c.reps {
		if e.lowWater != 20 {
			t.Fatalf("replica %d low watermark %d, want 20", r, e.lowWater)
		}
		if len(e.histories) != 6 || len(e.checkpoints) != 0 {
			t.Fatalf("replica %d keeps %d histories and %d checkpoints, want 6 (20..25) and 0", r, len(e.histories), len(e.checkpoints))
		}
	}
}

// TestZyzzyvaSpeculationDepthBound: execution runs at most maxSpeculation
// ahead of the low watermark, at the primary and at a backup, and a stable
// checkpoint moves the bound.
func TestZyzzyvaSpeculationDepthBound(t *testing.T) {
	e := newZyzzyvaReplica(0, 4, 2)
	e.executed = maxSpeculation // as if a full window were speculated
	var out actions
	if e.propose(oneRequest(1, 1), &out) || len(out) != 0 {
		t.Fatal("proposed past the speculation bound")
	}
	b := newZyzzyvaReplica(1, 4, 2)
	b.onMessage(types.ReplicaNode(0), &orderedRequest{seq: maxSpeculation + 1}, &out)
	if len(b.pending) != 0 || len(out) != 0 {
		t.Fatal("a backup buffered a request past the speculation bound")
	}
	for r := types.ReplicaID(1); r <= 3; r++ {
		e.onMessage(types.ReplicaNode(r), &types.Checkpoint{Seq: 2, Replica: r}, &out)
	}
	if e.lowWater != 2 || !e.propose(oneRequest(1, 2), &out) {
		t.Fatalf("low watermark %d: the stable checkpoint did not move the bound", e.lowWater)
	}
}

// TestZyzzyvaCrashedBackupStopsFastPath: with one backup down the live
// replicas still execute (that is the speculation), but only 3 of 4 can
// answer, so the client's fast path cannot complete.
func TestZyzzyvaCrashedBackupStopsFastPath(t *testing.T) {
	c := newZyzzyvaCluster(4, 100)
	c.down[3] = true
	c.propose(oneRequest(1, 1))
	c.run()
	for r := 0; r < 3; r++ {
		if len(c.executed[r]) != 1 {
			t.Fatalf("live replica %d executed %d batches", r, len(c.executed[r]))
		}
	}
	if len(c.executed[3]) != 0 {
		t.Fatal("crashed replica executed")
	}
	cl := newZyzzyvaClient(1, 4)
	cl.submit(oneRequest(1, 1)[0])
	for r := 0; r < 3; r++ {
		if done, _ := cl.onMessage(types.ReplicaNode(types.ReplicaID(r)), specResp(1, 1, c.reps[r].history, nil)); done {
			t.Fatal("completed without the crashed backup's response")
		}
	}
}

func specResp(client types.ClientID, cseq uint64, history types.Digest, reads []types.ReadResult) *specResponse {
	return &specResponse{
		seq: 1, history: history, client: client, clientSeq: cseq,
		result: types.ResponseDigest(1, client, cseq, reads), reads: reads,
	}
}

func TestZyzzyvaFastPathNeedsAll(t *testing.T) {
	c := newZyzzyvaClient(2, 4)
	c.submit(types.ClientRequest{Client: 2, FirstSeq: 9})
	h := types.Digest{3}
	for rep := 0; rep < 3; rep++ {
		if done, _ := c.onMessage(types.ReplicaNode(types.ReplicaID(rep)), specResp(2, 9, h, nil)); done {
			t.Fatalf("completed with only %d/4 responses", rep+1)
		}
	}
	if done, fast := c.onMessage(types.ReplicaNode(3), specResp(2, 9, h, nil)); !done || !fast {
		t.Fatalf("all 3f+1 responses: done %v, fast %v; want both", done, fast)
	}
}

func TestZyzzyvaSlowPathCommitCert(t *testing.T) {
	c := newZyzzyvaClient(2, 4) // 2f+1 = 3
	c.submit(types.ClientRequest{Client: 2, FirstSeq: 9})
	h := types.Digest{3}
	// Only 3 of 4 replicas respond (one crashed): no fast path.
	for rep := 0; rep < 3; rep++ {
		c.onMessage(types.ReplicaNode(types.ReplicaID(rep)), specResp(2, 9, h, nil))
	}
	// Timeout: the client escalates to the commit-certificate phase.
	acts := c.onTimeout()
	if len(acts) != 1 || acts[0].kind != consensus.KindBroadcast {
		t.Fatalf("timeout produced %+v, want one broadcast", acts)
	}
	if cert, ok := acts[0].msg.(*commitCert); !ok || cert.history != h || cert.seq != 1 || cert.clientSeq != 9 {
		t.Fatalf("bad cert: %+v", acts[0].msg)
	}
	// 2f+1 local commits complete the request as slow path.
	lc := &localCommit{client: 2, clientSeq: 9, history: h}
	for rep := 0; rep < 2; rep++ {
		if done, _ := c.onMessage(types.ReplicaNode(types.ReplicaID(rep)), lc); done {
			t.Fatalf("completed with %d local commits", rep+1)
		}
	}
	if done, fast := c.onMessage(types.ReplicaNode(2), lc); !done || fast {
		t.Fatalf("2f+1 local commits: done %v, fast %v; want a slow-path completion", done, fast)
	}
}

func TestZyzzyvaTimeoutWithoutQuorumRetransmits(t *testing.T) {
	c := newZyzzyvaClient(2, 4)
	c.submit(types.ClientRequest{Client: 2, FirstSeq: 9})
	// Only 2 responses: below the 2f+1 commit-cert threshold.
	for rep := 0; rep < 2; rep++ {
		c.onMessage(types.ReplicaNode(types.ReplicaID(rep)), specResp(2, 9, types.Digest{3}, nil))
	}
	acts := c.onTimeout()
	if len(acts) != 4 {
		t.Fatalf("expected retransmission to 4 replicas, got %d actions", len(acts))
	}
	for r, a := range acts {
		if req, ok := a.msg.(*types.ClientRequest); !ok || a.kind != consensus.KindSend || a.to != types.ReplicaNode(types.ReplicaID(r)) || req.FirstSeq != 9 {
			t.Fatalf("action %d = %+v, want the request sent to replica %d", r, a, r)
		}
	}
}

func TestZyzzyvaMismatchedHistoriesSplitVotes(t *testing.T) {
	c := newZyzzyvaClient(2, 4)
	c.submit(types.ClientRequest{Client: 2, FirstSeq: 9})
	for rep := 0; rep < 4; rep++ {
		h := types.Digest{byte(rep)} // every replica reports a different history
		if done, _ := c.onMessage(types.ReplicaNode(types.ReplicaID(rep)), specResp(2, 9, h, nil)); done {
			t.Fatal("completed on divergent histories")
		}
	}
}

// TestZyzzyvaForgedReadResultsRejected: a response whose reads do not hash
// to its result does not vote, so a forgery cannot be the 3f+1-th.
func TestZyzzyvaForgedReadResultsRejected(t *testing.T) {
	c := newZyzzyvaClient(2, 4)
	c.submit(types.ClientRequest{Client: 2, FirstSeq: 9})
	h := types.Digest{3}
	reads := []types.ReadResult{{Found: true, Value: []byte("honest")}}
	for rep := 0; rep < 3; rep++ {
		if done, _ := c.onMessage(types.ReplicaNode(types.ReplicaID(rep)), specResp(2, 9, h, reads)); done {
			t.Fatalf("completed with %d/4 responses", rep+1)
		}
	}
	forged := specResp(2, 9, h, reads)
	forged.reads = []types.ReadResult{{Found: true, Value: []byte("forged")}}
	if done, _ := c.onMessage(types.ReplicaNode(3), forged); done {
		t.Fatal("forged 3f+1-th response completed the fast path")
	}
	if done, _ := c.onMessage(types.ReplicaNode(3), specResp(2, 9, h, reads)); !done {
		t.Fatal("honest 3f+1-th response did not complete")
	}
}
