package pbft

import (
	"math/rand"
	"testing"
	"testing/quick"

	"resilientdb/internal/consensus"
	"resilientdb/internal/consensus/enginetest"
	"resilientdb/internal/ledger"
	"resilientdb/internal/types"
)

func newCluster(t testing.TB, n int, cfg func(*Config)) *enginetest.Cluster {
	t.Helper()
	engines := make([]consensus.Engine, n)
	for i := 0; i < n; i++ {
		c := Config{ID: types.ReplicaID(i), N: n}
		if cfg != nil {
			cfg(&c)
		}
		e, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return enginetest.NewCluster(engines)
}

// onMessage steps e with one message into a fresh Out and returns what it
// emitted.
func onMessage(e *Engine, from types.NodeID, msg types.Message) []consensus.Action {
	var out consensus.Out
	e.OnMessage(from, msg, &out)
	return enginetest.Actions(&out)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{ID: 0, N: 3}); err == nil {
		t.Fatal("accepted n=3")
	}
	if _, err := New(Config{ID: 9, N: 4}); err == nil {
		t.Fatal("accepted out-of-range id")
	}
	e, err := New(Config{ID: 0, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsPrimary() {
		t.Fatal("replica 0 should lead view 0")
	}
	if e.View() != 0 {
		t.Fatalf("View = %d", e.View())
	}
}

func TestOnlyPrimaryProposes(t *testing.T) {
	c := newCluster(t, 4, nil)
	var out consensus.Out
	if c.Engines[1].Propose([]types.ClientRequest{enginetest.MakeRequest(1, 1)}, &out) || len(out.Outputs()) != 0 {
		t.Fatal("backup proposed")
	}
}

func TestSingleBatchConsensus(t *testing.T) {
	c := newCluster(t, 4, nil)
	req := enginetest.MakeRequest(1, 1)
	c.Propose(0, []types.ClientRequest{req})
	c.Run(10000)

	want := types.BatchDigest([]types.ClientRequest{req})
	for r := 0; r < 4; r++ {
		got := c.ExecutedDigests(types.ReplicaID(r))
		if len(got) != 1 || got[0] != want {
			t.Fatalf("replica %d executed %d batches (digest match=%v)", r, len(got), len(got) == 1 && got[0] == want)
		}
		ex := c.Executed[types.ReplicaID(r)][0]
		if ex.Seq != 1 {
			t.Fatalf("replica %d executed seq %d", r, ex.Seq)
		}
	}
}

func TestManyBatchesAllReplicasAgree(t *testing.T) {
	c := newCluster(t, 4, nil)
	const batches = 50
	for i := 1; i <= batches; i++ {
		c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, uint64(i))})
	}
	c.Run(1_000_000)
	ref := c.ExecutedDigests(0)
	if len(ref) != batches {
		t.Fatalf("primary executed %d/%d", len(ref), batches)
	}
	for r := 1; r < 4; r++ {
		got := c.ExecutedDigests(types.ReplicaID(r))
		if len(got) != batches {
			t.Fatalf("replica %d executed %d/%d", r, len(got), batches)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("replica %d diverges at batch %d", r, i)
			}
		}
	}
}

// TestAgreementUnderRandomDelivery is the core safety property test:
// whatever order the network delivers messages in, all replicas execute
// identical sequences. Prepares and commits routinely overtake their
// pre-prepares here, exercising the digest-bucketed vote buffering.
func TestAgreementUnderRandomDelivery(t *testing.T) {
	f := func(seed int64) bool {
		c := newCluster(t, 4, nil)
		c.Random = rand.New(rand.NewSource(seed))
		const batches = 20
		for i := 1; i <= batches; i++ {
			c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, uint64(i))})
		}
		c.Run(1_000_000)
		ref := c.ExecutedDigests(0)
		if len(ref) != batches {
			return false
		}
		for r := 1; r < 4; r++ {
			got := c.ExecutedDigests(types.ReplicaID(r))
			if len(got) != batches {
				return false
			}
			for i := range ref {
				if got[i] != ref[i] {
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

func TestOutOfOrderInstancesOverlap(t *testing.T) {
	// Propose several batches before delivering anything: instances for
	// seq 1..5 all open concurrently (Section 4.5), and random delivery
	// completes them out of order; execution must still be sequential.
	c := newCluster(t, 7, nil)
	c.Random = rand.New(rand.NewSource(42))
	for i := 1; i <= 5; i++ {
		c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, uint64(i))})
	}
	c.Run(1_000_000)
	for r := 0; r < 7; r++ {
		ex := c.Executed[types.ReplicaID(r)]
		if len(ex) != 5 {
			t.Fatalf("replica %d executed %d/5", r, len(ex))
		}
		for i, e := range ex {
			if e.Seq != types.SeqNum(i+1) {
				t.Fatalf("replica %d executed seq %d at position %d", r, e.Seq, i)
			}
		}
	}
}

func TestSurvivesBackupFailures(t *testing.T) {
	// n=16 tolerates f=5 crashed backups (the Section 5.10 experiment).
	c := newCluster(t, 16, nil)
	for i := 1; i <= 5; i++ {
		c.Down[types.ReplicaID(i)] = true
	}
	const batches = 10
	for i := 1; i <= batches; i++ {
		c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, uint64(i))})
	}
	c.Run(1_000_000)
	for r := 6; r < 16; r++ {
		if got := len(c.ExecutedDigests(types.ReplicaID(r))); got != batches {
			t.Fatalf("replica %d executed %d/%d with f backups down", r, got, batches)
		}
	}
}

func TestTooManyFailuresStall(t *testing.T) {
	// With f+1 = 2 of 4 replicas down, no batch can gather a quorum.
	c := newCluster(t, 4, nil)
	c.Down[1] = true
	c.Down[2] = true
	c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, 1)})
	c.Run(100_000)
	if got := len(c.ExecutedDigests(0)); got != 0 {
		t.Fatalf("executed %d batches beyond fault tolerance", got)
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	c := newCluster(t, 4, func(cfg *Config) { cfg.CheckpointInterval = 10 })
	const batches = 35
	for i := 1; i <= batches; i++ {
		c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, uint64(i))})
	}
	c.Run(1_000_000)
	for r := 0; r < 4; r++ {
		e := c.Engines[types.ReplicaID(r)].(*Engine)
		if e.LowWatermark() != 30 {
			t.Fatalf("replica %d low watermark %d, want 30", r, e.LowWatermark())
		}
		if c.StableCheckpoints[types.ReplicaID(r)] != 30 {
			t.Fatalf("replica %d stable checkpoint %d", r, c.StableCheckpoints[types.ReplicaID(r)])
		}
		// Instances ≤ 30 must be garbage collected: only 31..35 remain.
		if open := e.OpenInstances(); open > 5 {
			t.Fatalf("replica %d retains %d instances after GC", r, open)
		}
		if s := e.Stats(); s.Checkpoints != 3 {
			t.Fatalf("replica %d reached %d stable checkpoints, want 3", r, s.Checkpoints)
		}
	}
}

func TestWatermarkWindowBoundsPipelining(t *testing.T) {
	c := newCluster(t, 4, func(cfg *Config) { cfg.WatermarkWindow = 3; cfg.CheckpointInterval = 2 })
	// Without deliveries, the primary may only open 3 instances.
	for i := 1; i <= 5; i++ {
		c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, uint64(i))})
	}
	e := c.Engines[0].(*Engine)
	if got := e.Stats().Proposed; got != 3 {
		t.Fatalf("proposed %d batches with window 3", got)
	}
	// After the network drains (checkpoints advance the watermark), more
	// proposals fit.
	c.Run(1_000_000)
	c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, 99)})
	if got := e.Stats().Proposed; got != 4 {
		t.Fatalf("proposed %d batches after drain", got)
	}
}

func TestEquivocatingPrimaryDetected(t *testing.T) {
	backup, err := New(Config{ID: 1, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	r1 := enginetest.MakeRequest(1, 1)
	r2 := enginetest.MakeRequest(2, 9)
	pp1 := &types.PrePrepare{View: 0, Seq: 1, Digest: types.BatchDigest([]types.ClientRequest{r1}), Requests: []types.ClientRequest{r1}}
	pp2 := &types.PrePrepare{View: 0, Seq: 1, Digest: types.BatchDigest([]types.ClientRequest{r2}), Requests: []types.ClientRequest{r2}}

	onMessage(backup, types.ReplicaNode(0), pp1)
	acts := onMessage(backup, types.ReplicaNode(0), pp2)
	var found bool
	for _, a := range acts {
		if ev, ok := a.(consensus.Evidence); ok && ev.Culprit == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("conflicting pre-prepares produced no evidence")
	}
}

func TestRejectsPrePrepareFromNonPrimary(t *testing.T) {
	backup, err := New(Config{ID: 1, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	req := enginetest.MakeRequest(1, 1)
	pp := &types.PrePrepare{View: 0, Seq: 1, Digest: types.BatchDigest([]types.ClientRequest{req}), Requests: []types.ClientRequest{req}}
	acts := onMessage(backup, types.ReplicaNode(2), pp) // 2 is not primary of view 0
	for _, a := range acts {
		if _, ok := a.(consensus.Broadcast); ok {
			t.Fatal("accepted pre-prepare from non-primary")
		}
	}
}

func TestDuplicateVotesDoNotDoubleCount(t *testing.T) {
	e, err := New(Config{ID: 0, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	req := enginetest.MakeRequest(1, 1)
	e.Propose([]types.ClientRequest{req}, new(consensus.Out))
	d := types.BatchDigest([]types.ClientRequest{req})
	// One backup repeats its prepare; quorum (2f = 2 distinct) must not fire.
	p := &types.Prepare{View: 0, Seq: 1, Digest: d, Replica: 1}
	for i := 0; i < 5; i++ {
		acts := onMessage(e, types.ReplicaNode(1), p)
		for _, a := range acts {
			if b, ok := a.(consensus.Broadcast); ok {
				if _, isCommit := b.Msg.(*types.Commit); isCommit {
					t.Fatal("commit fired on duplicate prepares from one replica")
				}
			}
		}
	}
	// A second distinct backup completes the quorum.
	p2 := &types.Prepare{View: 0, Seq: 1, Digest: d, Replica: 2}
	acts := onMessage(e, types.ReplicaNode(2), p2)
	committed := false
	for _, a := range acts {
		if b, ok := a.(consensus.Broadcast); ok {
			if _, isCommit := b.Msg.(*types.Commit); isCommit {
				committed = true
			}
		}
	}
	if !committed {
		t.Fatal("commit did not fire at 2f distinct prepares")
	}
}

func TestStaleViewMessagesDropped(t *testing.T) {
	e, err := New(Config{ID: 1, N: 4, StartView: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := &types.Prepare{View: 2, Seq: 1, Digest: types.Digest{1}, Replica: 2}
	onMessage(e, types.ReplicaNode(2), p)
	if e.Stats().Dropped != 1 {
		t.Fatal("older-view prepare was not dropped")
	}
}

func TestVotesAheadOfTheViewAreBoundedPerSender(t *testing.T) {
	// A vote for a view this replica has not entered is kept, not stepped;
	// one sender can fill its own share and nobody else's.
	e, err := New(Config{ID: 1, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxAhead+10; i++ {
		p := &types.Prepare{View: 7, Seq: types.SeqNum(i + 1), Digest: types.Digest{1}, Replica: 2}
		if acts := onMessage(e, types.ReplicaNode(2), p); len(acts) != 0 {
			t.Fatalf("a view-7 prepare stepped a view-0 engine: %v", acts)
		}
	}
	if got := e.Stats().Dropped; got != 10 {
		t.Fatalf("dropped %d of %d votes ahead of the view, want the 10 past the sender's share", got, maxAhead+10)
	}
	onMessage(e, types.ReplicaNode(3), &types.Commit{View: 7, Seq: 1, Digest: types.Digest{1}, Replica: 3})
	if got := e.Stats().Dropped; got != 10 {
		t.Fatal("one sender's full share cost another sender its vote")
	}
	if e.OpenInstances() != 0 {
		t.Fatal("a kept vote opened an instance")
	}
}

func TestViewChangeSurvivesVotesAheadOfNewView(t *testing.T) {
	// Nothing orders a backup's new-view votes behind the new primary's
	// NewView on their way to a third replica. Under shuffled delivery some
	// replica gets its peers' prepares and commits for the re-proposed batch
	// first; with exactly 2f+1 replicas alive it needs every one of them, and
	// nobody sends a vote twice.
	for seed := int64(1); seed <= 40; seed++ {
		c := newCluster(t, 4, nil)
		req := enginetest.MakeRequest(1, 1)
		c.Propose(0, []types.ClientRequest{req})
		for i := 0; i < 8; i++ { // prepares circulate, commits do not finish
			c.Step()
		}
		c.Down[0] = true
		c.Random = rand.New(rand.NewSource(seed))
		for r := 1; r < 4; r++ {
			c.Timeout(types.ReplicaID(r))
		}
		c.Run(1_000_000)
		c.Propose(1, []types.ClientRequest{enginetest.MakeRequest(2, 1)})
		c.Run(1_000_000)
		for r := 1; r < 4; r++ {
			if got := c.ExecutedDigests(types.ReplicaID(r)); len(got) != 2 {
				t.Fatalf("seed %d: replica %d executed %d/2 batches across the view change", seed, r, len(got))
			}
		}
	}
}

func TestViewChangeElectsNewPrimary(t *testing.T) {
	c := newCluster(t, 4, nil)
	// Batch 1 commits under primary 0.
	c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, 1)})
	c.Run(100_000)
	// Primary 0 crashes; the other replicas time out.
	c.Down[0] = true
	for r := 1; r < 4; r++ {
		c.Timeout(types.ReplicaID(r))
	}
	c.Run(100_000)
	for r := 1; r < 4; r++ {
		e := c.Engines[types.ReplicaID(r)]
		if e.View() != 1 {
			t.Fatalf("replica %d stuck in view %d", r, e.View())
		}
	}
	if !c.Engines[1].IsPrimary() {
		t.Fatal("replica 1 did not take over view 1")
	}
	// The new primary orders fresh batches.
	c.Propose(1, []types.ClientRequest{enginetest.MakeRequest(2, 1)})
	c.Run(100_000)
	for r := 1; r < 4; r++ {
		got := c.ExecutedDigests(types.ReplicaID(r))
		if len(got) != 2 {
			t.Fatalf("replica %d executed %d/2 after view change", r, len(got))
		}
	}
}

func TestViewChangeRecoversPreparedBatch(t *testing.T) {
	// A batch prepares (but does not commit everywhere) before the
	// primary crashes. The new view must re-propose and commit it, not
	// lose it: the no-lost-prepared-batches property.
	c := newCluster(t, 4, nil)
	req := enginetest.MakeRequest(1, 1)
	c.Propose(0, []types.ClientRequest{req})
	// Deliver only enough steps for prepares to circulate, then crash the
	// primary before commits fully propagate.
	for i := 0; i < 8; i++ {
		c.Step()
	}
	c.Down[0] = true
	for r := 1; r < 4; r++ {
		c.Timeout(types.ReplicaID(r))
	}
	c.Run(1_000_000)
	want := types.BatchDigest([]types.ClientRequest{req})
	for r := 1; r < 4; r++ {
		got := c.ExecutedDigests(types.ReplicaID(r))
		if len(got) == 0 {
			t.Fatalf("replica %d executed nothing after view change", r)
		}
		if got[0] != want {
			t.Fatalf("replica %d executed a different batch first", r)
		}
	}
}

// revoteAcrossViewChange runs a batch to commit and execution at three
// replicas while the fourth sees none of it, then crashes the primary. With
// exactly 2f+1 replicas left, the one behind can commit the re-proposed batch
// only if the two that already executed it vote for it again in the new
// view — and they must not execute it again. The new primary then orders one
// fresh batch. It returns the cluster and the first batch's digest.
func revoteAcrossViewChange(t *testing.T) (*enginetest.Cluster, types.Digest) {
	t.Helper()
	c := newCluster(t, 4, nil)
	req := enginetest.MakeRequest(1, 1)
	c.Down[3] = true
	c.Propose(0, []types.ClientRequest{req})
	c.Run(100_000)
	for r := 0; r < 3; r++ {
		if got := c.ExecutedDigests(types.ReplicaID(r)); len(got) != 1 {
			t.Fatalf("replica %d executed %d/1 before the crash", r, len(got))
		}
	}
	c.Down[3], c.Down[0] = false, true
	for r := 1; r < 4; r++ {
		c.Timeout(types.ReplicaID(r))
	}
	c.Run(1_000_000)
	c.Propose(1, []types.ClientRequest{enginetest.MakeRequest(2, 1)})
	c.Run(1_000_000)
	return c, types.BatchDigest([]types.ClientRequest{req})
}

func TestViewChangeRevotesReleasedBatch(t *testing.T) {
	c, want := revoteAcrossViewChange(t)
	for r := 1; r < 4; r++ {
		got := c.ExecutedDigests(types.ReplicaID(r))
		if len(got) != 2 || got[0] != want {
			t.Fatalf("replica %d executed %d/2 batches after the view change", r, len(got))
		}
		if n := c.Engines[r].Stats().Executed; n != 2 {
			t.Fatalf("replica %d released %d batches for execution, want 2: a re-vote must not re-execute", r, n)
		}
	}
}

// TestRevotedBatchClosesOneCheckpointDigest: replicas that executed one
// batch in different views — released in view 0 at three, in view 1 at the
// one that was behind — append it to their ledgers and close the same
// checkpoint digest. A digest that covered the view would split them for
// good: every later digest chains this one, and a checkpoint stabilizes
// only on 2f+1 matching digests.
func TestRevotedBatchClosesOneCheckpointDigest(t *testing.T) {
	c, _ := revoteAcrossViewChange(t)
	views := make(map[types.View]bool)
	var first types.Digest
	for r := 0; r < 4; r++ {
		ex := c.Executed[r][0]
		views[ex.View] = true
		l := ledger.New(ledger.CommitCertificate, types.Digest{}, 3)
		if _, err := l.Append(ex.Seq, ex.View, ex.Digest, nil, uint32(len(ex.Requests))); err != nil {
			t.Fatal(err)
		}
		d, err := l.Checkpoint(ex.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			first = d
		} else if d != first {
			t.Fatalf("replica %d, which executed seq %d in view %d, closed checkpoint %x; replica 0 closed %x", r, ex.Seq, ex.View, d[:4], first[:4])
		}
	}
	if len(views) != 2 {
		t.Fatalf("the batch executed in views %v; the test needs it released in two", views)
	}
}

func TestViewChangeJoinOnFPlusOne(t *testing.T) {
	// Only f+1 = 2 replicas time out; the remaining honest replica must
	// join the view change anyway so it completes.
	c := newCluster(t, 4, nil)
	c.Down[0] = true
	c.Timeout(1)
	c.Timeout(2)
	c.Run(100_000)
	for r := 1; r < 4; r++ {
		if got := c.Engines[types.ReplicaID(r)].View(); got != 1 {
			t.Fatalf("replica %d in view %d, want 1", r, got)
		}
	}
}

func TestStaleViewTimeoutIgnored(t *testing.T) {
	// A driver's time-out waits for the lock a view change holds. One that
	// was measured in view 0 and lands in view 1 must not vote the replica
	// out of view 1: it would go alone, and stay out.
	c := newCluster(t, 4, nil)
	c.Down[0] = true
	c.Timeout(1)
	c.Timeout(2)
	c.Run(100_000)
	e := c.Engines[3]
	if e.View() != 1 {
		t.Fatalf("replica 3 in view %d, want 1", e.View())
	}
	var out consensus.Out
	if e.OnViewTimeout(0, &out); len(out.Outputs()) != 0 {
		t.Fatalf("a time-out about view 0 moved a replica in view 1: %v", enginetest.Actions(&out))
	}
	if e.OnViewTimeout(1, &out); len(out.Outputs()) == 0 {
		t.Fatal("a time-out about the current view started no view change")
	}
}

func TestNewViewRejectedWithoutQuorum(t *testing.T) {
	e, err := New(Config{ID: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	nv := &types.NewView{
		View:        1,
		ViewChanges: []types.ViewChange{{NewView: 1, Replica: 1}}, // only 1 < 2f+1
	}
	onMessage(e, types.ReplicaNode(1), nv)
	if e.View() != 0 {
		t.Fatal("adopted new view without quorum proof")
	}
}

func BenchmarkEngineFullInstance(b *testing.B) {
	// Cost of one complete consensus instance across a 4-replica cluster
	// (pure protocol logic, no crypto or network).
	engines := make([]consensus.Engine, 4)
	for i := 0; i < 4; i++ {
		e, err := New(Config{ID: types.ReplicaID(i), N: 4, CheckpointInterval: 1 << 40})
		if err != nil {
			b.Fatal(err)
		}
		engines[i] = e
	}
	c := enginetest.NewCluster(engines)
	req := enginetest.MakeRequest(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Propose(0, []types.ClientRequest{req})
		c.Run(1 << 30)
	}
}
