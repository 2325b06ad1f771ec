package pbft

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/consensus/enginetest"
	"resilientdb/internal/types"
)

// step delivers msg from replica from and sorts what the engine did into
// the two transitions the vote table drives.
func step(e *Engine, from types.ReplicaID, msg types.Message, auth []byte) (commit bool, exec *consensus.Execute) {
	for _, a := range onMessage(e, types.ReplicaNode(from), msg, auth) {
		switch act := a.(type) {
		case consensus.Broadcast:
			if _, ok := act.Msg.(*types.Commit); ok {
				commit = true
			}
		case consensus.Execute:
			exec = &act
		}
	}
	return commit, exec
}

// TestVotesBeforePrePrepareCount: prepares and commits that overtake their
// pre-prepare sit in the vote table under the digest they named and count
// the moment the pre-prepare names the same one — the whole instance
// completes in the step that delivers it.
func TestVotesBeforePrePrepareCount(t *testing.T) {
	e, err := New(Config{ID: 1, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []types.ClientRequest{enginetest.MakeRequest(1, 1)}
	d := types.BatchDigest(reqs)
	for _, from := range []types.ReplicaID{2, 3} {
		if commit, exec := step(e, from, &types.Prepare{Seq: 1, Digest: d, Replica: from}, nil); commit || exec != nil {
			t.Fatalf("prepare from %d acted before the pre-prepare", from)
		}
	}
	for _, from := range []types.ReplicaID{0, 2, 3} {
		if commit, exec := step(e, from, &types.Commit{Seq: 1, Digest: d, Replica: from}, []byte{byte(from)}); commit || exec != nil {
			t.Fatalf("commit from %d acted before the pre-prepare", from)
		}
	}
	commit, exec := step(e, 0, &types.PrePrepare{Seq: 1, Digest: d, Requests: reqs}, nil)
	if !commit || exec == nil {
		t.Fatalf("pre-prepare after a full set of early votes: commit sent %v, executed %v; want both", commit, exec != nil)
	}
	if len(exec.Proof) != 4 {
		t.Fatalf("commit proof has %d votes, want the three early ones and this replica's own", len(exec.Proof))
	}
}

// TestTwoDigestVoterCountedOnce: a replica that votes two digests for one
// (view, seq) holds one slot, and its first vote fills it. Its second vote
// — for the right digest — adds nothing, so it can never be the vote that
// completes a quorum, and it is absent from the commit proof.
func TestTwoDigestVoterCountedOnce(t *testing.T) {
	e, err := New(Config{ID: 0, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []types.ClientRequest{enginetest.MakeRequest(1, 1)}
	e.Propose(reqs, new(consensus.Out))
	d, other := types.BatchDigest(reqs), types.Digest{0xBA, 0xD0}

	step(e, 3, &types.Prepare{Seq: 1, Digest: other, Replica: 3}, nil)
	step(e, 1, &types.Prepare{Seq: 1, Digest: d, Replica: 1}, nil)
	if commit, _ := step(e, 3, &types.Prepare{Seq: 1, Digest: d, Replica: 3}, nil); commit {
		t.Fatal("a second prepare from a replica that had already voted another digest completed the prepare quorum")
	}
	if commit, _ := step(e, 2, &types.Prepare{Seq: 1, Digest: d, Replica: 2}, nil); !commit {
		t.Fatal("2f prepares from replicas that voted once did not prepare the batch")
	}

	step(e, 3, &types.Commit{Seq: 1, Digest: other, Replica: 3}, []byte{3})
	step(e, 1, &types.Commit{Seq: 1, Digest: d, Replica: 1}, []byte{1})
	if _, exec := step(e, 3, &types.Commit{Seq: 1, Digest: d, Replica: 3}, []byte{3}); exec != nil {
		t.Fatal("a second commit from a replica that had already voted another digest completed the commit quorum")
	}
	_, exec := step(e, 2, &types.Commit{Seq: 1, Digest: d, Replica: 2}, []byte{2})
	if exec == nil {
		t.Fatal("2f+1 commits from replicas that voted once did not commit the batch")
	}
	want := []types.CommitSig{{Replica: 0}, {Replica: 1, Auth: []byte{1}}, {Replica: 2, Auth: []byte{2}}}
	if !reflect.DeepEqual(exec.Proof, want) {
		t.Fatalf("commit proof %+v, want %+v", exec.Proof, want)
	}
}

// TestCommitProofOrderAndContent pins the certificate a ledger block
// carries: the votes for the committed digest in replica-id order whatever
// order they arrived in, each with the authenticator it arrived under, this
// replica's own with none, and nothing that arrives after the release.
func TestCommitProofOrderAndContent(t *testing.T) {
	e, err := New(Config{ID: 2, N: 7})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []types.ClientRequest{enginetest.MakeRequest(1, 1)}
	d := types.BatchDigest(reqs)
	step(e, 0, &types.PrePrepare{Seq: 1, Digest: d, Requests: reqs}, nil)
	for _, from := range []types.ReplicaID{6, 1, 4, 3} { // 2f = 4 prepares
		step(e, from, &types.Prepare{Seq: 1, Digest: d, Replica: from}, nil)
	}
	var exec *consensus.Execute
	for _, from := range []types.ReplicaID{5, 0, 6, 3} { // with its own, 2f+1 = 5 commits
		if exec != nil {
			t.Fatalf("released before the commit from %d", from)
		}
		_, exec = step(e, from, &types.Commit{Seq: 1, Digest: d, Replica: from}, []byte{0xA0, byte(from)})
	}
	if exec == nil {
		t.Fatal("2f+1 commits did not release the batch")
	}
	want := []types.CommitSig{
		{Replica: 0, Auth: []byte{0xA0, 0}},
		{Replica: 2},
		{Replica: 3, Auth: []byte{0xA0, 3}},
		{Replica: 5, Auth: []byte{0xA0, 5}},
		{Replica: 6, Auth: []byte{0xA0, 6}},
	}
	if !reflect.DeepEqual(exec.Proof, want) {
		t.Fatalf("commit proof %+v, want %+v", exec.Proof, want)
	}
	if _, again := step(e, 1, &types.Commit{Seq: 1, Digest: d, Replica: 1}, []byte{0xA0, 1}); again != nil {
		t.Fatal("a commit after the release released the batch again")
	}
}

// TestInstanceAllocationCap holds one replica's whole cost for one
// instance — the pre-prepare, 2f prepares, 2f+1 commits, and the prepare,
// commit and execute it answers with, into one reused Out — at the two
// allocations of the commit proof the block keeps. The messages are built
// outside the measurement, as the decoder builds them in a replica, and the
// votes the engine emits go back to their pool once handled, as the
// replica's broadcast gives them back. Every tenth instance is executed
// into a checkpoint that stabilizes, so instances are pruned onto the free
// lists and opened again from them while it counts.
func TestInstanceAllocationCap(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
	}
	const (
		runs     = 1000
		interval = 10
	)
	e, err := New(Config{ID: 1, N: 4, CheckpointInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []types.ClientRequest{enginetest.MakeRequest(1, 1)}
	d := types.BatchDigest(reqs)
	state := types.Digest{0x5A}
	type msgs struct {
		pp       *types.PrePrepare
		prepares [2]*types.Prepare
		commits  [3]*types.Commit
		ckpts    [2]*types.Checkpoint
	}
	all := make([]msgs, runs+1) // AllocsPerRun warms up with one extra run
	for i := range all {
		seq := types.SeqNum(i + 1)
		all[i].pp = &types.PrePrepare{Seq: seq, Digest: d, Requests: reqs}
		for j, from := range []types.ReplicaID{2, 3} {
			all[i].prepares[j] = &types.Prepare{Seq: seq, Digest: d, Replica: from}
			all[i].ckpts[j] = &types.Checkpoint{Seq: seq, StateDigest: state, Replica: from}
		}
		for j, from := range []types.ReplicaID{0, 2, 3} {
			all[i].commits[j] = &types.Commit{Seq: seq, Digest: d, Replica: from}
		}
	}
	auth := []byte{1}
	var out consensus.Out
	next, released, stable := 0, 0, 0
	handle := func() {
		outs := out.Outputs()
		for i := range outs {
			switch o := &outs[i]; o.Kind {
			case consensus.KindBroadcast:
				types.ReleaseVote(o.Broadcast.Msg)
			case consensus.KindExecute:
				released++
			case consensus.KindCheckpointStable:
				stable++
			}
		}
		out.Reset()
	}
	deliver := func(from types.ReplicaID, msg types.Message, auth []byte) {
		e.OnMessage(types.ReplicaNode(from), msg, auth, &out)
		handle()
	}
	allocs := testing.AllocsPerRun(runs, func() {
		m := &all[next]
		next++
		deliver(0, m.pp, nil)
		deliver(2, m.prepares[0], nil)
		deliver(3, m.prepares[1], nil)
		deliver(0, m.commits[0], auth)
		deliver(2, m.commits[1], auth)
		deliver(3, m.commits[2], auth)
		e.OnExecuted(m.pp.Seq, state, &out)
		handle()
		if next%interval == 0 {
			deliver(2, m.ckpts[0], nil)
			deliver(3, m.ckpts[1], nil)
		}
	})
	if released != runs+1 {
		t.Fatalf("released %d of %d instances", released, runs+1)
	}
	if want := (runs + 1) / interval; stable != want || e.OpenInstances() >= interval {
		t.Fatalf("%d checkpoints stable and %d instances open; want %d and fewer than %d", stable, e.OpenInstances(), want, interval)
	}
	t.Logf("%.1f allocations per instance lifetime at N=4", allocs)
	if allocs > 2 {
		t.Fatalf("%.1f allocations per instance lifetime, cap 2", allocs)
	}
}

// TestRecycledInstancesCarryNothingOver: an instance pruned at a checkpoint
// is opened again for a later sequence number of its stripe, and nothing
// of its first life counts in its second. Sequence numbers 1..Δ get full
// prepare and commit tables for one batch and a stable checkpoint prunes
// them onto the free lists (Δ is the stripe count, so Δ+k lands in k's
// stripe). Δ+1..2Δ then propose the same batch — the same digest, the same
// view — and get f prepares and 2f commits each: nothing may commit or
// execute. One more prepare each then completes them, once, with a proof of
// the new votes' authenticators. The poisoned run fills every pruned
// instance with garbage before its reset, so a field the reset misses
// shows whatever the previous instance held.
func TestRecycledInstancesCarryNothingOver(t *testing.T) {
	for _, poison := range []bool{false, true} {
		t.Run(fmt.Sprintf("poisoned=%v", poison), func(t *testing.T) {
			testRecycledInstances(t, poison)
		})
	}
}

func testRecycledInstances(t *testing.T, poison bool) {
	const delta = numStripes
	e, err := New(Config{ID: 0, N: 4, CheckpointInterval: delta})
	if err != nil {
		t.Fatal(err)
	}
	if poison {
		e.recycleHook = poisonInstance
	}
	reqs := []types.ClientRequest{enginetest.MakeRequest(1, 1)}
	d := types.BatchDigest(reqs)
	state := types.Digest{0x5A}
	var out consensus.Out
	// take hands back what the last step emitted and resets out.
	take := func() (commits, execs []types.SeqNum, proofs [][]types.CommitSig, evidence int) {
		for _, o := range out.Outputs() {
			switch o.Kind {
			case consensus.KindBroadcast:
				if c, ok := o.Broadcast.Msg.(*types.Commit); ok {
					commits = append(commits, c.Seq)
				}
			case consensus.KindExecute:
				execs = append(execs, o.Execute.Seq)
				proofs = append(proofs, o.Execute.Proof)
			case consensus.KindEvidence:
				evidence++
			}
		}
		out.Reset()
		return
	}
	vote := func(seq types.SeqNum, from types.ReplicaID, prepare bool, auth byte) {
		var msg types.Message = &types.Commit{Seq: seq, Digest: d, Replica: from}
		if prepare {
			msg = &types.Prepare{Seq: seq, Digest: d, Replica: from}
		}
		e.OnMessage(types.ReplicaNode(from), msg, []byte{auth, byte(from)}, &out)
	}
	free := func() int {
		n := 0
		for i := range e.stripes {
			n += len(e.stripes[i].free)
		}
		return n
	}

	for seq := types.SeqNum(1); seq <= delta; seq++ {
		if !e.Propose(reqs, &out) {
			t.Fatalf("seq %d: propose refused", seq)
		}
		for _, from := range []types.ReplicaID{1, 2, 3} {
			vote(seq, from, true, 0xA1)
			vote(seq, from, false, 0xA1)
		}
		if _, execs, _, _ := take(); len(execs) != 1 || execs[0] != seq {
			t.Fatalf("seq %d: full vote tables released %v", seq, execs)
		}
		e.OnExecuted(seq, state, &out)
		take()
	}
	for _, from := range []types.ReplicaID{1, 2} {
		e.OnMessage(types.ReplicaNode(from), &types.Checkpoint{Seq: delta, StateDigest: state, Replica: from}, nil, &out)
		take()
	}
	if e.LowWatermark() != delta || e.OpenInstances() != 0 || free() != delta {
		t.Fatalf("after the checkpoint: low watermark %d, %d instances open, %d free; want %d, 0, %d",
			e.LowWatermark(), e.OpenInstances(), free(), delta, delta)
	}

	for seq := types.SeqNum(delta + 1); seq <= 2*delta; seq++ {
		if !e.Propose(reqs, &out) {
			t.Fatalf("seq %d: propose refused", seq)
		}
		vote(seq, 1, true, 0xA2) // f prepares
		vote(seq, 1, false, 0xA2)
		vote(seq, 2, false, 0xA2) // 2f commits
		if commits, execs, _, evidence := take(); len(commits)+len(execs)+evidence != 0 {
			t.Fatalf("seq %d: f prepares and 2f commits sent commits %v, released %v, %d evidence", seq, commits, execs, evidence)
		}
	}
	if free() != 0 {
		t.Fatalf("%d pruned instances left on the free lists: the second Δ did not reuse them", free())
	}
	want := []types.CommitSig{{Replica: 0}, {Replica: 1, Auth: []byte{0xA2, 1}}, {Replica: 2, Auth: []byte{0xA2, 2}}}
	for seq := types.SeqNum(delta + 1); seq <= 2*delta; seq++ {
		vote(seq, 2, true, 0xA2)
		commits, execs, proofs, evidence := take()
		if len(commits) != 1 || len(execs) != 1 || execs[0] != seq || evidence != 0 {
			t.Fatalf("seq %d: the completing prepare sent commits %v, released %v, %d evidence; want one each", seq, commits, execs, evidence)
		}
		if !reflect.DeepEqual(proofs[0], want) {
			t.Fatalf("seq %d: commit proof %+v, want %+v", seq, proofs[0], want)
		}
	}
}

// poisonInstance fills every field reset must clear with what no real
// instance holds — 0xDB digests and authenticators, every flag set, a
// one-request batch.
func poisonInstance(in *instance) {
	d := types.Digest(bytes.Repeat([]byte{0xDB}, len(types.Digest{})))
	*in = instance{
		view: 0xDBDB, digest: d, havePP: true, isNull: true, requests: make([]types.ClientRequest, 1),
		votes: in.votes, sentCommit: true, committed: true, released: true,
	}
	for i := range in.votes {
		v := &in.votes[i]
		v.prepare, v.commit, v.prepared, v.committed = d, d, true, true
		copy(v.authBuf[:], bytes.Repeat([]byte{0xDB}, len(v.authBuf)))
		v.commitAuth = v.authBuf[:]
	}
}
