package pbft

import (
	"reflect"
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/consensus/enginetest"
	"resilientdb/internal/types"
)

// step delivers msg from replica from and sorts what the engine did into
// the two transitions the vote table drives.
func step(e *Engine, from types.ReplicaID, msg types.Message, auth []byte) (commit bool, exec *consensus.Execute) {
	for _, a := range e.OnMessage(types.ReplicaNode(from), msg, auth) {
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
	e.Propose(reqs)
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
// commit and execute actions it answers with — at a dozen allocations. The
// messages are built outside the measurement, as the decoder builds them
// in a replica; what is counted is the instance, its vote table, the two
// messages and three actions the engine creates, and the commit proof.
func TestInstanceAllocationCap(t *testing.T) {
	const runs = 1000
	e, err := New(Config{ID: 1, N: 4, CheckpointInterval: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []types.ClientRequest{enginetest.MakeRequest(1, 1)}
	d := types.BatchDigest(reqs)
	type msgs struct {
		pp       *types.PrePrepare
		prepares [2]*types.Prepare
		commits  [3]*types.Commit
	}
	all := make([]msgs, runs+1) // AllocsPerRun warms up with one extra run
	for i := range all {
		seq := types.SeqNum(i + 1)
		all[i].pp = &types.PrePrepare{Seq: seq, Digest: d, Requests: reqs}
		for j, from := range []types.ReplicaID{2, 3} {
			all[i].prepares[j] = &types.Prepare{Seq: seq, Digest: d, Replica: from}
		}
		for j, from := range []types.ReplicaID{0, 2, 3} {
			all[i].commits[j] = &types.Commit{Seq: seq, Digest: d, Replica: from}
		}
	}
	auth := []byte{1}
	next, released := 0, 0
	deliver := func(from types.ReplicaID, msg types.Message, auth []byte) {
		for _, a := range e.OnMessage(types.ReplicaNode(from), msg, auth) {
			if _, ok := a.(consensus.Execute); ok {
				released++
			}
		}
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
	})
	if released != runs+1 {
		t.Fatalf("released %d of %d instances", released, runs+1)
	}
	t.Logf("%.1f allocations per instance lifetime at N=4", allocs)
	if allocs > 12 {
		t.Fatalf("%.1f allocations per instance lifetime, cap 12", allocs)
	}
}
