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
func step(e *Engine, from types.ReplicaID, msg types.Message) (commit bool, exec *consensus.Execute) {
	for _, a := range onMessage(e, types.ReplicaNode(from), msg) {
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
		if commit, exec := step(e, from, &types.Prepare{Seq: 1, Digest: d, Replica: from}); commit || exec != nil {
			t.Fatalf("prepare from %d acted before the pre-prepare", from)
		}
	}
	for _, from := range []types.ReplicaID{0, 2, 3} {
		if commit, exec := step(e, from, &types.Commit{Seq: 1, Digest: d, Replica: from}); commit || exec != nil {
			t.Fatalf("commit from %d acted before the pre-prepare", from)
		}
	}
	commit, exec := step(e, 0, &types.PrePrepare{Seq: 1, Digest: d, Requests: reqs})
	if !commit || exec == nil {
		t.Fatalf("pre-prepare after a full set of early votes: commit sent %v, executed %v; want both", commit, exec != nil)
	}
}

// TestTwoDigestVoterCountedOnce: a replica that votes two digests for one
// (view, seq) holds one slot, and its first vote fills it. Its second vote
// — for the right digest — adds nothing, so it can never be the vote that
// completes a quorum.
func TestTwoDigestVoterCountedOnce(t *testing.T) {
	e, err := New(Config{ID: 0, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []types.ClientRequest{enginetest.MakeRequest(1, 1)}
	e.Propose(reqs, new(consensus.Out))
	d, other := types.BatchDigest(reqs), types.Digest{0xBA, 0xD0}

	step(e, 3, &types.Prepare{Seq: 1, Digest: other, Replica: 3})
	step(e, 1, &types.Prepare{Seq: 1, Digest: d, Replica: 1})
	if commit, _ := step(e, 3, &types.Prepare{Seq: 1, Digest: d, Replica: 3}); commit {
		t.Fatal("a second prepare from a replica that had already voted another digest completed the prepare quorum")
	}
	if commit, _ := step(e, 2, &types.Prepare{Seq: 1, Digest: d, Replica: 2}); !commit {
		t.Fatal("2f prepares from replicas that voted once did not prepare the batch")
	}

	step(e, 3, &types.Commit{Seq: 1, Digest: other, Replica: 3})
	step(e, 1, &types.Commit{Seq: 1, Digest: d, Replica: 1})
	if _, exec := step(e, 3, &types.Commit{Seq: 1, Digest: d, Replica: 3}); exec != nil {
		t.Fatal("a second commit from a replica that had already voted another digest completed the commit quorum")
	}
	if _, exec := step(e, 2, &types.Commit{Seq: 1, Digest: d, Replica: 2}); exec == nil {
		t.Fatal("2f+1 commits from replicas that voted once did not commit the batch")
	}
}

// TestCheckpointCertificateOrderAndContent pins the certificate a stable
// checkpoint carries: the votes for the quorum's digest in replica-id order
// whatever order they arrived in, each with the signature it arrived with,
// this replica's own with the one it was executed with, no vote for
// another digest, and nothing that arrives after the quorum. The engine
// counts a vote only while its checkpoint lacks a quorum and the sender has
// not voted, which is what CountsCheckpoint tells a driver before it spends
// a signature check.
func TestCheckpointCertificateOrderAndContent(t *testing.T) {
	e, err := New(Config{ID: 2, N: 7, CheckpointInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, other := types.Digest{0xC0}, types.Digest{0xBA, 0xD0}
	sig := func(from types.ReplicaID) types.Signature { return types.Signature{0: 0x51, 1: byte(from), 63: 0x5E} }
	var out consensus.Out
	e.OnExecuted(1, d, sig(2), &out)
	out.Reset()
	var stable []consensus.CheckpointStable
	vote := func(from types.ReplicaID, digest types.Digest) {
		counts := e.CountsCheckpoint(from, 1)
		e.OnMessage(types.ReplicaNode(from), &types.Checkpoint{Seq: 1, StateDigest: digest, Replica: from, Sig: sig(from)}, &out)
		for _, o := range out.Outputs() {
			if o.Kind == consensus.KindCheckpointStable {
				stable = append(stable, o.CheckpointStable)
			}
		}
		out.Reset()
		if !counts && len(stable) == 0 {
			t.Fatalf("CountsCheckpoint refused replica %d's first vote before the quorum", from)
		}
	}
	for _, from := range []types.ReplicaID{5, 0, 6, 3} { // with its own, 4 for d
		digest := d
		if from == 0 {
			digest = other
		}
		vote(from, digest)
		if len(stable) != 0 {
			t.Fatalf("stable before 2f+1 = 5 matching votes, after replica %d's", from)
		}
	}
	if e.CountsCheckpoint(5, 1) || e.CountsCheckpoint(0, 1) || !e.CountsCheckpoint(1, 1) {
		t.Fatal("CountsCheckpoint counts a second vote, or refuses a first one, before the quorum")
	}
	vote(1, d)
	if len(stable) != 1 {
		t.Fatalf("%d stable checkpoints after the fifth matching vote, want 1", len(stable))
	}
	want := consensus.CheckpointStable{Seq: 1, Digest: d, Cert: []types.CheckpointSig{
		{Replica: 1, Sig: sig(1)},
		{Replica: 2, Sig: sig(2)},
		{Replica: 3, Sig: sig(3)},
		{Replica: 5, Sig: sig(5)},
		{Replica: 6, Sig: sig(6)},
	}}
	if !reflect.DeepEqual(stable[0], want) {
		t.Fatalf("stable checkpoint %+v, want %+v", stable[0], want)
	}
	if e.CountsCheckpoint(4, 1) {
		t.Fatal("CountsCheckpoint counts a vote for a checkpoint already stable")
	}
	vote(4, d)
	if len(stable) != 1 {
		t.Fatal("a vote after the quorum stabilized the checkpoint again")
	}
}

// TestCheckpointSlotsCarryNothingOver: a checkpoint's vote slot, recycled
// when the checkpoint becomes stable, serves the next checkpoint with no
// vote, signature or quorum left over: the next one needs its own 2f+1.
func TestCheckpointSlotsCarryNothingOver(t *testing.T) {
	const delta = 4
	e, err := New(Config{ID: 0, N: 4, CheckpointInterval: delta})
	if err != nil {
		t.Fatal(err)
	}
	d := types.Digest{0xC0}
	var out consensus.Out
	stable := func() (seqs []types.SeqNum, certs int) {
		for _, o := range out.Outputs() {
			if o.Kind == consensus.KindCheckpointStable {
				seqs = append(seqs, o.CheckpointStable.Seq)
				certs += len(o.CheckpointStable.Cert)
			}
		}
		out.Reset()
		return seqs, certs
	}
	for seq := types.SeqNum(1); seq <= 2*delta; seq++ {
		e.OnExecuted(seq, d, types.Signature{0: byte(seq)}, &out)
	}
	stable()
	for _, from := range []types.ReplicaID{1, 2} {
		e.OnMessage(types.ReplicaNode(from), &types.Checkpoint{Seq: delta, StateDigest: d, Replica: from, Sig: types.Signature{1: byte(from)}}, &out)
	}
	if seqs, certs := stable(); len(seqs) != 1 || seqs[0] != delta || certs != 3 {
		t.Fatalf("first checkpoint: stable %v with %d signatures, want [%d] with 3", seqs, certs, delta)
	}
	if len(e.ckpts.free) == 0 {
		t.Fatal("the stable checkpoint's slot was not recycled")
	}
	if !e.CountsCheckpoint(1, 2*delta) || !e.CountsCheckpoint(2, 2*delta) {
		t.Fatal("a recycled slot refuses votes its first life held")
	}
	e.OnMessage(types.ReplicaNode(1), &types.Checkpoint{Seq: 2 * delta, StateDigest: d, Replica: 1, Sig: types.Signature{1: 1}}, &out)
	if seqs, _ := stable(); len(seqs) != 0 {
		t.Fatalf("second checkpoint stable at %v with 2 of 3 votes", seqs)
	}
	e.OnMessage(types.ReplicaNode(3), &types.Checkpoint{Seq: 2 * delta, StateDigest: d, Replica: 3, Sig: types.Signature{1: 3}}, &out)
	if seqs, certs := stable(); len(seqs) != 1 || seqs[0] != 2*delta || certs != 3 || e.LowWatermark() != 2*delta {
		t.Fatalf("second checkpoint: stable %v with %d signatures, watermark %d; want [%d] with 3", seqs, certs, e.LowWatermark(), 2*delta)
	}
}

// TestInstanceAllocationCap holds one replica's whole cost for one
// instance — the pre-prepare, 2f prepares, 2f+1 commits, and the prepare,
// commit and execute it answers with, into one reused Out — at no
// allocation. The messages are built outside the measurement, as the
// decoder builds them in a replica, and the votes the engine emits go back
// to their pool once handled, as the replica's broadcast gives them back.
// Every tenth instance is executed into a signed checkpoint that
// stabilizes, so instances and checkpoint slots are pruned onto their free
// lists and opened again from them while it counts; the certificate a
// stabilization hands out, one per ten instances, rounds to nothing.
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
			all[i].ckpts[j] = &types.Checkpoint{Seq: seq, StateDigest: state, Replica: from, Sig: types.Signature{0: byte(from)}}
		}
		for j, from := range []types.ReplicaID{0, 2, 3} {
			all[i].commits[j] = &types.Commit{Seq: seq, Digest: d, Replica: from}
		}
	}
	var out consensus.Out
	next, released, stable := 0, 0, 0
	handle := func() {
		outs := out.Outputs()
		for i := range outs {
			switch o := &outs[i]; o.Kind {
			case consensus.KindBroadcast:
				types.ReleaseMessage(o.Broadcast.Msg)
			case consensus.KindExecute:
				released++
			case consensus.KindCheckpointStable:
				stable++
			}
		}
		out.Reset()
	}
	deliver := func(from types.ReplicaID, msg types.Message) {
		e.OnMessage(types.ReplicaNode(from), msg, &out)
		handle()
	}
	allocs := testing.AllocsPerRun(runs, func() {
		m := &all[next]
		next++
		deliver(0, m.pp)
		deliver(2, m.prepares[0])
		deliver(3, m.prepares[1])
		deliver(0, m.commits[0])
		deliver(2, m.commits[1])
		deliver(3, m.commits[2])
		e.OnExecuted(m.pp.Seq, state, types.Signature{0: 1}, &out)
		handle()
		if next%interval == 0 {
			deliver(2, m.ckpts[0])
			deliver(3, m.ckpts[1])
		}
	})
	if released != runs+1 {
		t.Fatalf("released %d of %d instances", released, runs+1)
	}
	if want := (runs + 1) / interval; stable != want || e.OpenInstances() >= interval {
		t.Fatalf("%d checkpoints stable and %d instances open; want %d and fewer than %d", stable, e.OpenInstances(), want, interval)
	}
	t.Logf("%.1f allocations per instance lifetime at N=4", allocs)
	if allocs > 0 {
		t.Fatalf("%.1f allocations per instance lifetime, cap 0", allocs)
	}
}

// TestRecycledInstancesCarryNothingOver: an instance pruned at a checkpoint
// is opened again for a later sequence number, and nothing of its first
// life counts in its second. Sequence numbers 1..Δ get full prepare and
// commit tables for one batch and a stable checkpoint prunes them onto the
// free list. Δ+1..2Δ then propose the same batch — the same digest, the
// same view — and get f prepares and 2f commits each: nothing may commit or
// execute. One more prepare each then completes them, once. The poisoned
// run fills every pruned instance with garbage before its reset, so a field
// the reset misses shows whatever the previous instance held.
func TestRecycledInstancesCarryNothingOver(t *testing.T) {
	for _, poison := range []bool{false, true} {
		t.Run(fmt.Sprintf("poisoned=%v", poison), func(t *testing.T) {
			testRecycledInstances(t, poison)
		})
	}
}

func testRecycledInstances(t *testing.T, poison bool) {
	const delta = 64
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
	take := func() (commits, execs []types.SeqNum, evidence int) {
		for _, o := range out.Outputs() {
			switch o.Kind {
			case consensus.KindBroadcast:
				if c, ok := o.Broadcast.Msg.(*types.Commit); ok {
					commits = append(commits, c.Seq)
				}
			case consensus.KindExecute:
				execs = append(execs, o.Execute.Seq)
			case consensus.KindEvidence:
				evidence++
			}
		}
		out.Reset()
		return
	}
	vote := func(seq types.SeqNum, from types.ReplicaID, prepare bool) {
		var msg types.Message = &types.Commit{Seq: seq, Digest: d, Replica: from}
		if prepare {
			msg = &types.Prepare{Seq: seq, Digest: d, Replica: from}
		}
		e.OnMessage(types.ReplicaNode(from), msg, &out)
	}
	free := func() int { return len(e.free) }

	for seq := types.SeqNum(1); seq <= delta; seq++ {
		if !e.Propose(reqs, &out) {
			t.Fatalf("seq %d: propose refused", seq)
		}
		for _, from := range []types.ReplicaID{1, 2, 3} {
			vote(seq, from, true)
			vote(seq, from, false)
		}
		if _, execs, _ := take(); len(execs) != 1 || execs[0] != seq {
			t.Fatalf("seq %d: full vote tables released %v", seq, execs)
		}
		e.OnExecuted(seq, state, types.Signature{}, &out)
		take()
	}
	for _, from := range []types.ReplicaID{1, 2} {
		e.OnMessage(types.ReplicaNode(from), &types.Checkpoint{Seq: delta, StateDigest: state, Replica: from}, &out)
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
		vote(seq, 1, true) // f prepares
		vote(seq, 1, false)
		vote(seq, 2, false) // 2f commits
		if commits, execs, evidence := take(); len(commits)+len(execs)+evidence != 0 {
			t.Fatalf("seq %d: f prepares and 2f commits sent commits %v, released %v, %d evidence", seq, commits, execs, evidence)
		}
	}
	if free() != 0 {
		t.Fatalf("%d pruned instances left on the free list: the second Δ did not reuse them", free())
	}
	for seq := types.SeqNum(delta + 1); seq <= 2*delta; seq++ {
		vote(seq, 2, true)
		commits, execs, evidence := take()
		if len(commits) != 1 || len(execs) != 1 || execs[0] != seq || evidence != 0 {
			t.Fatalf("seq %d: the completing prepare sent commits %v, released %v, %d evidence; want one each", seq, commits, execs, evidence)
		}
	}
}

// poisonInstance fills every field reset must clear with what no real
// instance holds — 0xDB digests, every flag set, a one-request batch.
func poisonInstance(in *instance) {
	d := types.Digest(bytes.Repeat([]byte{0xDB}, len(types.Digest{})))
	*in = instance{
		view: 0xDBDB, digest: d, havePP: true, isNull: true, requests: make([]types.ClientRequest, 1),
		votes: in.votes, sentCommit: true, committed: true, released: true,
	}
	for i := range in.votes {
		v := &in.votes[i]
		v.prepare, v.commit, v.prepared, v.committed = d, d, true, true
	}
}
