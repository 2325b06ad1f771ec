package pbft

import (
	"sync"
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/types"
)

// TestConcurrentStepping drives a backup engine from many goroutines at
// once — each owning a disjoint set of sequence numbers — while checkpoint
// traffic and OnExecuted notifications run concurrently, as the replica's
// worker-, execute- and checkpoint-threads do. Under -race this exercises
// the engine's one lock; functionally it checks that every instance
// commits exactly once with the digest the primary proposed.
func TestConcurrentStepping(t *testing.T) {
	const (
		k     = 240 // batches
		lanes = 8
	)
	primary, err := New(Config{ID: 0, N: 4, CheckpointInterval: 16, WatermarkWindow: 1024})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := New(Config{ID: 1, N: 4, CheckpointInterval: 16, WatermarkWindow: 1024})
	if err != nil {
		t.Fatal(err)
	}

	// The primary proposes k batches; capture the pre-prepares.
	pps := make([]*types.PrePrepare, 0, k)
	var out consensus.Out
	for i := 0; i < k; i++ {
		req := types.ClientRequest{Client: 1, FirstSeq: uint64(i + 1)}
		if !primary.Propose([]types.ClientRequest{req}, &out) || len(out.Outputs()) != 1 {
			t.Fatalf("propose %d: got %d outputs", i, len(out.Outputs()))
		}
		pps = append(pps, out.Outputs()[0].Broadcast.Msg.(*types.PrePrepare))
		out.Reset()
	}

	// Quorum-stable checkpoints need matching votes from 2f+1 replicas;
	// the execution layer below reports a test-fixed digest, so votes
	// from replicas 2 and 3 agree with it.
	ckDigest := types.Digest{42}

	// The execution layer: instances commit out of order across the
	// goroutines, but OnExecuted must be reported in sequence order (that
	// is the replica's execute-thread contract — out-of-order reports
	// would let a checkpoint garbage-collect instances that never ran). It
	// runs concurrently with the stepping goroutines, so the checkpoint
	// paths interleave with the per-instance steps.
	executed := make(map[types.SeqNum]types.Digest)
	execC := make(chan consensus.Execute, k)
	var execWg sync.WaitGroup
	execWg.Add(1)
	go func() {
		defer execWg.Done()
		pending := make(map[types.SeqNum]consensus.Execute)
		next := types.SeqNum(1)
		var out consensus.Out // the execute goroutine's own
		for ex := range execC {
			if _, dup := executed[ex.Seq]; dup {
				t.Errorf("seq %d released twice", ex.Seq)
				return
			}
			executed[ex.Seq] = ex.Digest
			pending[ex.Seq] = ex
			for {
				cur, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				backup.OnExecuted(cur.Seq, ckDigest, types.Signature{}, &out)
				if uint64(cur.Seq)%16 == 0 {
					for _, rep := range []types.ReplicaID{2, 3} {
						cp := &types.Checkpoint{Seq: cur.Seq, StateDigest: ckDigest, Replica: rep}
						backup.OnMessage(types.ReplicaNode(rep), cp, &out)
					}
				}
				out.Reset()
				next++
			}
		}
	}()

	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var out consensus.Out // the goroutine's own, like a replica thread's
			for i := lane; i < k; i += lanes {
				pp := pps[i]
				seq := pp.Seq
				backup.OnMessage(types.ReplicaNode(0), pp, &out)
				for _, rep := range []types.ReplicaID{2, 3} {
					p := &types.Prepare{View: pp.View, Seq: seq, Digest: pp.Digest, Replica: rep}
					backup.OnMessage(types.ReplicaNode(rep), p, &out)
				}
				for _, rep := range []types.ReplicaID{0, 2, 3} {
					c := &types.Commit{View: pp.View, Seq: seq, Digest: pp.Digest, Replica: rep}
					backup.OnMessage(types.ReplicaNode(rep), c, &out)
				}
				for _, o := range out.Outputs() {
					if o.Kind == consensus.KindExecute {
						execC <- o.Execute
					}
				}
				out.Reset()
			}
		}(lane)
	}
	wg.Wait()
	close(execC)
	execWg.Wait()

	if len(executed) != k {
		t.Fatalf("executed %d of %d instances", len(executed), k)
	}
	for i, pp := range pps {
		d, ok := executed[pp.Seq]
		if !ok {
			t.Fatalf("seq %d never executed", pp.Seq)
		}
		if d != pp.Digest {
			t.Fatalf("seq %d executed digest mismatch (batch %d)", pp.Seq, i)
		}
	}
	if got := backup.Stats().Executed; got != k {
		t.Fatalf("stats.Executed = %d, want %d", got, k)
	}
	// Checkpoints stabilized concurrently; everything at or below the low
	// watermark must be garbage collected.
	if lw := backup.LowWatermark(); lw == 0 {
		t.Fatal("no checkpoint stabilized under concurrent stepping")
	}
	if open := backup.OpenInstances(); open >= k {
		t.Fatalf("garbage collection missed: %d instances still open", open)
	}
}

// TestConcurrentCheckpointVotes hammers the checkpoint vote table from
// many goroutines at once — every replica's votes for many checkpoint
// sequences, interleaved with local OnExecuted reports and prepare steps.
// Under -race this exercises vote recording and stabilization against
// instance stepping; functionally the low watermark must reach the newest
// fully-voted checkpoint and the vote table must be pruned behind it.
func TestConcurrentCheckpointVotes(t *testing.T) {
	const (
		interval = 4
		ckpts    = 50 // checkpoint sequences: 4, 8, ..., 200
	)
	e, err := New(Config{ID: 1, N: 4, CheckpointInterval: interval, WatermarkWindow: 4096})
	if err != nil {
		t.Fatal(err)
	}
	digest := types.Digest{7}

	var wg sync.WaitGroup
	// Local execution reports, in order (the execute-thread contract).
	wg.Add(1)
	go func() {
		defer wg.Done()
		var out consensus.Out
		for s := 1; s <= ckpts*interval; s++ {
			e.OnExecuted(types.SeqNum(s), digest, types.Signature{}, &out)
			out.Reset()
		}
	}()
	// Peer votes: one goroutine per replica, each voting on every
	// checkpoint sequence; every (seq, digest) pair eventually has votes
	// from replicas 0, 2, 3 plus the local OnExecuted vote.
	for _, rep := range []types.ReplicaID{0, 2, 3} {
		wg.Add(1)
		go func(rep types.ReplicaID) {
			defer wg.Done()
			var out consensus.Out
			for c := 1; c <= ckpts; c++ {
				cp := &types.Checkpoint{Seq: types.SeqNum(c * interval), StateDigest: digest, Replica: rep}
				e.OnMessage(types.ReplicaNode(rep), cp, &out)
				out.Reset()
			}
		}(rep)
	}
	// Chatter: prepare steps for unrelated sequence numbers keep the lock
	// busy while votes record and stabilize.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var out consensus.Out
		for s := 1; s <= 200; s++ {
			p := &types.Prepare{View: 0, Seq: types.SeqNum(s), Digest: types.Digest{1}, Replica: 2}
			e.OnMessage(types.ReplicaNode(2), p, &out)
			out.Reset()
		}
	}()
	wg.Wait()

	if lw := e.LowWatermark(); lw != types.SeqNum(ckpts*interval) {
		t.Fatalf("low watermark = %d, want %d", lw, ckpts*interval)
	}
	if got := e.Stats().Checkpoints; got == 0 {
		t.Fatal("no checkpoint counted as stable")
	}
	// The vote table must be pruned behind the watermark: a late stale
	// vote must neither resurrect state nor advance anything.
	if acts := onMessage(e, types.ReplicaNode(0), &types.Checkpoint{Seq: interval, StateDigest: digest, Replica: 0}); len(acts) != 0 {
		t.Fatalf("stale checkpoint vote produced %d actions", len(acts))
	}
}

// TestConcurrentProposeFastPath drives Propose from several goroutines at
// once — the multi-batch-thread primary, each hashing its batch before it
// takes the lock — racing prepare stepping. Propose must hand out dense,
// unique sequence numbers with no gaps (a reserved number is always
// proposed).
func TestConcurrentProposeFastPath(t *testing.T) {
	const (
		proposers = 4
		perP      = 50
	)
	e, err := New(Config{ID: 0, N: 4, CheckpointInterval: 1 << 20, WatermarkWindow: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[types.SeqNum]types.Digest)
	var wg sync.WaitGroup
	for p := 0; p < proposers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var out consensus.Out
			for i := 0; i < perP; i++ {
				req := types.ClientRequest{Client: types.ClientID(p), FirstSeq: uint64(i + 1)}
				if !e.Propose([]types.ClientRequest{req}, &out) || len(out.Outputs()) != 1 {
					t.Errorf("proposer %d: got %d outputs", p, len(out.Outputs()))
					return
				}
				pp := out.Outputs()[0].Broadcast.Msg.(*types.PrePrepare)
				out.Reset()
				mu.Lock()
				if _, dup := seen[pp.Seq]; dup {
					t.Errorf("sequence %d assigned twice", pp.Seq)
				}
				seen[pp.Seq] = pp.Digest
				mu.Unlock()
			}
		}(p)
	}
	// Concurrent stepping on the same engine: prepares for already-created
	// instances race the proposers' instance writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var out consensus.Out
		for s := 1; s <= proposers*perP; s++ {
			p := &types.Prepare{View: 0, Seq: types.SeqNum(s), Digest: types.Digest{9}, Replica: 2}
			e.OnMessage(types.ReplicaNode(2), p, &out)
			out.Reset()
		}
	}()
	wg.Wait()

	if len(seen) != proposers*perP {
		t.Fatalf("assigned %d distinct sequence numbers, want %d", len(seen), proposers*perP)
	}
	// Dense: exactly 1..proposers*perP, no holes.
	for s := 1; s <= proposers*perP; s++ {
		if _, ok := seen[types.SeqNum(s)]; !ok {
			t.Fatalf("sequence %d never proposed (hole)", s)
		}
	}
	if got := e.Stats().Proposed; got != proposers*perP {
		t.Fatalf("stats.Proposed = %d, want %d", got, proposers*perP)
	}
}

// TestConcurrentViewChange races a view change against in-flight prepare
// traffic: stale-view messages may land before or after the transition,
// but the engine must end in the new view with a consistent primary
// mirror, and under -race the view-change path must be clean against
// concurrent stepping.
func TestConcurrentViewChange(t *testing.T) {
	// Replica 1 is the primary of view 1: once it collects 2f+1
	// view-change votes it builds the NewView itself and enters the view.
	e, err := New(Config{ID: 1, N: 4, WatermarkWindow: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Prepare/commit chatter for many sequence numbers in view 0.
	for lane := 0; lane < 4; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var out consensus.Out
			for s := 1 + lane; s <= 200; s += 4 {
				p := &types.Prepare{View: 0, Seq: types.SeqNum(s), Digest: types.Digest{1}, Replica: 2}
				e.OnMessage(types.ReplicaNode(2), p, &out)
				out.Reset()
			}
		}(lane)
	}
	// Concurrently: our own timeout plus view-change votes from peers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var out consensus.Out
		e.OnViewTimeout(0, &out)
		for _, rep := range []types.ReplicaID{0, 2, 3} {
			vc := &types.ViewChange{NewView: 1, Replica: rep}
			e.OnMessage(types.ReplicaNode(rep), vc, &out)
		}
	}()
	wg.Wait()

	if got := e.View(); got != 1 {
		t.Fatalf("view = %d, want 1 after quorum view change", got)
	}
	if !e.IsPrimary() {
		t.Fatal("replica 1 must lead view 1")
	}
	if e.Stats().ViewChanges == 0 {
		t.Fatal("view change not counted")
	}
}
