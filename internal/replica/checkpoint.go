package replica

import (
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/types"
)

// ---- Checkpoint stage (Section 4.7) ----

// admitCheckpoint checks a peer's checkpoint vote before the engine records
// it: its signature must be the sender's over (seq, digest), because the
// vote may become part of a certificate others check. A vote the engine
// would not count — its checkpoint has a quorum, or the sender voted
// already — is dropped unchecked; one whose signature fails is dropped as
// Evidence. A sender that is not a replica is left to the engine to refuse.
func (r *Replica) admitCheckpoint(from types.NodeID, m *types.Checkpoint) bool {
	if !from.IsReplica() {
		return true
	}
	if !r.engine.CountsCheckpoint(from.Replica(), m.Seq) {
		return false
	}
	r.ckptVerifies.Add(1)
	if err := r.ckptKeys.VerifyCheckpoint(from.Replica(), m.Seq, m.StateDigest, &m.Sig); err != nil {
		r.ckptRejects.Add(1)
		r.evidence.Add(1)
		return false
	}
	return true
}

func (r *Replica) checkpointLoop() {
	defer r.stage1Wg.Done()
	var out consensus.Out
	for item := range r.ckptQ.C() {
		t0 := time.Now()
		r.processItem(item, &out)
		r.addBusy(StageCheckpoint, time.Since(t0))
	}
}

// ---- Store compaction (checkpoint-driven, Section 4.7) ----

// signalCompact nudges the compactor goroutine; it never blocks, and a
// swallowed signal only defers compaction to the next stable checkpoint.
func (r *Replica) signalCompact() {
	if r.compactC == nil {
		return
	}
	select {
	case r.compactC <- struct{}{}:
	default:
	}
}

// compactLoop is the replica's single compactor thread: stable
// checkpoints wake it and it runs the store's threshold-driven
// MaybeCompact, so a log rewrite stalls (at most) one shard's writers but
// never the worker-thread or the checkpoint-thread. Errors are not fatal —
// a failed rewrite leaves the old log authoritative — and surface through
// Stats.StoreCompactFailures.
func (r *Replica) compactLoop() {
	defer r.compactWg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-r.compactC:
			_, _ = r.compactor.MaybeCompact()
		}
	}
}
