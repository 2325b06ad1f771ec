package replica

import (
	"runtime"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/types"
)

// ---- Batch stage (Section 4.3) ----

// batchLoop is one batch-thread: it parks on the shared queue for the first
// request of a batch, takes whatever else is already queued up to BatchSize
// transactions, verifies client signatures, and proposes. It never waits for
// stragglers: while propose verifies and steps the engine the queue builds,
// and the next drain takes it, so load fills batches by itself and an idle
// primary proposes a lone request at once. Busy time is assembling,
// verifying and proposing; time parked on the empty queue or on a full
// watermark window is not counted.
//
// Only the batch-thread holding batchTurn waits on the queue and drains it;
// it gives the turn up before it proposes. With every batch-thread parked
// on the queue at once, a burst's requests went one to each (a send hands
// its value to a parked receiver), and burst-1 clients got batches of one
// or two transactions and half the throughput. Before it parks, the holder
// polls the empty queue a few times, yielding in between, as the lock-free
// ring's consumer did: under load the next requests arrive within those
// yields and queue up behind one another, where a parked holder is handed
// the first alone and proposes it before the rest are queued. An idle
// primary's yields return at once.
//
// A batch is drained as the decoded requests themselves, into a slice the
// thread reuses; propose copies the survivors of the signature check into a
// pooled Batch.
func (r *Replica) batchLoop() {
	defer r.stage1Wg.Done()
	var out consensus.Out
	var reqs []*types.ClientRequest
	in := r.batchQ.C()
	for {
		<-r.batchTurn
		var first *types.ClientRequest
		ok, got := false, false
		for spin := 0; spin < 8 && !got; spin++ {
			select {
			case first, ok = <-in:
				got = true
			default:
				runtime.Gosched()
			}
		}
		if !got {
			first, ok = <-in
		}
		if !ok {
			r.batchTurn <- struct{}{}
			return
		}
		t0 := time.Now()
		reqs = append(reqs[:0], first)
		txns := len(first.Txns)
	drain:
		for txns < r.cfg.BatchSize {
			select {
			case next, ok := <-in:
				if !ok {
					break drain
				}
				reqs = append(reqs, next)
				txns += len(next.Txns)
			default:
				break drain // queue drained: propose what we have
			}
		}
		r.batchTurn <- struct{}{}
		parked := r.propose(reqs, &out)
		clear(reqs)
		r.addBusy(StageBatch, time.Since(t0)-parked)
	}
}

// propose verifies client signatures, moves the survivors into a pooled
// Batch and drives the engine's Propose into out, the calling goroutine's
// own, retrying while the watermark window is full. The batch takes over
// each request's reference; the engine and the execute stage take their
// own, and the caller's goes once the pre-prepare is encoded or the batch
// is given up. It returns how long it sat parked in awaitProgress, which is
// waiting, not work.
func (r *Replica) propose(reqs []*types.ClientRequest, out *consensus.Out) (parked time.Duration) {
	if len(reqs) == 0 {
		return
	}
	if reqs = r.verifyClientSigs(reqs); len(reqs) == 0 {
		return
	}
	b := types.AcquireBatch()
	for _, req := range reqs {
		b.Add(req)
	}
	defer b.Release()
	batch := b.Requests()
	park := func() bool {
		t0 := time.Now()
		ok := r.awaitProgress()
		parked += time.Since(t0)
		return ok
	}
	for {
		if r.cfg.DisableOutOfOrder {
			// Ablation: strictly one consensus instance at a time.
			for r.inflight.Load() > 0 {
				if !park() {
					return parked
				}
			}
		}
		if !r.engine.IsPrimary() {
			return parked // lost the primary role; clients will retransmit
		}
		if r.engine.Propose(batch, out) {
			if r.cfg.DisableOutOfOrder {
				r.inflight.Add(1)
			}
			r.handleActions(out)
			return parked
		}
		// Watermark window full (or the primary role was lost between the
		// check and the call): park until execution catches up.
		if !park() {
			return parked
		}
	}
}

// verifyClientSigs checks every request's client signature — over the
// digest the request already carries, so nothing is marshalled or hashed
// here — and returns the survivors in order, in reqs' array; a refused
// request is released at once. Only the primary runs it, on the thread
// that proposes: a batch-thread, so the B batch-threads are the check's
// fan-out, or the worker-thread at 0B. A backup takes the requests of a
// proposal on the primary's authenticator and the batch digest.
func (r *Replica) verifyClientSigs(reqs []*types.ClientRequest) []*types.ClientRequest {
	kept := reqs[:0]
	for _, req := range reqs {
		if err := r.auth.VerifyDigest(types.ClientNode(req.Client), req.Digest(), req.Sig); err != nil {
			r.authFailures.Add(1)
			types.ReleaseMessage(req)
			continue
		}
		kept = append(kept, req)
	}
	return kept
}

// awaitProgress parks the calling batch-thread until the pipeline makes
// progress (a batch executes or a checkpoint stabilizes) or a fallback
// timer fires — the capacity-one progress channel may swallow a signal
// under contention, so waiters never rely on it alone. It reports false
// when the replica is stopping.
func (r *Replica) awaitProgress() bool {
	t := time.NewTimer(2 * time.Millisecond)
	defer t.Stop()
	select {
	case <-r.stop:
		return false
	case <-r.progressC:
		return true
	case <-t.C:
		return true
	}
}

// signalProgress wakes one parked batch-thread; it never blocks.
func (r *Replica) signalProgress() {
	select {
	case r.progressC <- struct{}{}:
	default:
	}
}
