package replica

import (
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/types"
)

// workItem is the union flowing into the worker-thread: either an
// authenticated, decoded peer message or (in 0B mode) a client request to
// batch. The input stage authenticates and decodes the envelope before
// routing — that cost stays off the worker-thread — so msg is always
// non-nil when env is. The item carries the envelope and the decoder's
// reference on msg or req, which its consumer releases.
type workItem struct {
	env *types.Envelope
	msg types.Message
	req *types.ClientRequest
}

// ---- Worker stage (Sections 4.3–4.4) ----

// workerLoop is the worker-thread: it drives the consensus engine over
// every peer message but checkpoints and (in 0B mode) also assembles
// batches, by the batch stage's rule: a pending batch is proposed when it
// is full or when the queue drains, never on a timer.
func (r *Replica) workerLoop() {
	defer r.stage1Wg.Done()
	var pend []*types.ClientRequest
	pendTxns := 0
	var out consensus.Out
	for item := range r.workQ.C() {
		t0 := time.Now()
		if item.req != nil {
			pend = append(pend, item.req)
			pendTxns += len(item.req.Txns)
		} else {
			r.processItem(item, &out)
		}
		var parked time.Duration
		if len(pend) > 0 && (pendTxns >= r.cfg.BatchSize || r.workQ.Len() == 0) {
			parked = r.propose(pend, &out)
			clear(pend)
			pend, pendTxns = pend[:0], 0
		}
		r.addBusy(StageWorker, time.Since(t0)-parked)
	}
}

// processItem applies one peer message the input stage authenticated and
// decoded. The engine step writes into out, the calling goroutine's own.
func (r *Replica) processItem(item workItem, out *consensus.Out) {
	env := item.env
	// The caller is the envelope's final owner, and the message's decoder's:
	// the engine step below is the one they were decoded for. What outlives
	// it is the engine's to copy — env.Auth and a vote are borrowed — or, for
	// a proposal's requests, to take a reference on. Every refusal below
	// releases at once.
	defer env.Release()
	defer types.ReleaseMessage(item.msg)
	// A proposal's authenticator covers its header only
	// (types.AuthenticatedBytes), so this check — unconditional, an empty
	// batch included — is what authenticates the requests behind it. It
	// folds the digests decode already computed; no request byte is read
	// again.
	switch m := item.msg.(type) {
	case *types.PrePrepare:
		if types.BatchDigest(m.Requests) != m.Digest {
			r.authFailures.Add(1)
			return
		}
	case *types.Checkpoint:
		if !r.admitCheckpoint(env.From, m) {
			return
		}
	}
	r.engine.OnMessage(env.From, item.msg, out)
	r.handleActions(out)
}

// ---- Action dispatch ----

// handleActions interprets the outputs of the engine step just taken, in
// order, and resets out. It may be called from the worker-thread, the
// checkpoint-thread, a batch-thread, the execute-thread, or the watchdog,
// each with its own Out; every path it touches is safe for concurrent use.
// A vote or pre-prepare the engine broadcast is lent: it goes back to its
// pool once broadcast has encoded it.
func (r *Replica) handleActions(out *consensus.Out) {
	outs := out.Outputs()
	for i := range outs {
		switch o := &outs[i]; o.Kind {
		case consensus.KindBroadcast:
			r.broadcast(o.Broadcast.Msg)
			types.ReleaseMessage(o.Broadcast.Msg)
		case consensus.KindSend:
			r.sendTo(o.Send.To, o.Send.Msg)
		case consensus.KindExecute:
			// The Execute carries the engine's reference for the execute
			// stage, which holds the batch until it retires; the engine's
			// own lasts until a checkpoint prunes it, which may come first.
			r.execPending.Add(1)
			if !r.execIn.Offer(uint64(o.Execute.Seq), execItem{act: o.Execute}) {
				types.ReleaseRequests(o.Execute.Requests)
				r.execPending.Add(-1)
			}
			if r.cfg.ExecuteThreads < 0 {
				r.inlineExecute()
			}
		case consensus.KindCheckpointStable:
			if cs := &o.CheckpointStable; len(cs.Cert) > 0 {
				if err := r.ledger.Certify(cs.Seq, cs.Digest, cs.Cert); err != nil {
					// The quorum certified a digest this replica's own
					// chain does not reach: its ledger has diverged.
					r.evidence.Add(1)
				}
			}
			r.ledger.Prune(uint64(o.CheckpointStable.Seq))
			// A stable checkpoint is the paper's license to discard old
			// state (§4.7): the same moment the ledger prunes, the durable
			// store may drop superseded record versions. Nudge the
			// compactor goroutine; it applies the garbage-ratio threshold.
			r.signalCompact()
			// A stable checkpoint advances the watermark window; wake any
			// batch-thread parked on a full window.
			r.signalProgress()
		case consensus.KindViewChanged:
			view := o.ViewChanged.View
			r.notPrimary.Store(consensus.PrimaryOf(view, r.cfg.N) != r.cfg.ID)
			// The watchdog's timer restarts with the view (PBFT's rule): the
			// new primary gets a whole ViewTimeout to show progress. Without
			// this a replica that joined the view change on f+1 votes, not
			// on its own time-out, still carries the old view's idle time;
			// its next tick, a moment after it entered, votes it out of the
			// new view alone, and a lone voter is never followed.
			r.lastProgress.Store(time.Now().UnixNano())
			r.watchedView.Store(uint64(view))
		case consensus.KindEvidence:
			r.evidence.Add(1)
		}
	}
	out.Reset()
}

// ---- Watchdog (view-change trigger) ----

func (r *Replica) watchdogLoop() {
	defer r.watchWg.Done()
	tick := time.NewTicker(r.cfg.ViewTimeout / 2)
	defer tick.Stop()
	var out consensus.Out
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			if !r.pendingHint.Load() {
				continue
			}
			// The view first, then the idle time measured in it (or in a
			// later one): the engine ignores a time-out about a view it left.
			view := types.View(r.watchedView.Load())
			idle := time.Since(time.Unix(0, r.lastProgress.Load()))
			if idle < r.cfg.ViewTimeout {
				continue
			}
			r.engine.OnViewTimeout(view, &out)
			r.handleActions(&out)
			r.lastProgress.Store(time.Now().UnixNano()) // back off
		}
	}
}
