package replica

import (
	"errors"
	"slices"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/queue"
	"resilientdb/internal/store"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// ---- Input stage (Section 4.1) ----

// inputClientLoop services inbox 0: client requests and locally served
// reads. Client request signatures stay with the batch stage, which
// verifies them batch-wise (Section 4.3).
func (r *Replica) inputClientLoop(inbox <-chan *types.Envelope) {
	defer r.inputWg.Done()
	for env := range inbox {
		t0 := time.Now()
		r.msgsIn.Add(1)
		switch env.Type {
		case types.MsgClientRequest:
			r.handleClientRequest(env)
		case types.MsgReadRequest:
			r.handleReadRequest(env)
		default:
			// An unexpected type on the client inbox is malformed traffic,
			// not an authentication failure.
			r.decodeFailures.Add(1)
			env.Release()
		}
		r.addBusy(StageInput, time.Since(t0))
	}
}

// handleClientRequest decodes one client request off the client inbox and
// hands it to the batch stage. The request's payloads, values and
// signature are views into the frame it arrived in; DecodeEnvelope took
// that frame out of its pool in the same call, so the envelope still
// retires here whatever the outcome, and the request is not copied again
// until a store persists it.
func (r *Replica) handleClientRequest(env *types.Envelope) {
	defer env.Release()
	msg, err := types.DecodeEnvelope(env)
	if err != nil {
		r.decodeFailures.Add(1)
		return
	}
	req, ok := msg.(*types.ClientRequest)
	if !ok {
		return
	}
	if r.isPrimaryHint() {
		if r.cfg.BatchThreads > 0 {
			r.batchQ.Push(req)
		} else {
			// 0B mode: batch assembly lives on the worker-thread.
			select {
			case r.workQ <- workItem{req: req}:
			case <-r.stop:
			}
		}
	} else {
		// A client that resorts to contacting backups signals a
		// stalled primary; remember it for the watchdog.
		r.pendingHint.Store(true)
	}
}

// handleReadRequest services a locally served read (the
// consensus-bypassing read path): the client asked this one replica for
// current values. The input stage authenticates and decodes, then hands
// the request to the dedicated read lane — a local read never touches a
// worker-thread and never consumes a sequence number, and a slow
// (disk-bound) multi-key read never head-of-line blocks the client inbox
// behind its store reads. The envelope retires here on every path: the
// read lane only sees the decoded (copied) request.
func (r *Replica) handleReadRequest(env *types.Envelope) {
	defer env.Release()
	if err := r.verifyEnvelope(env); err != nil {
		r.authFailures.Add(1)
		return
	}
	msg, err := types.DecodeBody(env.Type, env.Body)
	if err != nil {
		r.decodeFailures.Add(1)
		return
	}
	req, ok := msg.(*types.ReadRequest)
	if !ok {
		return
	}
	// Bind the claimed client to the authenticated sender, mirroring
	// the signed-Client binding the ordered ClientRequest path
	// enforces. The authenticated reply goes to req.Client and
	// ClientSeq values are guessable, so without this check a
	// malicious client could plant answers for attacker-chosen keys
	// in a victim's pending read.
	if env.From != types.ClientNode(req.Client) {
		r.authFailures.Add(1)
		return
	}
	select {
	case r.readQ <- req:
	default:
		// The read lane is saturated: drop rather than block
		// consensus-bound traffic behind it. The client times out
		// and rotates to another replica.
		r.localReadDrops.Add(1)
	}
}

// inputReplicaLoop services one replica-traffic inbox.
func (r *Replica) inputReplicaLoop(inbox <-chan *types.Envelope) {
	defer r.inputWg.Done()
	for env := range inbox {
		t0 := time.Now()
		r.msgsIn.Add(1)
		r.admit(env)
		r.addBusy(StageInput, time.Since(t0))
	}
}

// admit takes one peer envelope from the inbox to the stage that owns it.
// A type the PBFT engine does not read is refused first, before it costs an
// authenticator check or a decode, and counted as malformed. With
// VerifyThreads > 0 the input-thread checks the authenticator itself,
// here, before anything is decoded: the check is a hash of a short header
// and one MAC (or one signature verify), the thread already holds the
// envelope, and handing it to another goroutine for that would cost more
// than the check and order nothing — the inbox is FIFO and so is this
// thread. With VerifyThreads -1 the check stays with the worker-thread (the
// paper's cost assignment, kept for the ablations) and the envelope is
// decoded unauthenticated; that gives unverified peers pre-auth parsing on
// the input stage, but the decoder is bounds-checked and O(body bytes) — the
// same order as the MAC check the envelope must pay anyway.
func (r *Replica) admit(env *types.Envelope) {
	switch env.Type {
	case types.MsgPrePrepare, types.MsgPrepare, types.MsgCommit,
		types.MsgCheckpoint, types.MsgViewChange, types.MsgNewView:
	default:
		r.decodeFailures.Add(1)
		env.Release()
		return
	}
	verified := r.cfg.VerifyThreads > 0
	if verified {
		if err := r.verifyEnvelope(env); err != nil {
			r.authFailures.Add(1)
			env.Release()
			return
		}
	}
	r.route(env, verified)
}

// readLoop is one worker of the read lane: it answers locally served
// ReadRequests (point keys and scans) from the last-executed state, off
// the input loop, so store reads are paid here instead of head-of-line
// blocking all client traffic. lastRetired is loaded before the keys are
// read and applied writes never roll back, so the stamped Seq is a valid
// per-key freshness lower bound (there is no cross-key snapshot; see
// types.ReadRequest). A request whose MinSeq this replica has not yet
// retired is refused — the reply carries the stamped Seq but no results —
// and the client falls back to the quorum path, which is how the
// staleness bound on local reads is enforced. Each worker answers into one
// arena of its own, lent to a reply until sendTo has encoded it.
func (r *Replica) readLoop() {
	defer r.readWg.Done()
	var p partition
	var results []types.ReadResult
	for req := range r.readQ {
		last := r.lastRetired.Load()
		reply := &types.ReadReply{
			Client:    req.Client,
			ClientSeq: req.ClientSeq,
			Seq:       types.SeqNum(last),
			Replica:   r.cfg.ID,
		}
		if last >= uint64(req.MinSeq) {
			results = results[:0]
			for _, key := range req.Keys {
				results = append(results, r.readKey(&p, key))
			}
			for i := range req.Scans {
				sc := &req.Scans[i]
				results = append(results,
					types.ReadResult{Scan: true, Rows: r.scanRows(&p, sc.Key, sc.EndKey, sc.Limit, -1)})
			}
			reply.Results = results
		}
		r.localReads.Add(1)
		r.sendTo(types.ClientNode(req.Client), reply)
		p.reset()
	}
}

// route decodes an envelope and hands it to the stage that owns it:
// checkpoint traffic to the checkpoint-thread, everything else to the
// worker-thread. Decoding here, on the input stage, keeps that cost off the
// worker-thread; malformed bodies are counted as DecodeFailures and dropped
// before they can cost it anything. Proposals (PrePrepare, NewView) decode
// as views into their frame, which DecodeEnvelope disowns; votes decode
// into recycled structs the worker-thread gives back after its engine step,
// and their frames go back to the pool.
func (r *Replica) route(env *types.Envelope, verified bool) {
	msg, err := types.DecodeEnvelope(env)
	if err != nil {
		r.decodeFailures.Add(1)
		env.Release()
		return
	}
	q := r.workQ
	if env.Type == types.MsgCheckpoint {
		q = r.ckptQ
	}
	select {
	case q <- workItem{env: env, msg: msg, verified: verified}:
		// Ownership moves to the consuming thread, which releases the
		// envelope after processing it.
	case <-r.stop:
		env.Release()
	}
}

// verifyEnvelope checks an inbound envelope's authenticator over the bytes
// of its body that authenticators cover.
func (r *Replica) verifyEnvelope(env *types.Envelope) error {
	return r.auth.Verify(env.From, types.AuthenticatedBytes(env.Type, env.Body), env.Auth)
}

// isPrimaryHint is the lock-free primary check used on the hot input path;
// it is refreshed whenever the view changes.
func (r *Replica) isPrimaryHint() bool {
	return !r.notPrimary.Load()
}

// ---- Batch stage (Section 4.3) ----

// batchLoop is one batch-thread: it parks on the shared lock-free queue for
// the first request of a batch, takes whatever else is already queued up to
// BatchSize transactions, verifies client signatures, and proposes. It
// never waits for stragglers: while propose verifies and steps the engine
// the queue builds, and the next drain takes it, so load fills batches by
// itself and an idle primary proposes a lone request at once. Busy time is
// assembling, verifying and proposing; time parked on the empty queue or on
// a full watermark window is not counted.
func (r *Replica) batchLoop() {
	defer r.stage1Wg.Done()
	var out consensus.Out
	for {
		first, ok := r.batchQ.Pop()
		if !ok {
			return
		}
		t0 := time.Now()
		reqs := []types.ClientRequest{*first}
		txns := len(first.Txns)
		for txns < r.cfg.BatchSize {
			next, ok := r.batchQ.TryPop()
			if !ok {
				break // queue drained: propose what we have
			}
			reqs = append(reqs, *next)
			txns += len(next.Txns)
		}
		parked := r.propose(reqs, &out)
		r.addBusy(StageBatch, time.Since(t0)-parked)
	}
}

// propose verifies client signatures and drives the engine's Propose into
// out, the calling goroutine's own, retrying while the watermark window is
// full. It returns how long it sat parked in awaitProgress, which is
// waiting, not work.
func (r *Replica) propose(reqs []types.ClientRequest, out *consensus.Out) (parked time.Duration) {
	if len(reqs) == 0 {
		return
	}
	if reqs = r.verifyClientSigs(reqs); len(reqs) == 0 {
		return
	}
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
		if r.engine.Propose(reqs, out) {
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
// here — and returns the survivors in order. Only the primary runs it: a
// backup takes the requests of a proposal on the primary's authenticator
// and the batch digest. With a verify pool available the checks fan out
// across its workers — submitted in order, awaited in order — so one RSA
// verify on the batch-thread no longer serializes the whole batch; without
// a pool (VerifyThreads -1) the checks run inline, which is the paper's
// cost assignment for the 0V ablation.
func (r *Replica) verifyClientSigs(reqs []types.ClientRequest) []types.ClientRequest {
	if r.verifyPool == nil || len(reqs) == 1 {
		kept := reqs[:0]
		for i := range reqs {
			if err := r.auth.VerifyDigest(types.ClientNode(reqs[i].Client), reqs[i].Digest(), reqs[i].Sig); err != nil {
				r.authFailures.Add(1)
				continue
			}
			kept = append(kept, reqs[i])
		}
		return kept
	}
	pending := make([]*crypto.Pending, len(reqs))
	for i := range reqs {
		pending[i] = r.verifyPool.SubmitDigestPooled(types.ClientNode(reqs[i].Client), reqs[i].Digest(), reqs[i].Sig)
	}
	kept := reqs[:0]
	for i := range reqs {
		if err := pending[i].Await(); err != nil {
			r.authFailures.Add(1)
			continue
		}
		kept = append(kept, reqs[i])
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

// ---- Worker stage (Sections 4.3–4.4) ----

// workerLoop is the worker-thread: it drives the consensus engine over
// every peer message but checkpoints and (in 0B mode) also assembles
// batches, by the batch stage's rule: a pending batch is proposed when it
// is full or when the queue drains, never on a timer.
func (r *Replica) workerLoop() {
	defer r.stage1Wg.Done()
	var pend []types.ClientRequest
	pendTxns := 0
	var out consensus.Out
	for item := range r.workQ {
		t0 := time.Now()
		if item.req != nil {
			pend = append(pend, *item.req)
			pendTxns += len(item.req.Txns)
		} else {
			r.processItem(item, &out)
		}
		var parked time.Duration
		if len(pend) > 0 && (pendTxns >= r.cfg.BatchSize || len(r.workQ) == 0) {
			parked = r.propose(pend, &out)
			pend, pendTxns = nil, 0
		}
		r.addBusy(StageWorker, time.Since(t0)-parked)
	}
}

// processItem authenticates and applies one decoded peer message (the
// input stage already decoded it). With VerifyThreads -1 signature
// verification happens here, on the worker-thread, exactly where the paper
// assigns it (Section 4.3); when the input-thread already authenticated
// the envelope (verified true) it is not checked again. The engine step
// writes into out, the calling goroutine's own.
func (r *Replica) processItem(item workItem, out *consensus.Out) {
	env := item.env
	// The caller is the envelope's final owner, and a vote's: the engine step
	// below is the one they were decoded for. What outlives it is the
	// engine's to copy — env.Auth and a vote are borrowed — or a view into
	// a frame route's DecodeEnvelope already took out of the pool.
	defer env.Release()
	if !item.verified {
		if err := r.verifyEnvelope(env); err != nil {
			r.authFailures.Add(1)
			types.ReleaseVote(item.msg)
			return
		}
	}
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
			types.ReleaseVote(m)
			return
		}
	}
	r.engine.OnMessage(env.From, item.msg, out)
	types.ReleaseVote(item.msg)
	r.handleActions(out)
}

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
	if r.counter != nil && !r.counter.CountsCheckpoint(from.Replica(), m.Seq) {
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
	for item := range r.ckptQ {
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

// ---- Action dispatch ----

// handleActions interprets the outputs of the engine step just taken, in
// order, and resets out. It may be called from the worker-thread, the
// checkpoint-thread, a batch-thread, the execute-thread, or the watchdog,
// each with its own Out; every path it touches is safe for concurrent use.
// A vote the engine broadcast is lent: it goes back to its pool once
// broadcast has encoded it.
func (r *Replica) handleActions(out *consensus.Out) {
	outs := out.Outputs()
	for i := range outs {
		switch o := &outs[i]; o.Kind {
		case consensus.KindBroadcast:
			r.broadcast(o.Broadcast.Msg)
			types.ReleaseVote(o.Broadcast.Msg)
		case consensus.KindSend:
			r.sendTo(o.Send.To, o.Send.Msg)
		case consensus.KindExecute:
			r.execPending.Add(1)
			r.execIn.Offer(uint64(o.Execute.Seq), execItem{act: o.Execute})
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

// inlineExecute is the 0E execute stage: the thread that just offered a
// batch to the in-order queue drains every batch ready there, in sequence
// order, one thread at a time. Polling against an already-closed channel
// never blocks: a batch whose predecessor has not committed stays queued
// for the thread that offers the predecessor, and whoever offers last
// drains after its offer, so nothing is left behind.
func (r *Replica) inlineExecute() {
	r.inlineMu.Lock()
	defer r.inlineMu.Unlock()
	for {
		_, item, woke := r.execIn.NextOr(loweredBarrier)
		if woke != queue.WokeItem {
			return
		}
		t0 := time.Now()
		r.executeBatch(item.act)
		// In 0E mode execution time is the worker's burden.
		r.addBusy(StageWorker, time.Since(t0))
	}
}

// ---- Execute stage (Section 4.6) ----
//
// One route carries every committed batch from the in-order queue to the
// store and out, at every E and depth: stage (stageBatch) → apply
// (applyPartition) → barrier (every partition applied, then every write
// covered by a completed fsync) → retire (retireBatch, in sequence order).

// executeLoop is the coordinating execute-thread. It drains the in-order
// queue strictly by sequence number and keeps up to ExecPipelineDepth
// committed batches in flight: batch k+1 is staged before batch k's barrier
// is down. Per-shard FIFO queues are the conflict mechanism — a later
// batch's partition for shard s queues behind an earlier batch's job on the
// same shard, so conflicting (same-shard) key partitions stay in batch
// order, while shards the earlier batch left idle start on the new batch
// immediately. The coordinator never sits in a barrier while committed work
// waits unstaged: with room in the window it waits for the next batch or
// the oldest barrier, whichever comes first, so the next batch's appends
// reach the store while the fsync the oldest waits for is still running, and
// whatever lands during one fsync shares the next. At depth 1 the window
// holds one batch, which is the strict per-batch barrier:
// stage, wait, retire. Retirement (ledger append, checkpoint digest, client
// responses) always happens in sequence order, which is what keeps the
// ledger and checkpoint digests byte-identical at every E and depth.
func (r *Replica) executeLoop() {
	defer r.execWg.Done()
	inflight := make([]*inflightExec, 0, r.execDepth)
	retireOldest := func() {
		b := inflight[0]
		n := copy(inflight, inflight[1:])
		inflight[n] = nil
		inflight = inflight[:n]
		<-b.done
		t0 := time.Now()
		r.retireBatch(b)
		r.addBusy(StageExecute, time.Since(t0))
	}
	for {
		if len(inflight) >= r.execDepth {
			retireOldest()
			continue
		}
		var oldest <-chan struct{} // nil with nothing in flight: never ready
		if len(inflight) > 0 {
			oldest = inflight[0].done
		}
		_, item, woke := r.execIn.NextOr(oldest)
		if woke == queue.WokeClosed {
			break
		}
		if woke == queue.WokeAlt {
			// Retiring as soon as the barrier is down, rather than when the
			// window fills, is what bounds response latency at depth > 1.
			retireOldest()
			continue
		}
		t0 := time.Now()
		inflight = append(inflight, r.stageBatch(item.act))
		r.addBusy(StageExecute, time.Since(t0))
	}
	// Shutdown: drain the in-flight window so every accepted batch still
	// reaches the ledger and its clients.
	for len(inflight) > 0 {
		retireOldest()
	}
}

// executeBatch takes one committed batch down the whole route on the calling
// thread — stage, barrier, retire back to back — for the 0E inline path.
func (r *Replica) executeBatch(act consensus.Execute) {
	b := r.stageBatch(act)
	<-b.done
	r.retireBatch(b)
}

// loweredBarrier is the barrier of every batch applied inline: closed once
// and shared, so such a batch retires through the same wait as a fanned-out
// one without allocating a channel. Never closed again: partDone only runs
// for batches that own their barrier.
var loweredBarrier = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// stageBatch runs the coordinator half of execution for one committed
// batch: per-client dedup, then every op of every surviving transaction
// into the partition owning its key (workload.ShardOf over the partition
// count — always partition 0 when there is one), at its batch position. It
// must be called in sequence order — dedup state advances here. Read results
// land in slot order — slots are assigned in (request, transaction, op)
// order as the coordinator walks the batch, and duplicate-skipped
// transactions contribute none — so the result layout is identical at every
// E.
//
// Ops within one transaction observe earlier ops' writes (read-your-writes):
// a key's write and read land in the same partition in batch order, and
// applyPartition flushes pending writes before answering a read. A scan
// spans partitions, so it is appended to every one at its batch position:
// each reaches the scan only after flushing exactly the writes that precede
// it in batch order, computes the sorted fragment of its own key partition,
// and the coordinator merges the disjoint fragments at retirement. With one
// partition the fragment is the whole result and goes straight to its slot.
//
// Once staged, the batch is applied, and how is the one choice on the route,
// read off the partition count: a single partition is applied, and waited
// durable, right here by the stager, and the batch keeps the already lowered
// barrier it was born with; several are handed to the shard workers, who
// lower the batch's own. Either way the caller waits on done and retires.
func (r *Replica) stageBatch(act consensus.Execute) *inflightExec {
	b := <-r.execFree
	b.act, b.done = act, loweredBarrier
	n := len(b.parts)
	nextSlot := 0
	// Only the stager mutates lastExec; the lock is taken once per batch so
	// DedupSnapshot (the restart-bootstrap export) sees a consistent table.
	r.dedupMu.Lock()
	for i := range act.Requests {
		req := &act.Requests[i]
		b.txnCount += uint32(len(req.Txns))
		start := nextSlot
		last := r.lastExec[req.Client]
		for j := range req.Txns {
			txn := &req.Txns[j]
			if txn.ClientSeq <= last && last != 0 {
				continue // duplicate delivery (e.g. re-proposed after view change)
			}
			for k := range txn.Ops {
				op := &txn.Ops[k]
				switch op.Kind {
				case types.OpRead:
					p := &b.parts[workload.ShardOf(op.Key, n)]
					p.ops = append(p.ops, shardOp{key: op.Key, slot: nextSlot, read: true})
					nextSlot++
				case types.OpScan:
					so := shardOp{key: op.Key, end: op.EndKey, limit: op.Limit, slot: nextSlot, scan: true}
					if n == 1 {
						b.parts[0].ops = append(b.parts[0].ops, so)
					} else {
						first := len(b.frags)
						for sh := range b.parts {
							so.slot = first + sh
							b.frags = append(b.frags, nil)
							b.parts[sh].ops = append(b.parts[sh].ops, so)
						}
						b.scans = append(b.scans, pendingScan{slot: nextSlot, limit: op.Limit, frags: first})
					}
					nextSlot++
				default:
					// YCSB-style write application (Section 5.1).
					p := &b.parts[workload.ShardOf(op.Key, n)]
					p.ops = append(p.ops, shardOp{key: op.Key, value: op.Value})
				}
			}
			if txn.ClientSeq > last {
				last = txn.ClientSeq
			}
		}
		r.lastExec[req.Client] = last
		if nextSlot > start {
			// A request without reads keeps the zero range.
			if len(b.readRanges) == 0 {
				b.readRanges = slices.Grow(b.readRanges, len(act.Requests))[:len(act.Requests)]
				clear(b.readRanges)
			}
			b.readRanges[i] = readRange{start: start, n: nextSlot - start}
		}
	}
	r.dedupMu.Unlock()
	// Sized before any partition runs: they fill disjoint slots, every one
	// of them.
	b.reads = slices.Grow(b.reads, nextSlot)[:nextSlot]
	if n == 1 {
		var ticket store.Ticket
		r.inlineScratch, ticket = r.applyPartition(b, 0, r.inlineScratch)
		r.awaitDurable(ticket)
		return b
	}
	b.done = make(chan struct{})
	// The coordinator's own count keeps the barrier up until every
	// partition is handed out, however fast the first worker finishes.
	b.pending.Store(1)
	for sh := range b.parts {
		if len(b.parts[sh].ops) == 0 {
			continue
		}
		b.pending.Add(1)
		r.shardQs[sh] <- b
	}
	b.partDone()
	return b
}

// partDone takes one partition off the batch's barrier and lowers the
// barrier with the last.
func (b *inflightExec) partDone() {
	if b.pending.Add(-1) == 0 {
		close(b.done)
	}
}

// applyPartition executes one partition of a committed batch against the
// store, in batch order; it is the only place the execute stage touches the
// store. Consecutive writes accumulate in scratch and are flushed in one
// store call (flushWrites) before any read or scan executes, so the read
// observes every earlier write to its keys: same-batch ones through the
// flush, earlier-batch ones because batches are applied in order (inline) or
// through the shard queue's FIFO (one key always maps to one shard) —
// appended is enough for that, durable is not needed, because the result
// leaves the replica only at in-order retirement. Each read's result lands
// in its assigned slot of the batch's shared result buffer, and a fanned-out
// scan's fragment in its own of the batch's frags, their bytes in the
// partition's arenas. It returns the emptied scratch for reuse and the
// ticket covering every write it appended (zero when the store has no disk
// to wait for): the caller decides who waits for it.
func (r *Replica) applyPartition(b *inflightExec, shard int, scratch []store.KV) ([]store.KV, store.Ticket) {
	var ticket store.Ticket
	p := &b.parts[shard]
	fanned := len(b.parts) > 1
	for i := range p.ops {
		op := &p.ops[i]
		if !op.read && !op.scan {
			scratch = append(scratch, store.KV{Key: op.key, Value: op.value})
			continue
		}
		ticket = r.flushWrites(scratch, ticket)
		scratch = scratch[:0]
		switch {
		case op.read:
			b.reads[op.slot] = r.readKey(p, op.key)
		case fanned:
			b.frags[op.slot] = r.scanRows(p, op.key, op.end, op.limit, shard)
		default:
			b.reads[op.slot] = types.ReadResult{Scan: true, Rows: r.scanRows(p, op.key, op.end, op.limit, -1)}
		}
	}
	ticket = r.flushWrites(scratch, ticket)
	return scratch[:0], ticket
}

// flushWrites appends a partition's accumulated writes to the store in
// one call, which makes them visible and returns a ticket — threaded
// through prev so one ticket always covers the whole partition — and nobody
// has waited for a disk yet. Lost writes diverge store state from the
// ledger, so every failed store call is counted loudly (StoreWriteFailures)
// instead of swallowed.
func (r *Replica) flushWrites(kvs []store.KV, prev store.Ticket) store.Ticket {
	if len(kvs) == 0 {
		return prev
	}
	prev, err := r.store.Append(kvs, prev)
	if err != nil {
		r.storeFailures.Add(1)
	}
	return prev
}

// awaitDurable blocks until a completed fsync covers the ticket's writes
// (at once for the zero ticket). A failed wait is counted once: the
// partition's writes are applied but not known durable.
func (r *Replica) awaitDurable(t store.Ticket) {
	if t == (store.Ticket{}) {
		return
	}
	if err := r.store.WaitDurable(t); err != nil {
		r.storeFailures.Add(1)
	}
}

// readKey answers one read against the store's current (last-applied)
// state, the value appended into p's arena. A missing key is a normal
// outcome; any other store error is the read-side analogue of a lost write
// and is counted loudly.
func (r *Replica) readKey(p *partition, key uint64) types.ReadResult {
	at := len(p.vals)
	var err error
	p.vals, err = r.store.AppendValue(p.vals, key)
	switch {
	case err == nil:
		return types.ReadResult{Found: true, Value: p.carve(at)}
	case errors.Is(err, store.ErrNotFound):
		return types.ReadResult{}
	default:
		r.storeFailures.Add(1)
		return types.ReadResult{}
	}
}

// scanRows answers one scan against the store's current state: the
// ascending rows of [start, end], truncated to limit, carved from p's row
// slab with their values in p's arena. With shard ≥ 0 only the keys that
// execution shard owns are kept (still capped at limit, which is lossless —
// see pendingScan): filtering to the shard's own partition is what makes a
// fragment a pure function of the shard's serially ordered write prefix even
// while other shards are mid-batch, since a key's writes only ever come from
// its owning shard. A shard resolves only the keys it owns. An inverted
// range or zero limit returns no rows (well-formed per types.Op); a failing
// store returns the rows read so far and counts a store failure. Rows grow
// incrementally, so a hostile limit cannot drive an allocation.
func (r *Replica) scanRows(p *partition, start, end uint64, limit uint32, shard int) []types.ScanRow {
	if limit == 0 || start > end {
		return nil
	}
	first := len(p.rows)
	r.scanOwned(p, start, end, limit, shard)
	return p.carveRows(first)
}

// scanChunk is how many keys scanOwned lists from the store at a time.
const scanChunk = 128

// scanOwned appends to p's row slab, ascending, the rows of [start, end]
// whose keys shard owns (every key for shard < 0), until limit rows: keys
// come from the store a chunk at a time, and only the kept ones are
// resolved, straight into p's arena.
func (r *Replica) scanOwned(p *partition, start, end uint64, limit uint32, shard int) {
	if p.keys == nil {
		p.keys = make([]uint64, 0, scanChunk)
	}
	first := len(p.rows)
	for cur := start; ; {
		keys, err := r.store.AppendKeys(p.keys[:0], cur, end)
		if err != nil {
			r.storeFailures.Add(1)
			return
		}
		if len(keys) == 0 {
			return
		}
		for _, k := range keys {
			if shard >= 0 && workload.ShardOf(k, r.execShards) != shard {
				continue
			}
			at := len(p.vals)
			if p.vals, err = r.store.AppendValue(p.vals, k); err != nil {
				if errors.Is(err, store.ErrNotFound) {
					continue
				}
				r.storeFailures.Add(1)
				return
			}
			p.rows = append(p.rows, types.ScanRow{Key: k, Value: p.carve(at)})
			if uint32(len(p.rows)-first) >= limit {
				return
			}
		}
		last := keys[len(keys)-1]
		if last >= end || last == ^uint64(0) {
			return
		}
		cur = last + 1
	}
}

// mergeScanFrags appends to dst the rows of a fanned-out scan, ascending
// and cut at limit. Each fragment is ascending and their key sets are
// disjoint (one key, one shard), so taking the smallest head each time is
// the merge, and it is deterministic. It consumes frags.
func mergeScanFrags(dst []types.ScanRow, frags [][]types.ScanRow, limit uint32) []types.ScanRow {
	for n := uint32(0); n < limit; n++ {
		lo := -1
		for i := range frags {
			if len(frags[i]) > 0 && (lo < 0 || frags[i][0].Key < frags[lo][0].Key) {
				lo = i
			}
		}
		if lo < 0 {
			break
		}
		dst = append(dst, frags[lo][0])
		frags[lo] = frags[lo][1:]
	}
	return dst
}

// retireBatch completes one staged batch in sequence order, once its
// barrier is down — every partition executed and, on a durable store,
// every write of the batch covered by a completed fsync: append the block,
// report the execution to the engine (driving checkpoints), and answer
// every client in the batch. Nothing about batch k leaves the replica
// before this point, and k retires after every earlier batch, which is
// the whole durability contract: reads and scans may have observed
// appended-not-yet-durable writes, but their results leave only here.
func (r *Replica) retireBatch(b *inflightExec) {
	defer r.execPending.Add(-1)
	// The batch's read results are lent from its partitions until the last
	// response below is encoded; only then may its buffers serve another.
	defer r.recycle(b)
	// The barrier passed, so every shard's scan fragments are final; merge
	// them into their result slots, carved from partition 0's row slab,
	// before responses are built.
	p, n := &b.parts[0], len(b.parts)
	for i := range b.scans {
		ps := &b.scans[i]
		first := len(p.rows)
		p.rows = mergeScanFrags(p.rows, b.frags[ps.frags:ps.frags+n], ps.limit)
		b.reads[ps.slot] = types.ReadResult{Scan: true, Rows: p.carveRows(first)}
	}
	act := b.act

	if _, err := r.ledger.Append(act.Seq, act.View, act.Digest, nil, b.txnCount); err != nil {
		// An append gap is a fatal pipeline bug; surface loudly in stats.
		r.evidence.Add(1)
		return
	}

	// At a checkpoint boundary the ledger closes the window and this
	// replica signs its vote, here on the execute-thread, once per Δ
	// batches.
	var digest types.Digest
	var sig types.Signature
	if uint64(act.Seq)%r.cfg.CheckpointInterval == 0 {
		var err error
		if digest, err = r.ledger.Checkpoint(act.Seq); err != nil {
			r.evidence.Add(1)
		}
		sig = r.cfg.Directory.SignCheckpoint(types.ReplicaNode(r.cfg.ID), act.Seq, digest)
		r.ckptSigs.Add(1)
	}
	r.engine.OnExecuted(act.Seq, digest, sig, &r.retireOut)
	r.handleActions(&r.retireOut)

	// The batch is applied and appended: this sequence number is now the
	// snapshot position locally served reads report.
	r.lastRetired.Store(uint64(act.Seq))

	// Respond to every client in the batch, attaching each request's span
	// of the read-result buffer. The busy gauge is sampled once per batch
	// — cheap enough for the hot path, fresh enough for admission control
	// — and stamped on every response so gateways see replica load on
	// traffic they already receive. It is advisory: outside Result and
	// outside the client's vote key, so replicas under different load
	// still form a quorum.
	busy := r.busyGauge()
	for i := range act.Requests {
		req := &act.Requests[i]
		var reads []types.ReadResult
		if len(b.readRanges) > 0 {
			if rr := b.readRanges[i]; rr.n > 0 {
				reads = b.reads[rr.start : rr.start+rr.n]
			}
		}
		r.sendTo(types.ClientNode(req.Client), &types.ClientResponse{
			View:        act.View,
			Seq:         act.Seq,
			Client:      req.Client,
			ClientSeq:   req.FirstSeq,
			Result:      types.ResponseDigest(act.Seq, req.Client, req.FirstSeq, reads),
			Replica:     r.cfg.ID,
			ReadResults: reads,
			Busy:        busy,
		})
	}

	if n := len(b.reads); n > 0 {
		r.readsExecuted.Add(uint64(n))
	}
	r.txnsExecuted.Add(uint64(b.txnCount))
	r.batchesExecuted.Add(1)
	if r.cfg.DisableOutOfOrder {
		r.inflight.Add(-1)
	}
	r.pendingHint.Store(false)
	r.lastProgress.Store(time.Now().UnixNano())
	r.signalProgress()
}

// execShardLoop is one execution shard worker: it applies its partition of
// each fanned-out batch in batch order and never waits for a disk. A
// partition that appended writes leaves their ticket with the replica's
// durable waiter, which takes it off the batch barrier once an fsync covers
// it; one whose ticket is zero (no writes, or a store with no disk to wait
// for) comes off the barrier here.
func (r *Replica) execShardLoop(shard int) {
	defer r.shardWg.Done()
	var scratch []store.KV
	for b := range r.shardQs[shard] {
		var ticket store.Ticket
		t0 := time.Now()
		scratch, ticket = r.applyPartition(b, shard, scratch)
		if d := time.Since(t0); d > 0 {
			r.shardBusyNS[shard].Add(uint64(d))
		}
		if ticket == (store.Ticket{}) {
			b.partDone()
			continue
		}
		r.durableQ <- durableWait{ticket: ticket, batch: b}
	}
}

// durableWaitLoop is the replica's durable waiter: it does the waiting for
// a disk that the shard workers do not. One serves all of them: a batch
// retires only when every ticket of it is durable, and on the store's one log
// they arrive in nearly append order, so while it waits for one fsync those
// queued behind it are usually covered by the same one.
func (r *Replica) durableWaitLoop() {
	defer r.durableWg.Done()
	for w := range r.durableQ {
		r.awaitDurable(w.ticket)
		w.batch.partDone()
	}
}

// ---- Output (Section 4.1) ----
//
// The stage that produced a message signs it and hands the envelope to the
// endpoint on its own goroutine. The endpoint's Send is a queue push on both
// transports — the TCP endpoint's per-peer writers are the paper's
// output-threads, and they never let one peer hold a sender for long — so a
// queue and a thread of the replica's own in between would move an envelope
// from one channel to another and do nothing else.

// broadcast signs msg for every other replica and sends it. Under a
// digital-signature scheme the body is signed once and reused; under CMAC
// it is hashed once and a MAC of the digest is computed per destination
// (the MAC-vector cost, sixteen bytes of AES per receiver whatever the
// body's size), written into that destination's envelope. The body is
// marshalled into a pooled buffer whose arena every destination's envelope
// retains; the buffer returns to the pool when the last envelope retires
// (the peer writer's write, an inbox drop, or the receiving stage's
// release).
func (r *Replica) broadcast(msg types.Message) {
	body, arena := r.marshalOut(msg)
	mt := msg.Type()
	perDst := r.auth.PerDestination()
	var shared []byte
	var digest types.Digest
	if perDst {
		digest = crypto.Hash256(types.AuthenticatedBytes(mt, body))
	} else {
		sig, err := r.auth.Sign(types.ReplicaNode(0), types.AuthenticatedBytes(mt, body))
		if err != nil {
			r.authFailures.Add(1)
			arena.Release()
			return
		}
		shared = sig
	}
	for i := 0; i < r.cfg.N; i++ {
		dst := types.ReplicaID(i)
		if dst == r.cfg.ID {
			continue
		}
		env := r.envelope(types.ReplicaNode(dst), mt, body, arena)
		env.Auth = shared
		if perDst {
			auth, err := r.auth.AppendSignDigest(env.AuthBuffer(), env.To, digest)
			if err != nil {
				r.authFailures.Add(1)
				env.Release()
				continue
			}
			env.Auth = auth
		}
		r.send(env)
	}
	// Drop the builder's reference: from here only the envelopes keep the
	// buffer alive.
	arena.Release()
}

// sendTo signs msg for a single destination and sends it.
func (r *Replica) sendTo(to types.NodeID, msg types.Message) {
	body, arena := r.marshalOut(msg)
	env := r.envelope(to, msg.Type(), body, arena)
	arena.Release()
	auth, err := crypto.SignInto(r.auth, env, to, types.AuthenticatedBytes(env.Type, body))
	if err != nil {
		r.authFailures.Add(1)
		env.Release()
		return
	}
	env.Auth = auth
	r.send(env)
}

// envelope addresses a pooled envelope from this replica to to, carrying
// body and a reference on the arena behind it.
func (r *Replica) envelope(to types.NodeID, mt types.MsgType, body []byte, arena *types.Arena) *types.Envelope {
	env := types.AcquireEnvelope()
	env.From = types.ReplicaNode(r.cfg.ID)
	env.To = to
	env.Type = mt
	env.Body = body
	env.Attach(arena)
	return env
}

// marshalOut encodes an outbound body into a pooled arena buffer. The
// returned arena carries the builder's reference; the caller must Release
// it exactly once after attaching it to every envelope that shares the
// body.
func (r *Replica) marshalOut(msg types.Message) ([]byte, *types.Arena) {
	// Seed the pooled buffer with the largest body seen so far: a marshal
	// that outgrows its buffer reallocates on append and strands the
	// undersized slice, so guessing high keeps the path allocation-free
	// (the hint is a high-water mark, and capacity classes round up
	// anyway).
	hint := int(r.encHint.Load())
	body, arena := types.MarshalBodyArena(msg, r.encBufs, hint)
	if n := int64(len(body)); n > int64(hint) {
		r.encHint.Store(n)
	}
	return body, arena
}

// send hands a signed envelope to the endpoint. A successful Send passes
// ownership to the transport (the TCP writer or the in-process receiver
// releases it); on error — an unknown or dead peer, or an endpoint that Stop
// already closed — the envelope went nowhere and retires here, silently.
func (r *Replica) send(env *types.Envelope) {
	t0 := time.Now()
	if err := r.cfg.Endpoint.Send(env); err != nil {
		env.Release()
	} else {
		r.msgsOut.Add(1)
	}
	r.addBusy(StageOutput, time.Since(t0))
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
