package replica

import (
	"time"

	"resilientdb/internal/types"
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
// signature are views into the frame it arrived in, which the request
// holds a reference on of its own, so the envelope retires here whatever
// the outcome and the request is not copied again until a store persists
// it. The decoder's reference travels with the request; a request no stage
// takes is released here, at once.
func (r *Replica) handleClientRequest(env *types.Envelope) {
	msg, err := types.DecodeEnvelope(env)
	env.Release()
	if err != nil {
		r.decodeFailures.Add(1)
		return
	}
	req := msg.(*types.ClientRequest)
	taken := false
	switch {
	case !r.isPrimaryHint():
		// A client that resorts to contacting backups signals a
		// stalled primary; remember it for the watchdog.
		r.pendingHint.Store(true)
	case r.cfg.BatchThreads > 0:
		taken = r.batchQ.Push(req, r.stop)
	default:
		// 0B mode: batch assembly lives on the worker-thread.
		taken = r.workQ.Push(workItem{req: req}, r.stop)
	}
	if !taken {
		types.ReleaseMessage(req)
	}
}

// handleReadRequest services a locally served read (the
// consensus-bypassing read path): the client asked this one replica for
// current values. The input stage authenticates and decodes, then hands
// the request to the dedicated read lane — a local read never touches a
// worker-thread and never consumes a sequence number, and a slow
// (disk-bound) multi-key read never head-of-line blocks the client inbox
// behind its store reads. A request carrying a write does not decode: it
// counts as malformed and draws no reply. The envelope retires here on
// every path: the request is decoded into a recycled struct that shares no
// byte with the frame (its ops carry no values), and it goes back to its
// pool here when no read-thread takes it, or after its reply otherwise.
func (r *Replica) handleReadRequest(env *types.Envelope) {
	defer env.Release()
	if err := r.verifyEnvelope(env); err != nil {
		r.authFailures.Add(1)
		return
	}
	msg, err := types.DecodeEnvelope(env)
	if err != nil {
		r.decodeFailures.Add(1)
		return
	}
	req := msg.(*types.ReadRequest)
	// Bind the claimed client to the authenticated sender, mirroring
	// the signed-Client binding the ordered ClientRequest path
	// enforces. The authenticated reply goes to req.Client and
	// ClientSeq values are guessable, so without this check a
	// malicious client could plant answers for attacker-chosen keys
	// in a victim's pending read.
	if env.From != types.ClientNode(req.Client) {
		r.authFailures.Add(1)
		types.ReleaseMessage(req)
		return
	}
	if !r.readQ.TryPush(req) {
		// The read lane is saturated: drop rather than block
		// consensus-bound traffic behind it. The client times out
		// and rotates to another replica.
		r.localReadDrops.Add(1)
		types.ReleaseMessage(req)
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
// authenticator check or a decode, and counted as malformed. The
// input-thread then checks the authenticator itself, here, before anything
// is decoded: the check is a hash of a short header and one MAC (or one
// signature verify), the thread already holds the envelope, and handing it
// to another goroutine for that would cost more than the check and order
// nothing — the inbox is FIFO and so is this thread.
func (r *Replica) admit(env *types.Envelope) {
	switch env.Type {
	case types.MsgPrePrepare, types.MsgPrepare, types.MsgCommit,
		types.MsgCheckpoint, types.MsgViewChange, types.MsgNewView:
	default:
		r.decodeFailures.Add(1)
		env.Release()
		return
	}
	if err := r.verifyEnvelope(env); err != nil {
		r.authFailures.Add(1)
		env.Release()
		return
	}
	r.route(env)
}

// readLoop is one worker of the read lane: it answers locally served
// ReadRequests op by op, in the request's order and with the one-partition
// apply's readKey and scanRows, from the last-executed state, off
// the input loop, so store reads are paid here instead of head-of-line
// blocking all client traffic. lastRetired is loaded before the keys are
// read and applied writes never roll back, so the stamped Seq is a valid
// per-key freshness lower bound (there is no cross-key snapshot; see
// types.ReadRequest). A request whose MinSeq this replica has not yet
// retired is refused — the reply carries the stamped Seq but no results —
// and the client falls back to the quorum path, which is how the
// staleness bound on local reads is enforced. Each worker answers into one
// arena of its own, lent to a reply until sendTo has encoded it, and then
// gives the request back to its pool.
func (r *Replica) readLoop() {
	defer r.readWg.Done()
	var p partition
	var results []types.ReadResult
	// sendTo encodes the reply before it returns, so one per thread serves
	// every read; rebuilding it clears Results, which a refusal leaves nil.
	var reply types.ReadReply
	for req := range r.readQ.C() {
		last := r.lastRetired.Load()
		reply = types.ReadReply{
			Client:    req.Client,
			ClientSeq: req.ClientSeq,
			Seq:       types.SeqNum(last),
			Replica:   r.cfg.ID,
		}
		if last >= uint64(req.MinSeq) {
			results = results[:0]
			for i := range req.Ops {
				op := &req.Ops[i]
				if op.Kind == types.OpRead {
					results = append(results, r.readKey(&p, op.Key))
					continue
				}
				results = append(results,
					types.ReadResult{Scan: true, Rows: r.scanRows(&p, op.Key, op.EndKey, op.Limit, -1)})
			}
			reply.Results = results
		}
		r.localReads.Add(1)
		r.sendTo(types.ClientNode(req.Client), &reply)
		types.ReleaseMessage(req)
		p.reset()
	}
}

// route decodes an authenticated envelope and hands it to the stage that
// owns it: checkpoint traffic to the checkpoint-thread, everything else to
// the worker-thread. Decoding here, on the input stage, keeps that cost off the
// worker-thread; malformed bodies are counted as DecodeFailures and dropped
// before they can cost it anything. Proposals (PrePrepare, NewView) decode
// as views into their frame, holding it until their last holder lets go;
// votes decode into recycled structs. The consuming thread gives either
// back after its engine step.
func (r *Replica) route(env *types.Envelope) {
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
	// Ownership moves to the consuming thread, which releases the envelope
	// and the message after processing them.
	if !q.Push(workItem{env: env, msg: msg}, r.stop) {
		types.ReleaseMessage(msg)
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
