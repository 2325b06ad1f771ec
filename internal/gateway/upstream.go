package gateway

import (
	"time"

	clientengine "resilientdb/internal/consensus/client"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// upstream is one replica-facing consensus worker: a closed loop with its
// own gateway client identity, transport endpoint, and client link (engine,
// signing key, send/await path), keeping exactly one coalesced request in
// flight. The gateway's replica-facing connection count is the upstream
// count — a handful — regardless of how many hundred thousand sessions
// ride them.
type upstream struct {
	gw   *Gateway
	id   types.ClientID
	link *clientengine.Link
	ep   transport.Endpoint
	seq  uint64 // next FirstSeq; gateway transactions number per-upstream

	// batch and replies are the worker's scratch, reused across requests:
	// exactly one is in flight.
	batch   []*pending
	replies []Reply
}

func newUpstream(gw *Gateway, id types.ClientID) (*upstream, error) {
	ep, err := gw.cfg.Endpoint(id)
	if err != nil {
		return nil, err
	}
	link, err := clientengine.NewLink(id, gw.cfg.N, gw.cfg.Directory, ep, gw.cfg.Timeout)
	if err != nil {
		ep.Close()
		return nil, err
	}
	return &upstream{gw: gw, id: id, link: link, ep: ep, seq: 1}, nil
}

// run is the worker loop: collect a batch from the admission queue, fold
// it into one signed consensus request, drive it to quorum, fan the
// outcome back per session.
func (u *upstream) run() {
	defer u.ep.Close()
	linger := time.NewTimer(u.gw.cfg.Linger)
	defer linger.Stop()
	for {
		batch := u.collect(linger)
		if batch == nil {
			return
		}
		u.submit(batch)
	}
}

// collect takes up to cfg.Batch pendings from the admission queue in one
// critical section. It parks while the queue is empty; once it holds a
// non-full batch it waits up to cfg.Linger for more, looking again each
// time a frame is admitted. It returns nil on shutdown with nothing in
// hand.
func (u *upstream) collect(linger *time.Timer) []*pending {
	gw := u.gw
	batch := u.batch[:0]
	var lingerC <-chan time.Time // nil (never fires) until the first pending is in hand
	parked, expired := false, false
	for {
		gw.sessMu.Lock()
		if parked {
			gw.parked--
		}
		batch = gw.popLocked(batch, gw.cfg.Batch-len(batch))
		parked = len(batch) < gw.cfg.Batch && !expired
		if parked {
			gw.parked++
		} else if gw.qLen > 0 {
			// A push wakes one upstream; pass the token on when this one
			// leaves work behind for another.
			gw.wakeParkedLocked()
		}
		gw.sessMu.Unlock()
		if !parked {
			break
		}
		if len(batch) > 0 && lingerC == nil {
			resetTimer(linger, gw.cfg.Linger)
			lingerC = linger.C
		}
		// Whatever ends the wait, the queue is looked at once more: a
		// frame admitted while the timer fired still makes this batch.
		select {
		case <-gw.wake:
		case <-lingerC:
			expired = true
		case <-gw.stop:
			// Shutdown mid-collect: still flush what we hold — the arenas
			// must retire and sessions deserve their replies if the request
			// can complete. submit() bails out on its own stop check.
			expired = true
		}
	}
	u.batch = batch
	if len(batch) == 0 {
		return nil
	}
	return batch
}

// submit drives one coalesced request through consensus and fans the
// outcome back. On shutdown the batch's arenas retire without replies.
func (u *upstream) submit(batch []*pending) {
	gw := u.gw
	txns := make([]types.Transaction, len(batch))
	for i, p := range batch {
		txns[i] = types.Transaction{
			Client:    u.id,
			ClientSeq: u.seq + uint64(i),
			Ops:       p.ops,
		}
	}
	req := types.ClientRequest{Client: u.id, FirstSeq: u.seq, Txns: txns}
	if err := u.link.Sign(&req); err != nil {
		u.abandon(batch)
		return
	}
	gw.requests.Add(1)
	u.link.Submit(req)
	outcome := u.link.Await(gw.stop)
	if outcome == nil {
		u.abandon(batch)
		return
	}
	u.seq += uint64(len(batch))
	gw.noteBusy(outcome.Busy)
	// Read results come back flattened in the request's (transaction, op)
	// order; slice each pending's span back out. The spans only align if
	// the outcome carries exactly the batch's declared read count — a
	// mismatch (an engine/replica bug; the payload is quorum-digest
	// checked) would misalign every later span, so it fails the whole
	// batch rather than delivering StatusOK replies with wrong or missing
	// reads. The batch did execute, so the failure is StatusRejected
	// through complete(): dedup advances and a retry replays the
	// rejection instead of re-executing.
	totalReads := 0
	for _, p := range batch {
		totalReads += p.reads
	}
	status := StatusOK
	if len(outcome.ReadResults) != totalReads {
		gw.readMismatches.Add(1)
		status = StatusRejected
	}
	replies := u.replies[:0]
	off := 0
	for i, p := range batch {
		r := Reply{
			Session: p.session,
			Nonce:   p.nonce,
			Status:  status,
			Seq:     outcome.ClientSeq + uint64(i),
			Busy:    outcome.Busy,
		}
		if status == StatusOK && p.reads > 0 {
			r.Reads = outcome.ReadResults[off : off+p.reads]
		}
		off += p.reads
		replies = append(replies, r)
	}
	u.complete(batch, replies)
	clear(replies) // the scratch must not pin the outcome's read results
	u.replies = replies
}

// complete delivers a consensus outcome for a whole batch: under one lock
// acquisition and one clock reading every session's dedup state advances
// and caches its reply for retries; then the pendings' arena references
// retire and each connection gets its replies — one delivery per run of
// consecutive pendings from the same connection, and a frame's pendings
// sit together in the queue, so a batch costs a handful of deliveries, not
// one per transaction. The dedup update happens even if the submitting
// connection has since closed — the transaction executed, so a retry from
// a reconnected session must replay the cached reply, never re-execute.
func (u *upstream) complete(batch []*pending, replies []Reply) {
	gw := u.gw
	now := time.Now().UnixNano()
	gw.sessMu.Lock()
	for i, p := range batch {
		if st := gw.sessions[p.session]; st != nil {
			st.complete(p.nonce, replies[i], now, gw.cfg.DedupWindow)
		}
	}
	gw.sessMu.Unlock()
	gw.completed.Add(uint64(len(batch)))
	for start := 0; start < len(batch); {
		conn := batch[start].conn
		end := start
		for end < len(batch) && batch[end].conn == conn {
			batch[end].arena.Release()
			end++
		}
		conn.deliver(replies[start:end])
		start = end
	}
}

// abandon retires a batch that can no longer complete (shutdown): the
// arenas release and the sessions' in-flight marks clear so a
// reconnecting session could resubmit. No reply is sent — the connection
// is going away with the gateway.
func (u *upstream) abandon(batch []*pending) {
	gw := u.gw
	gw.sessMu.Lock()
	for _, p := range batch {
		if st := gw.sessions[p.session]; st != nil {
			st.clearInflight(p.nonce)
		}
	}
	gw.sessMu.Unlock()
	for _, p := range batch {
		p.arena.Release()
	}
}

// resetTimer arms timer for d, draining a stale fire first.
func resetTimer(timer *time.Timer, d time.Duration) {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(d)
}
