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

	// batch, txns and replies are the worker's scratch, reused across
	// requests: exactly one is in flight, and replicas decode it from the
	// link's encode buffer, not from txns.
	batch   []*pending
	txns    []types.Transaction
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
	for {
		batch := u.collect()
		if batch == nil {
			return
		}
		u.submit(batch)
	}
}

// collect takes what is queued, up to cfg.Batch pendings, in one critical
// section and goes: it parks only while the admission queue is empty, and
// never waits for a fuller batch. Load fills batches by itself, because
// every upstream is a closed loop and the queue refills while its request
// is in flight. It returns nil on shutdown; Close retires what is admitted
// after that.
func (u *upstream) collect() []*pending {
	gw := u.gw
	gw.sessMu.Lock()
	for gw.qLen == 0 {
		gw.parked++
		gw.sessMu.Unlock()
		select {
		case <-gw.wake:
		case <-gw.stop:
			return nil
		}
		gw.sessMu.Lock()
		gw.parked--
	}
	u.batch = gw.popLocked(u.batch[:0], gw.cfg.Batch)
	if gw.qLen > 0 {
		// A push wakes one upstream; pass the token on when this one
		// leaves work behind for another.
		gw.wakeParkedLocked()
	}
	gw.sessMu.Unlock()
	return u.batch
}

// submit drives one coalesced request through consensus and fans the
// outcome back. On shutdown the batch's frames retire without replies.
func (u *upstream) submit(batch []*pending) {
	gw := u.gw
	txns := u.txns[:0]
	for i, p := range batch {
		txns = append(txns, types.Transaction{
			Client:    u.id,
			ClientSeq: u.seq + uint64(i),
			Ops:       p.ops,
		})
	}
	u.txns = txns
	defer clear(txns) // the scratch must not pin the frames' ops
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
	// The outcome's results are lent until the link's next response, and
	// a reply's Reads stay in the session's dedup ring: copy them once.
	var reads []types.ReadResult
	if status == StatusOK && totalReads > 0 {
		reads = types.CloneReadResults(outcome.ReadResults)
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
			r.Reads = reads[off : off+p.reads : off+p.reads]
		}
		off += p.reads
		replies = append(replies, r)
	}
	u.complete(batch, replies)
	clear(replies) // the scratch must not pin the copied read results
	u.replies = replies
}

// complete delivers a consensus outcome for a whole batch: under one lock
// acquisition and one clock reading every session's dedup state advances
// and caches its reply for retries; then the pendings' frame references
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
			st.complete(p.nonce, replies[i], now, gw.lim.dedupWindow)
		}
	}
	gw.sessMu.Unlock()
	gw.completed.Add(uint64(len(batch)))
	for start := 0; start < len(batch); {
		conn := batch[start].conn
		end := start
		for end < len(batch) && batch[end].conn == conn {
			// The pending lives in its frame: read nothing of it after this.
			batch[end].frame.release()
			end++
		}
		conn.deliver(replies[start:end])
		start = end
	}
}

// abandon retires a batch that can no longer complete (shutdown): the
// frames release and the sessions' in-flight marks clear so a
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
		p.frame.release()
	}
}
