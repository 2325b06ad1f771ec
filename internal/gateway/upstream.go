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
}

func newUpstream(gw *Gateway, id types.ClientID) (*upstream, error) {
	ep, err := gw.cfg.Endpoint(id)
	if err != nil {
		return nil, err
	}
	link, err := clientengine.NewLink(id, gw.cfg.N, gw.cfg.Protocol, gw.cfg.Directory, ep, gw.cfg.Timeout)
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

// collect blocks for the first pending, then lingers up to cfg.Linger for
// more, bounded by cfg.Batch. It returns nil on shutdown.
func (u *upstream) collect(linger *time.Timer) []*pending {
	gw := u.gw
	var first *pending
	select {
	case first = <-gw.submitQ:
	case <-gw.stop:
		return nil
	}
	batch := []*pending{first}
	resetTimer(linger, gw.cfg.Linger)
	for len(batch) < gw.cfg.Batch {
		select {
		case p := <-gw.submitQ:
			batch = append(batch, p)
		case <-linger.C:
			return batch
		case <-gw.stop:
			// Shutdown mid-collect: still flush what we hold — the arenas
			// must retire and sessions deserve their replies if the request
			// can complete. submit() bails out on its own stop check.
			return batch
		}
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
	if len(outcome.ReadResults) != totalReads {
		gw.readMismatches.Add(1)
		for i, p := range batch {
			p.conn.complete(p, Reply{
				Session: p.session,
				Nonce:   p.nonce,
				Status:  StatusRejected,
				Seq:     outcome.ClientSeq + uint64(i),
				Busy:    outcome.Busy,
			})
		}
		return
	}
	off := 0
	for i, p := range batch {
		r := Reply{
			Session: p.session,
			Nonce:   p.nonce,
			Status:  StatusOK,
			Seq:     outcome.ClientSeq + uint64(i),
			Busy:    outcome.Busy,
		}
		if p.reads > 0 {
			r.Reads = outcome.ReadResults[off : off+p.reads]
		}
		off += p.reads
		p.conn.complete(p, r)
	}
}

// abandon retires a batch that can no longer complete (shutdown): the
// arenas release and the sessions' pending marks clear so a reconnecting
// session could resubmit. No reply is sent — the connection is going
// away with the gateway.
func (u *upstream) abandon(batch []*pending) {
	gw := u.gw
	for _, p := range batch {
		gw.sessMu.Lock()
		if st := gw.sessions[p.session]; st != nil {
			delete(st.pending, p.nonce)
		}
		gw.sessMu.Unlock()
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
