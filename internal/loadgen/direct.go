package loadgen

import (
	"context"
	"fmt"
	"time"

	clientengine "resilientdb/internal/consensus/client"
	"resilientdb/internal/crypto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// DirectConfig attaches one client identity straight to the replicas: N
// of them, retransmitting after Timeout (default 500ms), keyed from
// Directory, over Endpoint (read, not closed). ReadMode "quorum" (default)
// orders write-free requests through consensus like writes; "local" sends
// them as a ReadRequest to one replica, answered from its last-executed
// state: per-key freshness, not a cross-key snapshot (types.ReadRequest).
type DirectConfig struct {
	N         int
	Timeout   time.Duration
	Directory *crypto.Directory
	Endpoint  transport.Endpoint
	ReadMode  string
}

// direct carries one session over a clientengine.Link, one goroutine;
// localRead shares the Link's transmit and reply-opening halves.
type direct struct {
	cfg      DirectConfig
	local    bool
	link     *clientengine.Link
	linkRetx uint64 // link's retransmissions already counted
	// maxSeq, the highest quorum-attested sequence seen, is the staleness
	// bound (MinSeq) local reads demand. A lone ReadReply.Seq never raises
	// it: a Byzantine replica could inflate it until every replica is stale.
	maxSeq uint64
}

// AddDirect adds a carrier of one session whose client identity is its
// session number, carried over a clientengine.Link on cfg.Endpoint.
func (g *Generator) AddDirect(cfg DirectConfig) error {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	id := types.ClientID(g.sessions)
	if cfg.Directory == nil || cfg.Endpoint == nil {
		return fmt.Errorf("loadgen: client %d missing directory or endpoint", id)
	}
	d := &direct{cfg: cfg}
	switch cfg.ReadMode {
	case "", "quorum":
	case "local":
		d.local = true
	default:
		return fmt.Errorf("loadgen: client %d unknown read mode %q (want quorum|local)", id, cfg.ReadMode)
	}
	link, err := clientengine.NewLink(id, cfg.N, cfg.Directory, cfg.Endpoint, cfg.Timeout)
	if err != nil {
		return err
	}
	d.link = link
	_, err = g.Add(1, d)
	return err
}

// Carry submits the session's requests in a closed loop until ctx ends.
func (d *direct) Carry(ctx context.Context, c *Carrier) {
	s := &c.Sessions[0]
	timer := time.NewTimer(d.cfg.Timeout) // localRead's rotation timer
	defer timer.Stop()
	for ctx.Err() == nil {
		if s.kind != kindWrite && d.local {
			// Consensus-bypassing path: one replica answers the
			// write-free request from its last-executed state.
			switch d.localRead(ctx, c, s, timer) {
			case localDone:
				continue
			case localAborted:
				return
			case localStale:
				// Every replica lags the staleness bound: re-run the
				// request through consensus.
				c.Stale()
			}
		}
		if s.Req.Sig == nil {
			if err := d.link.Sign(&s.Req); err != nil {
				return
			}
		}
		c.Begin(s)
		d.link.Submit(s.Req)
		outcome := d.link.Await(ctx.Done())
		if r := d.link.Retransmits(); r > d.linkRetx {
			c.Retried(r - d.linkRetx)
			d.linkRetx = r
		}
		if outcome == nil {
			return
		}
		if q := uint64(outcome.Seq); q > d.maxSeq {
			d.maxSeq = q
		}
		c.Complete(s, Acked)
	}
}

// localReadStatus is localRead's outcome: answered, aborted (context or
// inbox gone), or refused under the staleness bound.
type localReadStatus int

const (
	localDone localReadStatus = iota
	localAborted
	localStale
)

// localRead sends s's write-free request as a ReadRequest to one replica
// and waits for its ReadReply, rotating to the next replica on timeout (a
// crashed or lagging server must not wedge the client) or on a refusal: a
// replica whose last-retired sequence trails maxSeq answers with no
// results, and once every replica has refused it reports localStale.
func (d *direct) localRead(ctx context.Context, c *Carrier, s *Session, timer *time.Timer) localReadStatus {
	n := d.cfg.N
	// The session's op array is the request's ops in (transaction, op)
	// order: Fill carves every transaction's ops from it in turn.
	msg := &types.ReadRequest{Client: s.ID, ClientSeq: s.Seq, MinSeq: types.SeqNum(d.maxSeq), Ops: s.ops}
	refusals := 0
	// Spread clients across replicas so local reads scale with n instead
	// of piling onto the primary.
	target := int(uint32(s.ID)) % n
	c.Begin(s)
	d.link.Transmit(types.ReplicaNode(types.ReplicaID(target)), msg)

	inbox := d.cfg.Endpoint.Inbox(0)
	timer.Reset(d.cfg.Timeout)
	for {
		select {
		case <-ctx.Done():
			return localAborted
		case env, ok := <-inbox:
			if !ok {
				return localAborted
			}
			_, m, ok := d.link.Open(env)
			if !ok {
				continue
			}
			reply, ok := m.(*types.ReadReply)
			if !ok || reply.Client != s.ID || reply.ClientSeq != s.Seq {
				continue // stale consensus response or reply to an older read
			}
			if len(reply.Results) == 0 && len(msg.Ops) > 0 {
				// Staleness refusal: this replica's retired state trails
				// MinSeq. Try the next replica; once every replica refused,
				// hand the request back for the quorum path.
				refusals++
				if refusals >= n {
					return localStale
				}
				target = (target + 1) % n
				d.link.Transmit(types.ReplicaNode(types.ReplicaID(target)), msg)
				timer.Reset(d.cfg.Timeout)
				continue
			}
			c.Complete(s, AckedLocal)
			return localDone
		case <-timer.C:
			c.Retried(1)
			target = (target + 1) % n
			d.link.Transmit(types.ReplicaNode(types.ReplicaID(target)), msg)
			timer.Reset(d.cfg.Timeout)
		}
	}
}
