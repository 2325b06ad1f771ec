package sim

// This file is the simulator's model of Zyzzyva (Kotla et al., SOSP '07),
// the speculative single-phase protocol the paper measures its well-crafted
// PBFT system against (Sections 1, 5.2, 5.10). No replica runs it; it
// exists for the comparison's figures.
//
// Flow: the primary orders a batch by extending a history hash chain
// h_k = H(h_{k-1} || d_k) and broadcasting an orderedRequest. Backups
// execute speculatively the moment the request arrives — before any
// agreement — and answer the client with their history. The client accepts
// after all 3f+1 matching speculative responses (fast path); with only 2f+1
// it must run a second phase, broadcasting a commit certificate and
// collecting 2f+1 localCommits. That is why a single crashed backup forces
// every request through a timeout plus the commit-certificate phase.
//
// The view change and proof-of-misbehaviour machinery is out of scope: the
// paper's evaluation never exercises it (and cites follow-up work showing
// the protocol is unsafe in corner cases [Abraham et al. 2017]). The model
// covers the fast path, the commit-certificate slow path, fill-hole
// buffering and checkpoints, which are what the experiments measure. Its
// messages are never encoded: the cost model sizes them (msgSize).

import (
	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

// maxSpeculation bounds how far execution may run ahead of the last stable
// checkpoint.
const maxSpeculation = 1 << 20

// orderedRequest is Zyzzyva's pre-prepare: the primary assigns seq and
// extends the history chain with the batch digest.
type orderedRequest struct {
	seq      types.SeqNum
	digest   types.Digest
	history  types.Digest
	requests []types.ClientRequest
}

// specResponse is a replica's speculative reply, binding the result to the
// replica's history so the client can detect divergence. result covers
// reads (types.ResponseDigest), as a PBFT ClientResponse's does.
type specResponse struct {
	seq       types.SeqNum
	history   types.Digest
	client    types.ClientID
	clientSeq uint64
	result    types.Digest
	reads     []types.ReadResult
}

// commitCert is the slow path: a client that gathered 2f+1 matching
// speculative responses, but not 3f+1, asks the replicas to commit that
// history.
type commitCert struct {
	client    types.ClientID
	clientSeq uint64
	seq       types.SeqNum
	history   types.Digest
}

// localCommit acknowledges a commitCert; 2f+1 of them complete a request.
type localCommit struct {
	client    types.ClientID
	clientSeq uint64
	history   types.Digest
}

// action is one output of a Zyzzyva replica's or client's step: a send of
// msg to to, a broadcast of msg, or the release of exec for execution. The
// drivers drain a step's actions, in emission order, beside consensus.Out.
type action struct {
	kind consensus.Kind // KindSend, KindBroadcast or KindExecute
	to   types.NodeID
	msg  any
	exec consensus.Execute
}

type actions []action

func (a *actions) send(to types.NodeID, msg any) {
	*a = append(*a, action{kind: consensus.KindSend, to: to, msg: msg})
}

func (a *actions) broadcast(msg any) {
	*a = append(*a, action{kind: consensus.KindBroadcast, msg: msg})
}

// zyzzyvaReplica is one replica's Zyzzyva state machine. Replica 0 leads
// throughout: there is no view change.
type zyzzyvaReplica struct {
	id       types.ReplicaID
	n        int
	interval uint64 // checkpoint interval Δ

	history  types.Digest // after the last accepted request
	executed types.SeqNum // last sequence number accepted for execution
	lowWater types.SeqNum

	// quorumStable is the highest checkpoint with a 2f+1 quorum; the low
	// watermark only advances once local execution reaches it.
	quorumStable types.SeqNum

	// pending buffers ordered requests that arrived ahead of a gap
	// (fill-hole buffering).
	pending map[types.SeqNum]*orderedRequest

	// histories remembers the history after each executed sequence
	// number, to answer commit certificates until checkpointed.
	histories map[types.SeqNum]types.Digest

	checkpoints map[types.SeqNum]map[types.Digest]map[types.ReplicaID]bool
}

func newZyzzyvaReplica(id types.ReplicaID, n int, interval uint64) *zyzzyvaReplica {
	return &zyzzyvaReplica{
		id:          id,
		n:           n,
		interval:    interval,
		pending:     make(map[types.SeqNum]*orderedRequest),
		histories:   make(map[types.SeqNum]types.Digest),
		checkpoints: make(map[types.SeqNum]map[types.Digest]map[types.ReplicaID]bool),
	}
}

// propose orders a batch at the primary: it broadcasts the orderedRequest,
// then executes its own share. It refuses a batch past the speculation
// bound.
func (z *zyzzyvaReplica) propose(reqs []types.ClientRequest, out *actions) bool {
	seq := z.executed + 1
	if uint64(seq) > uint64(z.lowWater)+maxSpeculation {
		return false
	}
	digest := types.BatchDigest(reqs)
	or := &orderedRequest{seq: seq, digest: digest, history: crypto.HashChain(z.history, digest), requests: reqs}
	out.broadcast(or)
	z.accept(or, out)
	return true
}

func (z *zyzzyvaReplica) onMessage(from types.NodeID, msg any, out *actions) {
	switch m := msg.(type) {
	case *orderedRequest:
		if from == types.ReplicaNode(0) {
			z.onOrderedRequest(m, out)
		}
	case *commitCert:
		z.onCommitCert(m, out)
	case *types.Checkpoint:
		if from.IsReplica() {
			z.recordCheckpoint(from.Replica(), m)
		}
	}
}

// onOrderedRequest accepts the request if it is next in the history;
// out-of-order arrivals are buffered until the hole fills.
func (z *zyzzyvaReplica) onOrderedRequest(m *orderedRequest, out *actions) {
	if m.seq <= z.lowWater || uint64(m.seq) > uint64(z.lowWater)+maxSpeculation {
		return
	}
	if m.seq != z.executed+1 {
		if _, dup := z.pending[m.seq]; !dup && m.seq > z.executed {
			z.pending[m.seq] = m
		}
		return
	}
	z.accept(m, out)
	// Drain the buffered successors the hole was blocking.
	for {
		next, ok := z.pending[z.executed+1]
		if !ok {
			break
		}
		delete(z.pending, next.seq)
		z.accept(next, out)
	}
}

// accept extends the local history with the batch and releases it for
// speculative execution. A history that does not extend this replica's
// means the primary equivocated or reordered: the request is refused.
func (z *zyzzyvaReplica) accept(m *orderedRequest, out *actions) {
	if m.history != crypto.HashChain(z.history, m.digest) {
		return
	}
	z.history = m.history
	z.executed = m.seq
	z.histories[m.seq] = m.history
	*out = append(*out, action{kind: consensus.KindExecute, exec: consensus.Execute{Seq: m.seq, Digest: m.digest, Requests: m.requests}})
}

// onCommitCert answers a client's commit certificate with a localCommit if
// it matches the local history.
func (z *zyzzyvaReplica) onCommitCert(m *commitCert, out *actions) {
	h, ok := z.histories[m.seq]
	if !ok {
		// Either not yet executed, or checkpointed away: safe to
		// acknowledge, since the checkpoint proves 2f+1 replicas agreed.
		if m.seq > z.lowWater {
			return
		}
		h = m.history
	}
	if h != m.history {
		return
	}
	out.send(types.ClientNode(m.client), &localCommit{client: m.client, clientSeq: m.clientSeq, history: m.history})
}

// onExecuted checkpoints exactly as PBFT does, so speculative state becomes
// stable and is pruned.
func (z *zyzzyvaReplica) onExecuted(seq types.SeqNum, stateDigest types.Digest, out *actions) {
	if uint64(seq)%z.interval != 0 {
		z.advanceLowWater()
		return
	}
	cp := &types.Checkpoint{Seq: seq, StateDigest: stateDigest, Replica: z.id}
	out.broadcast(cp)
	z.recordCheckpoint(z.id, cp)
}

func (z *zyzzyvaReplica) recordCheckpoint(from types.ReplicaID, m *types.Checkpoint) {
	if m.Seq <= z.lowWater {
		return
	}
	bySeq, ok := z.checkpoints[m.Seq]
	if !ok {
		bySeq = make(map[types.Digest]map[types.ReplicaID]bool)
		z.checkpoints[m.Seq] = bySeq
	}
	voters, ok := bySeq[m.StateDigest]
	if !ok {
		voters = make(map[types.ReplicaID]bool)
		bySeq[m.StateDigest] = voters
	}
	voters[from] = true
	if len(voters) < consensus.Quorum2f1(z.n) {
		return
	}
	if m.Seq > z.quorumStable {
		z.quorumStable = m.Seq
	}
	z.advanceLowWater()
}

// advanceLowWater prunes up to the newest quorum-stable checkpoint this
// replica has itself executed past: a lagging replica keeps its state until
// it catches up.
func (z *zyzzyvaReplica) advanceLowWater() {
	target := z.quorumStable
	if z.executed < target || target <= z.lowWater {
		return
	}
	z.lowWater = target
	for seq := range z.histories {
		if seq < target { // keep the history at the checkpoint itself
			delete(z.histories, seq)
		}
	}
	for seq := range z.checkpoints {
		if seq <= target {
			delete(z.checkpoints, seq)
		}
	}
	for seq := range z.pending {
		if seq <= target {
			delete(z.pending, seq)
		}
	}
}

// specKey is what a speculative vote agrees on.
type specKey struct {
	seq     types.SeqNum
	history types.Digest
	result  types.Digest
}

// zyzzyvaClient holds one client's Zyzzyva quorum rules for its one request
// in flight. It sends to replica 0, the primary throughout.
type zyzzyvaClient struct {
	id    types.ClientID
	n     int
	req   types.ClientRequest
	votes map[specKey]map[types.ReplicaID]bool
	// spec is the newest response 2f+1 replicas matched: the slow path's
	// candidate.
	spec     *specResponse
	certSent bool
	commits  map[types.ReplicaID]bool
	done     bool
}

func newZyzzyvaClient(id types.ClientID, n int) *zyzzyvaClient {
	return &zyzzyvaClient{
		id:      id,
		n:       n,
		votes:   make(map[specKey]map[types.ReplicaID]bool),
		commits: make(map[types.ReplicaID]bool),
	}
}

// submit starts a new request, abandoning the one in flight, and sends it
// to the primary.
func (c *zyzzyvaClient) submit(req types.ClientRequest) actions {
	clear(c.votes)
	clear(c.commits)
	*c = zyzzyvaClient{id: c.id, n: c.n, req: req, votes: c.votes, commits: c.commits}
	return actions{{kind: consensus.KindSend, to: types.ReplicaNode(0), msg: &req}}
}

// onMessage applies a replica's reply and reports whether it completed the
// request, and on which path.
func (c *zyzzyvaClient) onMessage(from types.NodeID, msg any) (done, fast bool) {
	if c.done || !from.IsReplica() {
		return false, false
	}
	rep := from.Replica()
	switch m := msg.(type) {
	case *specResponse:
		if m.client != c.id || m.clientSeq != c.req.FirstSeq {
			return false, false
		}
		// Only a response whose reads hash to its result may vote, as on
		// the PBFT client: a forgery could otherwise be the 3f+1-th.
		if types.ResponseDigest(m.seq, m.client, m.clientSeq, m.reads) != m.result {
			return false, false
		}
		k := specKey{seq: m.seq, history: m.history, result: m.result}
		voters, ok := c.votes[k]
		if !ok {
			voters = make(map[types.ReplicaID]bool)
			c.votes[k] = voters
		}
		voters[rep] = true
		if len(voters) >= consensus.Quorum2f1(c.n) && !c.certSent {
			c.spec = m
		}
		if len(voters) >= c.n {
			c.done = true
			return true, true
		}
	case *localCommit:
		if m.client != c.id || m.clientSeq != c.req.FirstSeq || !c.certSent || m.history != c.spec.history {
			return false, false
		}
		c.commits[rep] = true
		if len(c.commits) >= consensus.Quorum2f1(c.n) {
			c.done = true
			return true, false
		}
	}
	return false, false
}

// onTimeout runs when the client timer expires before completion: with
// 2f+1 matching responses it broadcasts the commit certificate (once);
// otherwise it retransmits the request to every replica.
func (c *zyzzyvaClient) onTimeout() actions {
	if !c.certSent && c.spec != nil {
		c.certSent = true
		var out actions
		out.broadcast(&commitCert{client: c.id, clientSeq: c.req.FirstSeq, seq: c.spec.seq, history: c.spec.history})
		return out
	}
	out := make(actions, 0, c.n)
	for r := 0; r < c.n; r++ {
		req := c.req
		out.send(types.ReplicaNode(types.ReplicaID(r)), &req)
	}
	return out
}
