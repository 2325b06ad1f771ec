// Package client implements the client-side halves of the consensus
// protocols: quorum collection over replica responses, retransmission,
// and Zyzzyva's client-driven second phase.
//
// Like the replica engines, client engines are pure state machines driven
// by both the real runtime and the simulator. PBFT clients accept a result
// after f+1 matching responses; Zyzzyva's fast path requires responses
// from all 3f+1 replicas, which is why a single crashed backup forces
// every Zyzzyva request through a timeout plus the commit-certificate
// phase (Sections 2.1 and 5.10).
package client

import (
	"fmt"
	"sort"

	"resilientdb/internal/consensus"
	"resilientdb/internal/types"
)

// Protocol selects the client-side quorum rules.
type Protocol int

// Supported protocols.
const (
	PBFT Protocol = iota + 1
	Zyzzyva
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case PBFT:
		return "pbft"
	case Zyzzyva:
		return "zyzzyva"
	default:
		return "invalid"
	}
}

// Outcome describes a completed request.
type Outcome struct {
	ClientSeq uint64
	Result    types.Digest
	// Seq is the sequence number the quorum committed the request at. It
	// is part of the attested vote key (PBFT folds it into Result via
	// types.ResponseDigest; Zyzzyva keys votes on it directly), so a
	// client can trust it as a lower bound on replicated state and quote
	// it as the staleness bound (ReadRequest.MinSeq) on later local reads.
	Seq types.SeqNum
	// ReadResults carries the read values for a request with read
	// operations, in the request's (transaction, op) order. The values are
	// trustworthy despite coming from a single response: the engine
	// recomputes types.ResponseDigest over every response's carried read
	// results and discards mismatches before counting the vote, so only
	// payloads that hash to the quorum-attested Result can complete a
	// request.
	ReadResults []types.ReadResult
	// FastPath reports whether a Zyzzyva request completed with all 3f+1
	// speculative responses (always true for PBFT completions).
	FastPath bool
	// Busy is the queue-saturation gauge (0 idle .. 255 full) for this
	// request — the backpressure signal a gateway's admission controller
	// steers on. Because the gauge is outside the vote key (it never
	// affects quorum formation), a Byzantine replica could stamp 255 on
	// otherwise-valid responses; a plain max would let one faulty replica
	// saturate every request's gauge and wedge the gateway's admission.
	// The engine therefore aggregates robustly: Busy is the (f+1)-th
	// highest gauge across the distinct replicas that responded, so at
	// least one honest replica reported a gauge at or above the value and
	// f faulty replicas can neither raise it above an honest reading nor
	// (with f+1 honest responders) drag it below the honest tail.
	Busy uint8
}

// Engine is the client state machine for one logical client. It manages a
// single in-flight request at a time (closed loop, as in the evaluation:
// clients wait for a response before issuing the next request).
type Engine struct {
	id       types.ClientID
	n        int
	f        int
	protocol Protocol
	view     types.View // latest view observed from responses

	cur *inflight

	stats Stats
}

// Stats counts client-side events.
type Stats struct {
	Completed   uint64
	FastPath    uint64
	SlowPath    uint64
	Retransmits uint64
}

type inflight struct {
	req       types.ClientRequest
	clientSeq uint64
	// PBFT: votes by result digest.
	// Zyzzyva fast path: votes keyed by (seq, history, result).
	votes map[voteKey]map[types.ReplicaID]bool
	// Zyzzyva slow path state.
	certSent     bool
	localCommits map[types.ReplicaID]bool
	specSeq      types.SeqNum
	specHistory  types.Digest
	specResult   types.Digest
	specReads    []types.ReadResult
	done         bool
	// busyBy is each responding replica's highest saturation gauge; the
	// Outcome reports the (f+1)-th highest so f liars cannot inflate it.
	busyBy map[types.ReplicaID]uint8
}

type voteKey struct {
	seq     types.SeqNum
	history types.Digest
	result  types.Digest
}

// New creates a client engine.
func New(id types.ClientID, n int, protocol Protocol) (*Engine, error) {
	if n < 4 {
		return nil, fmt.Errorf("client: need n ≥ 4 replicas, got %d", n)
	}
	switch protocol {
	case PBFT, Zyzzyva:
	default:
		return nil, fmt.Errorf("client: invalid protocol %d", protocol)
	}
	return &Engine{
		id:       id,
		n:        n,
		f:        consensus.MaxFaults(n),
		protocol: protocol,
	}, nil
}

// Stats returns the client's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Busy reports whether a request is in flight.
func (e *Engine) Busy() bool { return e.cur != nil && !e.cur.done }

// Primary returns the replica the client currently believes is primary.
func (e *Engine) Primary() types.ReplicaID {
	return consensus.PrimaryOf(e.view, e.n)
}

// Submit starts a new request and returns the send action. The request
// must already carry the client's signature. Submitting while a request
// is in flight abandons the previous one. The engine keeps one request's
// state and its tables, emptied for each new request.
func (e *Engine) Submit(req types.ClientRequest) []consensus.Action {
	if e.cur == nil {
		e.cur = &inflight{
			votes:        make(map[voteKey]map[types.ReplicaID]bool),
			localCommits: make(map[types.ReplicaID]bool),
			busyBy:       make(map[types.ReplicaID]uint8),
		}
	}
	c := e.cur
	clear(c.votes)
	clear(c.localCommits)
	clear(c.busyBy)
	*c = inflight{
		req:          req,
		clientSeq:    req.FirstSeq,
		votes:        c.votes,
		localCommits: c.localCommits,
		busyBy:       c.busyBy,
	}
	return []consensus.Action{consensus.Send{
		To:  types.ReplicaNode(e.Primary()),
		Msg: &req,
	}}
}

// OnMessage applies a replica response. When the request completes it
// returns the Outcome; otherwise the Outcome is nil.
func (e *Engine) OnMessage(from types.NodeID, msg types.Message) (*Outcome, []consensus.Action) {
	if e.cur == nil || e.cur.done || !from.IsReplica() {
		return nil, nil
	}
	rep := from.Replica()
	switch m := msg.(type) {
	case *types.ClientResponse:
		if e.protocol != PBFT || m.Client != e.id || m.ClientSeq != e.cur.clientSeq {
			return nil, nil
		}
		// Votes are keyed on Result alone, so the payload must be checked
		// against it: a Byzantine replica could copy the correct Result from
		// honest replicas and attach forged (or stripped) read values, and
		// its message may be the f+1-th that completes the request. Only
		// responses whose carried fields hash to Result may vote.
		if types.ResponseDigest(m.Seq, m.Client, m.ClientSeq, m.ReadResults) != m.Result {
			return nil, nil
		}
		if m.View > e.view {
			e.view = m.View
		}
		if m.Busy > e.cur.busyBy[rep] {
			e.cur.busyBy[rep] = m.Busy
		}
		k := voteKey{result: m.Result}
		if e.vote(k, rep) >= e.f+1 {
			return e.complete(m.Seq, m.Result, true, m.ReadResults), nil
		}
	case *types.SpecResponse:
		if e.protocol != Zyzzyva || m.Client != e.id || m.ClientSeq != e.cur.clientSeq {
			return nil, nil
		}
		// Same payload check as the PBFT path: it guards the 3f+1-th
		// fast-path message, the 2f+1-th that records specReads for the
		// slow path, and everything in between.
		if types.ResponseDigest(m.Seq, m.Client, m.ClientSeq, m.ReadResults) != m.Result {
			return nil, nil
		}
		if m.View > e.view {
			e.view = m.View
		}
		if m.Busy > e.cur.busyBy[rep] {
			e.cur.busyBy[rep] = m.Busy
		}
		k := voteKey{seq: m.Seq, history: m.History, result: m.Result}
		votes := e.vote(k, rep)
		// Track the strongest candidate for a potential slow path.
		if votes >= consensus.Quorum2f1(e.n) && !e.cur.certSent {
			e.cur.specSeq = m.Seq
			e.cur.specHistory = m.History
			e.cur.specResult = m.Result
			e.cur.specReads = m.ReadResults
		}
		if votes >= e.n {
			// Fast path: all 3f+1 replicas agree.
			return e.complete(m.Seq, m.Result, true, m.ReadResults), nil
		}
	case *types.LocalCommit:
		if e.protocol != Zyzzyva || m.Client != e.id || m.ClientSeq != e.cur.clientSeq || !e.cur.certSent {
			return nil, nil
		}
		if m.History != e.cur.specHistory {
			return nil, nil
		}
		e.cur.localCommits[rep] = true
		if len(e.cur.localCommits) >= consensus.Quorum2f1(e.n) {
			return e.complete(e.cur.specSeq, e.cur.specResult, false, e.cur.specReads), nil
		}
	}
	return nil, nil
}

func (e *Engine) vote(k voteKey, rep types.ReplicaID) int {
	voters, ok := e.cur.votes[k]
	if !ok {
		voters = make(map[types.ReplicaID]bool)
		e.cur.votes[k] = voters
	}
	voters[rep] = true
	return len(voters)
}

func (e *Engine) complete(seq types.SeqNum, result types.Digest, fast bool, reads []types.ReadResult) *Outcome {
	e.cur.done = true
	e.stats.Completed++
	if fast {
		e.stats.FastPath++
	} else {
		e.stats.SlowPath++
	}
	return &Outcome{ClientSeq: e.cur.clientSeq, Seq: seq, Result: result, ReadResults: reads, FastPath: fast, Busy: e.robustBusy()}
}

// robustBusy folds the per-replica saturation gauges into the Outcome's
// advisory value: the (f+1)-th highest gauge across distinct responders.
// The top f slots may all be Byzantine inflation, so the (f+1)-th is the
// largest value at least one honest replica vouches for. Every
// completion path has collected at least f+1 distinct responders (PBFT
// completes at f+1 votes, Zyzzyva's slow path records gauges from its
// 2f+1 speculative responses); if somehow fewer exist, report 0 rather
// than a value no honest replica may back.
func (e *Engine) robustBusy() uint8 {
	if len(e.cur.busyBy) <= e.f {
		return 0
	}
	gauges := make([]int, 0, len(e.cur.busyBy))
	for _, g := range e.cur.busyBy {
		gauges = append(gauges, int(g))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(gauges)))
	return uint8(gauges[e.f])
}

// OnTimeout handles the client timer expiring before completion.
//
// PBFT: retransmit the request to every replica (which is also what pulls
// a stalled system into a view change — backups that receive a client
// request they cannot get ordered eventually vote to replace the primary).
//
// Zyzzyva: if 2f+1 matching speculative responses arrived, broadcast the
// commit certificate and await 2f+1 LocalCommits; otherwise retransmit.
// The paper approximates the unknowably "optimal" wait by keeping the
// client timeout short (Section 5.10) — the timeout duration itself is the
// driver's concern.
func (e *Engine) OnTimeout() []consensus.Action {
	if e.cur == nil || e.cur.done {
		return nil
	}
	e.stats.Retransmits++
	if e.protocol == Zyzzyva && !e.cur.certSent {
		k := voteKey{seq: e.cur.specSeq, history: e.cur.specHistory, result: e.cur.specResult}
		if voters := e.cur.votes[k]; len(voters) >= consensus.Quorum2f1(e.n) {
			e.cur.certSent = true
			cert := &types.CommitCert{
				Client:    e.id,
				ClientSeq: e.cur.clientSeq,
				View:      e.view,
				Seq:       e.cur.specSeq,
				History:   e.cur.specHistory,
				Replicas:  sortedVoters(voters),
			}
			return []consensus.Action{consensus.Broadcast{Msg: cert}}
		}
	}
	// Retransmit to every replica.
	acts := make([]consensus.Action, 0, e.n)
	for r := 0; r < e.n; r++ {
		req := e.cur.req
		acts = append(acts, consensus.Send{To: types.ReplicaNode(types.ReplicaID(r)), Msg: &req})
	}
	return acts
}

func sortedVoters(voters map[types.ReplicaID]bool) []types.ReplicaID {
	ids := make([]types.ReplicaID, 0, len(voters))
	for id := range voters {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
