// Package client implements the client-side half of PBFT: quorum
// collection over replica responses and retransmission.
//
// Like the replica engine, the client engine is a pure state machine
// driven by both the real runtime and the simulator. A client accepts a
// result after f+1 matching responses (Section 2.1).
package client

import (
	"fmt"
	"slices"

	"resilientdb/internal/consensus"
	"resilientdb/internal/types"
)

// Protocol names the client-side quorum rules; PBFT's are the only ones.
type Protocol int

// PBFT is the one Protocol New accepts.
const PBFT Protocol = 1

// Outcome describes a completed request.
type Outcome struct {
	ClientSeq uint64
	Result    types.Digest
	// Seq is the sequence number the quorum committed the request at. It
	// is attested by the vote key (types.ResponseDigest folds it into
	// Result), so a client can trust it as a lower bound on replicated
	// state and quote it as the staleness bound (ReadRequest.MinSeq) on
	// later local reads.
	Seq types.SeqNum
	// ReadResults carries the read values for a request with read
	// operations, in the request's (transaction, op) order. The values are
	// trustworthy despite coming from a single response: the engine
	// recomputes types.ResponseDigest over every response's carried read
	// results and discards mismatches before counting the vote, so only
	// payloads that hash to the quorum-attested Result can complete a
	// request.
	ReadResults []types.ReadResult
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
	id   types.ClientID
	n    int
	f    int
	view types.View // latest view observed from responses

	cur *inflight
	// sends holds one Send per replica, each carrying cur's request: Submit
	// returns the primary's and OnTimeout all n, so neither allocates.
	sends []consensus.Action

	// outcome and gauges are reused from request to request: an Outcome is
	// valid until the engine's next Submit.
	outcome Outcome
	gauges  []int

	stats Stats
}

// Stats counts client-side events.
type Stats struct {
	Completed   uint64
	Retransmits uint64
}

type inflight struct {
	req       types.ClientRequest
	clientSeq uint64
	done      bool
	// slots holds each replica's latest valid response to this request,
	// indexed by ReplicaID: n entries, reused from request to request. A
	// replica's newer result replaces its older one, so one faulty replica
	// holds one vote however many distinct results it sends, and a vote
	// costs one pass over n slots.
	slots []slot
}

// slot is one replica's standing in the current request: the result it
// votes for and the highest saturation gauge it has reported. The Outcome
// reports the (f+1)-th highest gauge so f liars cannot inflate it.
type slot struct {
	result types.Digest
	voted  bool
	busy   uint8
}

// New creates a client engine for PBFT, the only protocol it accepts.
func New(id types.ClientID, n int, protocol Protocol) (*Engine, error) {
	if n < 4 {
		return nil, fmt.Errorf("client: need n ≥ 4 replicas, got %d", n)
	}
	if protocol != PBFT {
		return nil, fmt.Errorf("client: protocol %d is not served: clients run PBFT only", protocol)
	}
	return &Engine{
		id: id,
		n:  n,
		f:  consensus.MaxFaults(n),
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
// state and its tables, emptied for each new request. The actions Submit
// and OnTimeout return are the engine's own, and so is the request their
// Sends carry: a caller that keeps the message past the next Submit copies
// it.
func (e *Engine) Submit(req types.ClientRequest) []consensus.Action {
	if e.cur == nil {
		e.cur = &inflight{slots: make([]slot, e.n)}
		e.sends = make([]consensus.Action, e.n)
		for r := range e.sends {
			e.sends[r] = consensus.Send{To: types.ReplicaNode(types.ReplicaID(r)), Msg: &e.cur.req}
		}
	}
	c := e.cur
	clear(c.slots)
	*c = inflight{
		req:       req,
		clientSeq: req.FirstSeq,
		slots:     c.slots,
	}
	e.outcome = Outcome{}
	p := e.Primary()
	return e.sends[p : p+1 : p+1]
}

// OnMessage applies a replica response. When the request completes it
// returns the Outcome, the engine's own and valid until the next Submit;
// its ReadResults are msg's, valid as long as msg is. Otherwise the
// Outcome is nil. A response prompts no send, so the actions are always
// nil.
func (e *Engine) OnMessage(from types.NodeID, msg types.Message) (*Outcome, []consensus.Action) {
	if e.cur == nil || e.cur.done || !from.IsReplica() {
		return nil, nil
	}
	m, ok := msg.(*types.ClientResponse)
	if !ok || m.Client != e.id || m.ClientSeq != e.cur.clientSeq {
		return nil, nil
	}
	// Votes are keyed on Result alone, so the payload must be checked
	// against it: a Byzantine replica could copy the correct Result from
	// honest replicas and attach forged (or stripped) read values, and its
	// message may be the f+1-th that completes the request. Only responses
	// whose carried fields hash to Result may vote.
	if types.ResponseDigest(m.Seq, m.Client, m.ClientSeq, m.ReadResults) != m.Result {
		return nil, nil
	}
	if m.View > e.view {
		e.view = m.View
	}
	rep := from.Replica()
	if int(rep) >= e.n {
		return nil, nil
	}
	if s := &e.cur.slots[rep]; m.Busy > s.busy {
		s.busy = m.Busy
	}
	if e.vote(m.Result, rep) < e.f+1 {
		return nil, nil
	}
	e.cur.done = true
	e.stats.Completed++
	e.outcome = Outcome{ClientSeq: e.cur.clientSeq, Seq: m.Seq, Result: m.Result, ReadResults: m.ReadResults, Busy: e.robustBusy()}
	return &e.outcome, nil
}

// vote records result k as rep's vote, replacing any earlier one, and
// returns how many replicas now vote for k.
func (e *Engine) vote(k types.Digest, rep types.ReplicaID) int {
	e.cur.slots[rep].result, e.cur.slots[rep].voted = k, true
	n := 0
	for i := range e.cur.slots {
		if s := &e.cur.slots[i]; s.voted && s.result == k {
			n++
		}
	}
	return n
}

// robustBusy folds the per-replica saturation gauges into the Outcome's
// advisory value: the (f+1)-th highest gauge across the n replicas, a
// replica that has not responded counting 0. The top f slots may all be
// Byzantine inflation, so the (f+1)-th is the largest value at least one
// honest replica vouches for.
func (e *Engine) robustBusy() uint8 {
	gauges := e.gauges[:0]
	for i := range e.cur.slots {
		gauges = append(gauges, int(e.cur.slots[i].busy))
	}
	e.gauges = gauges
	slices.Sort(gauges)
	return uint8(gauges[len(gauges)-1-e.f])
}

// OnTimeout handles the client timer expiring before completion: it
// retransmits the request to every replica (which is also what pulls a
// stalled system into a view change — backups that receive a client request
// they cannot get ordered eventually vote to replace the primary).
func (e *Engine) OnTimeout() []consensus.Action {
	if e.cur == nil || e.cur.done {
		return nil
	}
	e.stats.Retransmits++
	return e.sends
}
