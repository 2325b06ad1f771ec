// Package consensus defines the engine abstraction of the fabric's BFT
// protocol, PBFT (internal/consensus/pbft), and of its client
// (internal/consensus/client).
//
// An Engine is a pure, deterministic state machine: verified messages go
// in, outputs come out. Engines never touch the network, the clock,
// threads, or cryptography — those belong to the drivers. The same engine
// code is driven by the real pipelined replica runtime
// (internal/replica) and by the discrete-event simulator (internal/sim),
// which is what lets the simulator's paper-scale experiments measure the
// behaviour of the very protocol implementation the runnable system uses.
//
// An engine step appends its outputs, in emission order, to an Out the
// driver passes in: a tagged list whose entries carry a Send, Broadcast,
// Execute, CheckpointStable, ViewChanged or Evidence by value. Each
// goroutine that steps an engine owns its Out, handles what a step appended
// and resets it before the next step, so a step boxes nothing into an
// interface and allocates no slice of its own. The PrePrepare, Prepare,
// Commit and Checkpoint an engine broadcasts come from the pools in types
// and are lent to the driver: it gives each back with types.ReleaseMessage
// once it has encoded it, or keeps it and never gives it back.
//
// Requests are counted, not copied: a driver that decodes proposals in
// place hands the engine requests whose memory goes back to its pools once
// the last holder drops its reference (types.RetainRequests and
// types.ReleaseRequests). The PBFT engine holds every batch it logs until a
// stable checkpoint prunes it. An Execute carries a reference of its own,
// taken under the engine's lock when it is emitted, which the driver
// releases once the batch has retired (or at once, if it drops the
// Execute). Requests built in memory have no hold: a driver that only ever
// hands an engine those, as the simulator and enginetest do, may ignore the
// references.
package consensus

import "resilientdb/internal/types"

// Action is one output of the client engine's steps, and the common type
// of an Out entry's payloads. Drivers interpret them: the runtime maps
// Send/Broadcast onto the transport and Execute onto the execution layer;
// the simulator maps them onto cost-modelled events.
type Action interface{ isAction() }

// Send delivers a message to a single node.
type Send struct {
	To  types.NodeID
	Msg types.Message
}

// Broadcast delivers a message to every other replica. The engine has
// already applied the message to itself where the protocol requires it;
// drivers must not loop a broadcast back to its sender.
type Broadcast struct {
	Msg types.Message
}

// Execute hands a committed batch to the execution layer. A batch carries
// no proof of its own: the next stable checkpoint's certificate covers it.
type Execute struct {
	Seq      types.SeqNum
	View     types.View
	Digest   types.Digest
	Requests []types.ClientRequest
}

// CheckpointStable reports that a checkpoint gathered its 2f+1 quorum:
// everything up to and including Seq may be garbage collected
// (Section 4.7). When the engine holds the quorum's votes for Seq, Digest
// is the checkpoint digest they agree on and Cert their signatures, in
// replica-id order: the stable checkpoint's certificate. A replica whose
// low watermark reaches a checkpoint it saw no quorum for — a newer one
// did — reports it with an empty Cert. Cert is the receiver's to keep.
type CheckpointStable struct {
	Seq    types.SeqNum
	Digest types.Digest
	Cert   []types.CheckpointSig
}

// ViewChanged reports that the engine entered a new view.
type ViewChanged struct {
	View types.View
}

// Evidence reports byzantine behaviour the engine observed, such as an
// equivocating primary. Drivers log it and may trigger a view change.
type Evidence struct {
	Culprit types.ReplicaID
	Detail  string
}

// Kind names the payload an Output carries.
type Kind uint8

const (
	KindSend Kind = iota + 1
	KindBroadcast
	KindExecute
	KindCheckpointStable
	KindViewChanged
	KindEvidence
)

// Output is one entry of an Out: Kind names the one payload field set.
type Output struct {
	Kind             Kind
	Send             Send
	Broadcast        Broadcast
	Execute          Execute
	CheckpointStable CheckpointStable
	ViewChanged      ViewChanged
	Evidence         Evidence
}

// Out is the outputs of engine steps in emission order. The goroutine that
// steps an engine owns the Out it passes in: it reads Outputs once the step
// returns and calls Reset before the next step. The zero value is empty and
// ready; after the first few steps its entries are reused, not allocated.
type Out struct {
	list []Output
}

// Outputs returns the entries appended since the last Reset, in emission
// order. The slice is the Out's own and valid until Reset.
func (o *Out) Outputs() []Output { return o.list }

// Reset empties the Out for the next step. It zeroes the entries it drops,
// so no message or batch stays reachable from the buffer.
func (o *Out) Reset() {
	clear(o.list)
	o.list = o.list[:0]
}

func (o *Out) add(k Kind) *Output {
	o.list = append(o.list, Output{Kind: k})
	return &o.list[len(o.list)-1]
}

// Send appends a Send of msg to to.
func (o *Out) Send(to types.NodeID, msg types.Message) {
	o.add(KindSend).Send = Send{To: to, Msg: msg}
}

// Broadcast appends a Broadcast of msg.
func (o *Out) Broadcast(msg types.Message) { o.add(KindBroadcast).Broadcast = Broadcast{Msg: msg} }

// Execute appends the release of a batch for execution.
func (o *Out) Execute(x Execute) { o.add(KindExecute).Execute = x }

// CheckpointStable appends the report of a stable checkpoint at seq, with
// its certificate when the engine holds one.
func (o *Out) CheckpointStable(seq types.SeqNum, digest types.Digest, cert []types.CheckpointSig) {
	o.add(KindCheckpointStable).CheckpointStable = CheckpointStable{Seq: seq, Digest: digest, Cert: cert}
}

// ViewChanged appends the report that the engine entered view.
func (o *Out) ViewChanged(view types.View) {
	o.add(KindViewChanged).ViewChanged = ViewChanged{View: view}
}

// Evidence appends a report of byzantine behaviour by culprit.
func (o *Out) Evidence(culprit types.ReplicaID, detail string) {
	o.add(KindEvidence).Evidence = Evidence{Culprit: culprit, Detail: detail}
}

func (Send) isAction()             {}
func (Broadcast) isAction()        {}
func (Execute) isAction()          {}
func (CheckpointStable) isAction() {}
func (ViewChanged) isAction()      {}
func (Evidence) isAction()         {}

// Engine is a replica-side consensus state machine.
//
// Whether stepping methods (OnMessage, Propose, OnExecuted, OnViewTimeout)
// are safe for concurrent use is the engine's own contract: the PBFT engine
// takes one lock per step, so the replica's worker-, batch-, execute- and
// checkpoint-threads may step it at once. PBFT is the one implementation
// outside tests.
//
// The read-only observers View, IsPrimary, Stats and LastProposed are safe
// to call from any goroutine at any time, without external locking:
// implementations back them with atomics so observability never contends
// with consensus. CountsCheckpoint is safe to call alongside the steps.
type Engine interface {
	// OnMessage applies a verified message from a peer and appends what it
	// does to out. Verified includes a PrePrepare's Digest: the driver has
	// checked it against the batch's requests, and the engine trusts it.
	// The message is lent for the call: the caller reuses a Prepare, Commit
	// or Checkpoint once it returns, so an engine that keeps one keeps a
	// copy, and releases a proposal, so an engine that keeps its requests
	// takes a reference on them.
	OnMessage(from types.NodeID, msg types.Message, out *Out)

	// Propose assigns the next sequence number to a batch of client
	// requests, starts consensus on it and appends what it does to out.
	// Only the current primary may propose: an engine that refuses (not
	// primary, mid view change, window full) appends nothing and reports
	// false, and the caller retries later. The requests are lent as
	// OnMessage's are.
	Propose(reqs []types.ClientRequest, out *Out) bool

	// OnExecuted tells the engine the execution layer finished the batch
	// at seq; what it does is appended to out. At a checkpoint boundary
	// stateDigest is the checkpoint digest and sig this replica's signature
	// over (seq, stateDigest), which the engine carries as opaque bytes in
	// its vote; elsewhere both are ignored. A driver that checks no
	// signature passes a zero sig.
	OnExecuted(seq types.SeqNum, stateDigest types.Digest, sig types.Signature, out *Out)

	// OnViewTimeout signals that progress stalled in view (the driver's
	// view timer fired); the engine may start a view change, appending
	// what it does to out. The driver names the view it watched because
	// the engine may have left it since — a time-out takes a lock the view
	// change holds — and a time-out about an older view says nothing about
	// this one: the engine ignores it.
	OnViewTimeout(view types.View, out *Out)

	// View returns the engine's current view.
	View() types.View

	// IsPrimary reports whether this replica leads the current view.
	IsPrimary() bool

	// Stats returns engine counters for observability.
	Stats() EngineStats

	// LastProposed returns the highest sequence number the engine has
	// proposed (primary) or adopted from a view change or a checkpoint.
	// Drivers use it to bound the instances that may be in flight:
	// everything above it has provably not been pre-prepared yet.
	LastProposed() types.SeqNum

	// CountsCheckpoint reports whether from's vote for the checkpoint at
	// seq would be recorded: seq is above the low watermark, has no quorum
	// yet, and holds no vote from from. Drivers check a vote's signature
	// only when it would: once a checkpoint has its 2f+1 votes the rest
	// are dropped unchecked, so a checkpoint costs each replica 2f
	// verifications when its own vote is in first, not n-1.
	CountsCheckpoint(from types.ReplicaID, seq types.SeqNum) bool

	// Close releases every reference the engine holds on requests it
	// logged. The engine must not be stepped again: a driver calls it once
	// every thread that steps the engine has returned.
	Close()
}

// EngineStats exposes engine counters for tests and monitoring.
type EngineStats struct {
	Proposed    uint64 // batches proposed (primary)
	Executed    uint64 // batches released for execution
	Checkpoints uint64 // stable checkpoints reached
	ViewChanges uint64 // view changes completed
	Dropped     uint64 // messages ignored (stale view, out of watermark…)
}

// Quorum2f returns the prepare quorum: 2f when n = 3f+1, generalized to
// n−f−1 so that the pre-prepare plus the prepares form an n−f quorum for
// any n ≥ 3f+1 (two such quorums intersect in more than f replicas).
func Quorum2f(n int) int { return n - MaxFaults(n) - 1 }

// Quorum2f1 returns the commit quorum: 2f+1 when n = 3f+1, generalized to
// n−f for any n ≥ 3f+1.
func Quorum2f1(n int) int { return n - MaxFaults(n) }

// MaxFaults returns f, the number of byzantine replicas n can tolerate.
func MaxFaults(n int) int { return (n - 1) / 3 }

// PrimaryOf returns the primary replica for view v among n replicas.
func PrimaryOf(v types.View, n int) types.ReplicaID {
	return types.ReplicaID(uint64(v) % uint64(n))
}
