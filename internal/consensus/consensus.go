// Package consensus defines the engine abstraction shared by every BFT
// protocol in the fabric.
//
// An Engine is a pure, deterministic state machine: verified messages go
// in, Actions come out. Engines never touch the network, the clock,
// threads, or cryptography — those belong to the drivers. The same engine
// code is driven by the real pipelined replica runtime
// (internal/replica) and by the discrete-event simulator (internal/sim),
// which is what lets the simulator's paper-scale experiments measure the
// behaviour of the very protocol implementation the runnable system uses.
package consensus

import (
	"sync"
	"sync/atomic"

	"resilientdb/internal/types"
)

// Action is one output of an engine step. Drivers interpret actions:
// the runtime maps Send/Broadcast onto the transport and Execute onto the
// execution layer; the simulator maps them onto cost-modelled events.
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

// Execute hands an ordered batch to the execution layer. For PBFT the
// batch carries its 2f+1 commit certificate; for Zyzzyva the batch is
// Speculative and carries the history digest the response must embed.
type Execute struct {
	Seq         types.SeqNum
	View        types.View
	Digest      types.Digest
	History     types.Digest // Zyzzyva history hash; zero for PBFT
	Requests    []types.ClientRequest
	Proof       []types.CommitSig
	Speculative bool
}

// CheckpointStable reports that a checkpoint gathered its 2f+1 quorum:
// everything up to and including Seq may be garbage collected
// (Section 4.7).
type CheckpointStable struct {
	Seq types.SeqNum
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

func (Send) isAction()             {}
func (Broadcast) isAction()        {}
func (Execute) isAction()          {}
func (CheckpointStable) isAction() {}
func (ViewChanged) isAction()      {}
func (Evidence) isAction()         {}

// Engine is a replica-side consensus state machine.
//
// Stepping methods (OnMessage, Propose, OnExecuted, OnViewTimeout) are by
// default not safe for concurrent use: exactly one goroutine (the
// worker-thread) or one simulator event at a time may step them. Engines
// that additionally implement ConcurrentStepper may be stepped from many
// worker lanes at once. Drivers that cannot know which kind they hold wrap
// the engine with Serialize.
//
// The read-only observers View, IsPrimary, and Stats are safe to call from
// any goroutine at any time, without external locking: implementations
// back them with atomics so observability never contends with consensus.
type Engine interface {
	// OnMessage applies a verified message from a peer. auth carries the
	// authenticator bytes from the envelope so engines can retain commit
	// certificates; it may be nil. auth, and a Prepare, Commit or
	// Checkpoint msg, are lent for the call: the caller reuses them once it
	// returns, so an engine that keeps one keeps a copy.
	OnMessage(from types.NodeID, msg types.Message, auth []byte) []Action

	// Propose assigns the next sequence number to a batch of client
	// requests and starts consensus on it. Only the current primary may
	// propose; other replicas receive a nil result.
	Propose(reqs []types.ClientRequest) []Action

	// OnExecuted tells the engine the execution layer finished the batch
	// at seq and reports the resulting state digest, which feeds
	// checkpoint generation.
	OnExecuted(seq types.SeqNum, stateDigest types.Digest) []Action

	// OnViewTimeout signals that progress stalled in view (the driver's
	// view timer fired); the engine may start a view change. The driver
	// names the view it watched because the engine may have left it since
	// — a time-out takes a lock the view change holds — and a time-out
	// about an older view says nothing about this one: the engine ignores
	// it.
	OnViewTimeout(view types.View) []Action

	// View returns the engine's current view.
	View() types.View

	// IsPrimary reports whether this replica leads the current view.
	IsPrimary() bool

	// Stats returns engine counters for observability.
	Stats() EngineStats
}

// ConcurrentStepper marks engines whose stepping methods are safe for
// concurrent use by multiple worker lanes (Sections 4.4–4.5: independent
// consensus instances may be processed out of order and in parallel).
//
// The contract: steps touching different sequence numbers may run fully in
// parallel; steps touching the same sequence number and all control-plane
// transitions (view changes, checkpoint garbage collection) are serialized
// internally by the engine. Drivers remain responsible for routing traffic
// sensibly — the replica runtime keys its worker lanes by sequence number
// so one instance's messages stay on one lane.
//
// Engines with inherently ordered state do not implement this interface:
// Zyzzyva's speculative history chain h_k = H(h_{k-1} || d_k) forces
// sequential acceptance, so its engine is driven through Serialize on a
// single lane regardless of the configured lane count.
type ConcurrentStepper interface {
	Engine

	// ConcurrentStepping is a marker method documenting the contract
	// above; it has no runtime behaviour.
	ConcurrentStepping()
}

// Serialize returns an Engine that is safe to step from multiple
// goroutines. Engines implementing ConcurrentStepper are returned as-is;
// anything else is wrapped so that stepping methods run under a mutex.
// The observers (View, IsPrimary, Stats) pass through without locking —
// the Engine contract already requires them to be concurrency-safe.
func Serialize(e Engine) Engine {
	if _, ok := e.(ConcurrentStepper); ok {
		return e
	}
	return &serialEngine{inner: e}
}

// serialEngine adapts a single-threaded engine to concurrent drivers by
// serializing every stepping method behind one mutex.
type serialEngine struct {
	mu    sync.Mutex
	inner Engine
}

func (s *serialEngine) OnMessage(from types.NodeID, msg types.Message, auth []byte) []Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.OnMessage(from, msg, auth)
}

func (s *serialEngine) Propose(reqs []types.ClientRequest) []Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Propose(reqs)
}

func (s *serialEngine) OnExecuted(seq types.SeqNum, stateDigest types.Digest) []Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.OnExecuted(seq, stateDigest)
}

func (s *serialEngine) OnViewTimeout(view types.View) []Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.OnViewTimeout(view)
}

func (s *serialEngine) LastProposed() types.SeqNum {
	if ph, ok := s.inner.(ProposalHeader); ok {
		return ph.LastProposed()
	}
	return 0
}

func (s *serialEngine) View() types.View { return s.inner.View() }
func (s *serialEngine) IsPrimary() bool  { return s.inner.IsPrimary() }
func (s *serialEngine) Stats() EngineStats {
	return s.inner.Stats()
}

// ProposalHeader is implemented by engines that can report the highest
// sequence number they have proposed or adopted. Drivers use it to bound
// the set of instances that may be in flight: everything above the head
// has provably not been pre-prepared yet.
type ProposalHeader interface {
	LastProposed() types.SeqNum
}

// EngineStats exposes engine counters for tests and monitoring.
type EngineStats struct {
	Proposed    uint64 // batches proposed (primary)
	Executed    uint64 // batches released for execution
	Checkpoints uint64 // stable checkpoints reached
	ViewChanges uint64 // view changes completed
	Dropped     uint64 // messages ignored (stale view, out of watermark…)
}

// AtomicEngineStats is the atomic counter set backing a lock-free
// Engine.Stats implementation. Engines keep one and return Snapshot(), so
// counters bumped mid-step are safe to read from any goroutine — the
// Engine contract requires exactly that of Stats().
type AtomicEngineStats struct {
	Proposed    atomic.Uint64
	Executed    atomic.Uint64
	Checkpoints atomic.Uint64
	ViewChanges atomic.Uint64
	Dropped     atomic.Uint64
}

// Snapshot returns the counters as a plain EngineStats value.
func (s *AtomicEngineStats) Snapshot() EngineStats {
	return EngineStats{
		Proposed:    s.Proposed.Load(),
		Executed:    s.Executed.Load(),
		Checkpoints: s.Checkpoints.Load(),
		ViewChanges: s.ViewChanges.Load(),
		Dropped:     s.Dropped.Load(),
	}
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
