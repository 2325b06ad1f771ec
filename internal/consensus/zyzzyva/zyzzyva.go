// Package zyzzyva implements the speculative single-phase BFT protocol of
// Kotla et al. (SOSP '07) as a consensus engine, in the role the paper
// assigns it: the fast, fault-free-optimized baseline that a well-crafted
// PBFT system can outperform (Sections 1, 5.2, 5.10).
//
// Flow: the primary orders a batch by extending a history hash chain
// h_k = H(h_{k-1} || d_k) and broadcasting an OrderedRequest. Backups
// execute speculatively the moment the request arrives — before any
// agreement — and respond to the client with their history digest. The
// client accepts after all 3f+1 matching speculative responses (fast
// path); with only 2f+1 it must run a second phase, broadcasting a commit
// certificate and collecting 2f+1 LocalCommit acknowledgements.
//
// The client-side quorum logic lives in internal/consensus/client. The
// full Zyzzyva view-change and proof-of-misbehaviour machinery is out of
// scope: the paper's evaluation never exercises it (and cites follow-up
// work showing the protocol is unsafe in corner cases [Abraham et al.
// 2017]); this engine covers the fast path, the commit-certificate slow
// path, and fill-hole buffering, which are what the experiments measure.
package zyzzyva

import (
	"fmt"

	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

// Config parameterizes a Zyzzyva engine.
type Config struct {
	// ID is this replica's identifier.
	ID types.ReplicaID
	// N is the number of replicas (n ≥ 3f+1).
	N int
	// CheckpointInterval is Δ, as in PBFT.
	CheckpointInterval uint64
	// MaxSpeculationDepth bounds how far execution may run ahead of the
	// last stable checkpoint.
	MaxSpeculationDepth uint64
}

func (c *Config) fill() {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 100
	}
	if c.MaxSpeculationDepth == 0 {
		c.MaxSpeculationDepth = 4096
	}
}

// Engine is a Zyzzyva replica state machine.
//
// Unlike PBFT, the engine's stepping methods are NOT safe for concurrent
// use: the speculative history chain h_k = H(h_{k-1} || d_k) makes every
// acceptance depend on its predecessor, and the engine takes no lock. Its
// one driver, the simulator, steps it one event at a time, as do the
// enginetest harnesses.
// The observers View, IsPrimary (the view never changes; the Zyzzyva
// view-change machinery is out of scope) and Stats (atomic counters) are
// safe from any goroutine.
type Engine struct {
	cfg  Config
	f    int
	view types.View

	history  types.Digest // history hash after the last accepted request
	nextSeq  types.SeqNum // last ordered sequence number (primary)
	nextExec types.SeqNum // next sequence number to speculatively execute
	lowWater types.SeqNum

	// quorumStable is the highest checkpoint with a 2f+1 quorum; the low
	// watermark only advances once local execution reaches it (no state
	// transfer; see DESIGN.md).
	quorumStable types.SeqNum

	// pending buffers ordered requests that arrived ahead of a gap
	// (fill-hole buffering).
	pending map[types.SeqNum]*types.OrderedRequest

	// histories remembers the history digest after each executed sequence
	// number, needed to answer commit certificates until checkpointed.
	histories map[types.SeqNum]types.Digest

	checkpoints map[types.SeqNum]map[types.Digest]map[types.ReplicaID]bool

	// stats are atomic so Stats() is safe from any goroutine while the
	// (serialized) stepping methods run.
	stats consensus.AtomicEngineStats
}

var _ consensus.Engine = (*Engine)(nil)

// New creates a Zyzzyva engine.
func New(cfg Config) (*Engine, error) {
	cfg.fill()
	if cfg.N < 4 {
		return nil, fmt.Errorf("zyzzyva: need n ≥ 4 replicas, got %d", cfg.N)
	}
	if int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("zyzzyva: replica id %d out of range for n=%d", cfg.ID, cfg.N)
	}
	return &Engine{
		cfg:         cfg,
		pending:     make(map[types.SeqNum]*types.OrderedRequest),
		histories:   make(map[types.SeqNum]types.Digest),
		checkpoints: make(map[types.SeqNum]map[types.Digest]map[types.ReplicaID]bool),
	}, nil
}

// View implements consensus.Engine.
func (e *Engine) View() types.View { return e.view }

// IsPrimary implements consensus.Engine.
func (e *Engine) IsPrimary() bool { return consensus.PrimaryOf(e.view, e.cfg.N) == e.cfg.ID }

// Stats implements consensus.Engine; it is lock-free.
func (e *Engine) Stats() consensus.EngineStats { return e.stats.Snapshot() }

// History returns the current history hash; tests use it to check that
// replicas converge on identical histories.
func (e *Engine) History() types.Digest { return e.history }

// PendingHoles returns the number of buffered out-of-order requests.
func (e *Engine) PendingHoles() int { return len(e.pending) }

// Propose implements consensus.Engine. The primary assigns the next
// sequence number, extends the history chain, and broadcasts the ordered
// request; it also speculatively executes its own share immediately.
func (e *Engine) Propose(reqs []types.ClientRequest, out *consensus.Out) bool {
	if !e.IsPrimary() {
		return false
	}
	if uint64(e.nextSeq+1) > uint64(e.lowWater)+e.cfg.MaxSpeculationDepth {
		return false
	}
	seq := e.nextSeq + 1
	e.nextSeq = seq
	e.stats.Proposed.Add(1)
	digest := types.BatchDigest(reqs)
	or := &types.OrderedRequest{
		View:     e.view,
		Seq:      seq,
		Digest:   digest,
		History:  crypto.HashChain(e.historyAt(seq-1), digest),
		Requests: reqs,
	}
	out.Broadcast(or)
	e.accept(or, out)
	return true
}

func (e *Engine) historyAt(seq types.SeqNum) types.Digest {
	if seq == e.nextExec-1 || seq == 0 {
		if seq == 0 {
			return types.Digest{}
		}
		return e.history
	}
	if h, ok := e.histories[seq]; ok {
		return h
	}
	return e.history
}

// OnMessage implements consensus.Engine.
func (e *Engine) OnMessage(from types.NodeID, msg types.Message, out *consensus.Out) {
	switch m := msg.(type) {
	case *types.OrderedRequest:
		if !from.IsReplica() || from.Replica() != consensus.PrimaryOf(e.view, e.cfg.N) {
			e.stats.Dropped.Add(1)
			return
		}
		e.onOrderedRequest(m, out)
	case *types.CommitCert:
		e.onCommitCert(m, out)
	case *types.Checkpoint:
		if !from.IsReplica() {
			e.stats.Dropped.Add(1)
			return
		}
		e.recordCheckpoint(from.Replica(), m, out)
	default:
		e.stats.Dropped.Add(1)
	}
}

// onOrderedRequest accepts the request if it is next in the history;
// out-of-order arrivals are buffered until the hole fills.
func (e *Engine) onOrderedRequest(m *types.OrderedRequest, out *consensus.Out) {
	if m.View != e.view || m.Seq <= e.lowWater {
		e.stats.Dropped.Add(1)
		return
	}
	if uint64(m.Seq) > uint64(e.lowWater)+e.cfg.MaxSpeculationDepth {
		e.stats.Dropped.Add(1)
		return
	}
	if m.Seq != e.nextExec+1 {
		if _, dup := e.pending[m.Seq]; !dup && m.Seq > e.nextExec {
			e.pending[m.Seq] = m
		}
		return
	}
	e.accept(m, out)
	// Drain any buffered successors the hole was blocking.
	for {
		next, ok := e.pending[e.nextExec+1]
		if !ok {
			break
		}
		delete(e.pending, next.Seq)
		e.accept(next, out)
	}
}

// accept extends the local history with the batch and releases it for
// speculative execution. A history mismatch means the primary equivocated
// or reordered; the engine refuses and surfaces evidence.
func (e *Engine) accept(m *types.OrderedRequest, out *consensus.Out) {
	want := crypto.HashChain(e.historyAt(m.Seq-1), m.Digest)
	if m.History != want {
		e.stats.Dropped.Add(1)
		out.Evidence(consensus.PrimaryOf(e.view, e.cfg.N), fmt.Sprintf("history divergence at seq %d", m.Seq))
		return
	}
	e.history = m.History
	e.nextExec = m.Seq
	e.histories[m.Seq] = m.History
	e.stats.Executed.Add(1)
	types.RetainRequests(m.Requests) // the Execute's, released by the driver
	out.Execute(consensus.Execute{
		Seq:         m.Seq,
		View:        m.View,
		Digest:      m.Digest,
		History:     m.History,
		Requests:    m.Requests,
		Speculative: true,
	})
}

// onCommitCert answers the client's slow-path commit certificate: if the
// certificate matches the local history, acknowledge with a LocalCommit.
func (e *Engine) onCommitCert(m *types.CommitCert, out *consensus.Out) {
	h, ok := e.histories[m.Seq]
	if !ok {
		// Either already checkpointed away (safe to acknowledge: the
		// checkpoint proves 2f+1 replicas agreed) or not yet executed.
		if m.Seq > e.lowWater {
			e.stats.Dropped.Add(1)
			return
		}
		h = m.History
	}
	if h != m.History {
		e.stats.Dropped.Add(1)
		return
	}
	out.Send(types.ClientNode(m.Client), &types.LocalCommit{
		View:      m.View,
		Seq:       m.Seq,
		History:   m.History,
		Client:    m.Client,
		ClientSeq: m.ClientSeq,
		Replica:   e.cfg.ID,
	})
}

// OnExecuted implements consensus.Engine; Zyzzyva checkpoints exactly like
// PBFT so speculative state becomes stable and garbage collectable.
func (e *Engine) OnExecuted(seq types.SeqNum, stateDigest types.Digest, _ types.Signature, out *consensus.Out) {
	if uint64(seq)%e.cfg.CheckpointInterval != 0 {
		e.advanceLowWater(out)
		return
	}
	cp := types.AcquireVote(types.MsgCheckpoint).(*types.Checkpoint)
	*cp = types.Checkpoint{Seq: seq, StateDigest: stateDigest, Replica: e.cfg.ID}
	out.Broadcast(cp)
	e.recordCheckpoint(e.cfg.ID, cp, out)
}

func (e *Engine) recordCheckpoint(from types.ReplicaID, m *types.Checkpoint, out *consensus.Out) {
	if m.Seq <= e.lowWater {
		return
	}
	bySeq, ok := e.checkpoints[m.Seq]
	if !ok {
		bySeq = make(map[types.Digest]map[types.ReplicaID]bool)
		e.checkpoints[m.Seq] = bySeq
	}
	voters, ok := bySeq[m.StateDigest]
	if !ok {
		voters = make(map[types.ReplicaID]bool)
		bySeq[m.StateDigest] = voters
	}
	voters[from] = true
	if len(voters) < consensus.Quorum2f1(e.cfg.N) {
		return
	}
	if m.Seq > e.quorumStable {
		e.quorumStable = m.Seq
	}
	e.advanceLowWater(out)
}

// advanceLowWater garbage collects up to the newest quorum-stable
// checkpoint this replica has itself executed past.
func (e *Engine) advanceLowWater(out *consensus.Out) {
	target := e.quorumStable
	if e.nextExec < target {
		// Never garbage collect past local speculative execution: a
		// lagging replica keeps its state until it catches up.
		return
	}
	if target <= e.lowWater {
		return
	}
	e.lowWater = target
	e.stats.Checkpoints.Add(1)
	for seq := range e.histories {
		if seq < target { // keep the digest at the checkpoint itself
			delete(e.histories, seq)
		}
	}
	for seq := range e.checkpoints {
		if seq <= target {
			delete(e.checkpoints, seq)
		}
	}
	for seq := range e.pending {
		if seq <= target {
			delete(e.pending, seq)
		}
	}
	out.CheckpointStable(target, types.Digest{}, nil)
}

// OnViewTimeout implements consensus.Engine. Zyzzyva's view change is out
// of scope (see the package comment); the engine only counts the stall.
func (e *Engine) OnViewTimeout(types.View, *consensus.Out) {
	e.stats.Dropped.Add(1)
}

// Close implements consensus.Engine. The engine takes no reference on what
// it logs: only the simulator steps it, with requests built in memory.
func (e *Engine) Close() {}
