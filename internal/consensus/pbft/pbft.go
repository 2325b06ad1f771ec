// Package pbft implements the Practical Byzantine Fault Tolerance protocol
// (Castro & Liskov, OSDI '99) as a pure consensus engine: the three-phase
// pre-prepare/prepare/commit flow of paper Figure 3, Δ-interval
// checkpointing with garbage collection (Section 4.7), watermark-bounded
// out-of-order instance pipelining (Section 4.5), and view changes.
//
// The engine deliberately supports many simultaneously open instances:
// consensus for sequence numbers k and k+1 may overlap or even complete
// out of order (Example 4.1). PBFT does not require a request to embed the
// digest of its predecessor — 2f matching prepares already pin the order —
// which is exactly what makes the fabric's parallel pipeline sound.
// In-order execution is restored downstream by the execution layer.
//
// # Concurrency
//
// The engine implements consensus.ConcurrentStepper: independent
// instances may be stepped from many worker lanes at once. Internally the
// state splits into a small single-lock control core — view, watermarks,
// view-change state — plus two lock-striped side tables: the per-sequence
// instance table and the checkpoint vote table. Per-sequence message
// steps (pre-prepare, prepare, commit) take the control lock in read mode
// plus one stripe lock, so steps for different sequence numbers run fully
// in parallel; checkpoint votes record under the read lock too, escalating
// to the write lock only when a vote completes a quorum; proposals run
// entirely under the read lock, reserving sequence numbers by CAS (the
// Propose fast path). Control transitions (checkpoint stabilization, view
// changes) take the control lock in write mode, which excludes every
// in-flight step. Observers (View, IsPrimary, Stats) read atomic mirrors
// and never contend with consensus.
package pbft

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"resilientdb/internal/consensus"
	"resilientdb/internal/types"
)

// Config parameterizes a PBFT engine.
type Config struct {
	// ID is this replica's identifier.
	ID types.ReplicaID
	// N is the number of replicas; it must satisfy n ≥ 3f+1.
	N int
	// CheckpointInterval is Δ: a checkpoint is generated after every Δ
	// executed batches. The paper generates checkpoints infrequently,
	// once per 10K transactions (Section 5.1).
	CheckpointInterval uint64
	// WatermarkWindow bounds how far consensus may run ahead of the last
	// stable checkpoint (the out-of-order pipelining depth).
	WatermarkWindow uint64
	// VerifyDigests makes the engine recompute batch digests of incoming
	// pre-prepares. Drivers that already verify digests (accounting the
	// cost where it belongs, in the worker or batch threads) leave this
	// off; adversarial tests switch it on.
	VerifyDigests bool
	// StartView and StartSeq boot the engine mid-stream: a recovering
	// replica that seeded its state from a peer's stable tail joins the
	// cluster's current view with its watermarks anchored at StartSeq —
	// it treats StartSeq like a locally adopted stable checkpoint, so
	// consensus opens instances only for sequence numbers above it. Both
	// default to zero, the fresh-boot state.
	StartView types.View
	StartSeq  types.SeqNum
}

func (c *Config) fill() {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 100
	}
	if c.WatermarkWindow == 0 {
		c.WatermarkWindow = 4096
	}
}

// instance is the per-sequence-number consensus state.
type instance struct {
	view       types.View
	digest     types.Digest
	havePP     bool
	isNull     bool
	requests   []types.ClientRequest
	votes      []vote // one slot per replica, indexed by replica id
	sentCommit bool
	committed  bool
	released   bool // Execute action emitted
}

// vote is one replica's slot in an instance's vote table: the digest it
// prepared, the digest it committed, and the authenticator its commit
// arrived under. A replica gets one prepare and one commit per (view,
// seq) — PBFT's own rule — and the first of each is the one kept, so a
// replica that votes two digests is counted once. The digest is recorded
// with the vote rather than checked against the instance's because votes
// routinely arrive before the pre-prepare that names the authoritative
// digest; they count once it does.
type vote struct {
	prepare, commit     types.Digest
	prepared, committed bool
	// commitAuth is a copy — the envelope's authenticator is borrowed for
	// the step — held in authBuf whenever it fits, as every CMAC tag and
	// ED25519 signature does, so keeping it allocates nothing.
	commitAuth []byte
	authBuf    [types.InlineAuthSize]byte
}

func newInstance(n int) *instance {
	return &instance{votes: make([]vote, n)}
}

// revote clears an instance's votes so they can be collected again in a
// newer view; whether it was released stays.
func (in *instance) revote() {
	clear(in.votes)
	in.sentCommit = false
}

// recordPrepare and recordCommit keep from's first vote; the caller holds
// the instance's stripe lock, and OnMessage has turned away any from that
// is not one of the n replicas.
func (in *instance) recordPrepare(from types.ReplicaID, d types.Digest) {
	if v := &in.votes[from]; !v.prepared {
		v.prepare, v.prepared = d, true
	}
}

func (in *instance) recordCommit(from types.ReplicaID, d types.Digest, auth []byte) {
	if v := &in.votes[from]; !v.committed {
		v.commit, v.committed = d, true
		if len(auth) > 0 {
			v.commitAuth = append(v.authBuf[:0], auth...)
		}
	}
}

// prepareCount and commitCount count the votes that match the pre-prepare's
// digest; they mean nothing before havePP.
func (in *instance) prepareCount() int {
	n := 0
	for i := range in.votes {
		if in.votes[i].prepared && in.votes[i].prepare == in.digest {
			n++
		}
	}
	return n
}

func (in *instance) commitCount() int {
	n := 0
	for i := range in.votes {
		if in.votes[i].committed && in.votes[i].commit == in.digest {
			n++
		}
	}
	return n
}

// numStripes shards the instance table; with a watermark window of 4096
// open instances, 64 stripes keep the expected lock collision rate between
// two lanes stepping different sequence numbers under 2%.
const numStripes = 64 // must be a power of two

// stripe owns the instances whose sequence number hashes to it. The stripe
// lock only ever nests inside the control lock (in either mode), and no
// two stripe locks are ever held at once.
type stripe struct {
	mu        sync.Mutex
	instances map[types.SeqNum]*instance
}

// inst returns the instance for seq, creating it if needed. The caller
// holds the stripe lock.
func (s *stripe) inst(seq types.SeqNum, n int) *instance {
	in, ok := s.instances[seq]
	if !ok {
		in = newInstance(n)
		s.instances[seq] = in
	}
	return in
}

// ckptStripes shards the checkpoint vote table. Checkpoints are generated
// every Δ batches, so few sequence numbers are ever live at once; a small
// stripe count removes cross-checkpoint contention without bloat.
const ckptStripes = 8 // must be a power of two

// ckptTable is the checkpoint vote table (seq → digest → voters), striped
// by sequence number under its own locks so vote recording runs off the
// engine's control RWMutex. Lock order: a ckptTable stripe lock only ever
// nests inside the control lock (in either mode) and is never held
// together with an instance stripe lock.
type ckptTable struct {
	stripes [ckptStripes]struct {
		mu    sync.Mutex
		votes map[types.SeqNum]map[types.Digest]map[types.ReplicaID]bool
	}
}

func (c *ckptTable) stripeFor(seq types.SeqNum) *struct {
	mu    sync.Mutex
	votes map[types.SeqNum]map[types.Digest]map[types.ReplicaID]bool
} {
	return &c.stripes[uint64(seq)&(ckptStripes-1)]
}

// record adds one checkpoint vote and returns the resulting voter count
// for (seq, digest). Duplicate votes are idempotent.
func (c *ckptTable) record(seq types.SeqNum, digest types.Digest, from types.ReplicaID) int {
	s := c.stripeFor(seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.votes == nil {
		s.votes = make(map[types.SeqNum]map[types.Digest]map[types.ReplicaID]bool)
	}
	bySeq, ok := s.votes[seq]
	if !ok {
		bySeq = make(map[types.Digest]map[types.ReplicaID]bool)
		s.votes[seq] = bySeq
	}
	voters, ok := bySeq[digest]
	if !ok {
		voters = make(map[types.ReplicaID]bool)
		bySeq[digest] = voters
	}
	voters[from] = true
	return len(voters)
}

// prune garbage-collects votes at or below target.
func (c *ckptTable) prune(target types.SeqNum) {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for seq := range s.votes {
			if seq <= target {
				delete(s.votes, seq)
			}
		}
		s.mu.Unlock()
	}
}

// maxAhead bounds, per sender, the per-sequence messages kept for views this
// replica has not entered yet (see Engine.ahead). A sender past its share is
// dropped as before; it cannot push out anybody else's.
const maxAhead = 1024

// aheadMsg is one pre-prepare, prepare or commit of a view above the
// engine's own, kept until the engine enters that view.
type aheadMsg struct {
	from types.ReplicaID
	view types.View
	msg  types.Message
	auth []byte
}

// Engine is a PBFT replica state machine, safe for concurrent stepping of
// independent instances; see the package comment for the locking design.
type Engine struct {
	cfg Config
	f   int

	// mu is the control lock. Per-sequence steps hold it in read mode and
	// additionally lock the stripe owning their sequence number; control
	// transitions hold it in write mode, excluding every in-flight step.
	// Everything from here to `stripes` is control-core state: written
	// only under mu (write), readable under either mode.
	mu   sync.RWMutex
	view types.View

	// nextSeq is the last proposed sequence number (primary). Unlike the
	// rest of the control core it is an atomic: the Propose fast path
	// reserves sequence numbers by CAS under the *read* lock, so
	// batch-threads proposing concurrently never serialize on the control
	// write lock. View transitions and watermark advances store it under
	// the write lock, which excludes every CAS-ing reader.
	nextSeq  atomic.Uint64
	lowWater types.SeqNum // last locally-adopted stable checkpoint

	// executedSeq is the highest locally executed sequence number;
	// quorumStable the highest checkpoint with a 2f+1 quorum. The low
	// watermark advances to min(quorumStable, executedSeq): a lagging
	// replica never garbage-collects instances it has yet to execute,
	// which substitutes for full state transfer (see DESIGN.md).
	executedSeq  types.SeqNum
	quorumStable types.SeqNum

	// Checkpoint votes live in their own lock-striped table so that
	// recording a vote — the common case: most checkpoint messages do not
	// complete a quorum — runs under the control *read* lock, concurrent
	// with instance stepping. Only a vote that completes a quorum
	// escalates to the write lock to advance the watermark.
	ckpts ckptTable

	// View change state.
	inViewChange bool
	votedView    types.View
	viewChanges  map[types.View]map[types.ReplicaID]*types.ViewChange

	// ahead is the per-sequence traffic of views above this replica's own,
	// in arrival order, and aheadFrom how much of it each sender holds. A
	// backup votes in the new view the moment it has the NewView, and
	// nothing orders its votes behind the new primary's NewView on the way
	// to a third replica (different senders, different inboxes, different
	// lanes): without this, a replica whose NewView arrives last drops its
	// peers' prepares and commits for the re-proposed batches, nobody sends
	// them again, and it never executes past the view change. enterNewView's
	// callers replay what was kept for the view entered. Its own lock, taken
	// under the control lock in either mode and never with a stripe lock.
	aheadMu   sync.Mutex
	ahead     []aheadMsg
	aheadFrom []int

	// stripes is the lock-striped per-sequence instance table.
	stripes [numStripes]stripe

	// Lock-free observer mirrors, refreshed under the write lock whenever
	// the canonical fields change.
	viewA    atomic.Uint64
	primaryA atomic.Bool

	// stats are atomic so Stats() never takes a lock (observability must
	// not contend with consensus).
	stats consensus.AtomicEngineStats
}

var _ consensus.ConcurrentStepper = (*Engine)(nil)

// New creates a PBFT engine.
func New(cfg Config) (*Engine, error) {
	cfg.fill()
	if cfg.N < 4 {
		return nil, fmt.Errorf("pbft: need n ≥ 4 replicas, got %d", cfg.N)
	}
	if int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("pbft: replica id %d out of range for n=%d", cfg.ID, cfg.N)
	}
	e := &Engine{
		cfg:         cfg,
		f:           consensus.MaxFaults(cfg.N),
		viewChanges: make(map[types.View]map[types.ReplicaID]*types.ViewChange),
		aheadFrom:   make([]int, cfg.N),
	}
	for i := range e.stripes {
		e.stripes[i].instances = make(map[types.SeqNum]*instance)
	}
	// Mid-stream boot (recovery): StartSeq acts as the locally adopted
	// stable checkpoint, so the watermark window opens above it and the
	// primary's next proposal is StartSeq+1.
	e.view = cfg.StartView
	e.votedView = cfg.StartView
	e.lowWater = cfg.StartSeq
	e.executedSeq = cfg.StartSeq
	e.quorumStable = cfg.StartSeq
	e.nextSeq.Store(uint64(cfg.StartSeq))
	e.viewA.Store(uint64(cfg.StartView))
	e.primaryA.Store(consensus.PrimaryOf(cfg.StartView, cfg.N) == cfg.ID)
	return e, nil
}

// ConcurrentStepping implements consensus.ConcurrentStepper.
func (e *Engine) ConcurrentStepping() {}

// View implements consensus.Engine; it is lock-free.
func (e *Engine) View() types.View { return types.View(e.viewA.Load()) }

// IsPrimary implements consensus.Engine; it is lock-free.
func (e *Engine) IsPrimary() bool { return e.primaryA.Load() }

// isPrimaryLocked is the canonical primary check used inside locked
// sections (the atomic mirror may lag by a step during transitions).
func (e *Engine) isPrimaryLocked() bool {
	return consensus.PrimaryOf(e.view, e.cfg.N) == e.cfg.ID && !e.inViewChange
}

// refreshMirrors republishes the lock-free observer mirrors; the caller
// holds the write lock.
func (e *Engine) refreshMirrors() {
	e.viewA.Store(uint64(e.view))
	e.primaryA.Store(e.isPrimaryLocked())
}

// Stats implements consensus.Engine; it is lock-free.
func (e *Engine) Stats() consensus.EngineStats { return e.stats.Snapshot() }

// LastProposed implements consensus.ProposalHeader: the highest sequence
// number this engine has proposed (primary) or adopted from view-change
// and checkpoint sync. It is lock-free.
func (e *Engine) LastProposed() types.SeqNum { return types.SeqNum(e.nextSeq.Load()) }

// LowWatermark returns the last stable checkpoint sequence number.
func (e *Engine) LowWatermark() types.SeqNum {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lowWater
}

// OpenInstances returns the number of live consensus instances; tests use
// it to verify checkpoint garbage collection.
func (e *Engine) OpenInstances() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		n += len(s.instances)
		s.mu.Unlock()
	}
	return n
}

func (e *Engine) inWindow(seq types.SeqNum) bool {
	return seq > e.lowWater && uint64(seq) <= uint64(e.lowWater)+e.cfg.WatermarkWindow
}

func (e *Engine) stripeFor(seq types.SeqNum) *stripe {
	return &e.stripes[uint64(seq)&(numStripes-1)]
}

// Propose implements consensus.Engine. It assigns the next sequence number
// to the batch and broadcasts the pre-prepare. A nil return with no side
// effects means the engine refused (not primary, mid view change, or
// window full) and the caller should retry later.
//
// This is the fast path off the control write lock: when view and
// watermark state are unchanged — the steady state — the whole proposal
// runs under the read lock, reserving the sequence number by CAS, so
// concurrent batch-threads neither serialize on each other nor stall
// every in-flight instance step the way a write-lock acquisition would.
// View changes and watermark advances still exclude proposals entirely
// (they hold the write lock while mutating nextSeq).
func (e *Engine) Propose(reqs []types.ClientRequest) []consensus.Action {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.isPrimaryLocked() {
		return nil
	}
	var seq types.SeqNum
	for {
		cur := e.nextSeq.Load()
		seq = types.SeqNum(cur + 1)
		if !e.inWindow(seq) {
			return nil
		}
		if e.nextSeq.CompareAndSwap(cur, cur+1) {
			break // reserved; no return path below abandons the number
		}
	}
	e.stats.Proposed.Add(1)

	pp := &types.PrePrepare{
		View:     e.view,
		Seq:      seq,
		Digest:   types.BatchDigest(reqs),
		Requests: reqs,
	}
	s := e.stripeFor(seq)
	s.mu.Lock()
	in := s.inst(seq, e.cfg.N)
	in.view = e.view
	in.digest = pp.Digest
	in.havePP = true
	in.requests = reqs
	s.mu.Unlock()
	return []consensus.Action{consensus.Broadcast{Msg: pp}}
}

// OnMessage implements consensus.Engine. Per-sequence traffic
// (pre-prepare, prepare, commit) steps under the read lock so independent
// instances proceed in parallel; checkpoint and view-change traffic
// mutates the control core and steps exclusively.
func (e *Engine) OnMessage(from types.NodeID, msg types.Message, auth []byte) []consensus.Action {
	if !from.IsReplica() || int(from.Replica()) >= e.cfg.N {
		// Not one of the n replicas: it has no slot in any vote table.
		e.stats.Dropped.Add(1)
		return nil
	}
	rep := from.Replica()
	switch m := msg.(type) {
	case *types.PrePrepare:
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.onPrePrepare(rep, m)
	case *types.Prepare:
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.onPrepare(rep, m)
	case *types.Commit:
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.onCommit(rep, m, auth)
	case *types.Checkpoint:
		return e.onCheckpoint(rep, m)
	case *types.ViewChange:
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.onViewChange(rep, m)
	case *types.NewView:
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.onNewView(rep, m)
	default:
		e.stats.Dropped.Add(1)
		return nil
	}
}

// onPrePrepare runs with the control lock held in at least read mode (the
// new-view path re-enters it under the write lock).
func (e *Engine) onPrePrepare(from types.ReplicaID, m *types.PrePrepare) []consensus.Action {
	if m.View != e.view || e.inViewChange || !e.inWindow(m.Seq) {
		e.keepOrDrop(from, m.View, m, nil)
		return nil
	}
	if from != consensus.PrimaryOf(e.view, e.cfg.N) {
		e.stats.Dropped.Add(1)
		return []consensus.Action{consensus.Evidence{
			Culprit: from,
			Detail:  fmt.Sprintf("pre-prepare for view %d from non-primary %d", m.View, from),
		}}
	}
	if e.cfg.VerifyDigests && len(m.Requests) > 0 && types.BatchDigest(m.Requests) != m.Digest {
		e.stats.Dropped.Add(1)
		return []consensus.Action{consensus.Evidence{
			Culprit: from,
			Detail:  fmt.Sprintf("pre-prepare digest mismatch at seq %d", m.Seq),
		}}
	}

	s := e.stripeFor(m.Seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.inst(m.Seq, e.cfg.N)
	if in.havePP {
		if in.digest != m.Digest {
			// The primary proposed two different batches for one sequence
			// number: equivocation.
			return []consensus.Action{consensus.Evidence{
				Culprit: from,
				Detail:  fmt.Sprintf("equivocating pre-prepares at seq %d", m.Seq),
			}}
		}
		if in.view >= m.View {
			e.stats.Dropped.Add(1) // duplicate
			return nil
		}
		// A new view's primary re-proposed a batch this replica already
		// released in an older view: run the vote again in the new view,
		// so a replica that had not committed the batch can assemble its
		// quorum, without executing it twice (advance releases once).
		in.revote()
	}
	in.view = m.View
	in.digest = m.Digest
	in.havePP = true
	in.isNull = m.Digest == types.Digest{} && len(m.Requests) == 0
	in.requests = m.Requests

	var acts []consensus.Action
	if e.cfg.ID != consensus.PrimaryOf(e.view, e.cfg.N) {
		// Backups vote; the primary's pre-prepare stands as its prepare.
		p := &types.Prepare{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: e.cfg.ID}
		in.recordPrepare(e.cfg.ID, m.Digest)
		acts = append(acts, consensus.Broadcast{Msg: p})
	}
	return append(acts, e.advance(m.Seq, in)...)
}

func (e *Engine) onPrepare(from types.ReplicaID, m *types.Prepare) []consensus.Action {
	if m.View != e.view || e.inViewChange || !e.inWindow(m.Seq) {
		e.keepOrDrop(from, m.View, m, nil)
		return nil
	}
	if m.Replica != from {
		e.stats.Dropped.Add(1)
		return nil
	}
	s := e.stripeFor(m.Seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.inst(m.Seq, e.cfg.N)
	in.recordPrepare(from, m.Digest)
	return e.advance(m.Seq, in)
}

func (e *Engine) onCommit(from types.ReplicaID, m *types.Commit, auth []byte) []consensus.Action {
	if m.View != e.view || e.inViewChange || !e.inWindow(m.Seq) {
		e.keepOrDrop(from, m.View, m, auth)
		return nil
	}
	if m.Replica != from {
		e.stats.Dropped.Add(1)
		return nil
	}
	s := e.stripeFor(m.Seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.inst(m.Seq, e.cfg.N)
	in.recordCommit(from, m.Digest, auth)
	return e.advance(m.Seq, in)
}

// keepOrDrop disposes of a per-sequence message the engine cannot step now:
// one of a view above its own is kept for when it enters that view (within
// the sender's share), anything else is dropped — an older view's, or the
// current view's while this replica has voted to leave it. A kept vote and
// its authenticator are copies: both are borrowed for the step. The caller
// holds the control lock in either mode.
func (e *Engine) keepOrDrop(from types.ReplicaID, view types.View, msg types.Message, auth []byte) {
	if view > e.view {
		e.aheadMu.Lock()
		kept := e.aheadFrom[from] < maxAhead
		if kept {
			e.aheadFrom[from]++
			e.ahead = append(e.ahead, aheadMsg{from: from, view: view, msg: keptCopy(msg), auth: bytes.Clone(auth)})
		}
		e.aheadMu.Unlock()
		if kept {
			return
		}
	}
	e.stats.Dropped.Add(1)
}

// keptCopy returns a copy of a borrowed vote, and a pre-prepare — which
// the engine owns, requests and all — as it is.
func keptCopy(msg types.Message) types.Message {
	switch m := msg.(type) {
	case *types.Prepare:
		c := *m
		return &c
	case *types.Commit:
		c := *m
		return &c
	}
	return msg
}

// replayAhead steps, in arrival order, what was kept for the view just
// entered, and forgets what was kept for views below it. It runs under the
// write lock, so nothing is being kept meanwhile: a message of this view is
// either in here or arrives to find the view entered.
func (e *Engine) replayAhead() []consensus.Action {
	e.aheadMu.Lock()
	var due []aheadMsg
	later := e.ahead[:0]
	for _, a := range e.ahead {
		if a.view > e.view {
			later = append(later, a)
			continue
		}
		e.aheadFrom[a.from]--
		if a.view == e.view {
			due = append(due, a)
		}
	}
	clear(e.ahead[len(later):])
	e.ahead = later
	e.aheadMu.Unlock()

	var acts []consensus.Action
	for _, a := range due {
		switch m := a.msg.(type) {
		case *types.PrePrepare:
			acts = append(acts, e.onPrePrepare(a.from, m)...)
		case *types.Prepare:
			acts = append(acts, e.onPrepare(a.from, m)...)
		case *types.Commit:
			acts = append(acts, e.onCommit(a.from, m, a.auth)...)
		}
	}
	return acts
}

// advance fires the prepared→commit and committed→execute transitions of
// an instance whenever new state makes them possible. The caller holds the
// instance's stripe lock.
func (e *Engine) advance(seq types.SeqNum, in *instance) []consensus.Action {
	var acts []consensus.Action
	if !in.havePP {
		return nil
	}
	// Prepared: pre-prepare plus 2f prepares matching its digest.
	if !in.sentCommit && in.prepareCount() >= consensus.Quorum2f(e.cfg.N) {
		in.sentCommit = true
		c := &types.Commit{View: in.view, Seq: seq, Digest: in.digest, Replica: e.cfg.ID}
		// Record our own commit vote.
		in.recordCommit(e.cfg.ID, in.digest, nil)
		acts = append(acts, consensus.Broadcast{Msg: c})
	}
	// Committed: 2f+1 commits matching the pre-prepare digest.
	if in.sentCommit && !in.released && in.commitCount() >= consensus.Quorum2f1(e.cfg.N) {
		in.committed = true
		in.released = true
		e.stats.Executed.Add(1)
		acts = append(acts, consensus.Execute{
			Seq:      seq,
			View:     in.view,
			Digest:   in.digest,
			Requests: in.requests,
			Proof:    commitProof(in),
		})
	}
	return acts
}

// commitProof assembles the block's commit certificate from the recorded
// commit votes, in replica-id order — the order of the vote table (Section
// 4.6: the 2f+1 commit signatures replace the previous-block hash). The
// block outlives the instance, and a new view's revote clears the table
// under a queued block, so the authenticators are copied out: into one
// backing array for the whole certificate.
func commitProof(in *instance) []types.CommitSig {
	proof := make([]types.CommitSig, 0, in.commitCount())
	size := 0
	for id := range in.votes {
		if v := &in.votes[id]; v.committed && v.commit == in.digest {
			proof = append(proof, types.CommitSig{Replica: types.ReplicaID(id), Auth: v.commitAuth})
			size += len(v.commitAuth)
		}
	}
	if size == 0 {
		return proof
	}
	auths := make([]byte, 0, size)
	for i := range proof {
		if a := proof[i].Auth; a != nil {
			auths = append(auths, a...)
			proof[i].Auth = auths[len(auths)-len(a) : len(auths) : len(auths)]
		}
	}
	return proof
}

// OnExecuted implements consensus.Engine: after every Δ-th batch the
// replica broadcasts a checkpoint carrying its state digest.
func (e *Engine) OnExecuted(seq types.SeqNum, stateDigest types.Digest) []consensus.Action {
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq > e.executedSeq {
		e.executedSeq = seq
	}
	if uint64(seq)%e.cfg.CheckpointInterval != 0 {
		return e.advanceLowWater()
	}
	cp := &types.Checkpoint{Seq: seq, StateDigest: stateDigest, Replica: e.cfg.ID}
	acts := e.recordCheckpoint(e.cfg.ID, cp)
	return append([]consensus.Action{consensus.Broadcast{Msg: cp}}, acts...)
}

// onCheckpoint takes the locks itself: the common case — a vote that does
// not complete a quorum — records under the control read lock plus a vote
// stripe, fully concurrent with instance stepping and proposals. Only a
// quorum-completing vote escalates to the write lock.
func (e *Engine) onCheckpoint(from types.ReplicaID, m *types.Checkpoint) []consensus.Action {
	if m.Replica != from {
		e.stats.Dropped.Add(1)
		return nil
	}
	e.mu.RLock()
	stale := m.Seq <= e.lowWater
	quorum := false
	if !stale {
		quorum = e.ckpts.record(m.Seq, m.StateDigest, from) >= consensus.Quorum2f1(e.cfg.N)
	}
	e.mu.RUnlock()
	if stale || !quorum {
		return nil // already stable, or not yet a quorum
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Re-recording under the write lock is idempotent; a concurrent
	// stabilization of the same (or a newer) checkpoint makes the advance
	// below a no-op.
	return e.recordCheckpoint(from, m)
}

// recordCheckpoint runs under the write lock: record the vote and, on
// quorum, advance the low watermark. OnExecuted (which already holds the
// write lock for executedSeq) calls it directly for the local vote.
func (e *Engine) recordCheckpoint(from types.ReplicaID, m *types.Checkpoint) []consensus.Action {
	if m.Seq <= e.lowWater {
		return nil // already stable
	}
	if e.ckpts.record(m.Seq, m.StateDigest, from) < consensus.Quorum2f1(e.cfg.N) {
		return nil
	}
	if m.Seq > e.quorumStable {
		e.quorumStable = m.Seq
	}
	return e.advanceLowWater()
}

// advanceLowWater moves the low watermark to the newest quorum-stable
// checkpoint this replica has itself executed, and garbage collects
// everything at or below it (Section 4.7). The caller holds the write
// lock.
func (e *Engine) advanceLowWater() []consensus.Action {
	target := e.quorumStable
	if executedCk := types.SeqNum(uint64(e.executedSeq) / e.cfg.CheckpointInterval * e.cfg.CheckpointInterval); executedCk < target {
		// Quantize to checkpoint boundaries: never past local execution.
		target = executedCk
	}
	if target <= e.lowWater {
		return nil
	}
	e.lowWater = target
	e.stats.Checkpoints.Add(1)
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		for seq := range s.instances {
			if seq <= target {
				delete(s.instances, seq)
			}
		}
		s.mu.Unlock()
	}
	e.ckpts.prune(target)
	if types.SeqNum(e.nextSeq.Load()) < target {
		// A lagging former primary must not re-propose old numbers.
		e.nextSeq.Store(uint64(target))
	}
	return []consensus.Action{consensus.CheckpointStable{Seq: target}}
}

// ---- View change ----

// OnViewTimeout implements consensus.Engine: abandon the current view and
// vote to move to the next — unless the time-out is about a view this
// replica has left while the call waited for the lock. Acting on that one
// would vote the replica out of a view it has only just entered, alone, and
// a lone voter is never followed.
func (e *Engine) OnViewTimeout(view types.View) []consensus.Action {
	e.mu.Lock()
	defer e.mu.Unlock()
	if view != e.view {
		return nil
	}
	target := e.view + 1
	if e.votedView >= target {
		target = e.votedView + 1
	}
	return e.startViewChange(target)
}

// startViewChange runs under the write lock.
func (e *Engine) startViewChange(target types.View) []consensus.Action {
	e.inViewChange = true
	e.votedView = target
	e.refreshMirrors() // a primary mid view change stops leading
	vc := &types.ViewChange{
		NewView:   target,
		StableSeq: e.lowWater,
		Prepared:  e.preparedProofs(),
		Replica:   e.cfg.ID,
	}
	acts := []consensus.Action{consensus.Broadcast{Msg: vc}}
	return append(acts, e.recordViewChange(e.cfg.ID, vc)...)
}

// preparedProofs collects, for every instance prepared beyond the stable
// checkpoint, the pre-prepare metadata and its 2f prepare votes. It runs
// under the write lock.
func (e *Engine) preparedProofs() []types.PreparedProof {
	var proofs []types.PreparedProof
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		for seq, in := range s.instances {
			if !in.havePP || in.prepareCount() < consensus.Quorum2f(e.cfg.N) {
				continue
			}
			var votes []types.Prepare
			for id := range in.votes {
				if v := &in.votes[id]; v.prepared && v.prepare == in.digest {
					votes = append(votes, types.Prepare{View: in.view, Seq: seq, Digest: in.digest, Replica: types.ReplicaID(id)})
				}
			}
			proofs = append(proofs, types.PreparedProof{
				View: in.view, Seq: seq, Digest: in.digest, Prepares: votes,
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(proofs, func(i, j int) bool { return proofs[i].Seq < proofs[j].Seq })
	return proofs
}

func (e *Engine) onViewChange(from types.ReplicaID, m *types.ViewChange) []consensus.Action {
	if m.Replica != from || m.NewView <= e.view {
		e.stats.Dropped.Add(1)
		return nil
	}
	return e.recordViewChange(from, m)
}

// recordViewChange runs under the write lock.
func (e *Engine) recordViewChange(from types.ReplicaID, m *types.ViewChange) []consensus.Action {
	votes, ok := e.viewChanges[m.NewView]
	if !ok {
		votes = make(map[types.ReplicaID]*types.ViewChange)
		e.viewChanges[m.NewView] = votes
	}
	votes[from] = m

	var acts []consensus.Action
	// An honest replica that sees f+1 votes for a higher view joins the
	// view change even without its own timeout (standard PBFT liveness).
	if !e.inViewChange && len(votes) > e.f && m.NewView > e.votedView {
		acts = append(acts, e.startViewChange(m.NewView)...)
		votes = e.viewChanges[m.NewView]
	}
	if consensus.PrimaryOf(m.NewView, e.cfg.N) != e.cfg.ID {
		return acts
	}
	if len(votes) < consensus.Quorum2f1(e.cfg.N) || e.view >= m.NewView {
		return acts
	}
	// This replica leads the new view: build and broadcast the NewView.
	nv := e.buildNewView(m.NewView, votes)
	acts = append(acts, consensus.Broadcast{Msg: nv})
	acts = append(acts, e.enterNewView(nv)...)
	return append(acts, e.replayAhead()...)
}

// buildNewView assembles the proof of the view change plus re-proposals
// for every batch that prepared anywhere beyond the stable checkpoint.
// Gaps are filled with null requests so sequence numbers stay dense. It
// runs under the write lock.
func (e *Engine) buildNewView(v types.View, votes map[types.ReplicaID]*types.ViewChange) *types.NewView {
	var vcs []types.ViewChange
	maxStable := types.SeqNum(0)
	type chosen struct {
		view   types.View
		digest types.Digest
	}
	best := make(map[types.SeqNum]chosen)
	var maxSeq types.SeqNum

	ids := make([]types.ReplicaID, 0, len(votes))
	for id := range votes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		vc := votes[id]
		vcs = append(vcs, *vc)
		if vc.StableSeq > maxStable {
			maxStable = vc.StableSeq
		}
		for _, p := range vc.Prepared {
			if cur, ok := best[p.Seq]; !ok || p.View > cur.view {
				best[p.Seq] = chosen{view: p.View, digest: p.Digest}
			}
			if p.Seq > maxSeq {
				maxSeq = p.Seq
			}
		}
	}

	var pps []types.PrePrepare
	for seq := maxStable + 1; seq <= maxSeq; seq++ {
		pp := types.PrePrepare{View: v, Seq: seq}
		if c, ok := best[seq]; ok {
			pp.Digest = c.digest
			// Attach the payload when this replica has it cached so
			// backups missing the original pre-prepare can still execute.
			s := e.stripeFor(seq)
			s.mu.Lock()
			if in, ok := s.instances[seq]; ok && in.havePP && in.digest == c.digest {
				pp.Requests = in.requests
			}
			s.mu.Unlock()
		}
		pps = append(pps, pp)
	}
	return &types.NewView{View: v, ViewChanges: vcs, PrePrepares: pps}
}

func (e *Engine) onNewView(from types.ReplicaID, m *types.NewView) []consensus.Action {
	if m.View <= e.view || from != consensus.PrimaryOf(m.View, e.cfg.N) {
		e.stats.Dropped.Add(1)
		return nil
	}
	if len(m.ViewChanges) < consensus.Quorum2f1(e.cfg.N) {
		e.stats.Dropped.Add(1)
		return []consensus.Action{consensus.Evidence{
			Culprit: from,
			Detail:  fmt.Sprintf("new-view for %d with %d < quorum view-changes", m.View, len(m.ViewChanges)),
		}}
	}
	seen := make(map[types.ReplicaID]bool)
	for i := range m.ViewChanges {
		vc := &m.ViewChanges[i]
		if vc.NewView != m.View || seen[vc.Replica] {
			e.stats.Dropped.Add(1)
			return nil
		}
		seen[vc.Replica] = true
	}
	acts := e.enterNewView(m)
	// Backups re-run the prepare phase for every re-proposed batch.
	for i := range m.PrePrepares {
		pp := m.PrePrepares[i]
		acts = append(acts, e.onPrePrepare(from, &pp)...)
	}
	return append(acts, e.replayAhead()...)
}

// enterNewView installs the new view and resets per-view state. The new
// primary also installs its own re-proposals. It runs under the write
// lock.
func (e *Engine) enterNewView(nv *types.NewView) []consensus.Action {
	e.view = nv.View
	e.inViewChange = false
	e.stats.ViewChanges.Add(1)
	// Instances from older views are superseded by the re-proposals.
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		for seq, in := range s.instances {
			if in.view < nv.View && !in.released {
				delete(s.instances, seq)
			}
		}
		s.mu.Unlock()
	}
	delete(e.viewChanges, nv.View)

	acts := []consensus.Action{consensus.ViewChanged{View: nv.View}}
	if consensus.PrimaryOf(nv.View, e.cfg.N) == e.cfg.ID {
		maxSeq := e.lowWater
		for i := range nv.PrePrepares {
			pp := &nv.PrePrepares[i]
			if pp.Seq > maxSeq {
				maxSeq = pp.Seq
			}
			s := e.stripeFor(pp.Seq)
			s.mu.Lock()
			in := s.inst(pp.Seq, e.cfg.N)
			in.revote()
			in.view = nv.View
			in.digest = pp.Digest
			in.havePP = true
			in.isNull = pp.Digest == types.Digest{}
			in.requests = pp.Requests
			s.mu.Unlock()
		}
		if types.SeqNum(e.nextSeq.Load()) < maxSeq {
			e.nextSeq.Store(uint64(maxSeq))
		}
		if types.SeqNum(e.nextSeq.Load()) < e.lowWater {
			e.nextSeq.Store(uint64(e.lowWater))
		}
	}
	e.refreshMirrors()
	return acts
}
