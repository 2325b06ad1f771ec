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
// The replica steps the engine from one worker-thread, as in the paper
// (Figures 5–6); its batch-threads propose, its execute-thread reports
// executed batches and its checkpoint-thread records checkpoint votes
// alongside. Every entry point takes the engine's one mutex, so the engine
// sees its inputs in one total order. Observers (View, IsPrimary, Stats, LastProposed) read atomic
// mirrors and never contend with consensus.
package pbft

import (
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

// instance is the per-sequence-number consensus state. Its requests are
// held (types.RetainRequests) from the moment they are installed until the
// instance is pruned, superseded or the engine closes.
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
// prepared and the digest it committed. A replica gets one prepare and one
// commit per (view, seq) — PBFT's own rule — and the first of each is the
// one kept, so a replica that votes two digests is counted once. The digest
// is recorded with the vote rather than checked against the instance's
// because votes routinely arrive before the pre-prepare that names the
// authoritative digest; they count once it does.
type vote struct {
	prepare, commit     types.Digest
	prepared, committed bool
}

func newInstance(n int) *instance {
	return &instance{votes: make([]vote, n)}
}

// setRequests installs reqs as the instance's batch: it takes a reference
// on them and drops the one it held on the batch they replace.
func (in *instance) setRequests(reqs []types.ClientRequest) {
	types.RetainRequests(reqs)
	types.ReleaseRequests(in.requests)
	in.requests = reqs
}

// reset returns a pruned instance to the state newInstance gives it,
// keeping only its vote table's memory: no vote, digest or flag carries
// over, and the batch it held is no longer reachable from it. The caller
// has released that batch.
func (in *instance) reset() {
	clear(in.votes)
	*in = instance{votes: in.votes}
}

// revote clears an instance's votes so they can be collected again in a
// newer view; whether it was released stays.
func (in *instance) revote() {
	clear(in.votes)
	in.sentCommit = false
}

// recordPrepare and recordCommit keep from's first vote; OnMessage has
// turned away any from that is not one of the n replicas.
func (in *instance) recordPrepare(from types.ReplicaID, d types.Digest) {
	if v := &in.votes[from]; !v.prepared {
		v.prepare, v.prepared = d, true
	}
}

func (in *instance) recordCommit(from types.ReplicaID, d types.Digest) {
	if v := &in.votes[from]; !v.committed {
		v.commit, v.committed = d, true
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

// maxFree bounds the instance free list. A checkpoint prunes Δ instances
// and the next Δ sequence numbers open as many again: 1024 recycles all of
// them for Δ up to 1024 batches.
const maxFree = 1024

// ckptVote is one replica's checkpoint vote: the digest it signed and its
// signature, which the engine keeps as opaque bytes.
type ckptVote struct {
	digest types.Digest
	sig    types.Signature
	voted  bool
}

// ckptSlot is the vote table of one checkpoint: one vote per replica,
// indexed by replica id, the first of each kept. Once one digest has 2f+1
// of them, quorum is set and digest is that one.
type ckptSlot struct {
	votes  []ckptVote
	quorum bool
	digest types.Digest
}

// ckptTable is the checkpoint vote table, a slot per live checkpoint
// sequence number. Slots pruned at a stable checkpoint go on a free list
// and serve later checkpoints: recording a vote allocates nothing.
type ckptTable struct {
	n, q  int // replicas, and the votes a quorum needs
	slots map[types.SeqNum]*ckptSlot
	free  []*ckptSlot
}

// record keeps from's vote for the checkpoint at seq, unless from already
// voted there, and reports whether digest has a quorum of votes there.
func (c *ckptTable) record(seq types.SeqNum, from types.ReplicaID, digest types.Digest, sig *types.Signature) bool {
	s, ok := c.slots[seq]
	if !ok {
		if k := len(c.free) - 1; k >= 0 {
			s, c.free = c.free[k], c.free[:k]
		} else {
			s = &ckptSlot{votes: make([]ckptVote, c.n)}
		}
		c.slots[seq] = s
	}
	if v := &s.votes[from]; !v.voted {
		*v = ckptVote{digest: digest, sig: *sig, voted: true}
	}
	count := 0
	for i := range s.votes {
		if s.votes[i].voted && s.votes[i].digest == digest {
			count++
		}
	}
	if count >= c.q && !s.quorum {
		s.quorum, s.digest = true, digest
	}
	return count >= c.q
}

// counts reports whether from's vote for seq would still be recorded and
// could still matter: seq has no quorum yet and no vote from from.
func (c *ckptTable) counts(seq types.SeqNum, from types.ReplicaID) bool {
	s, ok := c.slots[seq]
	return !ok || !s.quorum && !s.votes[from].voted
}

// certificate returns the digest 2f+1 votes at seq agree on and their
// signatures in replica-id order, or a zero digest and nil when seq has no
// quorum. The signatures are copied out: the slot is recycled at prune.
func (c *ckptTable) certificate(seq types.SeqNum) (types.Digest, []types.CheckpointSig) {
	s, ok := c.slots[seq]
	if !ok || !s.quorum {
		return types.Digest{}, nil
	}
	cert := make([]types.CheckpointSig, 0, c.q)
	for i := range s.votes {
		if v := &s.votes[i]; v.voted && v.digest == s.digest {
			cert = append(cert, types.CheckpointSig{Replica: types.ReplicaID(i), Sig: v.sig})
		}
	}
	return s.digest, cert
}

// prune recycles the slots at or below target.
func (c *ckptTable) prune(target types.SeqNum) {
	for seq, s := range c.slots {
		if seq <= target {
			delete(c.slots, seq)
			clear(s.votes)
			*s = ckptSlot{votes: s.votes}
			c.free = append(c.free, s)
		}
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
}

// Engine is a PBFT replica state machine, safe for concurrent use; see the
// package comment.
type Engine struct {
	cfg Config
	f   int

	// mu guards everything below up to the observer mirrors.
	mu   sync.Mutex
	view types.View

	// nextSeq is the last proposed sequence number (primary). It is written
	// under mu and is an atomic only so that LastProposed reads it lock-free.
	nextSeq  atomic.Uint64
	lowWater types.SeqNum // last locally-adopted stable checkpoint

	// executedSeq is the highest locally executed sequence number;
	// quorumStable the highest checkpoint with a 2f+1 quorum. The low
	// watermark advances to min(quorumStable, executedSeq): a lagging
	// replica never garbage-collects instances it has yet to execute,
	// which substitutes for full state transfer (see DESIGN.md).
	executedSeq  types.SeqNum
	quorumStable types.SeqNum

	// ckpts holds the checkpoint votes.
	ckpts ckptTable

	// View change state.
	inViewChange bool
	votedView    types.View
	viewChanges  map[types.View]map[types.ReplicaID]*types.ViewChange

	// ahead is the per-sequence traffic of views above this replica's own,
	// in arrival order, and aheadFrom how much of it each sender holds. A
	// backup votes in the new view the moment it has the NewView, and
	// nothing orders its votes behind the new primary's NewView on the way
	// to a third replica (different senders, different inboxes): without
	// this, a replica whose NewView arrives last drops its peers' prepares
	// and commits for the re-proposed batches, nobody sends them again, and
	// it never executes past the view change. enterNewView's callers replay
	// what was kept for the view entered.
	ahead     []aheadMsg
	aheadFrom []int

	// instances is the per-sequence instance table; free holds pruned
	// instances for reuse, at most maxFree of them.
	instances map[types.SeqNum]*instance
	free      []*instance

	// Lock-free observer mirrors, refreshed under mu whenever the canonical
	// fields change.
	viewA    atomic.Uint64
	primaryA atomic.Bool

	// stats are atomic so Stats() never takes a lock (observability must
	// not contend with consensus).
	stats engineStats

	// recycleHook is a test hook run on every pruned instance before its
	// reset: tests fill it with garbage, so a field the reset misses shows.
	recycleHook func(*instance)
}

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
		ckpts:       ckptTable{n: cfg.N, q: consensus.Quorum2f1(cfg.N), slots: make(map[types.SeqNum]*ckptSlot)},
		viewChanges: make(map[types.View]map[types.ReplicaID]*types.ViewChange),
		aheadFrom:   make([]int, cfg.N),
		instances:   make(map[types.SeqNum]*instance),
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
// holds mu.
func (e *Engine) refreshMirrors() {
	e.viewA.Store(uint64(e.view))
	e.primaryA.Store(e.isPrimaryLocked())
}

// engineStats is the engine's counters, one atomic each: a step bumps
// them under mu, and Stats reads them without it.
type engineStats struct {
	Proposed    atomic.Uint64
	Executed    atomic.Uint64
	Checkpoints atomic.Uint64
	ViewChanges atomic.Uint64
	Dropped     atomic.Uint64
}

// Stats implements consensus.Engine; it is lock-free.
func (e *Engine) Stats() consensus.EngineStats {
	return consensus.EngineStats{
		Proposed:    e.stats.Proposed.Load(),
		Executed:    e.stats.Executed.Load(),
		Checkpoints: e.stats.Checkpoints.Load(),
		ViewChanges: e.stats.ViewChanges.Load(),
		Dropped:     e.stats.Dropped.Load(),
	}
}

// LastProposed implements consensus.Engine: the highest sequence number
// this engine has proposed (primary) or adopted from view-change and
// checkpoint sync. It is lock-free.
func (e *Engine) LastProposed() types.SeqNum { return types.SeqNum(e.nextSeq.Load()) }

// CountsCheckpoint implements consensus.Engine.
func (e *Engine) CountsCheckpoint(from types.ReplicaID, seq types.SeqNum) bool {
	if int(from) >= e.cfg.N {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return seq > e.lowWater && e.ckpts.counts(seq, from)
}

// LowWatermark returns the last stable checkpoint sequence number.
func (e *Engine) LowWatermark() types.SeqNum {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lowWater
}

// OpenInstances returns the number of live consensus instances; tests use
// it to verify checkpoint garbage collection.
func (e *Engine) OpenInstances() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.instances)
}

func (e *Engine) inWindow(seq types.SeqNum) bool {
	return seq > e.lowWater && uint64(seq) <= uint64(e.lowWater)+e.cfg.WatermarkWindow
}

// inst returns the instance for seq, opening it if needed — on a recycled
// instance when the free list has one.
func (e *Engine) inst(seq types.SeqNum) *instance {
	in, ok := e.instances[seq]
	if !ok {
		if k := len(e.free) - 1; k >= 0 {
			in = e.free[k]
			e.free[k] = nil
			e.free = e.free[:k]
		} else {
			in = newInstance(e.cfg.N)
		}
		e.instances[seq] = in
	}
	return in
}

// recycle releases a pruned instance's batch and resets the instance onto
// the free list, unless the list is full; recycleHook, when set, sees the
// instance first.
func (e *Engine) recycle(in *instance) {
	types.ReleaseRequests(in.requests)
	if len(e.free) == maxFree {
		return
	}
	if e.recycleHook != nil {
		e.recycleHook(in)
	}
	in.reset()
	e.free = append(e.free, in)
}

// Propose implements consensus.Engine. It assigns the next sequence number
// to the batch and broadcasts the pre-prepare. A false return with nothing
// appended means the engine refused (not primary, mid view change, or
// window full) and the caller should retry later. The batch digest is
// computed before the lock is taken, so batch-threads hash in parallel. An
// accepted batch is held until its instance is pruned; the caller keeps its
// own reference until the broadcast is encoded. The pre-prepare broadcast
// is lent, like the engine's votes.
func (e *Engine) Propose(reqs []types.ClientRequest, out *consensus.Out) bool {
	digest := types.BatchDigest(reqs)
	e.mu.Lock()
	defer e.mu.Unlock()
	seq := types.SeqNum(e.nextSeq.Load() + 1)
	if !e.isPrimaryLocked() || !e.inWindow(seq) {
		return false
	}
	e.nextSeq.Store(uint64(seq))
	e.stats.Proposed.Add(1)

	in := e.inst(seq)
	in.view = e.view
	in.digest = digest
	in.havePP = true
	in.setRequests(reqs)
	pp := types.AcquirePrePrepare()
	pp.View, pp.Seq, pp.Digest, pp.Requests = e.view, seq, digest, reqs
	out.Broadcast(pp)
	return true
}

// OnMessage implements consensus.Engine.
func (e *Engine) OnMessage(from types.NodeID, msg types.Message, out *consensus.Out) {
	if !from.IsReplica() || int(from.Replica()) >= e.cfg.N {
		// Not one of the n replicas: it has no slot in any vote table.
		e.stats.Dropped.Add(1)
		return
	}
	rep := from.Replica()
	e.mu.Lock()
	defer e.mu.Unlock()
	switch m := msg.(type) {
	case *types.PrePrepare:
		e.onPrePrepare(rep, m, out)
	case *types.Prepare:
		e.onPrepare(rep, m, out)
	case *types.Commit:
		e.onCommit(rep, m, out)
	case *types.Checkpoint:
		if m.Replica != rep {
			e.stats.Dropped.Add(1)
			return
		}
		e.recordCheckpoint(rep, m, out)
	case *types.ViewChange:
		e.onViewChange(rep, m, out)
	case *types.NewView:
		e.onNewView(rep, m, out)
	default:
		e.stats.Dropped.Add(1)
	}
}

// The step functions below, and everything they call, run under mu.

func (e *Engine) onPrePrepare(from types.ReplicaID, m *types.PrePrepare, out *consensus.Out) {
	if m.View != e.view || e.inViewChange || !e.inWindow(m.Seq) {
		e.keepOrDrop(from, m.View, m)
		return
	}
	if from != consensus.PrimaryOf(e.view, e.cfg.N) {
		e.stats.Dropped.Add(1)
		out.Evidence(from, fmt.Sprintf("pre-prepare for view %d from non-primary %d", m.View, from))
		return
	}

	in := e.inst(m.Seq)
	if in.havePP {
		if in.digest != m.Digest {
			// The primary proposed two different batches for one sequence
			// number: equivocation.
			out.Evidence(from, fmt.Sprintf("equivocating pre-prepares at seq %d", m.Seq))
			return
		}
		if in.view >= m.View {
			e.stats.Dropped.Add(1) // duplicate
			return
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
	in.setRequests(m.Requests)

	if e.cfg.ID != consensus.PrimaryOf(e.view, e.cfg.N) {
		// Backups vote; the primary's pre-prepare stands as its prepare.
		p := types.AcquireVote(types.MsgPrepare).(*types.Prepare)
		*p = types.Prepare{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: e.cfg.ID}
		in.recordPrepare(e.cfg.ID, m.Digest)
		out.Broadcast(p)
	}
	e.advance(m.Seq, in, out)
}

func (e *Engine) onPrepare(from types.ReplicaID, m *types.Prepare, out *consensus.Out) {
	if m.View != e.view || e.inViewChange || !e.inWindow(m.Seq) {
		e.keepOrDrop(from, m.View, m)
		return
	}
	if m.Replica != from {
		e.stats.Dropped.Add(1)
		return
	}
	in := e.inst(m.Seq)
	in.recordPrepare(from, m.Digest)
	e.advance(m.Seq, in, out)
}

func (e *Engine) onCommit(from types.ReplicaID, m *types.Commit, out *consensus.Out) {
	if m.View != e.view || e.inViewChange || !e.inWindow(m.Seq) {
		e.keepOrDrop(from, m.View, m)
		return
	}
	if m.Replica != from {
		e.stats.Dropped.Add(1)
		return
	}
	in := e.inst(m.Seq)
	in.recordCommit(from, m.Digest)
	e.advance(m.Seq, in, out)
}

// keepOrDrop disposes of a per-sequence message the engine cannot step now:
// one of a view above its own is kept for when it enters that view (within
// the sender's share), anything else is dropped — an older view's, or the
// current view's while this replica has voted to leave it. What is kept is
// a copy: the message is borrowed for the step.
func (e *Engine) keepOrDrop(from types.ReplicaID, view types.View, msg types.Message) {
	if view > e.view && e.aheadFrom[from] < maxAhead {
		e.aheadFrom[from]++
		e.ahead = append(e.ahead, aheadMsg{from: from, view: view, msg: keptCopy(msg)})
		return
	}
	e.stats.Dropped.Add(1)
}

// keptCopy returns a copy of a borrowed vote or pre-prepare; a pre-prepare's
// requests are not copied but held, until replayAhead steps or forgets it.
func keptCopy(msg types.Message) types.Message {
	switch m := msg.(type) {
	case *types.Prepare:
		c := *m
		return &c
	case *types.Commit:
		c := *m
		return &c
	case *types.PrePrepare:
		c := types.PrePrepare{View: m.View, Seq: m.Seq, Digest: m.Digest, Requests: m.Requests}
		types.RetainRequests(c.Requests)
		return &c
	}
	return msg
}

// forget releases what a kept message holds.
func forget(msg types.Message) {
	if pp, ok := msg.(*types.PrePrepare); ok {
		types.ReleaseRequests(pp.Requests)
	}
}

// replayAhead steps, in arrival order, what was kept for the view just
// entered, and forgets what was kept for views below it. Nothing is being
// kept meanwhile: a message of this view is either in here or arrives to
// find the view entered.
func (e *Engine) replayAhead(out *consensus.Out) {
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
		} else {
			forget(a.msg)
		}
	}
	clear(e.ahead[len(later):])
	e.ahead = later

	for _, a := range due {
		switch m := a.msg.(type) {
		case *types.PrePrepare:
			e.onPrePrepare(a.from, m, out)
		case *types.Prepare:
			e.onPrepare(a.from, m, out)
		case *types.Commit:
			e.onCommit(a.from, m, out)
		}
		forget(a.msg)
	}
}

// advance fires the prepared→commit and committed→execute transitions of
// an instance whenever new state makes them possible.
func (e *Engine) advance(seq types.SeqNum, in *instance, out *consensus.Out) {
	if !in.havePP {
		return
	}
	// Prepared: pre-prepare plus 2f prepares matching its digest.
	if !in.sentCommit && in.prepareCount() >= consensus.Quorum2f(e.cfg.N) {
		in.sentCommit = true
		c := types.AcquireVote(types.MsgCommit).(*types.Commit)
		*c = types.Commit{View: in.view, Seq: seq, Digest: in.digest, Replica: e.cfg.ID}
		// Record our own commit vote.
		in.recordCommit(e.cfg.ID, in.digest)
		out.Broadcast(c)
	}
	// Committed: 2f+1 commits matching the pre-prepare digest.
	if in.sentCommit && !in.released && in.commitCount() >= consensus.Quorum2f1(e.cfg.N) {
		in.committed = true
		in.released = true
		e.stats.Executed.Add(1)
		// The Execute carries a reference of its own, taken under the lock
		// so that no other step can prune the instance before it is taken:
		// the driver releases it when the batch retires.
		types.RetainRequests(in.requests)
		out.Execute(consensus.Execute{
			Seq:      seq,
			View:     in.view,
			Digest:   in.digest,
			Requests: in.requests,
		})
	}
}

// OnExecuted implements consensus.Engine: after every Δ-th batch the
// replica broadcasts a checkpoint carrying its checkpoint digest and its
// signature over both.
func (e *Engine) OnExecuted(seq types.SeqNum, stateDigest types.Digest, sig types.Signature, out *consensus.Out) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq > e.executedSeq {
		e.executedSeq = seq
	}
	if uint64(seq)%e.cfg.CheckpointInterval != 0 {
		e.advanceLowWater(out)
		return
	}
	cp := types.AcquireVote(types.MsgCheckpoint).(*types.Checkpoint)
	*cp = types.Checkpoint{Seq: seq, StateDigest: stateDigest, Replica: e.cfg.ID, Sig: sig}
	out.Broadcast(cp)
	e.recordCheckpoint(e.cfg.ID, cp, out)
}

// recordCheckpoint records a checkpoint vote — a peer's, or the local one
// OnExecuted makes — and, on quorum, advances the low watermark.
func (e *Engine) recordCheckpoint(from types.ReplicaID, m *types.Checkpoint, out *consensus.Out) {
	if m.Seq <= e.lowWater {
		return // already stable
	}
	if !e.ckpts.record(m.Seq, from, m.StateDigest, &m.Sig) {
		return
	}
	if m.Seq > e.quorumStable {
		e.quorumStable = m.Seq
	}
	e.advanceLowWater(out)
}

// advanceLowWater moves the low watermark to the newest quorum-stable
// checkpoint this replica has itself executed, reports it with its
// certificate, and garbage collects everything at or below it (Section
// 4.7): pruned instances and checkpoint slots go back to their free lists.
func (e *Engine) advanceLowWater(out *consensus.Out) {
	target := e.quorumStable
	if executedCk := types.SeqNum(uint64(e.executedSeq) / e.cfg.CheckpointInterval * e.cfg.CheckpointInterval); executedCk < target {
		// Quantize to checkpoint boundaries: never past local execution.
		target = executedCk
	}
	if target <= e.lowWater {
		return
	}
	e.lowWater = target
	e.stats.Checkpoints.Add(1)
	for seq, in := range e.instances {
		if seq <= target {
			delete(e.instances, seq)
			e.recycle(in)
		}
	}
	digest, cert := e.ckpts.certificate(target)
	e.ckpts.prune(target)
	if types.SeqNum(e.nextSeq.Load()) < target {
		// A lagging former primary must not re-propose old numbers.
		e.nextSeq.Store(uint64(target))
	}
	out.CheckpointStable(target, digest, cert)
}

// ---- View change ----

// OnViewTimeout implements consensus.Engine: abandon the current view and
// vote to move to the next — unless the time-out is about a view this
// replica has left while the call waited for the lock. Acting on that one
// would vote the replica out of a view it has only just entered, alone, and
// a lone voter is never followed.
func (e *Engine) OnViewTimeout(view types.View, out *consensus.Out) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if view != e.view {
		return
	}
	target := e.view + 1
	if e.votedView >= target {
		target = e.votedView + 1
	}
	e.startViewChange(target, out)
}

func (e *Engine) startViewChange(target types.View, out *consensus.Out) {
	e.inViewChange = true
	e.votedView = target
	e.refreshMirrors() // a primary mid view change stops leading
	vc := &types.ViewChange{
		NewView:   target,
		StableSeq: e.lowWater,
		Prepared:  e.preparedProofs(),
		Replica:   e.cfg.ID,
	}
	out.Broadcast(vc)
	e.recordViewChange(e.cfg.ID, vc, out)
}

// preparedProofs collects, for every instance prepared beyond the stable
// checkpoint, the pre-prepare metadata and its 2f prepare votes.
func (e *Engine) preparedProofs() []types.PreparedProof {
	var proofs []types.PreparedProof
	for seq, in := range e.instances {
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
	sort.Slice(proofs, func(i, j int) bool { return proofs[i].Seq < proofs[j].Seq })
	return proofs
}

func (e *Engine) onViewChange(from types.ReplicaID, m *types.ViewChange, out *consensus.Out) {
	if m.Replica != from || m.NewView <= e.view {
		e.stats.Dropped.Add(1)
		return
	}
	e.recordViewChange(from, m, out)
}

func (e *Engine) recordViewChange(from types.ReplicaID, m *types.ViewChange, out *consensus.Out) {
	votes, ok := e.viewChanges[m.NewView]
	if !ok {
		votes = make(map[types.ReplicaID]*types.ViewChange)
		e.viewChanges[m.NewView] = votes
	}
	votes[from] = m

	// An honest replica that sees f+1 votes for a higher view joins the
	// view change even without its own timeout (standard PBFT liveness).
	if !e.inViewChange && len(votes) > e.f && m.NewView > e.votedView {
		e.startViewChange(m.NewView, out)
		votes = e.viewChanges[m.NewView]
	}
	if consensus.PrimaryOf(m.NewView, e.cfg.N) != e.cfg.ID {
		return
	}
	if len(votes) < consensus.Quorum2f1(e.cfg.N) || e.view >= m.NewView {
		return
	}
	// This replica leads the new view: build and broadcast the NewView.
	nv := e.buildNewView(m.NewView, votes)
	out.Broadcast(nv)
	e.enterNewView(nv, out)
	e.replayAhead(out)
}

// buildNewView assembles the proof of the view change plus re-proposals
// for every batch that prepared anywhere beyond the stable checkpoint.
// Gaps are filled with null requests so sequence numbers stay dense.
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
			// It is a copy: the NewView is encoded after the lock is let go,
			// when a checkpoint may already have pruned the instance.
			if in, ok := e.instances[seq]; ok && in.havePP && in.digest == c.digest {
				pp.Requests = types.CloneRequests(in.requests)
			}
		}
		pps = append(pps, pp)
	}
	return &types.NewView{View: v, ViewChanges: vcs, PrePrepares: pps}
}

func (e *Engine) onNewView(from types.ReplicaID, m *types.NewView, out *consensus.Out) {
	if m.View <= e.view || from != consensus.PrimaryOf(m.View, e.cfg.N) {
		e.stats.Dropped.Add(1)
		return
	}
	if len(m.ViewChanges) < consensus.Quorum2f1(e.cfg.N) {
		e.stats.Dropped.Add(1)
		out.Evidence(from, fmt.Sprintf("new-view for %d with %d < quorum view-changes", m.View, len(m.ViewChanges)))
		return
	}
	seen := make(map[types.ReplicaID]bool)
	for i := range m.ViewChanges {
		vc := &m.ViewChanges[i]
		if vc.NewView != m.View || seen[vc.Replica] {
			e.stats.Dropped.Add(1)
			return
		}
		seen[vc.Replica] = true
	}
	e.enterNewView(m, out)
	// Backups re-run the prepare phase for every re-proposed batch.
	for i := range m.PrePrepares {
		pp := m.PrePrepares[i]
		e.onPrePrepare(from, &pp, out)
	}
	e.replayAhead(out)
}

// enterNewView installs the new view and resets per-view state. The new
// primary also installs its own re-proposals.
func (e *Engine) enterNewView(nv *types.NewView, out *consensus.Out) {
	e.view = nv.View
	e.inViewChange = false
	e.stats.ViewChanges.Add(1)
	// Instances from older views are superseded by the re-proposals.
	for seq, in := range e.instances {
		if in.view < nv.View && !in.released {
			delete(e.instances, seq)
			e.recycle(in)
		}
	}
	delete(e.viewChanges, nv.View)

	out.ViewChanged(nv.View)
	if consensus.PrimaryOf(nv.View, e.cfg.N) == e.cfg.ID {
		maxSeq := e.lowWater
		for i := range nv.PrePrepares {
			pp := &nv.PrePrepares[i]
			if pp.Seq > maxSeq {
				maxSeq = pp.Seq
			}
			in := e.inst(pp.Seq)
			in.revote()
			in.view = nv.View
			in.digest = pp.Digest
			in.havePP = true
			in.isNull = pp.Digest == types.Digest{}
			in.setRequests(pp.Requests)
		}
		if types.SeqNum(e.nextSeq.Load()) < maxSeq {
			e.nextSeq.Store(uint64(maxSeq))
		}
		if types.SeqNum(e.nextSeq.Load()) < e.lowWater {
			e.nextSeq.Store(uint64(e.lowWater))
		}
	}
	e.refreshMirrors()
}

// Close implements consensus.Engine: it releases every batch the engine
// holds, its instances' and the pre-prepares it kept for a view it had not
// entered. The references its Executes carried are the driver's.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for seq, in := range e.instances {
		delete(e.instances, seq)
		types.ReleaseRequests(in.requests)
	}
	for _, a := range e.ahead {
		forget(a.msg)
	}
	clear(e.ahead)
	e.ahead = e.ahead[:0]
	clear(e.aheadFrom)
}
