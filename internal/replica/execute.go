package replica

import (
	"errors"
	"slices"
	"sync/atomic"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/queue"
	"resilientdb/internal/store"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// execItem carries one committed batch into the execution stage.
type execItem struct {
	act consensus.Execute
}

// shardOp is one typed operation of a committed batch, routed to one of the
// batch's partitions at its batch position. A write carries the value to
// apply; a read carries the slot in the batch's read-result buffer where its
// result lands. A scan carries its range bounds and where its rows go: with
// one partition the whole result into its slot, with several slot indexes
// the batch's frags, where this partition's fragment — the sorted rows of
// its own key partition inside [key, end] — waits for the coordinator's
// merge at retirement.
type shardOp struct {
	key   uint64
	value []byte
	slot  int
	read  bool
	scan  bool
	end   uint64
	limit uint32
}

// partition is one execute partition of an in-flight batch: its ops in
// batch order, and the memory its reads are answered in. Every value a read
// or scan of the partition returns is carved from vals, the value arena,
// and every scan row from rows, the row slab (the fragment merge carves
// from partition 0's); keys is a scan's key-chunk scratch. They are lent to
// the batch's read results until retirement has encoded every response, and
// keep their capacity from batch to batch, so steady-state reads allocate
// nothing. A buffer that grows leaves the results carved before it on the
// old array, which nothing writes again.
type partition struct {
	ops  []shardOp
	vals []byte
	rows []types.ScanRow
	keys []uint64
}

// carve returns the bytes appended to p.vals since at, clipped so an append
// to them cannot run into the next value.
func (p *partition) carve(at int) []byte {
	return p.vals[at:len(p.vals):len(p.vals)]
}

// carveRows returns the rows appended to p.rows since first, clipped; nil
// for none.
func (p *partition) carveRows(first int) []types.ScanRow {
	if len(p.rows) == first {
		return nil
	}
	return p.rows[first:len(p.rows):len(p.rows)]
}

// reset empties the partition for its next batch or reply, keeping every
// buffer's capacity. With poisonRecycled on, what the last one lent is
// overwritten with 0xDB first.
func (p *partition) reset() {
	if poisonRecycled.Load() {
		vals := p.vals[:cap(p.vals)]
		for i := range vals {
			vals[i] = poisonByte
		}
		rows := p.rows[:cap(p.rows)]
		for i := range rows {
			rows[i] = types.ScanRow{Key: poisonKey, Value: poisonValue}
		}
	}
	p.ops, p.vals, p.rows = p.ops[:0], p.vals[:0], p.rows[:0]
}

// poisonRecycled is a test hook: with it on, a partition's value arena and
// row slab are overwritten with 0xDB as they are recycled, so a read result
// kept past its batch's retirement reads poison at once instead of, now
// and then, a later batch's values. It costs one atomic load per recycle
// while off.
var poisonRecycled atomic.Bool

// What a recycled arena and row slab read once poisoned.
const (
	poisonByte = 0xDB
	poisonKey  = 0xDBDBDBDBDBDBDBDB
)

var poisonValue = []byte{poisonByte}

// readRange is one request's contiguous span of the batch's read-result
// buffer; slots are assigned in (request, transaction, op) order, so each
// request's reads are adjacent.
type readRange struct {
	start, n int
}

// pendingScan is one scan op of an in-flight batch fanned out over several
// partitions: each computes the sorted fragment of its own key partition
// into the batch's frags, one per partition from index frags on, and the
// coordinator merges the disjoint fragments into the batch's read-result
// slot at retirement. limit is the row cap after the merge; capping each
// fragment at limit too is lossless — a row a shard drops has ≥ limit
// smaller same-shard rows ahead of it, so it cannot be among the lowest
// limit rows overall.
type pendingScan struct {
	slot  int
	limit uint32
	frags int
}

// durableWait is what a shard worker leaves with the replica's durable
// waiter when a finished partition's writes are appended but not yet
// covered by an fsync: the ticket covering them and the batch whose
// barrier they hold up.
type durableWait struct {
	ticket store.Ticket
	batch  *inflightExec
}

// inflightExec is one committed batch mid-pipeline: staged into partitions,
// its barrier not yet waited out. parts holds each partition's ops in batch
// order and the memory its reads are answered in. The whole struct, buffers
// and all, belongs to the batch until retirement has answered every client,
// and is then recycled (via execFree) for a later batch; taking a partition
// off the barrier is a worker's last touch of the batch, so the buffers are
// never rebuilt while a worker still reads them. The barrier is done, made
// once with the struct and reused by every batch it carries: whoever lowers
// it sends one token — the stager once it has applied a single partition
// inline, or, for a fanned-out batch, whoever takes pending (the partitions
// still executing or awaiting durability) to zero — and the coordinator
// receives that token exactly once before it retires the batch, so the
// buffer of one is always empty again when the struct is recycled. The
// coordinator retires batches strictly in sequence order.
type inflightExec struct {
	act      consensus.Execute
	txnCount uint32
	pending  atomic.Int32
	done     chan struct{}
	parts    []partition
	// reads is the slot-indexed read-result buffer the partitions fill —
	// each only the slots its own ops carry, so workers never race on an
	// element; readRanges maps each request in the batch to its span. Both
	// stay empty for write-only batches. scans lists the fanned-out scan
	// slots, filled by the coordinator's fragment merge at retirement from
	// frags, where each partition leaves its fragment of each.
	reads      []types.ReadResult
	readRanges []readRange
	scans      []pendingScan
	frags      [][]types.ScanRow
}

// recycle empties a retired batch, drops the execute stage's reference on
// its requests and gives it back to execFree. It must not run before
// retirement has encoded the batch's last response: the read results those
// carry are lent from the batch's partitions, and the responses name the
// requests' clients.
func (r *Replica) recycle(b *inflightExec) {
	types.ReleaseRequests(b.act.Requests)
	for i := range b.parts {
		b.parts[i].reset()
	}
	clear(b.reads)
	b.act, b.txnCount = consensus.Execute{}, 0
	b.reads, b.readRanges, b.scans, b.frags = b.reads[:0], b.readRanges[:0], b.scans[:0], b.frags[:0]
	r.execFree <- b
}

// DedupSnapshot copies the execution-side dedup table: the last executed
// client sequence per client. A restarting replica seeds Bootstrap.LastExec
// from a live peer's snapshot so a retransmitted, already-acknowledged
// request is skipped on both — re-executing it would diverge store state
// from the ledger.
func (r *Replica) DedupSnapshot() map[types.ClientID]uint64 {
	r.dedupMu.Lock()
	defer r.dedupMu.Unlock()
	out := make(map[types.ClientID]uint64, len(r.lastExec))
	for c, seq := range r.lastExec {
		out[c] = seq
	}
	return out
}

// inlineExecute is the 0E execute stage: the thread that just offered a
// batch to the in-order queue drains every batch ready there, in sequence
// order, one thread at a time. Polling against an already-closed channel
// never blocks: a batch whose predecessor has not committed stays queued
// for the thread that offers the predecessor, and whoever offers last
// drains after its offer, so nothing is left behind.
func (r *Replica) inlineExecute() {
	r.inlineMu.Lock()
	defer r.inlineMu.Unlock()
	for {
		_, item, ok := r.execIn.TryNext()
		if !ok {
			return
		}
		t0 := time.Now()
		r.executeBatch(item.act)
		// In 0E mode execution time is the worker's burden.
		r.addBusy(StageWorker, time.Since(t0))
	}
}

// ---- Execute stage (Section 4.6) ----
//
// One route carries every committed batch from the in-order queue to the
// store and out, at every E and depth: stage (stageBatch) → apply
// (applyPartition) → barrier (every partition applied, then every write
// covered by a completed fsync) → retire (retireBatch, in sequence order).

// executeLoop is the coordinating execute-thread. It drains the in-order
// queue strictly by sequence number and keeps up to ExecPipelineDepth
// committed batches in flight: batch k+1 is staged before batch k's barrier
// is down. Per-shard FIFO queues are the conflict mechanism — a later
// batch's partition for shard s queues behind an earlier batch's job on the
// same shard, so conflicting (same-shard) key partitions stay in batch
// order, while shards the earlier batch left idle start on the new batch
// immediately. The coordinator never sits in a barrier while committed work
// waits unstaged: with room in the window it waits for the next batch or
// the oldest barrier, whichever comes first, so the next batch's appends
// reach the store while the fsync the oldest waits for is still running, and
// whatever lands during one fsync shares the next. At depth 1 the window
// holds one batch, which is the strict per-batch barrier:
// stage, wait, retire. Retirement (ledger append, checkpoint digest, client
// responses) always happens in sequence order, which is what keeps the
// ledger and checkpoint digests byte-identical at every E and depth.
func (r *Replica) executeLoop() {
	defer r.execWg.Done()
	inflight := make([]*inflightExec, 0, r.execDepth)
	// retireOldest retires the oldest batch in flight, first receiving its
	// barrier's token unless the caller already has.
	retireOldest := func(lowered bool) {
		b := inflight[0]
		n := copy(inflight, inflight[1:])
		inflight[n] = nil
		inflight = inflight[:n]
		if !lowered {
			<-b.done
		}
		t0 := time.Now()
		r.retireBatch(b)
		r.addBusy(StageExecute, time.Since(t0))
	}
	for {
		if len(inflight) >= r.execDepth {
			retireOldest(false)
			continue
		}
		var oldest <-chan struct{} // nil with nothing in flight: never ready
		if len(inflight) > 0 {
			oldest = inflight[0].done
		}
		_, item, woke := r.execIn.NextOr(oldest)
		if woke == queue.WokeClosed {
			break
		}
		if woke == queue.WokeAlt {
			// Retiring as soon as the barrier is down, rather than when the
			// window fills, is what bounds response latency at depth > 1.
			// NextOr received the barrier's token.
			retireOldest(true)
			continue
		}
		t0 := time.Now()
		inflight = append(inflight, r.stageBatch(item.act))
		r.addBusy(StageExecute, time.Since(t0))
	}
	// Shutdown: drain the in-flight window so every accepted batch still
	// reaches the ledger and its clients.
	for len(inflight) > 0 {
		retireOldest(false)
	}
}

// executeBatch takes one committed batch down the whole route on the calling
// thread — stage, barrier, retire back to back — for the 0E inline path.
func (r *Replica) executeBatch(act consensus.Execute) {
	b := r.stageBatch(act)
	<-b.done
	r.retireBatch(b)
}

// stageBatch runs the coordinator half of execution for one committed
// batch: per-client dedup, then every op of every surviving transaction
// into the partition owning its key (workload.ShardOf over the partition
// count — always partition 0 when there is one), at its batch position. It
// must be called in sequence order — dedup state advances here. Read results
// land in slot order — slots are assigned in (request, transaction, op)
// order as the coordinator walks the batch, and duplicate-skipped
// transactions contribute none — so the result layout is identical at every
// E.
//
// Ops within one transaction observe earlier ops' writes (read-your-writes):
// a key's write and read land in the same partition in batch order, and
// applyPartition flushes pending writes before answering a read. A scan
// spans partitions, so it is appended to every one at its batch position:
// each reaches the scan only after flushing exactly the writes that precede
// it in batch order, computes the sorted fragment of its own key partition,
// and the coordinator merges the disjoint fragments at retirement. With one
// partition the fragment is the whole result and goes straight to its slot.
//
// Once staged, the batch is applied, and how is the one choice on the route,
// read off the partition count: a single partition is applied, and waited
// durable, right here by the stager, which then lowers the barrier itself;
// several are handed to the shard workers, who lower it with the last.
// Either way the caller waits on done and retires.
func (r *Replica) stageBatch(act consensus.Execute) *inflightExec {
	b := <-r.execFree
	b.act = act
	n := len(b.parts)
	nextSlot := 0
	// Only the stager mutates lastExec; the lock is taken once per batch so
	// DedupSnapshot (the restart-bootstrap export) sees a consistent table.
	r.dedupMu.Lock()
	for i := range act.Requests {
		req := &act.Requests[i]
		b.txnCount += uint32(len(req.Txns))
		start := nextSlot
		last := r.lastExec[req.Client]
		for j := range req.Txns {
			txn := &req.Txns[j]
			if txn.ClientSeq <= last && last != 0 {
				continue // duplicate delivery (e.g. re-proposed after view change)
			}
			for k := range txn.Ops {
				op := &txn.Ops[k]
				switch op.Kind {
				case types.OpRead:
					p := &b.parts[workload.ShardOf(op.Key, n)]
					p.ops = append(p.ops, shardOp{key: op.Key, slot: nextSlot, read: true})
					nextSlot++
				case types.OpScan:
					so := shardOp{key: op.Key, end: op.EndKey, limit: op.Limit, slot: nextSlot, scan: true}
					if n == 1 {
						b.parts[0].ops = append(b.parts[0].ops, so)
					} else {
						first := len(b.frags)
						for sh := range b.parts {
							so.slot = first + sh
							b.frags = append(b.frags, nil)
							b.parts[sh].ops = append(b.parts[sh].ops, so)
						}
						b.scans = append(b.scans, pendingScan{slot: nextSlot, limit: op.Limit, frags: first})
					}
					nextSlot++
				default:
					// YCSB-style write application (Section 5.1).
					p := &b.parts[workload.ShardOf(op.Key, n)]
					p.ops = append(p.ops, shardOp{key: op.Key, value: op.Value})
				}
			}
			if txn.ClientSeq > last {
				last = txn.ClientSeq
			}
		}
		r.lastExec[req.Client] = last
		if nextSlot > start {
			// A request without reads keeps the zero range.
			if len(b.readRanges) == 0 {
				b.readRanges = slices.Grow(b.readRanges, len(act.Requests))[:len(act.Requests)]
				clear(b.readRanges)
			}
			b.readRanges[i] = readRange{start: start, n: nextSlot - start}
		}
	}
	r.dedupMu.Unlock()
	// Sized before any partition runs: they fill disjoint slots, every one
	// of them.
	b.reads = slices.Grow(b.reads, nextSlot)[:nextSlot]
	if n == 1 {
		var ticket store.Ticket
		r.inlineScratch, ticket = r.applyPartition(b, 0, r.inlineScratch)
		r.awaitDurable(ticket)
		b.done <- struct{}{}
		return b
	}
	// The coordinator's own count keeps the barrier up until every
	// partition is handed out, however fast the first worker finishes.
	b.pending.Store(1)
	for sh := range b.parts {
		if len(b.parts[sh].ops) == 0 {
			continue
		}
		b.pending.Add(1)
		r.shardQs[sh].Push(b, nil)
	}
	b.partDone()
	return b
}

// partDone takes one partition off the batch's barrier and lowers the
// barrier with the last.
func (b *inflightExec) partDone() {
	if b.pending.Add(-1) == 0 {
		b.done <- struct{}{}
	}
}

// applyPartition executes one partition of a committed batch against the
// store, in batch order; it is the only place the execute stage touches the
// store. Consecutive writes accumulate in scratch and are flushed in one
// store call (flushWrites) before any read or scan executes, so the read
// observes every earlier write to its keys: same-batch ones through the
// flush, earlier-batch ones because batches are applied in order (inline) or
// through the shard queue's FIFO (one key always maps to one shard) —
// appended is enough for that, durable is not needed, because the result
// leaves the replica only at in-order retirement. Each read's result lands
// in its assigned slot of the batch's shared result buffer, and a fanned-out
// scan's fragment in its own of the batch's frags, their bytes in the
// partition's arenas. It returns the emptied scratch for reuse and the
// ticket covering every write it appended (zero when the store has no disk
// to wait for): the caller decides who waits for it.
func (r *Replica) applyPartition(b *inflightExec, shard int, scratch []store.KV) ([]store.KV, store.Ticket) {
	var ticket store.Ticket
	p := &b.parts[shard]
	fanned := len(b.parts) > 1
	for i := range p.ops {
		op := &p.ops[i]
		if !op.read && !op.scan {
			scratch = append(scratch, store.KV{Key: op.key, Value: op.value})
			continue
		}
		ticket = r.flushWrites(scratch, ticket)
		scratch = scratch[:0]
		switch {
		case op.read:
			b.reads[op.slot] = r.readKey(p, op.key)
		case fanned:
			b.frags[op.slot] = r.scanRows(p, op.key, op.end, op.limit, shard)
		default:
			b.reads[op.slot] = types.ReadResult{Scan: true, Rows: r.scanRows(p, op.key, op.end, op.limit, -1)}
		}
	}
	ticket = r.flushWrites(scratch, ticket)
	return scratch[:0], ticket
}

// flushWrites appends a partition's accumulated writes to the store in
// one call, which makes them visible and returns a ticket — threaded
// through prev so one ticket always covers the whole partition — and nobody
// has waited for a disk yet. Lost writes diverge store state from the
// ledger, so every failed store call is counted loudly (StoreWriteFailures)
// instead of swallowed.
func (r *Replica) flushWrites(kvs []store.KV, prev store.Ticket) store.Ticket {
	if len(kvs) == 0 {
		return prev
	}
	prev, err := r.store.Append(kvs, prev)
	if err != nil {
		r.storeFailures.Add(1)
	}
	return prev
}

// awaitDurable blocks until a completed fsync covers the ticket's writes
// (at once for the zero ticket). A failed wait is counted once: the
// partition's writes are applied but not known durable.
func (r *Replica) awaitDurable(t store.Ticket) {
	if t == (store.Ticket{}) {
		return
	}
	if err := r.store.WaitDurable(t); err != nil {
		r.storeFailures.Add(1)
	}
}

// readKey answers one read against the store's current (last-applied)
// state, the value appended into p's arena. A missing key is a normal
// outcome; any other store error is the read-side analogue of a lost write
// and is counted loudly.
func (r *Replica) readKey(p *partition, key uint64) types.ReadResult {
	at := len(p.vals)
	var err error
	p.vals, err = r.store.AppendValue(p.vals, key)
	switch {
	case err == nil:
		return types.ReadResult{Found: true, Value: p.carve(at)}
	case errors.Is(err, store.ErrNotFound):
		return types.ReadResult{}
	default:
		r.storeFailures.Add(1)
		return types.ReadResult{}
	}
}

// scanRows answers one scan against the store's current state: the
// ascending rows of [start, end], truncated to limit, carved from p's row
// slab with their values in p's arena. With shard ≥ 0 only the keys that
// execution shard owns are kept (still capped at limit, which is lossless —
// see pendingScan): filtering to the shard's own partition is what makes a
// fragment a pure function of the shard's serially ordered write prefix even
// while other shards are mid-batch, since a key's writes only ever come from
// its owning shard. A shard resolves only the keys it owns. An inverted
// range or zero limit returns no rows (well-formed per types.Op); a failing
// store returns the rows read so far and counts a store failure. Rows grow
// incrementally, so a hostile limit cannot drive an allocation.
func (r *Replica) scanRows(p *partition, start, end uint64, limit uint32, shard int) []types.ScanRow {
	if limit == 0 || start > end {
		return nil
	}
	first := len(p.rows)
	r.scanOwned(p, start, end, limit, shard)
	return p.carveRows(first)
}

// scanChunk is how many keys scanOwned lists from the store at a time.
const scanChunk = 128

// scanOwned appends to p's row slab, ascending, the rows of [start, end]
// whose keys shard owns (every key for shard < 0), until limit rows: keys
// come from the store a chunk at a time, and only the kept ones are
// resolved, straight into p's arena.
func (r *Replica) scanOwned(p *partition, start, end uint64, limit uint32, shard int) {
	if p.keys == nil {
		p.keys = make([]uint64, 0, scanChunk)
	}
	first := len(p.rows)
	for cur := start; ; {
		keys, err := r.store.AppendKeys(p.keys[:0], cur, end)
		if err != nil {
			r.storeFailures.Add(1)
			return
		}
		if len(keys) == 0 {
			return
		}
		for _, k := range keys {
			if shard >= 0 && workload.ShardOf(k, r.execShards) != shard {
				continue
			}
			at := len(p.vals)
			if p.vals, err = r.store.AppendValue(p.vals, k); err != nil {
				if errors.Is(err, store.ErrNotFound) {
					continue
				}
				r.storeFailures.Add(1)
				return
			}
			p.rows = append(p.rows, types.ScanRow{Key: k, Value: p.carve(at)})
			if uint32(len(p.rows)-first) >= limit {
				return
			}
		}
		last := keys[len(keys)-1]
		if last >= end || last == ^uint64(0) {
			return
		}
		cur = last + 1
	}
}

// mergeScanFrags appends to dst the rows of a fanned-out scan, ascending
// and cut at limit. Each fragment is ascending and their key sets are
// disjoint (one key, one shard), so taking the smallest head each time is
// the merge, and it is deterministic. It consumes frags.
func mergeScanFrags(dst []types.ScanRow, frags [][]types.ScanRow, limit uint32) []types.ScanRow {
	for n := uint32(0); n < limit; n++ {
		lo := -1
		for i := range frags {
			if len(frags[i]) > 0 && (lo < 0 || frags[i][0].Key < frags[lo][0].Key) {
				lo = i
			}
		}
		if lo < 0 {
			break
		}
		dst = append(dst, frags[lo][0])
		frags[lo] = frags[lo][1:]
	}
	return dst
}

// retireBatch completes one staged batch in sequence order, once its
// barrier is down — every partition executed and, on a durable store,
// every write of the batch covered by a completed fsync: append the block,
// report the execution to the engine (driving checkpoints), and answer
// every client in the batch. Nothing about batch k leaves the replica
// before this point, and k retires after every earlier batch, which is
// the whole durability contract: reads and scans may have observed
// appended-not-yet-durable writes, but their results leave only here.
func (r *Replica) retireBatch(b *inflightExec) {
	defer r.execPending.Add(-1)
	// The batch's read results are lent from its partitions until the last
	// response below is encoded; only then may its buffers serve another.
	defer r.recycle(b)
	// The barrier passed, so every shard's scan fragments are final; merge
	// them into their result slots, carved from partition 0's row slab,
	// before responses are built.
	p, n := &b.parts[0], len(b.parts)
	for i := range b.scans {
		ps := &b.scans[i]
		first := len(p.rows)
		p.rows = mergeScanFrags(p.rows, b.frags[ps.frags:ps.frags+n], ps.limit)
		b.reads[ps.slot] = types.ReadResult{Scan: true, Rows: p.carveRows(first)}
	}
	act := b.act

	if _, err := r.ledger.Append(act.Seq, act.View, act.Digest, nil, b.txnCount); err != nil {
		// An append gap is a fatal pipeline bug; surface loudly in stats.
		r.evidence.Add(1)
		return
	}

	// At a checkpoint boundary the ledger closes the window and this
	// replica signs its vote, here on the execute-thread, once per Δ
	// batches.
	var digest types.Digest
	var sig types.Signature
	if uint64(act.Seq)%r.cfg.CheckpointInterval == 0 {
		var err error
		if digest, err = r.ledger.Checkpoint(act.Seq); err != nil {
			r.evidence.Add(1)
		}
		sig = r.cfg.Directory.SignCheckpoint(types.ReplicaNode(r.cfg.ID), act.Seq, digest)
		r.ckptSigs.Add(1)
	}
	r.engine.OnExecuted(act.Seq, digest, sig, &r.retireOut)
	r.handleActions(&r.retireOut)

	// The batch is applied and appended: this sequence number is now the
	// snapshot position locally served reads report.
	r.lastRetired.Store(uint64(act.Seq))

	// Respond to every client in the batch, attaching each request's span
	// of the read-result buffer. The busy gauge is sampled once per batch
	// — cheap enough for the hot path, fresh enough for admission control
	// — and stamped on every response so gateways see replica load on
	// traffic they already receive. It is advisory: outside Result and
	// outside the client's vote key, so replicas under different load
	// still form a quorum. sendTo marshals the response before it
	// returns, so one reused response serves every request.
	busy := r.busyGauge()
	resp := &r.retireResp
	for i := range act.Requests {
		req := &act.Requests[i]
		var reads []types.ReadResult
		if len(b.readRanges) > 0 {
			if rr := b.readRanges[i]; rr.n > 0 {
				reads = b.reads[rr.start : rr.start+rr.n]
			}
		}
		*resp = types.ClientResponse{
			View:        act.View,
			Seq:         act.Seq,
			Client:      req.Client,
			ClientSeq:   req.FirstSeq,
			Result:      types.ResponseDigest(act.Seq, req.Client, req.FirstSeq, reads),
			Replica:     r.cfg.ID,
			ReadResults: reads,
			Busy:        busy,
		}
		r.sendTo(types.ClientNode(req.Client), resp)
	}
	*resp = types.ClientResponse{} // let go of the batch's read results

	if n := len(b.reads); n > 0 {
		r.readsExecuted.Add(uint64(n))
	}
	r.txnsExecuted.Add(uint64(b.txnCount))
	r.batchesExecuted.Add(1)
	if r.cfg.DisableOutOfOrder {
		r.inflight.Add(-1)
	}
	r.pendingHint.Store(false)
	r.lastProgress.Store(time.Now().UnixNano())
	r.signalProgress()
}

// execShardLoop is one execution shard worker: it applies its partition of
// each fanned-out batch in batch order and never waits for a disk. A
// partition that appended writes leaves their ticket with the replica's
// durable waiter, which takes it off the batch barrier once an fsync covers
// it; one whose ticket is zero (no writes, or a store with no disk to wait
// for) comes off the barrier here.
func (r *Replica) execShardLoop(shard int) {
	defer r.shardWg.Done()
	var scratch []store.KV
	for b := range r.shardQs[shard].C() {
		var ticket store.Ticket
		t0 := time.Now()
		scratch, ticket = r.applyPartition(b, shard, scratch)
		if d := time.Since(t0); d > 0 {
			r.shardBusyNS[shard].Add(uint64(d))
		}
		if ticket == (store.Ticket{}) {
			b.partDone()
			continue
		}
		r.durableQ.Push(durableWait{ticket: ticket, batch: b}, nil)
	}
}

// durableWaitLoop is the replica's durable waiter: it does the waiting for
// a disk that the shard workers do not. One serves all of them: a batch
// retires only when every ticket of it is durable, and on the store's one log
// they arrive in nearly append order, so while it waits for one fsync those
// queued behind it are usually covered by the same one.
func (r *Replica) durableWaitLoop() {
	defer r.durableWg.Done()
	for w := range r.durableQ.C() {
		r.awaitDurable(w.ticket)
		w.batch.partDone()
	}
}
