package sim

import (
	"resilientdb/internal/consensus"
	"resilientdb/internal/consensus/pbft"
	"resilientdb/internal/types"
)

// simReplica drives one protocol engine on a simulated host with the
// Figure 6 thread layout: the PBFT engine replicas run, or the model of
// Zyzzyva (zyz; engine is nil then). The simulator runs no view change, so
// replica 0 leads throughout.
type simReplica struct {
	r      *run
	id     types.ReplicaID
	host   *Host
	engine consensus.Engine
	zyz    *zyzzyvaReplica
	down   bool

	// engineOut takes every engine step's outputs: the event loop runs one
	// callback at a time and handleActions only schedules jobs, so no step
	// begins while another's outputs are being handled. The votes engines
	// lend through it are kept, not given back: a broadcast vote travels to
	// every peer by pointer.
	engineOut consensus.Out
	// zyzOut takes the Zyzzyva model's outputs the same way.
	zyzOut actions

	inputC *Thread
	inputR []*Thread
	batch  []*Thread
	worker *Thread
	exec   *Thread
	ckpt   *Thread
	out    []*Thread

	// Primary batching state: requests accumulated from the input-thread
	// until a batch is full (the common queue of Section 4.3).
	pendReqs []types.ClientRequest
	pendTxns int
	rrBatch  int
	rrInput  int
	rrOut    int

	// Sequential-consensus ablation gate (Section 4.5): carved batches
	// wait here until the previous batch finishes execution.
	gateQ    [][]types.ClientRequest
	gateBusy bool
	stateDig types.Digest
	execNext uint64
	execBuf  map[uint64]consensus.Execute
}

func newSimReplica(r *run, id types.ReplicaID) (*simReplica, error) {
	host := NewHost(r.sim, r.cfg.Cores, NewNIC(r.sim, r.costs.NICBandwidth))
	host.CtxSwitch = r.costs.CtxSwitch
	sr := &simReplica{
		r:       r,
		id:      id,
		host:    host,
		execBuf: make(map[uint64]consensus.Execute),
	}
	if r.cfg.Protocol == Zyzzyva {
		sr.zyz = newZyzzyvaReplica(id, r.cfg.Replicas, r.cfg.CheckpointInterval)
	} else {
		engine, err := pbft.New(pbft.Config{
			ID:                 id,
			N:                  r.cfg.Replicas,
			CheckpointInterval: r.cfg.CheckpointInterval,
			WatermarkWindow:    1 << 20,
		})
		if err != nil {
			return nil, err
		}
		sr.engine = engine
	}
	sr.execNext = 1
	sr.inputC = host.NewThread("input-client")
	for i := 0; i < replicaInputThreads; i++ {
		sr.inputR = append(sr.inputR, host.NewThread("input-replica"))
	}
	for i := 0; i < r.cfg.BatchThreads; i++ {
		sr.batch = append(sr.batch, host.NewThread(threadName("batch", i)))
	}
	sr.worker = host.NewThread("worker")
	if r.cfg.ExecuteThreads > 0 {
		sr.exec = host.NewThread("execute")
	}
	sr.ckpt = host.NewThread("checkpoint")
	for i := 0; i < outputThreads; i++ {
		sr.out = append(sr.out, host.NewThread("output"))
	}
	return sr, nil
}

func threadName(base string, i int) string {
	return base + "-" + string(rune('1'+i))
}

// deliver is the NIC completion callback: the message lands on an
// input-thread.
func (sr *simReplica) deliver(from types.NodeID, msg any, size int) {
	if sr.down {
		return
	}
	in := sr.inputC
	if from.IsReplica() {
		in = sr.inputR[sr.rrInput%len(sr.inputR)]
		sr.rrInput++
	}
	sr.host.Submit(in, sr.r.costs.InputPerMsg, func() { sr.route(from, msg) })
}

// route runs at input-thread completion: classify and hand the message to
// the right stage.
func (sr *simReplica) route(from types.NodeID, msg any) {
	switch m := msg.(type) {
	case *types.ClientRequest:
		sr.onClientRequest(m)
	case *types.Checkpoint:
		sr.host.Submit(sr.ckpt, sr.r.costs.WorkerPerMsg+sr.r.costs.replicaVerify(sr.r.cfg.Scheme), func() {
			sr.applyEngine(sr.ckpt, from, m)
		})
	case *commitCert:
		// Zyzzyva slow path: client-signed, verified on the worker.
		sr.host.Submit(sr.worker, sr.r.costs.WorkerPerMsg+sr.r.costs.clientVerify(sr.r.cfg.Scheme), func() {
			sr.applyEngine(sr.worker, from, m)
		})
	default:
		cost := sr.r.costs.WorkerPerMsg + sr.r.costs.replicaVerify(sr.r.cfg.Scheme)
		// Proposals additionally pay the batch-digest hash at the worker
		// (Section 4.4).
		switch msg.(type) {
		case *types.PrePrepare, *orderedRequest:
			cost += sr.r.costs.hash(sr.r.proposeSize)
		}
		sr.host.Submit(sr.worker, cost, func() {
			sr.applyEngine(sr.worker, from, m)
		})
	}
}

// onClientRequest accumulates requests at the primary until a batch is
// full, then dispatches batch assembly to a batch-thread (or the worker in
// 0B mode).
func (sr *simReplica) onClientRequest(req *types.ClientRequest) {
	if sr.id != 0 {
		return // backups ignore direct client traffic (no view changes in sim)
	}
	sr.pendReqs = append(sr.pendReqs, *req)
	sr.pendTxns += len(req.Txns)
	if sr.pendTxns < sr.r.cfg.BatchSize {
		return
	}
	reqs := sr.pendReqs
	sr.pendReqs = nil
	sr.pendTxns = 0
	if sr.r.cfg.DisableOutOfOrder {
		sr.gateQ = append(sr.gateQ, reqs)
		sr.pumpGate()
		return
	}
	sr.dispatchBatch(reqs)
}

// pumpGate releases one batch at a time in the sequential ablation.
func (sr *simReplica) pumpGate() {
	if sr.gateBusy || len(sr.gateQ) == 0 {
		return
	}
	reqs := sr.gateQ[0]
	sr.gateQ = sr.gateQ[1:]
	sr.gateBusy = true
	sr.dispatchBatch(reqs)
}

// dispatchBatch bills batch assembly on the least-loaded batch-thread:
// client signature verification, per-request and per-operation assembly,
// and the single batch digest (Section 4.3).
func (sr *simReplica) dispatchBatch(reqs []types.ClientRequest) {
	cost := Time(0)
	ops := 0
	for i := range reqs {
		ops += len(reqs[i].Txns) * sr.r.cfg.OpsPerTxn
	}
	cost += Time(len(reqs)) * (sr.r.costs.clientVerify(sr.r.cfg.Scheme) + sr.r.costs.BatchPerReq)
	cost += Time(ops) * sr.r.costs.BatchPerOp
	cost += sr.r.costs.hash(sr.r.proposeSize)

	t := sr.worker
	if len(sr.batch) > 0 {
		t = sr.batch[sr.rrBatch%len(sr.batch)]
		sr.rrBatch++
		// Prefer an idle batch-thread, approximating the one shared
		// queue where any free thread consumes the next batch.
		for _, cand := range sr.batch {
			if cand.QueueLen() == 0 && !cand.running {
				t = cand
				break
			}
		}
	}
	sr.host.Submit(t, cost, func() { sr.propose(t, reqs) })
}

// propose drives engine.Propose, retrying when the watermark window is
// full.
func (sr *simReplica) propose(t *Thread, reqs []types.ClientRequest) {
	var ok bool
	if sr.zyz != nil {
		ok = sr.zyz.propose(reqs, &sr.zyzOut)
	} else {
		ok = sr.engine.Propose(reqs, &sr.engineOut)
	}
	if !ok {
		sr.r.sim.After(100*Microsecond, func() { sr.propose(t, reqs) })
		return
	}
	sr.handleActions(t)
}

// applyEngine feeds a verified message to the engine on thread t.
func (sr *simReplica) applyEngine(t *Thread, from types.NodeID, msg any) {
	if sr.zyz != nil {
		sr.zyz.onMessage(from, msg, &sr.zyzOut)
	} else {
		sr.engine.OnMessage(from, msg.(types.Message), &sr.engineOut)
	}
	sr.handleActions(t)
}

// handleActions interprets the outputs of the step just taken and resets
// sr.engineOut and sr.zyzOut. Signing is billed as a follow-up job on the
// producing thread (the paper assigns message creation and signing to the
// thread that generates the message).
func (sr *simReplica) handleActions(t *Thread) {
	outs := sr.engineOut.Outputs()
	for i := range outs {
		switch o := &outs[i]; o.Kind {
		case consensus.KindBroadcast:
			sr.signAndBroadcast(t, o.Broadcast.Msg)
		case consensus.KindSend:
			sr.signAndSend(t, o.Send.To, o.Send.Msg)
		case consensus.KindExecute:
			sr.enqueueExecute(o.Execute)
		case consensus.KindCheckpointStable, consensus.KindViewChanged, consensus.KindEvidence:
			// Pruning is free; view changes and evidence do not occur in
			// the simulated fault-free and crash-only scenarios.
		}
	}
	sr.engineOut.Reset()
	for _, a := range sr.zyzOut {
		switch a.kind {
		case consensus.KindBroadcast:
			sr.signAndBroadcast(t, a.msg)
		case consensus.KindSend:
			sr.signAndSend(t, a.to, a.msg)
		case consensus.KindExecute:
			sr.enqueueExecute(a.exec)
		}
	}
	clear(sr.zyzOut)
	sr.zyzOut = sr.zyzOut[:0]
}

func (sr *simReplica) msgSize(msg any) int {
	switch msg.(type) {
	case *types.PrePrepare, *orderedRequest:
		return sr.r.proposeSize
	case *types.ClientResponse, *specResponse, *localCommit:
		return sr.r.respSize
	default:
		return sr.r.voteSize
	}
}

// signAndBroadcast bills one signing job, then hands one envelope per
// destination to the output-threads. Under MACs the signing job costs one
// MAC per destination (the MAC-vector of Section 3).
func (sr *simReplica) signAndBroadcast(t *Thread, msg any) {
	signCost, perDest := sr.r.costs.replicaSign(sr.r.cfg.Scheme)
	targets := sr.r.cfg.Replicas - 1
	cost := signCost
	if perDest {
		cost = signCost * Time(targets)
	}
	sr.host.Submit(t, cost, func() {
		for i := 0; i < sr.r.cfg.Replicas; i++ {
			if types.ReplicaID(i) == sr.id {
				continue
			}
			sr.transmit(types.ReplicaNode(types.ReplicaID(i)), msg)
		}
	})
}

func (sr *simReplica) signAndSend(t *Thread, to types.NodeID, msg any) {
	signCost, _ := sr.r.costs.replicaSign(sr.r.cfg.Scheme)
	sr.host.Submit(t, signCost, func() { sr.transmit(to, msg) })
}

// transmit hands an envelope to an output-thread, which pays its handling
// cost and serializes onto the NIC.
func (sr *simReplica) transmit(to types.NodeID, msg any) {
	out := sr.out[sr.rrOut%len(sr.out)]
	sr.rrOut++
	size := sr.msgSize(msg)
	sr.host.Submit(out, sr.r.costs.OutputPerMsg, func() {
		sr.host.NIC.Send(size, sr.r.costs.LinkLatency, func() {
			sr.r.deliverTo(types.ReplicaNode(sr.id), to, msg, size)
		})
	})
}

// enqueueExecute reorders committed batches into sequence order and runs
// them on the execute-thread (or the worker in 0E mode) — Section 4.6.
func (sr *simReplica) enqueueExecute(act consensus.Execute) {
	sr.execBuf[uint64(act.Seq)] = act
	for {
		next, ok := sr.execBuf[sr.execNext]
		if !ok {
			return
		}
		delete(sr.execBuf, sr.execNext)
		sr.execNext++
		sr.runExecute(next)
	}
}

func (sr *simReplica) runExecute(act consensus.Execute) {
	t := sr.exec
	if t == nil {
		t = sr.worker
	}
	ops := 0
	for i := range act.Requests {
		ops += len(act.Requests[i].Txns) * sr.r.cfg.OpsPerTxn
	}
	perOp := sr.r.costs.ExecPerOpMem
	if sr.r.cfg.Storage == StorageDisk {
		perOp = sr.r.costs.ExecPerOpDisk
	}
	cost := Time(ops)*perOp + sr.r.costs.ExecPerBlock + Time(len(act.Requests))*sr.r.costs.RespPerReq
	sr.host.Submit(t, cost, func() { sr.finishExecute(t, act) })
}

// finishExecute runs at execution completion: advance the state digest,
// tell the engine (checkpoints), and answer every client in the batch. The
// state digest chains the executed batch digests in sequence order, as
// Zyzzyva's history does, so it is the history a speculative reply carries.
func (sr *simReplica) finishExecute(t *Thread, act consensus.Execute) {
	sr.stateDig = hashChain(sr.stateDig, act.Digest)
	history := sr.stateDig
	if sr.zyz != nil {
		sr.zyz.onExecuted(act.Seq, sr.stateDig, &sr.zyzOut)
	} else {
		sr.engine.OnExecuted(act.Seq, sr.stateDig, types.Signature{}, &sr.engineOut)
	}
	sr.handleActions(t)

	// One signing job covers the batch's responses (one authenticator
	// per response message).
	signCost, _ := sr.r.costs.replicaSign(sr.r.cfg.Scheme)
	cost := signCost * Time(len(act.Requests))
	reqs := act.Requests
	sr.host.Submit(t, cost, func() {
		for i := range reqs {
			req := &reqs[i]
			// The simulated workload is write-only, but the clients verify
			// every response's payload against its result digest, so the
			// stamp must be the real one.
			result := types.ResponseDigest(act.Seq, req.Client, req.FirstSeq, nil)
			var resp any
			if sr.zyz != nil {
				resp = &specResponse{
					seq: act.Seq, history: history, client: req.Client,
					clientSeq: req.FirstSeq, result: result,
				}
			} else {
				resp = &types.ClientResponse{
					View: act.View, Seq: act.Seq, Client: req.Client,
					ClientSeq: req.FirstSeq, Result: result, Replica: sr.id,
				}
			}
			sr.transmit(types.ClientNode(req.Client), resp)
		}
	})

	if sr.r.cfg.DisableOutOfOrder && sr.id == 0 {
		sr.gateBusy = false
		sr.pumpGate()
	}
}

// deliverTo routes a transmitted message to its destination node.
func (r *run) deliverTo(from, to types.NodeID, msg any, size int) {
	if to.IsReplica() {
		r.replicas[int(to.Replica())].deliver(from, msg, size)
		return
	}
	idx := int(to.Client())
	if idx < len(r.clients) {
		r.clients[idx].onMessage(from, msg)
	}
}
