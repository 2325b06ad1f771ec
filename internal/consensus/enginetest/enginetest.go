// Package enginetest provides an in-memory cluster harness for driving
// consensus engines in tests: it delivers engine actions as messages with
// controllable ordering (FIFO or seeded-random shuffling), simulates crash
// faults by dropping traffic to and from downed replicas, and plays the
// execution layer so checkpoints flow.
//
// The harness is itself a miniature deterministic simulator; the pbft
// package's safety tests use it to check agreement under arbitrary
// delivery interleavings. It keeps the votes engines lend it (a
// broadcast vote is delivered to every peer) and never gives them back.
package enginetest

import (
	"math/rand"

	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

// Delivery is one in-flight message.
type Delivery struct {
	From types.NodeID
	To   types.NodeID
	Msg  types.Message
}

// Cluster wires N engines together.
type Cluster struct {
	N       int
	Engines []consensus.Engine

	// Random, when non-nil, shuffles delivery order.
	Random *rand.Rand

	// Down marks crashed replicas: all their traffic is dropped.
	Down map[types.ReplicaID]bool

	// Executed records, per replica, the batches released for execution
	// in sequence order (after the harness's reordering layer).
	Executed [][]consensus.Execute

	// ToClients records every message addressed to a client.
	ToClients []Delivery

	// Evidence records byzantine-behaviour reports per replica.
	Evidence [][]consensus.Evidence

	// StableCheckpoints records the latest stable checkpoint per replica.
	StableCheckpoints []types.SeqNum

	queue []Delivery

	// Execution-layer state per replica: pending out-of-order Execute
	// actions, next expected seq, and the rolling state digest.
	execPending []map[types.SeqNum]consensus.Execute
	execNext    []types.SeqNum
	stateDigest []types.Digest

	// outs holds one Out per nesting level of engine steps: handling an
	// Execute steps OnExecuted while the outputs of the step that released
	// the batch are still being handled.
	outs  []*consensus.Out
	depth int
}

// NewCluster wraps the given engines (index = replica ID).
func NewCluster(engines []consensus.Engine) *Cluster {
	n := len(engines)
	c := &Cluster{
		N:                 n,
		Engines:           engines,
		Down:              make(map[types.ReplicaID]bool),
		Executed:          make([][]consensus.Execute, n),
		Evidence:          make([][]consensus.Evidence, n),
		StableCheckpoints: make([]types.SeqNum, n),
		execPending:       make([]map[types.SeqNum]consensus.Execute, n),
		execNext:          make([]types.SeqNum, n),
		stateDigest:       make([]types.Digest, n),
	}
	for i := 0; i < n; i++ {
		c.execPending[i] = make(map[types.SeqNum]consensus.Execute)
		c.execNext[i] = 1
	}
	return c
}

// Propose drives replica rep's engine to propose a batch.
func (c *Cluster) Propose(rep types.ReplicaID, reqs []types.ClientRequest) {
	if c.Down[rep] {
		return
	}
	out := c.out()
	c.Engines[rep].Propose(reqs, out)
	c.handle(rep, out)
}

// Timeout fires the view timer at replica rep.
func (c *Cluster) Timeout(rep types.ReplicaID) {
	if c.Down[rep] {
		return
	}
	out := c.out()
	c.Engines[rep].OnViewTimeout(c.Engines[rep].View(), out)
	c.handle(rep, out)
}

// Pending returns the number of undelivered messages.
func (c *Cluster) Pending() int { return len(c.queue) }

// Step delivers one message (random when Random is set, else FIFO) and
// processes the resulting actions. It reports false when no messages
// remain.
func (c *Cluster) Step() bool {
	for len(c.queue) > 0 {
		idx := 0
		if c.Random != nil {
			idx = c.Random.Intn(len(c.queue))
		}
		d := c.queue[idx]
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)

		if !d.To.IsReplica() {
			c.ToClients = append(c.ToClients, d)
			continue
		}
		rep := d.To.Replica()
		if c.Down[rep] {
			continue
		}
		out := c.out()
		c.Engines[rep].OnMessage(d.From, d.Msg, out)
		c.handle(rep, out)
		return true
	}
	return false
}

// Run delivers messages until the network is quiet or maxSteps is hit.
func (c *Cluster) Run(maxSteps int) {
	for i := 0; i < maxSteps; i++ {
		if !c.Step() {
			return
		}
	}
}

// out returns the Out for a step at the current nesting level.
func (c *Cluster) out() *consensus.Out {
	for len(c.outs) <= c.depth {
		c.outs = append(c.outs, new(consensus.Out))
	}
	return c.outs[c.depth]
}

// handle processes what a step of rep's engine appended to out, in order,
// and resets out.
func (c *Cluster) handle(rep types.ReplicaID, out *consensus.Out) {
	c.depth++
	from := types.ReplicaNode(rep)
	outs := out.Outputs()
	for i := range outs {
		o := &outs[i]
		switch o.Kind {
		case consensus.KindBroadcast:
			if c.Down[rep] {
				continue
			}
			for r := 0; r < c.N; r++ {
				if types.ReplicaID(r) == rep {
					continue
				}
				c.queue = append(c.queue, Delivery{From: from, To: types.ReplicaNode(types.ReplicaID(r)), Msg: o.Broadcast.Msg})
			}
		case consensus.KindSend:
			if c.Down[rep] {
				continue
			}
			c.queue = append(c.queue, Delivery{From: from, To: o.Send.To, Msg: o.Send.Msg})
		case consensus.KindExecute:
			c.execute(rep, o.Execute)
		case consensus.KindCheckpointStable:
			c.StableCheckpoints[rep] = o.CheckpointStable.Seq
		case consensus.KindEvidence:
			c.Evidence[rep] = append(c.Evidence[rep], o.Evidence)
		case consensus.KindViewChanged:
			// informational
		}
	}
	out.Reset()
	c.depth--
}

// execute plays the execution layer: batches released out of order are
// reordered by sequence number, the state digest advances, and the engine
// is told about each completed execution (which triggers checkpoints).
func (c *Cluster) execute(rep types.ReplicaID, e consensus.Execute) {
	c.execPending[rep][e.Seq] = e
	for {
		next, ok := c.execPending[rep][c.execNext[rep]]
		if !ok {
			return
		}
		delete(c.execPending[rep], next.Seq)
		c.Executed[rep] = append(c.Executed[rep], next)
		c.stateDigest[rep] = crypto.HashChain(c.stateDigest[rep], next.Digest)
		c.execNext[rep]++
		out := c.out()
		c.Engines[rep].OnExecuted(next.Seq, c.stateDigest[rep], types.Signature{}, out)
		c.handle(rep, out)
	}
}

// Actions returns what out holds as Actions, in emission order, for tests
// that step an engine directly.
func Actions(out *consensus.Out) []consensus.Action {
	var acts []consensus.Action
	for _, o := range out.Outputs() {
		switch o.Kind {
		case consensus.KindSend:
			acts = append(acts, o.Send)
		case consensus.KindBroadcast:
			acts = append(acts, o.Broadcast)
		case consensus.KindExecute:
			acts = append(acts, o.Execute)
		case consensus.KindCheckpointStable:
			acts = append(acts, o.CheckpointStable)
		case consensus.KindViewChanged:
			acts = append(acts, o.ViewChanged)
		case consensus.KindEvidence:
			acts = append(acts, o.Evidence)
		}
	}
	return acts
}

// ExecutedDigests returns the ordered batch digests executed by rep.
func (c *Cluster) ExecutedDigests(rep types.ReplicaID) []types.Digest {
	out := make([]types.Digest, len(c.Executed[rep]))
	for i, e := range c.Executed[rep] {
		out[i] = e.Digest
	}
	return out
}

// MakeRequest builds a small distinct client request for tests.
func MakeRequest(client types.ClientID, seq uint64) types.ClientRequest {
	return types.ClientRequest{
		Client:   client,
		FirstSeq: seq,
		Txns: []types.Transaction{{
			Client:    client,
			ClientSeq: seq,
			Ops:       []types.Op{{Key: seq, Value: []byte{byte(seq), byte(client)}}},
		}},
	}
}
