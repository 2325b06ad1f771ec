// Package enginetest provides an in-memory cluster harness for driving
// consensus engines in tests: it delivers engine actions as messages with
// controllable ordering (FIFO or seeded-random shuffling), simulates crash
// faults by dropping traffic to and from downed replicas, and plays the
// execution layer so checkpoints flow.
//
// The harness is itself a miniature deterministic simulator; the safety
// tests in the pbft and zyzzyva packages use it to check agreement under
// arbitrary delivery interleavings.
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
	acts := c.Engines[rep].Propose(reqs)
	c.handleActions(rep, acts)
}

// Timeout fires the view timer at replica rep.
func (c *Cluster) Timeout(rep types.ReplicaID) {
	if c.Down[rep] {
		return
	}
	c.handleActions(rep, c.Engines[rep].OnViewTimeout(c.Engines[rep].View()))
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
		acts := c.Engines[rep].OnMessage(d.From, d.Msg, nil)
		c.handleActions(rep, acts)
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

func (c *Cluster) handleActions(rep types.ReplicaID, acts []consensus.Action) {
	from := types.ReplicaNode(rep)
	for _, a := range acts {
		switch act := a.(type) {
		case consensus.Broadcast:
			if c.Down[rep] {
				continue
			}
			for r := 0; r < c.N; r++ {
				if types.ReplicaID(r) == rep {
					continue
				}
				c.queue = append(c.queue, Delivery{From: from, To: types.ReplicaNode(types.ReplicaID(r)), Msg: act.Msg})
			}
		case consensus.Send:
			if c.Down[rep] {
				continue
			}
			c.queue = append(c.queue, Delivery{From: from, To: act.To, Msg: act.Msg})
		case consensus.Execute:
			c.execute(rep, act)
		case consensus.CheckpointStable:
			c.StableCheckpoints[rep] = act.Seq
		case consensus.Evidence:
			c.Evidence[rep] = append(c.Evidence[rep], act)
		case consensus.ViewChanged:
			// informational
		}
	}
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
		acts := c.Engines[rep].OnExecuted(next.Seq, c.stateDigest[rep])
		c.handleActions(rep, acts)
	}
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
