package sim

import (
	"resilientdb/internal/consensus"
	clientengine "resilientdb/internal/consensus/client"
	"resilientdb/internal/types"
)

// simClient is one closed-loop client: it keeps a single request in
// flight, driven by the same client engine as the runnable system, or by
// the Zyzzyva model's client rules (zyz; engine is nil then).
// Client compute is free (the paper's client machines exist only to
// generate load); their NICs still serialize outbound bytes.
type simClient struct {
	r       *run
	id      types.ClientID
	engine  *clientengine.Engine
	zyz     *zyzzyvaClient
	machine *Host

	clientSeq uint64
	start     Time
	gen       uint64 // timeout generation; bumping it cancels the timer
}

func (c *simClient) submitNext() {
	if c.clientSeq == 0 {
		c.clientSeq = 1
	}
	req := mkRequest(c.id, c.clientSeq, c.r.cfg.Burst)
	c.start = c.r.sim.Now()
	var acts []consensus.Action
	var zacts actions
	if c.zyz != nil {
		zacts = c.zyz.submit(req)
	} else {
		acts = c.engine.Submit(req)
	}
	// Bill the client's signature as a latency offset before the wire.
	signDelay := c.r.costs.clientSign(c.r.cfg.Scheme)
	c.r.sim.After(signDelay, func() { c.dispatch(acts, zacts) })
	c.armTimeout()
}

func (c *simClient) armTimeout() {
	c.gen++
	g := c.gen
	c.r.sim.After(c.r.cfg.ClientTimeout, func() { c.onTimeout(g) })
}

// onTimeout fires while the request armed at generation g is still in
// flight: a completion bumps the generation.
func (c *simClient) onTimeout(g uint64) {
	if g != c.gen {
		return
	}
	if c.zyz != nil {
		c.dispatch(nil, c.zyz.onTimeout())
	} else {
		c.dispatch(c.engine.OnTimeout(), nil)
	}
	c.armTimeout()
}

// dispatch transmits the PBFT client engine's sends (it emits nothing
// else) and the Zyzzyva client's sends and broadcasts.
func (c *simClient) dispatch(acts []consensus.Action, zacts actions) {
	for _, a := range acts {
		if s, ok := a.(consensus.Send); ok {
			// The engine lends its request in flight, and a message on the
			// simulated network can outlive the engine's next Submit.
			req := *s.Msg.(*types.ClientRequest)
			c.transmit(s.To, &req)
		}
	}
	for _, a := range zacts {
		if a.kind != consensus.KindBroadcast {
			c.transmit(a.to, a.msg)
			continue
		}
		for i := 0; i < c.r.cfg.Replicas; i++ {
			c.transmit(types.ReplicaNode(types.ReplicaID(i)), a.msg)
		}
	}
}

func (c *simClient) transmit(to types.NodeID, msg any) {
	size := c.r.reqSize
	if _, ok := msg.(*commitCert); ok {
		size = c.r.voteSize
	}
	from := types.ClientNode(c.id)
	c.machine.NIC.Send(size, c.r.costs.LinkLatency, func() {
		c.r.deliverTo(from, to, msg, size)
	})
}

// onMessage receives a replica response (free compute at the client). A
// PBFT completion counts as a fast-path one.
func (c *simClient) onMessage(from types.NodeID, msg any) {
	fast := true
	if c.zyz != nil {
		var done bool
		if done, fast = c.zyz.onMessage(from, msg); !done {
			return
		}
	} else if outcome, _ := c.engine.OnMessage(from, msg.(types.Message)); outcome == nil {
		return
	}
	c.gen++ // cancel the timer
	c.r.recordCompletion(c.start, fast)
	c.clientSeq += uint64(c.r.cfg.Burst)
	c.submitNext()
}
