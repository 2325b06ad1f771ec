package client

import (
	"sync/atomic"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/pool"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Link attaches an Engine to the network for one closed-loop client
// identity — a load-generating client or a gateway upstream. It signs
// requests, transmits the engine's actions through pooled encode buffers
// (Section 4.8 buffer-pool management: bodies marshal into arena buffers
// recycled once the transport has written them), and pumps authenticated
// replies back into the engine until the request in flight completes,
// retransmitting on timeout. One goroutine drives a Link; only
// Retransmits may be called from another.
type Link struct {
	engine  *Engine
	id      types.ClientID
	n       int
	auth    crypto.NodeAuthenticator
	ep      transport.Endpoint
	timeout time.Duration
	timer   *time.Timer

	encBufs pool.BytePool
	encHint int // largest body marshalled so far

	retransmits atomic.Uint64
}

// NewLink creates the engine for client id and attaches it to ep, which
// the Link reads (inbox 0) but does not close. timeout is the
// retransmission / slow-path trigger delay.
func NewLink(id types.ClientID, n int, protocol Protocol, dir *crypto.Directory, ep transport.Endpoint, timeout time.Duration) (*Link, error) {
	eng, err := New(id, n, protocol)
	if err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	timer.Stop()
	return &Link{
		engine:  eng,
		id:      id,
		n:       n,
		auth:    dir.NodeAuth(types.ClientNode(id)),
		ep:      ep,
		timeout: timeout,
		timer:   timer,
	}, nil
}

// Stats returns the engine's counters.
func (l *Link) Stats() Stats { return l.engine.Stats() }

// Retransmits counts the timeouts Await answered with a retransmission
// (or, for Zyzzyva, the commit-certificate phase).
func (l *Link) Retransmits() uint64 { return l.retransmits.Load() }

// Sign seals req — the one pass this process makes over its bytes — and
// puts the client's signature over that digest on it. req must not change
// afterwards.
func (l *Link) Sign(req *types.ClientRequest) error {
	sig, err := l.auth.AppendSignDigest(nil, types.ReplicaNode(0), req.Seal())
	if err != nil {
		return err
	}
	req.Sig = sig
	return nil
}

// Submit starts a signed request: it becomes the request in flight and
// goes to the replica the engine believes is primary.
func (l *Link) Submit(req types.ClientRequest) {
	l.dispatch(l.engine.Submit(req))
}

// Await pumps the endpoint inbox until the request in flight completes,
// retransmitting on every timeout. It returns nil when stop closes or the
// endpoint does.
func (l *Link) Await(stop <-chan struct{}) *Outcome {
	inbox := l.ep.Inbox(0)
	// No drain before Reset: under go.mod's go 1.24 a stopped or reset
	// timer never delivers a stale fire.
	l.timer.Reset(l.timeout)
	defer l.timer.Stop()
	for {
		select {
		case <-stop:
			return nil
		case env, ok := <-inbox:
			if !ok {
				return nil
			}
			from, msg, ok := l.Open(env)
			if !ok {
				continue
			}
			outcome, acts := l.engine.OnMessage(from, msg)
			l.dispatch(acts)
			if outcome != nil {
				return outcome
			}
		case <-l.timer.C:
			l.retransmits.Add(1)
			l.dispatch(l.engine.OnTimeout())
			l.timer.Reset(l.timeout)
		}
	}
}

// Open authenticates and decodes one inbound envelope and retires it:
// decode copies every field, so the envelope (and any frame arena behind
// it) is released here. ok is false for a forged or malformed envelope.
func (l *Link) Open(env *types.Envelope) (from types.NodeID, msg types.Message, ok bool) {
	defer env.Release()
	if err := l.auth.Verify(env.From, env.Body, env.Auth); err != nil {
		return 0, nil, false
	}
	msg, err := types.DecodeBody(env.Type, env.Body)
	if err != nil {
		return 0, nil, false
	}
	return env.From, msg, true
}

// dispatch transmits client-engine actions.
func (l *Link) dispatch(acts []consensus.Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case consensus.Send:
			l.Transmit(act.To, act.Msg)
		case consensus.Broadcast:
			for r := 0; r < l.n; r++ {
				l.Transmit(types.ReplicaNode(types.ReplicaID(r)), act.Msg)
			}
		}
	}
}

// Transmit hands msg to the endpoint, addressed to to. The envelope is
// signed unless it carries a ClientRequest: no replica verifies that
// envelope — the request's own Sig, which the primary's batch stage
// checks before proposing, is what authenticates it — so a second
// signature over the same bytes would be paid for by every request and
// read by no one. Read requests and commit certificates carry no
// signature of their own and are verified by envelope.
func (l *Link) Transmit(to types.NodeID, msg types.Message) {
	// The high-water-mark hint keeps marshals in the right capacity class
	// so steady-state encodes borrow instead of growing.
	body, arena := types.MarshalBodyArena(msg, &l.encBufs, l.encHint)
	if len(body) > l.encHint {
		l.encHint = len(body)
	}
	env := types.AcquireEnvelope()
	if msg.Type() != types.MsgClientRequest {
		auth, err := crypto.SignInto(l.auth, env, to, body)
		if err != nil {
			env.Release()
			arena.Release()
			return
		}
		env.Auth = auth
	}
	env.From = types.ClientNode(l.id)
	env.To = to
	env.Type = msg.Type()
	env.Body = body
	env.Attach(arena)
	if err := l.ep.Send(env); err != nil {
		env.Release() // the send went nowhere; retire the envelope here
	}
	arena.Release() // drop the builder's reference
}
