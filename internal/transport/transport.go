// Package transport is the network layer of the fabric (paper Figure 5).
//
// It moves signed envelopes between nodes and, crucially for the pipeline,
// classifies inbound traffic into multiple inboxes so a replica can
// dedicate one input-thread to client requests and share the remaining
// input-threads across replica traffic (Section 4.1). Two implementations
// are provided: an in-process network for single-machine clusters and
// tests, and a TCP network with length-prefixed frames for real
// deployments.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"resilientdb/internal/types"
)

// Errors returned by transports.
var (
	ErrClosed      = errors.New("transport: closed")
	ErrUnknownNode = errors.New("transport: unknown node")
)

// Classify routes an envelope to an inbox index: client traffic goes to
// inbox 0; replica traffic is spread across the remaining inboxes by
// sender so the load on replica input-threads stays balanced. With a
// single inbox everything lands in it.
func Classify(from types.NodeID, inboxes int) int {
	if inboxes <= 1 {
		return 0
	}
	if from.IsClient() {
		return 0
	}
	return 1 + int(uint32(from)%uint32(inboxes-1))
}

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// Self returns the node this endpoint belongs to.
	Self() types.NodeID
	// Send transmits the envelope to env.To.
	Send(env *types.Envelope) error
	// Inbox returns the i-th inbound channel. The channel closes when the
	// endpoint closes.
	Inbox(i int) <-chan *types.Envelope
	// Inboxes returns the number of inbound channels.
	Inboxes() int
	// Drops returns how many envelopes this endpoint discarded: inbound
	// ones whose inbox was full and, over TCP, outbound ones whose peer was
	// stalled or went away with them queued. Neither enqueue blocks for
	// long — BFT protocols tolerate loss — but silent loss is
	// undiagnosable, so every drop is counted.
	Drops() uint64
	// Close detaches the endpoint and closes its inboxes.
	Close()
}

// Inproc is an in-process network connecting endpoints by channels.
// It is safe for concurrent use. Crashed nodes can be partitioned off
// with SetDown, which silently drops their traffic in both directions —
// exactly how the failure experiments of Section 5.10 crash backups.
type Inproc struct {
	mu        sync.RWMutex
	endpoints map[types.NodeID]*inprocEndpoint
	down      map[types.NodeID]bool
}

// NewInproc creates an empty in-process network.
func NewInproc() *Inproc {
	return &Inproc{
		endpoints: make(map[types.NodeID]*inprocEndpoint),
		down:      make(map[types.NodeID]bool),
	}
}

// Endpoint attaches a node with the given number of inboxes and per-inbox
// buffer capacity. Attaching an existing node replaces its endpoint.
func (n *Inproc) Endpoint(self types.NodeID, inboxes, capacity int) Endpoint {
	if inboxes < 1 {
		inboxes = 1
	}
	if capacity < 1 {
		capacity = 1024
	}
	ep := &inprocEndpoint{net: n, self: self}
	ep.inboxes = make([]chan *types.Envelope, inboxes)
	for i := range ep.inboxes {
		ep.inboxes[i] = make(chan *types.Envelope, capacity)
	}
	n.mu.Lock()
	n.endpoints[self] = ep
	n.mu.Unlock()
	return ep
}

// SetDown marks a node crashed (true) or recovered (false).
func (n *Inproc) SetDown(node types.NodeID, down bool) {
	n.mu.Lock()
	n.down[node] = down
	n.mu.Unlock()
}

// deliver routes an envelope to its destination, dropping traffic from or
// to downed nodes.
func (n *Inproc) deliver(env *types.Envelope) error {
	n.mu.RLock()
	if n.down[env.From] || n.down[env.To] {
		n.mu.RUnlock()
		env.Release() // the drop is this envelope's terminal point
		return nil    // silently dropped, like a dead host
	}
	ep, ok := n.endpoints[env.To]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, env.To)
	}
	ep.receive(env)
	return nil
}

type inprocEndpoint struct {
	net     *Inproc
	self    types.NodeID
	inboxes []chan *types.Envelope
	drops   atomic.Uint64

	mu     sync.RWMutex
	closed bool
}

var _ Endpoint = (*inprocEndpoint)(nil)

// Self implements Endpoint.
func (e *inprocEndpoint) Self() types.NodeID { return e.self }

// Send implements Endpoint.
func (e *inprocEndpoint) Send(env *types.Envelope) error {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	return e.net.deliver(env)
}

// receive pushes an inbound envelope to the classified inbox, blocking
// when the inbox is full (backpressure) unless the endpoint closed.
func (e *inprocEndpoint) receive(env *types.Envelope) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		env.Release()
		return
	}
	idx := Classify(env.From, len(e.inboxes))
	// Drop-on-full keeps a slow replica from deadlocking the cluster; BFT
	// protocols tolerate message loss by design (clients retransmit).
	select {
	case e.inboxes[idx] <- env:
		// Ownership moves to the inbox consumer, which releases it.
	default:
		e.drops.Add(1)
		env.Release()
	}
}

// Inbox implements Endpoint.
func (e *inprocEndpoint) Inbox(i int) <-chan *types.Envelope { return e.inboxes[i] }

// Inboxes implements Endpoint.
func (e *inprocEndpoint) Inboxes() int { return len(e.inboxes) }

// Drops implements Endpoint.
func (e *inprocEndpoint) Drops() uint64 { return e.drops.Load() }

// Close implements Endpoint.
func (e *inprocEndpoint) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for _, ch := range e.inboxes {
		close(ch)
	}
	e.net.mu.Lock()
	if e.net.endpoints[e.self] == e {
		delete(e.net.endpoints, e.self)
	}
	e.net.mu.Unlock()
}
