package replica

import (
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

// ---- Output (Section 4.1) ----
//
// The stage that produced a message signs it and hands the envelope to the
// endpoint on its own goroutine. The endpoint's Send is a queue push on both
// transports — the TCP endpoint's per-peer writers are the paper's
// output-threads, and they never let one peer hold a sender for long — so a
// queue and a thread of the replica's own in between would move an envelope
// from one channel to another and do nothing else.

// broadcast signs msg for every other replica and sends it. Under a
// digital-signature scheme the body is signed once and reused; under CMAC
// it is hashed once and a MAC of the digest is computed per destination
// (the MAC-vector cost, sixteen bytes of AES per receiver whatever the
// body's size), written into that destination's envelope. The body is
// marshalled into a pooled buffer whose arena every destination's envelope
// retains; the buffer returns to the pool when the last envelope retires
// (the peer writer's write, an inbox drop, or the receiving stage's
// release).
func (r *Replica) broadcast(msg types.Message) {
	body, arena := r.marshalOut(msg)
	mt := msg.Type()
	perDst := r.auth.PerDestination()
	var shared []byte
	var digest types.Digest
	if perDst {
		digest = crypto.Hash256(types.AuthenticatedBytes(mt, body))
	} else {
		sig, err := r.auth.Sign(types.ReplicaNode(0), types.AuthenticatedBytes(mt, body))
		if err != nil {
			r.authFailures.Add(1)
			arena.Release()
			return
		}
		shared = sig
	}
	for i := 0; i < r.cfg.N; i++ {
		dst := types.ReplicaID(i)
		if dst == r.cfg.ID {
			continue
		}
		env := r.envelope(types.ReplicaNode(dst), mt, body, arena)
		env.Auth = shared
		if perDst {
			auth, err := r.auth.AppendSignDigest(env.AuthBuffer(), env.To, digest)
			if err != nil {
				r.authFailures.Add(1)
				env.Release()
				continue
			}
			env.Auth = auth
		}
		r.send(env)
	}
	// Drop the builder's reference: from here only the envelopes keep the
	// buffer alive.
	arena.Release()
}

// sendTo signs msg for a single destination and sends it.
func (r *Replica) sendTo(to types.NodeID, msg types.Message) {
	body, arena := r.marshalOut(msg)
	env := r.envelope(to, msg.Type(), body, arena)
	arena.Release()
	auth, err := crypto.SignInto(r.auth, env, to, types.AuthenticatedBytes(env.Type, body))
	if err != nil {
		r.authFailures.Add(1)
		env.Release()
		return
	}
	env.Auth = auth
	r.send(env)
}

// envelope addresses a pooled envelope from this replica to to, carrying
// body and a reference on the arena behind it.
func (r *Replica) envelope(to types.NodeID, mt types.MsgType, body []byte, arena *types.Arena) *types.Envelope {
	env := types.AcquireEnvelope()
	env.From = types.ReplicaNode(r.cfg.ID)
	env.To = to
	env.Type = mt
	env.Body = body
	env.Attach(arena)
	return env
}

// marshalOut encodes an outbound body into a pooled arena buffer. The
// returned arena carries the builder's reference; the caller must Release
// it exactly once after attaching it to every envelope that shares the
// body.
func (r *Replica) marshalOut(msg types.Message) ([]byte, *types.Arena) {
	// Seed the pooled buffer with the largest body seen so far: a marshal
	// that outgrows its buffer reallocates on append and strands the
	// undersized slice, so guessing high keeps the path allocation-free
	// (the hint is a high-water mark, and capacity classes round up
	// anyway).
	hint := int(r.encHint.Load())
	body, arena := types.MarshalBodyArena(msg, r.encBufs, hint)
	if n := int64(len(body)); n > int64(hint) {
		r.encHint.Store(n)
	}
	return body, arena
}

// send hands a signed envelope to the endpoint. A successful Send passes
// ownership to the transport (the TCP writer or the in-process receiver
// releases it); on error — an unknown or dead peer, or an endpoint that Stop
// already closed — the envelope went nowhere and retires here, silently.
func (r *Replica) send(env *types.Envelope) {
	t0 := time.Now()
	if err := r.cfg.Endpoint.Send(env); err != nil {
		env.Release()
	} else {
		r.msgsOut.Add(1)
	}
	r.addBusy(StageOutput, time.Since(t0))
}
