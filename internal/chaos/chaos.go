// Package chaos is the fault-injection layer of the test harness: it
// wraps the seams the fabric already exposes — the transport endpoint, the
// record store, and (via re-signed message rewriting) the replica's own
// outbound protocol traffic — so integration tests and the faults bench
// can run the paper's failure scenarios (Section 5.10 and beyond) against
// the real pipeline instead of a simulator.
//
// The layer has three parts:
//
//   - Fabric: per-link network faults (drop, delay, reorder, duplicate,
//     malformed-frame corruption) plus partitions, applied in a
//     transport.Endpoint wrapper on the sender side. Corrupted bodies are
//     re-signed with the sender's real key, so they pass authentication
//     and land in the replica's DecodeFailures split — exactly the
//     garbage-vs-forgery distinction the stats are designed to keep.
//   - Byzantine behaviors: an equivocating primary (conflicting
//     PrePrepares for one sequence, either split across backups to stall
//     the instance or doubled to every backup to trip the evidence
//     counter), a silent primary (dropped PrePrepares force the
//     watchdog's view change), a read-forging responder (mutated
//     ReadResults under an unchanged Result digest, exercising the
//     client's ResponseDigest recomputation defense), and a replica that
//     signs its checkpoint votes with the wrong key (the votes must not
//     count, and checkpoints must still certify from the honest ones).
//   - StoreFaults: write stalls and injected write errors on every write
//     call of a store.Backend (Put, PutMany and Append), in one wrapper
//     that a wrapped ShardedDiskStore extends with its log's SyncStatser
//     and Compactor.
//
// Everything is deterministic given the Fabric seed, modulo goroutine
// scheduling: probabilistic decisions share one seeded PRNG.
package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// LinkFault is the fault profile for one directed link (or a node, or the
// whole fabric): each send crossing the link is independently dropped,
// corrupted, duplicated, and delayed according to the profile. The zero
// value passes traffic through untouched.
type LinkFault struct {
	// Drop is the probability a send is silently discarded.
	Drop float64
	// Corrupt is the probability the body is replaced with garbage that
	// is re-signed by the sender, so it passes authentication and fails
	// decoding (the DecodeFailures path).
	Corrupt float64
	// Duplicate is the probability the envelope is delivered twice.
	Duplicate float64
	// Delay is a fixed delivery delay; Reorder adds a further uniformly
	// random delay in [0, Reorder), which reorders messages relative to
	// each other on the link.
	Delay   time.Duration
	Reorder time.Duration
}

func (lf LinkFault) zero() bool {
	return lf.Drop == 0 && lf.Corrupt == 0 && lf.Duplicate == 0 && lf.Delay == 0 && lf.Reorder == 0
}

// Behavior selects a Byzantine sender behavior for one replica.
type Behavior int

// Byzantine behaviors.
const (
	// ByzNone is honest (the default).
	ByzNone Behavior = iota
	// ByzEquivocateSplit sends a conflicting PrePrepare variant to
	// odd-numbered replicas and the original to the rest: no digest can
	// reach a commit quorum, the instance stalls, and the watchdog's view
	// change must recover liveness — the classic undetected equivocation.
	ByzEquivocateSplit
	// ByzEquivocateBoth sends every backup the original PrePrepare and
	// then a conflicting variant for the same (view, seq). The first
	// arrival wins the instance, so consensus proceeds, and the second
	// trips each backup's equivocation-evidence counter — the detected
	// equivocation.
	ByzEquivocateBoth
	// ByzMutePrimary drops every outbound PrePrepare: a silent primary.
	// Other traffic still flows, so the replica looks alive while making
	// no progress — the watchdog view change is the only way out.
	ByzMutePrimary
	// ByzForgeReads rewrites the ReadResults of outbound client responses
	// while keeping the original Result digest, exercising the client's
	// defense of recomputing ResponseDigest over the carried reads.
	ByzForgeReads
	// ByzWrongCheckpointKey signs every outbound Checkpoint vote with a
	// client's ED25519 key instead of the replica's own; the envelope's
	// authenticator stays valid. Honest replicas must drop each vote as
	// Evidence, and checkpoints still certify from the other 2f+1.
	ByzWrongCheckpointKey
)

// Stats are the fabric's cumulative injection counters.
type Stats struct {
	Dropped        uint64
	Corrupted      uint64
	Duplicated     uint64
	Delayed        uint64
	PartitionDrops uint64
	Equivocations  uint64
	MutedPP        uint64
	ForgedReads    uint64
	WrongKeyVotes  uint64
}

// Fabric holds the live fault configuration and implements the
// cluster.Options.EndpointWrapper seam via WrapEndpoint. All setters are
// safe to call while the cluster runs — scenarios flip faults on and off
// under live load.
type Fabric struct {
	mu       sync.Mutex
	rng      *rand.Rand
	def      LinkFault
	node     map[types.NodeID]LinkFault
	link     map[[2]types.NodeID]LinkFault
	isolated map[types.NodeID]bool
	byz      map[types.ReplicaID]Behavior

	dropped        atomic.Uint64
	corrupted      atomic.Uint64
	duplicated     atomic.Uint64
	delayed        atomic.Uint64
	partitionDrops atomic.Uint64
	equivocations  atomic.Uint64
	mutedPP        atomic.Uint64
	forgedReads    atomic.Uint64
	wrongKeyVotes  atomic.Uint64

	// wg tracks in-flight delayed deliveries so Drain can wait for them
	// before a test tears the cluster down.
	wg sync.WaitGroup
}

// NewFabric creates a fault-free fabric with a seeded PRNG.
func NewFabric(seed int64) *Fabric {
	return &Fabric{
		rng:      rand.New(rand.NewSource(seed)),
		node:     make(map[types.NodeID]LinkFault),
		link:     make(map[[2]types.NodeID]LinkFault),
		isolated: make(map[types.NodeID]bool),
		byz:      make(map[types.ReplicaID]Behavior),
	}
}

// SetDefault applies lf to every link without a more specific rule.
func (f *Fabric) SetDefault(lf LinkFault) {
	f.mu.Lock()
	f.def = lf
	f.mu.Unlock()
}

// SetNode applies lf to every link that starts or ends at n (link rules
// still win). A zero LinkFault removes the rule.
func (f *Fabric) SetNode(n types.NodeID, lf LinkFault) {
	f.mu.Lock()
	if lf.zero() {
		delete(f.node, n)
	} else {
		f.node[n] = lf
	}
	f.mu.Unlock()
}

// SetLink applies lf to the directed link from → to, winning over node
// and default rules. A zero LinkFault removes the rule.
func (f *Fabric) SetLink(from, to types.NodeID, lf LinkFault) {
	f.mu.Lock()
	if lf.zero() {
		delete(f.link, [2]types.NodeID{from, to})
	} else {
		f.link[[2]types.NodeID{from, to}] = lf
	}
	f.mu.Unlock()
}

// Isolate partitions the given nodes away from the rest of the fabric:
// any send with exactly one end in the isolated set is dropped. Links
// inside the set and links entirely outside it still work.
func (f *Fabric) Isolate(nodes ...types.NodeID) {
	f.mu.Lock()
	for _, n := range nodes {
		f.isolated[n] = true
	}
	f.mu.Unlock()
}

// HealPartition clears the isolated set.
func (f *Fabric) HealPartition() {
	f.mu.Lock()
	f.isolated = make(map[types.NodeID]bool)
	f.mu.Unlock()
}

// SetByzantine assigns a Byzantine behavior to a replica's outbound
// traffic; ByzNone restores honesty.
func (f *Fabric) SetByzantine(id types.ReplicaID, b Behavior) {
	f.mu.Lock()
	if b == ByzNone {
		delete(f.byz, id)
	} else {
		f.byz[id] = b
	}
	f.mu.Unlock()
}

// Clear removes every fault: link rules, partition, and behaviors.
func (f *Fabric) Clear() {
	f.mu.Lock()
	f.def = LinkFault{}
	f.node = make(map[types.NodeID]LinkFault)
	f.link = make(map[[2]types.NodeID]LinkFault)
	f.isolated = make(map[types.NodeID]bool)
	f.byz = make(map[types.ReplicaID]Behavior)
	f.mu.Unlock()
}

// Stats returns a snapshot of the injection counters.
func (f *Fabric) Stats() Stats {
	return Stats{
		Dropped:        f.dropped.Load(),
		Corrupted:      f.corrupted.Load(),
		Duplicated:     f.duplicated.Load(),
		Delayed:        f.delayed.Load(),
		PartitionDrops: f.partitionDrops.Load(),
		Equivocations:  f.equivocations.Load(),
		MutedPP:        f.mutedPP.Load(),
		ForgedReads:    f.forgedReads.Load(),
		WrongKeyVotes:  f.wrongKeyVotes.Load(),
	}
}

// Drain waits for every in-flight delayed delivery to finish (each
// releases its envelope if the destination endpoint has closed). Call it
// after the load stops and before asserting on pool or drop counters.
func (f *Fabric) Drain() { f.wg.Wait() }

func (f *Fabric) behavior(id types.ReplicaID) Behavior {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.byz[id]
}

func (f *Fabric) crossesPartition(from, to types.NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.isolated) == 0 {
		return false
	}
	return f.isolated[from] != f.isolated[to]
}

func (f *Fabric) resolve(from, to types.NodeID) LinkFault {
	f.mu.Lock()
	defer f.mu.Unlock()
	if lf, ok := f.link[[2]types.NodeID{from, to}]; ok {
		return lf
	}
	if lf, ok := f.node[from]; ok {
		return lf
	}
	if lf, ok := f.node[to]; ok {
		return lf
	}
	return f.def
}

// chance draws one probabilistic decision from the shared PRNG.
func (f *Fabric) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	f.mu.Lock()
	v := f.rng.Float64()
	f.mu.Unlock()
	return v < p
}

// delayFor computes the delivery delay for one send under lf.
func (f *Fabric) delayFor(lf LinkFault) time.Duration {
	d := lf.Delay
	if lf.Reorder > 0 {
		f.mu.Lock()
		d += time.Duration(f.rng.Int63n(int64(lf.Reorder)))
		f.mu.Unlock()
	}
	return d
}

// WrapEndpoint wraps a replica's endpoint with the fabric's fault rules.
// Its signature matches cluster.Options.EndpointWrapper. The directory
// provides the replica's own signing key, so rewritten bodies
// (equivocation variants, forged reads, corrupted frames) carry valid
// authenticators — Byzantine nodes hold real keys.
func (f *Fabric) WrapEndpoint(id types.ReplicaID, inner transport.Endpoint, dir *crypto.Directory) transport.Endpoint {
	return &endpoint{
		Endpoint: inner,
		id:       id,
		auth:     dir.NodeAuth(types.ReplicaNode(id)),
		dir:      dir,
		f:        f,
	}
}

// endpoint is the sender-side fault injector. Self, Inbox, Inboxes,
// Drops, and Close delegate to the embedded inner endpoint; only Send is
// intercepted.
type endpoint struct {
	transport.Endpoint
	id   types.ReplicaID
	auth crypto.Authenticator
	dir  *crypto.Directory
	f    *Fabric
}

// Send applies Byzantine sender behavior, then link shaping. Envelope
// ownership follows the transport contract: when the original envelope is
// passed through untouched, inner-Send errors propagate to the caller
// (who releases); whenever the wrapper drops, replaces, or delays the
// envelope it takes ownership, returns nil, and releases on any failure.
// Rewritten variants are fresh plain envelopes with copied bodies — an
// outbound Body may alias an arena shared with the other destinations'
// envelopes, so it is never mutated in place.
func (e *endpoint) Send(env *types.Envelope) error {
	f := e.f
	switch f.behavior(e.id) {
	case ByzMutePrimary:
		if env.Type == types.MsgPrePrepare {
			f.mutedPP.Add(1)
			env.Release()
			return nil
		}
	case ByzEquivocateSplit:
		if env.Type == types.MsgPrePrepare && !env.To.IsClient() && int32(env.To)%2 == 1 {
			if v := e.conflictingPrePrepare(env); v != nil {
				f.equivocations.Add(1)
				env.Release()
				return e.shapedSend(v, true)
			}
		}
	case ByzEquivocateBoth:
		if env.Type == types.MsgPrePrepare && !env.To.IsClient() {
			if v := e.conflictingPrePrepare(env); v != nil {
				f.equivocations.Add(1)
				// Original first: the first arrival wins the instance on
				// honest replicas, so consensus proceeds and the variant
				// becomes pure evidence.
				err := e.shapedSend(env, false)
				_ = e.shapedSend(v, true)
				return err
			}
		}
	case ByzForgeReads:
		if env.Type == types.MsgClientResponse && env.To.IsClient() {
			if v := e.forgedResponse(env); v != nil {
				f.forgedReads.Add(1)
				env.Release()
				return e.shapedSend(v, true)
			}
		}
	case ByzWrongCheckpointKey:
		if env.Type == types.MsgCheckpoint {
			if v := e.wrongKeyCheckpoint(env); v != nil {
				f.wrongKeyVotes.Add(1)
				env.Release()
				return e.shapedSend(v, true)
			}
		}
	}
	return e.shapedSend(env, false)
}

// shapedSend applies partition and link-fault shaping. owned marks
// envelopes the wrapper created (or otherwise owns): their errors are
// swallowed after releasing, because the caller's envelope was already
// consumed.
func (e *endpoint) shapedSend(env *types.Envelope, owned bool) error {
	f := e.f
	if f.crossesPartition(env.From, env.To) {
		f.partitionDrops.Add(1)
		env.Release()
		return nil
	}
	lf := f.resolve(env.From, env.To)
	if lf.zero() {
		return e.deliver(env, 0, owned)
	}
	if f.chance(lf.Drop) {
		f.dropped.Add(1)
		env.Release()
		return nil
	}
	if f.chance(lf.Corrupt) {
		if c := e.corrupted(env); c != nil {
			f.corrupted.Add(1)
			env.Release()
			env, owned = c, true
		}
	}
	if f.chance(lf.Duplicate) {
		f.duplicated.Add(1)
		_ = e.deliver(copyEnvelope(env), f.delayFor(lf), true)
	}
	return e.deliver(env, f.delayFor(lf), owned)
}

// deliver hands the envelope to the inner endpoint, now or after a delay.
// A delayed send always takes ownership: the caller got nil long ago, so
// a failed late Send releases the envelope instead of reporting.
func (e *endpoint) deliver(env *types.Envelope, d time.Duration, owned bool) error {
	if d <= 0 {
		err := e.Endpoint.Send(env)
		if err != nil && owned {
			env.Release()
			return nil
		}
		return err
	}
	f := e.f
	f.delayed.Add(1)
	f.wg.Add(1)
	time.AfterFunc(d, func() {
		defer f.wg.Done()
		if err := e.Endpoint.Send(env); err != nil {
			env.Release()
		}
	})
	return nil
}

// conflictingPrePrepare builds a validly-signed PrePrepare for the same
// (view, seq) with a different batch digest: the batch's first two
// requests are swapped (or its only request doubled), so every embedded
// client signature stays valid while the batch digest — and with it the
// whole three-phase agreement — diverges. Returns nil when the body
// cannot be rewritten (decode failure or an empty batch).
func (e *endpoint) conflictingPrePrepare(env *types.Envelope) *types.Envelope {
	msg, err := types.DecodeBody(types.MsgPrePrepare, env.Body)
	if err != nil {
		return nil
	}
	pp, ok := msg.(*types.PrePrepare)
	if !ok || len(pp.Requests) == 0 {
		return nil
	}
	if len(pp.Requests) >= 2 {
		pp.Requests[0], pp.Requests[1] = pp.Requests[1], pp.Requests[0]
	} else {
		pp.Requests = append(pp.Requests, pp.Requests[0])
	}
	pp.Digest = types.BatchDigest(pp.Requests)
	return e.reSigned(env, pp)
}

// forgedResponse rewrites a client response's read results while keeping
// the original Result digest: the classic forgery ResponseDigest's
// recompute-and-discard client defense exists for. Returns nil when the
// response carries no reads (nothing to forge).
func (e *endpoint) forgedResponse(env *types.Envelope) *types.Envelope {
	msg, err := types.DecodeBody(types.MsgClientResponse, env.Body)
	if err != nil {
		return nil
	}
	cr, ok := msg.(*types.ClientResponse)
	if !ok || len(cr.ReadResults) == 0 {
		return nil
	}
	rr := &cr.ReadResults[0]
	switch {
	case rr.Scan && len(rr.Rows) > 1:
		// Truncate the scan: drop the tail rows but keep the digest.
		rr.Rows = rr.Rows[:len(rr.Rows)-1]
	case rr.Scan && len(rr.Rows) == 1:
		// Mutate the lone row's value (or key when the value is empty).
		if len(rr.Rows[0].Value) > 0 {
			rr.Rows[0].Value[0] ^= 0xFF
		} else {
			rr.Rows[0].Key ^= 1
		}
	case rr.Scan:
		// Invent a row in an honestly empty scan.
		rr.Rows = []types.ScanRow{{Key: 0xF0F0, Value: []byte{0xAB}}}
	case len(rr.Value) > 0:
		rr.Value[0] ^= 0xFF
	default:
		rr.Found = !rr.Found
		rr.Value = []byte{0xAB}
	}
	return e.reSigned(env, cr)
}

// wrongKeyCheckpoint re-signs a checkpoint vote's (seq, digest) with the
// key of the client numbered like this replica, and the envelope with the
// replica's own link key. Returns nil when the body does not decode.
func (e *endpoint) wrongKeyCheckpoint(env *types.Envelope) *types.Envelope {
	msg, err := types.DecodeBody(types.MsgCheckpoint, env.Body)
	if err != nil {
		return nil
	}
	cp := msg.(*types.Checkpoint)
	cp.Sig = e.dir.SignCheckpoint(types.ClientNode(types.ClientID(e.id)), cp.Seq, cp.StateDigest)
	return e.reSigned(env, cp)
}

// corrupted replaces the body with undecodable garbage re-signed by the
// sender, so the receiver's authenticator check passes it and the decode
// counts it — a malformed flood lands in DecodeFailures, not
// AuthFailures. Returns nil if signing fails (the original is kept).
func (e *endpoint) corrupted(env *types.Envelope) *types.Envelope {
	tmp := &types.Envelope{From: env.From, To: env.To, Type: env.Type}
	return e.signedBody(tmp, malformedBody())
}

// reSigned marshals msg into a fresh plain envelope addressed like env
// and signs it with the sender's key. Returns nil if signing fails.
func (e *endpoint) reSigned(env *types.Envelope, msg types.Message) *types.Envelope {
	tmp := &types.Envelope{From: env.From, To: env.To, Type: msg.Type()}
	return e.signedBody(tmp, types.MarshalBody(msg))
}

func (e *endpoint) signedBody(env *types.Envelope, body []byte) *types.Envelope {
	sig, err := e.auth.Sign(env.To, types.AuthenticatedBytes(env.Type, body))
	if err != nil {
		return nil
	}
	env.Body = body
	env.Auth = sig
	return env
}

// copyEnvelope deep-copies an envelope into a plain (pool- and
// arena-free) one, so a duplicate's lifetime is independent of the
// original's arena references.
func copyEnvelope(env *types.Envelope) *types.Envelope {
	return &types.Envelope{
		From: env.From,
		To:   env.To,
		Type: env.Type,
		Body: append([]byte(nil), env.Body...),
		Auth: append([]byte(nil), env.Auth...),
	}
}
