package crypto

import (
	"sync"
	"sync/atomic"

	"resilientdb/internal/types"
)

// VerifyPool fans authenticator verification out across a fixed set of
// worker goroutines. Signature verification is one of the two dominant
// costs on a replica's receive path (paper Section 3, "Expensive
// Cryptographic Practices"); verifying on the single worker-thread
// serializes it behind consensus processing, while a pool verifies many
// messages concurrently and hands downstream stages only authenticated
// traffic.
//
// Each Submit returns a one-shot result channel, so a caller that must
// preserve message order (consensus engines expect per-connection FIFO)
// can submit a window of messages, then await the results in submission
// order while the verifications themselves run in parallel.
//
// When the pool is built with a batch window > 1, each worker drains up
// to that many pending submissions per wakeup and verifies them as one
// batch: a single dispatch and a single batched check amortizes the
// per-signature channel and scheduling cost under load, while an idle pool
// still verifies each message the moment it arrives. A rejected batch
// falls back to per-signature verification so the failure is attributed to
// exactly the message that caused it.
type VerifyPool struct {
	auth      NodeAuthenticator
	batchMax  int // 1 disables batched verification
	jobs      chan verifyJob
	wg        sync.WaitGroup
	closeOnce sync.Once

	donePool sync.Pool // chan error, cap 1
	pendPool sync.Pool // *Pending
	batched  atomic.Uint64
}

// BatchVerifier is the optional batched form of Authenticator.Verify.
// VerifyBatch checks len(srcs) (src, msg, auth) triples and returns nil
// only when every one verifies; any non-nil error rejects the whole
// batch, and the caller re-verifies per signature to attribute it.
// Implementations must accept mixed sources (the pool does not sort
// client and replica traffic apart).
type BatchVerifier interface {
	VerifyBatch(srcs []types.NodeID, msgs, auths [][]byte) error
}

// verifyJob is one submission: over msg, or — hashed — over the digest
// its submitter already held.
type verifyJob struct {
	src    types.NodeID
	msg    []byte
	digest types.Digest
	hashed bool
	auth   []byte
	done   chan error
}

// verify checks one job the way it was submitted.
func (p *VerifyPool) verify(j *verifyJob) error {
	if j.hashed {
		return p.auth.VerifyDigest(j.src, j.digest, j.auth)
	}
	return p.auth.Verify(j.src, j.msg, j.auth)
}

// DefaultVerifyBatch is the batch window NewVerifyPoolBatch applies when
// the caller passes 0.
const DefaultVerifyBatch = 16

// NewVerifyPool starts a pool of workers verifying with auth, one
// signature at a time. queue bounds the number of submitted-but-unclaimed
// jobs; Submit blocks (backpressure) when it fills.
func NewVerifyPool(auth NodeAuthenticator, workers, queue int) *VerifyPool {
	return NewVerifyPoolBatch(auth, workers, queue, 1)
}

// NewVerifyPoolBatch is NewVerifyPool with a batch window: each worker
// claims up to batchMax pending submissions per wakeup and verifies them
// with one VerifyBatch call. batchMax 0 means DefaultVerifyBatch; 1
// disables batching.
func NewVerifyPoolBatch(auth NodeAuthenticator, workers, queue, batchMax int) *VerifyPool {
	if workers < 1 {
		workers = 1
	}
	if queue < workers {
		queue = workers * 16
	}
	if batchMax == 0 {
		batchMax = DefaultVerifyBatch
	}
	if batchMax < 1 {
		batchMax = 1
	}
	p := &VerifyPool{auth: auth, batchMax: batchMax, jobs: make(chan verifyJob, queue)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *VerifyPool) worker() {
	defer p.wg.Done()
	if p.batchMax == 1 {
		for j := range p.jobs {
			j.done <- p.verify(&j)
		}
		return
	}
	batch := make([]verifyJob, 0, p.batchMax)
	srcs := make([]types.NodeID, 0, p.batchMax)
	msgs := make([][]byte, 0, p.batchMax)
	auths := make([][]byte, 0, p.batchMax)
	for j := range p.jobs {
		batch = append(batch[:0], j)
	drain:
		// Claim whatever else is already queued, up to the window, without
		// blocking — latency of the first message never waits on a fill.
		for len(batch) < p.batchMax {
			select {
			case j2, ok := <-p.jobs:
				if !ok {
					break drain
				}
				batch = append(batch, j2)
			default:
				break drain
			}
		}
		if len(batch) == 1 {
			batch[0].done <- p.verify(&batch[0])
			continue
		}
		// A submission that came with its digest shares the wake-up only:
		// VerifyBatch takes messages, so it is answered on its own and
		// the rest go down as one batch.
		srcs, msgs, auths = srcs[:0], msgs[:0], auths[:0]
		rest := batch[:0]
		for i := range batch {
			b := &batch[i]
			if b.hashed {
				b.done <- p.verify(b)
				continue
			}
			srcs = append(srcs, b.src)
			msgs = append(msgs, b.msg)
			auths = append(auths, b.auth)
			rest = append(rest, *b)
		}
		if len(rest) == 0 {
			continue
		}
		if err := p.auth.VerifyBatch(srcs, msgs, auths); err == nil {
			p.batched.Add(uint64(len(rest)))
			for _, b := range rest {
				b.done <- nil
			}
		} else {
			// The batch carries at least one bad signature; attribute it.
			for i := range rest {
				rest[i].done <- p.verify(&rest[i])
			}
		}
	}
}

// Submit enqueues one verification and returns the channel its result
// will be delivered on (nil error means the authenticator verified). The
// channel is buffered: workers never block on delivery, and the caller
// may await it whenever convenient. Submit must not be called after
// Close. Hot paths that await every result should prefer SubmitPooled,
// which recycles the result channel.
func (p *VerifyPool) Submit(src types.NodeID, msg, auth []byte) <-chan error {
	done := make(chan error, 1)
	p.jobs <- verifyJob{src: src, msg: msg, auth: auth, done: done}
	return done
}

// Pending is one in-flight verification submitted with SubmitPooled.
// Await must be called exactly once; it returns the result and recycles
// both the Pending and its channel back into the pool.
type Pending struct {
	p  *VerifyPool
	ch chan error
}

// Await blocks for the verification result (nil means verified) and
// recycles the Pending. The Pending must not be touched afterwards.
func (pd *Pending) Await() error {
	err := <-pd.ch
	p := pd.p
	ch := pd.ch
	pd.p, pd.ch = nil, nil
	p.donePool.Put(ch)
	p.pendPool.Put(pd)
	return err
}

// SubmitPooled enqueues one verification like Submit but hands back a
// pooled Pending instead of a fresh channel, making the submit/await
// round allocation-free in steady state. Must not be called after Close.
func (p *VerifyPool) SubmitPooled(src types.NodeID, msg, auth []byte) *Pending {
	return p.submitPooled(verifyJob{src: src, msg: msg, auth: auth})
}

// SubmitDigestPooled is SubmitPooled for a submitter that already holds
// SHA-256 of the message: the worker verifies over the digest and hashes
// nothing.
func (p *VerifyPool) SubmitDigestPooled(src types.NodeID, digest types.Digest, auth []byte) *Pending {
	return p.submitPooled(verifyJob{src: src, digest: digest, hashed: true, auth: auth})
}

func (p *VerifyPool) submitPooled(j verifyJob) *Pending {
	pd, _ := p.pendPool.Get().(*Pending)
	if pd == nil {
		pd = &Pending{}
	}
	ch, _ := p.donePool.Get().(chan error)
	if ch == nil {
		ch = make(chan error, 1)
	}
	pd.p, pd.ch = p, ch
	j.done = ch
	p.jobs <- j
	return pd
}

// BatchedVerifies returns how many signatures were accepted via batched
// verification (per-signature fallbacks and singleton wakeups excluded).
func (p *VerifyPool) BatchedVerifies() uint64 { return p.batched.Load() }

// Close drains outstanding jobs and stops the workers. Results already
// promised by Submit are still delivered.
func (p *VerifyPool) Close() {
	p.closeOnce.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}
