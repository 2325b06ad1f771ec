package crypto

import (
	"sync"

	"resilientdb/internal/types"
)

// VerifyPool fans signature verification out across a fixed set of worker
// goroutines, for a caller that holds many independent signatures at once:
// a batch-thread with a batch's client requests. Signature verification is
// one of the two dominant costs on a replica's receive path (paper Section
// 3, "Expensive Cryptographic Practices"); verifying a batch's signatures
// one after another on the batch-thread serializes them, while a pool
// verifies them concurrently.
//
// Each submission returns a one-shot Pending, so a caller that must
// preserve order submits a window, then awaits the results in submission
// order while the verifications themselves run in parallel.
//
// A single authenticator on a single message has no fan-out, and the pool
// is the wrong tool for it: the hand-off to a worker and back costs more
// than a MAC and orders nothing. A replica's input-threads check the
// envelope they dequeued themselves.
type VerifyPool struct {
	auth      NodeAuthenticator
	jobs      chan verifyJob
	wg        sync.WaitGroup
	closeOnce sync.Once

	donePool sync.Pool // chan error, cap 1
	pendPool sync.Pool // *Pending
}

// verifyJob is one submission: a signature over the digest its submitter
// already held.
type verifyJob struct {
	src    types.NodeID
	digest types.Digest
	auth   []byte
	done   chan error
}

// NewVerifyPool starts a pool of workers verifying with auth. queue bounds
// the number of submitted-but-unclaimed jobs; a submission blocks
// (backpressure) when it fills.
func NewVerifyPool(auth NodeAuthenticator, workers, queue int) *VerifyPool {
	if workers < 1 {
		workers = 1
	}
	if queue < workers {
		queue = workers * 16
	}
	p := &VerifyPool{auth: auth, jobs: make(chan verifyJob, queue)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *VerifyPool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		j.done <- p.auth.VerifyDigest(j.src, j.digest, j.auth)
	}
}

// Pending is one in-flight verification. Await must be called exactly
// once; it returns the result and recycles both the Pending and its
// channel back into the pool.
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

// SubmitDigestPooled enqueues the verification of auth over digest — the
// SHA-256 of the message, which the submitter already holds, so the worker
// hashes nothing — and hands back a pooled Pending: the submit/await round
// allocates nothing in steady state. The result channel is buffered, so
// workers never block on delivery and the caller may await whenever
// convenient. Must not be called after Close.
func (p *VerifyPool) SubmitDigestPooled(src types.NodeID, digest types.Digest, auth []byte) *Pending {
	pd, _ := p.pendPool.Get().(*Pending)
	if pd == nil {
		pd = &Pending{}
	}
	ch, _ := p.donePool.Get().(chan error)
	if ch == nil {
		ch = make(chan error, 1)
	}
	pd.p, pd.ch = p, ch
	p.jobs <- verifyJob{src: src, digest: digest, auth: auth, done: ch}
	return pd
}

// Close drains outstanding jobs and stops the workers. Results already
// promised by a submission are still delivered.
func (p *VerifyPool) Close() {
	p.closeOnce.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}
