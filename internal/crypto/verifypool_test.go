package crypto

import (
	"sync"
	"testing"

	"resilientdb/internal/types"
)

func poolDirectory(t *testing.T) *Directory {
	t.Helper()
	dir, err := NewDirectory(Recommended(), [32]byte{7})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestVerifyPoolParallelVerdicts(t *testing.T) {
	dir := poolDirectory(t)
	signer := dir.NodeAuth(types.ReplicaNode(1))
	verifier := dir.NodeAuth(types.ReplicaNode(0))

	pool := NewVerifyPool(verifier, 4, 64)
	defer pool.Close()

	const n = 200
	msgs := make([][]byte, n)
	sigs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i >> 8), 0x5A}
		sig, err := signer.Sign(types.ReplicaNode(0), msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	// Corrupt every third signature.
	for i := 0; i < n; i += 3 {
		sigs[i] = append([]byte(nil), sigs[i]...)
		sigs[i][0] ^= 0xFF
	}

	results := make([]<-chan error, n)
	for i := range msgs {
		results[i] = pool.Submit(types.ReplicaNode(1), msgs[i], sigs[i])
	}
	for i, ch := range results {
		err := <-ch
		if i%3 == 0 && err == nil {
			t.Fatalf("job %d: corrupted signature verified", i)
		}
		if i%3 != 0 && err != nil {
			t.Fatalf("job %d: valid signature rejected: %v", i, err)
		}
	}
}

func TestVerifyPoolConcurrentSubmitters(t *testing.T) {
	dir := poolDirectory(t)
	signer := dir.NodeAuth(types.ReplicaNode(1))
	verifier := dir.NodeAuth(types.ReplicaNode(0))
	msg := []byte("shared message")
	sig, err := signer.Sign(types.ReplicaNode(0), msg)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewVerifyPool(verifier, 3, 8)
	defer pool.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := <-pool.Submit(types.ReplicaNode(1), msg, sig); err != nil {
					t.Errorf("verify: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestVerifyPoolCloseDeliversOutstanding(t *testing.T) {
	dir := poolDirectory(t)
	signer := dir.NodeAuth(types.ReplicaNode(1))
	verifier := dir.NodeAuth(types.ReplicaNode(0))
	msg := []byte("late result")
	sig, err := signer.Sign(types.ReplicaNode(0), msg)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewVerifyPool(verifier, 1, 32)
	results := make([]<-chan error, 16)
	for i := range results {
		results[i] = pool.Submit(types.ReplicaNode(1), msg, sig)
	}
	pool.Close()
	pool.Close() // idempotent
	for i, ch := range results {
		if err := <-ch; err != nil {
			t.Fatalf("job %d lost across Close: %v", i, err)
		}
	}
}

func ed25519Directory(t *testing.T) *Directory {
	t.Helper()
	dir, err := NewDirectory(AllED25519(), [32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestVerifyBatchDirect exercises the BatchVerifier implementations
// themselves: an all-valid batch passes, and a single corrupted signature
// rejects the whole batch (the pool then re-verifies per signature).
func TestVerifyBatchDirect(t *testing.T) {
	dir := ed25519Directory(t)
	signer := dir.NodeAuth(types.ReplicaNode(1))
	verifier := dir.NodeAuth(types.ReplicaNode(0))
	b, ok := verifier.(BatchVerifier)
	if !ok {
		t.Fatalf("%T does not implement BatchVerifier", verifier)
	}

	const n = 12
	srcs := make([]types.NodeID, n)
	msgs := make([][]byte, n)
	auths := make([][]byte, n)
	for i := range msgs {
		srcs[i] = types.ReplicaNode(1)
		msgs[i] = []byte{byte(i), 0xC3}
		sig, err := signer.Sign(types.ReplicaNode(0), msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		auths[i] = sig
	}
	if err := b.VerifyBatch(srcs, msgs, auths); err != nil {
		t.Fatalf("all-valid batch rejected: %v", err)
	}
	auths[7] = append([]byte(nil), auths[7]...)
	auths[7][3] ^= 0x40
	if err := b.VerifyBatch(srcs, msgs, auths); err == nil {
		t.Fatal("batch with a corrupted signature accepted")
	}
}

// TestVerifyPoolBatchedVerdicts runs the batched pool over a mixed
// valid/corrupted stream: every verdict must be attributed to exactly the
// right submission even when the batch-level check rejects and the worker
// falls back to per-signature verification. Every third submission hands
// the pool the digest instead of the message: those share the batch's
// wake-up, are answered over the digest, and must neither take a verdict
// from nor give one to the messages batched around them.
func TestVerifyPoolBatchedVerdicts(t *testing.T) {
	dir := ed25519Directory(t)
	signer := dir.NodeAuth(types.ReplicaNode(1))
	verifier := dir.NodeAuth(types.ReplicaNode(0))

	pool := NewVerifyPoolBatch(verifier, 2, 256, 0)
	defer pool.Close()

	const n = 240
	msgs := make([][]byte, n)
	sigs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i >> 8), 0x11}
		sig, err := signer.Sign(types.ReplicaNode(0), msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	for i := 0; i < n; i += 5 {
		sigs[i] = append([]byte(nil), sigs[i]...)
		sigs[i][0] ^= 0xFF
	}
	pending := make([]*Pending, n)
	for i := range msgs {
		if i%3 == 0 {
			pending[i] = pool.SubmitDigestPooled(types.ReplicaNode(1), Hash256(msgs[i]), sigs[i])
		} else {
			pending[i] = pool.SubmitPooled(types.ReplicaNode(1), msgs[i], sigs[i])
		}
	}
	for i, pd := range pending {
		err := pd.Await()
		if i%5 == 0 && err == nil {
			t.Fatalf("job %d: corrupted signature verified", i)
		}
		if i%5 != 0 && err != nil {
			t.Fatalf("job %d: valid signature rejected: %v", i, err)
		}
	}
}

// TestVerifyPoolBatchedCounter checks that a saturated single-worker pool
// actually verifies in batches: with ed25519 verification slow relative to
// submission, the queue backs up and the worker drains multi-signature
// windows, so the counter must move.
func TestVerifyPoolBatchedCounter(t *testing.T) {
	dir := ed25519Directory(t)
	signer := dir.NodeAuth(types.ReplicaNode(1))
	verifier := dir.NodeAuth(types.ReplicaNode(0))

	pool := NewVerifyPoolBatch(verifier, 1, 512, 0)
	defer pool.Close()

	msg := []byte("batched counter message")
	sig, err := signer.Sign(types.ReplicaNode(0), msg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	pending := make([]*Pending, n)
	for i := range pending {
		pending[i] = pool.SubmitPooled(types.ReplicaNode(1), msg, sig)
	}
	for _, pd := range pending {
		if err := pd.Await(); err != nil {
			t.Fatal(err)
		}
	}
	if pool.BatchedVerifies() == 0 {
		t.Fatal("saturated pool never verified a batch")
	}
}

// TestSubmitPooledConcurrent hammers the pooled submit/await round from
// many goroutines; run with -race it checks the Pending/done-channel
// recycling for ownership bugs.
func TestSubmitPooledConcurrent(t *testing.T) {
	dir := poolDirectory(t)
	signer := dir.NodeAuth(types.ReplicaNode(1))
	verifier := dir.NodeAuth(types.ReplicaNode(0))
	msg := []byte("pooled concurrent")
	sig, err := signer.Sign(types.ReplicaNode(0), msg)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewVerifyPoolBatch(verifier, 3, 64, 0)
	defer pool.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := pool.SubmitPooled(types.ReplicaNode(1), msg, sig).Await(); err != nil {
					t.Errorf("verify: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
