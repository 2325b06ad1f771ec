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

	results := make([]*Pending, n)
	for i := range msgs {
		results[i] = pool.SubmitDigestPooled(types.ReplicaNode(1), Hash256(msgs[i]), sigs[i])
	}
	for i, pd := range results {
		err := pd.Await()
		if i%3 == 0 && err == nil {
			t.Fatalf("job %d: corrupted signature verified", i)
		}
		if i%3 != 0 && err != nil {
			t.Fatalf("job %d: valid signature rejected: %v", i, err)
		}
	}
}

// TestVerifyPoolConcurrentSubmitters hammers the submit/await round from
// many goroutines; run with -race it checks the Pending/done-channel
// recycling for ownership bugs.
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
				if err := pool.SubmitDigestPooled(types.ReplicaNode(1), Hash256(msg), sig).Await(); err != nil {
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
	results := make([]*Pending, 16)
	for i := range results {
		results[i] = pool.SubmitDigestPooled(types.ReplicaNode(1), Hash256(msg), sig)
	}
	pool.Close()
	pool.Close() // idempotent
	for i, pd := range results {
		if err := pd.Await(); err != nil {
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
// rejects the whole batch.
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
