package crypto

import (
	"testing"

	"resilientdb/internal/types"
)

// BenchmarkVerifyPool measures the submit/await round for a window of
// ed25519 signatures over two workers: what a batch-thread pays to have a
// batch's client signatures checked.
func BenchmarkVerifyPool(b *testing.B) {
	dir, err := NewDirectory(AllED25519(), [32]byte{5})
	if err != nil {
		b.Fatal(err)
	}
	signer := dir.NodeAuth(types.ReplicaNode(1))
	verifier := dir.NodeAuth(types.ReplicaNode(0))
	msg := []byte("benchmark verification message")
	sig, err := signer.Sign(types.ReplicaNode(0), msg)
	if err != nil {
		b.Fatal(err)
	}
	digest := Hash256(msg)
	pool := NewVerifyPool(verifier, 2, 256)
	defer pool.Close()

	const window = 64
	pending := make([]*Pending, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pending {
			pending[j] = pool.SubmitDigestPooled(types.ReplicaNode(1), digest, sig)
		}
		for _, pd := range pending {
			if err := pd.Await(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
