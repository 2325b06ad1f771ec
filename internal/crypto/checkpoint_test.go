package crypto

import (
	"errors"
	"testing"

	"resilientdb/internal/types"
)

// TestCheckpointVoteSignatures: a replica's checkpoint signature verifies
// as that replica's vote for that (seq, digest) under every link scheme —
// CMAC links included — and as nothing else: another seq, another digest,
// another replica, a client's key, a replica outside the deployment. Signing
// and verifying a vote allocate nothing, so a vote that carries one inline
// costs the checkpoint path no allocation.
func TestCheckpointVoteSignatures(t *testing.T) {
	for _, cfg := range []Config{Recommended(), NoSig(), AllED25519()} {
		dir := testDirectory(t, cfg)
		keys := dir.CheckpointKeys(4)
		seq, d := types.SeqNum(100), types.Digest{0xC0}
		sig := dir.SignCheckpoint(types.ReplicaNode(2), seq, d)
		if err := keys.VerifyCheckpoint(2, seq, d, &sig); err != nil {
			t.Fatalf("%v: replica 2's own vote: %v", cfg, err)
		}
		client := dir.SignCheckpoint(types.ClientNode(2), seq, d)
		for _, bad := range []struct {
			name string
			r    types.ReplicaID
			seq  types.SeqNum
			d    types.Digest
			sig  *types.Signature
		}{
			{"another seq", 2, seq + 25, d, &sig},
			{"another digest", 2, seq, types.Digest{0xC1}, &sig},
			{"another replica", 1, seq, d, &sig},
			{"a client's key", 2, seq, d, &client},
			{"outside the deployment", 4, seq, d, &sig},
		} {
			if err := keys.VerifyCheckpoint(bad.r, bad.seq, bad.d, bad.sig); err == nil {
				t.Fatalf("%v: %s verified", cfg, bad.name)
			} else if !errors.Is(err, ErrBadSignature) && !errors.Is(err, ErrUnknownPeer) {
				t.Fatalf("%v: %s: %v", cfg, bad.name, err)
			}
		}
	}

	dir := testDirectory(t, Recommended())
	keys := dir.CheckpointKeys(4)
	var sig types.Signature
	sign := testing.AllocsPerRun(50, func() {
		sig = dir.SignCheckpoint(types.ReplicaNode(1), 7, types.Digest{7})
	})
	verify := testing.AllocsPerRun(50, func() {
		if err := keys.VerifyCheckpoint(1, 7, types.Digest{7}, &sig); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per checkpoint vote: sign %.0f, verify %.0f", sign, verify)
	if sign != 0 || verify != 0 {
		t.Fatalf("signing a checkpoint vote allocates %.0f and verifying it %.0f, want 0 and 0", sign, verify)
	}
}
