package crypto

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"

	"resilientdb/internal/types"
)

// checkpointDomain prefixes what a checkpoint vote's signature covers, so
// no other message a node signs can be taken for a checkpoint vote.
const checkpointDomain = "resilientdb checkpoint v1\x00"

// checkpointMessage is the signed form of a checkpoint vote: the domain,
// the sequence number and the checkpoint digest.
func checkpointMessage(seq types.SeqNum, digest types.Digest) [len(checkpointDomain) + 8 + 32]byte {
	var m [len(checkpointDomain) + 8 + 32]byte
	n := copy(m[:], checkpointDomain)
	binary.BigEndian.PutUint64(m[n:], uint64(seq))
	copy(m[n+8:], digest[:])
	return m
}

// SignCheckpoint returns node's signature over the checkpoint vote (seq,
// digest), made with node's ED25519 key whatever scheme its links use: a
// stable checkpoint's certificate is checked by whoever holds the public
// keys, so it cannot be a pairwise MAC.
func (d *Directory) SignCheckpoint(node types.NodeID, seq types.SeqNum, digest types.Digest) types.Signature {
	m := checkpointMessage(seq, digest)
	var sig types.Signature
	copy(sig[:], ed25519.Sign(d.edKey(node), m[:]))
	return sig
}

// CheckpointKeys verifies the checkpoint votes of an n-replica deployment
// against the replicas' ED25519 public keys. It is safe for concurrent use.
type CheckpointKeys struct {
	pubs []ed25519.PublicKey // indexed by replica id
}

// CheckpointKeys returns the verifier for replicas 0..n-1.
func (d *Directory) CheckpointKeys(n int) *CheckpointKeys {
	k := &CheckpointKeys{pubs: make([]ed25519.PublicKey, n)}
	for i := range k.pubs {
		priv := d.edKey(types.ReplicaNode(types.ReplicaID(i)))
		k.pubs[i] = ed25519.PublicKey(priv[ed25519.SeedSize:])
	}
	return k
}

// VerifyCheckpoint checks that sig is replica r's signature over the
// checkpoint vote (seq, digest). A replica id outside the deployment is
// refused like a bad signature.
func (k *CheckpointKeys) VerifyCheckpoint(r types.ReplicaID, seq types.SeqNum, digest types.Digest, sig *types.Signature) error {
	if int(r) >= len(k.pubs) {
		return fmt.Errorf("%w: checkpoint vote from replica %d of %d", ErrUnknownPeer, r, len(k.pubs))
	}
	m := checkpointMessage(seq, digest)
	if !ed25519.Verify(k.pubs[r], m[:], sig[:]) {
		return fmt.Errorf("%w: checkpoint vote from replica %d at seq %d", ErrBadSignature, r, seq)
	}
	return nil
}
