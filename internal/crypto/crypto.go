// Package crypto is the secure layer of the fabric (paper Figure 5): the
// signing toolkit and the hashing toolkit.
//
// It implements the four signature configurations evaluated in Section 5.6:
//
//   - no signatures at all (unsafe; measurement baseline only),
//   - digital signatures everywhere using ED25519,
//   - digital signatures everywhere using RSA,
//   - the recommended combination: replicas authenticate each other with
//     AES-CMAC message authentication codes while clients sign requests
//     with ED25519 digital signatures (Section 6, "Cryptographic
//     Signatures": MACs suffice between replicas because no replica
//     forwards another replica's messages, so non-repudiation is implicit).
//
// Authenticators are addressed per destination because MACs are pairwise:
// a broadcast under CMAC produces one authenticator per receiver (a MAC
// vector), whereas a digital signature is computed once and reused.
package crypto

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"resilientdb/internal/types"
)

// Kind selects a signing scheme. Values start at one so the zero value is
// invalid and must be set explicitly.
type Kind int

// Supported signing schemes.
const (
	None Kind = iota + 1
	ED25519
	RSA
	CMAC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case ED25519:
		return "ed25519"
	case RSA:
		return "rsa"
	case CMAC:
		return "cmac-aes"
	default:
		return "invalid"
	}
}

// ErrBadSignature is returned when an authenticator fails verification.
var ErrBadSignature = errors.New("crypto: signature verification failed")

// ErrUnknownPeer is returned when no key material exists for a peer.
var ErrUnknownPeer = errors.New("crypto: unknown peer")

// Authenticator signs outgoing message bodies and verifies incoming ones
// on behalf of one node.
type Authenticator interface {
	// Sign produces the authenticator for msg addressed to dst.
	Sign(dst types.NodeID, msg []byte) ([]byte, error)
	// Verify checks an authenticator allegedly produced by src over msg.
	Verify(src types.NodeID, msg, auth []byte) error
	// PerDestination reports whether Sign output depends on dst. When
	// false, a broadcast may compute one authenticator and reuse it for
	// every receiver; when true (MAC schemes) each receiver needs its own.
	PerDestination() bool
	// Kind identifies the scheme.
	Kind() Kind
}

// Config selects the scheme for each communication class, mirroring the
// four experimental configurations of Section 5.6.
type Config struct {
	// ReplicaScheme authenticates replica-to-replica and replica-to-client
	// traffic.
	ReplicaScheme Kind
	// ClientScheme authenticates client requests. It must be a digital
	// signature scheme (or None) because pre-prepares forward client
	// requests to backups, which must be able to verify them.
	ClientScheme Kind
	// RSABits sets the RSA modulus size; 0 means 2048.
	RSABits int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.ReplicaScheme {
	case None, ED25519, RSA, CMAC:
	default:
		return fmt.Errorf("crypto: invalid replica scheme %d", c.ReplicaScheme)
	}
	switch c.ClientScheme {
	case None, ED25519, RSA, CMAC:
	default:
		return fmt.Errorf("crypto: invalid client scheme %d", c.ClientScheme)
	}
	return nil
}

// NoSig returns the configuration with signatures disabled everywhere.
func NoSig() Config { return Config{ReplicaScheme: None, ClientScheme: None} }

// AllED25519 returns the all-digital-signature ED25519 configuration.
func AllED25519() Config { return Config{ReplicaScheme: ED25519, ClientScheme: ED25519} }

// AllRSA returns the all-digital-signature RSA configuration.
func AllRSA() Config { return Config{ReplicaScheme: RSA, ClientScheme: RSA} }

// Recommended returns the paper's recommended configuration: CMAC between
// replicas, ED25519 client signatures.
func Recommended() Config { return Config{ReplicaScheme: CMAC, ClientScheme: ED25519} }

// Hash256 returns the SHA-256 digest of b. It is the hashing toolkit's
// standard digest (Section 3 mandates SHA256/SHA3-class functions).
func Hash256(b []byte) types.Digest { return sha256.Sum256(b) }

// HashChain extends a Zyzzyva-style history hash: h' = H(h || d).
func HashChain(h, d types.Digest) types.Digest {
	var buf [64]byte
	copy(buf[:32], h[:])
	copy(buf[32:], d[:])
	return sha256.Sum256(buf[:])
}
