package crypto

import (
	stdcrypto "crypto"
	"crypto/ed25519"
	crsa "crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"resilientdb/internal/types"
)

// Directory derives and caches the key material for a whole deployment
// from a single master seed. Every node derives identical keys from the
// shared seed, which stands in for the out-of-band key provisioning a
// production permissioned deployment performs (identities are known a
// priori in a permissioned blockchain, Section 1). It is safe for
// concurrent use.
type Directory struct {
	cfg  Config
	seed [32]byte

	mu      sync.RWMutex
	edPriv  map[types.NodeID]ed25519.PrivateKey
	rsaPriv map[types.NodeID]*crsa.PrivateKey
	macs    map[pairKey]*cmacState
}

type pairKey struct{ lo, hi types.NodeID }

func orderedPair(a, b types.NodeID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{lo: a, hi: b}
}

// NewDirectory creates a Directory for cfg rooted at seed.
func NewDirectory(cfg Config, seed [32]byte) (*Directory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ClientScheme == CMAC {
		return nil, fmt.Errorf("crypto: client scheme must support forwarding; CMAC cannot (backups could not verify forwarded requests)")
	}
	return &Directory{
		cfg:     cfg,
		seed:    seed,
		edPriv:  make(map[types.NodeID]ed25519.PrivateKey),
		rsaPriv: make(map[types.NodeID]*crsa.PrivateKey),
		macs:    make(map[pairKey]*cmacState),
	}, nil
}

// NewDirectoryFromSeed creates a Directory rooted at an integer seed: the
// one rule every deployment mode (the in-process cluster, resdb-node,
// resdb-client, resdb-gateway) uses to turn a shared -seed into key
// material, so the same seed yields keys that verify each other's
// signatures whichever mode derived them.
func NewDirectoryFromSeed(cfg Config, seed int64) (*Directory, error) {
	var root [32]byte
	binary.LittleEndian.PutUint64(root[:8], uint64(seed))
	return NewDirectory(cfg, root)
}

// Config returns the directory's scheme configuration.
func (d *Directory) Config() Config { return d.cfg }

// derive produces 32 labeled pseudo-random bytes from the master seed.
func (d *Directory) derive(label string, a, b uint64) [32]byte {
	h := sha256.New()
	h.Write(d.seed[:])
	h.Write([]byte(label))
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], a)
	binary.BigEndian.PutUint64(buf[8:], b)
	h.Write(buf[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func (d *Directory) edKey(node types.NodeID) ed25519.PrivateKey {
	d.mu.RLock()
	k, ok := d.edPriv[node]
	d.mu.RUnlock()
	if ok {
		return k
	}
	seed := d.derive("ed25519", uint64(uint32(node)), 0)
	k = ed25519.NewKeyFromSeed(seed[:])
	d.mu.Lock()
	if existing, ok := d.edPriv[node]; ok {
		k = existing
	} else {
		d.edPriv[node] = k
	}
	d.mu.Unlock()
	return k
}

func (d *Directory) rsaKey(node types.NodeID) (*crsa.PrivateKey, error) {
	d.mu.RLock()
	k, ok := d.rsaPriv[node]
	d.mu.RUnlock()
	if ok {
		return k, nil
	}
	bits := d.cfg.RSABits
	if bits == 0 {
		bits = 2048
	}
	seed := d.derive("rsa", uint64(uint32(node)), uint64(bits))
	k, err := crsa.GenerateKey(newDRBG(seed), bits)
	if err != nil {
		return nil, fmt.Errorf("crypto: generating RSA key for %v: %w", node, err)
	}
	d.mu.Lock()
	if existing, ok := d.rsaPriv[node]; ok {
		k = existing
	} else {
		d.rsaPriv[node] = k
	}
	d.mu.Unlock()
	return k, nil
}

func (d *Directory) macState(a, b types.NodeID) (*cmacState, error) {
	p := orderedPair(a, b)
	d.mu.RLock()
	s, ok := d.macs[p]
	d.mu.RUnlock()
	if ok {
		return s, nil
	}
	raw := d.derive("cmac", uint64(uint32(p.lo)), uint64(uint32(p.hi)))
	var key CMACKey
	copy(key[:], raw[:16])
	s, err := newCMAC(key)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if existing, ok := d.macs[p]; ok {
		s = existing
	} else {
		d.macs[p] = s
	}
	d.mu.Unlock()
	return s, nil
}

// BatchVerifier is the optional batched form of Authenticator.Verify.
// VerifyBatch checks len(srcs) (src, msg, auth) triples and returns nil
// only when every one verifies; any non-nil error rejects the whole
// batch, and the caller re-verifies per signature to attribute it.
// Implementations must accept mixed sources.
type BatchVerifier interface {
	VerifyBatch(srcs []types.NodeID, msgs, auths [][]byte) error
}

// NodeAuthenticator is what a node authenticates with: an Authenticator
// that also verifies in batches and can sign or verify over a digest its
// caller already holds.
type NodeAuthenticator interface {
	Authenticator
	BatchVerifier
	// AppendSignDigest appends to b the authenticator Sign would return for
	// a message whose SHA-256 the caller already holds, and returns the
	// extended slice. A broadcast under a per-destination scheme hashes its
	// body once, not once per receiver, and writes each receiver's MAC into
	// that receiver's envelope (Envelope.AuthBuffer) without allocating.
	// With a nil b the result is a fresh slice, as Sign's is.
	AppendSignDigest(b []byte, dst types.NodeID, digest types.Digest) ([]byte, error)
	// VerifyDigest is Verify for a caller that already holds SHA-256(msg):
	// a decoded client request carries the digest its signature covers.
	VerifyDigest(src types.NodeID, digest types.Digest, auth []byte) error
}

// SignInto authenticates msg for dst as Sign does, and returns what
// env.Auth is to be set to: a per-destination MAC is written into env's own
// storage (Envelope.AuthBuffer) instead of a fresh slice; a signature,
// which the scheme allocates anyway, is Sign's result.
func SignInto(a NodeAuthenticator, env *types.Envelope, dst types.NodeID, msg []byte) ([]byte, error) {
	if !a.PerDestination() {
		return a.Sign(dst, msg)
	}
	return a.AppendSignDigest(env.AuthBuffer(), dst, Hash256(msg))
}

// NodeAuth returns the authenticator for one node: messages originated by
// clients use the client scheme, messages originated by replicas use the
// replica scheme. Every scheme authenticates SHA-256(msg), never msg: one
// hash per Sign or Verify whatever the scheme, so the cost of a MAC or a
// signature does not grow with the batch it covers (PBFT's authenticators
// are MACs over a message digest for the same reason).
func (d *Directory) NodeAuth(self types.NodeID) NodeAuthenticator {
	a := &nodeAuth{dir: d, self: self}
	if a.Kind() == ED25519 {
		a.edPriv = d.edKey(self)
	}
	return a
}

// nodeAuth hashes once and hands the digest to the scheme the message's
// origin selects. The schemes are arms of a switch rather than values
// behind an interface so that the digest stays on the caller's stack.
type nodeAuth struct {
	dir    *Directory
	self   types.NodeID
	edPriv ed25519.PrivateKey // this node's signing key under ED25519
	// peers holds, per peer, the key material signing for it and verifying
	// it take. The directory is shared by every node of a process — all
	// replicas and clients of a benchmark cluster — behind one lock, and
	// derived keys never change, so a node takes that lock once per peer
	// and reads its own copy from then on: a sync.Map load takes no lock
	// for a key that is in.
	peers sync.Map // types.NodeID → *peerKeys
}

// peerKeys is one peer's entry in a nodeAuth's cache.
type peerKeys struct {
	mac *cmacState        // the pair's CMAC state, when either side MACs
	pub ed25519.PublicKey // the peer's key, when it signs with ED25519
}

// keysFor returns peer's cached key material, deriving it on first use.
func (a *nodeAuth) keysFor(peer types.NodeID) (*peerKeys, error) {
	if k, ok := a.peers.Load(peer); ok {
		return k.(*peerKeys), nil
	}
	k := new(peerKeys)
	if a.Kind() == CMAC || a.schemeOf(peer) == CMAC {
		s, err := a.dir.macState(a.self, peer)
		if err != nil {
			return nil, err
		}
		k.mac = s
	}
	if a.schemeOf(peer) == ED25519 {
		pub, ok := a.dir.edKey(peer).Public().(ed25519.PublicKey)
		if !ok {
			return nil, ErrUnknownPeer
		}
		k.pub = pub
	}
	stored, _ := a.peers.LoadOrStore(peer, k)
	return stored.(*peerKeys), nil
}

// schemeOf returns the scheme messages originated by node carry.
func (a *nodeAuth) schemeOf(node types.NodeID) Kind {
	if node.IsClient() {
		return a.dir.cfg.ClientScheme
	}
	return a.dir.cfg.ReplicaScheme
}

// Sign implements Authenticator.
func (a *nodeAuth) Sign(dst types.NodeID, msg []byte) ([]byte, error) {
	if a.Kind() == None {
		return nil, nil // the measurement baseline pays for no hash either
	}
	return a.AppendSignDigest(nil, dst, Hash256(msg))
}

// AppendSignDigest implements NodeAuthenticator.
func (a *nodeAuth) AppendSignDigest(b []byte, dst types.NodeID, digest types.Digest) ([]byte, error) {
	switch a.Kind() {
	case None:
		return b, nil
	case ED25519:
		return appendSig(b, ed25519.Sign(a.edPriv, digest[:])), nil
	case RSA:
		key, err := a.dir.rsaKey(a.self)
		if err != nil {
			return nil, err
		}
		sig, err := crsa.SignPKCS1v15(nil, key, stdcrypto.SHA256, digest[:])
		if err != nil {
			return nil, fmt.Errorf("crypto: rsa sign: %w", err)
		}
		return appendSig(b, sig), nil
	default: // CMAC; Config.Validate admits nothing else
		k, err := a.keysFor(dst)
		if err != nil {
			return nil, err
		}
		tag := k.mac.Sum(digest[:])
		return append(b, tag[:]...), nil
	}
}

// appendSig appends a signature the scheme already allocated to b; with
// nothing to append to, the signature itself is the result.
func appendSig(b, sig []byte) []byte {
	if b == nil {
		return sig
	}
	return append(b, sig...)
}

// Verify implements Authenticator.
func (a *nodeAuth) Verify(src types.NodeID, msg, auth []byte) error {
	if a.schemeOf(src) == None {
		return nil // the measurement baseline pays for no hash either
	}
	return a.VerifyDigest(src, Hash256(msg), auth)
}

// VerifyDigest implements NodeAuthenticator.
func (a *nodeAuth) VerifyDigest(src types.NodeID, digest types.Digest, auth []byte) error {
	switch a.schemeOf(src) {
	case None:
	case ED25519:
		k, err := a.keysFor(src)
		if err != nil {
			return err
		}
		if !ed25519.Verify(k.pub, digest[:], auth) {
			return fmt.Errorf("%w: ed25519 from %v", ErrBadSignature, src)
		}
	case RSA:
		key, err := a.dir.rsaKey(src)
		if err != nil {
			return err
		}
		if err := crsa.VerifyPKCS1v15(&key.PublicKey, stdcrypto.SHA256, digest[:], auth); err != nil {
			return fmt.Errorf("%w: rsa from %v", ErrBadSignature, src)
		}
	default: // CMAC
		k, err := a.keysFor(src)
		if err != nil {
			return err
		}
		if !k.mac.Verify(digest[:], auth) {
			return fmt.Errorf("%w: cmac from %v", ErrBadSignature, src)
		}
	}
	return nil
}

// VerifyBatch implements BatchVerifier, failing fast on the first
// rejection. The standard library exposes no batched verification equation,
// so it is a loop over Verify under all four Section 5.6 configurations.
func (a *nodeAuth) VerifyBatch(srcs []types.NodeID, msgs, auths [][]byte) error {
	for i := range srcs {
		if err := a.Verify(srcs[i], msgs[i], auths[i]); err != nil {
			return err
		}
	}
	return nil
}

// PerDestination implements Authenticator: only MACs are pairwise.
func (a *nodeAuth) PerDestination() bool { return a.Kind() == CMAC }

// Kind implements Authenticator.
func (a *nodeAuth) Kind() Kind { return a.schemeOf(a.self) }

// drbg is a deterministic SHA-256 counter-mode byte stream used to derive
// reproducible RSA keys from the master seed. It is NOT a secure RNG for
// production key generation; it exists so every node in a test deployment
// derives the same directory without key exchange.
type drbg struct {
	seed    [32]byte
	counter uint64
	buf     []byte
}

func newDRBG(seed [32]byte) *drbg { return &drbg{seed: seed} }

// Read implements io.Reader with an inexhaustible pseudo-random stream.
func (d *drbg) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(d.buf) == 0 {
			h := sha256.New()
			h.Write(d.seed[:])
			var c [8]byte
			binary.BigEndian.PutUint64(c[:], d.counter)
			d.counter++
			h.Write(c[:])
			d.buf = h.Sum(nil)
		}
		c := copy(p[n:], d.buf)
		d.buf = d.buf[c:]
		n += c
	}
	return n, nil
}
