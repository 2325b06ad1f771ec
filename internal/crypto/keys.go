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

// schemeAuth builds an authenticator of the given kind acting as self.
func (d *Directory) schemeAuth(kind Kind, self types.NodeID) Authenticator {
	switch kind {
	case None:
		return noopAuth{}
	case ED25519:
		return &edAuth{dir: d, self: self}
	case RSA:
		return &rsaAuth{dir: d, self: self}
	case CMAC:
		return &macAuth{dir: d, self: self}
	default:
		return noopAuth{}
	}
}

// NodeAuth returns the combined authenticator for one node: messages
// originated by clients use the client scheme, messages originated by
// replicas use the replica scheme.
func (d *Directory) NodeAuth(self types.NodeID) Authenticator {
	return &combinedAuth{
		self:    self,
		client:  d.schemeAuth(d.cfg.ClientScheme, self),
		replica: d.schemeAuth(d.cfg.ReplicaScheme, self),
	}
}

// combinedAuth routes to the client or replica scheme by message origin.
type combinedAuth struct {
	self    types.NodeID
	client  Authenticator
	replica Authenticator
}

var _ Authenticator = (*combinedAuth)(nil)

func (c *combinedAuth) own() Authenticator {
	if c.self.IsClient() {
		return c.client
	}
	return c.replica
}

// Sign implements Authenticator.
func (c *combinedAuth) Sign(dst types.NodeID, msg []byte) ([]byte, error) {
	return c.own().Sign(dst, msg)
}

// Verify implements Authenticator.
func (c *combinedAuth) Verify(src types.NodeID, msg, auth []byte) error {
	if src.IsClient() {
		return c.client.Verify(src, msg, auth)
	}
	return c.replica.Verify(src, msg, auth)
}

// VerifyBatch implements BatchVerifier by routing each triple to the
// scheme its source class uses, failing fast on the first rejection. It
// makes every node authenticator batchable, so the verify pool's batch
// window applies under all four Section 5.6 configurations; the win is
// the amortized wakeup, not a batched equation, except where the
// underlying scheme provides one.
func (c *combinedAuth) VerifyBatch(srcs []types.NodeID, msgs, auths [][]byte) error {
	for i := range srcs {
		if err := c.Verify(srcs[i], msgs[i], auths[i]); err != nil {
			return err
		}
	}
	return nil
}

// PerDestination implements Authenticator.
func (c *combinedAuth) PerDestination() bool { return c.own().PerDestination() }

// Kind implements Authenticator.
func (c *combinedAuth) Kind() Kind { return c.own().Kind() }

// edAuth signs with ED25519 digital signatures.
type edAuth struct {
	dir  *Directory
	self types.NodeID
}

var _ Authenticator = (*edAuth)(nil)

// Sign implements Authenticator.
func (a *edAuth) Sign(_ types.NodeID, msg []byte) ([]byte, error) {
	return ed25519.Sign(a.dir.edKey(a.self), msg), nil
}

// Verify implements Authenticator.
func (a *edAuth) Verify(src types.NodeID, msg, auth []byte) error {
	pub, ok := a.dir.edKey(src).Public().(ed25519.PublicKey)
	if !ok {
		return ErrUnknownPeer
	}
	if !ed25519.Verify(pub, msg, auth) {
		return fmt.Errorf("%w: ed25519 from %v", ErrBadSignature, src)
	}
	return nil
}

// VerifyBatch implements BatchVerifier. The standard library exposes no
// batched ed25519 verification equation, so each signature is checked
// individually; batching still pays for itself because the pool delivers
// one wakeup, one public-key lookup loop, and one result sweep per batch
// instead of per signature.
func (a *edAuth) VerifyBatch(srcs []types.NodeID, msgs, auths [][]byte) error {
	for i := range srcs {
		if err := a.Verify(srcs[i], msgs[i], auths[i]); err != nil {
			return err
		}
	}
	return nil
}

// PerDestination implements Authenticator.
func (a *edAuth) PerDestination() bool { return false }

// Kind implements Authenticator.
func (a *edAuth) Kind() Kind { return ED25519 }

// rsaAuth signs SHA-256 digests with RSA PKCS#1 v1.5.
type rsaAuth struct {
	dir  *Directory
	self types.NodeID
}

var _ Authenticator = (*rsaAuth)(nil)

// Sign implements Authenticator.
func (a *rsaAuth) Sign(_ types.NodeID, msg []byte) ([]byte, error) {
	key, err := a.dir.rsaKey(a.self)
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256(msg)
	sig, err := crsa.SignPKCS1v15(nil, key, stdcrypto.SHA256, digest[:])
	if err != nil {
		return nil, fmt.Errorf("crypto: rsa sign: %w", err)
	}
	return sig, nil
}

// Verify implements Authenticator.
func (a *rsaAuth) Verify(src types.NodeID, msg, auth []byte) error {
	key, err := a.dir.rsaKey(src)
	if err != nil {
		return err
	}
	digest := sha256.Sum256(msg)
	if err := crsa.VerifyPKCS1v15(&key.PublicKey, stdcrypto.SHA256, digest[:], auth); err != nil {
		return fmt.Errorf("%w: rsa from %v", ErrBadSignature, src)
	}
	return nil
}

// PerDestination implements Authenticator.
func (a *rsaAuth) PerDestination() bool { return false }

// Kind implements Authenticator.
func (a *rsaAuth) Kind() Kind { return RSA }

// macAuth authenticates with pairwise AES-CMAC tags.
type macAuth struct {
	dir  *Directory
	self types.NodeID
}

var _ Authenticator = (*macAuth)(nil)

// Sign implements Authenticator.
func (a *macAuth) Sign(dst types.NodeID, msg []byte) ([]byte, error) {
	s, err := a.dir.macState(a.self, dst)
	if err != nil {
		return nil, err
	}
	tag := s.Sum(msg)
	return tag[:], nil
}

// Verify implements Authenticator.
func (a *macAuth) Verify(src types.NodeID, msg, auth []byte) error {
	s, err := a.dir.macState(a.self, src)
	if err != nil {
		return err
	}
	if !s.Verify(msg, auth) {
		return fmt.Errorf("%w: cmac from %v", ErrBadSignature, src)
	}
	return nil
}

// PerDestination implements Authenticator.
func (a *macAuth) PerDestination() bool { return true }

// Kind implements Authenticator.
func (a *macAuth) Kind() Kind { return CMAC }

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
