package crypto

import (
	"bytes"
	stdcrypto "crypto"
	"crypto/ed25519"
	crsa "crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"resilientdb/internal/types"
)

// goldenBody is long enough that a MAC or a signature over it and one over
// its digest cannot be confused: 4 KiB, no two blocks alike.
var goldenBody = func() []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}()

// TestAuthCoversDigestGolden pins what an authenticator covers: a literal
// tag and a literal signature over a fixed body, each of which is the bare
// primitive applied to SHA-256(body). A scheme that went back to covering
// the body itself, or covered some other digest, fails both halves.
func TestAuthCoversDigestGolden(t *testing.T) {
	r0, r1 := types.ReplicaNode(0), types.ReplicaNode(1)
	digest := sha256.Sum256(goldenBody)

	t.Run("cmac", func(t *testing.T) {
		dir := testDirectory(t, Recommended())
		tag, err := dir.NodeAuth(r0).Sign(r1, goldenBody)
		if err != nil {
			t.Fatal(err)
		}
		const want = "2e0c302ddc352856df20022741a8c06a"
		if got := hex.EncodeToString(tag); got != want {
			t.Fatalf("tag %s, want %s", got, want)
		}
		s, err := dir.macState(r0, r1)
		if err != nil {
			t.Fatal(err)
		}
		if prim := s.Sum(digest[:]); !bytes.Equal(tag, prim[:]) {
			t.Fatal("tag is not AES-CMAC over SHA-256(body)")
		}
	})
	t.Run("ed25519", func(t *testing.T) {
		dir := testDirectory(t, AllED25519())
		sig, err := dir.NodeAuth(r0).Sign(r1, goldenBody)
		if err != nil {
			t.Fatal(err)
		}
		const want = "c7c9c3d80eda49c8052e417e1c040301d13dc64cc72d208b84e545f31c004bf07afa3c37b12e501c328c0b4d9c08d709d4ca488c3568c5e7a2da5b90cff79306"
		if got := hex.EncodeToString(sig); got != want {
			t.Fatalf("signature %s, want %s", got, want)
		}
		if !bytes.Equal(sig, ed25519.Sign(dir.edKey(r0), digest[:])) {
			t.Fatal("signature is not ed25519 over SHA-256(body)")
		}
	})
	t.Run("rsa", func(t *testing.T) {
		// RSA key generation draws from the runtime's randomness as well as
		// the seed, so there is no literal to pin; the primitive is.
		dir := testDirectory(t, Config{ReplicaScheme: RSA, ClientScheme: RSA, RSABits: 1024})
		sig, err := dir.NodeAuth(r0).Sign(r1, goldenBody)
		if err != nil {
			t.Fatal(err)
		}
		key, err := dir.rsaKey(r0)
		if err != nil {
			t.Fatal(err)
		}
		if err := crsa.VerifyPKCS1v15(&key.PublicKey, stdcrypto.SHA256, digest[:], sig); err != nil {
			t.Fatalf("signature is not PKCS#1 v1.5 over SHA-256(body): %v", err)
		}
	})
}

// goldenBatch is a fixed two-request batch: the first request is signed
// with the benchmark driver's exact call, the second carries a literal
// signature.
func goldenBatch(t *testing.T, dir *Directory) []types.ClientRequest {
	t.Helper()
	reqs := []types.ClientRequest{
		{Client: 7, FirstSeq: 100, Txns: []types.Transaction{
			{Client: 7, ClientSeq: 100, Ops: []types.Op{{Key: 1, Value: []byte("one")}}},
			{Client: 7, ClientSeq: 101, Ops: []types.Op{{Kind: types.OpRead, Key: 2}}, Payload: []byte{0xAA}},
		}},
		{Client: 8, FirstSeq: 5, Txns: []types.Transaction{
			{Client: 8, ClientSeq: 5, Ops: []types.Op{{Kind: types.OpScan, Key: 3, EndKey: 9, Limit: 4}}},
		}, Sig: []byte("literal-signature")},
	}
	sig, err := dir.NodeAuth(types.ClientNode(7)).Sign(types.ReplicaNode(0), reqs[0].SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	reqs[0].Sig = sig
	return reqs
}

// TestProposalAuthGolden pins, as literals, the three things a proposal's
// authentication is made of: a request's digest d = SHA-256(SigningBytes),
// which the client signature covers and VerifyDigest accepts; BatchDigest,
// which folds d and the signature of every request; and the primary's tag
// over a PrePrepare, which covers the header (view, seq, digest) and not
// the requests behind it. A d that covered other bytes, a batch digest
// that dropped the signature, or a tag that went back to the whole body
// changes a literal.
func TestProposalAuthGolden(t *testing.T) {
	dir := testDirectory(t, Recommended())
	r0, r1 := types.ReplicaNode(0), types.ReplicaNode(1)
	reqs := goldenBatch(t, dir)

	d := reqs[0].Digest()
	if got, want := hex.EncodeToString(d[:]), "f7919cb0f1a663b9fff917dd35f72d16e75f1b52234b36c513c7132c7c60954e"; got != want {
		t.Fatalf("request digest %s, want %s", got, want)
	}
	if d != sha256.Sum256(reqs[0].SigningBytes()) {
		t.Fatal("request digest is not SHA-256(SigningBytes)")
	}
	if err := dir.NodeAuth(r0).VerifyDigest(types.ClientNode(7), d, reqs[0].Sig); err != nil {
		t.Fatalf("a signature over SigningBytes does not verify over the digest: %v", err)
	}

	batch := types.BatchDigest(reqs)
	if got, want := hex.EncodeToString(batch[:]), "1d459eafc11c48248305ee5663858a544e833852a1135ba56bbd010c903d1146"; got != want {
		t.Fatalf("batch digest %s, want %s", got, want)
	}

	body := types.MarshalBody(&types.PrePrepare{View: 2, Seq: 9, Digest: batch, Requests: reqs})
	header := types.AuthenticatedBytes(types.MsgPrePrepare, body)
	if len(header) != 8+8+32 {
		t.Fatalf("a PrePrepare's authenticator covers %d bytes, want the 48-byte header", len(header))
	}
	tag, err := dir.NodeAuth(r0).Sign(r1, header)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(tag), "fbde978749b1ceadcd261967e84e0291"; got != want {
		t.Fatalf("header tag %s, want %s", got, want)
	}
	if err := dir.NodeAuth(r1).Verify(r0, header, tag); err != nil {
		t.Fatal(err)
	}
	if err := dir.NodeAuth(r1).Verify(r0, body, tag); err == nil {
		t.Fatal("the header tag verifies over the whole body")
	}
}

// TestSignDigestIsSign: handing AppendSignDigest the hash of a message is
// signing the message — what lets a broadcast hash once for every receiver
// — and appending keeps what the buffer held.
func TestSignDigestIsSign(t *testing.T) {
	r0, r1 := types.ReplicaNode(0), types.ReplicaNode(1)
	for name, cfg := range map[string]Config{
		"none": NoSig(), "ed25519": AllED25519(), "cmac": Recommended(),
		"rsa": {ReplicaScheme: RSA, ClientScheme: RSA, RSABits: 1024},
	} {
		a := testDirectory(t, cfg).NodeAuth(r0)
		want, err := a.Sign(r1, goldenBody)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.AppendSignDigest(nil, r1, Hash256(goldenBody))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendSignDigest(nil, Hash256(msg)) = %x (err %v), Sign(msg) = %x", name, got, err, want)
		}
		prefix := []byte("prefix")
		got, err = a.AppendSignDigest(prefix, r1, Hash256(goldenBody))
		if err != nil || !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("%s: AppendSignDigest(%q, Hash256(msg)) = %x (err %v)", name, prefix, got, err)
		}
	}
}

// TestSignVerifyAllocCaps holds Sign at the one allocation that is its
// result and Verify at none, on a body large enough that a digest (or a
// hash state) that escaped would show: hashing first adds nothing.
func TestSignVerifyAllocCaps(t *testing.T) {
	r0, r1 := types.ReplicaNode(0), types.ReplicaNode(1)
	for _, tt := range []struct {
		name string
		cfg  Config
		sign float64
	}{
		{"none", NoSig(), 0},
		{"ed25519", AllED25519(), 1},
		{"cmac", Recommended(), 1},
	} {
		t.Run(tt.name, func(t *testing.T) {
			dir := testDirectory(t, tt.cfg)
			a0, a1 := dir.NodeAuth(r0), dir.NodeAuth(r1)
			auth, err := a0.Sign(r1, goldenBody)
			if err != nil {
				t.Fatal(err)
			}
			sign := testing.AllocsPerRun(200, func() {
				if _, err := a0.Sign(r1, goldenBody); err != nil {
					t.Fatal(err)
				}
			})
			verify := testing.AllocsPerRun(200, func() {
				if err := a1.Verify(r0, goldenBody, auth); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("allocations per call: Sign %.0f, Verify %.0f", sign, verify)
			if raceEnabled {
				t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
			}
			if sign > tt.sign || verify > 0 {
				t.Fatalf("Sign allocates %.0f and Verify %.0f per call, want at most %.0f and 0", sign, verify, tt.sign)
			}
		})
	}
}

// TestSignIntoEnvelopeAllocatesNothing: a CMAC tag written into the envelope
// it travels in costs no allocation — once the tag a broadcast paid per
// receiver and a reply per client — and SignInto takes that route for a
// per-destination scheme. The tag is the one Sign returns.
func TestSignIntoEnvelopeAllocatesNothing(t *testing.T) {
	r0, r1 := types.ReplicaNode(0), types.ReplicaNode(1)
	dir := testDirectory(t, Recommended())
	a0, a1 := dir.NodeAuth(r0), dir.NodeAuth(r1)
	want, err := a0.Sign(r1, goldenBody)
	if err != nil {
		t.Fatal(err)
	}
	env := types.AcquireEnvelope()
	defer env.Release()
	d := Hash256(goldenBody)
	appended := testing.AllocsPerRun(200, func() {
		if env.Auth, err = a0.AppendSignDigest(env.AuthBuffer(), r1, d); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(env.Auth, want) || &env.Auth[0] != &env.AuthBuffer()[:1][0] {
		t.Fatalf("tag %x, want %x in the envelope's own storage", env.Auth, want)
	}
	into := testing.AllocsPerRun(200, func() {
		if env.Auth, err = SignInto(a0, env, r1, goldenBody); err != nil {
			t.Fatal(err)
		}
	})
	if err := a1.Verify(r0, goldenBody, env.Auth); err != nil {
		t.Fatal(err)
	}
	t.Logf("allocations per CMAC sign into an envelope: AppendSignDigest %.0f, SignInto %.0f", appended, into)
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
	}
	if appended != 0 || into != 0 {
		t.Fatalf("a CMAC sign into an envelope allocates %.0f (SignInto %.0f), want 0", appended, into)
	}
}

// TestVerifyDigestAllocatesNothing: checking a client's ED25519 signature
// over the digest its request carries costs no allocation — the client's
// public key is the verifier's cached copy, not one copied out of the
// private key per call — and neither does checking a peer's CMAC tag.
func TestVerifyDigestAllocatesNothing(t *testing.T) {
	r0, r1, client := types.ReplicaNode(0), types.ReplicaNode(1), types.ClientNode(7)
	dir := testDirectory(t, Recommended())
	replica := dir.NodeAuth(r0)
	d := Hash256(goldenBody)
	for _, src := range []types.NodeID{client, r1} {
		sig, err := dir.NodeAuth(src).AppendSignDigest(nil, r0, d)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := replica.VerifyDigest(src, d, sig); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("allocations per VerifyDigest from %v: %.0f", src, allocs)
		if raceEnabled {
			continue // race-mode sync.Pool drops Puts at random
		}
		if allocs != 0 {
			t.Fatalf("VerifyDigest from %v allocates %.0f, want 0", src, allocs)
		}
	}
}

// TestNodeAuthConcurrentPeers signs and verifies from many goroutines
// against many peers at once, replicas and clients, so each peer's cached
// keys are derived by whichever goroutine gets there first while others
// read them: the cache's one write path, which CI runs under -race. Every
// authentic authenticator verifies and every flipped one fails.
func TestNodeAuthConcurrentPeers(t *testing.T) {
	dir := testDirectory(t, Recommended())
	self := types.ReplicaNode(0)
	me := dir.NodeAuth(self)
	var peers []types.NodeID
	auths := make(map[types.NodeID]NodeAuthenticator)
	for i := 1; i < 8; i++ {
		peers = append(peers, types.ReplicaNode(types.ReplicaID(i)))
	}
	for i := 0; i < 16; i++ {
		peers = append(peers, types.ClientNode(types.ClientID(i)))
	}
	for _, p := range peers {
		auths[p] = dir.NodeAuth(p)
	}
	msg := goldenBody[:512]
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := range peers {
					p := peers[(i+g*5)%len(peers)]
					// The peer to us: a replica's MAC, a client's signature.
					sig, err := auths[p].Sign(self, msg)
					if err == nil {
						err = me.Verify(p, msg, sig)
					}
					if err == nil {
						err = me.VerifyDigest(p, Hash256(msg), sig)
					}
					// Us to the peer: a MAC either way.
					var tag []byte
					if err == nil {
						tag, err = me.Sign(p, msg)
					}
					if err == nil {
						err = auths[p].Verify(self, msg, tag)
					}
					if err == nil {
						bad := bytes.Clone(sig)
						bad[0] ^= 1
						if me.Verify(p, msg, bad) == nil {
							err = fmt.Errorf("a flipped authenticator from %v verified", p)
						}
					}
					if err != nil {
						errs <- fmt.Errorf("goroutine %d, peer %v: %w", g, p, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
