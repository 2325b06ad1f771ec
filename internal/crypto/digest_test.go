package crypto

import (
	"bytes"
	stdcrypto "crypto"
	"crypto/ed25519"
	crsa "crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
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

// TestSignDigestIsSign: handing SignDigest the hash of a message is
// signing the message — what lets a broadcast hash once for every receiver.
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
		got, err := a.SignDigest(r1, Hash256(goldenBody))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: SignDigest(Hash256(msg)) = %x (err %v), Sign(msg) = %x", name, got, err, want)
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
