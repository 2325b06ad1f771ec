package crypto

import (
	"bytes"
	"testing"

	"resilientdb/internal/types"
)

func testDirectory(t *testing.T, cfg Config) *Directory {
	t.Helper()
	dir, err := NewDirectory(cfg, [32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("zero config validated")
	}
	if _, err := NewDirectory(Config{ReplicaScheme: CMAC, ClientScheme: CMAC}, [32]byte{}); err == nil {
		t.Fatal("CMAC client scheme accepted; forwarded requests would be unverifiable")
	}
	for _, cfg := range []Config{NoSig(), AllED25519(), Recommended()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %+v failed validation: %v", cfg, err)
		}
	}
}

func TestSchemeRoundTrips(t *testing.T) {
	// Long enough that its first and last bytes are in different blocks of
	// every primitive: an authenticator must cover all of it.
	msg := bytes.Repeat([]byte("the order of transactions is the heart of consensus"), 40)
	r0, r1 := types.ReplicaNode(0), types.ReplicaNode(1)

	tests := []struct {
		name   string
		cfg    Config
		perDst bool
	}{
		{"none", NoSig(), false},
		{"ed25519", AllED25519(), false},
		{"rsa", Config{ReplicaScheme: RSA, ClientScheme: RSA, RSABits: 1024}, false},
		{"cmac", Recommended(), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := testDirectory(t, tt.cfg)
			a0 := dir.NodeAuth(r0)
			a1 := dir.NodeAuth(r1)
			if got := a0.PerDestination(); got != tt.perDst {
				t.Fatalf("PerDestination = %v, want %v", got, tt.perDst)
			}
			auth, err := a0.Sign(r1, msg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a1.Verify(r0, msg, auth); err != nil {
				t.Fatalf("valid auth rejected: %v", err)
			}
			if tt.cfg.ReplicaScheme == None {
				return
			}
			// Tampered message must fail, wherever the flipped bit is.
			for _, at := range []int{0, len(msg) / 2, len(msg) - 1} {
				bad := append([]byte(nil), msg...)
				bad[at] ^= 1
				if err := a1.Verify(r0, bad, auth); err == nil {
					t.Fatalf("message tampered at byte %d accepted", at)
				}
			}
			// Tampered authenticator must fail.
			badAuth := append([]byte(nil), auth...)
			badAuth[len(badAuth)-1] ^= 1
			if err := a1.Verify(r0, msg, badAuth); err == nil {
				t.Fatal("tampered authenticator accepted")
			}
			// Wrong claimed sender must fail.
			if err := a1.Verify(types.ReplicaNode(2), msg, auth); err == nil {
				t.Fatal("wrong sender accepted")
			}
		})
	}
}

func TestCombinedSchemeRouting(t *testing.T) {
	dir := testDirectory(t, Recommended())
	client := types.ClientNode(7)
	replica := types.ReplicaNode(0)

	ca := dir.NodeAuth(client)
	ra := dir.NodeAuth(replica)

	if ca.Kind() != ED25519 {
		t.Fatalf("client signs with %v, want ed25519", ca.Kind())
	}
	if ra.Kind() != CMAC {
		t.Fatalf("replica signs with %v, want cmac", ra.Kind())
	}
	if ca.PerDestination() {
		t.Fatal("client DS should not be per-destination")
	}
	if !ra.PerDestination() {
		t.Fatal("replica CMAC should be per-destination")
	}

	// Client request: signed once, verifiable by every replica (forwarding).
	msg := []byte("client request body")
	sig, err := ca.Sign(replica, msg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		ar := dir.NodeAuth(types.ReplicaNode(types.ReplicaID(r)))
		if err := ar.Verify(client, msg, sig); err != nil {
			t.Fatalf("replica %d cannot verify forwarded client sig: %v", r, err)
		}
	}

	// Replica response to client: pairwise MAC, only that client verifies.
	resp := []byte("response body")
	mac, err := ra.Sign(client, resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Verify(replica, resp, mac); err != nil {
		t.Fatalf("client cannot verify replica MAC: %v", err)
	}
	other := dir.NodeAuth(types.ClientNode(8))
	if err := other.Verify(replica, resp, mac); err == nil {
		t.Fatal("pairwise MAC verified by a third party")
	}
}

func TestDirectoryDeterminism(t *testing.T) {
	d1 := testDirectory(t, AllED25519())
	d2 := testDirectory(t, AllED25519())
	msg := []byte("determinism")
	s1, err := d1.NodeAuth(types.ReplicaNode(3)).Sign(types.ReplicaNode(0), msg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d2.NodeAuth(types.ReplicaNode(3)).Sign(types.ReplicaNode(0), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("same seed produced different keys")
	}
	d3, err := NewDirectory(AllED25519(), [32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := d3.NodeAuth(types.ReplicaNode(3)).Sign(types.ReplicaNode(0), msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s1, s3) {
		t.Fatal("different seeds produced identical signatures")
	}
}

func TestHashChain(t *testing.T) {
	h0 := types.Digest{}
	d1 := Hash256([]byte("batch-1"))
	d2 := Hash256([]byte("batch-2"))
	h1 := HashChain(h0, d1)
	h2 := HashChain(h1, d2)
	if h1 == h0 || h2 == h1 {
		t.Fatal("hash chain did not advance")
	}
	// Order sensitivity: swapping the batches changes the head.
	alt := HashChain(HashChain(h0, d2), d1)
	if alt == h2 {
		t.Fatal("hash chain insensitive to order")
	}
	// Determinism.
	if HashChain(h0, d1) != h1 {
		t.Fatal("hash chain not deterministic")
	}
}

func TestDRBGStreamStable(t *testing.T) {
	a := newDRBG([32]byte{5})
	b := newDRBG([32]byte{5})
	ba := make([]byte, 100)
	bb := make([]byte, 100)
	if _, err := a.Read(ba); err != nil {
		t.Fatal(err)
	}
	// Read in odd-sized chunks to exercise buffering.
	for off := 0; off < 100; {
		n := 7
		if off+n > 100 {
			n = 100 - off
		}
		if _, err := b.Read(bb[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("DRBG stream depends on read chunking")
	}
}

// ---- Calibration microbenchmarks ----
//
// These measure the real primitives on the host. Their outputs are the
// basis for the simulator's cost model defaults (internal/sim/costmodel.go)
// and are recorded in EXPERIMENTS.md under "Calibration".

var benchMsg = bytes.Repeat([]byte{0x42}, 256)

func benchDir(b *testing.B, cfg Config) *Directory {
	b.Helper()
	dir, err := NewDirectory(cfg, [32]byte{1})
	if err != nil {
		b.Fatal(err)
	}
	return dir
}

func BenchmarkCryptoED25519Sign(b *testing.B) {
	dir := benchDir(b, AllED25519())
	a := dir.NodeAuth(types.ReplicaNode(0))
	b.SetBytes(int64(len(benchMsg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Sign(types.ReplicaNode(1), benchMsg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCryptoED25519Verify(b *testing.B) {
	dir := benchDir(b, AllED25519())
	a0 := dir.NodeAuth(types.ReplicaNode(0))
	a1 := dir.NodeAuth(types.ReplicaNode(1))
	sig, err := a0.Sign(types.ReplicaNode(1), benchMsg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a1.Verify(types.ReplicaNode(0), benchMsg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCryptoRSA2048Sign(b *testing.B) {
	dir := benchDir(b, AllRSA())
	a := dir.NodeAuth(types.ReplicaNode(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Sign(types.ReplicaNode(1), benchMsg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCryptoRSA2048Verify(b *testing.B) {
	dir := benchDir(b, AllRSA())
	a0 := dir.NodeAuth(types.ReplicaNode(0))
	a1 := dir.NodeAuth(types.ReplicaNode(1))
	sig, err := a0.Sign(types.ReplicaNode(1), benchMsg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a1.Verify(types.ReplicaNode(0), benchMsg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCryptoCMACSign(b *testing.B) {
	dir := benchDir(b, Recommended())
	a := dir.NodeAuth(types.ReplicaNode(0))
	b.SetBytes(int64(len(benchMsg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Sign(types.ReplicaNode(1), benchMsg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCryptoCMACVerify(b *testing.B) {
	dir := benchDir(b, Recommended())
	a0 := dir.NodeAuth(types.ReplicaNode(0))
	a1 := dir.NodeAuth(types.ReplicaNode(1))
	mac, err := a0.Sign(types.ReplicaNode(1), benchMsg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a1.Verify(types.ReplicaNode(0), benchMsg, mac); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCryptoSHA256PerKB(b *testing.B) {
	buf := bytes.Repeat([]byte{0x37}, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hash256(buf)
	}
}

// TestVerifyBatchDirect exercises the BatchVerifier implementations
// themselves: an all-valid batch passes, and a single corrupted signature
// rejects the whole batch.
func TestVerifyBatchDirect(t *testing.T) {
	dir := testDirectory(t, AllED25519())
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
