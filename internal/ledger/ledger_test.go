package ledger

import (
	"errors"
	"testing"

	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

func genesisSeed() types.Digest { return crypto.Hash256([]byte("primary-0")) }

func proof(n int) []types.CommitSig {
	sigs := make([]types.CommitSig, n)
	for i := range sigs {
		sigs[i] = types.CommitSig{Replica: types.ReplicaID(i), Auth: []byte{byte(i)}}
	}
	return sigs
}

func appendN(t *testing.T, l *Ledger, n int) {
	t.Helper()
	appendRange(t, l, 1, uint64(n))
}

// appendRange appends blocks from..to, each with the digest of its height.
func appendRange(t *testing.T, l *Ledger, from, to uint64) {
	t.Helper()
	for h := from; h <= to; h++ {
		d := crypto.Hash256([]byte{byte(h)})
		if _, err := l.Append(types.SeqNum(h), 0, d, proof(3), 100); err != nil {
			t.Fatalf("Append(%d): %v", h, err)
		}
	}
}

// delta is the checkpoint interval of the certified test ledgers: four
// replicas, quorum 3.
const delta = 3

// newCertified returns an empty ledger holding a four-replica deployment's
// checkpoint keys, and the directory that signs for it.
func newCertified(t *testing.T) (*Ledger, *crypto.Directory) {
	t.Helper()
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{43})
	if err != nil {
		t.Fatal(err)
	}
	l := New(CommitCertificate, genesisSeed(), 3)
	l.UseKeys(dir.CheckpointKeys(4))
	return l, dir
}

// sign returns the certificate entries of replicas ids over (seq, d).
func sign(dir *crypto.Directory, seq types.SeqNum, d types.Digest, ids ...types.ReplicaID) []types.CheckpointSig {
	var sigs []types.CheckpointSig
	for _, id := range ids {
		sigs = append(sigs, types.CheckpointSig{Replica: id, Sig: dir.SignCheckpoint(types.ReplicaNode(id), seq, d)})
	}
	return sigs
}

// certifyEvery closes every checkpoint up to seq, every delta blocks, and
// certifies the one at seq with replicas 0, 2 and 3.
func certifyEvery(t *testing.T, l *Ledger, dir *crypto.Directory, seq types.SeqNum) {
	t.Helper()
	var d types.Digest
	for c := types.SeqNum(delta); c <= seq; c += delta {
		var err error
		if d, err = l.Checkpoint(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Certify(seq, d, sign(dir, seq, d, 0, 2, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestGenesis(t *testing.T) {
	l := New(CommitCertificate, genesisSeed(), 3)
	head := l.Head()
	if head.Height != 0 || head.Seq != 0 {
		t.Fatalf("genesis = %+v", head)
	}
	if head.Digest != genesisSeed() {
		t.Fatal("genesis does not carry the primary seed")
	}
	if l.Height() != 0 {
		t.Fatalf("Height = %d", l.Height())
	}
}

func TestAppendRejectsGaps(t *testing.T) {
	l := New(CommitCertificate, genesisSeed(), 3)
	if _, err := l.Append(2, 0, types.Digest{1}, nil, 1); !errors.Is(err, ErrGap) {
		t.Fatalf("gap append = %v, want ErrGap", err)
	}
	if _, err := l.Append(1, 0, types.Digest{1}, nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, 0, types.Digest{1}, nil, 1); !errors.Is(err, ErrGap) {
		t.Fatalf("duplicate append = %v, want ErrGap", err)
	}
}

func TestCommitCertificateMode(t *testing.T) {
	l, dir := newCertified(t)
	if _, err := l.Append(1, 0, types.Digest{1}, nil, 1); err != nil {
		t.Fatalf("append without a proof: %v", err)
	}
	appendRange(t, l, 2, delta)
	if err := l.Validate(); err != nil {
		t.Fatalf("uncertified blocks: %v", err)
	}
	d, err := l.Checkpoint(delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Certify(delta, d, sign(dir, delta, d, 0, 1)); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("certify below quorum = %v, want ErrBadCertificate", err)
	}
	if err := l.Certify(delta, types.Digest{0xEE}, sign(dir, delta, types.Digest{0xEE}, 0, 1, 2)); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("certify a digest this ledger did not close = %v, want ErrBadCertificate", err)
	}
	if err := l.Certify(delta, d, sign(dir, delta, d, 0, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if c := l.Certificate(); c.Seq != delta || c.Digest != d || c.Prev != (types.Digest{}) || len(c.Sigs) != 3 {
		t.Fatalf("newest certificate %+v", c)
	}
}

func TestValidateDetectsDuplicateSigners(t *testing.T) {
	l, dir := newCertified(t)
	appendRange(t, l, 1, delta)
	d, err := l.Checkpoint(delta)
	if err != nil {
		t.Fatal(err)
	}
	sigs := sign(dir, delta, d, 1, 2)
	sigs = append(sigs, sigs[1])
	if err := l.Certify(delta, d, sigs); err != nil {
		t.Fatal(err) // Certify only counts; Validate checks identity
	}
	if err := l.Validate(); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("Validate = %v, want ErrBadCertificate for a duplicate signer", err)
	}
}

// TestPrune: before a certificate nothing above genesis goes; after one
// at S, pruning to S keeps the window the certificate covers, S-Δ+1 on.
func TestPrune(t *testing.T) {
	l, dir := newCertified(t)
	appendRange(t, l, 1, 10)
	l.Prune(7)
	if _, err := l.Get(0); !errors.Is(err, ErrPruned) {
		t.Fatalf("Get(0) after an uncertified prune = %v, want ErrPruned", err)
	}
	if _, err := l.Get(1); err != nil {
		t.Fatalf("an uncertified prune dropped height 1: %v", err)
	}
	certifyEvery(t, l, dir, 9)
	l.Prune(9)
	if _, err := l.Get(6); !errors.Is(err, ErrPruned) {
		t.Fatalf("Get(6) after prune = %v, want ErrPruned", err)
	}
	b, err := l.Get(7)
	if err != nil || b.Height != 7 {
		t.Fatalf("Get(7) = (%+v, %v)", b, err)
	}
	if l.Height() != 10 {
		t.Fatalf("Height = %d, want 10", l.Height())
	}
	// Chain remains appendable and validatable after pruning.
	if _, err := l.Append(11, 0, types.Digest{11}, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Pruning beyond the head keeps the certified window.
	l.Prune(99)
	if _, err := l.Get(7); err != nil {
		t.Fatalf("over-pruning dropped the certified window: %v", err)
	}
}

// TestCheckpointDigestCoversEveryHeader: a checkpoint digest changes with
// any header it covers, though no block links to its predecessor and the
// head's hash says nothing about the blocks below it; and it chains, so a
// header of an earlier window changes every later digest.
func TestCheckpointDigestCoversEveryHeader(t *testing.T) {
	const s = 2 * delta
	build := func(diverge uint64) *Ledger {
		l := New(CommitCertificate, genesisSeed(), 3)
		for h := uint64(1); h <= s; h++ {
			d := crypto.Hash256([]byte{byte(h)})
			if h == diverge {
				d[31] ^= 1
			}
			if _, err := l.Append(types.SeqNum(h), 0, d, nil, 100); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	digests := func(l *Ledger) (first, second types.Digest) {
		var err error
		if first, err = l.Checkpoint(delta); err != nil {
			t.Fatal(err)
		}
		if second, err = l.Checkpoint(s); err != nil {
			t.Fatal(err)
		}
		return first, second
	}
	a1, a2 := digests(build(0))
	if b1, b2 := digests(build(0)); b1 != a1 || b2 != a2 {
		t.Fatal("identical histories closed different checkpoint digests")
	}
	if b1, b2 := digests(build(s - 3)); b1 == a1 || b2 == a2 {
		t.Fatalf("ledgers that differ only at height %d: digests at %d equal %v, at %d equal %v; want %d equal, %d different",
			s-3, delta, b1 == a1, s, b2 == a2, delta, s)
	}
	if b1, b2 := digests(build(1)); b1 == a1 || b2 == a2 {
		t.Fatal("a header of the first window left a digest unchanged")
	}
	if ha, hb := build(0).Head(), build(s-3).Head(); ha.Hash() != hb.Hash() {
		t.Fatal("the head hashes differ; the test no longer shows what a head hash misses")
	}
}

// TestCertificateMutationsRejected: each way of bending a valid
// certificate — a covered header changed, a signature dropped, a signer
// listed twice, a signature made with a client's key, the certificate of S
// presented for S+Δ, the previous checkpoint's digest swapped — fails both
// the certificate's own check and the Validate of a ledger that holds it.
func TestCertificateMutationsRejected(t *testing.T) {
	const s = 2 * delta
	fresh := func() (*Ledger, *crypto.Directory) {
		l, dir := newCertified(t)
		appendRange(t, l, 1, s+delta)
		certifyEvery(t, l, dir, s)
		if _, err := l.Checkpoint(s + delta); err != nil {
			t.Fatal(err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("the unbent ledger: %v", err)
		}
		return l, dir
	}
	// headers returns the ledger's blocks from..to; the caller holds its
	// lock.
	headers := func(l *Ledger, from, to uint64) []types.Block {
		return append([]types.Block(nil), l.blocks[from-l.base:to-l.base+1]...)
	}
	for _, m := range []struct {
		name string
		// bend changes the ledger's own state under its lock, and returns
		// the certificate and headers it now holds.
		bend func(l *Ledger, dir *crypto.Directory) (Certificate, []types.Block)
	}{
		{"one header byte flipped", func(l *Ledger, _ *crypto.Directory) (Certificate, []types.Block) {
			l.blocks[s-1-l.base].Digest[5] ^= 0x10
			return l.cert, headers(l, delta+1, s)
		}},
		{"one signature dropped", func(l *Ledger, _ *crypto.Directory) (Certificate, []types.Block) {
			l.cert.Sigs = l.cert.Sigs[1:]
			return l.cert, headers(l, delta+1, s)
		}},
		{"a signer duplicated", func(l *Ledger, _ *crypto.Directory) (Certificate, []types.Block) {
			l.cert.Sigs = []types.CheckpointSig{l.cert.Sigs[0], l.cert.Sigs[1], l.cert.Sigs[1]}
			return l.cert, headers(l, delta+1, s)
		}},
		{"a signature made by a client node", func(l *Ledger, dir *crypto.Directory) (Certificate, []types.Block) {
			last := &l.cert.Sigs[len(l.cert.Sigs)-1]
			last.Sig = dir.SignCheckpoint(types.ClientNode(types.ClientID(last.Replica)), l.cert.Seq, l.cert.Digest)
			return l.cert, headers(l, delta+1, s)
		}},
		{"the certificate for S reused at S+Δ", func(l *Ledger, _ *crypto.Directory) (Certificate, []types.Block) {
			next := l.marks[len(l.marks)-1]
			l.cert = Certificate{Seq: next.seq, Prev: l.cert.Digest, Digest: next.digest, Sigs: l.cert.Sigs}
			l.marks = l.marks[1:]
			return l.cert, headers(l, s+1, s+delta)
		}},
		{"D_{S-Δ} swapped", func(l *Ledger, _ *crypto.Directory) (Certificate, []types.Block) {
			l.cert.Prev[0] ^= 0x01
			l.marks[0].digest = l.cert.Prev
			return l.cert, headers(l, delta+1, s)
		}},
	} {
		t.Run(m.name, func(t *testing.T) {
			l, dir := fresh()
			l.mu.Lock()
			c, hs := m.bend(l, dir)
			l.mu.Unlock()
			if err := c.Verify(hs, 3, dir.CheckpointKeys(4)); !errors.Is(err, ErrBadCertificate) {
				t.Fatalf("Certificate.Verify = %v, want ErrBadCertificate", err)
			}
			if err := l.Validate(); !errors.Is(err, ErrBadCertificate) {
				t.Fatalf("Validate = %v, want ErrBadCertificate", err)
			}
		})
	}
}

// TestResumeContinuesTheCertifiedChain: a ledger resumed from a peer's
// Tail holds the peer's certificate, validates, and closes the next
// checkpoint to the digest the peer closes; one resumed from a snapshot the
// certificate does not cover fails Validate.
func TestResumeContinuesTheCertifiedChain(t *testing.T) {
	peer, dir := newCertified(t)
	appendRange(t, peer, 1, 2*delta+1)
	certifyEvery(t, peer, dir, delta)
	blocks, cert := peer.Tail()
	if blocks[0].Height != 1 || cert.Seq != delta {
		t.Fatalf("Tail starts at %d with a certificate at %d, want 1 and %d", blocks[0].Height, cert.Seq, delta)
	}
	certifyEvery(t, peer, dir, 2*delta)
	blocks, cert = peer.Tail()
	if blocks[0].Height != delta+1 || cert.Seq != 2*delta {
		t.Fatalf("Tail starts at %d with a certificate at %d, want %d and %d", blocks[0].Height, cert.Seq, delta+1, 2*delta)
	}
	l, err := Resume(blocks, cert, 3)
	if err != nil {
		t.Fatal(err)
	}
	l.UseKeys(dir.CheckpointKeys(4))
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	appendRange(t, l, 2*delta+2, 3*delta)
	appendRange(t, peer, 2*delta+2, 3*delta)
	got, err := l.Checkpoint(3 * delta)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := peer.Checkpoint(3 * delta); got != want {
		t.Fatal("the resumed ledger closed a different checkpoint digest from its peer's")
	}
	blocks[1].Digest[0] ^= 1
	bent, err := Resume(blocks, cert, 3)
	if err != nil {
		t.Fatal(err)
	}
	bent.UseKeys(dir.CheckpointKeys(4))
	if err := bent.Validate(); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("Validate after resuming from a bent snapshot = %v, want ErrBadCertificate", err)
	}
}

func TestVerifyChainEquality(t *testing.T) {
	a := New(CommitCertificate, genesisSeed(), 3)
	b := New(CommitCertificate, genesisSeed(), 3)
	appendN(t, a, 5)
	appendN(t, b, 3) // shorter but consistent prefix
	if err := VerifyChainEquality(a, b); err != nil {
		t.Fatalf("consistent prefixes reported divergent: %v", err)
	}
	// Diverge b at height 4.
	if _, err := b.Append(4, 0, types.Digest{0xFF}, proof(3), 1); err != nil {
		t.Fatal(err)
	}
	if err := VerifyChainEquality(a, b); err == nil {
		t.Fatal("divergence not detected")
	}
}

// BenchmarkLedgerAppendCommitCert is the cost of one block on the critical
// path: leaving the proof to the checkpoint certificate hashes nothing per
// append (Section 4.6).
func BenchmarkLedgerAppendCommitCert(b *testing.B) {
	l := New(CommitCertificate, genesisSeed(), 3)
	d := crypto.Hash256([]byte("batch"))
	p := proof(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(types.SeqNum(i+1), 0, d, p, 100); err != nil {
			b.Fatal(err)
		}
	}
}
