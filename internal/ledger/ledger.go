// Package ledger maintains the immutable blockchain of Section 2.2: each
// replica independently appends one block per executed batch, starting
// from a genesis block holding dummy data (the hash of the first primary's
// identifier).
//
// A block has one linkage, the Section 4.6 "Block Generation" insight: no
// block holds its predecessor's hash, so nothing is hashed per block on the
// critical path, and the stable checkpoint's certificate proves the order
// instead. Every Δ blocks the replica closes a checkpoint window with the
// digest D_S = H(D_{S-Δ} ‖ S ‖ the header hashes of blocks S-Δ+1..S)
// (ChainDigest), 2f+1 replicas sign (S, D_S) with their ED25519 node keys,
// and the ledger keeps the newest such certificate with D_{S-Δ} and the Δ
// headers it covers — anyone holding the node keys can check it. A header
// hash leaves out the view (types.Block.Hash). Blocks above S are
// committed, not yet certified: nothing checks them but their heights.
package ledger

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"resilientdb/internal/types"
)

// Mode is New's ignored first parameter, and CommitCertificate its one
// value: a block has one linkage. Both stay for callers that still pass
// them.
type Mode int

// CommitCertificate links no block to its predecessor: the stable
// checkpoint's signed certificate proves the order instead (Section 4.6).
const CommitCertificate Mode = 1

// Errors reported by Append, Checkpoint, Certify and Validate.
var (
	ErrGap            = errors.New("ledger: non-consecutive height")
	ErrBadCertificate = errors.New("ledger: checkpoint certificate does not verify")
	ErrPruned         = errors.New("ledger: block pruned")
	errUnknownHeight  = errors.New("ledger: unknown height")
)

// Verifier checks one replica's signature over a checkpoint vote;
// crypto.CheckpointKeys is the one deployments use.
type Verifier interface {
	VerifyCheckpoint(r types.ReplicaID, seq types.SeqNum, digest types.Digest, sig *types.Signature) error
}

// Certificate is a stable checkpoint's proof: Sigs are 2f+1 replicas'
// signatures, in ascending replica-id order, over (Seq, Digest), and Digest
// is ChainDigest(Prev, Seq, the headers of the blocks since the previous
// checkpoint). The zero Certificate is none.
type Certificate struct {
	Seq    types.SeqNum
	Prev   types.Digest // D_{S-Δ}: the previous checkpoint's digest
	Digest types.Digest // D_S
	Sigs   []types.CheckpointSig
}

// ChainDigest is the checkpoint digest that closes the window of headers
// after the checkpoint whose digest is prev: H(prev ‖ seq ‖ H(header)...).
// Chained through every window since genesis (whose digest is zero), it
// commits to every block header below seq.
func ChainDigest(prev types.Digest, seq types.SeqNum, headers []types.Block) types.Digest {
	w := types.GetWriter()
	w.Bytes32(prev)
	w.U64(uint64(seq))
	for i := range headers {
		w.Bytes32(headers[i].Hash())
	}
	d := sha256.Sum256(w.Bytes())
	types.PutWriter(w)
	return d
}

// Verify checks the certificate against the headers it covers: they run
// contiguously up to Seq, they and Prev fold to Digest, and at least quorum
// distinct replicas, listed in ascending order, signed (Seq, Digest) under
// keys. One signature that fails rejects the whole certificate.
func (c *Certificate) Verify(headers []types.Block, quorum int, keys Verifier) error {
	if len(headers) == 0 || headers[len(headers)-1].Height != uint64(c.Seq) {
		return fmt.Errorf("%w: its headers do not end at seq %d", ErrBadCertificate, c.Seq)
	}
	for i := 1; i < len(headers); i++ {
		if headers[i].Height != headers[i-1].Height+1 {
			return fmt.Errorf("%w: header %d follows %d", ErrBadCertificate, headers[i].Height, headers[i-1].Height)
		}
	}
	if ChainDigest(c.Prev, c.Seq, headers) != c.Digest {
		return fmt.Errorf("%w: digest at seq %d does not cover its headers", ErrBadCertificate, c.Seq)
	}
	if len(c.Sigs) < quorum {
		return fmt.Errorf("%w: %d signatures at seq %d, quorum %d", ErrBadCertificate, len(c.Sigs), c.Seq, quorum)
	}
	if keys == nil {
		return fmt.Errorf("%w: no keys to check seq %d against", ErrBadCertificate, c.Seq)
	}
	for i := range c.Sigs {
		s := &c.Sigs[i]
		if i > 0 && s.Replica <= c.Sigs[i-1].Replica {
			return fmt.Errorf("%w: signer %d listed after %d at seq %d", ErrBadCertificate, s.Replica, c.Sigs[i-1].Replica, c.Seq)
		}
		if err := keys.VerifyCheckpoint(s.Replica, c.Seq, c.Digest, &s.Sig); err != nil {
			return fmt.Errorf("%w: %v", ErrBadCertificate, err)
		}
	}
	return nil
}

// mark is a checkpoint digest this ledger computed.
type mark struct {
	seq    types.SeqNum
	digest types.Digest
}

// Ledger is one replica's copy of the blockchain. It is safe for
// concurrent use; in the pipeline only the execute-thread appends and
// closes checkpoints, while the checkpoint-thread certifies and prunes.
type Ledger struct {
	quorum int // signatures a certificate needs (2f+1)

	mu     sync.RWMutex
	blocks []types.Block // blocks[i] has Height = base+i
	base   uint64        // height of blocks[0]
	keys   Verifier
	// marks are the checkpoint digests this ledger holds, oldest first.
	// marks[0] is where the uncertified blocks begin: genesis (seq 0, a
	// zero digest) or the checkpoint before the newest certificate's. Then
	// come the certified checkpoint and every one closed since.
	marks []mark
	cert  Certificate
}

// New creates a Ledger seeded with the genesis block. primarySeed is the
// dummy data stored in the genesis block, conventionally the hash of the
// first primary's identifier H(P). quorum is the certificate size to
// enforce (2f+1). The Mode is ignored.
func New(_ Mode, primarySeed types.Digest, quorum int) *Ledger {
	genesis := types.Block{
		Height: 0,
		Seq:    0,
		View:   0,
		Digest: primarySeed,
	}
	return &Ledger{
		quorum: quorum,
		blocks: []types.Block{genesis},
		marks:  []mark{{}},
	}
}

// Resume creates a Ledger that continues a peer's chain from the snapshot
// its Tail returned: the blocks from the first one the certificate covers
// (or from genesis or height 1, with no certificate) up to the peer's
// head. It is the restart path. Validate checks the certificate against
// the blocks it covers and the keys UseKeys gives; the caller does that
// before it trusts the ledger. Checkpoints the peer closed above the
// certificate are not carried: the caller closes them again with
// Checkpoint. The blocks are copied, not aliased.
func Resume(blocks []types.Block, cert Certificate, quorum int) (*Ledger, error) {
	if len(blocks) == 0 {
		return nil, errors.New("ledger: empty block snapshot")
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i].Height != blocks[i-1].Height+1 {
			return nil, fmt.Errorf("%w: snapshot height %d follows %d", ErrGap, blocks[i].Height, blocks[i-1].Height)
		}
	}
	l := &Ledger{quorum: quorum, base: blocks[0].Height, marks: []mark{{}}}
	if cert.Seq != 0 {
		head := blocks[len(blocks)-1].Height
		if l.base == 0 || uint64(cert.Seq) < l.base || uint64(cert.Seq) > head {
			return nil, fmt.Errorf("%w: seq %d outside the snapshot's heights %d..%d", ErrBadCertificate, cert.Seq, l.base, head)
		}
		l.marks = []mark{{types.SeqNum(l.base - 1), cert.Prev}, {cert.Seq, cert.Digest}}
		l.cert = cert
	} else if l.base > 1 {
		return nil, fmt.Errorf("%w: an uncertified snapshot must start at genesis, not at %d", ErrPruned, l.base)
	}
	l.blocks = make([]types.Block, len(blocks))
	copy(l.blocks, blocks)
	return l, nil
}

// UseKeys gives the ledger the keys Validate checks its certificate
// against.
func (l *Ledger) UseKeys(keys Verifier) {
	l.mu.Lock()
	l.keys = keys
	l.mu.Unlock()
}

// Head returns the most recently appended block.
func (l *Ledger) Head() types.Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.blocks[len(l.blocks)-1]
}

// Height returns the height of the head block.
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base + uint64(len(l.blocks)) - 1
}

// Append creates and appends the block for an executed batch and returns
// it. Blocks must be appended in execution order: seq must be exactly one
// above the current head's height. proof is ignored: a block carries no
// proof of its own, the next stable checkpoint's certificate covers it.
func (l *Ledger) Append(seq types.SeqNum, view types.View, digest types.Digest, _ []types.CommitSig, txnCount uint32) (types.Block, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.blocks[len(l.blocks)-1]
	if uint64(seq) != head.Height+1 {
		return types.Block{}, fmt.Errorf("%w: appending seq %d after height %d", ErrGap, seq, head.Height)
	}
	b := types.Block{
		Height:   uint64(seq),
		Seq:      seq,
		View:     view,
		Digest:   digest,
		TxnCount: txnCount,
	}
	l.blocks = append(l.blocks, b)
	return b, nil
}

// Checkpoint closes the checkpoint window that ends at block seq and
// returns its digest: ChainDigest over the previous checkpoint's digest and
// the headers since. Closing one already closed returns the digest it got.
func (l *Ledger) Checkpoint(seq types.SeqNum) (types.Digest, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := l.marks[len(l.marks)-1]
	if seq <= last.seq {
		for _, m := range l.marks {
			if m.seq == seq {
				return m.digest, nil
			}
		}
		return types.Digest{}, fmt.Errorf("ledger: checkpoint %d is behind the newest, %d", seq, last.seq)
	}
	from := uint64(last.seq) + 1
	if from < l.base {
		return types.Digest{}, fmt.Errorf("%w: height %d opens checkpoint window %d", ErrPruned, from, seq)
	}
	if head := l.base + uint64(len(l.blocks)) - 1; uint64(seq) > head {
		return types.Digest{}, fmt.Errorf("%w: checkpoint %d above head %d", errUnknownHeight, seq, head)
	}
	d := ChainDigest(last.digest, seq, l.blocks[from-l.base:uint64(seq)-l.base+1])
	l.marks = append(l.marks, mark{seq, d})
	return d, nil
}

// Certify installs a stable checkpoint's certificate: the quorum's
// signatures over (seq, digest), for a checkpoint this ledger closed with
// that same digest. The ledger keeps it, with the previous checkpoint's
// digest, as its newest certificate; Prune may then drop the blocks before
// the window it covers. sigs must be in ascending replica order and are
// kept, not copied. Their signatures are not checked here — the caller
// checked each vote as it arrived — but by Validate. A certificate at or
// below the newest is ignored.
func (l *Ledger) Certify(seq types.SeqNum, digest types.Digest, sigs []types.CheckpointSig) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.cert.Seq {
		return nil
	}
	i := 1
	for i < len(l.marks) && l.marks[i].seq != seq {
		i++
	}
	if i == len(l.marks) {
		return fmt.Errorf("%w: this ledger closed no checkpoint at %d", ErrBadCertificate, seq)
	}
	if l.marks[i].digest != digest {
		// Formatted by value: slicing digest here would move it to the heap
		// on every call.
		return fmt.Errorf("%w: the quorum signed %x at %d, this ledger closed %x", ErrBadCertificate, digest, seq, l.marks[i].digest)
	}
	if len(sigs) < l.quorum {
		return fmt.Errorf("%w: %d signatures at %d, quorum %d", ErrBadCertificate, len(sigs), seq, l.quorum)
	}
	l.cert = Certificate{Seq: seq, Prev: l.marks[i-1].digest, Digest: digest, Sigs: sigs}
	l.marks = append(l.marks[:0], l.marks[i-1:]...)
	return nil
}

// Certificate returns the newest certificate, or the zero Certificate.
func (l *Ledger) Certificate() Certificate {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.cert
}

// Tail returns what Resume continues a chain from: copies of the blocks
// from the first one the newest certificate covers up to the head, and
// that certificate.
func (l *Ledger) Tail() ([]types.Block, Certificate) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	from := uint64(l.marks[0].seq) + 1
	if l.cert.Seq == 0 || from < l.base {
		from = l.base
	}
	out := make([]types.Block, len(l.blocks)-int(from-l.base))
	copy(out, l.blocks[from-l.base:])
	return out, l.cert
}

// Get returns the block at the given height.
func (l *Ledger) Get(height uint64) (types.Block, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if height < l.base {
		return types.Block{}, fmt.Errorf("%w: height %d", ErrPruned, height)
	}
	idx := height - l.base
	if idx >= uint64(len(l.blocks)) {
		return types.Block{}, fmt.Errorf("%w: %d", errUnknownHeight, height)
	}
	return l.blocks[idx], nil
}

// Blocks returns a copy of all retained blocks in order.
func (l *Ledger) Blocks() []types.Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]types.Block, len(l.blocks))
	copy(out, l.blocks)
	return out
}

// Prune discards all blocks with height strictly below keepFrom, the
// garbage collection a stable checkpoint enables (Section 4.7), but never
// one the newest certificate covers or one above it: after a certificate at
// S, Prune(S) keeps blocks from S-Δ+1, and before any, it keeps every block
// above genesis. The head is always kept. Pruning slices the array
// forward; once fewer than two windows' worth of room (two times the blocks
// dropped) are left past the head, the kept blocks move to a new array with
// room for eight, so Append never regrows the array and one window in six
// allocates.
func (l *Ledger) Prune(keepFrom uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if first := uint64(l.marks[0].seq) + 1; keepFrom > first {
		keepFrom = first
	}
	if head := l.base + uint64(len(l.blocks)) - 1; keepFrom > head {
		keepFrom = head
	}
	if keepFrom <= l.base {
		return
	}
	drop := int(keepFrom - l.base)
	kept := l.blocks[drop:]
	if cap(kept)-len(kept) < 2*drop {
		kept = append(make([]types.Block, 0, len(kept)+8*drop), kept...)
	}
	l.blocks = kept
	l.base = keepFrom
}

// Validate checks that the retained blocks have consecutive heights, and
// the newest certificate against the headers it covers and the keys UseKeys
// gave (Certificate.Verify). Blocks above it are committed, not yet
// certified: their heights are all it checks, so an edit to one goes
// unseen until a certificate covers it.
func (l *Ledger) Validate() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := 1; i < len(l.blocks); i++ {
		prev, cur := &l.blocks[i-1], &l.blocks[i]
		if cur.Height != prev.Height+1 {
			return fmt.Errorf("%w: %d follows %d", ErrGap, cur.Height, prev.Height)
		}
	}
	if l.cert.Seq == 0 {
		return nil
	}
	from := uint64(l.marks[0].seq) + 1
	if from < l.base {
		return fmt.Errorf("%w: height %d, covered by the certificate at %d", ErrPruned, from, l.cert.Seq)
	}
	return l.cert.Verify(l.blocks[from-l.base:uint64(l.cert.Seq)-l.base+1], l.quorum, l.keys)
}

// VerifyChainEquality reports whether two ledgers agree on every height
// both retain: same sequence numbers, batch digests and transaction counts.
// Views are not compared: replicas may execute one batch in different
// views (types.Block). It is the cross-replica safety check used by
// integration tests.
func VerifyChainEquality(a, b *Ledger) error {
	ha, hb := a.Height(), b.Height()
	limit := ha
	if hb < limit {
		limit = hb
	}
	for h := uint64(1); h <= limit; h++ {
		ba, errA := a.Get(h)
		bb, errB := b.Get(h)
		if errors.Is(errA, ErrPruned) || errors.Is(errB, ErrPruned) {
			continue
		}
		if errA != nil || errB != nil {
			return fmt.Errorf("ledger: fetching height %d: %v / %v", h, errA, errB)
		}
		if ba.Digest != bb.Digest || ba.Seq != bb.Seq || ba.TxnCount != bb.TxnCount {
			return fmt.Errorf("ledger: divergence at height %d: %x vs %x", h, ba.Digest[:4], bb.Digest[:4])
		}
	}
	return nil
}
