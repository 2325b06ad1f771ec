// Package types defines the identifiers, transactions, consensus messages,
// and blocks exchanged inside the resilientdb fabric, together with a
// hand-rolled binary codec for all of them.
//
// The type system mirrors Section 2.2 and Section 4.8 of the paper: every
// message inherits from a common base (here: the Message interface), client
// transactions are first-class objects, and blocks carry no link to their
// predecessor, leaving the proof to a stable checkpoint's signed
// certificate (Section 4.6, "Block Generation").
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// ReplicaID identifies a replica. Replicas are numbered 0..n-1; the primary
// of view v is replica v mod n.
type ReplicaID uint16

// ClientID identifies a client. Clients live in a separate namespace from
// replicas; see NodeID for the combined address space.
type ClientID uint32

// View is a PBFT view number. The primary of view v among n replicas
// is replica v mod n.
type View uint64

// SeqNum is a consensus sequence number assigned by the primary. One
// sequence number corresponds to one batch of client requests.
type SeqNum uint64

// Digest is a SHA-256 digest of a batch, request, block, or state.
type Digest [32]byte

// NodeID addresses any participant on the transport: replicas occupy
// [0, ReplicaSpace) and clients are offset by ReplicaSpace.
type NodeID int32

// ReplicaSpace is the first NodeID reserved for clients. Deployments are
// limited to fewer than ReplicaSpace replicas, which is far beyond any
// practical permissioned cluster size.
const ReplicaSpace = 1 << 16

// ReplicaNode converts a replica identifier to its transport address.
func ReplicaNode(r ReplicaID) NodeID { return NodeID(r) }

// ClientNode converts a client identifier to its transport address.
func ClientNode(c ClientID) NodeID { return NodeID(c) + ReplicaSpace }

// IsReplica reports whether the node addresses a replica.
func (n NodeID) IsReplica() bool { return n >= 0 && n < ReplicaSpace }

// IsClient reports whether the node addresses a client.
func (n NodeID) IsClient() bool { return n >= ReplicaSpace }

// Replica returns the replica identifier for a replica node.
// It must only be called when IsReplica is true.
func (n NodeID) Replica() ReplicaID { return ReplicaID(n) }

// Client returns the client identifier for a client node.
// It must only be called when IsClient is true.
func (n NodeID) Client() ClientID { return ClientID(n - ReplicaSpace) }

// String implements fmt.Stringer for log readability.
func (n NodeID) String() string {
	if n.IsClient() {
		return fmt.Sprintf("c%d", n.Client())
	}
	return fmt.Sprintf("r%d", int32(n))
}

// OpKind distinguishes the operation types a transaction can carry. The
// zero value is a write, so Op{Key: k, Value: v} needs no Kind.
type OpKind uint8

const (
	// OpWrite stores Value under Key.
	OpWrite OpKind = iota
	// OpRead fetches the record under Key; Value is empty on the wire and
	// the result travels back in the response's read results.
	OpRead
	// OpScan fetches every record with Key <= key <= EndKey in ascending
	// key order, truncated to Limit rows. Value is empty on the wire and
	// the rows travel back as the scan arm of the op's read result.
	OpScan
)

// Op is a single operation inside a transaction: a write of Value under
// Key, a read of Key, or a range scan of [Key, EndKey]. The evaluation
// workload (YCSB, Section 5.1) issues these against a keyed record table.
// EndKey and Limit are meaningful only for OpScan: a scan with
// Key > EndKey or Limit == 0 is well-formed and returns zero rows.
type Op struct {
	Kind  OpKind
	Key   uint64
	Value []byte
	// EndKey is the inclusive upper bound of an OpScan's key range.
	EndKey uint64
	// Limit caps the rows an OpScan returns (after merging, lowest keys
	// first); 0 returns none.
	Limit uint32
}

// Transaction is a client transaction: one or more operations plus an
// opaque payload. The payload carries no semantics; it exists so the
// message-size experiments (Section 5.5) can inflate requests exactly like
// the paper's integer-set payloads.
type Transaction struct {
	Client    ClientID
	ClientSeq uint64 // client-local request number, used to match responses
	Ops       []Op
	Payload   []byte
}

// Size returns the encoded size of the transaction in bytes. The simulator
// and the NIC model use it to account for bandwidth.
func (t *Transaction) Size() int {
	return 4 + 8 + opsSize(t.Ops) + 4 + len(t.Payload)
}

// ClientRequest is the unit a client submits: a burst of one or more
// transactions signed as a whole (client-side batching, Section 4.2).
// FirstSeq is the ClientSeq of the first transaction in the burst.
//
// Sig covers the request's digest d = SHA-256(SigningBytes()). A process
// hashes a request's bytes once: the decoder computes d from the frame
// bytes it is walking, Seal computes it where a request is built, and
// signature checks and BatchDigest read it. A request that carries d
// (decoded or sealed) must not have Client, FirstSeq or Txns changed
// afterwards; copies of the struct carry d with them.
//
// A request decoded in place (DecodeEnvelope) also carries the hold that
// keeps its views valid, and so do the copies a Batch makes: see
// RetainRequests.
type ClientRequest struct {
	Client   ClientID
	FirstSeq uint64
	Txns     []Transaction
	Sig      []byte

	d      Digest
	hashed bool  // d is set
	hold   *hold // the memory the request lives in; nil if built or copied
}

// Size returns the encoded size of the request in bytes.
func (r *ClientRequest) Size() int {
	n := 4 + 8 + 4 + 4 + len(r.Sig)
	for i := range r.Txns {
		n += r.Txns[i].Size()
	}
	return n
}

// TxnCount returns the number of transactions carried by the request.
func (r *ClientRequest) TxnCount() int { return len(r.Txns) }

// SigningBytes returns the canonical bytes a client signature covers: the
// request's wire form up to, not including, the signature field. The
// signature is the last field, so on the wire these are one contiguous
// range of the body and the decoder hashes them where they lie.
func (r *ClientRequest) SigningBytes() []byte {
	w := Writer{buf: make([]byte, 0, r.Size()-4-len(r.Sig))}
	r.marshalSigned(&w)
	return w.Bytes()
}

// Digest returns d = SHA-256(SigningBytes()): what the client signature
// authenticates and what BatchDigest folds. A decoded or sealed request
// returns the digest it carries; one built in memory computes it on every
// call and stores nothing, so concurrent readers never race on a write.
func (r *ClientRequest) Digest() Digest {
	if r.hashed {
		return r.d
	}
	w := GetWriter()
	r.marshalSigned(w)
	d := sha256.Sum256(w.Bytes())
	PutWriter(w)
	return d
}

// Seal computes the request's digest, stores it on the request and
// returns it, for the one place that builds a request and then signs and
// sends it. The caller owns the request exclusively until Seal returns.
func (r *ClientRequest) Seal() Digest {
	r.hashed = false // sealed before and changed since: hash again
	r.d, r.hashed = r.Digest(), true
	return r.d
}

// CommitSig is what blocks carried before a stable checkpoint's signed
// certificate replaced the per-block commit proof. Nothing in this module
// produces or reads one: ledger.Append still takes a list of them, and
// ignores it, for callers written against that signature.
type CommitSig struct {
	Replica ReplicaID
	Auth    []byte
}

// Signature is an ED25519 signature, held inline so a vote that carries
// one allocates nothing for it.
type Signature [64]byte

// CheckpointSig is one replica's signed checkpoint vote inside a stable
// checkpoint's certificate.
type CheckpointSig struct {
	Replica ReplicaID
	Sig     Signature
}

// Block is one element of the immutable ledger, B_i = {k, d, v} (Section
// 2.2). A block has one linkage, and nothing in the block holds it: the next
// stable checkpoint's certificate signs a digest over its header
// (ledger.ChainDigest, Section 4.6), and until then the block is committed,
// not yet certified.
type Block struct {
	Height uint64 // position in the chain; genesis is height 0
	Seq    SeqNum // consensus sequence number k (0 for genesis)
	// View is the view v of the primary whose proposal this replica
	// executed. It is a local annotation, not certified: a batch committed
	// across a view change executes in the old view at a replica that
	// released it there and in the new view at one that commits it only
	// when the new primary re-proposes it, so replicas that agree on the
	// block disagree on its view.
	View     View
	Digest   Digest // digest d of the batch of client requests
	TxnCount uint32
}

// Hash returns the SHA-256 hash of the block's certified header fields:
// Height, Seq, Digest and TxnCount, not View. A checkpoint digest folds it
// per block.
func (b *Block) Hash() Digest {
	var buf [8 + 8 + 32 + 4]byte
	binary.BigEndian.PutUint64(buf[0:], b.Height)
	binary.BigEndian.PutUint64(buf[8:], uint64(b.Seq))
	copy(buf[16:], b.Digest[:])
	binary.BigEndian.PutUint32(buf[48:], b.TxnCount)
	return sha256.Sum256(buf[:])
}

// BatchDigest computes the single digest that covers a whole batch of
// client requests: SHA-256 over, per request in order, the request's
// digest d followed by its length-prefixed signature. Section 4.3's rule is
// that a batch's bytes are hashed once, not once per consumer; the client
// signature needs d anyway, so the per-request hash is that one pass and
// the batch digest only folds its results — it binds every byte of every
// request (d covers all but the signature, which is folded beside it) and
// marshals nothing.
func BatchDigest(reqs []ClientRequest) Digest {
	w := GetWriter()
	for i := range reqs {
		w.Bytes32(reqs[i].Digest())
		w.Blob(reqs[i].Sig)
	}
	d := sha256.Sum256(w.Bytes())
	PutWriter(w)
	return d
}
