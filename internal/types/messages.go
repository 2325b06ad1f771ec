package types

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// MsgType tags every message on the wire. Values start at one so a zeroed
// buffer can never masquerade as a valid message.
type MsgType uint8

// Message type tags. PBFT uses ClientRequest through ClientResponse, and
// the local read path ReadRequest and ReadReply. Tags 9–12 are reserved:
// they were Zyzzyva's, whose messages the simulator (internal/sim) now
// keeps unencoded, so no decoder knows them and a replica refuses them
// unread. No new message takes them.
const (
	MsgClientRequest MsgType = iota + 1
	MsgPrePrepare
	MsgPrepare
	MsgCommit
	MsgCheckpoint
	MsgViewChange
	MsgNewView
	MsgClientResponse
	_ // 9–12 reserved
	_
	_
	_
	MsgReadRequest
	MsgReadReply
	msgTypeEnd // sentinel; keep last
)

// String implements fmt.Stringer for log readability.
func (t MsgType) String() string {
	switch t {
	case MsgClientRequest:
		return "ClientRequest"
	case MsgPrePrepare:
		return "PrePrepare"
	case MsgPrepare:
		return "Prepare"
	case MsgCommit:
		return "Commit"
	case MsgCheckpoint:
		return "Checkpoint"
	case MsgViewChange:
		return "ViewChange"
	case MsgNewView:
		return "NewView"
	case MsgClientResponse:
		return "ClientResponse"
	case MsgReadRequest:
		return "ReadRequest"
	case MsgReadReply:
		return "ReadReply"
	default:
		return "Unknown"
	}
}

// Message is the interface every wire message implements. marshal appends
// the body encoding to w; unmarshal decodes from r. The type tag travels in
// the envelope, beside the body.
type Message interface {
	Type() MsgType
	marshal(w *Writer)
	unmarshal(r *Reader)
}

// Compile-time interface compliance checks.
var (
	_ Message = (*ClientRequest)(nil)
	_ Message = (*PrePrepare)(nil)
	_ Message = (*Prepare)(nil)
	_ Message = (*Commit)(nil)
	_ Message = (*Checkpoint)(nil)
	_ Message = (*ViewChange)(nil)
	_ Message = (*NewView)(nil)
	_ Message = (*ClientResponse)(nil)
	_ Message = (*ReadRequest)(nil)
	_ Message = (*ReadReply)(nil)
)

// ---- ClientRequest ----

// Type implements Message.
func (r *ClientRequest) Type() MsgType { return MsgClientRequest }

// Ops appends an op list: [u32 count] then, per op, [u8 kind][u64 key],
// for a scan its bounds [u64 end][u32 limit], and the value blob. This and
// Reader.Ops are the one definition of the op layout; transactions and the
// gateway's session frames both carry ops through them.
func (w *Writer) Ops(ops []Op) {
	w.U32(uint32(len(ops)))
	for i := range ops {
		op := &ops[i]
		w.U8(uint8(op.Kind))
		w.U64(op.Key)
		if op.Kind == OpScan {
			w.U64(op.EndKey)
			w.U32(op.Limit)
		}
		w.Blob(op.Value)
	}
}

// opsSize returns the number of bytes Writer.Ops emits for ops.
func opsSize(ops []Op) int {
	n := 4 + minOpSize*len(ops)
	for i := range ops {
		n += len(ops[i].Value)
		if ops[i].Kind == OpScan {
			n += 8 + 4
		}
	}
	return n
}

// Ops reads an op list written by Writer.Ops. The count is checked against
// the bytes that remain before anything is allocated; values follow the
// reader's mode (views in alias mode, copies otherwise).
func (r *Reader) Ops() []Op {
	n := r.count(minOpSize)
	if r.err != nil {
		return nil
	}
	return r.fillOps(r.carveOps(n))
}

// OpsInto reads an op list like Ops, carving the ops from *slab: storage
// the caller owns and reuses from message to message, as a hold owns its
// arrays. A slab without room is replaced by one of twice its capacity, or
// of the list's length or hint if more, where hint — how many ops the
// caller expects the rest of its message to need — is clipped to what the
// unread bytes could encode; what was carved from the old slab stays
// where it is.
func (r *Reader) OpsInto(slab *[]Op, hint int) []Op {
	n := r.count(minOpSize)
	if r.err != nil {
		return nil
	}
	return r.fillOps(carve(slab, n, min(hint, r.Remaining()/minOpSize+1)))
}

// fillOps decodes len(ops) ops into ops.
func (r *Reader) fillOps(ops []Op) []Op {
	for i := range ops {
		op := &ops[i]
		op.Kind = OpKind(r.U8())
		op.Key = r.U64()
		if op.Kind == OpScan {
			op.EndKey = r.U64()
			op.Limit = r.U32()
		}
		op.Value = r.Blob()
	}
	return ops
}

func marshalTxn(w *Writer, t *Transaction) {
	w.U32(uint32(t.Client))
	w.U64(t.ClientSeq)
	w.Ops(t.Ops)
	w.Blob(t.Payload)
}

func unmarshalTxn(r *Reader, t *Transaction) {
	t.Client = ClientID(r.U32())
	t.ClientSeq = r.U64()
	t.Ops = r.Ops()
	t.Payload = r.Blob()
}

// marshalSigned appends everything the client signature covers: the wire
// form up to the signature field.
func (r *ClientRequest) marshalSigned(w *Writer) {
	w.U32(uint32(r.Client))
	w.U64(r.FirstSeq)
	w.U32(uint32(len(r.Txns)))
	for i := range r.Txns {
		marshalTxn(w, &r.Txns[i])
	}
}

func (r *ClientRequest) marshal(w *Writer) {
	r.marshalSigned(w)
	w.Blob(r.Sig)
}

// unmarshal decodes the request and, decoding being canonical, hashes the
// signed range of the input where it lies: the one pass this process
// makes over the request's bytes.
func (r *ClientRequest) unmarshal(rd *Reader) {
	start := rd.off
	r.Client = ClientID(rd.U32())
	r.FirstSeq = rd.U64()
	n := rd.count(16)
	if rd.Err() != nil {
		return
	}
	r.Txns = rd.transactions(n)
	r.hold = rd.hold
	rd.wantOps(n)
	for i := 0; i < n; i++ {
		unmarshalTxn(rd, &r.Txns[i])
	}
	if rd.Err() != nil {
		return
	}
	r.d = sha256.Sum256(rd.buf[start:rd.off])
	r.hashed = true
	r.Sig = rd.Blob()
}

// ---- PrePrepare ----

// PrePrepare is the primary's proposal binding a batch of client requests
// to (view, seq). The primary verified the client signatures before
// proposing; a backup checks the primary's authenticator over the header
// (AuthenticatedBytes) and that Requests hash to Digest, and does not look
// at the client signatures.
type PrePrepare struct {
	View     View
	Seq      SeqNum
	Digest   Digest
	Requests []ClientRequest

	hold *hold // set when decoded in place; see DecodeEnvelope
	lent bool  // set on one AcquirePrePrepare lends, for its whole life
}

// Type implements Message.
func (m *PrePrepare) Type() MsgType { return MsgPrePrepare }

func (m *PrePrepare) marshal(w *Writer) {
	w.U64(uint64(m.View))
	w.U64(uint64(m.Seq))
	w.Bytes32(m.Digest)
	w.U32(uint32(len(m.Requests)))
	for i := range m.Requests {
		m.Requests[i].marshal(w)
	}
}

func (m *PrePrepare) unmarshal(r *Reader) {
	m.View = View(r.U64())
	m.Seq = SeqNum(r.U64())
	m.Digest = r.Bytes32()
	n := r.count(20)
	if r.Err() != nil {
		return
	}
	m.Requests = r.requests(n)
	for i := 0; i < n; i++ {
		m.Requests[i].unmarshal(r)
	}
}

// prePrepareHeaderSize is the fixed-size prefix of a PrePrepare body: view,
// seq and digest.
const prePrepareHeaderSize = 8 + 8 + 32

// Size returns the encoded size in bytes, used for bandwidth accounting.
func (m *PrePrepare) Size() int {
	n := prePrepareHeaderSize + 4
	for i := range m.Requests {
		n += m.Requests[i].Size()
	}
	return n
}

// ---- Prepare / Commit ----

// Prepare is a backup's agreement to the order proposed in a pre-prepare.
// A replica is "prepared" after 2f matching prepares (Section 2.1).
type Prepare struct {
	View    View
	Seq     SeqNum
	Digest  Digest
	Replica ReplicaID
}

// Type implements Message.
func (m *Prepare) Type() MsgType { return MsgPrepare }

func (m *Prepare) marshal(w *Writer) {
	w.U64(uint64(m.View))
	w.U64(uint64(m.Seq))
	w.Bytes32(m.Digest)
	w.U16(uint16(m.Replica))
}

func (m *Prepare) unmarshal(r *Reader) {
	m.View = View(r.U64())
	m.Seq = SeqNum(r.U64())
	m.Digest = r.Bytes32()
	m.Replica = ReplicaID(r.U16())
}

// Commit is broadcast once a replica is prepared; 2f+1 matching commits
// guarantee the order and release the batch for execution.
type Commit struct {
	View    View
	Seq     SeqNum
	Digest  Digest
	Replica ReplicaID
}

// Type implements Message.
func (m *Commit) Type() MsgType { return MsgCommit }

func (m *Commit) marshal(w *Writer) {
	w.U64(uint64(m.View))
	w.U64(uint64(m.Seq))
	w.Bytes32(m.Digest)
	w.U16(uint16(m.Replica))
}

func (m *Commit) unmarshal(r *Reader) {
	m.View = View(r.U64())
	m.Seq = SeqNum(r.U64())
	m.Digest = r.Bytes32()
	m.Replica = ReplicaID(r.U16())
}

// ---- Checkpoint ----

// Checkpoint is broadcast after every Δ executed batches (Section 4.7).
// 2f+1 matching checkpoints make sequence numbers ≤ Seq stable, allowing
// old requests, messages, and blocks to be garbage collected. Sig is the
// sender's ED25519 node-key signature over (Seq, StateDigest): 2f+1 of them
// are the stable checkpoint's certificate, which anyone holding the node
// keys can check, not only the replica that collected them.
type Checkpoint struct {
	Seq         SeqNum
	StateDigest Digest
	Replica     ReplicaID
	Sig         Signature
}

// Type implements Message.
func (m *Checkpoint) Type() MsgType { return MsgCheckpoint }

func (m *Checkpoint) marshal(w *Writer) {
	w.U64(uint64(m.Seq))
	w.Bytes32(m.StateDigest)
	w.U16(uint16(m.Replica))
	w.buf = append(w.buf, m.Sig[:]...)
}

func (m *Checkpoint) unmarshal(r *Reader) {
	m.Seq = SeqNum(r.U64())
	m.StateDigest = r.Bytes32()
	m.Replica = ReplicaID(r.U16())
	if b := r.take(len(m.Sig)); b != nil {
		copy(m.Sig[:], b)
	}
}

// checkpointSize is a Checkpoint's encoded size: seq, digest, replica and
// signature.
const checkpointSize = 8 + 32 + 2 + len(Signature{})

// ---- View change ----

// PreparedProof certifies that a batch prepared at a replica: the
// pre-prepare metadata plus 2f matching prepares. Request payloads are not
// carried; the new primary re-fetches or re-proposes by digest.
type PreparedProof struct {
	View     View
	Seq      SeqNum
	Digest   Digest
	Prepares []Prepare
}

func (p *PreparedProof) marshal(w *Writer) {
	w.U64(uint64(p.View))
	w.U64(uint64(p.Seq))
	w.Bytes32(p.Digest)
	w.U32(uint32(len(p.Prepares)))
	for i := range p.Prepares {
		p.Prepares[i].marshal(w)
	}
}

func (p *PreparedProof) unmarshal(r *Reader) {
	p.View = View(r.U64())
	p.Seq = SeqNum(r.U64())
	p.Digest = r.Bytes32()
	n := r.count(50)
	if r.Err() != nil {
		return
	}
	p.Prepares = make([]Prepare, n)
	for i := 0; i < n; i++ {
		p.Prepares[i].unmarshal(r)
	}
}

// ViewChange announces that a replica has abandoned its current view and
// carries evidence of its progress: the last stable checkpoint and every
// batch prepared since.
type ViewChange struct {
	NewView    View
	StableSeq  SeqNum
	StateProof []Checkpoint
	Prepared   []PreparedProof
	Replica    ReplicaID
}

// Type implements Message.
func (m *ViewChange) Type() MsgType { return MsgViewChange }

func (m *ViewChange) marshal(w *Writer) {
	w.U64(uint64(m.NewView))
	w.U64(uint64(m.StableSeq))
	w.U32(uint32(len(m.StateProof)))
	for i := range m.StateProof {
		m.StateProof[i].marshal(w)
	}
	w.U32(uint32(len(m.Prepared)))
	for i := range m.Prepared {
		m.Prepared[i].marshal(w)
	}
	w.U16(uint16(m.Replica))
}

func (m *ViewChange) unmarshal(r *Reader) {
	m.NewView = View(r.U64())
	m.StableSeq = SeqNum(r.U64())
	n := r.count(checkpointSize)
	if r.Err() != nil {
		return
	}
	m.StateProof = make([]Checkpoint, n)
	for i := 0; i < n; i++ {
		m.StateProof[i].unmarshal(r)
	}
	n = r.count(52)
	if r.Err() != nil {
		return
	}
	m.Prepared = make([]PreparedProof, n)
	for i := 0; i < n; i++ {
		m.Prepared[i].unmarshal(r)
	}
	m.Replica = ReplicaID(r.U16())
}

// NewView is the new primary's proof that 2f+1 replicas joined the view,
// plus the pre-prepares that re-propose every prepared-but-uncommitted
// batch in the new view.
type NewView struct {
	View        View
	ViewChanges []ViewChange
	PrePrepares []PrePrepare

	hold *hold // set when decoded in place; see DecodeEnvelope
}

// Type implements Message.
func (m *NewView) Type() MsgType { return MsgNewView }

func (m *NewView) marshal(w *Writer) {
	w.U64(uint64(m.View))
	w.U32(uint32(len(m.ViewChanges)))
	for i := range m.ViewChanges {
		m.ViewChanges[i].marshal(w)
	}
	w.U32(uint32(len(m.PrePrepares)))
	for i := range m.PrePrepares {
		m.PrePrepares[i].marshal(w)
	}
}

func (m *NewView) unmarshal(r *Reader) {
	m.View = View(r.U64())
	n := r.count(26)
	if r.Err() != nil {
		return
	}
	m.ViewChanges = make([]ViewChange, n)
	for i := 0; i < n; i++ {
		m.ViewChanges[i].unmarshal(r)
	}
	n = r.count(52)
	if r.Err() != nil {
		return
	}
	m.PrePrepares = make([]PrePrepare, n)
	for i := 0; i < n; i++ {
		m.PrePrepares[i].unmarshal(r)
	}
}

// ---- ClientResponse ----

// ScanRow is one record returned by a range scan: the key it was stored
// under and the value observed at the scan's position in the serial order.
type ScanRow struct {
	Key   uint64
	Value []byte
}

// ReadResult is the outcome of one read or scan operation. For a point
// read (Scan false) it reports whether the key existed and, if so, the
// value observed at the transaction's position in the serial order. For a
// range scan (Scan true) Rows carries the matching records in ascending
// key order, truncated to the op's limit; Found and Value are unused.
type ReadResult struct {
	Found bool
	Value []byte
	Scan  bool
	Rows  []ScanRow
}

// scanMarker is the per-result tag byte that distinguishes a scan result
// from a point read on the wire: 0 = not found, 1 = found, 2 = scan rows.
const scanMarker = 2

// marshalReadResult appends one result: [marker u8] then either the point
// read's value blob or the scan arm [u32 rows]([u64 key][value blob])...
func marshalReadResult(w *Writer, res *ReadResult) {
	if res.Scan {
		w.U8(scanMarker)
		w.U32(uint32(len(res.Rows)))
		for i := range res.Rows {
			w.U64(res.Rows[i].Key)
			w.Blob(res.Rows[i].Value)
		}
		return
	}
	if res.Found {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.Blob(res.Value)
}

// ReadResults appends a result list: [u32 count] then one marshalReadResult
// per result. This and Reader.ReadResults are the one definition of the
// read-result layout; responses, read replies and the gateway's session
// replies all carry results through them.
func (w *Writer) ReadResults(results []ReadResult) {
	w.U32(uint32(len(results)))
	for i := range results {
		marshalReadResult(w, &results[i])
	}
}

// ReadResults reads a result list written by Writer.ReadResults; an empty
// list decodes as nil. Values are copied whatever the reader's mode —
// results are handed to clients and sessions, which outlive any frame — and
// copied once: a first pass measures the list, checking every count and
// length against the bytes present before anything is allocated, then
// every value is carved from one slab of exactly their total size, every
// scan row from one row slab, so a list costs at most three allocations
// however many values it carries.
func (r *Reader) ReadResults() []ReadResult {
	return r.readResults(nil)
}

// readStorage is where a reused message's read results live: the result
// array, the value bytes and the scan rows, each kept at the capacity its
// largest list needed.
type readStorage struct {
	results []ReadResult
	slab    []byte
	rows    []ScanRow
}

// readResults reads a result list into st's arrays, growing what is too
// short, or into fresh ones when st is nil.
func (r *Reader) readResults(st *readStorage) []ReadResult {
	n := r.count(5) // marker + u32 length prefix or row count
	if r.err != nil || n == 0 {
		return nil
	}
	m := Reader{buf: r.buf, off: r.off, alias: true}
	size, rows := 0, 0
	for i := 0; i < n && m.err == nil; i++ {
		switch marker := m.U8(); marker {
		case 0, 1:
			size += len(m.Blob())
		case scanMarker:
			k := m.count(12) // u64 key + u32 length prefix per row
			rows += k
			for j := 0; j < k && m.err == nil; j++ {
				m.U64()
				size += len(m.Blob())
			}
		default:
			m.fail(fmt.Errorf("unknown read marker %d", marker))
		}
	}
	if m.err != nil {
		r.fail(m.err)
		return nil
	}
	if st == nil {
		st = &readStorage{}
	}
	if cap(st.results) < n {
		st.results = make([]ReadResult, n)
	}
	if cap(st.slab) < size {
		st.slab = make([]byte, 0, size)
	}
	if cap(st.rows) < rows {
		st.rows = make([]ScanRow, rows)
	}
	results := st.results[:n]
	clear(results)
	slab := st.slab[:0]
	value := func() []byte {
		at := len(slab)
		slab = append(slab, r.blob(true)...)
		return slab[at:len(slab):len(slab)]
	}
	rowSlab := st.rows[:rows]
	for i := range results {
		res := &results[i]
		if marker := r.U8(); marker != scanMarker {
			res.Found = marker == 1
			res.Value = value()
			continue
		}
		res.Scan = true
		k := r.count(12)
		if k == 0 {
			continue
		}
		res.Rows, rowSlab = rowSlab[:k:k], rowSlab[k:]
		for j := range res.Rows {
			res.Rows[j].Key = r.U64()
			res.Rows[j].Value = value()
		}
	}
	return results
}

// CloneReadResults returns a copy of rs that owns all of its memory, in at
// most three allocations: for a keeper of results that were lent.
func CloneReadResults(rs []ReadResult) []ReadResult {
	if len(rs) == 0 {
		return nil
	}
	w := GetWriter()
	w.ReadResults(rs)
	r := Reader{buf: w.Bytes()}
	out := r.ReadResults()
	PutWriter(w)
	return out
}

// ResponseBuffer is a ClientResponse decoded into storage its owner reuses:
// the message and its read results are lent until the next Decode, which
// overwrites them (or, with SetPoisonLent on, poisons them first). A client
// link answers every response with one, so a response costs no allocation
// once the storage has grown to the largest read list.
type ResponseBuffer struct {
	Msg ClientResponse
	st  readStorage
}

// Decode parses a ClientResponse body into b.Msg, under DecodeBody's rules:
// the body must be consumed exactly.
func (b *ResponseBuffer) Decode(body []byte) error {
	if poisonLent.Load() {
		b.st.poison()
	}
	return decodeInto((*bufferedResponse)(b), body, nil)
}

// bufferedResponse is a ResponseBuffer as the Message decodeInto fills.
type bufferedResponse ResponseBuffer

func (m *bufferedResponse) Type() MsgType       { return MsgClientResponse }
func (m *bufferedResponse) marshal(w *Writer)   { m.Msg.marshal(w) }
func (m *bufferedResponse) unmarshal(r *Reader) { m.Msg.unmarshalInto(r, &m.st) }

// poison overwrites everything the storage lent, to its capacity.
func (st *readStorage) poison() {
	results := st.results[:cap(st.results)]
	for i := range results {
		results[i] = ReadResult{Found: true, Value: poisonBytes, Scan: true, Rows: poisonRows}
	}
	rows := st.rows[:cap(st.rows)]
	for i := range rows {
		rows[i] = poisonRows[0]
	}
	slab := st.slab[:cap(st.slab)]
	for i := range slab {
		slab[i] = 0xDB
	}
}

// ResponseDigest derives the deterministic execution result every correct
// replica reports for one request: a hash over the assigned sequence
// number, the request identity, and the read results in (transaction, op)
// order. Replicas fold the read values into the digest so a client's
// matching-result quorum attests them — and clients must recompute the
// digest over a response's carried ReadResults and discard mismatches,
// because votes are counted on Result alone: without the recomputation a
// single Byzantine replica could copy the correct Result from honest
// replicas and attach forged read values. Each result is folded in its wire
// form, so a scan contributes its marker, row count, and every row's key
// and value: forging, truncating, or reordering scan rows changes the
// digest exactly like forging a point read.
func ResponseDigest(seq SeqNum, client ClientID, clientSeq uint64, reads []ReadResult) Digest {
	w := GetWriter()
	w.U64(uint64(seq))
	w.U32(uint32(client))
	w.U64(clientSeq)
	for i := range reads {
		marshalReadResult(w, &reads[i])
	}
	d := sha256.Sum256(w.Bytes())
	PutWriter(w)
	return d
}

// ClientResponse is a replica's reply for one client request. Clients
// accept a result after f+1 matching responses. ReadResults carries the values observed by the
// request's read operations, in (transaction, op) order; Result covers
// them (ResponseDigest), so matching responses attest the read values too.
// Busy is the replica's queue-saturation gauge (0 idle .. 255 full) at
// execution time — advisory backpressure for gateways, deliberately
// outside Result and outside the client's vote key, so replicas reporting
// different load still form a quorum.
type ClientResponse struct {
	View        View
	Seq         SeqNum
	Client      ClientID
	ClientSeq   uint64
	Result      Digest
	Replica     ReplicaID
	ReadResults []ReadResult
	Busy        uint8
}

// Type implements Message.
func (m *ClientResponse) Type() MsgType { return MsgClientResponse }

func (m *ClientResponse) marshal(w *Writer) {
	w.U64(uint64(m.View))
	w.U64(uint64(m.Seq))
	w.U32(uint32(m.Client))
	w.U64(m.ClientSeq)
	w.Bytes32(m.Result)
	w.U16(uint16(m.Replica))
	w.ReadResults(m.ReadResults)
	w.U8(m.Busy)
}

func (m *ClientResponse) unmarshal(r *Reader) { m.unmarshalInto(r, nil) }

// unmarshalInto decodes the response with its read results in st's
// arrays, or in fresh ones when st is nil.
func (m *ClientResponse) unmarshalInto(r *Reader, st *readStorage) {
	m.View = View(r.U64())
	m.Seq = SeqNum(r.U64())
	m.Client = ClientID(r.U32())
	m.ClientSeq = r.U64()
	m.Result = r.Bytes32()
	m.Replica = ReplicaID(r.U16())
	m.ReadResults = r.readResults(st)
	m.Busy = r.U8()
}

// ---- Local read path ----

// errWriteInRead is returned for a ReadRequest carrying an op that is not a
// read or a scan: the local read path never writes, so such a request is
// malformed and gets no answer.
var errWriteInRead = errors.New("types: read request carries a write")

// ReadRequest asks a single replica to answer a write-free request's reads
// and scans from its last-executed state, bypassing consensus entirely (the
// Fabric-style read path). Ops is the request's ops in (transaction, op)
// order, in the op-list encoding transactions use (Writer.Ops), so the
// reply's results line up with the same request's ordered
// ClientResponse.ReadResults; an op that is neither OpRead nor OpScan fails
// the decode (errWriteInRead). The guarantee is per-key freshness, not a
// snapshot: the read lane runs concurrently with the execute stage
// applying later batches, so each key individually reflects at least every
// batch retired up to the reply's Seq — possibly plus writes of a batch
// still mid-application — but a multi-key read (and the rows of a scan)
// may observe different keys at different positions of the serial order.
// Reads that must be serialized in the global order (or atomic across
// keys) go through consensus as OpRead/OpScan transactions instead.
// The reply may also trail the cluster head; ClientSeq matches the reply
// to the request. The replica only answers a ReadRequest whose Client
// matches the authenticated sender, mirroring the signed-Client binding of
// the ordered path.
//
// MinSeq is the client's staleness bound: the replica answers only if its
// last-retired sequence number is at least MinSeq, and otherwise returns a
// reply with no results (its Seq stamp reporting how far it actually got)
// so the client can fall back to the quorum path.
type ReadRequest struct {
	Client    ClientID
	ClientSeq uint64
	MinSeq    SeqNum
	Ops       []Op

	ops []Op // the slab Ops is decoded into, kept by a recycled struct
}

// Type implements Message.
func (m *ReadRequest) Type() MsgType { return MsgReadRequest }

func (m *ReadRequest) marshal(w *Writer) {
	w.U32(uint32(m.Client))
	w.U64(m.ClientSeq)
	w.U64(uint64(m.MinSeq))
	w.Ops(m.Ops)
}

func (m *ReadRequest) unmarshal(r *Reader) {
	m.Client = ClientID(r.U32())
	m.ClientSeq = r.U64()
	m.MinSeq = SeqNum(r.U64())
	m.ops = m.ops[:0]
	m.Ops = r.OpsInto(&m.ops, 0)
	for i := range m.Ops {
		if k := m.Ops[i].Kind; k != OpRead && k != OpScan {
			r.fail(fmt.Errorf("%w: op %d has kind %d", errWriteInRead, i, k))
			return
		}
	}
}

// ReadReply answers a ReadRequest from one replica's store. Seq is a lower
// bound on freshness: every batch retired up to and including Seq is
// reflected in every result, but individual keys may additionally reflect
// writes from later batches still being applied (see ReadRequest for the
// full semantics). A client can bound its staleness with Seq but must not
// treat the results as a cross-key snapshot. Results answers the request's
// Ops, one result each, in op order; a reply with no results to a request
// that asked for some is the staleness refusal (lastRetired < MinSeq — Seq
// reports how far the replica actually got).
type ReadReply struct {
	Client    ClientID
	ClientSeq uint64
	Seq       SeqNum
	Replica   ReplicaID
	Results   []ReadResult
}

// Type implements Message.
func (m *ReadReply) Type() MsgType { return MsgReadReply }

func (m *ReadReply) marshal(w *Writer) {
	w.U32(uint32(m.Client))
	w.U64(m.ClientSeq)
	w.U64(uint64(m.Seq))
	w.U16(uint16(m.Replica))
	w.ReadResults(m.Results)
}

func (m *ReadReply) unmarshal(r *Reader) {
	m.Client = ClientID(r.U32())
	m.ClientSeq = r.U64()
	m.Seq = SeqNum(r.U64())
	m.Replica = ReplicaID(r.U16())
	m.Results = r.ReadResults()
}
