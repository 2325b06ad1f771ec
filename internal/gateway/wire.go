// Session wire protocol: the framing between lightweight client sessions
// and the gateway's front door. Many sessions share one TCP connection;
// every message is tagged with its session id, so the connection is a
// multiplexing pipe, not an identity. Framing follows the transport
// layer's length-prefixed idiom, and inbound frames decode zero-copy out
// of pooled buffers exactly like the replica receive path: a Submit's op
// values alias the frame buffer, and a decoded frame is a reference-counted
// pooled object that lives until the gateway has answered every submit it
// admitted from it.
//
// Frame layout:
//
//	[u32 payload length][u32 message count][message...]
//
// Message layout (kind byte first):
//
//	submit: 0x01 [u64 session][u64 nonce][op list]
//	reply:  0x02 [u64 session][u64 nonce][u8 status][u64 seq][u8 busy][read-result list]
//
// The op list and the read-result list are the consensus wire's own
// (types.Writer.Ops and ReadResults, and their Reader halves).
//
// A session submits one transaction per message with a session-local,
// strictly increasing nonce starting at 1 (0 is reserved as the dedup
// high-water mark's "nothing completed" value and is rejected); the
// (session, nonce) pair is the retry key the gateway dedups on. Session
// ids are a gateway-global namespace — dedup state is keyed by session
// id alone so it survives reconnects, which means two connections using
// the same session id share one dedup window. Replies may arrive in any
// order — the gateway
// coalesces transactions from many sessions into shared consensus
// requests, and sessions on one connection complete independently.
package gateway

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"resilientdb/internal/types"
)

// Message kinds.
const (
	kindSubmit = 0x01
	kindReply  = 0x02
)

// Status codes carried by replies.
type Status uint8

// Reply statuses.
const (
	// StatusOK: the transaction executed; Seq is its consensus sequence
	// number and Reads carries its read results.
	StatusOK Status = 1
	// StatusBusy: admission control pushed the submit back — the gateway
	// queue was full or the replicas' piggybacked busy gauge crossed the
	// threshold. The transaction was NOT executed and was not enqueued;
	// the session should retry with the same nonce after a backoff.
	StatusBusy Status = 2
	// StatusRejected: the nonce is at or below the session's completed
	// high-water mark but its cached reply has been evicted. The
	// transaction is not re-executed (retry safety holds); the session
	// lost only the reply payload, not the execution.
	StatusRejected Status = 3
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBusy:
		return "busy"
	case StatusRejected:
		return "rejected"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Submit is one session transaction entering the gateway. Ops may alias
// the inbound frame (sessionFrame); the frame reference held by the
// gateway's pending record keeps it alive until the transaction has been
// marshalled into a consensus request and answered.
type Submit struct {
	Session uint64
	Nonce   uint64
	Ops     []types.Op
}

// Reply is the gateway's answer to one Submit. Busy carries the latest
// replica queue-saturation gauge (0..255) so sessions can self-pace even
// on successful replies.
type Reply struct {
	Session uint64
	Nonce   uint64
	Status  Status
	Seq     uint64
	Busy    uint8
	Reads   []types.ReadResult
}

// maxFrameMessages caps the messages a writer puts in one session frame:
// the gateway's replies and the load generator's submits alike. A writer
// takes what is queued, up to this cap, and writes; it never waits for a
// fuller frame. Readers accept any count the frame's length supports.
const maxFrameMessages = 64

// maxSessionFrame bounds one session frame; a malformed or hostile length
// prefix must not make the gateway allocate unbounded memory.
const maxSessionFrame = 1 << 24

// minSubmitSize validates message counts against forged headers,
// mirroring the transport codec's minEnvelopeSize.
const minSubmitSize = 1 + 8 + 8 + 4

// appendSubmit appends one submit message to w.
func appendSubmit(w *types.Writer, s *Submit) {
	w.U8(kindSubmit)
	w.U64(s.Session)
	w.U64(s.Nonce)
	w.Ops(s.Ops)
}

// appendReply appends one reply message to w.
func appendReply(w *types.Writer, r *Reply) {
	w.U8(kindReply)
	w.U64(r.Session)
	w.U64(r.Nonce)
	w.U8(uint8(r.Status))
	w.U64(r.Seq)
	w.U8(r.Busy)
	w.ReadResults(r.Reads)
}

// frameHeader is the two header words a frame under construction leaves
// room for at the front of its Writer.
const frameHeader = 8

// startSessionFrame empties w and leaves room for the frame header.
func startSessionFrame(w *types.Writer) {
	w.Reset()
	w.U64(0)
}

// writeSessionFrame fills in the header of frame — a frame built since
// startSessionFrame, carrying count messages — and writes it as one slice.
func writeSessionFrame(w io.Writer, count int, frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	binary.BigEndian.PutUint32(frame[4:], uint32(count))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("gateway: writing session frame: %w", err)
	}
	return nil
}

// sessionFrame is one decoded inbound frame, a counted and pooled object:
// it owns its body buffer, the Submits or Replies decoded from it, the
// slab the Submits' ops are carved from (op values alias the body), and
// the pendings admit carves for the submits it admits. The reader holds
// the first reference and each admitted pending one more; the last release
// (complete, abandon or Close for a pending) returns the body to its
// buffers and the frame, every slice's capacity kept, to framePool, so a
// frame's decode and admission allocate nothing once the pool is warm.
type sessionFrame struct {
	refs atomic.Int32
	hdr  [4]byte // the length prefix, read here so it need not escape
	body []byte
	bufs types.FrameBuffers

	Submits  []Submit
	Replies  []Reply
	ops      []types.Op
	pendings []pending
}

// framePoolCap bounds the free list of released frames. The frames alive
// at once are the ones with admitted work, at most the admission queue's
// worth, but a closed loop of 2,000 sessions on two connections holds
// about 32 frames of 64 submits, and a release beyond the cap goes to the
// collector.
const framePoolCap = 256

// maxPooledOps is the op slab a pooled frame may keep: 16 ops for each of
// maxFrameMessages submits. A frame whose Submits, Replies or pendings
// grew past maxFrameMessages, or whose op slab grew past this, is left to
// the collector, so an oversized or hostile frame buys no resident memory.
const maxPooledOps = 16 * maxFrameMessages

var framePool = make(chan *sessionFrame, framePoolCap)

// liveFrames counts the frames acquired and not yet released for the last
// time: once a gateway and its connections have stopped, a count above
// what it was before they started is a missed release.
var liveFrames atomic.Int64

// acquireFrame returns an empty frame with one reference, the caller's.
func acquireFrame() *sessionFrame {
	var f *sessionFrame
	select {
	case f = <-framePool:
	default:
		f = new(sessionFrame)
	}
	f.refs.Store(1)
	liveFrames.Add(1)
	return f
}

func (f *sessionFrame) retain() { f.refs.Add(1) }

// release drops one reference. The last returns the body to its buffers,
// empties the frame — or, with types.SetPoisonLent on, poisons its body and
// every element it lent, so a holder that read on past its release sees
// 0xDB — and pools it if its slices are within bounds.
func (f *sessionFrame) release() {
	if f.refs.Add(-1) != 0 {
		return
	}
	liveFrames.Add(-1)
	if types.PoisonLent() {
		f.poison()
	}
	if f.bufs != nil {
		f.bufs.Put(f.body)
	}
	f.body, f.bufs = nil, nil
	clear(f.Submits)
	clear(f.Replies)
	clear(f.ops)
	clear(f.pendings)
	f.Submits, f.Replies, f.ops, f.pendings = f.Submits[:0], f.Replies[:0], f.ops[:0], f.pendings[:0]
	if cap(f.Submits) > maxFrameMessages || cap(f.Replies) > maxFrameMessages ||
		cap(f.pendings) > maxFrameMessages || cap(f.ops) > maxPooledOps {
		return
	}
	select {
	case framePool <- f:
	default: // full: the collector takes it
	}
}

// poisonKey is what a released frame's session ids, nonces and keys read.
const poisonKey = 0xDBDBDBDBDBDBDBDB

var (
	poisonValue = []byte{0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB}
	poisonOps   = []types.Op{{Key: poisonKey, Value: poisonValue}}
)

func (f *sessionFrame) poison() {
	for i := range f.body {
		f.body[i] = 0xDB
	}
	for i := range f.ops {
		f.ops[i] = poisonOps[0]
	}
	for i := range f.Submits {
		f.Submits[i] = Submit{Session: poisonKey, Nonce: poisonKey, Ops: poisonOps}
	}
	for i := range f.Replies {
		f.Replies[i] = Reply{Session: poisonKey, Nonce: poisonKey, Seq: poisonKey}
	}
	for i := range f.pendings {
		f.pendings[i] = pending{session: poisonKey, nonce: poisonKey, ops: poisonOps}
	}
}

// readSessionFrame reads and decodes one frame from r into a frame from
// framePool, borrowing the body buffer from bufs. On success the caller
// holds the frame's one reference; Submit op values alias the body, Reply
// read results are copied (the sessions side keeps no frames). An error
// means the stream is corrupt and the connection must be closed; io.EOF
// propagates untouched for clean shutdown.
func readSessionFrame(r io.Reader, bufs types.FrameBuffers) (*sessionFrame, error) {
	f := acquireFrame()
	if _, err := io.ReadFull(r, f.hdr[:]); err != nil {
		f.release()
		return nil, err
	}
	n := binary.BigEndian.Uint32(f.hdr[:])
	if n < 4 || n > maxSessionFrame {
		f.release()
		return nil, fmt.Errorf("gateway: session frame of %d bytes", n)
	}
	f.body, f.bufs = bufs.Get(int(n))[:n], bufs
	if _, err := io.ReadFull(r, f.body); err != nil {
		f.release()
		return nil, fmt.Errorf("gateway: reading session frame: %w", err)
	}
	if err := f.decode(); err != nil {
		f.release()
		return nil, err
	}
	return f, nil
}

// decode parses the body into Submits and Replies.
func (f *sessionFrame) decode() error {
	rd := types.NewAliasReader(f.body)
	count := int(rd.U32())
	if count < 0 || count > len(f.body)/minSubmitSize+1 {
		return fmt.Errorf("gateway: session frame count %d", count)
	}
	for i := 0; i < count && rd.Err() == nil; i++ {
		switch kind := rd.U8(); kind {
		case kindSubmit:
			var s Submit
			s.Session = rd.U64()
			s.Nonce = rd.U64()
			// The values alias the body; the ops come from the frame's
			// slab, sized for the rest of the frame at one op a submit.
			s.Ops = rd.OpsInto(&f.ops, count-i)
			if len(f.Submits) == 0 && cap(f.Submits) < count-i {
				// One slice for the frame: count was checked against the
				// frame's length above.
				f.Submits = make([]Submit, 0, count-i)
			}
			f.Submits = append(f.Submits, s)
		case kindReply:
			var rp Reply
			rp.Session = rd.U64()
			rp.Nonce = rd.U64()
			rp.Status = Status(rd.U8())
			rp.Seq = rd.U64()
			rp.Busy = rd.U8()
			rp.Reads = rd.ReadResults() // copies: replies outlive the frame
			if len(f.Replies) == 0 && cap(f.Replies) < count-i {
				f.Replies = make([]Reply, 0, count-i)
			}
			f.Replies = append(f.Replies, rp)
		default:
			return fmt.Errorf("gateway: unknown session message kind %#x", kind)
		}
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("gateway: decoding session frame: %w", err)
	}
	if rd.Remaining() != 0 {
		return fmt.Errorf("gateway: session frame with %d trailing bytes", rd.Remaining())
	}
	return nil
}
