// Session wire protocol: the framing between lightweight client sessions
// and the gateway's front door. Many sessions share one TCP connection;
// every message is tagged with its session id, so the connection is a
// multiplexing pipe, not an identity. Framing follows the transport
// layer's length-prefixed idiom, and inbound frames decode zero-copy out
// of pooled buffers exactly like the replica receive path: a Submit's op
// values alias the frame buffer through a reference-counted arena until
// the gateway has folded them into a consensus request.
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
	"fmt"
	"io"

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
// the inbound frame buffer; the arena reference (held by the gateway's
// pending record) keeps the buffer alive until the transaction has been
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

// writeSessionFrame writes one frame carrying count messages already
// marshalled into payload (the bytes after the two header words).
func writeSessionFrame(w io.Writer, count int, payload []byte) error {
	n := uint32(4 + len(payload))
	hdr := [8]byte{
		byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n),
		byte(count >> 24), byte(count >> 16), byte(count >> 8), byte(count),
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("gateway: writing session frame: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("gateway: writing session frame: %w", err)
	}
	return nil
}

// sessionFrame is one decoded inbound frame. Submits' op values alias the
// frame buffer; the caller must Release the arena once every submit in
// the frame has been retired (the arena starts with one reference per
// submit plus the caller's).
type sessionFrame struct {
	Submits []Submit
	Replies []Reply
	Arena   *types.Arena
}

// readSessionFrame reads and decodes one frame from r, borrowing the
// frame buffer from bufs. On success the returned frame's arena holds one
// reference owned by the caller; Submit op values alias the buffer, Reply
// values are copied (replies are few and small — the sessions side keeps
// no arenas). An error means the stream is corrupt and the connection
// must be closed; io.EOF propagates untouched for clean shutdown.
func readSessionFrame(r io.Reader, bufs types.FrameBuffers) (sessionFrame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return sessionFrame{}, err
	}
	n := uint32(lenBuf[0])<<24 | uint32(lenBuf[1])<<16 | uint32(lenBuf[2])<<8 | uint32(lenBuf[3])
	if n < 4 || n > maxSessionFrame {
		return sessionFrame{}, fmt.Errorf("gateway: session frame of %d bytes", n)
	}
	body := bufs.Get(int(n))[:n]
	arena := types.NewArena(body, bufs)
	if _, err := io.ReadFull(r, body); err != nil {
		arena.Release()
		return sessionFrame{}, fmt.Errorf("gateway: reading session frame: %w", err)
	}
	rd := types.NewAliasReader(body)
	count := int(rd.U32())
	if count < 0 || count > int(n)/minSubmitSize+1 {
		arena.Release()
		return sessionFrame{}, fmt.Errorf("gateway: session frame count %d", count)
	}
	f := sessionFrame{Arena: arena}
	for i := 0; i < count && rd.Err() == nil; i++ {
		switch kind := rd.U8(); kind {
		case kindSubmit:
			var s Submit
			s.Session = rd.U64()
			s.Nonce = rd.U64()
			s.Ops = rd.Ops() // values alias the frame buffer
			if f.Submits == nil {
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
			if f.Replies == nil {
				f.Replies = make([]Reply, 0, count-i)
			}
			f.Replies = append(f.Replies, rp)
		default:
			arena.Release()
			return sessionFrame{}, fmt.Errorf("gateway: unknown session message kind %#x", kind)
		}
	}
	if err := rd.Err(); err != nil {
		arena.Release()
		return sessionFrame{}, fmt.Errorf("gateway: decoding session frame: %w", err)
	}
	if rd.Remaining() != 0 {
		arena.Release()
		return sessionFrame{}, fmt.Errorf("gateway: session frame with %d trailing bytes", rd.Remaining())
	}
	return f, nil
}
