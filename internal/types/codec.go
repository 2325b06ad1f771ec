package types

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrUnknownType is returned when a decoder encounters a type tag outside
// the registered message set.
var ErrUnknownType = errors.New("types: unknown message type")

// Encode appends the tagged encoding of msg to w: one type byte followed by
// the message body.
func Encode(w *Writer, msg Message) {
	w.U8(uint8(msg.Type()))
	msg.marshal(w)
}

// EncodeToBytes returns the tagged encoding of msg in a fresh buffer.
// Callers that append into an existing Writer anyway should call Encode
// directly and skip the intermediate buffer.
func EncodeToBytes(msg Message) []byte {
	w := GetWriter()
	Encode(w, msg)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	PutWriter(w)
	return out
}

// MarshalBody returns the body encoding of msg without the type tag. It is
// the canonical input for signing and MAC computation. Callers that feed
// the bytes straight into a Writer should use AppendBody instead.
func MarshalBody(msg Message) []byte {
	w := GetWriter()
	msg.marshal(w)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	PutWriter(w)
	return out
}

// AppendBody appends the body encoding of msg to w — the append-into-
// Writer form of MarshalBody, with no intermediate buffer or copy.
func AppendBody(w *Writer, msg Message) { msg.marshal(w) }

// MarshalBodyArena marshals msg into a buffer borrowed from bufs and
// returns the encoded body along with the arena owning it. The arena
// starts with one reference — the caller's. Attach it to every envelope
// that will carry the body, then release the caller's reference; the
// buffer returns to bufs when the last envelope retires. sizeHint
// preallocates the borrowed buffer (growth past it falls back to a
// heap-allocated buffer, which the arena still recycles on release).
func MarshalBodyArena(msg Message, bufs FrameBuffers, sizeHint int) ([]byte, *Arena) {
	if sizeHint < 256 {
		sizeHint = 256
	}
	// The Writer itself comes from the pool too: handing a stack Writer's
	// address to the Message interface makes it escape, which would put
	// one heap allocation back on every pooled encode. The writer's own
	// scratch buffer is parked and restored around the arena swap — other
	// GetWriter users (digests, signing bytes) rely on pooled writers
	// keeping their grown capacity, so returning one with a nil buffer
	// would put re-growth allocations back on every digest.
	w := GetWriter()
	scratch := w.buf
	w.buf = bufs.Get(sizeHint)
	msg.marshal(w)
	buf := w.buf
	w.buf = scratch
	PutWriter(w)
	return buf, NewArena(buf, bufs)
}

// newMessage allocates the concrete message for a type tag.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case MsgClientRequest:
		return &ClientRequest{}, nil
	case MsgPrePrepare:
		return &PrePrepare{}, nil
	case MsgPrepare:
		return &Prepare{}, nil
	case MsgCommit:
		return &Commit{}, nil
	case MsgCheckpoint:
		return &Checkpoint{}, nil
	case MsgViewChange:
		return &ViewChange{}, nil
	case MsgNewView:
		return &NewView{}, nil
	case MsgClientResponse:
		return &ClientResponse{}, nil
	case MsgOrderedRequest:
		return &OrderedRequest{}, nil
	case MsgSpecResponse:
		return &SpecResponse{}, nil
	case MsgCommitCert:
		return &CommitCert{}, nil
	case MsgLocalCommit:
		return &LocalCommit{}, nil
	case MsgReadRequest:
		return &ReadRequest{}, nil
	case MsgReadReply:
		return &ReadReply{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
}

// readerPool recycles the Readers behind the Decode* entry points: a
// Reader handed to Message.unmarshal escapes through the interface, so a
// stack one would cost an allocation per decoded message.
var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// decodeBody is the one body decoder behind every entry point below. The
// body must be consumed exactly: a decodable prefix with trailing garbage
// is still malformed — accepting it would let two distinct wire forms
// carry one message, and signatures cover the whole body.
func decodeBody(t MsgType, b []byte, alias bool) (Message, error) {
	msg, err := newMessage(t)
	if err != nil {
		return nil, err
	}
	r := readerPool.Get().(*Reader)
	*r = Reader{buf: b, alias: alias}
	msg.unmarshal(r)
	err = r.Err()
	if err == nil && r.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.Remaining())
	}
	*r = Reader{} // drop the input and the op slab before pooling
	readerPool.Put(r)
	if err != nil {
		return nil, fmt.Errorf("decoding %s body: %w", t, err)
	}
	return msg, nil
}

// Decode parses a tagged encoding produced by Encode.
func Decode(b []byte) (Message, error) {
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	return decodeBody(MsgType(b[0]), b[1:], false)
}

// DecodeBody parses an untagged body encoding for a known message type.
// Every byte-slice field of the result is a copy, safe to retain.
func DecodeBody(t MsgType, b []byte) (Message, error) {
	return decodeBody(t, b, false)
}

// DecodeBodyAlias parses an untagged body like DecodeBody but in alias
// mode: the result's byte-slice fields (transaction payloads, values,
// signatures) are capacity-clipped subslices of b, not copies. The caller
// must guarantee b is neither overwritten nor recycled while the message
// is in use. It serves callers that own b outright and the decode
// benchmarks that bound the copy cost; the replica pipeline, whose bodies
// sit in pooled frames, goes through DecodeEnvelope, which settles the
// buffer's lifetime in the same call.
func DecodeBodyAlias(t MsgType, b []byte) (Message, error) {
	return decodeBody(t, b, true)
}

// bearsRequests reports whether a message type carries client requests:
// the bodies whose decoded form a consensus engine logs until the next
// stable checkpoint, and the only ones large enough for the copy to matter.
func bearsRequests(t MsgType) bool {
	switch t {
	case MsgClientRequest, MsgPrePrepare, MsgOrderedRequest, MsgNewView:
		return true
	}
	return false
}

// DecodeEnvelope decodes e.Body into a message that stays valid after e
// is released, for as long as the caller keeps it. Request-bearing bodies
// (ClientRequest, PrePrepare, OrderedRequest, NewView) are decoded as
// views into Body and, in the same call, the arena behind Body is
// disowned: its buffer now belongs to the garbage collector and no
// Release will recycle it under the message. Every other type — the
// fixed-size votes, whose frames are most of the traffic — is decoded in
// copy mode and its frame keeps returning to the pool. A decode failure
// leaves the arena untouched. This is the replica pipeline's only decoder,
// so an aliased message over a recyclable buffer cannot be built there.
func DecodeEnvelope(e *Envelope) (Message, error) {
	alias := bearsRequests(e.Type)
	msg, err := decodeBody(e.Type, e.Body, alias)
	if err == nil && alias {
		e.arena.disown()
	}
	return msg, err
}

// Envelope is the transport frame: a tagged message body plus sender,
// destination, and the authenticator (digital signature or MAC, Section 3
// "Expensive Cryptographic Practices") computed over the body.
type Envelope struct {
	From NodeID
	To   NodeID
	Type MsgType
	Body []byte
	Auth []byte

	// arena, when non-nil, owns the pooled buffer Body aliases; pooled
	// marks envelopes that return to the envelope pool on Release. Auth
	// never aliases an arena — consensus engines retain authenticators in
	// commit certificates past any frame's lifetime, and sixteen bytes are
	// no reason to pin a frame, so decode always copies it. Envelopes are
	// single-owner values: whoever holds one either passes it on or
	// releases it, exactly once.
	arena  *Arena
	pooled bool
}

// EncodedSize returns the number of bytes WriteFrame will emit.
func (e *Envelope) EncodedSize() int {
	return 4 + 4 + 4 + 1 + 4 + len(e.Body) + 4 + len(e.Auth)
}

// encode appends the envelope wire form (without the outer length prefix).
func (e *Envelope) encode(w *Writer) {
	w.U32(uint32(e.From))
	w.U32(uint32(e.To))
	w.U8(uint8(e.Type))
	w.Blob(e.Body)
	w.Blob(e.Auth)
}

// decode parses the envelope wire form from r in place. Body follows r's
// mode (aliased in alias mode); Auth is always copied because engines
// retain it in commit certificates beyond the frame's lifetime.
func (e *Envelope) decode(r *Reader) {
	e.From = NodeID(r.U32())
	e.To = NodeID(r.U32())
	e.Type = MsgType(r.U8())
	e.Body = r.Blob()
	e.Auth = r.CopyBlob()
}

// decodeEnvelope parses the envelope wire form.
func decodeEnvelope(b []byte) (*Envelope, error) {
	r := NewReader(b)
	e := &Envelope{}
	e.decode(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decoding envelope: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("decoding envelope: %d trailing bytes", r.Remaining())
	}
	return e, nil
}

// batchFrameBit marks a frame's length prefix as a multi-envelope batch
// frame. The bit is free because maxFrameLen bounds real lengths far below
// it, and old-style single-envelope frames never set it, so both frame
// kinds coexist on one connection.
const batchFrameBit = 1 << 31

// minEnvelopeSize is the smallest envelope wire form: from, to, type, and
// two empty blobs. It validates batch counts against forged headers.
const minEnvelopeSize = 4 + 4 + 1 + 4 + 4

// AppendFrame appends the length-prefixed single-envelope frame to w.
func AppendFrame(w *Writer, e *Envelope) {
	w.U32(uint32(e.EncodedSize() - 4))
	e.encode(w)
}

// AppendBatchFrame appends a batch frame carrying every envelope in envs:
// a length prefix with the batch bit set, an envelope count, and the
// concatenated envelope encodings. A batch frame costs one length prefix
// and — crucially for the transport's send path — one Write call for the
// whole batch instead of one per envelope.
func AppendBatchFrame(w *Writer, envs []*Envelope) {
	payload := 4
	for _, e := range envs {
		payload += e.EncodedSize() - 4
	}
	w.U32(uint32(payload) | batchFrameBit)
	w.U32(uint32(len(envs)))
	for _, e := range envs {
		e.encode(w)
	}
}

// WriteFrame writes a length-prefixed envelope to w. It is the TCP framing
// used by the transport layer.
func WriteFrame(w io.Writer, e *Envelope) error {
	wr := GetWriter()
	AppendFrame(wr, e)
	_, err := w.Write(wr.Bytes())
	PutWriter(wr)
	if err != nil {
		return fmt.Errorf("writing frame: %w", err)
	}
	return nil
}

// WriteBatchFrame writes one batch frame carrying all of envs to w.
func WriteBatchFrame(w io.Writer, envs []*Envelope) error {
	wr := GetWriter()
	AppendBatchFrame(wr, envs)
	_, err := w.Write(wr.Bytes())
	PutWriter(wr)
	if err != nil {
		return fmt.Errorf("writing batch frame: %w", err)
	}
	return nil
}

// maxFrameLen bounds a single frame read from the network.
const maxFrameLen = 1 << 28

// ReadFrames reads one frame from r and returns the envelopes it carries:
// exactly one for a single-envelope frame, zero or more for a batch frame.
func ReadFrames(r io.Reader) ([]*Envelope, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err // io.EOF propagates untouched for clean shutdown
	}
	n := uint32(lenBuf[0])<<24 | uint32(lenBuf[1])<<16 | uint32(lenBuf[2])<<8 | uint32(lenBuf[3])
	batch := n&batchFrameBit != 0
	n &^= batchFrameBit
	if n > maxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrOversized, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("reading frame body: %w", err)
	}
	if !batch {
		e, err := decodeEnvelope(body)
		if err != nil {
			return nil, err
		}
		return []*Envelope{e}, nil
	}
	rd := NewReader(body)
	count := rd.count(minEnvelopeSize)
	envs := make([]*Envelope, 0, count)
	for i := 0; i < count; i++ {
		e := &Envelope{}
		e.decode(rd)
		envs = append(envs, e)
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("decoding batch frame: %w", err)
	}
	if rd.Remaining() != 0 {
		return nil, fmt.Errorf("decoding batch frame: %d trailing bytes", rd.Remaining())
	}
	return envs, nil
}

// ReadFramesPooled reads one frame like ReadFrames but borrows the frame
// buffer from bufs and decodes in zero-copy mode: envelope structs come
// from the envelope pool, each Body aliases the shared frame buffer, and
// each envelope holds a reference on the frame's arena. The caller owns
// the returned envelopes and must Release every one exactly once; the
// buffer returns to bufs when the last reference drops — unless a
// DecodeEnvelope on one of them found a request-bearing body and disowned
// the frame, in which case the garbage collector frees it once the decoded
// requests are gone. Auth is copied regardless (engines retain it in
// commit certificates), and messages decoded from Body with DecodeBody are
// copies, so otherwise only Body itself is lifetime-bound.
func ReadFramesPooled(r io.Reader, bufs FrameBuffers) ([]*Envelope, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err // io.EOF propagates untouched for clean shutdown
	}
	n := uint32(lenBuf[0])<<24 | uint32(lenBuf[1])<<16 | uint32(lenBuf[2])<<8 | uint32(lenBuf[3])
	batch := n&batchFrameBit != 0
	n &^= batchFrameBit
	if n > maxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrOversized, n)
	}
	body := bufs.Get(int(n))[:n]
	arena := NewArena(body, bufs) // the reader's reference
	if _, err := io.ReadFull(r, body); err != nil {
		arena.Release()
		return nil, fmt.Errorf("reading frame body: %w", err)
	}
	rd := NewAliasReader(body)
	count := 1
	if batch {
		count = rd.count(minEnvelopeSize)
	}
	envs := make([]*Envelope, 0, count)
	for i := 0; i < count; i++ {
		e := AcquireEnvelope()
		e.decode(rd)
		e.Attach(arena)
		envs = append(envs, e)
	}
	err := rd.Err()
	if err == nil && rd.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", rd.Remaining())
	}
	if err != nil {
		for _, e := range envs {
			e.Release()
		}
		arena.Release()
		return nil, fmt.Errorf("decoding frame: %w", err)
	}
	arena.Release() // hand over to the envelopes' references
	return envs, nil
}

// ReadFrame reads one length-prefixed envelope from r. It rejects batch
// frames that do not carry exactly one envelope; stream readers that must
// accept both frame kinds use ReadFrames.
func ReadFrame(r io.Reader) (*Envelope, error) {
	envs, err := ReadFrames(r)
	if err != nil {
		return nil, err
	}
	if len(envs) != 1 {
		return nil, fmt.Errorf("types: expected single-envelope frame, got batch of %d", len(envs))
	}
	return envs[0], nil
}
