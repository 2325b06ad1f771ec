package types

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrUnknownType is returned when a decoder encounters a type tag outside
// the registered message set.
var ErrUnknownType = errors.New("types: unknown message type")

// MarshalBody returns the body encoding of msg in a fresh buffer. The type
// tag travels beside the body, in the envelope. It is the canonical input
// for signing and MAC computation.
func MarshalBody(msg Message) []byte {
	w := GetWriter()
	msg.marshal(w)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	PutWriter(w)
	return out
}

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

// readerPool recycles the Readers behind DecodeBody and DecodeEnvelope: a
// Reader handed to Message.unmarshal escapes through the interface, so a
// stack one would cost an allocation per decoded message.
var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// decodeBody is the one body decoder behind both entry points below.
// Decoding is canonical: a body it accepts re-encodes to the same bytes.
// The body must therefore be consumed exactly — a decodable prefix with
// trailing garbage is malformed, because accepting it would let two
// distinct wire forms carry one message, and signatures cover the whole
// body.
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

// DecodeBody parses an untagged body encoding for a known message type.
// Every byte-slice field of the result is a copy, safe to retain.
func DecodeBody(t MsgType, b []byte) (Message, error) {
	return decodeBody(t, b, false)
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
// leaves the arena untouched. This is the only decoder that builds views,
// so an aliased message over a recyclable buffer cannot be built at all.
func DecodeEnvelope(e *Envelope) (Message, error) {
	alias := bearsRequests(e.Type)
	msg, err := decodeBody(e.Type, e.Body, alias)
	if err == nil && alias {
		e.arena.disown()
	}
	return msg, err
}

// AuthenticatedBytes returns the part of a body of type t that the
// envelope's authenticator covers; every signer and verifier of replica
// envelopes asks here. For a proposal (PrePrepare, OrderedRequest) that is
// the fixed-size header — view, seq, batch digest (and history) — so the
// cost of authenticating one does not grow with the batch it carries. The
// requests behind the header are bound by the digest inside it: a receiver
// must check BatchDigest(Requests) == Digest before acting on a proposal,
// whatever the batch's size, or the payload is unauthenticated. Every
// other body is covered whole.
func AuthenticatedBytes(t MsgType, body []byte) []byte {
	n := len(body)
	switch t {
	case MsgPrePrepare:
		n = prePrepareHeaderSize
	case MsgOrderedRequest:
		n = orderedRequestHeaderSize
	}
	if n > len(body) {
		return body // too short to decode; the decoder rejects it
	}
	return body[:n]
}

// Envelope is the transport frame: a tagged message body plus sender,
// destination, and the authenticator (digital signature or MAC, Section 3
// "Expensive Cryptographic Practices") computed over
// AuthenticatedBytes(Type, Body).
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

// minEnvelopeSize is the smallest envelope wire form: from, to, type, and
// two empty blobs. It validates frame counts against forged headers.
const minEnvelopeSize = 4 + 4 + 1 + 4 + 4

// EncodedSize returns the number of bytes the envelope occupies in a frame.
func (e *Envelope) EncodedSize() int {
	return minEnvelopeSize + len(e.Body) + len(e.Auth)
}

// encode appends the envelope wire form.
func (e *Envelope) encode(w *Writer) {
	w.U32(uint32(e.From))
	w.U32(uint32(e.To))
	w.U8(uint8(e.Type))
	w.Blob(e.Body)
	w.Blob(e.Auth)
}

// decode parses the envelope wire form from r in place. Body aliases r's
// input; Auth is always copied because engines retain it in commit
// certificates beyond the frame's lifetime.
func (e *Envelope) decode(r *Reader) {
	e.From = NodeID(r.U32())
	e.To = NodeID(r.U32())
	e.Type = MsgType(r.U8())
	e.Body = r.Blob()
	e.Auth = r.CopyBlob()
}

// AppendBatchFrame appends the frame carrying every envelope in envs: a
// length prefix, an envelope count, and the concatenated envelope
// encodings. A frame costs one header and — crucially for the transport's
// send path — one Write call for the whole batch instead of one per
// envelope.
func AppendBatchFrame(w *Writer, envs []*Envelope) {
	payload := 4
	for _, e := range envs {
		payload += e.EncodedSize()
	}
	w.U32(uint32(payload))
	w.U32(uint32(len(envs)))
	for _, e := range envs {
		e.encode(w)
	}
}

// maxFrameLen bounds a single frame read from the network.
const maxFrameLen = 1 << 28

// readFrameLen reads a frame's length prefix. A buffered reader — what the
// transport reads every connection through — lends the four bytes where
// they lie; from any other reader they pass through a local that the
// interface call sends to the heap.
func readFrameLen(r io.Reader) (uint32, error) {
	if br, ok := r.(*bufio.Reader); ok {
		p, err := br.Peek(4)
		if err != nil {
			if err == io.EOF && len(p) > 0 {
				err = io.ErrUnexpectedEOF // as io.ReadFull reports a torn prefix
			}
			return 0, err
		}
		n := binary.BigEndian.Uint32(p)
		_, err = br.Discard(4)
		return n, err
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(lenBuf[:]), nil
}

// ReadFramesPooled reads one frame from r and returns the envelopes it
// carries, decoded in place: envelope structs come from the envelope pool
// and each Body aliases the frame buffer. With a non-nil bufs the buffer is
// borrowed from it and each envelope holds a reference on the frame's
// arena; the caller owns the returned envelopes and must Release every one
// exactly once, and the buffer returns to bufs when the last reference
// drops — unless a DecodeEnvelope on one of them found a request-bearing
// body and disowned the frame, in which case the garbage collector frees
// it once the decoded requests are gone. With a nil bufs the buffer is
// allocated and belongs to the garbage collector from the start, so a
// caller that never releases forfeits only the envelope structs' reuse.
// Auth is copied regardless (engines retain it in commit certificates),
// and messages decoded from Body with DecodeBody are copies, so otherwise
// only Body itself is lifetime-bound.
func ReadFramesPooled(r io.Reader, bufs FrameBuffers) ([]*Envelope, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err // io.EOF propagates untouched for clean shutdown
	}
	if n > maxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrOversized, n)
	}
	var body []byte
	var arena *Arena // stays nil without a recycler; every use is nil-safe
	if bufs != nil {
		body = bufs.Get(int(n))[:n]
		arena = NewArena(body, bufs) // the reader's reference
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		arena.Release()
		return nil, fmt.Errorf("reading frame body: %w", err)
	}
	rd := NewAliasReader(body)
	count := rd.count(minEnvelopeSize)
	envs := make([]*Envelope, 0, count)
	for i := 0; i < count; i++ {
		e := AcquireEnvelope()
		e.decode(rd)
		e.Attach(arena)
		envs = append(envs, e)
	}
	err = rd.Err()
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
