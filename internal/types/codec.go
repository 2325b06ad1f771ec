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

// decodeInto is the one body decoder behind both entry points below; the
// message it fills is fresh (newMessage), a recycled vote (AcquireVote) or
// a hold's. With a hold it decodes in place: byte fields are views into b,
// and the message's requests, transactions and ops are carved from the
// hold's arrays; without one every byte field is a copy. Decoding is
// canonical: a body it accepts
// re-encodes to the same bytes. The body must therefore be consumed
// exactly — a decodable prefix with trailing garbage is malformed, because
// accepting it would let two distinct wire forms carry one message, and
// signatures cover the whole body.
func decodeInto(msg Message, b []byte, h *hold) error {
	r := readerPool.Get().(*Reader)
	*r = Reader{buf: b, alias: h != nil, hold: h}
	msg.unmarshal(r)
	err := r.Err()
	if err == nil && r.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.Remaining())
	}
	*r = Reader{} // drop the input and the op slab before pooling
	readerPool.Put(r)
	if err != nil {
		return fmt.Errorf("decoding %s body: %w", msg.Type(), err)
	}
	return nil
}

// DecodeBody parses an untagged body encoding for a known message type.
// Every byte-slice field of the result is a copy, safe to retain.
func DecodeBody(t MsgType, b []byte) (Message, error) {
	msg, err := newMessage(t)
	if err != nil {
		return nil, err
	}
	if err := decodeInto(msg, b, nil); err != nil {
		return nil, err
	}
	return msg, nil
}

// DecodeEnvelope decodes e.Body into a message that stays valid after e
// is released. Request-bearing bodies (ClientRequest, PrePrepare,
// NewView) are decoded in place: their payloads, values
// and signatures are views into Body, and the message gets a hold (see
// hold.go) that keeps a reference on the arena behind Body and owns the
// message and its arrays, all recycled. The caller gives the decoder's
// reference back with ReleaseMessage once the step it decoded for is over;
// a keeper of the requests takes its own with RetainRequests. The
// fixed-size votes (Prepare, Commit, Checkpoint), whose frames are most of
// the traffic, and a local read's ReadRequest, whose ops carry no values,
// are decoded into recycled structs the caller gives back the same way.
// Every other type is decoded by copy. A decode failure leaves
// the arena as it was. This is the only decoder that builds views, so a
// view no reference keeps valid cannot be built at all.
func DecodeEnvelope(e *Envelope) (Message, error) {
	if lent := acquireLent(e.Type); lent != nil {
		if err := decodeInto(lent, e.Body, nil); err != nil {
			releaseLent(lent)
			return nil, err
		}
		return lent, nil
	}
	var msg Message
	var h *hold
	switch e.Type {
	case MsgClientRequest:
		h = acquireHold(requestHolds, e.arena)
		msg = &h.cr
	case MsgPrePrepare:
		h = acquireHold(proposalHolds, e.arena)
		h.pp.hold = h
		msg = &h.pp
	case MsgNewView:
		h = acquireHold(proposalHolds, e.arena)
		msg = &NewView{hold: h}
	default:
		return DecodeBody(e.Type, e.Body)
	}
	if err := decodeInto(msg, e.Body, h); err != nil {
		h.release()
		return nil, err
	}
	return msg, nil
}

// AuthenticatedBytes returns the part of a body of type t that the
// envelope's authenticator covers; every signer and verifier of replica
// envelopes asks here. For a proposal (a PrePrepare) that is the
// fixed-size header — view, seq and batch digest — so the
// cost of authenticating one does not grow with the batch it carries. The
// requests behind the header are bound by the digest inside it: a receiver
// must check BatchDigest(Requests) == Digest before acting on a proposal,
// whatever the batch's size, or the payload is unauthenticated. Every
// other body is covered whole.
func AuthenticatedBytes(t MsgType, body []byte) []byte {
	n := len(body)
	if t == MsgPrePrepare {
		n = prePrepareHeaderSize
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
	// Auth is borrowed, like Body: a decoded envelope's, and a MAC a
	// sender wrote into AuthBuffer, live in the envelope itself and are
	// overwritten once it is released. Whoever keeps an authenticator past
	// the envelope's release copies it.
	Auth []byte

	// arena, when non-nil, owns the pooled buffer Body aliases; pooled
	// marks envelopes that return to the envelope pool on Release. Auth
	// never aliases an arena: decode copies it into auth, which holds every
	// CMAC tag and ED25519 signature (a longer one goes to the heap).
	// Envelopes are single-owner values: whoever holds one either passes it
	// on or releases it, exactly once.
	arena  *Arena
	pooled bool
	auth   [InlineAuthSize]byte
}

// InlineAuthSize is the authenticator an envelope holds without
// allocating: an ED25519 signature, four CMAC tags' worth.
const InlineAuthSize = 64

// AuthBuffer returns the envelope's own authenticator storage, empty, for a
// signer to append into: env.Auth, err = a.AppendSignDigest(env.AuthBuffer(),
// to, digest) costs no allocation for any authenticator up to
// InlineAuthSize bytes.
func (e *Envelope) AuthBuffer() []byte { return e.auth[:0] }

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
// input; Auth is copied into the envelope's own storage, where a sender
// writes its MAC too, so an authenticator lives exactly as long as its
// envelope whichever side made it.
func (e *Envelope) decode(r *Reader) {
	e.From = NodeID(r.U32())
	e.To = NodeID(r.U32())
	e.Type = MsgType(r.U8())
	e.Body = r.Blob()
	e.Auth = r.appendBlob(e.auth[:0])
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
// they lie; from any other reader they pass through the frame reader's
// scratch.
func (f *FrameReader) readFrameLen() (uint32, error) {
	r := f.src
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
	if _, err := io.ReadFull(r, f.lenBuf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(f.lenBuf[:]), nil
}

// FrameReader reads frames off one stream — a connection — and decodes
// each in place: envelope structs come from the envelope pool, each Body
// aliases the frame buffer and each Auth is copied into its envelope. With
// a non-nil bufs the buffer is borrowed from it and each envelope holds a
// reference on the frame's arena; the buffer returns to bufs when the last
// reference drops — the envelopes', and those of whatever DecodeEnvelope
// decoded in place from them, which last until the requests' last holder
// lets go. With a nil bufs
// the buffer is allocated and belongs to the garbage collector from the
// start, so a caller that never releases forfeits only the envelope
// structs' reuse. A FrameReader is one goroutine's.
type FrameReader struct {
	src    io.Reader
	bufs   FrameBuffers
	envs   []*Envelope // refilled by every Next
	rd     Reader
	lenBuf [4]byte
}

// NewFrameReader returns a FrameReader over src borrowing from bufs.
func NewFrameReader(src io.Reader, bufs FrameBuffers) *FrameReader {
	return &FrameReader{src: src, bufs: bufs}
}

// Next reads one frame and returns the envelopes it carries. The envelopes
// are the caller's, each to be released exactly once; the slice holding
// them is the reader's, valid until the next call, which refills it.
func (f *FrameReader) Next() ([]*Envelope, error) {
	clear(f.envs) // hold no envelope the caller has passed on
	envs := f.envs[:0]
	n, err := f.readFrameLen()
	if err != nil {
		return nil, err // io.EOF propagates untouched for clean shutdown
	}
	if n > maxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrOversized, n)
	}
	var body []byte
	var arena *Arena // stays nil without a recycler; every use is nil-safe
	if f.bufs != nil {
		body = f.bufs.Get(int(n))[:n]
		arena = NewArena(body, f.bufs) // the reader's reference
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(f.src, body); err != nil {
		arena.Release()
		return nil, fmt.Errorf("reading frame body: %w", err)
	}
	rd := &f.rd
	*rd = Reader{buf: body, alias: true}
	count := rd.count(minEnvelopeSize)
	if cap(envs) < count {
		envs = make([]*Envelope, 0, count)
	}
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
	*rd = Reader{} // the frame is the envelopes' now
	f.envs = envs
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

// ReadFramesPooled reads one frame from r through a FrameReader of its
// own, so the returned slice, as well as the envelopes in it, is the
// caller's.
func ReadFramesPooled(r io.Reader, bufs FrameBuffers) ([]*Envelope, error) {
	return NewFrameReader(r, bufs).Next()
}
