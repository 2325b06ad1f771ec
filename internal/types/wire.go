package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned when a Reader runs out of bytes mid-field.
var ErrTruncated = errors.New("types: truncated message")

// ErrOversized is returned when a length prefix exceeds the sane bound for
// its field, which protects decoders against hostile inputs.
var ErrOversized = errors.New("types: oversized field")

// maxFieldLen bounds any single variable-length field. Batches of thousands
// of kilobyte-scale transactions stay far below this.
const maxFieldLen = 1 << 28

// Writer accumulates a binary encoding. The zero value is ready to use.
// All integers are big-endian; variable-length fields carry a u32 prefix.
type Writer struct {
	buf []byte
}

// NewWriterSize returns a Writer with a preallocated capacity hint.
func NewWriterSize(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Bytes returns the encoded bytes. The slice aliases the Writer's internal
// buffer; callers that retain it across Reset must copy it first.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset discards the contents while keeping the allocation.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 appends a single byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Bytes32 appends a fixed 32-byte digest.
func (w *Writer) Bytes32(d Digest) { w.buf = append(w.buf, d[:]...) }

// Blob appends a u32 length prefix followed by the bytes.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader decodes a binary encoding produced by Writer. Errors are sticky:
// after the first failure every subsequent call returns zero values, so
// decoders can run straight-line and check Err once at the end.
type Reader struct {
	buf   []byte
	off   int
	err   error
	alias bool

	// opSlab is the unused tail of the backing array the current message's
	// transactions carve their Ops from, and opNext the length of the next
	// one: a request of 32 one-op transactions costs one []Op, not 32.
	opSlab []Op
	opNext int
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// NewAliasReader returns a Reader in alias mode: Blob returns subslices
// of b instead of copies, so nothing decoded through it may outlive b.
// Fields that must survive the input buffer use CopyBlob regardless of
// mode.
func NewAliasReader(b []byte) *Reader { return &Reader{buf: b, alias: true} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads a single byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Bytes32 reads a fixed 32-byte digest.
func (r *Reader) Bytes32() Digest {
	var d Digest
	b := r.take(32)
	if b != nil {
		copy(d[:], b)
	}
	return d
}

// Blob reads a u32 length prefix and the bytes it announces. In the
// default mode the returned slice is a copy, so the caller may retain it
// after the input buffer is recycled into a pool; in alias mode (see
// NewAliasReader) it is a capacity-clipped subslice of the input and
// must not outlive it.
func (r *Reader) Blob() []byte {
	return r.blob(r.alias)
}

// CopyBlob reads a blob and always copies it, even in alias mode. It is
// for fields that are retained past the frame's lifetime — read results
// handed to clients, for one.
func (r *Reader) CopyBlob() []byte {
	return r.blob(false)
}

// appendBlob reads a blob and appends a copy of it to dst, whatever the
// mode: an envelope's authenticator goes into the envelope's own storage.
func (r *Reader) appendBlob(dst []byte) []byte {
	b := r.blob(true)
	if r.err != nil {
		return nil
	}
	return append(dst, b...)
}

func (r *Reader) blob(alias bool) []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > maxFieldLen {
		r.fail(fmt.Errorf("%w: blob of %d bytes", ErrOversized, n))
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	if alias {
		// Clip capacity so an append on the decoded field cannot bleed
		// into the bytes that follow it in the shared buffer.
		return b[:n:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// minOpSize is the smallest wire form of one Op: kind, key and an empty
// value's length prefix.
const minOpSize = 1 + 8 + 4

// wantOps tells the reader that txns transactions follow, so the next slab
// holds at least one Op for each of them.
func (r *Reader) wantOps(txns int) {
	if txns > r.opNext {
		r.opNext = txns
	}
}

// carveOps returns n zeroed Ops carved from the reader's slab, clipped to
// capacity n so an append on one transaction's Ops reallocates instead of
// running into its neighbour's. The caller has already checked n against
// the bytes remaining; a fresh slab is sized by wantOps, then doubles, and
// never exceeds the number of ops the unread bytes could encode — so a
// forged count cannot buy more memory than the body it arrived in.
func (r *Reader) carveOps(n int) []Op {
	if n == 0 {
		return []Op{}
	}
	if n > len(r.opSlab) {
		size := r.opNext
		if most := r.Remaining()/minOpSize + 1; size > most {
			size = most
		}
		if size < n {
			size = n
		}
		r.opSlab = make([]Op, size)
		r.opNext = 2 * size
	}
	out := r.opSlab[:n:n]
	r.opSlab = r.opSlab[n:]
	return out
}

// count reads a u32 element count, validating it against a minimum element
// size so a forged count cannot force a huge allocation.
func (r *Reader) count(minElemSize int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if minElemSize > 0 && int(n) > r.Remaining()/minElemSize+1 {
		r.fail(fmt.Errorf("%w: %d elements", ErrOversized, n))
		return 0
	}
	return int(n)
}
