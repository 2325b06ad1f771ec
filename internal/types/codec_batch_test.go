package types

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func batchEnv(from, to uint32, body string) *Envelope {
	return &Envelope{
		From: NodeID(from),
		To:   NodeID(to),
		Type: MsgPrepare,
		Body: []byte(body),
		Auth: []byte{0xAA, 0xBB},
	}
}

func envEqual(a, b *Envelope) bool {
	return a.From == b.From && a.To == b.To && a.Type == b.Type &&
		bytes.Equal(a.Body, b.Body) && bytes.Equal(a.Auth, b.Auth)
}

// frameOf returns the wire frame carrying envs.
func frameOf(envs ...*Envelope) []byte {
	var w Writer
	AppendBatchFrame(&w, envs)
	return append([]byte(nil), w.Bytes()...)
}

// TestBatchFrameRoundTrip writes every case into one stream and reads the
// frames back in order, with and without a recycler: each frame must yield
// its envelopes and leave the reader at the next frame's prefix.
func TestBatchFrameRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		envs []*Envelope
	}{
		{"empty", nil},
		{"single", []*Envelope{batchEnv(0, 1, "solo")}},
		{"many", []*Envelope{
			batchEnv(0, 1, "first"),
			batchEnv(2, 1, ""),
			batchEnv(3, 1, strings.Repeat("x", 4096)),
		}},
		{"single again", []*Envelope{batchEnv(4, 5, "tail")}},
	}
	for name, bufs := range map[string]FrameBuffers{"nil recycler": nil, "pooled": &stubBuffers{}, "pooled, buffered reader": &stubBuffers{}} {
		t.Run(name, func(t *testing.T) {
			var stream bytes.Buffer
			for _, tt := range tests {
				stream.Write(frameOf(tt.envs...))
			}
			// The transport's shape: a buffer smaller than the largest frame,
			// so prefixes are peeked and a body straddles fills.
			var src io.Reader = &stream
			if strings.Contains(name, "buffered") {
				src = bufio.NewReaderSize(&stream, 64)
			}
			for _, tt := range tests {
				got, err := ReadFramesPooled(src, bufs)
				if err != nil {
					t.Fatalf("%s: %v", tt.name, err)
				}
				if len(got) != len(tt.envs) {
					t.Fatalf("%s: decoded %d envelopes, want %d", tt.name, len(got), len(tt.envs))
				}
				for i := range got {
					if !envEqual(got[i], tt.envs[i]) {
						t.Fatalf("%s: envelope %d = %+v, want %+v", tt.name, i, got[i], tt.envs[i])
					}
					got[i].Release()
				}
			}
			if stream.Len() != 0 {
				t.Fatalf("%d bytes left unread", stream.Len())
			}
			if sb, ok := bufs.(*stubBuffers); ok && sb.outstanding() != 0 {
				t.Fatalf("%d frame buffers never returned", sb.outstanding())
			}
		})
	}
}

func TestBatchFrameForgedCountRejected(t *testing.T) {
	frame := frameOf(batchEnv(0, 1, "only"))
	// Inflate the count field (bytes 4..8) far beyond what the payload
	// can hold; the decoder must fail instead of over-allocating.
	frame[4], frame[5], frame[6], frame[7] = 0x7F, 0xFF, 0xFF, 0xFF
	if _, err := ReadFramesPooled(bytes.NewReader(frame), nil); !errors.Is(err, ErrOversized) {
		t.Fatalf("forged batch count: %v, want ErrOversized", err)
	}
}

func TestBatchFrameTruncatedPayload(t *testing.T) {
	full := frameOf(batchEnv(0, 1, "aaaa"), batchEnv(0, 1, "bbbb"))
	if _, err := ReadFramesPooled(bytes.NewReader(full[:len(full)-3]), nil); err == nil {
		t.Fatal("truncated batch frame accepted")
	}
}

func TestReadFramesCleanEOF(t *testing.T) {
	if _, err := ReadFramesPooled(bytes.NewReader(nil), nil); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream error = %v, want io.EOF", err)
	}
	if _, err := ReadFramesPooled(bufio.NewReader(bytes.NewReader(nil)), nil); !errors.Is(err, io.EOF) {
		t.Fatalf("empty buffered stream error = %v, want io.EOF", err)
	}
}

// TestReadFramesTornPrefix: a stream that ends inside a length prefix is not
// a clean shutdown, through either kind of reader.
func TestReadFramesTornPrefix(t *testing.T) {
	torn := frameOf(batchEnv(0, 1, "x"))[:2]
	if _, err := ReadFramesPooled(bytes.NewReader(torn), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn prefix error = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadFramesPooled(bufio.NewReader(bytes.NewReader(torn)), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn prefix through a buffered reader = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestBatchFrameTrailingBytesRejected(t *testing.T) {
	frame := frameOf(batchEnv(0, 1, "z"))
	// Grow the declared payload length by one and append a stray byte the
	// announced envelope count does not account for.
	n := uint32(frame[0])<<24 | uint32(frame[1])<<16 | uint32(frame[2])<<8 | uint32(frame[3])
	n++
	frame[0], frame[1], frame[2], frame[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	frame = append(frame, 0x00)
	if _, err := ReadFramesPooled(bytes.NewReader(frame), nil); err == nil {
		t.Fatal("batch frame with trailing bytes accepted")
	}
}
