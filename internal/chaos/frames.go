package chaos

// This file is the malformed-wire corpus: the bytes the fabric's Corrupt
// fault injects, plus seed inputs for the frame- and body-decoding fuzz
// targets in internal/types. Keeping the corpus here means the fuzzers
// start from exactly the garbage the chaos scenarios exercise at runtime.

// malformedBody returns a fresh body that no message type decodes: every
// unmarshal starts by reading at least one u32, so three bytes always
// leave the reader short. The receiver's authenticator check passes it (the
// fabric re-signs it) and the decode counts it in DecodeFailures.
func malformedBody() []byte { return []byte{0xFF, 0xFE, 0xFD} }

// MalformedBodies returns decode-failing message bodies for fuzz seeding:
// the runtime injection garbage plus truncation and trailing-byte shapes.
func MalformedBodies() [][]byte {
	return [][]byte{
		malformedBody(),
		{},                       // empty body
		{0x00},                   // one byte: short of any field
		{0x00, 0x00, 0x00},       // three zero bytes: short u32
		{0xFF, 0xFF, 0xFF, 0xFF}, // huge first count/field
		{0x00, 0x00, 0x00, 0x01}, // count 1 with no elements behind it
		make([]byte, 64),         // zeros: plausible prefix, bad tail
		// Scan-bearing shapes: an op cut off mid-scan (kind 2,
		// key, no end/limit/value) and a count followed by a scan marker
		// claiming a huge row count with nothing behind it.
		{0x00, 0x00, 0x00, 0x01, 0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x00, 0x00, 0x00, 0x01, 0x02, 0xFF, 0xFF, 0xFF, 0xFF},
	}
}

// MalformedFrames returns wire-level frames (length prefix included) that
// must make types.ReadFramesPooled return an error — never panic or
// over-allocate. Shapes: truncated prefix, oversized length, missing and
// forged envelope counts, truncated payloads, and trailing bytes.
func MalformedFrames() [][]byte {
	// Minimal valid envelope: from=0, to=0, type=1, empty body blob, empty
	// auth blob — 17 bytes, the minEnvelopeSize wire form.
	minEnv := []byte{
		0, 0, 0, 0, // from
		0, 0, 0, 0, // to
		1,          // type
		0, 0, 0, 0, // body len
		0, 0, 0, 0, // auth len
	}
	u32 := func(v uint32) []byte { return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)} }
	// frame announces length payload bytes, then count and whatever follows.
	frame := func(length, count uint32, rest ...byte) []byte {
		return append(append(u32(length), u32(count)...), rest...)
	}
	one := uint32(4 + len(minEnv)) // payload length of a frame of one minEnv
	return [][]byte{
		{},                       // no prefix at all
		{0x00},                   // truncated prefix
		u32(1<<28 + 1),           // length beyond maxFrameLen
		u32(1<<31 | 4),           // as above, by the top bit alone
		u32(0),                   // no room for the envelope count
		append(u32(10), 1, 2, 3), // truncated payload
		frame(4, 0x00FFFFFF),     // forged huge count
		frame(4, 1),              // count 1, no envelope
		frame(one, 2, minEnv...), // count 2, one envelope
		frame(one-1, 1, minEnv[:len(minEnv)-1]...),                          // envelope short one byte
		frame(one+2, 1, append(append([]byte{}, minEnv...), 0xAA, 0xBB)...), // trailing bytes
		frame(one, 0, minEnv...),                                            // count 0, then an envelope
	}
}
