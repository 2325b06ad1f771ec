package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
	"sync"
)

// cmacSize is the AES-CMAC tag length in bytes (full-width tags).
const cmacSize = 16

// CMACKey is a 128-bit AES key used for pairwise message authentication.
type CMACKey [16]byte

// cmacState holds the expanded AES block cipher and the two RFC 4493
// subkeys for one pairwise key. It is immutable after creation and safe
// for concurrent use.
type cmacState struct {
	block  cipher.Block
	k1, k2 [cmacSize]byte
}

// newCMAC expands key into a reusable CMAC state per RFC 4493 §2.3.
func newCMAC(key CMACKey) (*cmacState, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypto: expanding CMAC key: %w", err)
	}
	s := &cmacState{block: block}
	var l [cmacSize]byte
	block.Encrypt(l[:], l[:])
	dbl(&s.k1, &l)
	dbl(&s.k2, &s.k1)
	return s, nil
}

// dbl computes dst = in·x in GF(2^128) with the CMAC reduction polynomial:
// a left shift by one bit, XORing 0x87 into the last byte if the top bit
// was set (RFC 4493 §2.3).
func dbl(dst, in *[cmacSize]byte) {
	var carry byte
	for i := cmacSize - 1; i >= 0; i-- {
		b := in[i]
		dst[i] = b<<1 | carry
		carry = b >> 7
	}
	if carry != 0 {
		dst[cmacSize-1] ^= 0x87
	}
}

// cmacBlocks is the chaining value and cipher input of one Sum. Slices of
// them go through the cipher.Block interface, so as locals they escape —
// two allocations per MAC, some fifty MACs per batch. The state is shared
// across goroutines, so the scratch is pooled rather than a field.
type cmacBlocks struct{ x, y [cmacSize]byte }

var cmacBlocksPool = sync.Pool{New: func() any { return new(cmacBlocks) }}

// Sum computes the AES-CMAC tag of msg (RFC 4493 §2.4).
func (s *cmacState) Sum(msg []byte) [cmacSize]byte {
	n := len(msg)
	var last [cmacSize]byte
	full := n / cmacSize
	rem := n % cmacSize
	complete := full
	if rem == 0 && n > 0 {
		complete = full - 1
		copy(last[:], msg[complete*cmacSize:])
		for i := 0; i < cmacSize; i++ {
			last[i] ^= s.k1[i]
		}
	} else {
		copy(last[:], msg[complete*cmacSize:])
		last[rem] ^= 0x80 // 10^i padding
		for i := 0; i < cmacSize; i++ {
			last[i] ^= s.k2[i]
		}
	}

	sc := cmacBlocksPool.Get().(*cmacBlocks)
	x, y := &sc.x, &sc.y
	*x = [cmacSize]byte{}
	for b := 0; b < complete; b++ {
		off := b * cmacSize
		for i := 0; i < cmacSize; i++ {
			y[i] = x[i] ^ msg[off+i]
		}
		s.block.Encrypt(x[:], y[:])
	}
	for i := 0; i < cmacSize; i++ {
		y[i] = x[i] ^ last[i]
	}
	s.block.Encrypt(x[:], y[:])
	tag := *x
	cmacBlocksPool.Put(sc)
	return tag
}

// Verify reports whether tag is the CMAC of msg, in constant time.
func (s *cmacState) Verify(msg, tag []byte) bool {
	if len(tag) != cmacSize {
		return false
	}
	want := s.Sum(msg)
	return subtle.ConstantTimeCompare(want[:], tag) == 1
}
