package crypto

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// RFC 4493 Appendix A test vectors for AES-128-CMAC.
var rfc4493Key = mustHex("2b7e151628aed2a6abf7158809cf4f3c")

var rfc4493Msg = mustHex(
	"6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710")

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func rfcState(t *testing.T) *cmacState {
	t.Helper()
	var key CMACKey
	copy(key[:], rfc4493Key)
	s, err := newCMAC(key)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCMACSubkeysRFC4493(t *testing.T) {
	s := rfcState(t)
	wantK1 := mustHex("fbeed618357133667c85e08f7236a8de")
	wantK2 := mustHex("f7ddac306ae266ccf90bc11ee46d513b")
	if !bytes.Equal(s.k1[:], wantK1) {
		t.Fatalf("K1 = %x, want %x", s.k1, wantK1)
	}
	if !bytes.Equal(s.k2[:], wantK2) {
		t.Fatalf("K2 = %x, want %x", s.k2, wantK2)
	}
}

func TestCMACVectorsRFC4493(t *testing.T) {
	s := rfcState(t)
	tests := []struct {
		name string
		msg  []byte
		want string
	}{
		{"len0", nil, "bb1d6929e95937287fa37d129b756746"},
		{"len16", rfc4493Msg[:16], "070a16b46b4d4144f79bdd9dd04a287c"},
		{"len40", rfc4493Msg[:40], "dfa66747de9ae63030ca32611497c827"},
		{"len64", rfc4493Msg[:64], "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := s.Sum(tt.msg)
			if hex.EncodeToString(got[:]) != tt.want {
				t.Fatalf("CMAC = %x, want %s", got, tt.want)
			}
			if !s.Verify(tt.msg, got[:]) {
				t.Fatal("Verify rejected a valid tag")
			}
		})
	}
}

func TestCMACVerifyRejects(t *testing.T) {
	s := rfcState(t)
	tag := s.Sum(rfc4493Msg)
	bad := append([]byte(nil), tag[:]...)
	bad[0] ^= 1
	if s.Verify(rfc4493Msg, bad) {
		t.Fatal("Verify accepted a corrupted tag")
	}
	if s.Verify(rfc4493Msg, tag[:8]) {
		t.Fatal("Verify accepted a truncated tag")
	}
	if s.Verify(rfc4493Msg[:16], tag[:]) {
		t.Fatal("Verify accepted a tag for different message")
	}
}

func TestCMACPaddingBoundaries(t *testing.T) {
	// Lengths around block boundaries exercise both the K1 (complete final
	// block) and K2 (padded final block) paths.
	s := rfcState(t)
	seen := make(map[string]bool)
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65} {
		msg := bytes.Repeat([]byte{0x5A}, n)
		tag := s.Sum(msg)
		k := hex.EncodeToString(tag[:])
		if seen[k] {
			t.Fatalf("duplicate tag for length %d", n)
		}
		seen[k] = true
		if !s.Verify(msg, tag[:]) {
			t.Fatalf("Verify failed at length %d", n)
		}
	}
}

// TestCMACSumVerifyAllocateNothing pins the MAC path at zero allocations:
// the two blocks that pass through the cipher.Block interface come from a
// pool, so the ~56 MACs a batch costs a replica leave no garbage.
func TestCMACSumVerifyAllocateNothing(t *testing.T) {
	s := rfcState(t)
	msg := rfc4493Msg[:58] // a Prepare body's length: three blocks and a padded tail
	tag := s.Sum(msg)
	sum := testing.AllocsPerRun(200, func() { _ = s.Sum(msg) })
	verify := testing.AllocsPerRun(200, func() {
		if !s.Verify(msg, tag[:]) {
			t.Fatal("tag rejected")
		}
	})
	t.Logf("allocations per call: Sum %.0f, Verify %.0f", sum, verify)
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
	}
	if sum != 0 || verify != 0 {
		t.Fatalf("Sum allocates %.0f and Verify %.0f per call, want 0 and 0", sum, verify)
	}
}
