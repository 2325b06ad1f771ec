package types

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleTxn(i int) Transaction {
	return Transaction{
		Client:    ClientID(i),
		ClientSeq: uint64(1000 + i),
		Ops: []Op{
			{Key: uint64(i * 7), Value: []byte{byte(i), 2, 3}},
			{Key: uint64(i * 13), Value: []byte("value")},
		},
		Payload: bytes.Repeat([]byte{0xAB}, i%17),
	}
}

func sampleRequest(i int) ClientRequest {
	return ClientRequest{
		Client:   ClientID(i),
		FirstSeq: uint64(i * 100),
		Txns:     []Transaction{sampleTxn(i), sampleTxn(i + 1)},
		Sig:      []byte("sig-bytes"),
	}
}

func TestNodeIDMapping(t *testing.T) {
	tests := []struct {
		name string
		node NodeID
		rep  bool
	}{
		{"replica zero", ReplicaNode(0), true},
		{"replica max", ReplicaNode(ReplicaSpace - 1), true},
		{"client zero", ClientNode(0), false},
		{"client large", ClientNode(80000), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.node.IsReplica(); got != tt.rep {
				t.Fatalf("IsReplica() = %v, want %v", got, tt.rep)
			}
			if got := tt.node.IsClient(); got == tt.rep {
				t.Fatalf("IsClient() = %v, want %v", got, !tt.rep)
			}
		})
	}
	if got := ClientNode(42).Client(); got != 42 {
		t.Fatalf("Client() = %d, want 42", got)
	}
	if got := ReplicaNode(7).Replica(); got != 7 {
		t.Fatalf("Replica() = %d, want 7", got)
	}
	if s := ClientNode(3).String(); s != "c3" {
		t.Fatalf("String() = %q, want c3", s)
	}
	if s := ReplicaNode(3).String(); s != "r3" {
		t.Fatalf("String() = %q, want r3", s)
	}
}

func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	got, err := DecodeBody(msg.Type(), MarshalBody(msg))
	if err != nil {
		t.Fatalf("DecodeBody(%s): %v", msg.Type(), err)
	}
	return got
}

func TestRoundTripAllMessageTypes(t *testing.T) {
	d1 := Digest{1, 2, 3}
	d2 := Digest{4, 5, 6}
	msgs := []Message{
		&ClientRequest{Client: 9, FirstSeq: 55, Txns: []Transaction{sampleTxn(1)}, Sig: []byte{9, 9}},
		&PrePrepare{View: 3, Seq: 77, Digest: d1, Requests: []ClientRequest{sampleRequest(1), sampleRequest(2)}},
		&Prepare{View: 1, Seq: 2, Digest: d1, Replica: 5},
		&Commit{View: 1, Seq: 2, Digest: d2, Replica: 6},
		&Checkpoint{Seq: 1000, StateDigest: d1, Replica: 2},
		&ViewChange{
			NewView:    4,
			StableSeq:  900,
			StateProof: []Checkpoint{{Seq: 900, StateDigest: d1, Replica: 0}, {Seq: 900, StateDigest: d1, Replica: 1}},
			Prepared: []PreparedProof{{
				View: 3, Seq: 901, Digest: d2,
				Prepares: []Prepare{{View: 3, Seq: 901, Digest: d2, Replica: 1}, {View: 3, Seq: 901, Digest: d2, Replica: 2}},
			}},
			Replica: 3,
		},
		&NewView{
			View:        4,
			ViewChanges: []ViewChange{{NewView: 4, StableSeq: 900, Replica: 1}},
			PrePrepares: []PrePrepare{{View: 4, Seq: 901, Digest: d2}},
		},
		&ClientResponse{View: 2, Seq: 10, Client: 3, ClientSeq: 44, Result: d1, Replica: 1},
		&ClientResponse{View: 2, Seq: 10, Client: 3, ClientSeq: 44, Result: d1, Replica: 1,
			ReadResults: []ReadResult{{Found: true, Value: []byte("v")}, {Found: false}}},
		&ReadRequest{Client: 12, ClientSeq: 90, MinSeq: 3, Ops: []Op{
			{Kind: OpRead, Key: 3}, {Kind: OpScan, Key: 1 << 40, EndKey: 1<<40 + 9, Limit: 4}, {Kind: OpRead, Key: 7}}},
		&ReadReply{Client: 12, ClientSeq: 90, Seq: 501, Replica: 2,
			Results: []ReadResult{{Found: true, Value: []byte("abc")}, {Found: false}}},
	}
	for _, msg := range msgs {
		t.Run(msg.Type().String(), func(t *testing.T) {
			got := roundTrip(t, msg)
			if !reflect.DeepEqual(normalize(got), normalize(msg)) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, msg)
			}
		})
	}
}

// normalize maps nil slices to empty ones so DeepEqual compares structure,
// not the nil-vs-empty distinction the codec legitimately flattens.
func normalize(m Message) []byte { return MarshalBody(m) }

func TestDecodeRejectsUnknownType(t *testing.T) {
	if _, err := DecodeBody(0xEE, []byte{1, 2, 3}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("DecodeBody of an unknown message type: %v, want ErrUnknownType", err)
	}
}

// TestReadRequestRefusesWrites: a ReadRequest whose op list carries
// anything but reads and scans does not decode, whatever the op's place.
func TestReadRequestRefusesWrites(t *testing.T) {
	for _, kind := range []OpKind{OpWrite, OpScan + 1} {
		body := MarshalBody(&ReadRequest{Client: 1, ClientSeq: 2, Ops: []Op{
			{Kind: OpRead, Key: 1}, {Kind: kind, Key: 2, Value: []byte("w")}}})
		if _, err := DecodeBody(MsgReadRequest, body); !errors.Is(err, errWriteInRead) {
			t.Fatalf("ReadRequest with an op of kind %d: %v, want errWriteInRead", kind, err)
		}
	}
}

// TestMsgTypeTags pins every tag's value on the wire: frames, logs and
// signatures carry the numbers, so removing or inserting a message must not
// shift them. Tags 9–12, once Zyzzyva's, stay reserved and refused.
func TestMsgTypeTags(t *testing.T) {
	for tag, want := range map[MsgType]uint8{
		MsgClientRequest: 1, MsgPrePrepare: 2, MsgPrepare: 3, MsgCommit: 4,
		MsgCheckpoint: 5, MsgViewChange: 6, MsgNewView: 7, MsgClientResponse: 8,
		MsgReadRequest: 13, MsgReadReply: 14,
	} {
		if uint8(tag) != want {
			t.Errorf("%v is tag %d, want %d", tag, uint8(tag), want)
		}
	}
	body := MarshalBody(&PrePrepare{View: 1, Seq: 2, Requests: []ClientRequest{sampleRequest(1)}})
	for tag := MsgType(9); tag <= 12; tag++ {
		if _, err := DecodeBody(tag, body); !errors.Is(err, ErrUnknownType) {
			t.Errorf("DecodeBody of reserved tag %d: %v, want ErrUnknownType", tag, err)
		}
		if _, err := DecodeEnvelope(&Envelope{Type: tag, Body: body}); !errors.Is(err, ErrUnknownType) {
			t.Errorf("DecodeEnvelope of reserved tag %d: %v, want ErrUnknownType", tag, err)
		}
	}
}

// TestDecodeTruncatedNeverPanics: a body is consumed exactly, so every
// proper prefix of one must fail — cleanly.
func TestDecodeTruncatedNeverPanics(t *testing.T) {
	full := MarshalBody(&PrePrepare{View: 3, Seq: 77, Digest: Digest{1}, Requests: []ClientRequest{sampleRequest(1)}})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeBody(MsgPrePrepare, full[:cut]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte body decoded", cut, len(full))
		}
	}
}

func TestDecodeHostileCounts(t *testing.T) {
	// A pre-prepare declaring 2^32-1 requests must fail fast, not allocate.
	var w Writer
	w.U64(1) // view
	w.U64(1) // seq
	w.Bytes32(Digest{})
	w.U32(0xFFFFFFFF) // hostile request count
	if _, err := DecodeBody(MsgPrePrepare, w.Bytes()); err == nil {
		t.Fatal("DecodeBody accepted hostile element count")
	}
}

func TestWriterReaderPrimitives(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U16(513)
	w.U32(70000)
	w.U64(1 << 40)
	w.Blob([]byte("hello"))
	w.Bytes32(Digest{9, 8, 7})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.U16(); got != 513 {
		t.Fatalf("U16 = %d", got)
	}
	if got := r.U32(); got != 70000 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.Blob(); string(got) != "hello" {
		t.Fatalf("Blob = %q", got)
	}
	if got := r.Bytes32(); got != (Digest{9, 8, 7}) {
		t.Fatalf("Bytes32 = %v", got)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
	// Reading past the end sets a sticky error.
	if r.U8(); r.Err() == nil {
		t.Fatal("expected sticky error after overread")
	}
}

func TestReaderBlobCopies(t *testing.T) {
	var w Writer
	w.Blob([]byte("abc"))
	src := w.Bytes()
	r := NewReader(src)
	got := r.Blob()
	src[5] = 'X' // mutate the underlying buffer
	if string(got) != "abc" {
		t.Fatalf("Blob aliases input buffer: %q", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	e := &Envelope{
		From: ReplicaNode(2),
		To:   ClientNode(7),
		Type: MsgPrepare,
		Body: []byte{1, 2, 3, 4},
		Auth: []byte{9},
	}
	frame := frameOf(e)
	if len(frame) != 8+e.EncodedSize() {
		t.Fatalf("frame header + EncodedSize = %d, frame = %d", 8+e.EncodedSize(), len(frame))
	}
	got, err := ReadFramesPooled(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !envEqual(got[0], e) {
		t.Fatalf("frame mismatch: got %+v want %+v", got, e)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	if _, err := ReadFramesPooled(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), nil); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized length prefix: %v, want ErrOversized", err)
	}
}

func TestBatchDigestProperties(t *testing.T) {
	reqs := []ClientRequest{sampleRequest(1), sampleRequest(2)}
	d1 := BatchDigest(reqs)
	d2 := BatchDigest(reqs)
	if d1 != d2 {
		t.Fatal("BatchDigest not deterministic")
	}
	reqs[1].Txns[0].Ops[0].Value[0] ^= 1
	if BatchDigest(reqs) == d1 {
		t.Fatal("BatchDigest insensitive to content change")
	}
	// Order sensitivity.
	swapped := []ClientRequest{reqs[1], reqs[0]}
	if BatchDigest(swapped) == BatchDigest(reqs) {
		t.Fatal("BatchDigest insensitive to order")
	}
	// The signature is not under d, so it is folded beside it.
	before := BatchDigest(reqs)
	reqs[0].Sig[len(reqs[0].Sig)-1] ^= 1
	if BatchDigest(reqs) == before {
		t.Fatal("BatchDigest insensitive to a flipped signature byte")
	}
}

// TestBlockHashChanges: each certified header field changes a block's hash,
// and the view does not — replicas may execute one batch in different views
// and must still close the same checkpoint digest.
func TestBlockHashChanges(t *testing.T) {
	base := Block{Height: 5, Seq: 5, View: 1, Digest: Digest{1}, TxnCount: 100}
	for _, tc := range []struct {
		field   string
		bend    func(*Block)
		changes bool
	}{
		{"Height", func(b *Block) { b.Height++ }, true},
		{"Seq", func(b *Block) { b.Seq++ }, true},
		{"Digest", func(b *Block) { b.Digest[31] ^= 1 }, true},
		{"TxnCount", func(b *Block) { b.TxnCount++ }, true},
		{"View", func(b *Block) { b.View++ }, false},
	} {
		t.Run(tc.field, func(t *testing.T) {
			b := base
			tc.bend(&b)
			if changed := b.Hash() != base.Hash(); changed != tc.changes {
				t.Fatalf("changing %s changed Block.Hash: %v, want %v", tc.field, changed, tc.changes)
			}
		})
	}
}

func TestSigningBytesExcludesSignature(t *testing.T) {
	r1 := sampleRequest(4)
	r2 := r1
	r2.Sig = []byte("different")
	if !bytes.Equal(r1.SigningBytes(), r2.SigningBytes()) {
		t.Fatal("SigningBytes depends on the signature field")
	}
	r3 := r1
	r3.FirstSeq++
	if bytes.Equal(r1.SigningBytes(), r3.SigningBytes()) {
		t.Fatal("SigningBytes ignores FirstSeq")
	}
}

func TestRequestSizeMatchesEncoding(t *testing.T) {
	r := sampleRequest(6)
	var w Writer
	r.marshal(&w)
	if w.Len() != r.Size() {
		t.Fatalf("Size() = %d, encoded = %d", r.Size(), w.Len())
	}
	pp := PrePrepare{View: 1, Seq: 2, Digest: Digest{1}, Requests: []ClientRequest{r}}
	w.Reset()
	pp.marshal(&w)
	if w.Len() != pp.Size() {
		t.Fatalf("PrePrepare.Size() = %d, encoded = %d", pp.Size(), w.Len())
	}
}

// quickTxn generates a random transaction for property tests, mixing
// read-bearing and write-only shapes.
func quickTxn(rnd *rand.Rand) Transaction {
	nops := rnd.Intn(4)
	ops := make([]Op, nops)
	for i := range ops {
		if rnd.Intn(3) == 0 {
			ops[i] = Op{Kind: OpRead, Key: rnd.Uint64()}
			continue
		}
		val := make([]byte, rnd.Intn(32))
		rnd.Read(val)
		ops[i] = Op{Key: rnd.Uint64(), Value: val}
	}
	payload := make([]byte, rnd.Intn(64))
	rnd.Read(payload)
	return Transaction{
		Client:    ClientID(rnd.Uint32()),
		ClientSeq: rnd.Uint64(),
		Ops:       ops,
		Payload:   payload,
	}
}

func TestResponseDigestDeterministic(t *testing.T) {
	a := ResponseDigest(5, 3, 77, nil)
	b := ResponseDigest(5, 3, 77, nil)
	if a != b {
		t.Fatal("ResponseDigest not deterministic")
	}
	if ResponseDigest(6, 3, 77, nil) == a || ResponseDigest(5, 4, 77, nil) == a || ResponseDigest(5, 3, 78, nil) == a {
		t.Fatal("ResponseDigest ignores an input")
	}
	// Read results fold in: found-ness and value bytes both matter, and an
	// empty result set hashes like none at all.
	reads := []ReadResult{{Found: true, Value: []byte("v")}}
	c := ResponseDigest(5, 3, 77, reads)
	if c == a {
		t.Fatal("ResponseDigest ignores read results")
	}
	if ResponseDigest(5, 3, 77, []ReadResult{{Found: false, Value: []byte("v")}}) == c {
		t.Fatal("ResponseDigest ignores Found")
	}
	if ResponseDigest(5, 3, 77, []ReadResult{}) != a {
		t.Fatal("empty read results must not change the digest")
	}
}

func TestQuickRoundTripPrePrepare(t *testing.T) {
	f := func(view, seq uint64, seed int64, nreq uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		reqs := make([]ClientRequest, int(nreq)%5)
		for i := range reqs {
			txns := make([]Transaction, 1+rnd.Intn(3))
			for j := range txns {
				txns[j] = quickTxn(rnd)
			}
			sig := make([]byte, rnd.Intn(64))
			rnd.Read(sig)
			reqs[i] = ClientRequest{
				Client:   ClientID(rnd.Uint32()),
				FirstSeq: rnd.Uint64(),
				Txns:     txns,
				Sig:      sig,
			}
		}
		msg := &PrePrepare{View: View(view), Seq: SeqNum(seq), Digest: BatchDigest(reqs), Requests: reqs}
		b := MarshalBody(msg)
		got, err := DecodeBody(msg.Type(), b)
		if err != nil {
			return false
		}
		return bytes.Equal(MarshalBody(got), b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripSmallMessages(t *testing.T) {
	f := func(view, seq uint64, rep uint16, d [32]byte) bool {
		msgs := []Message{
			&Prepare{View: View(view), Seq: SeqNum(seq), Digest: d, Replica: ReplicaID(rep)},
			&Commit{View: View(view), Seq: SeqNum(seq), Digest: d, Replica: ReplicaID(rep)},
			&Checkpoint{Seq: SeqNum(seq), StateDigest: d, Replica: ReplicaID(rep)},
			&ClientResponse{View: View(view), Seq: SeqNum(seq), Client: 1, ClientSeq: seq, Result: d, Replica: ReplicaID(rep)},
		}
		for _, m := range msgs {
			b := MarshalBody(m)
			got, err := DecodeBody(m.Type(), b)
			if err != nil {
				return false
			}
			if !bytes.Equal(MarshalBody(got), b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
