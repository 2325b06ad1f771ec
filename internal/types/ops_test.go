package types

import (
	"bytes"
	"testing"
)

// TestTypedTxnRoundTripAndSize: transactions carrying reads survive a
// round trip with kinds intact, and Size() matches the encoding.
func TestTypedTxnRoundTripAndSize(t *testing.T) {
	txn := Transaction{
		Client:    7,
		ClientSeq: 42,
		Ops: []Op{
			{Kind: OpRead, Key: 11},
			{Kind: OpWrite, Key: 12, Value: []byte("w")},
			{Kind: OpRead, Key: 13},
		},
		Payload: []byte{1, 2},
	}
	var w Writer
	marshalTxn(&w, &txn)
	if w.Len() != txn.Size() {
		t.Fatalf("typed Size() = %d, encoded = %d", txn.Size(), w.Len())
	}
	var got Transaction
	r := NewReader(w.Bytes())
	unmarshalTxn(r, &got)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	// Blob() decodes empty values as empty (not nil) slices; compare via
	// re-encoding, which flattens that distinction.
	var w2 Writer
	marshalTxn(&w2, &got)
	if !bytes.Equal(w2.Bytes(), w.Bytes()) {
		t.Fatalf("typed round trip mismatch:\n got %#v\nwant %#v", got, txn)
	}
	for i := range got.Ops {
		if got.Ops[i].Kind != txn.Ops[i].Kind || got.Ops[i].Key != txn.Ops[i].Key {
			t.Fatalf("op %d: got kind=%d key=%d", i, got.Ops[i].Kind, got.Ops[i].Key)
		}
	}

	req := ClientRequest{Client: 7, FirstSeq: 42, Txns: []Transaction{txn}, Sig: []byte("s")}
	w.Reset()
	req.marshal(&w)
	if w.Len() != req.Size() {
		t.Fatalf("request Size() = %d, encoded = %d", req.Size(), w.Len())
	}
}

// TestTypedTxnHostileCount: an op-count word declaring 2^31+255 ops must
// fail fast.
func TestTypedTxnHostileCount(t *testing.T) {
	var w Writer
	w.U32(1)            // client
	w.U64(1)            // client seq
	w.U32(1<<31 | 0xFF) // hostile count, no op bytes
	var got Transaction
	r := NewReader(w.Bytes())
	unmarshalTxn(r, &got)
	if r.Err() == nil {
		t.Fatal("decoder accepted hostile op count")
	}
}

// TestScanTxnRoundTripAndSize: transactions carrying scans survive a
// round trip with bounds intact — hostile bounds included — and Size()
// tracks the 12 extra bytes (end key + limit) each scan op carries.
func TestScanTxnRoundTripAndSize(t *testing.T) {
	txn := Transaction{
		Client:    7,
		ClientSeq: 42,
		Ops: []Op{
			{Kind: OpScan, Key: 10, EndKey: 20, Limit: 5},
			{Kind: OpWrite, Key: 12, Value: []byte("w")},
			{Kind: OpScan, Key: 9, EndKey: 3, Limit: 0},                   // inverted, zero limit
			{Kind: OpScan, Key: 0, EndKey: ^uint64(0), Limit: ^uint32(0)}, // saturating
			{Kind: OpRead, Key: 13},
		},
		Payload: []byte{1},
	}
	var w Writer
	marshalTxn(&w, &txn)
	if w.Len() != txn.Size() {
		t.Fatalf("scan Size() = %d, encoded = %d", txn.Size(), w.Len())
	}
	var got Transaction
	r := NewReader(w.Bytes())
	unmarshalTxn(r, &got)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range got.Ops {
		if got.Ops[i].Kind != txn.Ops[i].Kind || got.Ops[i].Key != txn.Ops[i].Key ||
			got.Ops[i].EndKey != txn.Ops[i].EndKey || got.Ops[i].Limit != txn.Ops[i].Limit {
			t.Fatalf("op %d: got %+v want %+v", i, got.Ops[i], txn.Ops[i])
		}
	}
	var w2 Writer
	marshalTxn(&w2, &got)
	if !bytes.Equal(w2.Bytes(), w.Bytes()) {
		t.Fatal("scan transaction round trip re-encodes differently")
	}
}

// TestScanResponseRoundTripAndDigest: a response carrying scan results
// round trips rows exactly, and ResponseDigest is sensitive to every row
// mutation a Byzantine replica could try — value, key, order, count.
func TestScanResponseRoundTripAndDigest(t *testing.T) {
	reads := []ReadResult{
		{Found: true, Value: []byte("p")},
		{Scan: true, Rows: []ScanRow{
			{Key: 5, Value: []byte("five")},
			{Key: 6, Value: []byte("six")},
		}},
		{Scan: true}, // empty scan
	}
	resp := ClientResponse{View: 1, Seq: 2, Client: 3, ClientSeq: 4,
		Result: ResponseDigest(2, 3, 4, reads), Replica: 6, ReadResults: reads}
	body := MarshalBody(&resp)
	got, err := DecodeBody(MsgClientResponse, body)
	if err != nil {
		t.Fatal(err)
	}
	rr := got.(*ClientResponse).ReadResults
	if len(rr) != 3 || !rr[1].Scan || len(rr[1].Rows) != 2 || !rr[2].Scan || len(rr[2].Rows) != 0 {
		t.Fatalf("scan response round trip: %+v", rr)
	}
	if rr[1].Rows[1].Key != 6 || string(rr[1].Rows[1].Value) != "six" {
		t.Fatalf("scan row mismatch: %+v", rr[1].Rows[1])
	}
	if ResponseDigest(2, 3, 4, rr) != resp.Result {
		t.Fatal("decoded scan results hash differently")
	}

	base := ResponseDigest(2, 3, 4, reads)
	mutate := func(f func([]ReadResult)) Digest {
		c := make([]ReadResult, len(reads))
		copy(c, reads)
		rows := make([]ScanRow, len(reads[1].Rows))
		copy(rows, reads[1].Rows)
		c[1].Rows = rows
		f(c)
		return ResponseDigest(2, 3, 4, c)
	}
	if mutate(func(c []ReadResult) { c[1].Rows[0].Value = []byte("FIVE") }) == base {
		t.Fatal("digest ignores a forged row value")
	}
	if mutate(func(c []ReadResult) { c[1].Rows[0].Key = 50 }) == base {
		t.Fatal("digest ignores a forged row key")
	}
	if mutate(func(c []ReadResult) { c[1].Rows = c[1].Rows[:1] }) == base {
		t.Fatal("digest ignores truncated rows")
	}
	if mutate(func(c []ReadResult) { c[1].Rows[0], c[1].Rows[1] = c[1].Rows[1], c[1].Rows[0] }) == base {
		t.Fatal("digest ignores reordered rows")
	}
	if mutate(func(c []ReadResult) { c[1].Scan = false; c[1].Rows = nil }) == base {
		t.Fatal("digest ignores a scan flag flip")
	}
}
