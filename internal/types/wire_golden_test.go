package types_test

// Golden bytes: one literal per layout, written out field by field. Nothing
// here is derived from the encoders, so an accidental layout change — which
// would silently change every batch digest, signature and log on disk — is
// a red diff in this file instead. docs/ARCHITECTURE.md "Formats" is the
// prose form of the same table.

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientdb/internal/store"
	"resilientdb/internal/types"
)

// unhex decodes a hex literal, ignoring the spaces that separate fields.
func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatalf("bad golden literal: %v", err)
	}
	return b
}

var d1 = types.Digest{0xd1}

const (
	zeros31 = "00000000000000000000000000000000000000000000000000000000000000"
	zeros62 = zeros31 + zeros31
	d1hex   = "d1" + zeros31 + " "
	view1   = "0000000000000001 "
	seq2    = "0000000000000002 "
	// Op list and read-result list shared by the messages below.
	goldenOps = "00000003 " + // three ops
		"00 0000000000000003 00000001 76 " + // write key 3 = "v"
		"01 0000000000000004 00000000 " + // read key 4
		"02 0000000000000005 0000000000000006 00000007 00000000 " // scan [5,6] limit 7
	goldenReads = "00000003 " + // three results
		"01 00000001 76 " + // found, "v"
		"00 00000000 " + // not found
		"02 00000001 0000000000000005 00000001 72 " // scan: one row, key 5 = "r"
)

func goldenOpList() []types.Op {
	return []types.Op{
		{Kind: types.OpWrite, Key: 3, Value: []byte("v")},
		{Kind: types.OpRead, Key: 4},
		{Kind: types.OpScan, Key: 5, EndKey: 6, Limit: 7},
	}
}

func goldenReadList() []types.ReadResult {
	return []types.ReadResult{
		{Found: true, Value: []byte("v")},
		{},
		{Scan: true, Rows: []types.ScanRow{{Key: 5, Value: []byte("r")}}},
	}
}

func TestGoldenMessageBodies(t *testing.T) {
	prepare := types.Prepare{View: 1, Seq: 2, Digest: d1, Replica: 3}
	const prepareHex = view1 + seq2 + d1hex + "0003 "
	checkpoint := types.Checkpoint{Seq: 2, StateDigest: d1, Replica: 3, Sig: types.Signature{0: 0x51, 63: 0x5E}}
	const checkpointHex = seq2 + d1hex + "0003 " + "51" + zeros62 + "5e"
	bareRequest := types.ClientRequest{Client: 1, FirstSeq: 2, Sig: []byte("s")}
	const bareRequestHex = "00000001 " + seq2 + "00000000 " + "00000001 73 "

	for _, g := range []struct {
		name string
		msg  types.Message
		hex  string
	}{
		{"ClientRequest", &types.ClientRequest{Client: 1, FirstSeq: 2, Sig: []byte("s"), Txns: []types.Transaction{
			{Client: 1, ClientSeq: 2, Ops: goldenOpList(), Payload: []byte("p")},
		}},
			"00000001 " + seq2 + // client, first seq
				"00000001 " + // one transaction:
				"00000001 " + seq2 + goldenOps + "00000001 70 " + // client, client seq, ops, payload
				"00000001 73"}, // signature
		{"PrePrepare", &types.PrePrepare{View: 1, Seq: 2, Digest: d1, Requests: []types.ClientRequest{bareRequest}},
			view1 + seq2 + d1hex + "00000001 " + bareRequestHex},
		{"Prepare", &prepare, prepareHex},
		{"Commit", &types.Commit{View: 1, Seq: 2, Digest: d1, Replica: 3}, prepareHex},
		{"Checkpoint", &checkpoint, checkpointHex},
		{"ViewChange", &types.ViewChange{NewView: 1, StableSeq: 2, Replica: 3,
			StateProof: []types.Checkpoint{checkpoint},
			Prepared:   []types.PreparedProof{{View: 1, Seq: 2, Digest: d1, Prepares: []types.Prepare{prepare}}}},
			view1 + seq2 + // new view, stable seq
				"00000001 " + checkpointHex + // state proof: one checkpoint
				"00000001 " + view1 + seq2 + d1hex + "00000001 " + prepareHex + // one prepared proof of one prepare
				"0003"}, // replica
		{"NewView", &types.NewView{View: 1,
			ViewChanges: []types.ViewChange{{NewView: 1, StableSeq: 2, Replica: 3}},
			PrePrepares: []types.PrePrepare{{View: 1, Seq: 2, Digest: d1}}},
			view1 +
				"00000001 " + view1 + seq2 + "00000000 00000000 0003 " + // one view change, no proofs
				"00000001 " + view1 + seq2 + d1hex + "00000000"}, // one pre-prepare, no requests
		{"ClientResponse/idle write-only", &types.ClientResponse{View: 1, Seq: 2, Client: 3, ClientSeq: 4, Result: d1, Replica: 5},
			view1 + seq2 + "00000003 0000000000000004 " + d1hex + "0005 " +
				"00000000 " + // no reads
				"00"}, // busy
		{"ClientResponse/reads", &types.ClientResponse{View: 1, Seq: 2, Client: 3, ClientSeq: 4, Result: d1, Replica: 5,
			ReadResults: goldenReadList(), Busy: 9},
			view1 + seq2 + "00000003 0000000000000004 " + d1hex + "0005 " + goldenReads + "09"},
		{"ReadRequest", &types.ReadRequest{Client: 1, ClientSeq: 2, MinSeq: 4,
			Ops: []types.Op{{Kind: types.OpScan, Key: 5, EndKey: 6, Limit: 7}, {Kind: types.OpRead, Key: 3}}},
			"00000001 " + seq2 + "0000000000000004 " + // client, client seq, min seq
				"00000002 " + // two ops, in request order
				"02 0000000000000005 0000000000000006 00000007 00000000 " + // scan [5,6] limit 7
				"01 0000000000000003 00000000"}, // read key 3
		{"ReadRequest/keys only", &types.ReadRequest{Client: 1, ClientSeq: 2, Ops: []types.Op{{Kind: types.OpRead, Key: 3}}},
			"00000001 " + seq2 + "0000000000000000 " + "00000001 01 0000000000000003 00000000"}, // one op: read key 3
		{"ReadReply", &types.ReadReply{Client: 1, ClientSeq: 2, Seq: 3, Replica: 4, Results: goldenReadList()},
			"00000001 " + seq2 + "0000000000000003 0004 " + goldenReads},
	} {
		t.Run(g.name, func(t *testing.T) {
			want := unhex(t, g.hex)
			if got := types.MarshalBody(g.msg); !bytes.Equal(got, want) {
				t.Fatalf("encodes to\n  %x\nwant\n  %x", got, want)
			}
			back, err := types.DecodeBody(g.msg.Type(), want)
			if err != nil {
				t.Fatalf("golden bytes do not decode: %v", err)
			}
			if got := types.MarshalBody(back); !bytes.Equal(got, want) {
				t.Fatalf("golden bytes decode, then re-encode to\n  %x", got)
			}
		})
	}
}

// TestResponseDecodeIsCanonical: one idle write-only ClientResponse has one
// byte string. The two shorter ones an optional read count and busy gauge
// once allowed must not decode to it, nor may anything longer.
func TestResponseDecodeIsCanonical(t *testing.T) {
	bare := view1 + seq2 + "00000003 0000000000000004 " + d1hex + "0005 "
	for _, tail := range []struct {
		hex string
		ok  bool
	}{
		{"", false},
		{"00000000", false},
		{"00000000 00", true},
		{"00000000 00 00", false},
	} {
		body := unhex(t, bare+tail.hex)
		msg, err := types.DecodeBody(types.MsgClientResponse, body)
		if (err == nil) != tail.ok {
			t.Errorf("tail %q: decode error %v, want ok=%v", tail.hex, err, tail.ok)
		}
		if err == nil && !bytes.Equal(types.MarshalBody(msg), body) {
			t.Errorf("tail %q decodes but re-encodes to %x", tail.hex, types.MarshalBody(msg))
		}
	}
}

func TestGoldenFrame(t *testing.T) {
	envs := []*types.Envelope{
		{From: types.ReplicaNode(1), To: types.ClientNode(2), Type: types.MsgPrepare, Body: []byte{0xb0, 0xb1}, Auth: []byte{0xa0}},
		{From: types.ReplicaNode(2), To: types.ReplicaNode(0), Type: types.MsgCommit},
	}
	want := unhex(t, "00000029 "+ // payload length: count + 20 + 17
		"00000002 "+ // two envelopes
		"00000001 00010002 03 00000002 b0b1 00000001 a0 "+ // from, to, type, body, auth
		"00000002 00000000 04 00000000 00000000")
	var w types.Writer
	types.AppendBatchFrame(&w, envs)
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("frame encodes to\n  %x\nwant\n  %x", w.Bytes(), want)
	}
	got, err := types.ReadFramesPooled(bytes.NewReader(want), nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("golden frame decodes to %d envelopes, %v", len(got), err)
	}
	if got[0].From != envs[0].From || got[0].To != envs[0].To || got[0].Type != envs[0].Type ||
		!bytes.Equal(got[0].Body, envs[0].Body) || !bytes.Equal(got[0].Auth, envs[0].Auth) || got[1].Type != types.MsgCommit {
		t.Fatalf("golden frame decodes to %+v, %+v", got[0], got[1])
	}
}

func TestGoldenLogRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := store.OpenShardedDisk(dir, store.ShardedDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(7, []byte("val")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "shard-000.log"))
	if err != nil {
		t.Fatal(err)
	}
	want := unhex(t, "52 44 42 4c 4f 47 32 0a "+ // "RDBLOG2\n"
		"0000000000000007 00000003 "+ // key, value length
		"f3fc49be "+ // CRC-32C over the 12 bytes above and the value
		"76616c")
	if !bytes.Equal(got, want) {
		t.Fatalf("log holds\n  %x\nwant\n  %x", got, want)
	}
}
