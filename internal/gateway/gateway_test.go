package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"resilientdb/internal/chaos"
	"resilientdb/internal/cluster"
	"resilientdb/internal/pool"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// --- wire codec ---

func TestSessionWireRoundTrip(t *testing.T) {
	w := types.GetWriter()
	defer types.PutWriter(w)
	subs := []Submit{
		{Session: 1, Nonce: 1, Ops: []types.Op{{Kind: types.OpWrite, Key: 7, Value: []byte("v7")}}},
		{Session: 1 << 40, Nonce: 99, Ops: []types.Op{
			{Kind: types.OpRead, Key: 8},
			{Kind: types.OpWrite, Key: 9, Value: []byte("nine")},
		}},
		{Session: 3, Nonce: 2}, // no ops
		{Session: 4, Nonce: 7, Ops: []types.Op{
			{Kind: types.OpScan, Key: 10, EndKey: 20, Limit: 5},
			{Kind: types.OpWrite, Key: 11, Value: []byte("w")},
		}},
	}
	reps := []Reply{
		{Session: 1, Nonce: 1, Status: StatusOK, Seq: 42, Busy: 17},
		{Session: 2, Nonce: 5, Status: StatusBusy, Busy: 255},
		{Session: 3, Nonce: 6, Status: StatusOK, Seq: 43, Reads: []types.ReadResult{
			{Found: true, Value: []byte("rv")}, {Found: false},
		}},
		{Session: 4, Nonce: 7, Status: StatusOK, Seq: 44, Reads: []types.ReadResult{
			{Scan: true, Rows: []types.ScanRow{
				{Key: 10, Value: []byte("ten")}, {Key: 12, Value: []byte("twelve")},
			}},
			{Scan: true}, // empty scan
			{Found: true, Value: []byte("point")},
		}},
	}
	for i := range subs {
		appendSubmit(w, &subs[i])
	}
	for i := range reps {
		appendReply(w, &reps[i])
	}
	var buf bytes.Buffer
	if err := writeSessionFrame(&buf, len(subs)+len(reps), framed(w.Bytes())); err != nil {
		t.Fatalf("writing frame: %v", err)
	}
	f, err := readSessionFrame(&buf, new(pool.BytePool))
	if err != nil {
		t.Fatalf("reading frame: %v", err)
	}
	defer f.release()
	if len(f.Submits) != len(subs) || len(f.Replies) != len(reps) {
		t.Fatalf("got %d submits, %d replies; want %d, %d", len(f.Submits), len(f.Replies), len(subs), len(reps))
	}
	for i := range subs {
		got, want := f.Submits[i], subs[i]
		if got.Session != want.Session || got.Nonce != want.Nonce || len(got.Ops) != len(want.Ops) {
			t.Fatalf("submit %d: got %+v want %+v", i, got, want)
		}
		for j := range want.Ops {
			if got.Ops[j].Kind != want.Ops[j].Kind || got.Ops[j].Key != want.Ops[j].Key ||
				got.Ops[j].EndKey != want.Ops[j].EndKey || got.Ops[j].Limit != want.Ops[j].Limit ||
				!bytes.Equal(got.Ops[j].Value, want.Ops[j].Value) {
				t.Fatalf("submit %d op %d: got %+v want %+v", i, j, got.Ops[j], want.Ops[j])
			}
		}
	}
	for i := range reps {
		got, want := f.Replies[i], reps[i]
		if got.Session != want.Session || got.Nonce != want.Nonce || got.Status != want.Status ||
			got.Seq != want.Seq || got.Busy != want.Busy || len(got.Reads) != len(want.Reads) {
			t.Fatalf("reply %d: got %+v want %+v", i, got, want)
		}
		for j := range want.Reads {
			gr, wr := got.Reads[j], want.Reads[j]
			if gr.Found != wr.Found || gr.Scan != wr.Scan ||
				!bytes.Equal(gr.Value, wr.Value) || len(gr.Rows) != len(wr.Rows) {
				t.Fatalf("reply %d read %d: got %+v want %+v", i, j, gr, wr)
			}
			for k := range wr.Rows {
				if gr.Rows[k].Key != wr.Rows[k].Key || !bytes.Equal(gr.Rows[k].Value, wr.Rows[k].Value) {
					t.Fatalf("reply %d read %d row %d: got %+v want %+v", i, j, k, gr.Rows[k], wr.Rows[k])
				}
			}
		}
	}
}

func TestSessionWireMalformed(t *testing.T) {
	bufs := new(pool.BytePool)
	cases := map[string][]byte{
		"oversized length":  {0xff, 0xff, 0xff, 0xff},
		"undersized length": {0, 0, 0, 1},
		"truncated body":    {0, 0, 0, 20, 0, 0, 0, 1, kindSubmit},
		"unknown kind": frameBytes(t, 1, func(w *types.Writer) {
			w.U8(0x7f)
			w.U64(1)
		}),
		"forged count": {0, 0, 0, 8, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		"trailing bytes": frameBytes(t, 1, func(w *types.Writer) {
			appendSubmit(w, &Submit{Session: 1, Nonce: 1})
			w.U32(0xdeadbeef)
		}),
		"submit op overflow": frameBytes(t, 1, func(w *types.Writer) {
			w.U8(kindSubmit)
			w.U64(1)
			w.U64(1)
			w.U32(1 << 30)
		}),
		"truncated scan op": frameBytes(t, 1, func(w *types.Writer) {
			w.U8(kindSubmit)
			w.U64(1)
			w.U64(1)
			w.U32(1)
			w.U8(uint8(types.OpScan))
			w.U64(10) // end key, limit, and value blob missing
		}),
		"scan rows overflow": frameBytes(t, 1, func(w *types.Writer) {
			w.U8(kindReply)
			w.U64(1)
			w.U64(1)
			w.U8(uint8(StatusOK))
			w.U64(1)
			w.U8(0)
			w.U32(1)
			w.U8(2)
			w.U32(1 << 30)
		}),
		"unknown read marker": frameBytes(t, 1, func(w *types.Writer) {
			w.U8(kindReply)
			w.U64(1)
			w.U64(1)
			w.U8(uint8(StatusOK))
			w.U64(1)
			w.U8(0)
			w.U32(1)
			w.U8(7)
			w.Blob(nil)
		}),
	}
	for name, raw := range cases {
		if _, err := readSessionFrame(bytes.NewReader(raw), bufs); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// A forged op count that the bytes behind it could almost carry: 39
	// bytes hold at most three 13-byte ops, so a count of 5 is refused as
	// oversized before any op is allocated or parsed.
	forged := frameBytes(t, 1, func(w *types.Writer) {
		w.U8(kindSubmit)
		w.U64(1)
		w.U64(1)
		w.U32(5)
		for i := 0; i < 3; i++ {
			w.U8(uint8(types.OpWrite))
			w.U64(uint64(i))
			w.Blob(nil)
		}
	})
	if _, err := readSessionFrame(bytes.NewReader(forged), bufs); !errors.Is(err, types.ErrOversized) {
		t.Errorf("forged op count: %v, want ErrOversized", err)
	}
}

// appendGoldenMessages appends the submit and the reply TestSessionWireGolden
// spells out byte by byte.
func appendGoldenMessages(w *types.Writer) {
	appendSubmit(w, &Submit{Session: 1, Nonce: 2, Ops: []types.Op{
		{Kind: types.OpWrite, Key: 3, Value: []byte("v")},
		{Kind: types.OpScan, Key: 4, EndKey: 5, Limit: 6},
	}})
	appendReply(w, &Reply{Session: 1, Nonce: 2, Status: StatusOK, Seq: 7, Busy: 9, Reads: []types.ReadResult{
		{Found: true, Value: []byte("v")},
		{Scan: true, Rows: []types.ScanRow{{Key: 4, Value: []byte("r")}}},
	}})
}

// TestSessionWireGolden pins the session frame's bytes, field by field.
func TestSessionWireGolden(t *testing.T) {
	golden := "00000077 00000002" + // payload length (4 + 60 + 55), two messages
		"01 0000000000000001 0000000000000002" + // submit: session 1, nonce 2
		" 00000002" + // two ops
		" 00 0000000000000003 00000001 76" + // write key 3 = "v"
		" 02 0000000000000004 0000000000000005 00000006 00000000" + // scan [4,5] limit 6
		"02 0000000000000001 0000000000000002 01 0000000000000007 09" + // reply: ok, seq 7, busy 9
		" 00000002" + // two reads
		" 01 00000001 76" + // found "v"
		" 02 00000001 0000000000000004 00000001 72" // scan: one row, key 4 = "r"
	want, err := hex.DecodeString(strings.ReplaceAll(golden, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	got := frameBytes(t, 2, appendGoldenMessages)
	if !bytes.Equal(got, want) {
		t.Fatalf("session frame encodes to\n  %x\nwant\n  %x", got, want)
	}
	f, err := readSessionFrame(bytes.NewReader(want), new(pool.BytePool))
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	if len(f.Submits) != 1 || len(f.Submits[0].Ops) != 2 || len(f.Replies) != 1 || len(f.Replies[0].Reads) != 2 {
		t.Fatalf("golden session frame decodes to %+v", f)
	}
}

// FuzzReadSessionFrame feeds arbitrary byte streams to the session frame
// reader, seeded with the chaos harness's malformed frames and bodies and
// the golden frame's shapes. Decoding must fail cleanly or yield messages
// that re-encode to the frame they came from; the frame buffer goes back
// to its pool either way.
func FuzzReadSessionFrame(f *testing.F) {
	for _, frame := range chaos.MalformedFrames() {
		f.Add(frame)
	}
	frame := func(count int, payload []byte) []byte {
		var buf bytes.Buffer
		_ = writeSessionFrame(&buf, count, framed(payload)) // a bytes.Buffer takes every write
		return buf.Bytes()
	}
	for _, body := range chaos.MalformedBodies() {
		f.Add(frame(1, append([]byte{kindSubmit}, body...)))
		f.Add(frame(1, append([]byte{kindReply}, body...)))
	}
	var w types.Writer
	appendGoldenMessages(&w)
	f.Add(frame(2, w.Bytes()))
	f.Add(frame(0, nil))

	bufs := new(pool.BytePool)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.NewReader(data)
		sf, err := readSessionFrame(in, bufs)
		if err != nil {
			return
		}
		defer sf.release()
		// Submits and replies may interleave on the wire; re-encoding each
		// kind in order reproduces the frame when it carried only one kind.
		if len(sf.Submits) > 0 && len(sf.Replies) > 0 {
			return
		}
		var w types.Writer
		for i := range sf.Submits {
			appendSubmit(&w, &sf.Submits[i])
		}
		for i := range sf.Replies {
			appendReply(&w, &sf.Replies[i])
		}
		if got := frame(len(sf.Submits)+len(sf.Replies), w.Bytes()); !bytes.Equal(got, data[:len(data)-in.Len()]) {
			t.Fatalf("session frame %x re-encodes to %x", data[:len(data)-in.Len()], got)
		}
	})
}

func frameBytes(t *testing.T, count int, build func(*types.Writer)) []byte {
	t.Helper()
	w := types.GetWriter()
	defer types.PutWriter(w)
	build(w)
	var buf bytes.Buffer
	if err := writeSessionFrame(&buf, count, framed(w.Bytes())); err != nil {
		t.Fatalf("writing frame: %v", err)
	}
	return buf.Bytes()
}

// --- end-to-end harness ---

func newTestCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	wl := workload.Default()
	wl.Records = 256
	wl.ValueSize = 16
	c, err := cluster.New(cluster.Options{
		N:                  4,
		Clients:            1,
		BatchSize:          4,
		Workload:           wl,
		CheckpointInterval: 16,
		ClientTimeout:      150 * time.Millisecond,
		Seed:               7,
		PreloadTable:       true,
	})
	if err != nil {
		t.Fatalf("building cluster: %v", err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func newTestGateway(t *testing.T, c *cluster.Cluster, mod func(*Config)) *Gateway {
	t.Helper()
	return newTunedTestGateway(t, c, mod, nil)
}

// newTunedTestGateway is newTestGateway with tune, when set, applied to
// the gateway's limits.
func newTunedTestGateway(t *testing.T, c *cluster.Cluster, mod func(*Config), tune func(*limits)) *Gateway {
	t.Helper()
	cfg := Config{
		N:         4,
		Directory: c.Directory(),
		Endpoint: func(id types.ClientID) (transport.Endpoint, error) {
			return c.AttachClient(id, 1<<10), nil
		},
		Upstreams: 2,
		Batch:     16,
		Timeout:   150 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	g, err := newTuned(cfg, tune)
	if err != nil {
		t.Fatalf("building gateway: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

// testSession is a hand-driven session connection: it writes raw submit
// frames and collects replies, giving the tests exact control over
// nonces, duplicates, and ordering.
type testSession struct {
	t    *testing.T
	c    net.Conn
	br   *bufio.Reader
	bufs *pool.BytePool
}

func dialSession(t *testing.T, g *Gateway) *testSession {
	t.Helper()
	client, server := net.Pipe()
	g.ServeConn(server)
	t.Cleanup(func() { client.Close() })
	return &testSession{t: t, c: client, br: bufio.NewReader(client), bufs: new(pool.BytePool)}
}

// send writes one frame carrying the given submits.
func (ts *testSession) send(subs ...Submit) {
	ts.t.Helper()
	w := types.GetWriter()
	defer types.PutWriter(w)
	for i := range subs {
		appendSubmit(w, &subs[i])
	}
	ts.c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := writeSessionFrame(ts.c, len(subs), framed(w.Bytes())); err != nil {
		ts.t.Fatalf("sending frame: %v", err)
	}
}

// recv collects replies until it has n or the deadline passes.
func (ts *testSession) recv(n int, timeout time.Duration) []Reply {
	ts.t.Helper()
	var out []Reply
	deadline := time.Now().Add(timeout)
	for len(out) < n {
		ts.c.SetReadDeadline(deadline)
		f, err := readSessionFrame(ts.br, ts.bufs)
		if err != nil {
			ts.t.Fatalf("reading replies (have %d, want %d): %v", len(out), n, err)
		}
		out = append(out, f.Replies...)
		f.release()
	}
	return out
}

// tryRecv is recv without the fatal: it returns whatever arrived before
// the timeout.
func (ts *testSession) tryRecv(n int, timeout time.Duration) []Reply {
	var out []Reply
	deadline := time.Now().Add(timeout)
	for len(out) < n && time.Now().Before(deadline) {
		ts.c.SetReadDeadline(deadline)
		f, err := readSessionFrame(ts.br, ts.bufs)
		if err != nil {
			return out
		}
		out = append(out, f.Replies...)
		f.release()
	}
	return out
}

func writeOp(key uint64, val string) []types.Op {
	return []types.Op{{Kind: types.OpWrite, Key: key, Value: []byte(val)}}
}

// settleHeight waits until every replica's ledger height stops moving and
// returns it; the tests use it to pin "no further execution happened".
func settleHeight(t *testing.T, c *cluster.Cluster) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h := c.Replica(0).Ledger().Height()
		time.Sleep(100 * time.Millisecond)
		stable := true
		for i := 0; i < 4; i++ {
			if c.Replica(i).Ledger().Height() != h {
				stable = false
				break
			}
		}
		if stable && c.Replica(0).Ledger().Height() == h {
			return h
		}
	}
	t.Fatalf("ledger heights did not settle")
	return 0
}

// --- end-to-end behavior ---

func TestGatewayEndToEnd(t *testing.T) {
	c := newTestCluster(t)
	g := newTestGateway(t, c, nil)
	ts := dialSession(t, g)

	const sessions = 6
	subs := make([]Submit, 0, sessions)
	for s := 0; s < sessions; s++ {
		subs = append(subs, Submit{
			Session: uint64(s),
			Nonce:   1,
			Ops:     writeOp(uint64(s), fmt.Sprintf("s%d", s)),
		})
	}
	ts.send(subs...)
	replies := ts.recv(sessions, 5*time.Second)
	seen := make(map[uint64]Reply)
	for _, r := range replies {
		if r.Status != StatusOK {
			t.Fatalf("session %d: status %v, want ok", r.Session, r.Status)
		}
		if _, dup := seen[r.Session]; dup {
			t.Fatalf("session %d acknowledged twice", r.Session)
		}
		seen[r.Session] = r
	}
	if len(seen) != sessions {
		t.Fatalf("got replies for %d sessions, want %d", len(seen), sessions)
	}
	// The writes must actually have executed: read one back through a
	// second submit with a read op.
	ts.send(Submit{Session: 0, Nonce: 2, Ops: []types.Op{{Kind: types.OpRead, Key: 3}}})
	r := ts.recv(1, 5*time.Second)[0]
	if r.Status != StatusOK || len(r.Reads) != 1 {
		t.Fatalf("read-back reply: %+v", r)
	}
	if !r.Reads[0].Found || string(r.Reads[0].Value) != "s3" {
		t.Fatalf("read-back value: %+v, want s3", r.Reads[0])
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatalf("ledger check: %v", err)
	}
	st := g.Stats()
	if st.Accepted != sessions+1 || st.Completed != sessions+1 {
		t.Fatalf("stats: %+v, want %d accepted+completed", st, sessions+1)
	}
}

func TestGatewayRetryReplaysCachedReply(t *testing.T) {
	c := newTestCluster(t)
	g := newTestGateway(t, c, nil)
	ts := dialSession(t, g)

	ts.send(Submit{Session: 9, Nonce: 1, Ops: writeOp(1, "one")})
	first := ts.recv(1, 5*time.Second)[0]
	if first.Status != StatusOK {
		t.Fatalf("first reply: %+v", first)
	}
	before := settleHeight(t, c)
	txnsBefore := c.Replica(0).Stats().TxnsExecuted

	// The retry must be answered from the reply cache: same status, same
	// sequence — and nothing new may reach consensus.
	ts.send(Submit{Session: 9, Nonce: 1, Ops: writeOp(1, "one")})
	second := ts.recv(1, 5*time.Second)[0]
	if second.Status != StatusOK || second.Seq != first.Seq || second.Session != 9 || second.Nonce != 1 {
		t.Fatalf("retry reply %+v, want replay of %+v", second, first)
	}
	after := settleHeight(t, c)
	if after != before {
		t.Fatalf("ledger height moved %d → %d on a retried request", before, after)
	}
	if got := c.Replica(0).Stats().TxnsExecuted; got != txnsBefore {
		t.Fatalf("retry executed: %d → %d transactions", txnsBefore, got)
	}
	if st := g.Stats(); st.DupReplayed != 1 {
		t.Fatalf("stats: %+v, want DupReplayed=1", st)
	}
}

// TestGatewayScanEndToEnd drives a range scan through the full gateway
// path — session wire, edge batching into a shared consensus request,
// f+1 quorum, reply span slicing — and then retries the same nonce: the
// cached multi-row reply must replay byte-for-byte without re-executing.
func TestGatewayScanEndToEnd(t *testing.T) {
	c := newTestCluster(t)
	g := newTestGateway(t, c, nil)
	ts := dialSession(t, g)

	// Seed a contiguous key range through the gateway itself, batched
	// alongside the scan-free sessions so edge batching runs.
	const base = uint64(1000)
	subs := make([]Submit, 0, 5)
	for i := uint64(0); i < 5; i++ {
		subs = append(subs, Submit{
			Session: i, Nonce: 1,
			Ops: writeOp(base+i, fmt.Sprintf("k%d", i)),
		})
	}
	ts.send(subs...)
	for _, r := range ts.recv(5, 5*time.Second) {
		if r.Status != StatusOK {
			t.Fatalf("seed write: %+v", r)
		}
	}

	// A transaction mixing a scan, a point read, and a write: the scan's
	// rows and the read's value land in the right reply spans.
	ts.send(Submit{Session: 8, Nonce: 1, Ops: []types.Op{
		{Kind: types.OpScan, Key: base, EndKey: base + 4, Limit: 3},
		{Kind: types.OpRead, Key: base + 4},
		{Kind: types.OpWrite, Key: base + 9, Value: []byte("w")},
	}})
	first := ts.recv(1, 5*time.Second)[0]
	if first.Status != StatusOK || len(first.Reads) != 2 {
		t.Fatalf("scan reply: %+v", first)
	}
	sc := first.Reads[0]
	if !sc.Scan || len(sc.Rows) != 3 {
		t.Fatalf("scan result: %+v, want 3 rows", sc)
	}
	for i, row := range sc.Rows {
		if row.Key != base+uint64(i) || string(row.Value) != fmt.Sprintf("k%d", i) {
			t.Fatalf("scan row %d: (%d,%q)", i, row.Key, row.Value)
		}
	}
	if !first.Reads[1].Found || string(first.Reads[1].Value) != "k4" {
		t.Fatalf("point read alongside scan: %+v", first.Reads[1])
	}

	before := settleHeight(t, c)
	txnsBefore := c.Replica(0).Stats().TxnsExecuted

	// Retry with the same nonce: the cached reply — scan rows included —
	// replays from the dedup window and nothing reaches consensus again.
	ts.send(Submit{Session: 8, Nonce: 1, Ops: []types.Op{
		{Kind: types.OpScan, Key: base, EndKey: base + 4, Limit: 3},
		{Kind: types.OpRead, Key: base + 4},
		{Kind: types.OpWrite, Key: base + 9, Value: []byte("w")},
	}})
	second := ts.recv(1, 5*time.Second)[0]
	if second.Status != StatusOK || second.Seq != first.Seq || len(second.Reads) != 2 {
		t.Fatalf("retry reply %+v, want replay of %+v", second, first)
	}
	resc := second.Reads[0]
	if !resc.Scan || len(resc.Rows) != len(sc.Rows) {
		t.Fatalf("replayed scan result: %+v", resc)
	}
	for i := range sc.Rows {
		if resc.Rows[i].Key != sc.Rows[i].Key || !bytes.Equal(resc.Rows[i].Value, sc.Rows[i].Value) {
			t.Fatalf("replayed row %d: %+v, want %+v", i, resc.Rows[i], sc.Rows[i])
		}
	}
	if after := settleHeight(t, c); after != before {
		t.Fatalf("ledger height moved %d → %d on a retried scan", before, after)
	}
	if got := c.Replica(0).Stats().TxnsExecuted; got != txnsBefore {
		t.Fatalf("retry executed: %d → %d transactions", txnsBefore, got)
	}
	if st := g.Stats(); st.DupReplayed != 1 || st.ReadMismatches != 0 {
		t.Fatalf("stats: %+v, want DupReplayed=1 ReadMismatches=0", st)
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatalf("ledger check: %v", err)
	}
}

func TestGatewayReorderedNoncesEachAckedOnce(t *testing.T) {
	c := newTestCluster(t)
	g := newTestGateway(t, c, nil)
	ts := dialSession(t, g)

	// One frame, nonces reversed: all are fresh, all must execute and be
	// acknowledged exactly once.
	ts.send(
		Submit{Session: 4, Nonce: 4, Ops: writeOp(10, "d")},
		Submit{Session: 4, Nonce: 3, Ops: writeOp(11, "c")},
		Submit{Session: 4, Nonce: 2, Ops: writeOp(12, "b")},
		Submit{Session: 4, Nonce: 1, Ops: writeOp(13, "a")},
	)
	replies := ts.recv(4, 5*time.Second)
	acked := map[uint64]int{}
	for _, r := range replies {
		if r.Status != StatusOK {
			t.Fatalf("nonce %d: status %v", r.Nonce, r.Status)
		}
		acked[r.Nonce]++
	}
	for n := uint64(1); n <= 4; n++ {
		if acked[n] != 1 {
			t.Fatalf("nonce %d acknowledged %d times", n, acked[n])
		}
	}
	if extra := ts.tryRecv(1, 300*time.Millisecond); len(extra) != 0 {
		t.Fatalf("unexpected extra replies: %+v", extra)
	}
}

// droppyEndpoint drops the first outbound envelope, forcing the upstream
// engine through its retransmission timeout — the injected
// gateway→replica fault of the retry-safety requirement.
type droppyEndpoint struct {
	transport.Endpoint
	dropped bool
}

func (d *droppyEndpoint) Send(env *types.Envelope) error {
	if !d.dropped {
		d.dropped = true
		env.Release()
		return nil
	}
	return d.Endpoint.Send(env)
}

func TestGatewayDuplicateUnderTimeoutExecutesOnce(t *testing.T) {
	c := newTestCluster(t)
	g := newTestGateway(t, c, func(cfg *Config) {
		cfg.Upstreams = 1
		cfg.Timeout = 100 * time.Millisecond
		cfg.Endpoint = func(id types.ClientID) (transport.Endpoint, error) {
			return &droppyEndpoint{Endpoint: c.AttachClient(id, 1<<10)}, nil
		}
	})
	ts := dialSession(t, g)

	// The first consensus send is dropped; while the upstream waits out
	// its timeout, the session retries the same nonce twice. Both retries
	// must be absorbed by the in-flight pending: exactly one reply, one
	// execution.
	ts.send(Submit{Session: 1, Nonce: 1, Ops: writeOp(21, "x")})
	time.Sleep(20 * time.Millisecond)
	ts.send(Submit{Session: 1, Nonce: 1, Ops: writeOp(21, "x")})
	ts.send(Submit{Session: 1, Nonce: 1, Ops: writeOp(21, "x")})

	replies := ts.recv(1, 5*time.Second)
	if replies[0].Status != StatusOK {
		t.Fatalf("reply: %+v", replies[0])
	}
	if extra := ts.tryRecv(1, 300*time.Millisecond); len(extra) != 0 {
		t.Fatalf("duplicate submits produced extra replies: %+v", extra)
	}
	st := g.Stats()
	if st.DupAbsorbed != 2 {
		t.Fatalf("stats: %+v, want DupAbsorbed=2", st)
	}
	if st.Accepted != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v, want exactly one accepted+completed", st)
	}
	// One transaction executed, on every replica.
	settleHeight(t, c)
	for i := 0; i < 4; i++ {
		if got := c.Replica(i).Stats().TxnsExecuted; got != 1 {
			t.Fatalf("replica %d executed %d transactions, want 1", i, got)
		}
	}
}

func TestGatewayBusyPushback(t *testing.T) {
	const decay = 400 * time.Millisecond
	c := newTestCluster(t)
	g := newTunedTestGateway(t, c, nil, func(l *limits) {
		l.busyThreshold = 200
		l.busyDecay = decay
	})
	ts := dialSession(t, g)

	drops := func() uint64 {
		var total uint64
		for i := 0; i < 4; i++ {
			total += c.Replica(i).Stats().NetDrops
		}
		return total
	}
	dropsBefore := drops()

	// Saturate the admission gauge as a completed consensus response
	// would, then flood: every submit must come back as explicit
	// StatusBusy pushback, nothing may reach the replicas, and nothing
	// may be silently dropped.
	g.noteBusy(255)
	const flood = 100
	subs := make([]Submit, 0, flood)
	for i := 0; i < flood; i++ {
		subs = append(subs, Submit{Session: uint64(i), Nonce: 1, Ops: writeOp(uint64(i), "v")})
	}
	ts.send(subs...)
	replies := ts.recv(flood, 5*time.Second)
	for _, r := range replies {
		if r.Status != StatusBusy {
			t.Fatalf("session %d: status %v, want busy", r.Session, r.Status)
		}
		if r.Busy < 200 {
			t.Fatalf("busy reply carries gauge %d, want ≥ threshold", r.Busy)
		}
	}
	st := g.Stats()
	if st.BusyRejected != flood || st.Accepted != 0 {
		t.Fatalf("stats: %+v, want %d busy-rejected, 0 accepted", st, flood)
	}
	if d := drops() - dropsBefore; d != 0 {
		t.Fatalf("overload leaked into %d silent transport drops", d)
	}

	// Pushback is not a wedge: a saturated gauge can only be refreshed by
	// a completed upstream request, and a saturated admission gate sends
	// none — so after busyDecay with no fresh responses the gateway must
	// expire the stale reading on its own and admit again. No manual
	// reset: this is the recovery path itself.
	time.Sleep(decay + 100*time.Millisecond)
	ts.send(Submit{Session: 0, Nonce: 1, Ops: writeOp(0, "v")})
	if r := ts.recv(1, 5*time.Second)[0]; r.Status != StatusOK {
		t.Fatalf("post-decay reply: %+v", r)
	}
}

func TestGatewayDedupSurvivesReconnect(t *testing.T) {
	c := newTestCluster(t)
	g := newTestGateway(t, c, nil)
	ts := dialSession(t, g)

	ts.send(Submit{Session: 7, Nonce: 1, Ops: writeOp(40, "v")})
	first := ts.recv(1, 5*time.Second)[0]
	if first.Status != StatusOK {
		t.Fatalf("first reply: %+v", first)
	}
	before := settleHeight(t, c)
	txnsBefore := c.Replica(0).Stats().TxnsExecuted

	// The session's connection drops (network blip) and it reconnects on
	// a fresh pipe, retrying the same nonce. Dedup state lives in the
	// gateway, not the connection: the retry must replay the cached reply
	// — same consensus seq — and must not re-execute.
	ts.c.Close()
	ts2 := dialSession(t, g)
	ts2.send(Submit{Session: 7, Nonce: 1, Ops: writeOp(40, "v")})
	second := ts2.recv(1, 5*time.Second)[0]
	if second.Status != StatusOK || second.Seq != first.Seq || second.Nonce != 1 {
		t.Fatalf("retry after reconnect: %+v, want replay of %+v", second, first)
	}
	if after := settleHeight(t, c); after != before {
		t.Fatalf("reconnect retry moved the ledger %d → %d", before, after)
	}
	if got := c.Replica(0).Stats().TxnsExecuted; got != txnsBefore {
		t.Fatalf("reconnect retry executed: %d → %d transactions", txnsBefore, got)
	}
	if st := g.Stats(); st.DupReplayed != 1 {
		t.Fatalf("stats: %+v, want DupReplayed=1", st)
	}
}

func TestGatewayNonceZeroRejected(t *testing.T) {
	c := newTestCluster(t)
	g := newTestGateway(t, c, nil)
	ts := dialSession(t, g)

	// Nonce 0 is reserved (the dedup high-water mark's "nothing
	// completed" value); a completed nonce 0 could never be recognized as
	// a duplicate, so it must be rejected before admission.
	ts.send(Submit{Session: 1, Nonce: 0, Ops: writeOp(50, "z")})
	r := ts.recv(1, 5*time.Second)[0]
	if r.Status != StatusRejected || r.Nonce != 0 {
		t.Fatalf("nonce-0 submit: %+v, want rejected", r)
	}
	if st := g.Stats(); st.Accepted != 0 || st.DupRejected != 1 {
		t.Fatalf("stats: %+v, want 0 accepted, DupRejected=1", st)
	}
}

func TestGatewaySessionIdleEviction(t *testing.T) {
	c := newTestCluster(t)
	g := newTunedTestGateway(t, c, nil, func(l *limits) { l.sessionIdle = time.Second })
	ts := dialSession(t, g)

	ts.send(Submit{Session: 3, Nonce: 1, Ops: writeOp(60, "v")})
	if r := ts.recv(1, 5*time.Second)[0]; r.Status != StatusOK {
		t.Fatalf("reply: %+v", r)
	}
	if st := g.Stats(); st.Sessions != 1 {
		t.Fatalf("stats: %+v, want 1 tracked session", st)
	}
	// With nothing in flight, the session's dedup state must age out.
	deadline := time.Now().Add(10 * time.Second)
	for g.Stats().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session never evicted: %+v", g.Stats())
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func TestGatewayDedupWindowEviction(t *testing.T) {
	c := newTestCluster(t)
	g := newTunedTestGateway(t, c, nil, func(l *limits) { l.dedupWindow = 1 })
	ts := dialSession(t, g)

	ts.send(Submit{Session: 1, Nonce: 1, Ops: writeOp(30, "a")})
	if r := ts.recv(1, 5*time.Second)[0]; r.Status != StatusOK {
		t.Fatalf("nonce 1: %+v", r)
	}
	ts.send(Submit{Session: 1, Nonce: 2, Ops: writeOp(31, "b")})
	if r := ts.recv(1, 5*time.Second)[0]; r.Status != StatusOK {
		t.Fatalf("nonce 2: %+v", r)
	}
	before := settleHeight(t, c)

	// Nonce 1's cached reply was evicted by nonce 2's (window of one).
	// The retry is answered StatusRejected — and still never re-executed.
	ts.send(Submit{Session: 1, Nonce: 1, Ops: writeOp(30, "a")})
	r := ts.recv(1, 5*time.Second)[0]
	if r.Status != StatusRejected || r.Nonce != 1 {
		t.Fatalf("evicted retry: %+v, want rejected nonce 1", r)
	}
	if after := settleHeight(t, c); after != before {
		t.Fatalf("evicted retry moved the ledger %d → %d", before, after)
	}
	if st := g.Stats(); st.DupRejected != 1 {
		t.Fatalf("stats: %+v, want DupRejected=1", st)
	}
}

func TestGatewayLoadGenerator(t *testing.T) {
	c := newTestCluster(t)
	g := newTestGateway(t, c, nil)

	wl := workload.Default()
	wl.Records = 256
	wl.ValueSize = 16
	load, err := NewLoad(LoadConfig{
		Sessions: 50,
		Conns:    2,
		Dial: func() (net.Conn, error) {
			client, server := net.Pipe()
			g.ServeConn(server)
			return client, nil
		},
		Workload:     wl,
		Seed:         7,
		RetryTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("building load: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	if err := load.Run(ctx); err != nil {
		t.Fatalf("load run: %v", err)
	}
	st := load.Stats()
	if st.Completed == 0 {
		t.Fatalf("load completed no transactions: %+v", st)
	}
	gs := g.Stats()
	if gs.Sessions == 0 && gs.Completed == 0 {
		t.Fatalf("gateway saw no sessions: %+v", gs)
	}
	if load.Latency().Count() == 0 {
		t.Fatalf("no latencies recorded")
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatalf("ledger check: %v", err)
	}
	t.Logf("load: %d txns over 50 sessions / 2 conns (busy=%d retries=%d)", st.Completed, st.BusyReplies, st.Retries)
}

// TestLoadStatsWhileRunning reads the session load's Stats and Latency
// while the connections' readers complete sessions, as the benchmark's
// slice marks do; run under -race. Each OK ack is one transaction and one
// latency, recorded once.
func TestLoadStatsWhileRunning(t *testing.T) {
	c := newTestCluster(t)
	g := newTestGateway(t, c, nil)
	wl := workload.Default()
	wl.Records = 256
	wl.ValueSize = 16
	load, err := NewLoad(LoadConfig{
		Sessions: 32,
		Conns:    2,
		Dial: func() (net.Conn, error) {
			client, server := net.Pipe()
			g.ServeConn(server)
			return client, nil
		},
		Workload: wl,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("building load: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- load.Run(ctx) }()
	var last uint64
	for deadline := time.Now().Add(20 * time.Second); last < 200 && time.Now().Before(deadline); {
		s, h := load.Stats(), load.Latency()
		if s.Completed < last || h.Percentile(99) < h.Percentile(50) {
			t.Errorf("stats went back or percentiles crossed: %+v, %d latencies", s, h.Count())
			break
		}
		last = s.Completed
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("load run: %v", err)
	}
	st := load.Stats()
	if st.Completed < 200 || load.Latency().Count() != st.Completed || st.WriteTxns != st.Completed {
		t.Fatalf("after the run: %+v, %d latencies; want at least 200 writes, one latency each", st, load.Latency().Count())
	}
}

// TestLoadRetriesOncePerTimeout: a session whose gateway never answers is
// retried once per RetryTimeout, timed from its latest send, not re-sent at
// every sweep once its first timeout has passed. Over 1 s at a 100 ms
// timeout that is at most 10 retries (a sweep every 50 ms re-sent it 19
// times when every retry was timed from the first send).
func TestLoadRetriesOncePerTimeout(t *testing.T) {
	load, err := NewLoad(LoadConfig{
		Sessions: 1,
		Conns:    1,
		Dial: func() (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				// A gateway that reads every frame and answers none.
				buf := make([]byte, 4096)
				for {
					if _, err := server.Read(buf); err != nil {
						return
					}
				}
			}()
			return client, nil
		},
		RetryTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("building load: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := load.Run(ctx); err != nil {
		t.Fatalf("load run: %v", err)
	}
	st := load.Stats()
	t.Logf("one unanswered session over 1 s at a 100 ms timeout: %d retries", st.Retries)
	if st.Retries == 0 || st.Retries > 10 {
		t.Fatalf("%d retries of one unanswered session in 1 s at a 100 ms timeout, want 1..10", st.Retries)
	}
	if st.Completed != 0 {
		t.Fatalf("%d completions from a gateway that never answers", st.Completed)
	}
}

// TestEdgeBatchesFill is the edge's analogue of the replica's
// TestBatchesFillUnderLoad. An upstream takes what is queued and never
// waits for more, yet with many closed-loop sessions behind one upstream
// the queue refills while each request is in flight, so requests carry
// many transactions each. The run stops after a fixed amount of work, not
// a fixed time, so a slow host changes how long it takes, not the ratio.
func TestEdgeBatchesFill(t *testing.T) {
	const sessions, batch, requests = 256, 64, 40
	c := newTestCluster(t)
	g := newTestGateway(t, c, func(cfg *Config) {
		cfg.Upstreams = 1
		cfg.Batch = batch
	})
	wl := workload.Default()
	wl.Records = 256
	wl.ValueSize = 16
	load, err := NewLoad(LoadConfig{
		Sessions: sessions,
		Conns:    2,
		Dial: func() (net.Conn, error) {
			client, server := net.Pipe()
			g.ServeConn(server)
			return client, nil
		},
		Workload: wl,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("building load: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- load.Run(ctx) }()
	deadline := time.Now().Add(30 * time.Second)
	for g.Stats().Requests < requests && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("load run: %v", err)
	}
	st := g.Stats()
	if st.Requests < requests {
		t.Fatalf("only %d upstream requests in 30 s: %+v", st.Requests, st)
	}
	per := float64(st.Completed) / float64(st.Requests)
	t.Logf("%d sessions, one upstream, batch %d: %.1f transactions per upstream request (%d requests)", sessions, batch, per, st.Requests)
	if per < batch/2 {
		t.Fatalf("%.1f transactions per upstream request, want at least %d", per, batch/2)
	}
}

// TestGatewayBatchOfOne pins Batch = 1 as the way to send one transaction
// per consensus request: a frame of eight submits behind one upstream
// becomes eight requests, where the default batch takes the frame, admitted
// under one lock, as one. A negative Batch is refused, not read as the
// default.
func TestGatewayBatchOfOne(t *testing.T) {
	const submits = 8
	if _, err := New(Config{N: 4, Directory: newTestCluster(t).Directory(), Batch: -1,
		Endpoint: func(types.ClientID) (transport.Endpoint, error) { return nil, errors.New("unused") },
	}); err == nil {
		t.Fatal("New accepted Batch -1")
	}
	for _, tt := range []struct{ batch, requests int }{{1, submits}, {0, 1}} {
		t.Run(fmt.Sprintf("batch=%d", tt.batch), func(t *testing.T) {
			c := newTestCluster(t)
			g := newTestGateway(t, c, func(cfg *Config) {
				cfg.Upstreams = 1
				cfg.Batch = tt.batch
			})
			ts := dialSession(t, g)
			subs := make([]Submit, submits)
			for s := range subs {
				subs[s] = Submit{Session: uint64(s), Nonce: 1, Ops: writeOp(uint64(s), "v")}
			}
			ts.send(subs...)
			for _, r := range ts.recv(submits, 5*time.Second) {
				if r.Status != StatusOK {
					t.Fatalf("session %d: status %v, want ok", r.Session, r.Status)
				}
			}
			if st := g.Stats(); st.Requests != uint64(tt.requests) {
				t.Fatalf("%d submits made %d upstream requests, want %d", submits, st.Requests, tt.requests)
			}
		})
	}
}

// framed puts room for the frame header in front of payload, as
// startSessionFrame does for a frame under construction.
func framed(payload []byte) []byte {
	return append(make([]byte, frameHeader), payload...)
}

// submitFrame is a frame from the pool holding subs, as if decoded; the
// caller holds its one reference.
func submitFrame(subs ...Submit) *sessionFrame {
	f := acquireFrame()
	f.Submits = append(f.Submits[:0], subs...)
	return f
}
