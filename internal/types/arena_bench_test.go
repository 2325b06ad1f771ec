package types_test

// Allocation accounting for the zero-copy hot path: benchmarks to run
// with -benchmem (allocs/op of the unpooled forms against the pooled forms
// the pipeline uses), and tests pinning the claims pooling rests on.

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"resilientdb/internal/pool"
	"resilientdb/internal/types"
)

func benchFrame(tb testing.TB) []byte {
	tb.Helper()
	envs := make([]*types.Envelope, 0, 64)
	for i := 0; i < 64; i++ {
		envs = append(envs, &types.Envelope{
			From: types.ReplicaNode(1),
			To:   types.ReplicaNode(0),
			Type: types.MsgPrepare,
			Body: bytes.Repeat([]byte{byte(i)}, 256),
			Auth: bytes.Repeat([]byte{0xA5}, 32),
		})
	}
	var w types.Writer
	types.AppendBatchFrame(&w, envs)
	return append([]byte(nil), w.Bytes()...)
}

// benchFrameDecode decodes one 64-envelope frame per iteration and releases
// every envelope, borrowing frame buffers from bufs (nil: allocate each).
func benchFrameDecode(b *testing.B, bufs types.FrameBuffers) {
	frame := benchFrame(b)
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		envs, err := types.ReadFramesPooled(r, bufs)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range envs {
			e.Release()
		}
	}
}

func BenchmarkFrameDecodeNilRecycler(b *testing.B) { benchFrameDecode(b, nil) }

func BenchmarkFrameDecodePooled(b *testing.B) { benchFrameDecode(b, new(pool.BytePool)) }

func benchMessage() types.Message {
	return &types.Prepare{View: 3, Seq: 12345, Digest: types.Digest{1, 2, 3}, Replica: 2}
}

func BenchmarkMarshalBodyCopy(b *testing.B) {
	msg := benchMessage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = types.MarshalBody(msg)
	}
}

func BenchmarkMarshalBodyArena(b *testing.B) {
	msg := benchMessage()
	bufs := new(pool.BytePool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, arena := types.MarshalBodyArena(msg, bufs, 0)
		arena.Release()
	}
}

// TestPooledFrameDecodeHalvesAllocs pins what zero-copy receive costs
// through ReadFramesPooled, which reads with a FrameReader of its own: a
// 64-envelope frame decoded into pooled envelopes aliasing one pooled arena
// allocates that reader and the envelope slice it hands over — nothing per
// Body or Auth, nothing for the frame buffer or the envelope structs. (The
// name dates from a copying reader it was once compared against, at 2+ per
// envelope; CI's Allocation gate selects the test by it.)
func TestPooledFrameDecodeHalvesAllocs(t *testing.T) {
	frame := benchFrame(t)
	r := bytes.NewReader(frame)
	bufs := new(pool.BytePool)
	pooled := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		envs, err := types.ReadFramesPooled(r, bufs)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range envs {
			e.Release()
		}
	})
	t.Logf("allocations per 64-envelope frame: %.0f", pooled)
	if types.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
	}
	if most := float64(2); pooled > most {
		t.Fatalf("pooled decode allocates %.0f per 64-envelope frame, want at most %.0f", pooled, most)
	}
}

// TestFrameReaderVoteFrameAllocCap pins what a connection's reader pays for
// a frame of 64 votes under CMAC links, the bulk of replica traffic, once
// warm: at most one allocation per frame. The frame buffer, the arena, the
// envelopes and their 16-byte tags are all recycled or held in place, and
// the envelope slice is the reader's, refilled frame after frame.
func TestFrameReaderVoteFrameAllocCap(t *testing.T) {
	envs := make([]*types.Envelope, 64)
	for i := range envs {
		envs[i] = &types.Envelope{
			From: types.ReplicaNode(1), To: types.ReplicaNode(0), Type: types.MsgPrepare,
			Body: types.MarshalBody(&types.Prepare{View: 1, Seq: types.SeqNum(i + 1), Digest: types.Digest{byte(i)}, Replica: 1}),
			Auth: bytes.Repeat([]byte{byte(i)}, 16),
		}
	}
	var w types.Writer
	types.AppendBatchFrame(&w, envs)
	frame := w.Bytes()
	var src bytes.Reader
	frames := types.NewFrameReader(&src, new(pool.BytePool))
	allocs := testing.AllocsPerRun(200, func() {
		src.Reset(frame)
		got, err := frames.Next()
		if err != nil || len(got) != len(envs) {
			t.Fatalf("%d envelopes, %v", len(got), err)
		}
		for i, e := range got {
			if !bytes.Equal(e.Auth, envs[i].Auth) {
				t.Fatalf("envelope %d: Auth %x, want %x", i, e.Auth, envs[i].Auth)
			}
			e.Release()
		}
	})
	t.Logf("allocations per 64-vote frame: %.2f", allocs)
	if types.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
	}
	if allocs > 1 {
		t.Fatalf("a 64-vote frame costs %.2f allocations, want at most 1", allocs)
	}
}

// TestMarshalBodyArenaAllocatesLess pins what pooled encode buys: in
// steady state (the buffer released after each send, as the transport
// does) MarshalBodyArena allocates less than MarshalBody.
func TestMarshalBodyArenaAllocatesLess(t *testing.T) {
	msg := benchMessage()
	bufs := new(pool.BytePool)
	copied := testing.AllocsPerRun(100, func() {
		_ = types.MarshalBody(msg)
	})
	pooled := testing.AllocsPerRun(100, func() {
		_, arena := types.MarshalBodyArena(msg, bufs, 0)
		arena.Release()
	})
	if types.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
	}
	if pooled >= copied {
		t.Fatalf("pooled encode allocates %.0f per body, copy encode %.0f — pooling saved nothing", pooled, copied)
	}
}

// benchRequestBody is the benchmark's request: 32 one-op transactions of
// 100-byte values under one 64-byte signature.
func benchRequestBody() []byte {
	req := &types.ClientRequest{Client: 1, FirstSeq: 1, Sig: bytes.Repeat([]byte{0x51}, 64)}
	for i := 0; i < 32; i++ {
		req.Txns = append(req.Txns, types.Transaction{
			Client: 1, ClientSeq: uint64(1 + i),
			Ops: []types.Op{{Key: uint64(i), Value: bytes.Repeat([]byte{byte(i)}, 100)}},
		})
	}
	return types.MarshalBody(req)
}

func BenchmarkRequestDecodeCopy(b *testing.B) {
	body := benchRequestBody()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := types.DecodeBody(types.MsgClientRequest, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRequestDecodeAlias(b *testing.B) {
	env := &types.Envelope{Type: types.MsgClientRequest, Body: benchRequestBody()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := types.DecodeEnvelope(env); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRequestDecodeAllocCaps pins what decoding a request costs. In place,
// as the replica does it: the message, its transactions and one op slab,
// whatever the transaction count. In copy mode: those plus one copy per
// value and the signature. An allocation per transaction put back on either
// path (32 here) breaks its cap.
func TestRequestDecodeAllocCaps(t *testing.T) {
	body := benchRequestBody()
	env := &types.Envelope{From: types.ClientNode(1), To: types.ReplicaNode(0), Type: types.MsgClientRequest, Body: body}
	alias := testing.AllocsPerRun(200, func() {
		if _, err := types.DecodeEnvelope(env); err != nil {
			t.Fatal(err)
		}
	})
	copied := testing.AllocsPerRun(200, func() {
		if _, err := types.DecodeBody(types.MsgClientRequest, body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per 32-transaction request: in place %.0f, copy mode %.0f", alias, copied)
	if types.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the pooled Reader is nondeterministic")
	}
	if alias > 6 {
		t.Fatalf("in-place decode allocates %.0f per request, want at most 6", alias)
	}
	if copied > 40 {
		t.Fatalf("copy-mode decode allocates %.0f per request, want at most 40", copied)
	}
}

// TestHostileCountsBuyNoMemory: a forged transaction or op count fails
// with ErrOversized, and a count that is just plausible for the bytes that
// follow it allocates in proportion to those bytes — the op slab is sized
// from the transaction count but never beyond the ops the unread bytes
// could encode.
func TestHostileCountsBuyNoMemory(t *testing.T) {
	header := func(txns, nops uint32) *types.Writer {
		var w types.Writer
		w.U32(1)    // client
		w.U64(1)    // first seq
		w.U32(txns) // transaction count
		w.U32(1)    // first transaction: client
		w.U64(1)    // client seq
		w.U32(nops) // op count
		return &w
	}
	for _, row := range []struct {
		name       string
		txns, nops uint32
		filler     int
		oversized  bool
	}{
		{"forged txn count", 1 << 30, 1, 1 << 10, true},
		{"forged op count", 1, 1 << 30, 1 << 10, true},
		{"forged op count, high bit set", 1, 1<<30 | 1<<31, 1 << 10, true},
		{"plausible counts, truncated body", 1 << 10, 1 << 10, 1 << 14, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := header(row.txns, row.nops)
			body := append(w.Bytes(), bytes.Repeat([]byte{0xFF}, row.filler)...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := types.DecodeBody(types.MsgClientRequest, body)
			_, aerr := types.DecodeEnvelope(&types.Envelope{Type: types.MsgClientRequest, Body: body})
			runtime.ReadMemStats(&after)
			if err == nil || aerr == nil {
				t.Fatal("hostile body decoded")
			}
			if row.oversized && (!errors.Is(err, types.ErrOversized) || !errors.Is(aerr, types.ErrOversized)) {
				t.Fatalf("want ErrOversized, got %v / %v", err, aerr)
			}
			// Two decodes; a Transaction is 4 and an Op 4.7 times its
			// smallest wire form.
			if spent, most := after.TotalAlloc-before.TotalAlloc, uint64(2*10*len(body)+4096); spent > most {
				t.Fatalf("decoding a %d-byte hostile body allocated %d bytes, want at most %d", len(body), spent, most)
			}
		})
	}
}
