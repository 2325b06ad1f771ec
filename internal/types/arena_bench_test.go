package types_test

// Allocation accounting for the zero-copy hot path: benchmarks to run
// with -benchmem (allocs/op of the copying forms against the pooled forms
// the pipeline uses), and tests pinning the two claims pooling rests on.

import (
	"bytes"
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

func BenchmarkFrameDecodeCopy(b *testing.B) {
	frame := benchFrame(b)
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := types.ReadFrames(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecodePooled(b *testing.B) {
	frame := benchFrame(b)
	r := bytes.NewReader(frame)
	bufs := new(pool.BytePool)
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

// TestPooledFrameDecodeHalvesAllocs pins what zero-copy receive buys: a
// 64-envelope batch frame decoded into pooled envelopes aliasing one
// pooled arena costs at most half the allocations of the copying decoder.
func TestPooledFrameDecodeHalvesAllocs(t *testing.T) {
	frame := benchFrame(t)
	r := bytes.NewReader(frame)
	bufs := new(pool.BytePool)
	copied := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if _, err := types.ReadFrames(r); err != nil {
			t.Fatal(err)
		}
	})
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
	t.Logf("allocations per frame: copy decode %.0f, pooled decode %.0f", copied, pooled)
	if pooled > copied/2 {
		t.Fatalf("pooled decode allocates %.0f per frame, copy decode %.0f — want at most half", pooled, copied)
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
