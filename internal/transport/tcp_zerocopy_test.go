package transport

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"resilientdb/internal/types"
)

// newZeroCopyPair wires sender a → receiver b with the receiver running
// the pooled zero-copy decode path.
func newZeroCopyPair(t *testing.T, cfg TCPConfig) (a, b *TCPEndpoint) {
	t.Helper()
	cfg.Self = types.ReplicaNode(0)
	cfg.ListenAddr = "127.0.0.1:0"
	a, err := NewTCPWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err = NewTCPWithConfig(TCPConfig{
		Self:       types.ReplicaNode(1),
		ListenAddr: "127.0.0.1:0",
		Inboxes:    1,
		Capacity:   1 << 14,
		ZeroCopy:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	a.SetPeerAddr(types.ReplicaNode(1), b.Addr())
	b.SetPeerAddr(types.ReplicaNode(0), a.Addr())
	return a, b
}

// TestTCPZeroCopyBlast drives batched traffic through a zero-copy
// receiver: bodies are inspected and copied before each envelope is
// released (recycling its frame arena), and the copies must stay intact
// while later frames reuse the pooled buffers. Run under -race this
// exercises the arena handoff between the read loop and the consumer.
func TestTCPZeroCopyBlast(t *testing.T) {
	const n, batchMax = 4000, 16
	a, b := newZeroCopyPair(t, TCPConfig{Inboxes: 1, Capacity: 1 << 14, BatchMax: batchMax})
	filler := strings.Repeat("z", 200)
	// Everything queues behind the held dial, so it travels in full
	// 16-envelope frames, each one arena shared by its envelopes.
	release := holdDial(a)
	for i := 0; i < n; i++ {
		if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), fmt.Sprintf("m%05d-%s", i, filler))); err != nil {
			t.Fatal(err)
		}
	}
	release()

	bodies := make([]string, 0, n)
	deadline := time.After(10 * time.Second)
	for len(bodies) < n {
		select {
		case e := <-b.Inbox(0):
			// Copy out, then retire: the frame buffer behind e.Body goes
			// back to the pool and may be overwritten by the next frame.
			bodies = append(bodies, string(e.Body))
			e.Release()
		case <-deadline:
			t.Fatalf("received %d/%d envelopes before timeout", len(bodies), n)
		}
	}
	for i, got := range bodies {
		if want := fmt.Sprintf("m%05d-%s", i, filler); got != want {
			t.Fatalf("envelope %d = %q, want %q", i, got[:16], want[:16])
		}
	}
	if hits, misses := b.FramePoolStats(); hits+misses != n/batchMax {
		t.Fatalf("%d envelopes arrived in %d pooled frames, want %d full frames", n, hits+misses, n/batchMax)
	}

	// Reuse phase: one frame in flight at a time, each released before the
	// next is sent, so the read loop must find recycled buffers. (During
	// the blast the reader can outrun the consumer and legitimately miss
	// on every Get — the inbox buffers thousands of unreleased frames.)
	hits0, _ := b.FramePoolStats()
	for i := 0; i < 50; i++ {
		if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), fmt.Sprintf("p%02d-%s", i, filler))); err != nil {
			t.Fatal(err)
		}
		select {
		case e := <-b.Inbox(0):
			if want := fmt.Sprintf("p%02d-%s", i, filler); string(e.Body) != want {
				t.Fatalf("ping %d = %q, want %q", i, e.Body[:8], want[:8])
			}
			e.Release()
		case <-time.After(5 * time.Second):
			t.Fatalf("ping %d never arrived", i)
		}
	}
	if hits, misses := b.FramePoolStats(); hits == hits0 {
		t.Fatalf("frame pool never hit across 50 release-then-send rounds (hits=%d misses=%d)", hits, misses)
	}
}

// TestTCPZeroCopyRetainedDecode checks the property the replica pipeline
// depends on: a message copy-decoded from a pooled envelope survives the
// envelope's release and any amount of later traffic reusing the arena.
// The request shares its frame with seven others queued behind a held
// dial, so its buffer recycles only once all eight are released.
func TestTCPZeroCopyRetainedDecode(t *testing.T) {
	const batchMax = 8
	a, b := newZeroCopyPair(t, TCPConfig{Inboxes: 1, Capacity: 1 << 12, BatchMax: batchMax})
	release := holdDial(a)

	payload := strings.Repeat("retained-payload-", 16)
	first := &types.ClientRequest{
		Client:   3,
		FirstSeq: 11,
		Txns:     []types.Transaction{{Ops: []types.Op{{Kind: types.OpWrite, Key: 8, Value: []byte(payload)}}}},
		Sig:      []byte("sig-retained"),
	}
	if err := a.Send(&types.Envelope{
		From: types.ClientNode(3), To: types.ReplicaNode(1),
		Type: types.MsgClientRequest, Body: types.MarshalBody(first),
		Auth: []byte("auth-retained"),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < batchMax; i++ {
		if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), strings.Repeat("y", 300))); err != nil {
			t.Fatal(err)
		}
	}
	release()

	var decoded *types.ClientRequest
	var auth []byte
	select {
	case e := <-b.Inbox(0):
		m, err := types.DecodeBody(e.Type, e.Body)
		if err != nil {
			t.Fatal(err)
		}
		decoded = m.(*types.ClientRequest)
		auth = bytes.Clone(e.Auth) // Auth is lent with the envelope: a keeper copies it
		e.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("first envelope never arrived")
	}
	for i := 1; i < batchMax; i++ {
		select {
		case e := <-b.Inbox(0):
			e.Release()
		case <-time.After(5 * time.Second):
			t.Fatalf("frame-mate %d never arrived", i)
		}
	}
	if hits, misses := b.FramePoolStats(); hits+misses != 1 {
		t.Fatalf("%d envelopes arrived in %d frames, want 1", batchMax, hits+misses)
	}

	// Churn the arena pool with enough traffic to recycle the first frame's
	// buffer many times over.
	const churn = 500
	go func() {
		for i := 0; i < churn; i++ {
			_ = a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), strings.Repeat("x", 300)))
		}
	}()
	for i := 0; i < churn; i++ {
		select {
		case e := <-b.Inbox(0):
			e.Release()
		case <-time.After(10 * time.Second):
			t.Fatalf("churn envelope %d never arrived", i)
		}
	}

	if string(decoded.Txns[0].Ops[0].Value) != payload {
		t.Fatal("copy-decoded message mutated after its frame buffer was recycled")
	}
	if string(auth) != "auth-retained" {
		t.Fatal("envelope Auth mutated after its frame buffer was recycled")
	}
}
