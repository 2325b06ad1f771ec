package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/types"
)

// newTCPPair wires two endpoints a → b with the given batching config
// applied to the sender.
func newTCPPair(t *testing.T, cfg TCPConfig) (a, b *TCPEndpoint) {
	t.Helper()
	cfg.Self = types.ReplicaNode(0)
	cfg.ListenAddr = "127.0.0.1:0"
	a, err := NewTCPWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err = NewTCPWithConfig(TCPConfig{Self: types.ReplicaNode(1), ListenAddr: "127.0.0.1:0", Inboxes: 1, Capacity: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	a.SetPeerAddr(types.ReplicaNode(1), b.Addr())
	b.SetPeerAddr(types.ReplicaNode(0), a.Addr())
	return a, b
}

func recvN(t *testing.T, ep *TCPEndpoint, n int, timeout time.Duration) []*types.Envelope {
	t.Helper()
	got := make([]*types.Envelope, 0, n)
	deadline := time.After(timeout)
	for len(got) < n {
		select {
		case env := <-ep.Inbox(0):
			got = append(got, env)
		case <-deadline:
			t.Fatalf("received %d/%d envelopes before timeout", len(got), n)
		}
	}
	return got
}

// holdDial makes ep's dials wait until release is called. Whatever is sent
// meanwhile queues behind the dial, so the writer finds it all waiting:
// the way to form full multi-envelope frames without timing.
func holdDial(ep *TCPEndpoint) (release func()) {
	gate := make(chan struct{})
	dial := ep.dial
	ep.dial = func(addr string) (net.Conn, error) {
		<-gate
		return dial(addr)
	}
	return func() { close(gate) }
}

// frameCounter is a receiver's FrameBuffers that counts the frames read:
// the reader borrows one buffer per frame.
type frameCounter struct{ gets atomic.Int64 }

func (c *frameCounter) Get(n int) []byte { c.gets.Add(1); return make([]byte, 0, n) }
func (c *frameCounter) Put([]byte)       {}

// TestTCPBatchedDeliveryOrdered queues 125 frames' worth of envelopes
// behind a held dial: the writer takes what is queued, so they must arrive
// in exactly 125 full frames, none lost or reordered.
func TestTCPBatchedDeliveryOrdered(t *testing.T) {
	const n, batchMax = 2000, 16
	a, b := newTCPPair(t, TCPConfig{Inboxes: 1, Capacity: 1 << 14, BatchMax: batchMax})
	frames := new(frameCounter)
	b.SetFrameBuffers(frames)
	release := holdDial(a)
	for i := 0; i < n; i++ {
		if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), fmt.Sprintf("m%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	release()
	got := recvN(t, b, n, 5*time.Second)
	for i, e := range got {
		if want := fmt.Sprintf("m%05d", i); string(e.Body) != want {
			t.Fatalf("envelope %d = %q, want %q", i, e.Body, want)
		}
	}
	if got, want := frames.gets.Load(), int64(n/batchMax); got != want {
		t.Fatalf("%d envelopes arrived in %d frames, want %d full frames", n, got, want)
	}
}

// TestTCPFlushOnClose queues envelopes behind a dial that completes only
// once Close has begun: what was queued must be flushed, not dropped.
func TestTCPFlushOnClose(t *testing.T) {
	a, b := newTCPPair(t, TCPConfig{Inboxes: 1, Capacity: 1 << 10, BatchMax: 1024})
	release := holdDial(a)
	const n = 3
	for i := 0; i < n; i++ {
		if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), fmt.Sprintf("f%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	for closing := false; !closing; {
		time.Sleep(time.Millisecond)
		a.mu.Lock()
		closing = a.closed
		a.mu.Unlock()
	}
	release()
	<-closed
	got := recvN(t, b, n, 5*time.Second)
	for i, e := range got {
		if want := fmt.Sprintf("f%d", i); string(e.Body) != want {
			t.Fatalf("envelope %d = %q, want %q", i, e.Body, want)
		}
	}
}

// TestTCPConcurrentSendAndHello hammers one connection from many
// goroutines mixing Send and Hello. Before writes were serialized through
// the per-peer writer this interleaved partial frames; now every envelope
// must arrive intact (run under -race to check the synchronization too).
func TestTCPConcurrentSendAndHello(t *testing.T) {
	a, b := newTCPPair(t, TCPConfig{Inboxes: 1, Capacity: 1 << 14, BatchMax: 8})
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%50 == 0 {
					if err := a.Hello(types.ReplicaNode(1)); err != nil {
						t.Errorf("hello: %v", err)
						return
					}
				}
				if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), fmt.Sprintf("g%dm%03d", g, i))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got := recvN(t, b, goroutines*perG, 10*time.Second)
	seen := make(map[string]bool, len(got))
	for _, e := range got {
		if e.Type != types.MsgPrepare {
			t.Fatalf("corrupted envelope type %d", e.Type)
		}
		if seen[string(e.Body)] {
			t.Fatalf("duplicate envelope %q", e.Body)
		}
		seen[string(e.Body)] = true
	}
}

// TestTCPDropCounter overloads a tiny inbox without draining it and
// checks every discarded envelope is accounted for.
func TestTCPDropCounter(t *testing.T) {
	a, b := newTCPPair(t, TCPConfig{Inboxes: 1, Capacity: 1 << 10, BatchMax: 4})
	// b's inbox holds 1<<14; rebuild b with capacity 1 instead.
	b.Close()
	b2, err := NewTCPWithConfig(TCPConfig{Self: types.ReplicaNode(1), ListenAddr: "127.0.0.1:0", Inboxes: 1, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b2.Close)
	a.SetPeerAddr(types.ReplicaNode(1), b2.Addr())

	const n = 64
	for i := 0; i < n; i++ {
		if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), fmt.Sprintf("d%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Stable accounting: everything sent is either queued (1) or dropped.
		if got := b2.Drops(); got+uint64(len(b2.Inbox(0))) == n {
			if got == 0 {
				t.Fatal("expected drops with a capacity-1 inbox")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drops=%d queued=%d, want them to sum to %d", b2.Drops(), len(b2.Inbox(0)), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPUnbatchedConfig checks BatchMax=1 still delivers correctly (the
// per-envelope baseline the benchmarks compare against).
func TestTCPUnbatchedConfig(t *testing.T) {
	a, b := newTCPPair(t, TCPConfig{Inboxes: 1, Capacity: 1 << 12, BatchMax: 1})
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			_ = a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), fmt.Sprintf("u%03d", i)))
		}
	}()
	got := recvN(t, b, n, 5*time.Second)
	for i, e := range got {
		if want := fmt.Sprintf("u%03d", i); string(e.Body) != want {
			t.Fatalf("envelope %d = %q, want %q", i, e.Body, want)
		}
	}
}
