package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/types"
)

// TestTCPStalledPeerDoesNotBlockSend: a peer that accepted the connection
// and then stopped reading, or reads a frame now and then, costs its senders
// stallTimeout once, not forever and not on every frame. After its queue and
// both socket buffers are full, further Sends to it return at once and are
// counted in Drops, and Sends to a healthy peer interleaved with them are all
// delivered, in order. Send's caller is a consensus lane: before, the first
// Send past the full queue parked it for good, and with it every destination
// it serves. A peer that picks up again is sent to again.
func TestTCPStalledPeerDoesNotBlockSend(t *testing.T) {
	const bodySize = 32 << 10
	for _, tc := range []struct {
		name string
		// every is the pause between two reads of one body's worth; 0 never
		// reads. 20 ms is 50 envelopes a second, under a twentieth of the
		// rate Send asks of a peer it waits for.
		every time.Duration
	}{{"frozen", 0}, {"slow-drip", 20 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newTCPPair(t, TCPConfig{Inboxes: 1, Capacity: 16})

			slow, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var held []net.Conn
			var wakeUp atomic.Bool // the peer reads as fast as it can from here on
			go func() {
				for {
					c, err := slow.Accept()
					if err != nil {
						return
					}
					mu.Lock()
					held = append(held, c)
					mu.Unlock()
					if tc.every == 0 {
						continue
					}
					go func() {
						buf := make([]byte, bodySize)
						for {
							if _, err := c.Read(buf); err != nil {
								return
							}
							if !wakeUp.Load() {
								time.Sleep(tc.every)
							}
						}
					}()
				}
			}()
			// Runs before a.Close (cleanups are last in, first out), so the
			// stalled writer's final flush fails at once instead of waiting
			// out its bound.
			t.Cleanup(func() {
				slow.Close()
				mu.Lock()
				defer mu.Unlock()
				for _, c := range held {
					c.Close()
				}
			})
			self, healthy, stalled := types.ReplicaNode(0), types.ReplicaNode(1), types.ReplicaNode(2)
			a.SetPeerAddr(stalled, slow.Addr().String())

			body := make([]byte, bodySize) // shared: 4096 queued envelopes must not cost 128 MiB
			toStalled := func() *types.Envelope {
				return &types.Envelope{From: self, To: stalled, Type: types.MsgPrepare, Body: body, Auth: []byte{1}}
			}

			// Fill the peer's queue and the socket buffers behind it. The
			// first drop is the one sender that waits: it comes stallTimeout
			// after the writer last kept its pace.
			filled := make(chan error, 1)
			go func() {
				for a.Drops() == 0 {
					if err := a.Send(toStalled()); err != nil {
						filled <- fmt.Errorf("send to the stalled peer: %w", err)
						return
					}
				}
				filled <- nil
			}()
			select {
			case err := <-filled:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("Send to a peer that stopped reading never returned")
			}

			const further, everyNth = 10000, 10
			before := a.Drops()
			start := time.Now()
			done := make(chan error, 1)
			go func() {
				for i := 0; i < further; i++ {
					if err := a.Send(toStalled()); err != nil {
						done <- fmt.Errorf("send to the stalled peer: %w", err)
						return
					}
					if i%everyNth == 0 {
						if err := a.Send(env(self, healthy, fmt.Sprintf("h%04d", i/everyNth))); err != nil {
							done <- fmt.Errorf("send to the healthy peer: %w", err)
							return
						}
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(15 * time.Second):
				t.Fatalf("%d further Sends to the stalled peer did not return", further)
			}
			elapsed := time.Since(start)
			if elapsed >= stallTimeout {
				t.Fatalf("%d further Sends took %v: a sender waited for the stalled peer again", further, elapsed)
			}
			// The slow peer gets what it takes, and only that: what its reads
			// freed meanwhile (twice over, for the socket buffers' slack).
			took := 0
			if tc.every > 0 {
				took = 2 * (int(elapsed/tc.every) + 1)
			}
			if got := int(a.Drops() - before); got > further || got < further-took {
				t.Fatalf("Drops rose by %d over %d Sends to a stalled peer with a full queue that took at most %d", got, further, took)
			}
			for i, e := range recvN(t, b, further/everyNth, 5*time.Second) {
				if want := fmt.Sprintf("h%04d", i); string(e.Body) != want {
					t.Fatalf("healthy peer: envelope %d = %q, want %q", i, e.Body, want)
				}
			}
			if tc.every == 0 {
				return
			}

			// The peer picks up: the writer drains the queue, and once it has
			// caught up the peer is sent to again, a burst going through whole.
			wakeUp.Store(true)
			a.mu.Lock()
			p := a.peers[stalled]
			a.mu.Unlock()
			for deadline := time.Now().Add(15 * time.Second); p.moved.Load() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("a peer that reads again is still marked stalled")
				}
			}
			before = a.Drops()
			for i := 0; i < peerQueueCap/4; i++ {
				if err := a.Send(toStalled()); err != nil {
					t.Fatal(err)
				}
			}
			if got := a.Drops() - before; got != 0 {
				t.Fatalf("%d of %d Sends to a peer that reads again were dropped", got, peerQueueCap/4)
			}
		})
	}
}

// poisonCounter is a recycler that counts what comes back and overwrites
// it: an envelope released while something still has to read it turns to
// 0xDB on the wire.
type poisonCounter struct {
	puts atomic.Int64
}

func (p *poisonCounter) Get(n int) []byte { return make([]byte, 0, n) }

func (p *poisonCounter) Put(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
	p.puts.Add(1)
}

// TestTCPDialInWriter: the peer's writer owns the dial, so Send never waits
// for one. An established peer wins — a destination that connected to us
// first is answered over its connection and never dialed; the first Send to
// a destination whose dial has not completed returns at once and its
// envelope arrives when the dial does; a dial that fails releases what
// queued behind it, counts it in Drops and removes the peer, and a later Send
// dials again.
func TestTCPDialInWriter(t *testing.T) {
	a, b := newTCPPair(t, TCPConfig{Inboxes: 1, Capacity: 64})
	self, peer := types.ReplicaNode(0), types.ReplicaNode(1)
	// Two more names for b's listener, so each part starts without a peer.
	slow, flaky := types.ReplicaNode(2), types.ReplicaNode(3)
	a.SetPeerAddr(slow, b.Addr())
	a.SetPeerAddr(flaky, b.Addr())

	var dials atomic.Int32
	verdict := make(chan error) // every dial waits here for its outcome
	dial := a.dial
	a.dial = func(addr string) (net.Conn, error) {
		dials.Add(1)
		if err := <-verdict; err != nil {
			return nil, err
		}
		return dial(addr)
	}
	bufs := new(poisonCounter)
	pooled := func(to types.NodeID, body string) *types.Envelope {
		buf := append(bufs.Get(len(body)), body...)
		arena := types.NewArena(buf, bufs)
		e := types.AcquireEnvelope()
		e.From, e.To, e.Type, e.Body, e.Auth = self, to, types.MsgPrepare, buf, []byte{1}
		e.Attach(arena)
		arena.Release()
		return e
	}
	send := func(to types.NodeID, body string) {
		t.Helper()
		returned := make(chan error, 1)
		go func() { returned <- a.Send(pooled(to, body)) }()
		select {
		case err := <-returned:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Send(%q) waits for the dial", body)
		}
	}
	expect := func(ep *TCPEndpoint, want string) {
		t.Helper()
		if got := recvN(t, ep, 1, 5*time.Second)[0]; string(got.Body) != want {
			t.Fatalf("received %q, want %q", got.Body, want)
		}
	}

	// b connects first; a answers over b's connection.
	if err := b.Send(env(peer, self, "from-b")); err != nil {
		t.Fatal(err)
	}
	expect(a, "from-b")
	send(peer, "over-b's-connection")
	expect(b, "over-b's-connection")
	if n := dials.Load(); n != 0 {
		t.Fatalf("%d dials to a peer that was already connected", n)
	}

	// The dial is held back: Send has returned, nothing can have arrived.
	send(slow, "first")
	verdict <- nil
	expect(b, "first")

	// The dial fails: the three envelopes behind it come back to the pool
	// (as the two delivered so far have, a moment after they arrived: the
	// writer releases after its write), and since their Sends had returned
	// nil they are counted as dropped.
	released := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); bufs.puts.Load() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d envelopes released, want %d", bufs.puts.Load(), want)
			}
		}
	}
	released(2)
	drops := a.Drops()
	for i := 0; i < 3; i++ {
		send(flaky, fmt.Sprintf("lost%d", i))
	}
	verdict <- errors.New("connection refused")
	released(2 + 3)
	if got := a.Drops() - drops; got != 3 {
		t.Fatalf("Drops rose by %d for 3 envelopes queued behind a failed dial", got)
	}
	send(flaky, "again")
	verdict <- nil
	expect(b, "again")
	if n := dials.Load(); n != 3 {
		t.Fatalf("%d dials, want 3: one held back, one failed, one after the failure", n)
	}
}
