package gateway

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/pool"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// newBareGateway is a gateway's state with no upstream workers: the tests
// below play the upstream themselves, one hand-off at a time.
func newBareGateway(t *testing.T, mod func(*Config)) *Gateway {
	t.Helper()
	cfg := Config{
		N:         4,
		Directory: new(crypto.Directory), // never consulted: nothing signs
		Endpoint:  func(types.ClientID) (transport.Endpoint, error) { return nil, nil },
	}
	if mod != nil {
		mod(&cfg)
	}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	g := newGateway(cfg)
	t.Cleanup(g.Close)
	return g
}

// drain pops everything admitted, as an upstream's collect would.
func drain(g *Gateway) []*pending {
	g.sessMu.Lock()
	defer g.sessMu.Unlock()
	return g.popLocked(nil, g.qLen)
}

// finish completes a drained batch StatusOK at consecutive sequence
// numbers from seq, as an upstream's submit would.
func finish(g *Gateway, batch []*pending, seq uint64) {
	replies := make([]Reply, len(batch))
	for i, p := range batch {
		replies[i] = Reply{Session: p.session, Nonce: p.nonce, Status: StatusOK, Seq: seq + uint64(i)}
	}
	(&upstream{gw: g}).complete(batch, replies)
}

// takeReplies empties a connection's backlog, as its write loop would.
func takeReplies(gc *gwConn) []Reply {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	out := append([]Reply(nil), gc.out...)
	gc.out = gc.out[:0]
	return out
}

// TestGatewayAdmitAllocsPerFrame: reading and admitting a 64-submit frame
// allocates nothing once the frame pool is warm — the frame comes back with
// its submit slice, op slab and pending slab at the capacity the last
// frame grew them to, and its body from the connection's buffers — and
// draining, completing and delivering those 64 in steady state adds none
// (the reply ring is full, the in-flight slices and the connection's
// backlog keep their capacity).
func TestGatewayAdmitAllocsPerFrame(t *testing.T) {
	const submits, runs, window = 64, 50, 8
	g := newBareGateway(t, nil)
	g.lim.dedupWindow = window
	server, client := net.Pipe()
	defer client.Close()
	gc := newConn(g, server)

	// One frame per nonce: the same 64 sessions, each submitting its next
	// transaction. The first window+1 fill every session's reply ring
	// before anything is measured.
	frames := make([][]byte, window+1+runs+1)
	for n := range frames {
		frames[n] = frameBytes(t, submits, func(w *types.Writer) {
			for s := 0; s < submits; s++ {
				appendSubmit(w, &Submit{Session: uint64(s), Nonce: uint64(n + 1), Ops: writeOp(uint64(s), "0123456789abcdef")})
			}
		})
	}
	next := 0
	var rd bytes.Reader
	round := func() {
		rd.Reset(frames[next])
		next++
		f, err := readSessionFrame(&rd, gc.bufs)
		if err != nil {
			t.Fatal(err)
		}
		gc.admit(f)
		f.release()
	}
	batch := make([]*pending, 0, submits)
	replies := make([]Reply, submits)
	u := &upstream{gw: g}
	settle := func() {
		g.sessMu.Lock()
		batch = g.popLocked(batch[:0], submits)
		g.sessMu.Unlock()
		if len(batch) != submits {
			t.Fatalf("admitted %d of %d submits", len(batch), submits)
		}
		for i, p := range batch {
			replies[i] = Reply{Session: p.session, Nonce: p.nonce, Status: StatusOK, Seq: uint64(next)}
		}
		u.complete(batch, replies)
		gc.mu.Lock()
		if len(gc.out) != submits {
			t.Fatalf("%d replies delivered, want %d", len(gc.out), submits)
		}
		gc.out = gc.out[:0]
		gc.mu.Unlock()
	}
	for i := 0; i <= window; i++ {
		round()
		settle()
	}
	admit := testing.AllocsPerRun(runs/2, func() {
		round()
		settle()
	})
	t.Logf("allocations per 64-submit frame, read + admit + complete + deliver: %.0f", admit)
	// Measured 0; 10 when every frame allocated its submits, op slabs and
	// pendings. The cap leaves room for a pooled Reader or Writer the race
	// detector's sync.Pool drops at random.
	if admit > 2 {
		t.Fatalf("a 64-submit frame costs %.0f allocations, want at most 2", admit)
	}
	if st := g.Stats(); st.Accepted != uint64(next*submits) || st.Completed != st.Accepted || st.Sessions != submits {
		t.Fatalf("stats: %+v after %d frames of %d", st, next, submits)
	}
}

// TestGatewayReplyRingWrapAround drives one session's dedup state through
// three laps of its reply ring, at a window of one and of eight: after
// every completion exactly the last min(completed, window) nonces replay
// their own reply, older ones are rejected without executing, the ring
// never holds more than the window and never moves (no reallocation at
// the wrap), and an in-flight nonce's duplicate is absorbed.
func TestGatewayReplyRingWrapAround(t *testing.T) {
	for _, window := range []int{1, 8} {
		g := newBareGateway(t, nil)
		g.lim.dedupWindow = window
		server, client := net.Pipe()
		defer client.Close()
		gc := newConn(g, server)
		const session = 42
		submit := func(nonce uint64) {
			f := submitFrame(Submit{Session: session, Nonce: nonce, Ops: writeOp(nonce, "v")})
			gc.admit(f)
			f.release()
		}
		var ring *Reply
		for nonce := uint64(1); nonce <= uint64(3*window+2); nonce++ {
			submit(nonce)
			submit(nonce) // a duplicate while in flight: absorbed, no second pending
			batch := drain(g)
			if len(batch) != 1 || batch[0].nonce != nonce {
				t.Fatalf("window %d nonce %d: drained %d pendings", window, nonce, len(batch))
			}
			finish(g, batch, 1000+nonce)
			if got := takeReplies(gc); len(got) != 1 || got[0].Nonce != nonce || got[0].Seq != 1000+nonce {
				t.Fatalf("window %d nonce %d: completion delivered %+v", window, nonce, got)
			}

			st := g.sessions[session]
			if len(st.cache) > window || cap(st.cache) != window {
				t.Fatalf("window %d nonce %d: ring holds %d replies in capacity %d", window, nonce, len(st.cache), cap(st.cache))
			}
			if ring == nil {
				ring = &st.cache[0]
			} else if ring != &st.cache[0] {
				t.Fatalf("window %d nonce %d: the ring was reallocated", window, nonce)
			}
			if len(st.inflight) != 0 {
				t.Fatalf("window %d nonce %d: %d nonces still in flight", window, nonce, len(st.inflight))
			}

			// Retry every nonce completed so far, oldest first.
			for old := uint64(1); old <= nonce; old++ {
				submit(old)
			}
			got := takeReplies(gc)
			if len(got) != int(nonce) {
				t.Fatalf("window %d nonce %d: %d retries answered, want %d", window, nonce, len(got), nonce)
			}
			for i, r := range got {
				old := uint64(i + 1)
				cached := nonce-old < uint64(window)
				switch {
				case r.Nonce != old || r.Session != session:
					t.Fatalf("window %d: retry of nonce %d answered %+v", window, old, r)
				case cached && (r.Status != StatusOK || r.Seq != 1000+old):
					t.Fatalf("window %d after %d: nonce %d should replay seq %d, got %+v", window, nonce, old, 1000+old, r)
				case !cached && r.Status != StatusRejected:
					t.Fatalf("window %d after %d: nonce %d fell out of the ring, want rejected, got %+v", window, nonce, old, r)
				}
			}
			if extra := drain(g); len(extra) != 0 {
				t.Fatalf("window %d nonce %d: a retry was admitted for execution", window, nonce)
			}
		}
		total := uint64(3*window + 2)
		if st := g.Stats(); st.Accepted != total || st.Completed != total || st.DupAbsorbed != total {
			t.Fatalf("window %d: stats %+v, want %d accepted, completed and absorbed", window, st, total)
		}
	}
}

// TestGatewaySlowReaderStallsOnlyItself: a connection whose peer stops
// reading absorbs deliveries up to replyBacklog and then stalls the
// deliverer — and only deliveries addressed to it: another connection
// keeps getting its replies. Closing the stuck connection releases the
// stalled deliverer, drops what it held, and lets the gateway shut down.
func TestGatewaySlowReaderStallsOnlyItself(t *testing.T) {
	g := newBareGateway(t, nil)
	stuckServer, stuckClient := net.Pipe() // never read
	liveServer, liveClient := net.Pipe()
	defer liveClient.Close()
	g.ServeConn(stuckServer)
	g.ServeConn(liveServer)
	var stuck, live *gwConn
	g.mu.Lock()
	for gc := range g.conns {
		if gc.c == stuckServer {
			stuck = gc
		} else {
			live = gc
		}
	}
	g.mu.Unlock()

	const group = 256 // an upstream batch's worth per delivery
	const groups = 3 * replyBacklog / group
	delivered := make(chan int, groups)
	go func() {
		defer close(delivered)
		replies := make([]Reply, group)
		for n := 0; n < groups; n++ {
			for i := range replies {
				replies[i] = Reply{Session: 1, Nonce: uint64(n*group + i + 1), Status: StatusOK}
			}
			stuck.deliver(replies)
			delivered <- n
		}
	}()
	backlog := func() int {
		stuck.mu.Lock()
		defer stuck.mu.Unlock()
		return len(stuck.out)
	}
	deadline := time.Now().Add(5 * time.Second)
	for backlog() < replyBacklog {
		if time.Now().After(deadline) {
			t.Fatalf("backlog stopped at %d, below the bound %d", backlog(), replyBacklog)
		}
		time.Sleep(time.Millisecond)
	}
	// The deliverer is parked on the bound (or about to be): three bounds'
	// worth cannot fit while nobody reads. The backlog holds the bound plus
	// at most the group that crossed it; what the write loop took before
	// its Write blocked sits in its 64 KiB buffer, not here.
	if n := backlog(); n > replyBacklog+group {
		t.Fatalf("stuck connection queues %d replies; bound %d, group %d", n, replyBacklog, group)
	}

	// The other connection is untouched.
	live.deliver([]Reply{{Session: 9, Nonce: 1, Status: StatusOK, Seq: 77}})
	ts := &testSession{t: t, c: liveClient, br: bufio.NewReader(liveClient), bufs: new(pool.BytePool)}
	if got := ts.recv(1, 5*time.Second); got[0].Session != 9 || got[0].Seq != 77 {
		t.Fatalf("live connection got %+v", got)
	}
	// ... while the deliverer is still parked: it has not got three
	// bounds' worth into a connection nobody reads.
	for len(delivered) > 0 {
		if n, ok := <-delivered; !ok || n == groups-1 {
			t.Fatal("the deliverer finished against a connection nobody reads")
		}
	}

	// Dropped cleanly: the peer goes away, the stalled deliverer returns
	// (its remaining replies dropped), the connection leaves the table.
	stuckClient.Close()
	released := make(chan struct{})
	go func() {
		for range delivered {
		}
		close(released)
	}()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("closing the stuck connection did not release its deliverer")
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		_, still := g.conns[stuck]
		g.mu.Unlock()
		if !still {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the stuck connection never left the gateway's table")
		}
		time.Sleep(time.Millisecond)
	}
	if n := backlog(); n != 0 {
		t.Fatalf("a closed connection still holds %d replies", n)
	}
	stuck.deliver([]Reply{{Session: 1, Nonce: 1}}) // to a closed connection: dropped, not blocked
}

// TestEdgeCollectTakesLonePending: an upstream takes what is queued and
// goes. A lone submit on an idle gateway comes back from collect in a
// batch of one without parking: nothing would wake a parked collect, since
// no timer is armed and admission leaves a wake-up token only for an
// upstream already parked. With the queue empty, collect parks until an
// admission wakes it, and returns nil once the gateway closes.
func TestEdgeCollectTakesLonePending(t *testing.T) {
	g := newBareGateway(t, func(cfg *Config) { cfg.Batch = 64 })
	server, client := net.Pipe()
	defer client.Close()
	gc := newConn(g, server)
	admit := func(session uint64) {
		t.Helper()
		frame := frameBytes(t, 1, func(w *types.Writer) {
			appendSubmit(w, &Submit{Session: session, Nonce: 1, Ops: writeOp(session, "v")})
		})
		f, err := readSessionFrame(bytes.NewReader(frame), gc.bufs)
		if err != nil {
			t.Fatal(err)
		}
		gc.admit(f)
		f.release()
	}
	waitParked := func() {
		t.Helper()
		for parked := 0; parked == 0; {
			time.Sleep(time.Millisecond)
			g.sessMu.Lock()
			parked = g.parked
			g.sessMu.Unlock()
		}
	}
	u := &upstream{gw: g}

	admit(1)
	batch := u.collect()
	if len(batch) != 1 || batch[0].session != 1 {
		t.Fatalf("collect took %d pendings, want session 1's lone submit", len(batch))
	}
	finish(g, batch, 1)

	got := make(chan []*pending)
	go func() { got <- u.collect() }()
	waitParked()
	admit(2)
	batch = <-got
	if len(batch) != 1 || batch[0].session != 2 {
		t.Fatalf("woken collect took %d pendings, want session 2's submit", len(batch))
	}
	finish(g, batch, 2)

	go func() { got <- u.collect() }()
	waitParked()
	g.Close()
	if batch := <-got; batch != nil {
		t.Fatalf("collect on a closed gateway returned %d pendings, want nil", len(batch))
	}
}
