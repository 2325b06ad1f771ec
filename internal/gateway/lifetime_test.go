package gateway

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// recordingEndpoint keeps a copy of every ClientRequest an upstream sends
// (decoded by copy before the envelope moves on) and, once stalled, drops
// every send, so a request in flight never completes.
type recordingEndpoint struct {
	transport.Endpoint
	mu      *sync.Mutex
	reqs    *[]types.ClientRequest
	stalled *atomic.Bool
}

func (e *recordingEndpoint) Send(env *types.Envelope) error {
	if env.Type == types.MsgClientRequest {
		if msg, err := types.DecodeBody(env.Type, env.Body); err == nil {
			e.mu.Lock()
			*e.reqs = append(*e.reqs, *msg.(*types.ClientRequest))
			e.mu.Unlock()
		}
	}
	if e.stalled.Load() {
		env.Release()
		return nil
	}
	return e.Endpoint.Send(env)
}

// liveTestFrames waits until the frames still held drop to want.
func liveTestFrames(t *testing.T, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); liveFrames.Load() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d session frames still held, want %d", liveFrames.Load(), want)
		}
	}
}

// TestFrameLifetimePoisoned drives a gateway with every session frame
// poisoned at its last release (and every lent message of the types
// package with it) through duplicates in flight, replays of completed
// nonces, busy pushback, reads, a reconnect and a Close with admitted work
// in flight and queued. A holder that read a frame's submits, ops or
// pendings past the frame's release would see 0xDB; instead every reply
// answers its own submit, every upstream request carries exactly the ops
// the sessions sent, and every frame is released once the gateway closes.
func TestFrameLifetimePoisoned(t *testing.T) {
	types.SetPoisonLent(true)
	defer types.SetPoisonLent(false)
	base := liveFrames.Load()

	c := newTestCluster(t)
	var (
		mu      sync.Mutex
		reqs    []types.ClientRequest
		stalled atomic.Bool
	)
	g := newTestGateway(t, c, func(cfg *Config) {
		cfg.Upstreams = 1
		cfg.Endpoint = func(id types.ClientID) (transport.Endpoint, error) {
			return &recordingEndpoint{Endpoint: c.AttachClient(id, 1<<10), mu: &mu, reqs: &reqs, stalled: &stalled}, nil
		}
	})
	ts := dialSession(t, g)

	// What each (session, nonce) submitted: its key and value are its own.
	key := func(session, nonce uint64) uint64 { return session*16 + nonce }
	val := func(session, nonce uint64) string { return fmt.Sprintf("s%d-n%d", session, nonce) }
	write := func(session, nonce uint64) Submit {
		return Submit{Session: session, Nonce: nonce, Ops: writeOp(key(session, nonce), val(session, nonce))}
	}
	check := func(replies []Reply, status Status, want map[[2]uint64]bool) map[[2]uint64]Reply {
		t.Helper()
		got := make(map[[2]uint64]Reply)
		for _, r := range replies {
			id := [2]uint64{r.Session, r.Nonce}
			if !want[id] {
				t.Fatalf("reply %+v answers no submit", r)
			}
			if _, dup := got[id]; dup {
				t.Fatalf("session %d nonce %d answered twice", r.Session, r.Nonce)
			}
			if r.Status != status {
				t.Fatalf("session %d nonce %d: status %v, want %v", r.Session, r.Nonce, r.Status, status)
			}
			got[id] = r
		}
		return got
	}

	// Eight sessions in one frame, each submitted twice more while in
	// flight (the first send is dropped, so the request waits out a
	// retransmission): one reply each, the duplicates absorbed.
	const sessions = 8
	first := make(map[[2]uint64]bool)
	var subs []Submit
	for s := uint64(1); s <= sessions; s++ {
		subs = append(subs, write(s, 1))
		first[[2]uint64{s, 1}] = true
	}
	stalled.Store(true)
	ts.send(append(subs, subs...)...)
	ts.send(subs...)
	for deadline := time.Now().Add(5 * time.Second); g.Stats().DupAbsorbed < 2*sessions; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v: duplicates in flight not absorbed", g.Stats())
		}
	}
	stalled.Store(false)
	done := check(ts.recv(sessions, 5*time.Second), StatusOK, first)

	// Replays of completed nonces come from the dedup ring, seq for seq.
	ts.send(subs...)
	for id, r := range check(ts.recv(sessions, 5*time.Second), StatusOK, first) {
		if r.Seq != done[id].Seq {
			t.Fatalf("session %d: replayed seq %d, want %d", id[0], r.Seq, done[id].Seq)
		}
	}

	// Busy pushback answers from the frame it arrived in, then admission
	// recovers.
	g.noteBusy(255)
	second := make(map[[2]uint64]bool)
	subs = subs[:0]
	for s := uint64(1); s <= sessions; s++ {
		subs = append(subs, write(s, 2))
		second[[2]uint64{s, 2}] = true
	}
	ts.send(subs...)
	check(ts.recv(sessions, 5*time.Second), StatusBusy, second)
	g.noteBusy(0)
	ts.send(subs...)
	check(ts.recv(sessions, 5*time.Second), StatusOK, second)

	// Reads of what the first round wrote.
	reads := make(map[[2]uint64]bool)
	subs = subs[:0]
	for s := uint64(1); s <= sessions; s++ {
		subs = append(subs, Submit{Session: s, Nonce: 3, Ops: []types.Op{{Kind: types.OpRead, Key: key(s, 1)}}})
		reads[[2]uint64{s, 3}] = true
	}
	ts.send(subs...)
	for id, r := range check(ts.recv(sessions, 5*time.Second), StatusOK, reads) {
		if len(r.Reads) != 1 || !r.Reads[0].Found || string(r.Reads[0].Value) != val(id[0], 1) {
			t.Fatalf("session %d read %+v, want %q", id[0], r.Reads, val(id[0], 1))
		}
	}

	// A reconnect: the replay and a fresh nonce both answer on the new pipe.
	ts.c.Close()
	ts = dialSession(t, g)
	ts.send(write(1, 1), write(1, 4))
	check(ts.recv(2, 5*time.Second), StatusOK, map[[2]uint64]bool{{1, 1}: true, {1, 4}: true})

	// Every request the upstream sent carries ops some submit sent.
	sent := make(map[uint64]string)
	for s := uint64(1); s <= sessions; s++ {
		for n := uint64(1); n <= 4; n++ {
			sent[key(s, n)] = val(s, n)
		}
	}
	mu.Lock()
	for _, req := range reqs {
		for _, txn := range req.Txns {
			for _, op := range txn.Ops {
				if op.Kind == types.OpRead {
					if v, ok := sent[op.Key]; !ok || v == "" {
						t.Fatalf("upstream read key %#x no session asked for", op.Key)
					}
					continue
				}
				if v, ok := sent[op.Key]; !ok || v != string(op.Value) {
					t.Fatalf("upstream wrote %#x = %q, no session sent it", op.Key, op.Value)
				}
			}
		}
	}
	requests := len(reqs)
	mu.Unlock()
	if requests < 4 {
		t.Fatalf("%d upstream requests recorded, want one a round at least", requests)
	}

	// Close with work admitted: the upstream's request never completes and
	// a second frame waits in the queue behind it.
	stalled.Store(true)
	before := g.Stats()
	ts.send(write(2, 4))
	for deadline := time.Now().Add(5 * time.Second); g.Stats().Requests == before.Requests; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled request was never sent")
		}
	}
	ts.send(write(3, 4))
	for deadline := time.Now().Add(5 * time.Second); g.Stats().Accepted < before.Accepted+2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v: the queued submit was never admitted", g.Stats())
		}
	}
	g.Close()
	ts.c.Close()
	liveTestFrames(t, base)
}

// TestReplayedReadSurvivesRecycledResponses: a read reply's results are
// lent by the upstream's client link only until its next response, and
// the reply sits in the session's dedup ring far longer. With lent memory
// poisoned on reuse, a retry after later responses have recycled the link's
// message still replays the first reply byte for byte.
func TestReplayedReadSurvivesRecycledResponses(t *testing.T) {
	types.SetPoisonLent(true)
	defer types.SetPoisonLent(false)
	c := newTestCluster(t)
	g := newTestGateway(t, c, func(cfg *Config) { cfg.Upstreams = 1 })
	ts := dialSession(t, g)

	for k := uint64(0); k < 4; k++ {
		ts.send(Submit{Session: 1, Nonce: k + 1, Ops: writeOp(100+k, fmt.Sprintf("value-%d", k))})
		if r := ts.recv(1, 5*time.Second)[0]; r.Status != StatusOK {
			t.Fatalf("write %d: %+v", k, r)
		}
	}
	readAt := func(nonce, k uint64) Reply {
		t.Helper()
		ts.send(Submit{Session: 2, Nonce: nonce, Ops: []types.Op{
			{Kind: types.OpRead, Key: 100 + k},
			{Kind: types.OpScan, Key: 100, EndKey: 100 + k, Limit: 4},
		}})
		r := ts.recv(1, 5*time.Second)[0]
		if r.Status != StatusOK || len(r.Reads) != 2 {
			t.Fatalf("read of key %d: %+v", 100+k, r)
		}
		return r
	}
	encode := func(r Reply) []byte {
		var w types.Writer
		appendReply(&w, &r)
		return w.Bytes()
	}
	want := encode(readAt(1, 0))
	for k := uint64(1); k < 4; k++ {
		readAt(k+1, k) // the link's message now holds another response
	}
	ts.send(Submit{Session: 2, Nonce: 1, Ops: []types.Op{{Kind: types.OpRead, Key: 100}}})
	if got := encode(ts.recv(1, 5*time.Second)[0]); !bytes.Equal(got, want) {
		t.Fatalf("replayed read reply\n  %x\nwant\n  %x", got, want)
	}
	if st := g.Stats(); st.DupReplayed != 1 {
		t.Fatalf("stats: %+v, want DupReplayed=1", st)
	}
}

// TestOversizedFrameNotPooled: a frame whose submits outgrew what a frame
// of maxFrameMessages needs goes to the collector at its last release,
// while a full-size frame goes back to the pool.
func TestOversizedFrameNotPooled(t *testing.T) {
	g := newBareGateway(t, nil)
	bufs := newConn(g, nil).bufs
	read := func(submits int) *sessionFrame {
		t.Helper()
		raw := frameBytes(t, submits, func(w *types.Writer) {
			for s := 0; s < submits; s++ {
				appendSubmit(w, &Submit{Session: uint64(s), Nonce: 1, Ops: writeOp(uint64(s), "v")})
			}
		})
		f, err := readSessionFrame(bytes.NewReader(raw), bufs)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// pooled releases f's last reference into an empty pool and reports
	// whether f went back to it.
	pooled := func(f *sessionFrame) bool {
		for len(framePool) > 0 {
			<-framePool
		}
		f.release()
		return len(framePool) == 1 && <-framePool == f
	}
	for _, tt := range []struct {
		submits int
		pooled  bool
	}{{maxFrameMessages, true}, {maxFrameMessages + 1, false}} {
		f := read(tt.submits)
		if len(f.Submits) != tt.submits {
			t.Fatalf("decoded %d of %d submits", len(f.Submits), tt.submits)
		}
		if got := pooled(f); got != tt.pooled {
			t.Fatalf("a frame of %d submits: pooled %v, want %v", tt.submits, got, tt.pooled)
		}
	}

	// An op slab past maxPooledOps keeps even a frame of few submits out.
	raw := frameBytes(t, 1, func(w *types.Writer) {
		ops := make([]types.Op, maxPooledOps+1)
		for i := range ops {
			ops[i] = types.Op{Key: uint64(i)}
		}
		appendSubmit(w, &Submit{Session: 1, Nonce: 1, Ops: ops})
	})
	f, err := readSessionFrame(bytes.NewReader(raw), bufs)
	if err != nil {
		t.Fatal(err)
	}
	if pooled(f) {
		t.Fatalf("a frame holding %d ops went back to the pool", maxPooledOps+1)
	}
}
