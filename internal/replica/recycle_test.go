package replica

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// poison is the byte a poisonBuffers buffer holds whenever nobody owns it.
const poison = 0xDB

// poisonBuffers is a recycler that makes a use-after-recycle certain rather
// than likely: every buffer is overwritten with poison on Put, is handed
// out again by the very next Get it fits (LIFO), and a fresh one is
// poisoned before anybody sees it. A message that still aliases a buffer
// after its last Release reads 0xDB at once, and then the next borrower's
// bytes.
type poisonBuffers struct {
	mu           sync.Mutex
	free         [][]byte
	hits, misses uint64
}

func (p *poisonBuffers) Get(n int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if b := p.free[i]; cap(b) >= n {
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.hits++
			return b[:0]
		}
	}
	p.misses++
	size := 256
	for size < n {
		size *= 2
	}
	b := make([]byte, size)
	for i := range b {
		b[i] = poison
	}
	return b[:0]
}

func (p *poisonBuffers) Put(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = poison
	}
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

func (p *poisonBuffers) Stats() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// recycleCluster is four PBFT replicas under the deployed crypto (CMAC
// between replicas, ED25519 client signatures) whose every pooled buffer —
// inbound TCP frames, outbound encode arenas, the client's encode arenas —
// comes from one poisonBuffers.
type recycleCluster struct {
	replicas []*Replica
	client   transport.Endpoint
	dir      *crypto.Directory
	auth     crypto.Authenticator
	bufs     *poisonBuffers
}

const recycleClient = types.ClientID(0)

// recycleShape is what a test varies in a recycleCluster: block linkage,
// checkpoint interval, and a wrapper around each replica's endpoint.
type recycleShape struct {
	ledger   ledger.Mode
	interval uint64
	wrap     func(id int, ep transport.Endpoint) transport.Endpoint
}

func newRecycleCluster(t *testing.T, tcp bool, execThreads int) *recycleCluster {
	return newShapedRecycleCluster(t, tcp, execThreads, recycleShape{ledger: ledger.HashChain, interval: 4})
}

func newShapedRecycleCluster(t *testing.T, tcp bool, execThreads int, shape recycleShape) *recycleCluster {
	t.Helper()
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{18})
	if err != nil {
		t.Fatal(err)
	}
	c := &recycleCluster{dir: dir, bufs: &poisonBuffers{}, auth: dir.NodeAuth(types.ClientNode(recycleClient))}
	eps := make([]transport.Endpoint, 4)
	if tcp {
		tcps := make([]*transport.TCPEndpoint, 5)
		for i := range tcps {
			self := types.ClientNode(recycleClient)
			if i < 4 {
				self = types.ReplicaNode(types.ReplicaID(i))
			}
			ep, err := transport.NewTCPWithConfig(transport.TCPConfig{
				Self: self, ListenAddr: "127.0.0.1:0", Inboxes: 3, Capacity: 1 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ep.Close() })
			ep.SetFrameBuffers(c.bufs)
			tcps[i] = ep
		}
		for _, ep := range tcps {
			for i, peer := range tcps[:4] {
				ep.SetPeerAddr(types.ReplicaNode(types.ReplicaID(i)), peer.Addr())
			}
		}
		for i := range eps {
			eps[i] = tcps[i]
		}
		c.client = tcps[4]
	} else {
		net := transport.NewInproc()
		for i := range eps {
			eps[i] = net.Endpoint(types.ReplicaNode(types.ReplicaID(i)), 3, 1<<10)
		}
		c.client = net.Endpoint(types.ClientNode(recycleClient), 3, 1<<10)
	}
	for i, ep := range eps {
		if shape.wrap != nil {
			ep = shape.wrap(i, ep)
		}
		st := store.NewMemStore(shardTestRecords)
		preloadEven(t, st)
		r, err := New(Config{
			ID:                 types.ReplicaID(i),
			N:                  4,
			Protocol:           PBFT,
			BatchSize:          64,
			BatchThreads:       1, // one drain order, so send order is batch order
			ExecuteThreads:     execThreads,
			CheckpointInterval: shape.interval,
			LedgerMode:         shape.ledger,
			Store:              st,
			Directory:          dir,
			Endpoint:           ep,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.encBufs = c.bufs
		c.replicas = append(c.replicas, r)
	}
	for _, r := range c.replicas {
		r.Start()
		t.Cleanup(r.Stop)
	}
	return c
}

// submit signs req and sends it to primary the way the client link does:
// marshalled into a pooled arena the envelope carries.
func (c *recycleCluster) submit(t *testing.T, primary types.NodeID, req *types.ClientRequest) {
	t.Helper()
	sig, err := c.auth.Sign(primary, req.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	req.Sig = sig
	body, arena := types.MarshalBodyArena(req, c.bufs, 0)
	mac, err := c.auth.Sign(primary, body)
	if err != nil {
		t.Fatal(err)
	}
	env := types.AcquireEnvelope()
	env.From, env.To, env.Type = types.ClientNode(recycleClient), primary, types.MsgClientRequest
	env.Body, env.Auth = body, mac
	env.Attach(arena)
	arena.Release()
	if err := c.client.Send(env); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledBuffersNeverReachARequest runs real consensus over buffers
// that are poisoned the moment their last reference drops. The replicas
// decode every proposal in place, so a request lives on in the frame (or,
// in process, the sender's encode arena) it arrived in: through the batch
// stage's signature check, the engine's log, the in-order execute queue
// and, on a slow replica, past the stable checkpoint that pruned its
// instance. If either decode site failed to take that buffer out of its
// pool, the request would turn to 0xDB under one of them, and the run
// would stall on a bad signature or digest, or diverge from the model.
// What is lent rather than pooled — an envelope's authenticator, a decoded
// vote — is poisoned when given back, too.
func TestRecycledBuffersNeverReachARequest(t *testing.T) {
	for _, fabric := range []string{"tcp", "inproc"} {
		for _, e := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/E=%d", fabric, e), func(t *testing.T) {
				testRecycledBuffers(t, fabric == "tcp", e)
			})
		}
	}
}

func testRecycledBuffers(t *testing.T, tcp bool, execThreads int) {
	const (
		windows = 16 // closed-loop rounds
		window  = 3  // requests in flight per round, so batches carry 1-3
		burst   = 4  // transactions per request
	)
	poisonLent(t)
	c := newRecycleCluster(t, tcp, execThreads)
	wl, err := workload.New(workload.Config{
		Records:      shardTestRecords,
		OpsPerTxn:    4,
		ValueSize:    64,
		Distribution: workload.Zipf,
		Seed:         18,
		ReadFraction: 0.3,
		ScanFraction: 0.1,
		ScanLength:   8,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tcp {
		// Replicas answer over the connection the client dialled.
		for i := 0; i < 4; i++ {
			if err := c.client.(*transport.TCPEndpoint).Hello(types.ReplicaNode(types.ReplicaID(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	replies := make(chan *types.Envelope, 64)
	for i := 0; i < c.client.Inboxes(); i++ {
		go func(inbox <-chan *types.Envelope) {
			for env := range inbox {
				replies <- env
			}
		}(c.client.Inbox(i))
	}

	// Every reply of every replica, rendered; and which batch each request
	// landed in, which with the single drain order rebuilds the history.
	type reply struct {
		replica  types.ReplicaID
		rendered string
	}
	got := make(map[respFingerprint][]reply)
	batchOf := make(map[types.SeqNum][]types.ClientRequest)
	var lastSeq types.SeqNum
	next := uint64(1)
	for w := 0; w < windows; w++ {
		sent := make(map[uint64]types.ClientRequest, window)
		var order []uint64
		for i := 0; i < window; i++ {
			req := wl.NextRequest(recycleClient, next, burst)
			c.submit(t, types.ReplicaNode(0), &req)
			sent[req.FirstSeq] = req
			order = append(order, req.FirstSeq)
			next += burst
		}
		seqOf := make(map[uint64]types.SeqNum, window)
		deadline := time.After(10 * time.Second)
		for pending := 4 * window; pending > 0; {
			select {
			case env := <-replies:
				if err := c.auth.Verify(env.From, env.Body, env.Auth); err != nil {
					t.Fatalf("reply from %v failed authentication: %v", env.From, err)
				}
				msg, err := types.DecodeBody(env.Type, env.Body)
				env.Release()
				if err != nil {
					t.Fatal(err)
				}
				resp, ok := msg.(*types.ClientResponse)
				if !ok {
					continue
				}
				if _, mine := sent[resp.ClientSeq]; !mine {
					t.Fatalf("reply for request %d, which this round did not send", resp.ClientSeq)
				}
				if prev, seen := seqOf[resp.ClientSeq]; seen && prev != resp.Seq {
					t.Fatalf("request %d ordered at both %d and %d", resp.ClientSeq, prev, resp.Seq)
				}
				seqOf[resp.ClientSeq] = resp.Seq
				key := respFingerprint{client: resp.Client, clientSeq: resp.ClientSeq, seq: resp.Seq}
				got[key] = append(got[key], reply{resp.Replica, renderResponse(resp.Result, resp.ReadResults)})
				pending--
			case <-deadline:
				t.Fatalf("round %d: %d replies missing; auth failures per replica %v", w, pending, c.authFailures())
			}
		}
		for _, first := range order {
			seq := seqOf[first]
			batchOf[seq] = append(batchOf[seq], sent[first])
			if seq > lastSeq {
				lastSeq = seq
			}
		}
	}

	var acts []consensus.Execute
	for seq := types.SeqNum(1); seq <= lastSeq; seq++ {
		reqs, ok := batchOf[seq]
		if !ok {
			t.Fatalf("no request was answered at sequence %d of %d", seq, lastSeq)
		}
		acts = append(acts, consensus.Execute{Seq: seq, Digest: types.BatchDigest(reqs), Requests: reqs})
	}
	model := newExecModel()
	model.preloadEven()
	want := make(map[respFingerprint]string)
	for _, act := range acts {
		model.execute(act, want)
	}
	if len(got) != len(want) {
		t.Fatalf("clients saw %d distinct responses, the model produced %d", len(got), len(want))
	}
	for key, w := range want {
		if len(got[key]) != 4 {
			t.Fatalf("response %+v came from %d replicas, want 4", key, len(got[key]))
		}
		for _, g := range got[key] {
			if g.rendered != w {
				t.Fatalf("replica %d's response %+v diverged from the model:\ngot:   %s\nmodel: %s", g.replica, key, g.rendered, w)
			}
		}
	}

	wantStore := digestRecords(t, model.get)
	for i, r := range c.replicas {
		waitBatches(t, r, uint64(lastSeq))
		s := r.Stats()
		if s.AuthFailures != 0 || s.DecodeFailures != 0 || s.StoreWriteFailures != 0 {
			t.Fatalf("replica %d: %d auth, %d decode, %d store failures on a healthy run", i, s.AuthFailures, s.DecodeFailures, s.StoreWriteFailures)
		}
		if got := storeDigest(t, r.Store()); got != wantStore {
			t.Fatalf("replica %d's store diverged from the model: %x vs %x", i, got[:8], wantStore[:8])
		}
		if err := r.Ledger().Validate(); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		// Every retained block holds the digest of the batch as it was sent,
		// signatures included: what was committed is what the client wrote.
		for _, b := range r.Ledger().Blocks() {
			if b.Seq == 0 {
				continue
			}
			if act := acts[b.Seq-1]; b.Digest != act.Digest {
				t.Fatalf("replica %d committed %x at sequence %d, the client sent %x", i, b.Digest[:8], b.Seq, act.Digest[:8])
			}
		}
		if err := ledger.VerifyChainEquality(c.replicas[0].Ledger(), r.Ledger()); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
	// Stable checkpoints are what prune the engines' logs; the run has to
	// cross several for "pruned while still queued" to have had its chance.
	deadline := time.Now().Add(5 * time.Second)
	for c.replicas[0].Stats().Checkpoints < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d stable checkpoints after %d batches, want at least 3", c.replicas[0].Stats().Checkpoints, lastSeq)
		}
		time.Sleep(time.Millisecond)
	}
	hits, misses := c.bufs.Stats()
	if hits == 0 {
		t.Fatalf("no buffer was ever recycled (%d allocated): the run proved nothing", misses)
	}
	t.Logf("%d batches, %d stable checkpoints, buffers: %d recycled, %d allocated", lastSeq, c.replicas[0].Stats().Checkpoints, hits, misses)
}

// poisonLent has types poison what it lends — an envelope's authenticator
// on release, a vote when it is given back — for the rest of the test.
func poisonLent(t *testing.T) {
	types.SetPoisonLent(true)
	t.Cleanup(func() { types.SetPoisonLent(false) })
}

func (c *recycleCluster) authFailures() []uint64 {
	var out []uint64
	for _, r := range c.replicas {
		out = append(out, r.Stats().AuthFailures)
	}
	return out
}
