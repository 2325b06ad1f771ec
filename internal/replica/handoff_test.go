package replica

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// The tests in this file (and TestAuthBeforeDecode in tamper_test.go) pin
// what the replica's two removed stages — the verify pool's per-inbox
// forwarders and the output-threads — were there to protect, and what the
// stage list is now that they are gone.

// fifoRecorder stands in for the engine: it checks that each sender's votes
// arrive in the order they were sent.
type fifoRecorder struct {
	consensus.Engine
	t *testing.T
	// last[sender] is the last sequence number seen; only the worker-thread
	// touches it.
	last  [4]types.SeqNum
	steps atomic.Uint64
}

func (e *fifoRecorder) OnMessage(from types.NodeID, msg types.Message, _ *consensus.Out) {
	m := msg.(*types.Prepare)
	cell := &e.last[from.Replica()]
	if m.Seq <= *cell {
		e.t.Errorf("sender %v: seq %d reached the engine after seq %d", from, m.Seq, *cell)
	}
	*cell = m.Seq
	e.steps.Add(1)
}

// TestSenderFIFO: per-sender order survives the input stage with nothing but
// the inbox and the input-thread keeping it. Three senders each send 20 000
// votes with rising sequence numbers, concurrently, into a replica with two
// replica inboxes; every vote reaches OnMessage, and each sender's votes
// reach the one worker-thread in the order sent.
func TestSenderFIFO(t *testing.T) {
	const perSender = 20000
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{31})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInproc()
	to := types.ReplicaNode(0)
	// Two senders share an inbox: it must hold both streams, because the
	// in-process fabric drops what meets a full inbox.
	r, err := New(Config{
		ID: 0, N: 4,
		Directory: dir, Endpoint: net.Endpoint(to, 3, 2*perSender),
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := &fifoRecorder{Engine: r.engine, t: t}
	r.engine = engine
	r.Start()
	defer r.Stop()

	var wg sync.WaitGroup
	for id := types.ReplicaID(1); id <= 3; id++ {
		from := types.ReplicaNode(id)
		ep := net.Endpoint(from, 1, 16)
		defer ep.Close()
		auth := dir.NodeAuth(from)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := types.SeqNum(1); seq <= perSender; seq++ {
				body := types.MarshalBody(&types.Prepare{View: 0, Seq: seq})
				tag, err := auth.Sign(to, types.AuthenticatedBytes(types.MsgPrepare, body))
				if err != nil {
					t.Error(err)
					return
				}
				if err := ep.Send(&types.Envelope{From: from, To: to, Type: types.MsgPrepare, Body: body, Auth: tag}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return engine.steps.Load() == 3*perSender }, "not every vote reached the engine")
	if s := r.Stats(); s.AuthFailures != 0 || s.DecodeFailures != 0 || s.NetDrops != 0 {
		t.Fatalf("auth failures %d, decode failures %d, inbox drops %d", s.AuthFailures, s.DecodeFailures, s.NetDrops)
	}
}

// TestStopWhileSending races Stop against everything that sends without
// being asked to by an inbound message: the watchdog's view-change votes,
// late retransmissions (sendTo and broadcast from goroutines of the test's
// own, as the execute stage and the worker-thread call them), and the read lane's
// replies. Senders hand envelopes straight to the endpoint, so there is no
// queue of the replica's to close under them: the closed endpoint refuses
// the send. No panic, no send on a closed channel (the race detector and the
// runtime would say), and every goroutine the replica and its endpoint
// started is gone afterwards. Every fifth round runs over TCP, where the
// senders race the peer writers' shutdown as well.
func TestStopWhileSending(t *testing.T) {
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{32})
	if err != nil {
		t.Fatal(err)
	}
	self, peer, client := types.ReplicaNode(1), types.ReplicaNode(2), types.ClientNode(7)
	// Endpoints for self (3 inboxes), a peer and a client, connected.
	endpoints := func(tcp bool) (ep, peerEP, clientEP transport.Endpoint) {
		if !tcp {
			net := transport.NewInproc()
			return net.Endpoint(self, 3, 256), net.Endpoint(peer, 1, 256), net.Endpoint(client, 1, 256)
		}
		open := func(node types.NodeID, inboxes int) *transport.TCPEndpoint {
			e, err := transport.NewTCPWithConfig(transport.TCPConfig{Self: node, ListenAddr: "127.0.0.1:0", Inboxes: inboxes, Capacity: 256})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		a, b, c := open(self, 3), open(peer, 1), open(client, 1)
		a.SetPeerAddr(peer, b.Addr())
		c.SetPeerAddr(self, a.Addr())
		if err := c.Hello(self); err != nil {
			t.Fatal(err)
		}
		return a, b, c
	}
	clientAuth := dir.NodeAuth(client)

	base := runtime.NumGoroutine()
	for round := 0; round < 200; round++ {
		ep, peerEP, clientEP := endpoints(round%5 == 0)
		r, err := New(Config{
			ID: 1, N: 4, ViewTimeout: 200 * time.Microsecond, Directory: dir, Endpoint: ep,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		// A client that got no answer from the primary: the watchdog fires
		// on every tick from here on.
		r.pendingHint.Store(true)

		quit := make(chan struct{})
		var senders sync.WaitGroup
		hammer := func(f func(i uint64)) {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for i := uint64(1); ; i++ {
					select {
					case <-quit:
						return
					default:
						f(i)
						runtime.Gosched() // three spinning senders would starve the pipeline they race
					}
				}
			}()
		}
		hammer(func(i uint64) {
			r.sendTo(client, &types.ClientResponse{Client: 7, ClientSeq: i, Replica: 1})
		})
		hammer(func(i uint64) { r.broadcast(&types.Prepare{View: 0, Seq: types.SeqNum(i)}) })
		hammer(func(i uint64) {
			body := types.MarshalBody(&types.ReadRequest{Client: 7, ClientSeq: i, Ops: []types.Op{{Kind: types.OpRead, Key: i}}})
			tag, err := clientAuth.Sign(self, types.AuthenticatedBytes(types.MsgReadRequest, body))
			if err != nil {
				t.Error(err)
				return
			}
			// Fails once the replica's endpoint is gone; that is the point.
			_ = clientEP.Send(&types.Envelope{From: client, To: self, Type: types.MsgReadRequest, Body: body, Auth: tag})
		})

		// Let the senders get going, then stop under them.
		waitFor(t, func() bool { s := r.Stats(); return s.MsgsOut > 0 && s.LocalReads > 0 }, "the senders never got going")
		r.Stop()
		close(quit)
		senders.Wait()
		peerEP.Close()
		clientEP.Close()
		if s := r.Stats(); s.AuthFailures != 0 || s.DecodeFailures != 0 {
			t.Fatalf("round %d: auth failures %d, decode failures %d", round, s.AuthFailures, s.DecodeFailures)
		}
		waitFor(t, func() bool { return runtime.NumGoroutine() <= base }, fmt.Sprintf("round %d: goroutines left behind", round))
	}
}

// goroutineCensus counts the live goroutines that entered through a function
// of this module's replica or crypto package, by entry function.
func goroutineCensus() map[string]int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	census := make(map[string]int)
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(strings.TrimSpace(g), "\n")
		// The entry function is the last frame: two lines (function, file)
		// above "created by", or the last two lines of the main goroutine.
		entry := len(lines) - 2
		for i, l := range lines {
			if strings.HasPrefix(l, "created by ") {
				entry = i - 2
			}
		}
		if entry < 1 {
			continue
		}
		fn := lines[entry]
		if i := strings.LastIndex(fn, "("); i > 0 {
			fn = fn[:i]
		}
		for _, pkg := range []string{"resilientdb/internal/replica.", "resilientdb/internal/crypto."} {
			if strings.HasPrefix(fn, pkg) {
				census[strings.TrimPrefix(fn, "resilientdb/internal/")]++
			}
		}
	}
	return census
}

// TestGoroutineCensus: a started replica runs exactly the documented stage
// list and nothing else. Every goroutine here is a stage with work of its
// own; one that only moves a message from a channel to a channel shows up as
// an unexpected entry, by name. (Before the input-threads verified and the
// stepping threads sent, the default row had five more: two outputLoop and three
// verifyForwardLoop.)
func TestGoroutineCensus(t *testing.T) {
	rows := []struct {
		name string
		cfg  Config
		disk bool
		want map[string]int
	}{
		{
			// Only the required fields: the paper's standard 2B1E replica,
			// what cluster, resdb-node and the benchmark's TCP replicas
			// run.
			name: "default",
			want: map[string]int{
				"replica.(*Replica).inputClientLoop":  1,
				"replica.(*Replica).inputReplicaLoop": 2,
				"replica.(*Replica).readLoop":         2,
				"replica.(*Replica).batchLoop":        2,
				"replica.(*Replica).workerLoop":       1,
				"replica.(*Replica).checkpointLoop":   1,
				"replica.(*Replica).executeLoop":      1,
			},
		},
		{
			// Everything optional on: execute shards over a durable store
			// (its waiter and compactor), the watchdog. WorkerThreads is
			// ignored: four asked for still start one workerLoop.
			name: "W=4 E=2 disk watchdog",
			cfg: Config{BatchThreads: 3, ExecuteThreads: 2, ExecPipelineDepth: 2, WorkerThreads: 4,
				ViewTimeout: time.Hour},
			disk: true,
			want: map[string]int{
				"replica.(*Replica).inputClientLoop":  1,
				"replica.(*Replica).inputReplicaLoop": 2,
				"replica.(*Replica).readLoop":         2,
				"replica.(*Replica).batchLoop":        3,
				"replica.(*Replica).workerLoop":       1,
				"replica.(*Replica).checkpointLoop":   1,
				"replica.(*Replica).executeLoop":      1,
				"replica.(*Replica).execShardLoop":    2,
				"replica.(*Replica).durableWaitLoop":  1,
				"replica.(*Replica).compactLoop":      1,
				"replica.(*Replica).watchdogLoop":     1,
			},
		},
		{
			// The paper's folded configuration: 0B 0E.
			name: "0B 0E",
			cfg:  Config{BatchThreads: -1, ExecuteThreads: -1},
			want: map[string]int{
				"replica.(*Replica).inputClientLoop":  1,
				"replica.(*Replica).inputReplicaLoop": 2,
				"replica.(*Replica).readLoop":         2,
				"replica.(*Replica).workerLoop":       1,
				"replica.(*Replica).checkpointLoop":   1,
			},
		},
	}
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{33})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// What earlier tests left running (their own collectors) is not
			// this replica's.
			before := goroutineCensus()
			census := func() map[string]int {
				got := goroutineCensus()
				for fn, n := range before {
					if got[fn] -= n; got[fn] == 0 {
						delete(got, fn)
					}
				}
				return got
			}
			cfg := row.cfg
			cfg.ID, cfg.N, cfg.Protocol, cfg.Directory = 0, 4, PBFT, dir
			cfg.Endpoint = transport.NewInproc().Endpoint(types.ReplicaNode(0), 3, 16)
			if row.disk {
				disk, err := store.OpenShardedDisk(t.TempDir(), store.ShardedDiskOptions{SyncLinger: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer disk.Close()
				cfg.Store = disk
			}
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			defer r.Stop()
			// A goroutine that has not run yet has no entry frame: look
			// again until every stage is up.
			var diff []string
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				got := census()
				diff = diff[:0]
				for fn, n := range row.want {
					if got[fn] != n {
						diff = append(diff, fmt.Sprintf("%s: %d, want %d", fn, got[fn], n))
					}
				}
				for fn, n := range got {
					if _, ok := row.want[fn]; !ok {
						diff = append(diff, fmt.Sprintf("%s: %d, not in the stage list", fn, n))
					}
				}
				if len(diff) == 0 || time.Now().After(deadline) {
					break
				}
			}
			sort.Strings(diff)
			if len(diff) > 0 {
				t.Fatalf("the replica does not run the documented stage list:\n  %s", strings.Join(diff, "\n  "))
			}
			total := 0
			for _, n := range row.want {
				total += n
			}
			t.Logf("%d goroutines", total)
			r.Stop()
			waitFor(t, func() bool { return len(census()) == 0 }, "goroutines left behind after Stop")
		})
	}
}
