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

// readMixBatches builds a deterministic committed-batch history over a
// mixed read–write Zipfian workload (workload A, 50% reads), with one
// request duplicated across batches so dedup skips its reads — and with
// them its result slots — identically under every execution mode.
func readMixBatches(t *testing.T, batches int) []consensus.Execute {
	t.Helper()
	wcfg := workload.Config{
		Records:      shardTestRecords,
		OpsPerTxn:    4,
		ValueSize:    64,
		Distribution: workload.Zipf,
		Seed:         7,
		ReadFraction: 0.5,
	}
	const clients = 4
	wls := make([]*workload.Workload, clients)
	for c := range wls {
		wl, err := workload.New(wcfg, int64(c))
		if err != nil {
			t.Fatal(err)
		}
		wls[c] = wl
	}
	var dup types.ClientRequest
	acts := make([]consensus.Execute, batches)
	for b := 0; b < batches; b++ {
		reqs := make([]types.ClientRequest, 0, clients+1)
		for c := 0; c < clients; c++ {
			reqs = append(reqs, wls[c].NextRequest(types.ClientID(c), uint64(b*2+1), 2))
		}
		if b == 1 {
			dup = reqs[0]
		}
		if b == 2 {
			reqs = append(reqs, dup)
		}
		acts[b] = consensus.Execute{
			Seq:      types.SeqNum(b + 1),
			Digest:   types.BatchDigest(reqs),
			Requests: reqs,
		}
	}
	return acts
}

// newReadMixReplica builds a backup replica plus client endpoints on the
// same in-process network, so the test can capture the per-request
// responses (result digests and read results) execution produces.
func newReadMixReplica(t *testing.T, execThreads, depth, clients int, st store.Store) (*Replica, []transport.Endpoint) {
	t.Helper()
	dir, err := crypto.NewDirectory(crypto.NoSig(), [32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInproc()
	eps := make([]transport.Endpoint, clients)
	for c := 0; c < clients; c++ {
		eps[c] = net.Endpoint(types.ClientNode(types.ClientID(c)), 1, 1<<10)
	}
	r, err := New(Config{
		ID:                 1,
		N:                  4,
		Protocol:           PBFT,
		ExecuteThreads:     execThreads,
		ExecPipelineDepth:  depth,
		CheckpointInterval: 8,
		LedgerMode:         ledger.HashChain,
		Store:              st,
		Directory:          dir,
		Endpoint:           net.Endpoint(types.ReplicaNode(1), 3, 1<<10),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Stop)
	return r, eps
}

// respFingerprint is one response's comparable identity: which request it
// answers, at which sequence, with which result digest and read values.
type respFingerprint struct {
	client    types.ClientID
	clientSeq uint64
	seq       types.SeqNum
}

// renderResponse is the canonical string of one response: the result digest
// and every read result byte, scan rows included.
func renderResponse(result types.Digest, reads []types.ReadResult) string {
	val := fmt.Sprintf("result=%x reads=", result)
	for _, rr := range reads {
		if rr.Scan {
			val += "[scan"
			for _, row := range rr.Rows {
				val += fmt.Sprintf("(%d,%x)", row.Key, row.Value)
			}
			val += "]"
			continue
		}
		val += fmt.Sprintf("(%v,%x)", rr.Found, rr.Value)
	}
	return val
}

// collectResponses drains want client responses from the endpoints and
// renders each into a canonical string covering the result digest and
// every read result byte.
func collectResponses(t *testing.T, eps []transport.Endpoint, want int) map[respFingerprint]string {
	t.Helper()
	merged := make(chan *types.Envelope, 4*want)
	for _, ep := range eps {
		go func(inbox <-chan *types.Envelope) {
			for env := range inbox {
				merged <- env
			}
		}(ep.Inbox(0))
	}
	got := make(map[respFingerprint]string, want)
	deadline := time.After(5 * time.Second)
	for len(got) < want {
		select {
		case env := <-merged:
			if env.Type != types.MsgClientResponse {
				continue
			}
			msg, err := types.DecodeBody(env.Type, env.Body)
			if err != nil {
				t.Fatal(err)
			}
			resp := msg.(*types.ClientResponse)
			key := respFingerprint{client: resp.Client, clientSeq: resp.ClientSeq, seq: resp.Seq}
			val := renderResponse(resp.Result, resp.ReadResults)
			if prev, ok := got[key]; ok && prev != val {
				t.Fatalf("replica answered %v twice with different results:\n%s\n%s", key, prev, val)
			}
			got[key] = val
		case <-deadline:
			t.Fatalf("collected %d/%d responses before timeout", len(got), want)
		}
	}
	return got
}

// TestLocalReadClientBinding: a ReadRequest whose Client field does not
// match the authenticated sender must be dropped as an auth failure. The
// authenticated ReadReply goes to the *claimed* client and ClientSeq
// values are guessable, so without the binding a malicious client could
// plant answers for attacker-chosen keys in a victim's pending read.
func TestLocalReadClientBinding(t *testing.T) {
	mem := store.NewMemStore(1 << 10)
	if err := mem.Put(7, []byte("v7")); err != nil {
		t.Fatal(err)
	}
	r, eps := newReadMixReplica(t, 1, 1, 2, mem)

	send := func(from types.ClientID, req *types.ReadRequest) {
		env := &types.Envelope{
			From: types.ClientNode(from),
			To:   types.ReplicaNode(1),
			Type: types.MsgReadRequest,
			Body: types.MarshalBody(req),
		}
		if err := eps[int(from)].Send(env); err != nil {
			t.Fatal(err)
		}
	}

	// Client 1 claims to be client 0; the replica must not answer.
	send(1, &types.ReadRequest{Client: 0, ClientSeq: 9, Keys: []uint64{7}})
	// A well-formed request from the same sender is still served — the
	// reply proves the read lane is alive and the forged request ahead of
	// it in the inbox was discarded, not deferred.
	send(1, &types.ReadRequest{Client: 1, ClientSeq: 10, Keys: []uint64{7}})

	deadline := time.After(5 * time.Second)
	for {
		select {
		case env := <-eps[1].Inbox(0):
			if env.Type != types.MsgReadReply {
				continue
			}
			msg, err := types.DecodeBody(env.Type, env.Body)
			if err != nil {
				t.Fatal(err)
			}
			reply := msg.(*types.ReadReply)
			if reply.ClientSeq != 10 {
				t.Fatalf("reply answers ClientSeq %d, want 10", reply.ClientSeq)
			}
			if len(reply.Results) != 1 || !reply.Results[0].Found || string(reply.Results[0].Value) != "v7" {
				t.Fatalf("bad read results: %+v", reply.Results)
			}
			s := r.Stats()
			if s.AuthFailures == 0 {
				t.Fatal("forged ReadRequest not counted as an auth failure")
			}
			if s.LocalReads != 1 {
				t.Fatalf("LocalReads = %d, want 1 (the forged request must not be served)", s.LocalReads)
			}
			// The victim must have received nothing.
			select {
			case env := <-eps[0].Inbox(0):
				t.Fatalf("victim client received %v", env.Type)
			default:
			}
			return
		case <-deadline:
			t.Fatal("legitimate ReadRequest never answered")
		}
	}
}

// TestLocalReadStalenessBound: a ReadRequest whose MinSeq exceeds the
// replica's last-retired sequence must come back as a refusal — a reply
// with no results whose Seq stamp reports how far the replica actually
// got — while a request within the bound is served, scans included.
func TestLocalReadStalenessBound(t *testing.T) {
	mem := store.NewMemStore(1 << 10)
	for k := uint64(5); k < 10; k++ {
		if err := mem.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	_, eps := newReadMixReplica(t, 1, 1, 1, mem)

	send := func(cseq uint64, minSeq types.SeqNum) {
		req := &types.ReadRequest{
			Client: 0, ClientSeq: cseq,
			Keys:   []uint64{7},
			MinSeq: minSeq,
			Scans:  []types.Op{{Kind: types.OpScan, Key: 5, EndKey: 9, Limit: 3}},
		}
		env := &types.Envelope{
			From: types.ClientNode(0),
			To:   types.ReplicaNode(1),
			Type: types.MsgReadRequest,
			Body: types.MarshalBody(req),
		}
		if err := eps[0].Send(env); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() *types.ReadReply {
		deadline := time.After(5 * time.Second)
		for {
			select {
			case env := <-eps[0].Inbox(0):
				if env.Type != types.MsgReadReply {
					continue
				}
				msg, err := types.DecodeBody(env.Type, env.Body)
				if err != nil {
					t.Fatal(err)
				}
				return msg.(*types.ReadReply)
			case <-deadline:
				t.Fatal("no ReadReply before timeout")
			}
		}
	}

	// Nothing retired yet: a bound of 3 must be refused with Seq 0.
	send(1, 3)
	reply := recv()
	if reply.ClientSeq != 1 || len(reply.Results) != 0 {
		t.Fatalf("stale request was served: %+v", reply)
	}
	if reply.Seq != 0 {
		t.Fatalf("refusal stamps Seq %d, want 0", reply.Seq)
	}

	// Within the bound: both the point read and the scan are answered.
	send(2, 0)
	reply = recv()
	if reply.ClientSeq != 2 || len(reply.Results) != 2 {
		t.Fatalf("in-bound request not served: %+v", reply)
	}
	if !reply.Results[0].Found || len(reply.Results[0].Value) != 1 || reply.Results[0].Value[0] != 7 {
		t.Fatalf("bad point result: %+v", reply.Results[0])
	}
	sc := reply.Results[1]
	if !sc.Scan || len(sc.Rows) != 3 || sc.Rows[0].Key != 5 || sc.Rows[2].Key != 7 {
		t.Fatalf("bad scan result: %+v", sc)
	}
}

// commitOnLanes hands committed batches to r's execute stage the way four
// worker lanes do: batch seq commits on lane seq mod 4, each lane calling
// handleActions on its own goroutine. Batches reach the in-order queue out
// of order, and at 0E the lanes race to execute from it.
func commitOnLanes(r *Replica, acts []consensus.Execute) {
	const lanes = 4
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out consensus.Out
			for i := lane; i < len(acts); i += lanes {
				out.Execute(acts[i])
				r.handleActions(&out)
			}
		}()
	}
	wg.Wait()
}

// TestReadMixDeterminism is the acceptance check for conflict-ordered
// read–write execution: a mixed Zipfian workload run under E execution
// shards (diskShards) with pipeline depth 3, and with execution folded into
// the committing lane (E=-1, the paper's 0E), over the group-commit disk
// store must produce ledger digests, checkpoint chains, store state, AND
// per-request read results byte-identical to E=1 serial execution over a
// MemStore, and so to each other. The per-shard FIFO plus
// write-flush-before-read is what makes a read observe exactly the writes
// sequenced before it.
func TestReadMixDeterminism(t *testing.T) {
	const batches = 32
	const clients = 4
	acts := readMixBatches(t, batches)
	// 4 requests per batch plus the one duplicate re-delivery.
	wantResponses := batches*clients + 1

	mem := store.NewMemStore(shardTestRecords)
	preloadEven(t, mem)
	serial, serialEPs := newReadMixReplica(t, 1, 1, clients, mem)
	for _, act := range acts {
		serial.execIn.Offer(uint64(act.Seq), execItem{act: act})
	}
	waitBatches(t, serial, batches)
	ss := serial.Stats()
	if ss.ReadsExecuted == 0 {
		t.Fatal("mixed workload executed no reads")
	}
	// Every request's response — result digest and read values — must match
	// the model's; below, between the execution modes.
	serialResp := checkAgainstModel(t, acts, true, serial, serialEPs)

	for _, e := range append([]int{-1}, diskShards...) {
		t.Run(fmt.Sprintf("E=%d/logs=1", e), func(t *testing.T) {
			disk, err := store.OpenShardedDisk(t.TempDir(), store.ShardedDiskOptions{SyncLinger: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			preloadEven(t, disk)
			preloadFsyncs := disk.SyncStats().Fsyncs
			pipelined, pipelinedEPs := newReadMixReplica(t, e, 3, clients, disk)
			commitOnLanes(pipelined, acts)
			waitBatches(t, pipelined, batches)

			if got, want := pipelined.Ledger().StateDigest(), serial.Ledger().StateDigest(); got != want {
				t.Fatalf("ledger head digest diverged: pipelined %x vs serial %x", got[:8], want[:8])
			}
			if err := ledger.VerifyChainEquality(serial.Ledger(), pipelined.Ledger()); err != nil {
				t.Fatalf("chains diverged: %v", err)
			}
			ps := pipelined.Stats()
			if ss.TxnsExecuted != ps.TxnsExecuted {
				t.Fatalf("txns executed diverged: serial %d vs pipelined %d", ss.TxnsExecuted, ps.TxnsExecuted)
			}
			if ss.ReadsExecuted != ps.ReadsExecuted {
				t.Fatalf("reads executed diverged: serial %d vs pipelined %d", ss.ReadsExecuted, ps.ReadsExecuted)
			}
			if e > 1 {
				checkGroupCommit(t, ps.StoreFsyncs-preloadFsyncs, batches, e)
			}
			if got, want := storeDigest(t, pipelined.Store()), storeDigest(t, serial.Store()); got != want {
				t.Fatalf("store state diverged: pipelined %x vs serial %x", got[:8], want[:8])
			}

			pipelinedResp := collectResponses(t, pipelinedEPs, wantResponses)
			if len(serialResp) != len(pipelinedResp) {
				t.Fatalf("response counts diverged: serial %d vs pipelined %d", len(serialResp), len(pipelinedResp))
			}
			withReads := 0
			for key, sv := range serialResp {
				pv, ok := pipelinedResp[key]
				if !ok {
					t.Fatalf("pipelined replica never answered %+v", key)
				}
				if sv != pv {
					t.Fatalf("response %+v diverged:\nserial:    %s\npipelined: %s", key, sv, pv)
				}
				if len(sv) > len("result=")+64+len(" reads=") {
					withReads++
				}
			}
			if withReads == 0 {
				t.Fatal("no response carried read results")
			}
		})
	}
}
