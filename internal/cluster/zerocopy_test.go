package cluster

import (
	"context"
	"testing"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/loadgen"
	"resilientdb/internal/replica"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// TestClusterEncodePool runs a workload over the pooled outbound encode
// path every replica and client uses. The run must make progress and every
// replica pair must agree block-by-block (chain equality hashes the block
// contents, so any aliasing bug that let a recycled buffer leak into a
// proposal would diverge the chains or break validation), and the pool
// must show it actually recycled buffers.
func TestClusterEncodePool(t *testing.T) {
	opts := smallOpts()
	c, res := runCluster(t, opts, 1200*time.Millisecond)
	if res.Txns == 0 {
		t.Fatal("no transactions completed")
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
	var hits, misses uint64
	for i := 0; i < opts.N; i++ {
		s := c.Replica(i).Stats()
		hits += s.EncodePoolHits
		misses += s.EncodePoolMisses
	}
	if hits == 0 {
		t.Fatalf("encode pool never hit (misses=%d)", misses)
	}
}

// TestTCPClusterZeroCopyEndToEnd is TestTCPClusterEndToEnd with the whole
// zero-copy hot path on: pooled frame decode on every endpoint and pooled
// outbound encode on replicas and clients. Run under -race it exercises the
// arena handoff across the full transport → input → worker → execute
// pipeline.
func TestTCPClusterZeroCopyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	const n = 4
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{21})
	if err != nil {
		t.Fatal(err)
	}

	newEP := func(self types.NodeID, inboxes, capacity int) *transport.TCPEndpoint {
		t.Helper()
		ep, err := transport.NewTCPWithConfig(transport.TCPConfig{
			Self:       self,
			ListenAddr: "127.0.0.1:0",
			Inboxes:    inboxes,
			Capacity:   capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}

	eps := make([]*transport.TCPEndpoint, n)
	addrs := make(map[types.NodeID]string)
	for i := 0; i < n; i++ {
		eps[i] = newEP(types.ReplicaNode(types.ReplicaID(i)), 3, 1<<12)
		addrs[types.ReplicaNode(types.ReplicaID(i))] = eps[i].Addr()
	}
	for i := 0; i < n; i++ {
		for node, addr := range addrs {
			eps[i].SetPeerAddr(node, addr)
		}
	}

	mapped := store.MappedBytes()
	reps := make([]*replica.Replica, n)
	for i := 0; i < n; i++ {
		rep, err := replica.New(replica.Config{
			ID:             types.ReplicaID(i),
			N:              n,
			Protocol:       replica.PBFT,
			BatchSize:      8,
			BatchThreads:   2,
			ExecuteThreads: 1,
			Directory:      dir,
			Endpoint:       eps[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
		rep.Start()
	}
	defer stopAndCollect(t, reps, mapped)

	wlCfg := workload.Default()
	wlCfg.Records = 500
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()

	load := loadgen.New(loadgen.Config{Workload: wlCfg})
	for i := 0; i < 2; i++ {
		cep := newEP(types.ClientNode(types.ClientID(i)), 1, 1<<10)
		defer cep.Close()
		for node, addr := range addrs {
			cep.SetPeerAddr(node, addr)
		}
		for node := range addrs {
			if err := cep.Hello(node); err != nil {
				t.Fatal(err)
			}
		}
		if err := load.AddDirect(loadgen.DirectConfig{
			N:         n,
			Timeout:   400 * time.Millisecond,
			Directory: dir,
			Endpoint:  cep,
		}); err != nil {
			t.Fatal(err)
		}
	}
	txns := load.Run(ctx).Txns
	if txns == 0 {
		t.Fatal("no transactions completed over zero-copy TCP")
	}
	// The replicas' frame pools must have carried the traffic.
	var hits uint64
	for _, ep := range eps {
		h, _ := ep.FramePoolStats()
		hits += h
	}
	if hits == 0 {
		t.Fatal("replica frame pools never hit; zero-copy decode not engaged")
	}
	// Chains agree pairwise (block hashes cover batches, proofs, and
	// results, so a recycled-buffer corruption could not hide here).
	for i := 0; i < n; i++ {
		if err := reps[i].Ledger().Validate(); err != nil {
			t.Fatalf("replica %d ledger invalid: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if err := ledger.VerifyChainEquality(reps[0].Ledger(), reps[i].Ledger()); err != nil {
			t.Fatalf("replica 0 vs %d: %v", i, err)
		}
	}
}
