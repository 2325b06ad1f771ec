package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/loadgen"
	"resilientdb/internal/replica"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// TestTCPClusterEndToEnd wires 4 replicas and 2 clients over real TCP on
// localhost: the deployment mode of cmd/resdb-node and cmd/resdb-client.
func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	const n = 4
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{9})
	if err != nil {
		t.Fatal(err)
	}

	// Bind all listeners first, then share the address map (the endpoints
	// read it under their own locks via SetPeerAddr).
	eps := make([]*transport.TCPEndpoint, n)
	addrs := make(map[types.NodeID]string)
	for i := 0; i < n; i++ {
		ep, err := transport.NewTCPWithConfig(transport.TCPConfig{Self: types.ReplicaNode(types.ReplicaID(i)), ListenAddr: "127.0.0.1:0", Inboxes: 3, Capacity: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		addrs[types.ReplicaNode(types.ReplicaID(i))] = ep.Addr()
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
		cep, err := transport.NewTCPWithConfig(transport.TCPConfig{Self: types.ClientNode(types.ClientID(i)), ListenAddr: "127.0.0.1:0", Inboxes: 1, Capacity: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer cep.Close()
		for node, addr := range addrs {
			cep.SetPeerAddr(node, addr)
		}
		// Teach every replica the return path before submitting.
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
		t.Fatal("no transactions completed over TCP")
	}
	// Replicas agree on the chain they built over TCP.
	for i := 1; i < n; i++ {
		if reps[i].Ledger().Height() == 0 && reps[0].Ledger().Height() > 0 {
			t.Fatalf("replica %d never appended a block", i)
		}
	}
}

// stopAndCollect stops every replica and lets go of it, then collects until
// the record tables of the stores replica.New made for them, which nobody
// closes, have given their memory outside the Go heap back.
func stopAndCollect(t *testing.T, reps []*replica.Replica, mapped int64) {
	t.Helper()
	for i, r := range reps {
		r.Stop()
		reps[i] = nil
	}
	for deadline := time.Now().Add(10 * time.Second); store.MappedBytes() > mapped; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d mapped bytes still held 10 s after every replica stopped", store.MappedBytes()-mapped)
			return
		}
		runtime.GC()
	}
}
