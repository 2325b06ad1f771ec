package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/replica"
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

	reps := make([]*replica.Replica, n)
	for i := 0; i < n; i++ {
		rep, err := replica.New(replica.Config{
			ID:             types.ReplicaID(i),
			N:              n,
			Protocol:       replica.PBFT,
			BatchSize:      8,
			BatchThreads:   2,
			ExecuteThreads: 1,
			VerifyThreads:  2,
			Directory:      dir,
			Endpoint:       eps[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
		rep.Start()
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()

	wlCfg := workload.Default()
	wlCfg.Records = 500
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()

	var wg sync.WaitGroup
	clients := make([]*Client, 2)
	for i := range clients {
		wl, err := workload.New(wlCfg, int64(i))
		if err != nil {
			t.Fatal(err)
		}
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
		cl, err := NewClient(ClientConfig{
			ID:        types.ClientID(i),
			N:         n,
			Timeout:   400 * time.Millisecond,
			Directory: dir,
			Endpoint:  cep,
			Workload:  wl,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Run(ctx)
		}()
	}
	wg.Wait()

	var txns uint64
	for _, cl := range clients {
		txns += cl.Stats().TxnsCompleted
	}
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
