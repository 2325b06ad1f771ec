package replica

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientdb/internal/consensus/client"
	"resilientdb/internal/crypto"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// TestAllocsPerCommittedBatch counts what committing a batch allocates in
// write-mem-tcp's shape — four replicas over loopback TCP with the
// benchmark's stage counts, CMAC links, ED25519 clients, closed-loop
// clients whose 32-transaction requests are a batch each — clients
// included, and attributes every allocation to the function of this module
// that made it. The benchmark's allocs_per_txn adds its own load generators
// and cannot say which layer a count belongs to; this test logs
// the split. The cap is a little above what is left now that votes, their
// authenticators, MAC tags and frame slices are lent, not allocated, a
// consensus step writes into its goroutine's reused Out, opens instances
// off a free list and lends the votes it emits, the store carves new keys'
// values from pages, and a block carries no commit proof (a stable
// checkpoint's signed certificate, one per 25 batches, proves it): 44 per
// batch on a 2-core host, where the path that allocated votes took 204, the
// engine that returned fresh action slices 105, the store that allocated
// each new key's value 65 and the path that still copied 2f+1 commit MACs
// into every block 53.
// What is left is the requests themselves — decoded at every replica,
// generated, signed and answered at the client — and the ledger's block.
func TestAllocsPerCommittedBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
	}
	const (
		burst   = 32
		clients = 2
		warm    = 200 // batches before counting
		counted = 500 // batches counted
		records = 10_000
		most    = 50 // allocations per committed batch, everything included
	)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // every allocation attributed, not a sample

	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{34})
	if err != nil {
		t.Fatal(err)
	}
	open := func(self types.NodeID, inboxes, capacity int) *transport.TCPEndpoint {
		ep, err := transport.NewTCPWithConfig(transport.TCPConfig{
			Self: self, ListenAddr: "127.0.0.1:0", Inboxes: inboxes, Capacity: capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		return ep
	}
	var replicas []*Replica
	addrs := make(map[types.NodeID]string)
	var eps []*transport.TCPEndpoint
	for i := 0; i < 4; i++ {
		ep := open(types.ReplicaNode(types.ReplicaID(i)), 3, 1<<13)
		eps = append(eps, ep)
		addrs[ep.Self()] = ep.Addr()
	}
	for i, ep := range eps {
		for node, addr := range addrs {
			ep.SetPeerAddr(node, addr)
		}
		r, err := New(Config{
			ID: types.ReplicaID(i), N: 4, Protocol: PBFT, BatchSize: burst,
			CheckpointInterval: 25, Store: store.NewMemStore(records),
			Directory: dir, Endpoint: ep,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		t.Cleanup(r.Stop)
		replicas = append(replicas, r)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for c := 0; c < clients; c++ {
		id := types.ClientID(1000 + c)
		ep := open(types.ClientNode(id), 1, 1<<10)
		for node, addr := range addrs {
			ep.SetPeerAddr(node, addr)
			if err := ep.Hello(node); err != nil {
				t.Fatal(err)
			}
		}
		link, err := client.NewLink(id, 4, dir, ep, 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := workload.New(workload.Config{Records: records, OpsPerTxn: 1, ValueSize: 100, Distribution: workload.Zipf, Seed: 34}, int64(id))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); ; seq += burst {
				req := wl.NextRequest(id, seq, burst)
				if err := link.Sign(&req); err != nil {
					t.Error(err)
					return
				}
				link.Submit(req)
				if link.Await(stop) == nil {
					return
				}
			}
		}()
	}
	batches := func() uint64 { return replicas[0].Stats().BatchesExecuted }
	reach := func(n uint64) {
		t.Helper()
		for deadline := time.Now().Add(60 * time.Second); batches() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d batches executed", batches(), n)
			}
		}
	}

	reach(warm)
	var before, after runtime.MemStats
	runtime.GC()
	sites0 := allocSites()
	runtime.ReadMemStats(&before)
	b0 := batches()
	reach(b0 + counted)
	runtime.ReadMemStats(&after)
	b1 := batches()
	runtime.GC()
	sites1 := allocSites()
	perBatch := float64(after.Mallocs-before.Mallocs) / float64(b1-b0)

	for i, r := range replicas {
		if s := r.Stats(); s.AuthFailures != 0 || s.DecodeFailures != 0 || s.NetDrops != 0 || s.Evidence != 0 {
			t.Fatalf("replica %d: %d auth failures, %d decode failures, %d drops, %d evidence", i, s.AuthFailures, s.DecodeFailures, s.NetDrops, s.Evidence)
		}
	}
	t.Logf("%.1f allocations per committed batch of %d transactions (%.2f per transaction), over %d batches", perBatch, burst, perBatch/burst, b1-b0)
	logAllocSites(t, sites0, sites1, float64(b1-b0))
	if perBatch > most {
		t.Fatalf("%.1f allocations per committed batch, cap %d", perBatch, most)
	}
}

// TestAllocsPerReadBatch counts what committing a batch allocates in
// mixed-disk's shape — four replicas in process, each on the durable disk
// store, E=2 at depth 2, CMAC links, ED25519 clients
// sending 8 transactions of 4 ops a request, half of the ops reads and 5 %
// scans of up to 20 keys — clients included, and attributes every
// allocation to the function of this module that made it, like
// TestAllocsPerCommittedBatch. A read's value is appended into its
// partition's arena, a scan row into its row slab, a fragment merge carves
// from the same slab, a client decodes a result list into one slab, and the
// engine allocates only the pre-prepare: the cap is a little above what is
// left, about 68 per batch on a 2-core host, where copying every value at
// the store and again at the client took 587, the engine that returned
// fresh action slices 118 and the engine that still copied a commit proof
// into every block 77.
func TestAllocsPerReadBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; steady-state reuse is nondeterministic")
	}
	const (
		burst   = 8
		clients = 2
		warm    = 200 // batches before counting
		counted = 500 // batches counted
		records = 20_000
		most    = 78 // allocations per committed batch, everything included
	)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{36})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInproc()
	value := make([]byte, 100)
	var replicas []*Replica
	for i := 0; i < 4; i++ {
		disk, err := store.OpenShardedDisk(t.TempDir(), store.ShardedDiskOptions{SyncLinger: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { disk.Close() })
		kvs := make([]store.KV, 0, 1024)
		for k := uint64(0); k < records; k++ {
			kvs = append(kvs, store.KV{Key: k, Value: value})
			if len(kvs) == cap(kvs) || k == records-1 {
				if err := disk.PutMany(kvs); err != nil {
					t.Fatal(err)
				}
				kvs = kvs[:0]
			}
		}
		id := types.ReplicaID(i)
		r, err := New(Config{
			ID: id, N: 4, Protocol: PBFT,
			BatchSize: 32, ExecuteThreads: 2, ExecPipelineDepth: 2,
			CheckpointInterval: 25, Store: disk,
			Directory: dir, Endpoint: net.Endpoint(types.ReplicaNode(id), 3, 1<<13),
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		t.Cleanup(r.Stop) // registered after the store's Close, so it runs first
		replicas = append(replicas, r)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for c := 0; c < clients; c++ {
		id := types.ClientID(1000 + c)
		link, err := client.NewLink(id, 4, dir, net.Endpoint(types.ClientNode(id), 1, 1<<10), 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := workload.New(workload.Config{
			Records: records, OpsPerTxn: 4, ValueSize: 100, Distribution: workload.Zipf, Seed: 36,
			ReadFraction: 0.5, ScanFraction: 0.05, ScanLength: 20,
		}, int64(id))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); ; seq += burst {
				req := wl.NextRequest(id, seq, burst)
				if err := link.Sign(&req); err != nil {
					t.Error(err)
					return
				}
				link.Submit(req)
				if link.Await(stop) == nil {
					return
				}
			}
		}()
	}
	stats := func() Stats { return replicas[0].Stats() }
	reach := func(n uint64) {
		t.Helper()
		for deadline := time.Now().Add(60 * time.Second); stats().BatchesExecuted < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d batches executed", stats().BatchesExecuted, n)
			}
		}
	}

	reach(warm)
	var before, after runtime.MemStats
	runtime.GC()
	sites0 := allocSites()
	runtime.ReadMemStats(&before)
	s0 := stats()
	reach(s0.BatchesExecuted + counted)
	runtime.ReadMemStats(&after)
	s1 := stats()
	runtime.GC()
	sites1 := allocSites()
	batches := float64(s1.BatchesExecuted - s0.BatchesExecuted)
	perBatch := float64(after.Mallocs-before.Mallocs) / batches

	for i, r := range replicas {
		if s := r.Stats(); s.AuthFailures != 0 || s.DecodeFailures != 0 || s.StoreWriteFailures != 0 {
			t.Fatalf("replica %d: %d auth, %d decode, %d store failures", i, s.AuthFailures, s.DecodeFailures, s.StoreWriteFailures)
		}
	}
	if s1.ReadsExecuted == s0.ReadsExecuted {
		t.Fatal("no reads executed while counting")
	}
	txns := float64(s1.TxnsExecuted - s0.TxnsExecuted)
	t.Logf("%.1f allocations per committed batch of %.1f transactions and %.1f reads (%.2f per transaction), over %.0f batches",
		perBatch, txns/batches, float64(s1.ReadsExecuted-s0.ReadsExecuted)/batches, perBatch*batches/txns, batches)
	logAllocSites(t, sites0, sites1, batches)
	if perBatch > most {
		t.Fatalf("%.1f allocations per committed batch, cap %d", perBatch, most)
	}
}

// allocSites returns the heap profile's cumulative allocation counts by the
// innermost function of this module on each allocating stack. The profile
// is as of the last completed garbage collection.
func allocSites() map[string]int64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	sites := make(map[string]int64)
	for i := range recs {
		site := "(outside this module)"
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "resilientdb/") {
				site = strings.TrimPrefix(f.Function, "resilientdb/internal/")
				break
			}
			if !more {
				break
			}
		}
		sites[site] += recs[i].AllocObjects
	}
	return sites
}

// logAllocSites logs the sites that allocated between two allocSites
// snapshots, per batch, largest first.
func logAllocSites(t *testing.T, before, after map[string]int64, batches float64) {
	type site struct {
		name string
		n    float64
	}
	var sites []site
	for name, n := range after {
		if d := n - before[name]; d > 0 {
			sites = append(sites, site{name, float64(d) / batches})
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].n > sites[j].n })
	var b strings.Builder
	for _, s := range sites {
		if s.n < 0.05 {
			break
		}
		fmt.Fprintf(&b, "\n%8.2f  %s", s.n, s.name)
	}
	t.Logf("allocations per batch by site:%s", b.String())
}
