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
// checkpoint's signed certificate, one per 25 batches, proves it), and a
// replica marshals its client responses from one reused value and a client
// reuses its vote tables from request to request: 37 per batch on a 2-core
// host, 44 before those two, where the path that allocated votes took 204, the
// engine that returned fresh action slices 105, the store that allocated
// each new key's value 65 and the path that still copied 2f+1 commit MACs
// into every block 53. A decoded proposal now goes back to its pools when
// its last holder lets go — the frame, the message and its request,
// transaction and op arrays — and a primary's batch is a pooled one: 17 per
// batch, 0.53 per transaction, where the path that left every decoded
// request and pre-prepare to the collector took 37 (1.18 per transaction).
// A buffer pool keeps its stock across collections and stores a buffer
// without boxing it: 16 per batch, 0.50 per transaction. A client link
// decodes every response into one message it owns and lends it for a step,
// and its engine keeps its votes, gauges and Outcome in reused tables:
// 7.6 per batch, 0.24 per transaction, where 13.9 (0.43) went before. A
// link signs into storage it reuses and its engine returns Sends it keeps:
// about 5.2 per batch, 0.16 per transaction, where 7.2–8.0 went before.
// The engine lends the pre-prepare it proposes, as it lends its votes, and
// the ledger keeps room ahead of its head for the next windows' blocks:
// about 4 per batch, 0.13 per transaction, where 5.5 went before (1.04 the
// pre-prepare, 0.36 the ledger's block array). What is left is the
// client's generated requests, 3 a request, and the stable checkpoint's
// certificate. The cap counts per transaction, so a batch that fills
// fuller is not punished for it, and the split must show none of the
// decode sites that pooling took off the path, nor a response message, a
// vote table, a send or a signature allocated per request, nor any of
// replicaSites at 0.05 a batch.
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
		most    = 0.3 // allocations per committed transaction, everything included
	)
	// pooled are the decode sites a recycled hold or a reused client
	// response takes off the path, and the client sites that reuse their
	// sends and signature storage: none may allocate once per batch again.
	pooled := []string{
		"pool.(*BytePool).Get",
		"types.(*Reader).carveOps",
		"types.carve[...]",
		"types.(*ClientRequest).unmarshal",
		"types.(*PrePrepare).unmarshal",
		"types.newMessage",
		"consensus/client.(*Engine).vote",
		"consensus/client.(*Link).Submit",
		"consensus/client.(*Engine).Submit",
		"crypto.(*nodeAuth).AppendSignDigest",
	}
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
	// The poll reads the counter itself: Stats allocates.
	batches := func() uint64 { return replicas[0].batchesExecuted.Load() }
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
	s0 := replicas[0].Stats()
	reach(s0.BatchesExecuted + counted)
	runtime.ReadMemStats(&after)
	s1 := replicas[0].Stats()
	runtime.GC()
	sites1 := allocSites()
	batchCount := float64(s1.BatchesExecuted - s0.BatchesExecuted)
	txns := float64(s1.TxnsExecuted - s0.TxnsExecuted)
	perBatch := float64(after.Mallocs-before.Mallocs) / batchCount
	perTxn := float64(after.Mallocs-before.Mallocs) / txns

	for i, r := range replicas {
		if s := r.Stats(); s.AuthFailures != 0 || s.DecodeFailures != 0 || s.NetDrops != 0 || s.Evidence != 0 {
			t.Fatalf("replica %d: %d auth failures, %d decode failures, %d drops, %d evidence", i, s.AuthFailures, s.DecodeFailures, s.NetDrops, s.Evidence)
		}
	}
	t.Logf("%.1f allocations per committed batch of %.1f transactions (%.2f per transaction), over %.0f batches", perBatch, txns/batchCount, perTxn, batchCount)
	logAllocSites(t, sites0, sites1, batchCount)
	if perTxn > most {
		t.Fatalf("%.2f allocations per committed transaction, cap %.2f", perTxn, most)
	}
	for _, site := range pooled {
		if n := float64(sites1[site]-sites0[site]) / batchCount; n >= 1 {
			t.Fatalf("%s allocates %.2f per batch: a decoded proposal, a send or a signature is no longer recycled", site, n)
		}
	}
	// A buffer going back to its pool is stored as it is: a Put that boxed
	// it cost 0.4-0.6 allocations per batch.
	forbidPerBatch(t, sites0, sites1, batchCount, append(replicaSites, "pool.(*BytePool).Put"))
}

// replicaSites are where a committed batch allocated at the replica before
// each was reused or lent: the execute stage's per-batch barrier, the
// engine's pre-prepare, and the ledger's block array, regrown by appends
// and copied at every prune. None may reach 0.05 a batch again.
var replicaSites = []string{
	"replica.(*Replica).stageBatch",
	"consensus/pbft.(*Engine).Propose",
	"ledger.(*Ledger).Append",
	"ledger.(*Ledger).Prune",
}

// forbidPerBatch fails the test if any of sites allocated 0.05 or more a
// batch between two allocSites snapshots.
func forbidPerBatch(t *testing.T, before, after map[string]int64, batches float64, sites []string) {
	t.Helper()
	for _, site := range sites {
		if n := float64(after[site]-before[site]) / batches; n >= 0.05 {
			t.Fatalf("%s allocates %.2f per batch, want less than 0.05", site, n)
		}
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
// from the same slab, a client decodes a result list into one slab, the
// engine allocates only the pre-prepare, and client responses and vote
// tables are reused: about 61 per batch on a 2-core host, where copying
// every value at the store and again at the client took 587, the engine
// that returned fresh action slices 118, the engine that still copied a
// commit proof into every block 77 and the path that allocated each client
// response and vote table 68. The count grows with the transactions in a
// batch, and CPU contention fills batches fuller: beside four busy loops it
// read up to 66, and up to 76 before responses and vote tables were reused.
// With decoded proposals going back to their pools at their last release
// it reads about 33 per batch of 8.9 transactions, 3.7 per transaction
// (59, 6.8 per transaction, before). A client link that decodes every
// response into storage it reuses brings it to about 12 per batch, 1.35
// per transaction, and 9.8 (1.10) once the client reused its sends and
// signatures. Each in-flight batch of the execute stage now owns one
// barrier, reused from batch to batch, the engine lends its pre-prepare
// and the ledger keeps room for its next windows: about 4.5 per batch,
// 0.50 per transaction, where 4.12 went to a barrier channel made per
// batch, 1.03 to the pre-prepare and 0.35 to the ledger. What is left is
// nearly all the clients' generated requests (3.5 a batch): no other site
// reaches 1 a batch, and none of replicaSites 0.05. The cap counts per
// transaction, so fuller batches under contention no longer read as a
// regression.
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
		most    = 0.6 // allocations per committed transaction, everything included
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
	// The poll reads the counter itself: Stats allocates (its
	// ExecShardBusyNS), and a poll every millisecond would show in the
	// count. Stats is read at the counted window's two edges only.
	stats := func() Stats { return replicas[0].Stats() }
	executed := func() uint64 { return replicas[0].batchesExecuted.Load() }
	reach := func(n uint64) {
		t.Helper()
		for deadline := time.Now().Add(60 * time.Second); executed() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d batches executed", executed(), n)
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
	perTxn := perBatch * batches / txns
	t.Logf("%.1f allocations per committed batch of %.1f transactions and %.1f reads (%.2f per transaction), over %.0f batches",
		perBatch, txns/batches, float64(s1.ReadsExecuted-s0.ReadsExecuted)/batches, perTxn, batches)
	logAllocSites(t, sites0, sites1, batches)
	if perTxn > most {
		t.Fatalf("%.2f allocations per committed transaction, cap %.2f", perTxn, most)
	}
	forbidPerBatch(t, sites0, sites1, batches, replicaSites)
}

// allocSites returns the heap profile's cumulative allocation counts by the
// innermost function of this module on each allocating stack, leaving out
// its own: the profile is as of the last completed garbage collection, so a
// snapshot's own allocations land in the next one.
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
	delete(sites, "replica.allocSites")
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
