package replica

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/store"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// gatedStore is a sharded disk store whose durable wait the test controls:
// every WaitDurable parks at the gate until it is opened, and can be made
// to fail. Appends pass straight through, so what the execute shards make
// visible and what the replica may let out are separated by the test's own
// hand.
type gatedStore struct {
	*store.ShardedDiskStore
	gate     chan struct{}
	failWait atomic.Bool
}

var errGatedWait = errors.New("gated store: injected durable-wait failure")

func (g *gatedStore) WaitDurable(t store.Ticket) error {
	<-g.gate
	if g.failWait.Load() {
		return errGatedWait
	}
	return g.ShardedDiskStore.WaitDurable(t)
}

// keyOnShard returns the first key at or after from owned by execution
// shard sh of shards.
func keyOnShard(from uint64, sh, shards int) uint64 {
	for k := from; ; k++ {
		if workload.ShardOf(k, shards) == sh {
			return k
		}
	}
}

// writeBatch is one committed batch carrying a single request of one
// transaction.
func writeBatch(seq types.SeqNum, client types.ClientID, clientSeq uint64, ops []types.Op) consensus.Execute {
	reqs := []types.ClientRequest{{
		Client:   client,
		FirstSeq: clientSeq,
		Txns:     []types.Transaction{{Client: client, ClientSeq: clientSeq, Ops: ops}},
	}}
	return consensus.Execute{Seq: seq, Digest: types.BatchDigest(reqs), Requests: reqs}
}

// TestDurableAtRetire pins the durability contract of the visible/durable
// split, at E=2 with pipeline depth 2 and at E=1, where the stager applies
// the batch and waits for its fsync inline. While batch k's writes are
// appended but not covered by an fsync, nothing about k leaves the replica —
// no client response, no ledger block (and so no checkpoint vote), no
// LastRetired advance. At E=2 batch k+1 is meanwhile staged behind it, its
// writes become visible, and its read observes k's not-yet-durable write; at
// E=1 the strict barrier holds k+1 back. Once the fsync lands k retires,
// then k+1, in order. A durable wait that fails is a lost partition: counted
// once per partition, not per write.
func TestDurableAtRetire(t *testing.T) {
	for _, e := range []int{1, 2} {
		t.Run(fmt.Sprintf("E=%d", e), func(t *testing.T) { testDurableAtRetire(t, e) })
	}
}

func testDurableAtRetire(t *testing.T, e int) {
	// Keys are picked per shard of two in both rows; at E=1 (one
	// partition) the split is merely two keys.
	const shards = 2
	disk, err := store.OpenShardedDisk(t.TempDir(), store.ShardedDiskOptions{
		SyncLinger: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	gated := &gatedStore{ShardedDiskStore: disk, gate: make(chan struct{})}
	r, eps := newReadMixReplica(t, e, 2, 1, gated)
	if r.store != store.Backend(gated) {
		t.Fatalf("the replica runs %T, not the gated store: the test would exercise an adapter's blocking PutMany", r.store)
	}
	inbox := eps[0].Inbox(0)

	a, b := keyOnShard(0, 0, shards), keyOnShard(0, 1, shards)
	c, d := keyOnShard(a+1, 0, shards), keyOnShard(b+1, 1, shards)
	k1 := writeBatch(1, 0, 1, []types.Op{
		{Kind: types.OpWrite, Key: a, Value: []byte("a1")},
		{Kind: types.OpWrite, Key: b, Value: []byte("b1")},
	})
	k2 := writeBatch(2, 0, 2, []types.Op{
		{Kind: types.OpWrite, Key: c, Value: []byte("c2")},
		{Kind: types.OpRead, Key: a},
		{Kind: types.OpWrite, Key: d, Value: []byte("d2")},
	})
	r.execIn.Offer(1, execItem{act: k1})
	r.execIn.Offer(2, execItem{act: k2})

	// Gate shut: the batches execute as far as the store — both at depth 2,
	// only the first behind E=1's strict barrier — and neither retires.
	visible := []uint64{a, b}
	if e > 1 {
		visible = []uint64{c, d}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err0 := disk.Get(visible[0])
		_, err1 := disk.Get(visible[1])
		if err0 == nil && err1 == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes never became visible behind the pending fsync: Get(%d)=%v Get(%d)=%v", visible[0], err0, visible[1], err1)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case env := <-inbox:
		t.Fatalf("a %v left the replica before any fsync was waited out", env.Type)
	case <-time.After(50 * time.Millisecond):
	}
	if e == 1 {
		if _, err := disk.Get(c); err == nil {
			t.Fatal("batch 2 was applied while batch 1 still awaited its fsync at depth 1")
		}
	}
	if got := r.LastRetired(); got != 0 {
		t.Fatalf("LastRetired = %d with batch 1 not durable", got)
	}
	if got := r.Ledger().Height(); got != 0 {
		t.Fatalf("ledger height %d with batch 1 not durable: the block (and its checkpoint vote) went out early", got)
	}
	if got := r.Stats().BatchesExecuted; got != 0 {
		t.Fatalf("%d batches retired with the gate shut", got)
	}

	// Gate open: 1 then 2, and 2's read saw 1's write.
	close(gated.gate)
	for want := types.SeqNum(1); want <= 2; want++ {
		var resp *types.ClientResponse
		select {
		case env := <-inbox:
			msg, err := types.DecodeBody(env.Type, env.Body)
			if err != nil {
				t.Fatal(err)
			}
			resp = msg.(*types.ClientResponse)
		case <-time.After(5 * time.Second):
			t.Fatalf("no response for batch %d after the gate opened", want)
		}
		if resp.Seq != want {
			t.Fatalf("response for batch %d arrived when batch %d was due", resp.Seq, want)
		}
		if want == 2 && (len(resp.ReadResults) != 1 || string(resp.ReadResults[0].Value) != "a1") {
			t.Fatalf("batch 2's read of batch 1's write = %+v, want a1", resp.ReadResults)
		}
	}
	waitBatches(t, r, 2)
	if got := r.LastRetired(); got != 2 {
		t.Fatalf("LastRetired = %d after both batches retired", got)
	}
	if got := r.Stats().StoreWriteFailures; got != 0 {
		t.Fatalf("%d store failures on a healthy run", got)
	}

	// A failed durable wait: three writes on each of two shards, one
	// partition per execution shard, one failure per partition. The batch
	// still retires — the failure is loud, not a wedge.
	gated.failWait.Store(true)
	var ops []types.Op
	for i, k0, k1 := 0, d+1, d+1; i < 3; i++ {
		k0, k1 = keyOnShard(k0, 0, shards), keyOnShard(k1, 1, shards)
		ops = append(ops,
			types.Op{Kind: types.OpWrite, Key: k0, Value: []byte("x")},
			types.Op{Kind: types.OpWrite, Key: k1, Value: []byte("y")})
		k0, k1 = k0+1, k1+1
	}
	r.execIn.Offer(3, execItem{act: writeBatch(3, 0, 3, ops)})
	waitBatches(t, r, 3)
	if got := r.Stats().StoreWriteFailures; got != uint64(e) {
		t.Fatalf("StoreWriteFailures = %d after a failed wait on %d partitions of 6 writes in all, want %d", got, e, e)
	}
}

// TestFsyncsPerBatch counts what a lone committed batch costs the default
// backend at E=2: each of 200 closed-loop batches (the next is offered when
// the last has retired) writes in both execution shards' partitions, so on a
// store with a log per execution shard it paid exactly two fsyncs, one per
// log. On the one log a batch pays one, or two when the committer starts its
// fsync between the two workers' appends. The bound is 1.6 per batch: 100
// runs under -race beside two CPU hogs on two cores gave 240–270 fsyncs for
// the 200 batches (215 unloaded), so 320 sits 50 above the worst seen and 80
// below what a log per shard costs every time.
func TestFsyncsPerBatch(t *testing.T) {
	const e, batches = 2, 200
	st, err := store.OpenBackend(store.BackendConfig{
		Backend: "sharded", Dir: t.TempDir(), ExecShards: e, SyncLinger: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r := newExecReplica(t, e, 2, st)
	k0, k1 := uint64(0), uint64(0)
	for b := uint64(1); b <= batches; b++ {
		k0, k1 = keyOnShard(k0+1, 0, e), keyOnShard(k1+1, 1, e)
		r.execIn.Offer(b, execItem{act: writeBatch(types.SeqNum(b), 0, b, []types.Op{
			{Kind: types.OpWrite, Key: k0, Value: []byte("v0")},
			{Kind: types.OpWrite, Key: k1, Value: []byte("v1")},
		})})
		waitBatches(t, r, b)
	}
	fsyncs := r.Stats().StoreFsyncs
	t.Logf("%d fsyncs for %d lone batches", fsyncs, batches)
	if fsyncs < batches {
		t.Fatalf("%d fsyncs for %d lone batches: a batch retired with no fsync behind it", fsyncs, batches)
	}
	if fsyncs > batches*16/10 {
		t.Fatalf("%d fsyncs for %d lone batches, want at most 1.6 per batch: two is a log per execution shard", fsyncs, batches)
	}
}
