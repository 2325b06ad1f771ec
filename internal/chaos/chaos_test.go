package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/crypto"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

func testDirectory(t *testing.T) *crypto.Directory {
	t.Helper()
	var seed [32]byte
	seed[0] = 7
	dir, err := crypto.NewDirectory(crypto.Recommended(), seed)
	if err != nil {
		t.Fatalf("directory: %v", err)
	}
	return dir
}

// fabricPair wires two replica endpoints through one fabric: sender 0 is
// wrapped (the unit under test), receiver 1 is raw.
func fabricPair(t *testing.T, f *Fabric) (transport.Endpoint, transport.Endpoint) {
	t.Helper()
	net := transport.NewInproc()
	dir := testDirectory(t)
	sender := f.WrapEndpoint(0, net.Endpoint(types.ReplicaNode(0), 1, 64), dir)
	receiver := net.Endpoint(types.ReplicaNode(1), 1, 64)
	t.Cleanup(func() {
		f.Drain()
		sender.Close()
		receiver.Close()
	})
	return sender, receiver
}

func testEnvelope() *types.Envelope {
	return &types.Envelope{
		From: types.ReplicaNode(0),
		To:   types.ReplicaNode(1),
		Type: types.MsgPrepare,
		Body: []byte{1, 2, 3},
		Auth: []byte{4, 5, 6},
	}
}

func recvWithin(t *testing.T, ep transport.Endpoint, d time.Duration) *types.Envelope {
	t.Helper()
	select {
	case env := <-ep.Inbox(0):
		return env
	case <-time.After(d):
		return nil
	}
}

func TestFabricPassThrough(t *testing.T) {
	f := NewFabric(1)
	sender, receiver := fabricPair(t, f)
	if err := sender.Send(testEnvelope()); err != nil {
		t.Fatalf("send: %v", err)
	}
	env := recvWithin(t, receiver, time.Second)
	if env == nil {
		t.Fatal("fault-free fabric did not deliver")
	}
	if !bytes.Equal(env.Body, []byte{1, 2, 3}) {
		t.Fatalf("body mutated in transit: %v", env.Body)
	}
}

func TestFabricDrop(t *testing.T) {
	f := NewFabric(1)
	f.SetDefault(LinkFault{Drop: 1})
	sender, receiver := fabricPair(t, f)
	if err := sender.Send(testEnvelope()); err != nil {
		t.Fatalf("send: %v", err)
	}
	if env := recvWithin(t, receiver, 50*time.Millisecond); env != nil {
		t.Fatal("drop=1 still delivered")
	}
	if got := f.Stats().Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
}

func TestFabricPartition(t *testing.T) {
	f := NewFabric(1)
	f.Isolate(types.ReplicaNode(1))
	sender, receiver := fabricPair(t, f)
	if err := sender.Send(testEnvelope()); err != nil {
		t.Fatalf("send: %v", err)
	}
	if env := recvWithin(t, receiver, 50*time.Millisecond); env != nil {
		t.Fatal("partitioned link still delivered")
	}
	if got := f.Stats().PartitionDrops; got != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", got)
	}
	f.HealPartition()
	if err := sender.Send(testEnvelope()); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	if env := recvWithin(t, receiver, time.Second); env == nil {
		t.Fatal("healed link did not deliver")
	}
}

func TestFabricDuplicateAndDelay(t *testing.T) {
	f := NewFabric(1)
	f.SetLink(types.ReplicaNode(0), types.ReplicaNode(1), LinkFault{Duplicate: 1, Delay: time.Millisecond})
	sender, receiver := fabricPair(t, f)
	if err := sender.Send(testEnvelope()); err != nil {
		t.Fatalf("send: %v", err)
	}
	for i := 0; i < 2; i++ {
		if env := recvWithin(t, receiver, time.Second); env == nil {
			t.Fatalf("copy %d of duplicated envelope never arrived", i)
		}
	}
	s := f.Stats()
	if s.Duplicated != 1 || s.Delayed == 0 {
		t.Fatalf("stats = %+v, want 1 duplicate and some delays", s)
	}
}

// TestFabricCorruptReSigns checks the malformed-flood contract: the
// corrupted body must still authenticate as the sender (it lands in the
// receiver's DecodeFailures split, not AuthFailures) and must fail
// decoding for the original message type.
func TestFabricCorruptReSigns(t *testing.T) {
	f := NewFabric(1)
	f.SetDefault(LinkFault{Corrupt: 1})
	sender, receiver := fabricPair(t, f)
	dir := testDirectory(t)

	orig := testEnvelope()
	if err := sender.Send(orig); err != nil {
		t.Fatalf("send: %v", err)
	}
	env := recvWithin(t, receiver, time.Second)
	if env == nil {
		t.Fatal("corrupted envelope never delivered")
	}
	if bytes.Equal(env.Body, []byte{1, 2, 3}) {
		t.Fatal("corrupt=1 left the body untouched")
	}
	verifier := dir.NodeAuth(types.ReplicaNode(1))
	if err := verifier.Verify(env.From, env.Body, env.Auth); err != nil {
		t.Fatalf("corrupted body does not authenticate: %v", err)
	}
	if _, err := types.DecodeBody(env.Type, env.Body); err == nil {
		t.Fatal("corrupted body still decodes")
	}
	if got := f.Stats().Corrupted; got != 1 {
		t.Fatalf("Corrupted = %d, want 1", got)
	}
}

func TestStoreFaultsFailEvery(t *testing.T) {
	sf := NewStoreFaults()
	st := sf.WrapStore(store.NewMemStore(16))
	sf.SetFailEvery(2)
	var failed int
	for i := 0; i < 6; i++ {
		if err := st.Put(uint64(i), []byte{byte(i)}); err != nil {
			if !errors.Is(err, ErrInjectedWrite) {
				t.Fatalf("unexpected error: %v", err)
			}
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("failed writes = %d, want 3 of 6 at fail-every-2", failed)
	}
	sf.SetFailEvery(0)
	if err := st.Put(99, []byte{9}); err != nil {
		t.Fatalf("write after disabling injection: %v", err)
	}
	if _, err := st.Get(99); err != nil {
		t.Fatalf("read-through: %v", err)
	}
}

// TestStoreFaultsFailEveryCounted runs a cluster over fault-wrapped stores
// with every 5th write call failing, at E=1 (the batch applied inline) and
// E=4 (fanned out to shard workers), on the memory store (PutMany) and the
// sharded disk store (Append): Stats.StoreWriteFailures means one per failed
// store call at every E, so summed over the replicas it must equal the
// injector's own count exactly.
func TestStoreFaultsFailEveryCounted(t *testing.T) {
	for _, backend := range []string{"mem", "sharded"} {
		for _, e := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/E=%d", backend, e), func(t *testing.T) {
				sf := NewStoreFaults()
				wl := workload.Default()
				wl.Records = 1024
				wl.OpsPerTxn = 4
				c, err := cluster.New(cluster.Options{
					N:              4,
					Clients:        4,
					BatchSize:      8,
					ExecuteThreads: e,
					StoreBackend:   backend,
					StoreSync:      true,
					Workload:       wl,
					Seed:           13,
					StoreWrapper:   func(_ types.ReplicaID, st store.Store) store.Store { return sf.WrapStore(st) },
				})
				if err != nil {
					t.Fatal(err)
				}
				sf.SetFailEvery(5)
				c.Start()
				defer c.Stop()
				c.Run(context.Background(), 200*time.Millisecond)
				if !c.WaitForQuiesce(5*time.Second, nil) {
					t.Fatal("cluster did not quiesce")
				}
				var counted uint64
				for i := 0; i < 4; i++ {
					counted += c.Replica(i).Stats().StoreWriteFailures
				}
				injected := sf.InjectedErrors.Load()
				if injected == 0 {
					t.Fatal("no write was failed: the run exercised nothing")
				}
				if counted != injected {
					t.Fatalf("StoreWriteFailures sum to %d, the injector failed %d store calls", counted, injected)
				}
			})
		}
	}
}

// TestStoreFaultsCapabilities checks what the wrapper shows the replica:
// both wrapped backends are a store.Backend, so the replica appends to them
// as it would without the wrapper; only the wrapped disk store reports
// SyncStats and compacts, a wrapped MemStore has no log to report on. On
// both, every write call — Put, PutMany and Append — takes the injected
// stall and error.
func TestStoreFaultsCapabilities(t *testing.T) {
	disk, err := store.OpenBackend(store.BackendConfig{Backend: "sharded", Dir: t.TempDir(), SyncLinger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name  string
		inner store.Store
		log   bool
	}{
		{"mem", store.NewMemStore(16), false},
		{"sharded", disk, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			sf := NewStoreFaults()
			wrapped := sf.WrapStore(row.inner)
			b, ok := wrapped.(store.Backend)
			if !ok {
				t.Fatal("the wrapped store is not a store.Backend")
			}
			if _, ok := wrapped.(store.SyncStatser); ok != row.log {
				t.Errorf("wrapped store has SyncStatser = %v, want %v", ok, row.log)
			}
			if _, ok := wrapped.(store.Compactor); ok != row.log {
				t.Errorf("wrapped store has Compactor = %v, want %v", ok, row.log)
			}
			// Every second write call is lost and says so; every one is
			// delayed by the stall.
			sf.SetFailEvery(2)
			sf.SetWriteStall(time.Millisecond)
			var ticket store.Ticket
			writes := []struct {
				name string
				call func(k uint64) error
			}{
				{"Put", func(k uint64) error { return b.Put(k, []byte{byte(k)}) }},
				{"PutMany", func(k uint64) error { return b.PutMany([]store.KV{{Key: k, Value: []byte{byte(k)}}}) }},
				{"Append", func(k uint64) error {
					next, err := b.Append([]store.KV{{Key: k, Value: []byte{byte(k)}}}, ticket)
					if err != nil && next != ticket {
						t.Errorf("a failed Append moved the ticket")
					}
					ticket = next
					return err
				}},
			}
			k := uint64(0)
			for _, w := range writes {
				for i := 0; i < 2; i++ {
					t0 := time.Now()
					err := w.call(k)
					if d := time.Since(t0); d < time.Millisecond {
						t.Errorf("%s %d returned after %v, before the injected stall", w.name, i, d)
					}
					if failed := i == 1; failed != errors.Is(err, ErrInjectedWrite) {
						t.Errorf("%s %d: err = %v", w.name, i, err)
					}
					k++
				}
			}
			sf.SetFailEvery(0)
			sf.SetWriteStall(0)
			if err := b.WaitDurable(ticket); err != nil {
				t.Errorf("wait through the wrapper: %v", err)
			}
			for i := uint64(0); i < k; i++ {
				if _, err := b.Get(i); (err == nil) != (i%2 == 0) {
					t.Errorf("key %d after every-second write failed: %v", i, err)
				}
			}
			if got := sf.InjectedErrors.Load(); got != uint64(len(writes)) {
				t.Errorf("InjectedErrors = %d, want %d", got, len(writes))
			}
			if err := wrapped.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}

func TestMalformedFramesAllFailFrameDecode(t *testing.T) {
	for i, frame := range MalformedFrames() {
		if envs, err := types.ReadFramesPooled(bytes.NewReader(frame), nil); err == nil {
			t.Errorf("frame %d decoded into %d envelopes, want error", i, len(envs))
		}
	}
}

func TestMalformedBodiesAllFailBodyDecode(t *testing.T) {
	kinds := []types.MsgType{types.MsgClientRequest, types.MsgPrePrepare, types.MsgPrepare, types.MsgCommit, types.MsgClientResponse}
	for i, body := range MalformedBodies() {
		for _, kind := range kinds {
			if _, err := types.DecodeBody(kind, body); err == nil {
				t.Errorf("body %d decoded as %v, want error", i, kind)
			}
		}
	}
}

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("drop=0.1, delay=2ms,reorder=5ms,dup=0.02,corrupt=0.005,byz=mute@0,seed=7")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := Spec{
		Fault:     LinkFault{Drop: 0.1, Delay: 2 * time.Millisecond, Reorder: 5 * time.Millisecond, Duplicate: 0.02, Corrupt: 0.005},
		Byz:       ByzMutePrimary,
		ByzTarget: 0,
		Seed:      7,
	}
	if sp != want {
		t.Fatalf("parsed %+v, want %+v", sp, want)
	}
	if sp2, err := ParseSpec(""); err != nil || sp2 != (Spec{}) {
		t.Fatalf("empty spec: %+v, %v", sp2, err)
	}
	for _, bad := range []string{"drop=2", "nope=1", "byz=mute", "byz=wat@1", "delay=fast", "drop"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q parsed, want error", bad)
		}
	}
}
