package zyzzyva

import (
	"math/rand"
	"testing"
	"testing/quick"

	"resilientdb/internal/consensus"
	"resilientdb/internal/consensus/enginetest"
	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

func newCluster(t testing.TB, n int, cfg func(*Config)) *enginetest.Cluster {
	t.Helper()
	engines := make([]consensus.Engine, n)
	for i := 0; i < n; i++ {
		c := Config{ID: types.ReplicaID(i), N: n}
		if cfg != nil {
			cfg(&c)
		}
		e, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return enginetest.NewCluster(engines)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{ID: 0, N: 2}); err == nil {
		t.Fatal("accepted n=2")
	}
	if _, err := New(Config{ID: 8, N: 4}); err == nil {
		t.Fatal("accepted out-of-range id")
	}
}

func TestSpeculativeExecutionSingleBatch(t *testing.T) {
	c := newCluster(t, 4, nil)
	req := enginetest.MakeRequest(1, 1)
	c.Propose(0, []types.ClientRequest{req})
	c.Run(10_000)

	want := types.BatchDigest([]types.ClientRequest{req})
	wantHistory := crypto.HashChain(types.Digest{}, want)
	for r := 0; r < 4; r++ {
		ex := c.Executed[types.ReplicaID(r)]
		if len(ex) != 1 {
			t.Fatalf("replica %d executed %d batches", r, len(ex))
		}
		if !ex[0].Speculative {
			t.Fatalf("replica %d execution not speculative", r)
		}
		if ex[0].History != wantHistory {
			t.Fatalf("replica %d history mismatch", r)
		}
		if got := c.Engines[types.ReplicaID(r)].(*Engine).History(); got != wantHistory {
			t.Fatalf("replica %d engine history mismatch", r)
		}
	}
}

func TestHistoriesConvergeAcrossBatches(t *testing.T) {
	c := newCluster(t, 4, nil)
	const batches = 30
	for i := 1; i <= batches; i++ {
		c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, uint64(i))})
	}
	c.Run(1_000_000)
	ref := c.Engines[0].(*Engine).History()
	for r := 1; r < 4; r++ {
		e := c.Engines[types.ReplicaID(r)].(*Engine)
		if e.History() != ref {
			t.Fatalf("replica %d history diverged", r)
		}
		if len(c.Executed[types.ReplicaID(r)]) != batches {
			t.Fatalf("replica %d executed %d/%d", r, len(c.Executed[types.ReplicaID(r)]), batches)
		}
	}
}

// TestFillHoleBuffering delivers ordered requests out of order; replicas
// must buffer the gap and execute strictly in history order.
func TestFillHoleBuffering(t *testing.T) {
	f := func(seed int64) bool {
		c := newCluster(t, 4, nil)
		c.Random = rand.New(rand.NewSource(seed))
		const batches = 15
		for i := 1; i <= batches; i++ {
			c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, uint64(i))})
		}
		c.Run(1_000_000)
		ref := c.ExecutedDigests(0)
		if len(ref) != batches {
			return false
		}
		for r := 1; r < 4; r++ {
			got := c.ExecutedDigests(types.ReplicaID(r))
			if len(got) != batches {
				return false
			}
			for i := range ref {
				if got[i] != ref[i] {
					return false
				}
			}
			if c.Engines[types.ReplicaID(r)].(*Engine).PendingHoles() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// onMessage steps e with one message into a fresh Out and returns what it
// emitted.
func onMessage(e *Engine, from types.NodeID, msg types.Message) []consensus.Action {
	var out consensus.Out
	e.OnMessage(from, msg, &out)
	return enginetest.Actions(&out)
}

func TestDivergentHistoryRejected(t *testing.T) {
	e, err := New(Config{ID: 1, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	req := enginetest.MakeRequest(1, 1)
	d := types.BatchDigest([]types.ClientRequest{req})
	// A byzantine primary sends a history that does not extend ours.
	or := &types.OrderedRequest{
		View: 0, Seq: 1, Digest: d,
		History:  types.Digest{0xBA, 0xD0},
		Requests: []types.ClientRequest{req},
	}
	acts := onMessage(e, types.ReplicaNode(0), or)
	var evidence bool
	for _, a := range acts {
		switch a.(type) {
		case consensus.Evidence:
			evidence = true
		case consensus.Execute:
			t.Fatal("executed a divergent-history request")
		}
	}
	if !evidence {
		t.Fatal("no evidence emitted for history divergence")
	}
}

func TestOrderedRequestFromNonPrimaryDropped(t *testing.T) {
	e, err := New(Config{ID: 1, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	req := enginetest.MakeRequest(1, 1)
	d := types.BatchDigest([]types.ClientRequest{req})
	or := &types.OrderedRequest{
		View: 0, Seq: 1, Digest: d,
		History:  crypto.HashChain(types.Digest{}, d),
		Requests: []types.ClientRequest{req},
	}
	acts := onMessage(e, types.ReplicaNode(2), or)
	if len(acts) != 0 {
		t.Fatal("accepted ordered request from non-primary")
	}
}

func TestCommitCertAnswered(t *testing.T) {
	c := newCluster(t, 4, nil)
	req := enginetest.MakeRequest(7, 3)
	c.Propose(0, []types.ClientRequest{req})
	c.Run(10_000)

	e := c.Engines[1].(*Engine)
	cert := &types.CommitCert{
		Client: 7, ClientSeq: 3, View: 0, Seq: 1,
		History:  e.History(),
		Replicas: []types.ReplicaID{0, 1, 2},
	}
	acts := onMessage(e, types.ClientNode(7), cert)
	var lc *types.LocalCommit
	for _, a := range acts {
		if s, ok := a.(consensus.Send); ok {
			if m, ok := s.Msg.(*types.LocalCommit); ok {
				if s.To != types.ClientNode(7) {
					t.Fatalf("local commit sent to %v", s.To)
				}
				lc = m
			}
		}
	}
	if lc == nil {
		t.Fatal("commit cert not acknowledged")
	}
	if lc.Seq != 1 || lc.Replica != 1 || lc.ClientSeq != 3 {
		t.Fatalf("bad local commit: %+v", lc)
	}
}

func TestCommitCertWrongHistoryIgnored(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(7, 3)})
	c.Run(10_000)
	e := c.Engines[1].(*Engine)
	cert := &types.CommitCert{
		Client: 7, ClientSeq: 3, View: 0, Seq: 1,
		History: types.Digest{0xFF},
	}
	if acts := onMessage(e, types.ClientNode(7), cert); len(acts) != 0 {
		t.Fatal("acknowledged a forged commit cert")
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	c := newCluster(t, 4, func(cfg *Config) { cfg.CheckpointInterval = 10 })
	const batches = 25
	for i := 1; i <= batches; i++ {
		c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, uint64(i))})
	}
	c.Run(1_000_000)
	for r := 0; r < 4; r++ {
		e := c.Engines[types.ReplicaID(r)].(*Engine)
		if got := e.Stats().Checkpoints; got != 2 {
			t.Fatalf("replica %d stable checkpoints = %d, want 2", r, got)
		}
		if c.StableCheckpoints[types.ReplicaID(r)] != 20 {
			t.Fatalf("replica %d stable seq = %d, want 20", r, c.StableCheckpoints[types.ReplicaID(r)])
		}
	}
}

func TestCrashedBackupStopsFastPath(t *testing.T) {
	// With one backup down, surviving replicas still execute (that is the
	// speculation), but only n-1 = 3 of 4 respond — the client-side fast
	// path cannot complete. The engine level sees full execution.
	c := newCluster(t, 4, nil)
	c.Down[3] = true
	c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, 1)})
	c.Run(10_000)
	alive := 0
	for r := 0; r < 3; r++ {
		if len(c.Executed[types.ReplicaID(r)]) == 1 {
			alive++
		}
	}
	if alive != 3 {
		t.Fatalf("%d/3 live replicas executed", alive)
	}
	if len(c.Executed[3]) != 0 {
		t.Fatal("crashed replica executed")
	}
}

func TestSpeculationDepthBound(t *testing.T) {
	c := newCluster(t, 4, func(cfg *Config) { cfg.MaxSpeculationDepth = 3; cfg.CheckpointInterval = 2 })
	for i := 1; i <= 6; i++ {
		c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, uint64(i))})
	}
	e := c.Engines[0].(*Engine)
	if got := e.Stats().Proposed; got != 3 {
		t.Fatalf("proposed %d with depth bound 3", got)
	}
	c.Run(1_000_000) // checkpoints advance the bound
	c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, 99)})
	if got := e.Stats().Proposed; got != 4 {
		t.Fatalf("proposed %d after checkpoint advance", got)
	}
}

func BenchmarkEngineFullInstance(b *testing.B) {
	engines := make([]consensus.Engine, 4)
	for i := 0; i < 4; i++ {
		e, err := New(Config{ID: types.ReplicaID(i), N: 4, CheckpointInterval: 1 << 40, MaxSpeculationDepth: 1 << 40})
		if err != nil {
			b.Fatal(err)
		}
		engines[i] = e
	}
	c := enginetest.NewCluster(engines)
	req := enginetest.MakeRequest(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Propose(0, []types.ClientRequest{req})
		c.Run(1 << 30)
	}
}
