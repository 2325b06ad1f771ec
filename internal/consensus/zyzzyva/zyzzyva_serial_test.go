package zyzzyva

import (
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/consensus/enginetest"
	"resilientdb/internal/types"
)

// TestSerializedEngineDrivesCluster runs the standard enginetest flow with
// each engine stepped one event at a time — the shape its one driver, the
// simulator, uses — and checks histories converge over 20 batches.
func TestSerializedEngineDrivesCluster(t *testing.T) {
	n := 4
	engines := make([]consensus.Engine, n)
	raw := make([]*Engine, n)
	for i := 0; i < n; i++ {
		e, err := New(Config{ID: types.ReplicaID(i), N: n})
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = e
		engines[i] = e
	}
	c := enginetest.NewCluster(engines)
	for s := uint64(1); s <= 20; s++ {
		c.Propose(0, []types.ClientRequest{enginetest.MakeRequest(1, s)})
	}
	c.Run(10000)
	for i := 1; i < n; i++ {
		if raw[i].History() != raw[0].History() {
			t.Fatalf("replica %d history diverged", i)
		}
	}
	if len(c.Executed[0]) != 20 {
		t.Fatalf("executed %d batches, want 20", len(c.Executed[0]))
	}
}
