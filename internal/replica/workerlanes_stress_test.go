// Stress coverage for the worker-lane fan-out. This lives in an external
// test package so it can drive full clusters (package cluster imports
// package replica) while still running under this package's -race CI
// matrix — the acceptance gate for the lock-striped engine.
package replica_test

import (
	"context"
	"testing"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/workload"
)

// TestWorkerLanesStress drives a 4-replica PBFT cluster with W=4 worker
// lanes through the full gauntlet: batched proposals, out-of-order
// commits across lanes, checkpoint rounds (interval 4), and a mid-load
// view change after the primary crashes. Ledger heights must converge
// across the surviving replicas and every chain must validate. Run under
// -race this is the acceptance test for concurrent engine stepping.
func TestWorkerLanesStress(t *testing.T) {
	wl := workload.Default()
	wl.Records = 1000
	wl.ValueSize = 16
	opts := cluster.Options{
		N:                  4,
		Clients:            8,
		BatchSize:          8,
		WorkerThreads:      4,
		CheckpointInterval: 4,
		Workload:           wl,
		ViewTimeout:        150 * time.Millisecond,
		ClientTimeout:      100 * time.Millisecond,
		Seed:               3,
	}
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	// Phase 1: load under primary 0 with all four lanes stepping.
	res1 := c.Run(context.Background(), 800*time.Millisecond)
	if res1.Txns == 0 {
		t.Fatalf("no progress with W=4 lanes: %s", res1)
	}

	// Phase 2: crash the primary mid-load; the watchdogs must drive a
	// view change while lanes keep draining in-flight instances.
	c.Crash(0)
	res2 := c.Run(context.Background(), 2500*time.Millisecond)
	if res2.Txns == 0 {
		t.Fatalf("no progress after mid-load primary crash: %s", res2)
	}
	live := func(i int) bool { return i != 0 }
	for i := 1; i < opts.N; i++ {
		if v := c.Replica(i).Stats().View; v == 0 {
			t.Fatalf("replica %d never left view 0", i)
		}
	}

	// Convergence: every surviving ledger reaches the max height seen.
	var target uint64
	for i := 1; i < opts.N; i++ {
		if h := c.Replica(i).Ledger().Height(); h > target {
			target = h
		}
	}
	if target == 0 {
		t.Fatal("no ledger ever grew")
	}
	if got := c.WaitForHeight(target, 10*time.Second, live); got < target {
		t.Fatalf("surviving replicas stuck at height %d < %d", got, target)
	}
	if err := c.VerifyLedgers(live); err != nil {
		t.Fatal(err)
	}

	// The checkpoint machinery must have run under concurrent stepping.
	ck := false
	for i := 1; i < opts.N; i++ {
		if c.Replica(i).Stats().Checkpoints > 0 {
			ck = true
		}
	}
	if !ck {
		t.Fatal("no replica completed a checkpoint round")
	}

	// Lanes must actually have shared the work: a backup's busy time may
	// concentrate when load is light, but the stats must report all four
	// lanes and at least two of them must have stepped the engine.
	s := c.Replica(1).Stats()
	if s.WorkerLanes != 4 || len(s.WorkerLaneBusyNS) != 4 {
		t.Fatalf("backup reports %d lanes (%d busy entries), want 4", s.WorkerLanes, len(s.WorkerLaneBusyNS))
	}
	busy := 0
	for _, ns := range s.WorkerLaneBusyNS {
		if ns > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 lanes recorded busy time: %v", busy, s.WorkerLaneBusyNS)
	}
}
