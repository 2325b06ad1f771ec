// Stress coverage for the engine under every thread that steps it. This
// lives in an external test package so it can drive full clusters (package
// cluster imports package replica) while still running under this
// package's -race CI matrix.
package replica_test

import (
	"context"
	"testing"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/workload"
)

// TestWorkerLanesStress keeps its name from when a replica ran several
// worker lanes. It drives a 4-replica PBFT cluster through the full
// gauntlet: batched proposals, out-of-order commits, checkpoint rounds
// (interval 4), and a mid-load view change after the primary crashes.
// Ledger heights must converge across the surviving replicas and every
// chain must validate. Run under -race this is the acceptance test for
// concurrent engine stepping: batch-, worker-, execute- and
// checkpoint-threads all step the engine through its one lock.
func TestWorkerLanesStress(t *testing.T) {
	wl := workload.Default()
	wl.Records = 1000
	wl.ValueSize = 16
	opts := cluster.Options{
		N:                  4,
		Clients:            8,
		BatchSize:          8,
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

	// Phase 1: load under primary 0.
	res1 := c.Run(context.Background(), 800*time.Millisecond)
	if res1.Txns == 0 {
		t.Fatalf("no progress under primary 0: %s", res1)
	}

	// Phase 2: crash the primary mid-load; the watchdogs must drive a
	// view change while the backups keep draining in-flight instances.
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
}
