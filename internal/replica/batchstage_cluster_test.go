// Whole-cluster coverage for the batch stage's drain-then-propose rule, in
// the external test package for the reason workerlanes_stress_test.go gives.
package replica_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/crypto"
	"resilientdb/internal/replica"
	"resilientdb/internal/workload"
)

// burstOneCluster starts a MemStore cluster whose closed-loop clients send
// one transaction per request against a BatchSize of 32, so no request ever
// fills a batch by itself. Signatures are off: these tests time the
// pipeline's waits, and under -race signing alone costs a lone request more
// than the linger that is being shown gone.
func burstOneCluster(t *testing.T, clients, batchThreads int) *cluster.Cluster {
	t.Helper()
	wl := workload.Default()
	wl.Records = 1000
	wl.ValueSize = 16
	c, err := cluster.New(cluster.Options{
		N:            4,
		Clients:      clients,
		Burst:        1,
		BatchSize:    32,
		BatchThreads: batchThreads,
		Crypto:       crypto.NoSig(),
		Workload:     wl,
		Seed:         16,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// TestIdlePrimaryProposesLoneRequestAtOnce: one closed-loop client can never
// put a second request behind its first, so a batch stage that waits for
// stragglers only adds its wait to every request. 200 sequential requests
// finish inside 300 ms — under a 2 ms linger they could not finish in less
// than 400; without it they need about 20, and about 150 under -race — with
// batch-threads and with batching folded into the worker-thread (0B).
func TestIdlePrimaryProposesLoneRequestAtOnce(t *testing.T) {
	for _, row := range []struct {
		name         string
		batchThreads int
	}{{"2B", 2}, {"0B", -1}} {
		t.Run(row.name, func(t *testing.T) {
			c := burstOneCluster(t, 1, row.batchThreads)
			res := c.Run(context.Background(), 300*time.Millisecond)
			t.Logf("%s", res)
			if res.Txns < 200 {
				t.Fatalf("a lone client completed %d sequential requests in %v, want at least 200: %s", res.Txns, res.Duration, res)
			}
			s := c.Replica(0).Stats()
			if s.BatchesExecuted == 0 || s.TxnsExecuted != s.BatchesExecuted {
				t.Fatalf("%d txns in %d batches: a lone burst-1 client fills batches of exactly one", s.TxnsExecuted, s.BatchesExecuted)
			}
			// Busy means working: a batch-thread that spends the run parked
			// on an empty queue has next to nothing to book.
			if busy := time.Duration(s.BusyNS[replica.StageBatch]); busy > res.Duration/2 {
				t.Fatalf("batch stage booked %v busy in a %v run of one-request batches", busy, res.Duration)
			}
		})
	}
}

// TestBatchesFillUnderLoad is the paper's Fig. 10 point made by the system
// itself rather than by a timer: nothing waits for a batch to fill, yet
// batches grow with offered load, because whatever arrives while one
// proposal is verified and stepped through the engine is the next drain.
// Each client count's mean batch is the median of three 500 ms runs on one
// cluster: a single run's mean moves with whatever else the host ran
// meanwhile, and one run at 64 clients once read below the 16-client run
// before it ([2.7 7.8 7.6 16.5]).
func TestBatchesFillUnderLoad(t *testing.T) {
	const runs = 3
	var means []float64
	for _, clients := range []int{4, 16, 64, 256} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			c := burstOneCluster(t, clients, 2)
			var per []float64
			for i := 0; i < runs; i++ {
				before := c.Replica(0).Stats()
				res := c.Run(context.Background(), 500*time.Millisecond)
				after := c.Replica(0).Stats()
				batches := after.BatchesExecuted - before.BatchesExecuted
				if batches == 0 {
					t.Fatalf("no batch executed: %s", res)
				}
				per = append(per, float64(after.TxnsExecuted-before.TxnsExecuted)/float64(batches))
			}
			sort.Float64s(per)
			t.Logf("mean transactions per batch, run by run, sorted: %.1f", per)
			means = append(means, per[runs/2])
		})
	}
	if t.Failed() {
		return
	}
	t.Logf("median mean transactions per batch at 4/16/64/256 clients: %.1f", means)
	for i := 1; i < len(means); i++ {
		if means[i] < means[i-1] {
			t.Fatalf("mean transactions per batch fell as load rose: %.1f", means)
		}
	}
	if top := means[len(means)-1]; top <= 4 {
		t.Fatalf("mean transactions per batch at 256 clients is %.1f, want above 4", top)
	}
}
