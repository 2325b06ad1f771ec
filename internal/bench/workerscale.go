package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/crypto"
	"resilientdb/internal/replica"
	"resilientdb/internal/workload"
)

// workerscale measures how consensus throughput scales with the number of
// worker lanes stepping the lock-striped PBFT engine. Unlike the figure
// experiments it runs the real replica pipeline (in-process transport),
// because the quantity under test — contention on the engine between
// lanes — only exists in the runnable system.
//
// It is the runtime companion of Figure 9: there, the single
// worker-thread is the saturated stage at the backups; here, the
// per-lane busy times show the worker stage ceasing to be the lone
// saturated stage once W ≥ 2 splits consensus stepping across lanes.
func workerscale(s Scale) (Outcome, error) {
	window := 600 * time.Millisecond
	clients := 96
	if s == ScalePaper {
		window = 2 * time.Second
		clients = 256
	}
	sweep := []int{1, 2, 4}

	tab := Table{
		Title: "Worker-lane scaling (PBFT, real pipeline, in-process transport)",
		Columns: []string{"W", "tput", "p50", "backup lane busy ms",
			"busiest worker lane", "busiest other stage"},
	}
	metrics := map[string]float64{}
	var baseTput float64
	var lastTput float64

	for _, w := range sweep {
		res, backup, err := runWorkerLoad(w, clients, window)
		if err != nil {
			return Outcome{}, err
		}
		winNS := float64(res.Duration.Nanoseconds())

		// Per-lane busy time at a backup, where the worker stage carries
		// the prepare/commit/pre-prepare load (Figure 9's saturated
		// stage).
		lanes := make([]string, len(backup.WorkerLaneBusyNS))
		maxLane := 0.0
		for i, ns := range backup.WorkerLaneBusyNS {
			lanes[i] = fmt.Sprintf("%.1f", float64(ns)/1e6)
			if share := float64(ns) / winNS; share > maxLane {
				maxLane = share
			}
		}
		otherName, otherShare := busiestOtherStage(backup, winNS)

		tab.AddRow(fmt.Sprintf("%d", w), ktps(res.Throughput), ms(res.P50Lat),
			strings.Join(lanes, " "),
			pct(maxLane), fmt.Sprintf("%s %s", otherName, pct(otherShare)))

		metrics[fmt.Sprintf("workerscale_tput_w%d", w)] = res.Throughput
		metrics[fmt.Sprintf("workerscale_worker_share_w%d", w)] = maxLane
		metrics[fmt.Sprintf("workerscale_other_share_w%d", w)] = otherShare
		if w == 1 {
			baseTput = res.Throughput
		}
		lastTput = res.Throughput
	}
	if baseTput > 0 {
		metrics["workerscale_gain_x"] = lastTput / baseTput
	}
	return Outcome{Tables: []Table{tab}, Metrics: metrics}, nil
}

// busiestOtherStage returns the non-worker stage with the highest
// per-thread busy share at the given replica.
func busiestOtherStage(st replica.Stats, winNS float64) (string, float64) {
	// Per-thread divisors for multi-threaded stages under the default
	// cluster configuration: 3 input threads (1 client inbox + 2 replica
	// inboxes), 2 batch-threads. Output is not a stage of its own: the time
	// inside Endpoint.Send is part of whichever stage sent.
	stages := []struct {
		s       replica.Stage
		threads float64
	}{
		{replica.StageInput, 3},
		{replica.StageBatch, 2},
		{replica.StageExecute, 1},
		{replica.StageCheckpoint, 1},
	}
	name, best := "none", 0.0
	for _, sc := range stages {
		share := float64(st.BusyNS[sc.s]) / sc.threads / winNS
		if share > best {
			name, best = sc.s.String(), share
		}
	}
	return name, best
}

// runWorkerLoad runs one PBFT cluster with W worker lanes and returns the
// client-side result plus a backup replica's stats for busy-time
// accounting.
func runWorkerLoad(w, clients int, window time.Duration) (cluster.Result, replica.Stats, error) {
	wl := workload.Default()
	wl.Records = 4096
	wl.ValueSize = 32
	c, err := cluster.New(cluster.Options{
		N:             4,
		Clients:       clients,
		Burst:         4,
		BatchSize:     20,
		WorkerThreads: w,
		// Inline verification (the paper's baseline assignment,
		// Section 4.3) with digital signatures puts real per-message
		// crypto on the worker lanes — the configuration where the
		// single worker-thread is the saturated stage (Figure 9 × the
		// Figure 13 signature cost) and lane scaling pays off.
		VerifyThreads:      -1,
		Crypto:             crypto.AllED25519(),
		Workload:           wl,
		CheckpointInterval: 25,
		Seed:               11,
	})
	if err != nil {
		return cluster.Result{}, replica.Stats{}, err
	}
	c.Start()
	defer c.Stop()
	res := c.Run(context.Background(), window)
	// Replica 1 is a backup: its worker lanes carry the full
	// pre-prepare/prepare/commit load (the paper's Figure 9 hotspot).
	return res, c.Replica(1).Stats(), nil
}
