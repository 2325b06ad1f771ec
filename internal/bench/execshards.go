package bench

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/replica"
	"resilientdb/internal/workload"
)

// execshards measures how the execute stage behaves as committed batches
// are fanned out across E write-set-partitioned shard workers. It runs the
// real replica pipeline (in-process transport): the quantity under test —
// the coordinator/shard split of the execute stage — only exists in the
// runnable system.
//
// Execution is a serialized pipeline stage ("What Blocks My Blockchain's
// Throughput?" finds execution dominates once ordering scales). The
// per-shard busy table is the evidence that the write-set partition spreads
// a skewed (Zipfian) load across all shards; on a few-core machine the
// busy-time split, not wall-clock throughput, is the quantity that scales.
//
// Throughput is wall-clock, so one window per E can see different
// contention from whatever else shares the machine. The sweep therefore
// runs three times, alternating E within each round, and each row reports
// the run with the median throughput; the minimum shard busy time is the
// least over every round, so an idle shard in any window shows.
func execshards(s Scale) (Outcome, error) {
	window := 600 * time.Millisecond
	clients := 64
	if s == ScalePaper {
		window = 2 * time.Second
		clients = 192
	}
	sweep := []int{1, 2, 4}
	const rounds = 3

	type run struct {
		res    cluster.Result
		backup replica.Stats
	}
	runs := make([][]run, len(sweep))
	for r := 0; r < rounds; r++ {
		for i, e := range sweep {
			res, backup, err := runExecLoad(e, clients, window)
			if err != nil {
				return Outcome{}, err
			}
			runs[i] = append(runs[i], run{res, backup})
		}
	}

	tab := Table{
		Title: "Execution-shard scaling (PBFT, real pipeline, write-set partitioning; median of 3 alternating rounds)",
		Columns: []string{"E", "tput", "p50", "exec stage busy ms",
			"shard busy ms", "busiest shard"},
	}
	metrics := map[string]float64{}
	var baseTput, lastTput float64

	for i, e := range sweep {
		minShard := 0.0
		for j, r := range runs[i] {
			if len(r.backup.ExecShardBusyNS) == 0 {
				continue
			}
			if m := float64(slices.Min(r.backup.ExecShardBusyNS)); j == 0 || m < minShard {
				minShard = m
			}
		}
		slices.SortFunc(runs[i], func(a, b run) int { return cmp.Compare(a.res.Throughput, b.res.Throughput) })
		res, backup := runs[i][rounds/2].res, runs[i][rounds/2].backup
		winNS := float64(res.Duration.Nanoseconds())

		// The execute stage at a backup: coordinator busy time (BusyNS:
		// staging and retiring) plus the per-shard apply split. At E=1
		// there are no shards: the apply runs inline on the coordinator
		// and is folded into the stage column.
		execMS := float64(backup.BusyNS[replica.StageExecute]) / 1e6
		shardCells := "-"
		maxShard := 0.0
		if len(backup.ExecShardBusyNS) > 0 {
			cells := make([]string, len(backup.ExecShardBusyNS))
			for i, ns := range backup.ExecShardBusyNS {
				cells[i] = fmt.Sprintf("%.1f", float64(ns)/1e6)
				if share := float64(ns) / winNS; share > maxShard {
					maxShard = share
				}
			}
			shardCells = strings.Join(cells, " ")
		}

		tab.AddRow(fmt.Sprintf("%d", e), ktps(res.Throughput), ms(res.P50Lat),
			fmt.Sprintf("%.1f", execMS), shardCells, pct(maxShard))

		metrics[fmt.Sprintf("execshards_tput_e%d", e)] = res.Throughput
		metrics[fmt.Sprintf("execshards_exec_busy_ms_e%d", e)] = execMS
		metrics[fmt.Sprintf("execshards_min_shard_busy_ns_e%d", e)] = minShard
		if e == 1 {
			baseTput = res.Throughput
		}
		lastTput = res.Throughput
	}
	if baseTput > 0 {
		metrics["execshards_gain_x"] = lastTput / baseTput
	}
	return Outcome{Tables: []Table{tab}, Metrics: metrics}, nil
}

// runExecLoad runs one PBFT cluster with E execution shards under an
// execution-heavy load and returns the client-side result plus a backup
// replica's stats (execution runs at every replica; the backup isolates
// it from the primary's batching work).
func runExecLoad(e, clients int, window time.Duration) (cluster.Result, replica.Stats, error) {
	wl := workload.Default()
	wl.Records = 8192
	// Multi-op transactions with fat values make execution a real stage:
	// 8 writes × 256 bytes per txn is the Section 5.4 regime where
	// execution cost dominates the batch.
	wl.OpsPerTxn = 8
	wl.ValueSize = 256
	c, err := cluster.New(cluster.Options{
		N:                  4,
		Clients:            clients,
		Burst:              4,
		BatchSize:          20,
		ExecuteThreads:     e,
		Workload:           wl,
		CheckpointInterval: 25,
		Seed:               13,
	})
	if err != nil {
		return cluster.Result{}, replica.Stats{}, err
	}
	c.Start()
	defer c.Stop()
	res := c.Run(context.Background(), window)
	return res, c.Replica(1).Stats(), nil
}
