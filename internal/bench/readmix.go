package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/workload"
)

// readmix compares the two ways a read-only request can travel — ordered
// through consensus like every write (the paper's only path), or served
// by a single replica from its last-executed snapshot without a consensus
// round — under YCSB mixes on the real 4-replica pipeline:
//
//   - workload A (50% reads): reads and writes interleave, so conflict
//     ordering inside the execute shards is live in every row.
//   - workload C (read-only): the pure contrast. In local mode the
//     cluster proposes no batches at all.
//
// Each row runs a warmup window (discarded) then a measured window; the
// "seq used" column is the backup's ledger-height growth during the
// measured window — the direct evidence that locally-served reads consume
// no sequence numbers, while consensus-ordered reads burn a slot per
// batch exactly like writes.
//
// On a few-core machine the latency percentiles are scheduler-noisy
// (dozens of runnable closed-loop clients share the cores, so the
// percentiles pick up run-queue wait, not server time); the local, seq-used, and throughput columns are the quantities
// to watch there (cf. the diskpipe guidance).
func readmix(s Scale) (Outcome, error) {
	warmup := 300 * time.Millisecond
	window := 600 * time.Millisecond
	clients := 48
	if s == ScalePaper {
		warmup = 1 * time.Second
		window = 2 * time.Second
		clients = 160
	}

	type row struct {
		name string
		frac float64
		mode string
	}
	rows := []row{
		{name: "quorum-a", frac: 0.5, mode: "quorum"},
		{name: "local-a", frac: 0.5, mode: "local"},
		{name: "quorum-c", frac: 1.0, mode: "quorum"},
		{name: "local-c", frac: 1.0, mode: "local"},
	}

	tab := Table{
		Title: "Read path: consensus-ordered vs locally-served reads (PBFT, real pipeline, E=4)",
		Columns: []string{"row", "reads", "tput", "read p50", "read p95",
			"write p50", "local", "seq used"},
	}
	metrics := map[string]float64{}
	var quorumReadP50, localReadP50 time.Duration

	for _, r := range rows {
		res, seqUsed, err := runReadMix(r.frac, r.mode, clients, warmup, window)
		if err != nil {
			return Outcome{}, err
		}
		tab.AddRow(r.name, pct(r.frac), ktps(res.Throughput),
			ms(res.ReadP50Lat), ms(res.ReadP95Lat), ms(res.WriteP50Lat),
			fmt.Sprintf("%d", res.LocalReads), fmt.Sprintf("%d", seqUsed))

		key := strings.ReplaceAll(r.name, "-", "_")
		metrics["readmix_tput_"+key] = res.Throughput
		metrics["readmix_read_p50_ms_"+key] = float64(res.ReadP50Lat) / 1e6
		metrics["readmix_read_p95_ms_"+key] = float64(res.ReadP95Lat) / 1e6
		metrics["readmix_write_p50_ms_"+key] = float64(res.WriteP50Lat) / 1e6
		metrics["readmix_write_p95_ms_"+key] = float64(res.WriteP95Lat) / 1e6
		metrics["readmix_local_reads_"+key] = float64(res.LocalReads)
		metrics["readmix_seq_used_"+key] = float64(seqUsed)
		switch r.name {
		case "quorum-a":
			quorumReadP50 = res.ReadP50Lat
		case "local-a":
			localReadP50 = res.ReadP50Lat
		}
	}
	if localReadP50 > 0 {
		// How much a read saves by skipping the three-phase round. The
		// workload-A rows are compared because both run the same write
		// load, so the two read paths face identical machine conditions.
		metrics["readmix_local_read_speedup_x"] =
			float64(quorumReadP50) / float64(localReadP50)
	}
	return Outcome{Tables: []Table{tab}, Metrics: metrics}, nil
}

// runReadMix runs one PBFT cluster at the given read fraction and read
// mode: a warmup window whose counters are discarded, then the measured
// window. It returns the measured result plus the backup's ledger-height
// growth across the measured window (the sequence numbers the load
// actually consumed — zero when read-only traffic never enters
// consensus).
func runReadMix(frac float64, mode string, clients int, warmup, window time.Duration) (cluster.Result, uint64, error) {
	wl := workload.Default()
	wl.Records = 4096
	wl.ReadFraction = frac
	c, err := cluster.New(cluster.Options{
		N:                  4,
		Clients:            clients,
		Burst:              2,
		BatchSize:          20,
		ExecuteThreads:     4,
		ExecPipelineDepth:  2,
		Workload:           wl,
		CheckpointInterval: 25,
		Seed:               13,
		ReadMode:           mode,
		PreloadTable:       true,
	})
	if err != nil {
		return cluster.Result{}, 0, err
	}
	c.Start()
	defer c.Stop()
	ctx := context.Background()
	c.Run(ctx, warmup)
	before := c.Replica(1).Ledger().Height()
	res := c.Run(ctx, window)
	seqUsed := c.Replica(1).Ledger().Height() - before
	return res, seqUsed, nil
}
