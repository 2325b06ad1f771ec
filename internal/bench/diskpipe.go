package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/replica"
	"resilientdb/internal/store"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

const (
	// diskpipeExecShards is E for every diskpipe row, so the storage
	// backend is the only axis that moves.
	diskpipeExecShards = 4
	// diskpipeDepth is the cross-batch execution pipelining depth of the
	// sharded-store rows.
	diskpipeDepth = 4
)

// diskpipe measures the durable storage pipeline on the real replica
// stack (in-process transport, E = 4 execution shards throughout, so the
// storage backend is the only axis that moves):
//
//   - mem: the paper's recommended in-memory table (Section 6 "Memory
//     Storage") — the ceiling.
//   - disk-serial: the Section 5.7 off-memory contrast — the same disk
//     store with one log, reached through nothing but the blocking
//     store.Store interface (serialStore), so every record is its own Put
//     and waits out its own append and fsync: the naive durable store whose
//     cost the paper measures at ~94% of throughput.
//   - sharded-gc: the refactored store as deployed — one append log that
//     all E shard workers write their partitions to, group commit
//     amortizing the fsync across every write since the last one, and
//     cross-batch execution pipelining keeping the shards fed across batch
//     barriers.
//   - sharded-gc-rmix: sharded-gc under half reads ordered through
//     consensus. A read needs the writes before it appended, not durable,
//     so it must cost no fsync of its own.
//
// The fsync columns are the mechanism made visible: serial fsync stalls
// the execute stage once per record; the shard workers append and move on,
// the wait for a covering fsync happens off them at retirement, and the
// batches that append during one fsync share the next: batches/fsync above
// 1 is consecutive batches landing in one group. On a few-core machine
// these counts, not wall-clock throughput, are the quantity to watch (cf.
// the execshards guidance).
func diskpipe(s Scale) (Outcome, error) {
	window := 600 * time.Millisecond
	clients := 64
	if s == ScalePaper {
		window = 2 * time.Second
		clients = 192
	}
	rows := []diskRow{
		{name: "mem", backend: "mem", depth: 1},
		{name: "disk-serial", backend: "sharded", serial: true, depth: 1},
		{name: "sharded-gc", backend: "sharded", depth: diskpipeDepth},
		{name: "sharded-gc-rmix", backend: "sharded", depth: diskpipeDepth, readFrac: 0.5},
	}

	tab := Table{
		Title: "Durable storage pipeline (PBFT, real pipeline, E=4 execution shards)",
		Columns: []string{"store", "tput", "p50", "fsyncs", "fsyncs/ktxn",
			"batches/fsync", "fsync stall ms", "shard busy ms"},
	}
	metrics := map[string]float64{}
	var memTput, diskTput, shardedTput float64

	for _, r := range rows {
		res, backup, err := runDiskLoad(r, diskpipeExecShards, clients, window)
		if err != nil {
			return Outcome{}, err
		}
		stallMS := float64(backup.StoreFsyncStallNS) / 1e6
		perKTxn, perFsync := "-", "-"
		var fsyncsPerKTxn, batchesPerFsync float64
		if backup.StoreFsyncs > 0 && backup.TxnsExecuted > 0 {
			fsyncsPerKTxn = float64(backup.StoreFsyncs) / float64(backup.TxnsExecuted) * 1e3
			batchesPerFsync = float64(backup.BatchesExecuted) / float64(backup.StoreFsyncs)
			perKTxn, perFsync = fmt.Sprintf("%.1f", fsyncsPerKTxn), fmt.Sprintf("%.2f", batchesPerFsync)
		}
		shardCells := "-"
		if len(backup.ExecShardBusyNS) > 0 {
			cells := make([]string, len(backup.ExecShardBusyNS))
			for i, ns := range backup.ExecShardBusyNS {
				cells[i] = fmt.Sprintf("%.1f", float64(ns)/1e6)
			}
			shardCells = strings.Join(cells, " ")
		}
		tab.AddRow(r.name, ktps(res.Throughput), ms(res.P50Lat),
			fmt.Sprintf("%d", backup.StoreFsyncs), perKTxn, perFsync,
			fmt.Sprintf("%.1f", stallMS), shardCells)

		key := strings.ReplaceAll(r.name, "-", "_")
		metrics["diskpipe_tput_"+key] = res.Throughput
		metrics["diskpipe_fsyncs_"+key] = float64(backup.StoreFsyncs)
		metrics["diskpipe_fsyncs_per_ktxn_"+key] = fsyncsPerKTxn
		metrics["diskpipe_batches_per_fsync_"+key] = batchesPerFsync
		metrics["diskpipe_fsync_stall_ms_"+key] = stallMS
		switch r.name {
		case "mem":
			memTput = res.Throughput
		case "disk-serial":
			diskTput = res.Throughput
		case "sharded-gc":
			shardedTput = res.Throughput
		}
	}
	if diskTput > 0 {
		metrics["diskpipe_sharded_vs_disk_x"] = shardedTput / diskTput
	}
	if gap := memTput - diskTput; gap > 0 {
		// How much of the off-memory penalty the sharded group-commit
		// store wins back (can exceed 100 on a machine where group commit
		// plus pipelining beats even the memory row's variance).
		metrics["diskpipe_gap_closed_pct"] = (shardedTput - diskTput) / gap * 100
	}
	return Outcome{Tables: []Table{tab}, Metrics: metrics}, nil
}

// diskRow is one store configuration of the diskpipe experiment. serial
// hands the replica the store as a serialStore.
type diskRow struct {
	name     string
	backend  string
	serial   bool
	depth    int
	readFrac float64
}

// runDiskLoad runs one PBFT cluster with the row's store under the
// execshards Zipfian load — writes, with readFrac of the ops turned into
// reads ordered through consensus — and returns the client-side result
// plus a backup replica's stats (execution and storage run at every
// replica; the backup isolates them from the primary's batching work). A
// serial row's fsync counters are read from the store itself, which the
// replica cannot see through the wrapper.
func runDiskLoad(row diskRow, execShards, clients int, window time.Duration) (cluster.Result, replica.Stats, error) {
	wl := workload.Default()
	wl.Records = 8192
	wl.ReadFraction = row.readFrac
	// The execshards regime: multi-op transactions with fat values make
	// the store the stage under test.
	wl.OpsPerTxn = 8
	wl.ValueSize = 256
	opts := cluster.Options{
		N:                  4,
		Clients:            clients,
		Burst:              4,
		BatchSize:          20,
		ExecuteThreads:     execShards,
		ExecPipelineDepth:  row.depth,
		StoreBackend:       row.backend,
		StoreSync:          row.backend == "sharded",
		Workload:           wl,
		CheckpointInterval: 25,
		Seed:               13,
	}
	if row.serial {
		opts.StoreWrapper = func(_ types.ReplicaID, st store.Store) store.Store {
			return serialStore{st}
		}
	}
	c, err := cluster.New(opts)
	if err != nil {
		return cluster.Result{}, replica.Stats{}, err
	}
	c.Start()
	defer c.Stop()
	res := c.Run(context.Background(), window)
	backup := c.Replica(1).Stats()
	if row.serial {
		sy := c.Store(1).(store.SyncStatser).SyncStats()
		backup.StoreFsyncs, backup.StoreFsyncStallNS = sy.Fsyncs, sy.FsyncStallNS
	}
	return res, backup, nil
}

// serialStore is the Section 5.7 blocking store: it shows the replica only
// the store.Store interface, and its PutMany is one Put per record, so every
// record waits out its own append and fsync.
type serialStore struct{ store.Store }

func (s serialStore) PutMany(kvs []store.KV) error {
	for _, kv := range kvs {
		if err := s.Put(kv.Key, kv.Value); err != nil {
			return err
		}
	}
	return nil
}
