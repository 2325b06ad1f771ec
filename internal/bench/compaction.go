package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"resilientdb/internal/store"
	"resilientdb/internal/workload"
)

// compaction measures the storage follow-up to diskpipe: an append-only
// log grows with *history*, not live data, and reopening replays
// that whole history — the unbounded-garbage problem the paper's
// checkpoint protocol exists to solve (Section 4.7 licenses discarding
// old state once a checkpoint is stable; Section 5.7's off-memory store
// is only viable if its costs stay bounded).
//
// The experiment drives a sharded group-commit store through an
// overwrite-heavy Zipfian write history (the execute stage's partitioned
// PutMany path), then reports three rows:
//
//   - pre-compaction: log bytes ≈ full history, reopen replays all of it
//     (every record CRC-verified);
//   - post-compaction: after Compact() rewrites the live records (temp +
//     fsync + rename, crash-safe), log bytes ≈ live data and reopen
//     replays only that;
//   - the live-data floor the compacted log is compared against.
//
// The bytes ratio is the headline: post-compaction log size must track
// live data, not history, and the reopen time must shrink with it.
func compaction(s Scale) (Outcome, error) {
	const (
		records   = 2048
		valueSize = 256
		opsPerTxn = 8
		// partitions is E for the write history: each batch reaches the
		// store the way four execute shards apply it.
		partitions = 4
	)
	batches := 400 // ~51K writes over 2K keys: ~25x overwrite factor
	if s == ScalePaper {
		batches = 2000
	}
	const perBatch = 16 // txns per batch

	dir, err := os.MkdirTemp("", "resdb-compaction-")
	if err != nil {
		return Outcome{}, err
	}
	defer os.RemoveAll(dir)

	wl, err := workload.New(workload.Config{
		Records:      records,
		OpsPerTxn:    opsPerTxn,
		ValueSize:    valueSize,
		Distribution: workload.Zipf,
		Seed:         31,
	}, 3)
	if err != nil {
		return Outcome{}, err
	}

	// The store's default compaction thresholds: the forced Compact below
	// bypasses them by design (the experiment measures the rewrite itself).
	var opts store.ShardedDiskOptions
	st, err := store.OpenShardedDisk(dir, opts)
	if err != nil {
		return Outcome{}, err
	}

	// Write the history exactly as the execute stage does: each batch's
	// write-set partitioned by the execute stage's hash, one PutMany per
	// partition.
	writes := 0
	for b := 0; b < batches; b++ {
		parts := make([][]store.KV, partitions)
		req := wl.NextRequest(1, uint64(b*perBatch+1), perBatch)
		for i := range req.Txns {
			for _, op := range req.Txns[i].Ops {
				sh := workload.ShardOf(op.Key, partitions)
				parts[sh] = append(parts[sh], store.KV{Key: op.Key, Value: op.Value})
			}
		}
		for _, p := range parts {
			if len(p) == 0 {
				continue
			}
			if err := st.PutMany(p); err != nil {
				st.Close()
				return Outcome{}, err
			}
			writes += len(p)
		}
	}
	live := st.Len()
	if err := st.Close(); err != nil {
		return Outcome{}, err
	}

	preBytes, err := logBytes(dir)
	if err != nil {
		return Outcome{}, err
	}
	st, preReopen, err := timedReopen(dir, opts)
	if err != nil {
		return Outcome{}, err
	}

	// The trigger under test: rewrite the live records.
	if err := st.Compact(); err != nil {
		st.Close()
		return Outcome{}, err
	}
	cs := st.CompactStats()
	if err := st.Close(); err != nil {
		return Outcome{}, err
	}

	postBytes, err := logBytes(dir)
	if err != nil {
		return Outcome{}, err
	}
	st, postReopen, err := timedReopen(dir, opts)
	if err != nil {
		return Outcome{}, err
	}
	postLive := st.Len()
	st.Close()

	// The floor the compacted log is measured against: live records at the
	// v2 record overhead (16-byte header + value), plus the 8-byte file
	// header.
	liveBytes := int64(live)*(16+valueSize) + 8

	tab := Table{
		Title:   fmt.Sprintf("Checkpoint-driven log compaction (sharded store, %d writes over %d keys)", writes, records),
		Columns: []string{"state", "log bytes", "reopen", "records"},
	}
	tab.AddRow("pre-compaction", fmt.Sprintf("%d", preBytes), ms(preReopen), fmt.Sprintf("%d", live))
	tab.AddRow("post-compaction", fmt.Sprintf("%d", postBytes), ms(postReopen), fmt.Sprintf("%d", postLive))
	tab.AddRow("live-data floor", fmt.Sprintf("%d", liveBytes), "-", fmt.Sprintf("%d", live))

	metrics := map[string]float64{
		"compaction_log_bytes_pre":     float64(preBytes),
		"compaction_log_bytes_post":    float64(postBytes),
		"compaction_live_bytes":        float64(liveBytes),
		"compaction_reopen_ms_pre":     preReopen.Seconds() * 1000,
		"compaction_reopen_ms_post":    postReopen.Seconds() * 1000,
		"compaction_reclaimed_bytes":   float64(cs.ReclaimedBytes),
		"compaction_compactions":       float64(cs.Compactions),
		"compaction_stall_ms":          float64(cs.StallNS) / 1e6,
		"compaction_bytes_vs_live_x":   float64(postBytes) / float64(liveBytes),
		"compaction_history_vs_live_x": float64(preBytes) / float64(liveBytes),
	}
	return Outcome{Tables: []Table{tab}, Metrics: metrics}, nil
}

// logBytes sums the log sizes under dir.
func logBytes(dir string) (int64, error) {
	logs, err := filepath.Glob(filepath.Join(dir, "shard-*.log"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range logs {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// timedReopen opens the store and reports how long recovery (the full
// log replay, CRC-verified for v2 logs) took.
func timedReopen(dir string, opts store.ShardedDiskOptions) (*store.ShardedDiskStore, time.Duration, error) {
	t0 := time.Now()
	st, err := store.OpenShardedDisk(dir, opts)
	if err != nil {
		return nil, 0, err
	}
	return st, time.Since(t0), nil
}
