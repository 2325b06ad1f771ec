package store

import (
	"fmt"
	"time"
)

// BackendConfig selects and parameterizes a record store. resdb-node and
// the in-process cluster both build their stores through OpenBackend so
// backend semantics — the fsync mapping, the on-disk layout — cannot drift
// between deployment styles.
type BackendConfig struct {
	// Backend is "mem" (default) or "sharded" (the durable group-commit
	// store).
	Backend string
	// Dir is the sharded backend's directory (ignored by mem).
	Dir string
	// ExecShards is ignored — a store's layout must not follow
	// -execute-shards. The name stays until the benchmark that sets it can
	// be changed.
	ExecShards int
	// SyncLinger selects durability: 0 never fsyncs; > 0 group-commits
	// the sharded backend, magnitude ignored — no linger is kept (see
	// ShardedDiskOptions.SyncLinger).
	SyncLinger time.Duration
	// CompactRatio is the sharded backend's garbage-ratio compaction
	// threshold (dead bytes / total log bytes, checked against the log when
	// the replica's stable-checkpoint trigger fires). 0 means the default
	// (store.DefaultCompactRatio); negative disables threshold-driven
	// compaction.
	CompactRatio float64
	// CompactMinBytes is the log size below which threshold-driven
	// compaction never rewrites. 0 means the default
	// (store.DefaultCompactMinBytes); negative removes the floor.
	CompactMinBytes int64
	// MemSizeHint sizes the in-memory store (0 means 1<<16 records).
	MemSizeHint int
	// ReadIndex is ignored: the sharded backend reads every value from
	// memory. The name stays until the benchmark that sets it can be
	// changed.
	ReadIndex bool
}

// OpenBackend builds the record store cfg describes.
func OpenBackend(cfg BackendConfig) (Store, error) {
	switch cfg.Backend {
	case "", "mem":
		hint := cfg.MemSizeHint
		if hint <= 0 {
			hint = 1 << 16
		}
		return NewMemStore(hint), nil
	case "sharded":
		return OpenShardedDisk(cfg.Dir, ShardedDiskOptions{
			SyncLinger:      cfg.SyncLinger,
			CompactRatio:    cfg.CompactRatio,
			CompactMinBytes: cfg.CompactMinBytes,
		})
	default:
		// "disk", the serial single-log backend, is gone: the sharded store
		// holds the same data in the same one log behind the same blocking
		// Put.
		return nil, fmt.Errorf("store: unknown backend %q (want mem|sharded; for the former serial \"disk\" backend use sharded)", cfg.Backend)
	}
}
