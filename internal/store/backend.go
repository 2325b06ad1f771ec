package store

import (
	"fmt"
	"time"
)

// BackendConfig selects and parameterizes a record store. resdb-node and
// the in-process cluster both build their stores through OpenBackend so
// backend semantics — the fsync mapping, the shard-count alignment rule,
// the on-disk layout — cannot drift between deployment styles.
type BackendConfig struct {
	// Backend is "mem" (default) or "sharded" (the durable group-commit
	// store, one append log per shard).
	Backend string
	// Dir is the sharded backend's directory (ignored by mem).
	Dir string
	// Shards is the sharded backend's append-log count; 0 aligns it with
	// ExecShards so each execution shard streams to a private log.
	Shards int
	// ExecShards is the execution shard count Shards aligns to when 0.
	ExecShards int
	// SyncLinger selects durability: 0 never fsyncs; > 0 group-commits
	// the sharded backend, magnitude ignored — no linger is kept (see
	// ShardedDiskOptions.SyncLinger).
	SyncLinger time.Duration
	// CompactRatio is the sharded backend's garbage-ratio compaction
	// threshold (dead bytes / total log bytes, checked per shard log when
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
	// ReadIndex gives the sharded backend an in-memory read index so Get —
	// and with it the locally-served read path — never touches a log file
	// or shard lock. Ignored by mem (already memory-resident). Replica
	// deployments enable it by default via the -store-read-index knob.
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
		shards := cfg.Shards
		if shards == 0 {
			shards = cfg.ExecShards
		}
		return OpenShardedDisk(cfg.Dir, ShardedDiskOptions{
			Shards:          shards,
			SyncLinger:      cfg.SyncLinger,
			CompactRatio:    cfg.CompactRatio,
			CompactMinBytes: cfg.CompactMinBytes,
			ReadIndex:       cfg.ReadIndex,
		})
	default:
		// "disk", the serial single-log backend, is gone: one shard of the
		// sharded store holds the same data behind the same blocking Put.
		return nil, fmt.Errorf("store: unknown backend %q (want mem|sharded; for the former serial \"disk\" backend use sharded -store-shards 1)", cfg.Backend)
	}
}
