package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/replica"
	"resilientdb/internal/workload"
)

// smallOpts returns options sized for fast tests: 4 replicas, small
// batches, aggressive linger, tiny YCSB table.
func smallOpts() Options {
	wl := workload.Default()
	wl.Records = 1000
	wl.ValueSize = 16
	return Options{
		N:                  4,
		Clients:            8,
		BatchSize:          8,
		CheckpointInterval: 4,
		Workload:           wl,
		ClientTimeout:      400 * time.Millisecond,
		Seed:               7,
	}
}

func runCluster(t *testing.T, opts Options, d time.Duration) (*Cluster, Result) {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	res := c.Run(context.Background(), d)
	return c, res
}

// TestClusterRejectsDiskBackend: the serial "disk" backend is gone; asking
// for it fails New with the replacement named.
func TestClusterRejectsDiskBackend(t *testing.T) {
	opts := smallOpts()
	opts.StoreBackend = "disk"
	_, err := New(opts)
	if err == nil || !strings.Contains(err.Error(), `"disk" backend use sharded`) {
		t.Fatalf("New with the disk backend = %v, want an error naming sharded", err)
	}
}

func TestPBFTClusterEndToEnd(t *testing.T) {
	c, res := runCluster(t, smallOpts(), 1500*time.Millisecond)
	if res.Txns == 0 {
		t.Fatalf("no transactions completed: %s", res)
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
	// Every replica executed the same batches and built real blocks.
	h := c.Replica(0).Ledger().Height()
	if h == 0 {
		t.Fatal("ledger never grew")
	}
	// Commit-certificate blocks carry 2f+1 proof entries.
	blk, err := c.Replica(0).Ledger().Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.CommitProof) < 3 {
		t.Fatalf("block carries %d commit sigs, want ≥ 3", len(blk.CommitProof))
	}
	// Client-side results were all fast path (no failures injected).
	if res.SlowPath != 0 {
		t.Fatalf("unexpected slow-path completions: %s", res)
	}
}

func TestZyzzyvaClusterEndToEnd(t *testing.T) {
	opts := smallOpts()
	opts.Protocol = replica.Zyzzyva
	c, res := runCluster(t, opts, 1500*time.Millisecond)
	if res.Txns == 0 {
		t.Fatalf("no transactions completed: %s", res)
	}
	if res.FastPath == 0 {
		t.Fatalf("fault-free Zyzzyva never used the fast path: %s", res)
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
}

func TestPBFTSurvivesBackupCrash(t *testing.T) {
	opts := smallOpts()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	c.Crash(3) // crash one backup before any load
	res := c.Run(context.Background(), 1500*time.Millisecond)
	if res.Txns == 0 {
		t.Fatalf("PBFT made no progress with one backup down: %s", res)
	}
	live := func(i int) bool { return i != 3 }
	if err := c.VerifyLedgers(live); err != nil {
		t.Fatal(err)
	}
}

func TestZyzzyvaBackupCrashForcesSlowPath(t *testing.T) {
	opts := smallOpts()
	opts.Protocol = replica.Zyzzyva
	opts.ClientTimeout = 100 * time.Millisecond // "wait for only a little time"
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	c.Crash(3)
	res := c.Run(context.Background(), 1500*time.Millisecond)
	if res.Txns == 0 {
		t.Fatalf("Zyzzyva completed nothing via slow path: %s", res)
	}
	if res.SlowPath == 0 {
		t.Fatalf("one crashed backup should force the slow path: %s", res)
	}
	if res.FastPath != 0 {
		t.Fatalf("fast path impossible with a crashed replica: %s", res)
	}
}

func TestClusterCryptoSchemes(t *testing.T) {
	schemes := map[string]crypto.Config{
		"nosig":       crypto.NoSig(),
		"ed25519":     crypto.AllED25519(),
		"recommended": crypto.Recommended(),
	}
	for name, cc := range schemes {
		t.Run(name, func(t *testing.T) {
			opts := smallOpts()
			opts.Clients = 4
			opts.Crypto = cc
			c, res := runCluster(t, opts, 800*time.Millisecond)
			if res.Txns == 0 {
				t.Fatalf("no progress under %s: %s", name, res)
			}
			if err := c.VerifyLedgers(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestClusterThreadConfigs(t *testing.T) {
	// The Section 5.2 configurations: 0B/0E, 0B/1E, 1B/1E, 2B/1E.
	configs := []struct {
		name string
		b, e int
	}{
		{"0B0E", -1, -1}, // -1 requests the folded stages explicitly
		{"0B1E", -1, 1},
		{"1B1E", 1, 1},
		{"2B1E", 2, 1},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts()
			opts.Clients = 4
			opts.BatchThreads = tc.b
			opts.ExecuteThreads = tc.e
			c, res := runCluster(t, opts, 800*time.Millisecond)
			if res.Txns == 0 {
				t.Fatalf("no progress under %s: %s", tc.name, res)
			}
			if err := c.VerifyLedgers(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterExecuteShards runs the full pipeline with write-set
// partitioned execution (E=4) under a skewed multi-op load: the cluster
// must stay live, agree across replicas — every replica's store must be
// byte-identical once they reach the same height, the cross-replica form
// of the determinism guarantee — and every shard must do work.
func TestClusterExecuteShards(t *testing.T) {
	opts := smallOpts()
	opts.ExecuteThreads = 4
	opts.Workload.OpsPerTxn = 4
	c, res := runCluster(t, opts, 1200*time.Millisecond)
	if res.Txns == 0 {
		t.Fatalf("no transactions completed: %s", res)
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
	target := c.Replica(0).Ledger().Height()
	if got := c.WaitForHeight(target, 5*time.Second, nil); got < target {
		t.Fatalf("backups stuck at height %d < %d", got, target)
	}
	// Height tracks commitment; the stores reflect retirement, which
	// trails it. Compare stores only once every replica has retired
	// through one agreed height.
	if !c.WaitForQuiesce(5*time.Second, nil) {
		t.Fatal("cluster did not quiesce: ledgers or retirement still diverge")
	}
	for i := 0; i < opts.N; i++ {
		s := c.Replica(i).Stats()
		if s.ExecShards != 4 || len(s.ExecShardBusyNS) != 4 {
			t.Fatalf("replica %d runs %d shards (%v), want 4", i, s.ExecShards, s.ExecShardBusyNS)
		}
		for sh, ns := range s.ExecShardBusyNS {
			if ns == 0 {
				t.Fatalf("replica %d shard %d never did work: %v", i, sh, s.ExecShardBusyNS)
			}
		}
	}
	// Byte-identical stores across replicas.
	ref := c.Replica(0).Store()
	for i := 1; i < opts.N; i++ {
		st := c.Replica(i).Store()
		for key := uint64(0); key < opts.Workload.Records; key++ {
			want, errW := ref.Get(key)
			got, errG := st.Get(key)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("replica %d key %d presence mismatch: %v vs %v", i, key, errG, errW)
			}
			if errW == nil && string(got) != string(want) {
				t.Fatalf("replica %d key %d = %q, replica 0 has %q", i, key, got, want)
			}
		}
	}
}

func TestClusterBursts(t *testing.T) {
	opts := smallOpts()
	opts.Burst = 5 // client-side batching: five txns per request
	c, res := runCluster(t, opts, 1200*time.Millisecond)
	if res.Txns == 0 || res.Txns%5 != 0 {
		t.Fatalf("burst accounting broken: %s", res)
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterExecutionAppliesWrites(t *testing.T) {
	opts := smallOpts()
	opts.Clients = 2
	c, res := runCluster(t, opts, 800*time.Millisecond)
	if res.Txns == 0 {
		t.Fatal("no transactions")
	}
	// Let the backups finish executing everything the primary committed.
	target := c.Replica(0).Ledger().Height()
	if got := c.WaitForHeight(target, 5*time.Second, nil); got < target {
		t.Fatalf("backups stuck at height %d < %d", got, target)
	}
	if !c.WaitForQuiesce(5*time.Second, nil) {
		t.Fatal("cluster did not quiesce: ledgers or retirement still diverge")
	}
	// Executed writes must be visible in every replica's store, and all
	// stores must agree on the record count (same writes applied).
	want := c.Replica(0).Store().Len()
	if want == 0 {
		t.Fatal("primary store is empty after execution")
	}
	for i := 1; i < opts.N; i++ {
		if got := c.Replica(i).Store().Len(); got != want {
			t.Fatalf("replica %d has %d records, replica 0 has %d", i, got, want)
		}
	}
}

func TestClusterCheckpointPrunesLedger(t *testing.T) {
	opts := smallOpts()
	opts.CheckpointInterval = 2
	c, res := runCluster(t, opts, 1500*time.Millisecond)
	if res.Txns == 0 {
		t.Fatal("no transactions")
	}
	// After checkpoints, early blocks must be pruned from the ledger.
	r := c.Replica(0)
	if r.Stats().Checkpoints == 0 {
		t.Skip("no checkpoint completed in the test window")
	}
	if _, err := r.Ledger().Get(1); err == nil {
		t.Fatal("block 1 still present after stable checkpoints")
	}
}

// TestClusterCheckpointTriggersCompaction drives the full wiring of the
// storage garbage-collection path: a sharded durable store under an
// overwrite-heavy load, with a small checkpoint interval and an
// aggressive garbage-ratio threshold — stable checkpoints must fire the
// replica's compactor, log rewrites must be reported in Stats, and the
// cluster must stay correct (agreeing ledgers) while logs are rewritten
// under live execution.
func TestClusterCheckpointTriggersCompaction(t *testing.T) {
	opts := smallOpts()
	opts.CheckpointInterval = 2
	opts.ExecuteThreads = 2
	opts.StoreBackend = "sharded"
	opts.StoreSync = true
	// Tiny key space → heavy overwrites → garbage accumulates fast; no
	// size floor and a low ratio so the trigger fires inside the window.
	opts.Workload.Records = 128
	opts.StoreCompactRatio = 0.05
	opts.StoreCompactMinBytes = -1
	c, res := runCluster(t, opts, 1500*time.Millisecond)
	if res.Txns == 0 {
		t.Fatal("no transactions")
	}
	r := c.Replica(1) // a backup: execution and storage without batching noise
	s := r.Stats()
	if s.Checkpoints == 0 {
		t.Skip("no checkpoint completed in the test window")
	}
	if s.StoreCompactions == 0 {
		t.Fatal("stable checkpoints never triggered a store compaction")
	}
	if s.StoreCompactFailures != 0 {
		t.Fatalf("StoreCompactFailures = %d", s.StoreCompactFailures)
	}
	if s.StoreCompactReclaimedBytes == 0 {
		t.Fatal("compaction reclaimed no bytes under an overwrite-heavy load")
	}
	if s.StoreWriteFailures != 0 {
		t.Fatalf("StoreWriteFailures = %d: compaction lost or rejected writes", s.StoreWriteFailures)
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
}

func TestViewChangeAfterPrimaryCrash(t *testing.T) {
	opts := smallOpts()
	opts.Clients = 4
	opts.ViewTimeout = 150 * time.Millisecond
	opts.ClientTimeout = 100 * time.Millisecond
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)

	// Warm up under primary 0.
	res1 := c.Run(context.Background(), 600*time.Millisecond)
	if res1.Txns == 0 {
		t.Fatalf("no progress before crash: %s", res1)
	}
	// Crash the primary; clients retransmit to backups, watchdogs fire,
	// replica 1 takes over view 1.
	c.Crash(0)
	res2 := c.Run(context.Background(), 2500*time.Millisecond)
	if res2.Txns == 0 {
		t.Fatalf("no progress after primary crash: %s", res2)
	}
	live := func(i int) bool { return i != 0 }
	if err := c.VerifyLedgers(live); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if v := c.Replica(i).Stats().View; v == 0 {
			t.Fatalf("replica %d never left view 0", i)
		}
	}
}

func TestReplicaStatsAccounting(t *testing.T) {
	c, res := runCluster(t, smallOpts(), 800*time.Millisecond)
	if res.Txns == 0 {
		t.Fatal("no transactions")
	}
	s := c.Replica(0).Stats()
	if s.TxnsExecuted == 0 || s.BatchesExecuted == 0 {
		t.Fatalf("primary stats empty: %+v", s)
	}
	if s.MsgsIn == 0 || s.MsgsOut == 0 {
		t.Fatalf("message counters empty: %+v", s)
	}
	if s.LedgerHeight == 0 {
		t.Fatalf("ledger height zero: %+v", s)
	}
	// Busy-time accounting must attribute work to the standard stages.
	for _, st := range []replica.Stage{replica.StageWorker, replica.StageExecute, replica.StageBatch} {
		if s.BusyNS[st] == 0 {
			t.Fatalf("stage %v recorded no busy time", st)
		}
	}
}

func TestLedgerModesAgree(t *testing.T) {
	for _, mode := range []ledger.Mode{ledger.HashChain, ledger.CommitCertificate} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := smallOpts()
			opts.Clients = 4
			opts.LedgerMode = mode
			c, res := runCluster(t, opts, 800*time.Millisecond)
			if res.Txns == 0 {
				t.Fatal("no transactions")
			}
			if err := c.VerifyLedgers(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDisableOutOfOrderStillCorrect(t *testing.T) {
	opts := smallOpts()
	opts.Clients = 4
	opts.DisableOutOfOrder = true
	c, res := runCluster(t, opts, 800*time.Millisecond)
	if res.Txns == 0 {
		t.Fatal("no transactions with sequential consensus")
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
}

// TestClusterReadMixThroughConsensus: with a 50% read fraction in the
// default quorum read mode, reads order through consensus like writes —
// every replica executes them, clients complete them against a response
// quorum, and nothing takes the local bypass.
func TestClusterReadMixThroughConsensus(t *testing.T) {
	opts := smallOpts()
	opts.Workload.ReadFraction = 0.5
	opts.PreloadTable = true
	c, res := runCluster(t, opts, 1500*time.Millisecond)
	if res.ReadTxns == 0 || res.WriteTxns == 0 {
		t.Fatalf("mixed workload did not complete both kinds: %s", res)
	}
	if res.LocalReads != 0 {
		t.Fatalf("quorum mode used the local read path: %s", res)
	}
	if reads := c.Replica(0).Stats().ReadsExecuted; reads == 0 {
		t.Fatal("no reads executed through consensus")
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
}

// TestClusterLocalReads: in local read mode, read-only requests are served
// by single replicas while writes keep flowing through consensus, and the
// ledgers still agree.
func TestClusterLocalReads(t *testing.T) {
	opts := smallOpts()
	opts.Workload.ReadFraction = 0.5
	opts.ReadMode = "local"
	opts.PreloadTable = true
	c, res := runCluster(t, opts, 1500*time.Millisecond)
	if res.ReadTxns == 0 || res.WriteTxns == 0 {
		t.Fatalf("mixed workload did not complete both kinds: %s", res)
	}
	if res.LocalReads == 0 {
		t.Fatalf("local mode never served a read locally: %s", res)
	}
	var served uint64
	for i := 0; i < opts.N; i++ {
		served += c.Replica(i).Stats().LocalReads
	}
	if served == 0 {
		t.Fatal("no replica reports serving local reads")
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
}

// TestLocalReadsBypassConsensus is the acceptance check for the
// consensus-bypassing read path: under a pure read workload (preset C) in
// local mode, every read completes while no replica proposes a single
// batch — local reads consume no sequence numbers at all.
func TestLocalReadsBypassConsensus(t *testing.T) {
	opts := smallOpts()
	opts.Workload.Preset = "c"
	opts.ReadMode = "local"
	opts.PreloadTable = true
	c, res := runCluster(t, opts, 800*time.Millisecond)
	if res.ReadTxns == 0 || res.LocalReads == 0 {
		t.Fatalf("pure read load completed nothing locally: %s", res)
	}
	if res.WriteTxns != 0 {
		t.Fatalf("preset C produced writes: %s", res)
	}
	for i := 0; i < opts.N; i++ {
		s := c.Replica(i).Stats()
		if s.BatchesProposed != 0 || s.LedgerHeight != 0 {
			t.Fatalf("replica %d sequenced work under a local-read-only load: proposed=%d height=%d",
				i, s.BatchesProposed, s.LedgerHeight)
		}
	}
}

// TestClusterScanMix: a write/read/scan mix in the default quorum mode
// completes all three transaction kinds through consensus — scans execute
// on every replica, their rows come back under the f+1 attested result
// digest, and the ledgers agree.
func TestClusterScanMix(t *testing.T) {
	opts := smallOpts()
	opts.Workload.ReadFraction = 0.25
	opts.Workload.ScanFraction = 0.25
	opts.Workload.ScanLength = 16
	opts.PreloadTable = true
	c, res := runCluster(t, opts, 1500*time.Millisecond)
	if res.ReadTxns == 0 || res.ScanTxns == 0 || res.WriteTxns == 0 {
		t.Fatalf("mixed workload did not complete all kinds: %s", res)
	}
	if res.LocalReads != 0 {
		t.Fatalf("quorum mode used the local read path: %s", res)
	}
	if res.ScanP95Lat == 0 {
		t.Fatalf("no scan latency recorded: %s", res)
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
}

// TestClusterLocalScans: in local read mode a write-free scan request
// rides the consensus-bypassing ReadRequest path (Scans tail) like point
// reads do, while writes keep flowing through consensus.
func TestClusterLocalScans(t *testing.T) {
	opts := smallOpts()
	opts.Workload.ReadFraction = 0.25
	opts.Workload.ScanFraction = 0.25
	opts.Workload.ScanLength = 16
	opts.ReadMode = "local"
	opts.PreloadTable = true
	c, res := runCluster(t, opts, 1500*time.Millisecond)
	if res.ReadTxns == 0 || res.ScanTxns == 0 || res.WriteTxns == 0 {
		t.Fatalf("mixed workload did not complete all kinds: %s", res)
	}
	if res.LocalReads == 0 {
		t.Fatalf("local mode never served a request locally: %s", res)
	}
	var served uint64
	for i := 0; i < opts.N; i++ {
		served += c.Replica(i).Stats().LocalReads
	}
	if served == 0 {
		t.Fatal("no replica reports serving local reads")
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCrashRecoverCatchUp crashes a backup running on sharded
// disk, keeps the cluster under load while it is down, restarts it from
// a live peer's snapshot (reopening the same store directory, replaying
// the shard logs), and requires the restarted replica to catch back up:
// its ledger must converge to the same chain as the survivors, and new
// load after the restart must execute everywhere.
func TestClusterCrashRecoverCatchUp(t *testing.T) {
	opts := smallOpts()
	opts.StoreBackend = "sharded"
	opts.StoreDir = t.TempDir()
	opts.CheckpointInterval = 16
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	ctx := context.Background()

	if res := c.Run(ctx, 500*time.Millisecond); res.Txns == 0 {
		t.Fatalf("no transactions before the crash: %s", res)
	}
	c.Crash(3)
	if res := c.Run(ctx, 500*time.Millisecond); res.Txns == 0 {
		t.Fatalf("no progress with one backup down: %s", res)
	}
	lostHeight := c.Replica(0).Ledger().Height()
	if got := c.Replica(3).Ledger().Height(); got >= lostHeight {
		t.Fatalf("crashed replica kept executing: height %d >= %d", got, lostHeight)
	}

	if err := c.Restart(3); err != nil {
		t.Fatal(err)
	}
	if res := c.Run(ctx, 700*time.Millisecond); res.Txns == 0 {
		t.Fatalf("no transactions after the restart: %s", res)
	}

	// The restarted replica must track the head, not just the bootstrap
	// snapshot: wait for every replica to clear the pre-restart head plus
	// some post-restart progress.
	if got := c.WaitForHeight(lostHeight+4, 5*time.Second, nil); got <= lostHeight {
		t.Fatalf("cluster stuck at height %d after restart (crash-time head %d)", got, lostHeight)
	}
	settle := c.Replica(0).Ledger().Height()
	if got := c.WaitForHeight(settle, 5*time.Second, nil); got < settle {
		t.Fatalf("restarted replica never converged: min height %d, want %d", got, settle)
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
	if s := c.Replica(3).Stats(); s.BatchesExecuted == 0 {
		t.Fatalf("restarted replica executed nothing: %+v", s)
	}
}
