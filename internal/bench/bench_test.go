package bench

import (
	"bytes"
	"strings"
	"testing"

	"resilientdb/internal/store"
)

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"fig1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "ablation-ooo", "ablation-exec",
		"execshards", "diskpipe", "compaction", "readmix",
		"scans", "faults"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Paper == "" || all[i].Title == "" {
			t.Fatalf("experiment %s missing documentation", id)
		}
	}
	if _, ok := ByID("fig10"); !ok {
		t.Fatal("ByID failed for fig10")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID matched a bogus id")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "T", Columns: []string{"a", "long-column"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "long-column", "333"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestShapeFig14Storage is the fastest full-experiment shape check:
// off-memory storage must collapse throughput and inflate latency.
func TestShapeFig14Storage(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	out, err := fig14(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics["storage_drop_pct"] < 50 {
		t.Fatalf("storage drop = %.1f%%, want ≥50%%", out.Metrics["storage_drop_pct"])
	}
	if out.Metrics["storage_latency_x"] < 2 {
		t.Fatalf("storage latency factor = %.1fx, want ≥2x", out.Metrics["storage_latency_x"])
	}
}

func TestShapeFig16Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	out, err := fig16(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics["core_scaling_x"] < 3 {
		t.Fatalf("core scaling = %.1fx, want ≥3x", out.Metrics["core_scaling_x"])
	}
}

// TestShapeExecShards checks the execshards invariants rather than exact
// numbers: sharded execution must never collapse throughput, and under
// the Zipfian write load every shard must do real work (the partition
// spreads the hot keys). Each throughput is the median of three windows
// alternated with the other E values, so one window that saw contention
// from the rest of a full test run does not decide the ratio.
func TestShapeExecShards(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	out, err := execshards(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	t1 := out.Metrics["execshards_tput_e1"]
	t4 := out.Metrics["execshards_tput_e4"]
	if t1 <= 0 || t4 <= 0 {
		t.Fatalf("no throughput recorded: e1=%.0f e4=%.0f", t1, t4)
	}
	if t4 < 0.5*t1 {
		t.Fatalf("E=4 collapsed throughput: %.0f vs %.0f at E=1", t4, t1)
	}
	if out.Metrics["execshards_min_shard_busy_ns_e4"] <= 0 {
		t.Fatal("an idle execution shard at E=4: the write-set partition is not spreading work")
	}
}

// TestShapeDiskPipe checks the diskpipe invariants rather than exact
// numbers: the serial fsync-per-Put store must collapse under the load
// (the Section 5.7 shape), and the sharded group-commit store must
// measurably narrow that gap — faster than the serial store, with fewer
// fsyncs per executed transaction.
func TestShapeDiskPipe(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	out, err := diskpipe(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	mem := out.Metrics["diskpipe_tput_mem"]
	disk := out.Metrics["diskpipe_tput_disk_serial"]
	sharded := out.Metrics["diskpipe_tput_sharded_gc"]
	if mem <= 0 || disk <= 0 || sharded <= 0 {
		t.Fatalf("no throughput recorded: mem=%.0f disk=%.0f sharded=%.0f", mem, disk, sharded)
	}
	if disk >= mem {
		t.Fatalf("serial disk store did not cost throughput: %.0f vs mem %.0f", disk, mem)
	}
	if sharded < 1.5*disk {
		t.Fatalf("sharded group commit did not narrow the gap: %.0f vs serial disk %.0f", sharded, disk)
	}
	if out.Metrics["diskpipe_gap_closed_pct"] <= 0 {
		t.Fatalf("gap closed = %.1f%%, want > 0", out.Metrics["diskpipe_gap_closed_pct"])
	}
	// Group commit's mechanism: fewer fsyncs per executed transaction.
	diskRate := out.Metrics["diskpipe_fsyncs_disk_serial"] / disk
	shardedRate := out.Metrics["diskpipe_fsyncs_sharded_gc"] / sharded
	if out.Metrics["diskpipe_fsyncs_sharded_gc"] <= 0 {
		t.Fatal("sharded store never fsynced: group commit is not running")
	}
	if shardedRate >= diskRate {
		t.Fatalf("fsyncs per txn/s: sharded %.3f vs serial %.3f — no amortization", shardedRate, diskRate)
	}
	// And its reach across batches: with two or more batches in flight the
	// shard workers append and move on and the coordinator stages batch k+1
	// while k awaits its fsync, so a window's fsync covers more than one
	// batch's partition — under a read mix too, since a read waits for the
	// writes before it to be appended, not durable. A worker that waited
	// out its own fsync could at best reach exactly one fsync per batch.
	for _, row := range []string{"sharded_gc", "sharded_gc_rmix"} {
		if got := out.Metrics["diskpipe_batches_per_fsync_"+row]; got <= 1 {
			t.Fatalf("%s at depth %d: %.2f fsyncs per batch, want fewer than one", row, diskpipeDepth, 1/got)
		}
	}
}

// TestSerialStorePutsEachRecord: the disk-serial row's store, run as the
// replica runs it (through store.AsBackend), gets one write call per record:
// an append of a partition is that many Puts and no PutMany.
func TestSerialStorePutsEachRecord(t *testing.T) {
	inner := &writeCounter{Store: store.NewMemStore(16)}
	b := store.AsBackend(serialStore{inner})
	kvs := make([]store.KV, 5)
	for i := range kvs {
		kvs[i] = store.KV{Key: uint64(i), Value: []byte{byte(i)}}
	}
	if _, err := b.Append(kvs, store.Ticket{}); err != nil {
		t.Fatal(err)
	}
	if inner.puts != len(kvs) || inner.putManys != 0 {
		t.Fatalf("an append of %d records made %d Put and %d PutMany calls, want %d and 0",
			len(kvs), inner.puts, inner.putManys, len(kvs))
	}
	if inner.Len() != len(kvs) {
		t.Fatalf("store holds %d records, want %d", inner.Len(), len(kvs))
	}
}

// writeCounter counts the write calls that reach its store.
type writeCounter struct {
	store.Store
	puts, putManys int
}

func (w *writeCounter) Put(key uint64, value []byte) error {
	w.puts++
	return w.Store.Put(key, value)
}

func (w *writeCounter) PutMany(kvs []store.KV) error {
	w.putManys++
	return w.Store.PutMany(kvs)
}

// TestShapeCompaction checks the compaction invariants rather than exact
// numbers: the overwrite-heavy history must leave the logs several times
// larger than the live data, compaction must shrink them back to ≈ live
// data, and reopening the compacted store must not be slower than
// replaying the full history (with ~25x less log to scan it is reliably
// faster, but the assertion allows equality to stay hardware-tolerant).
func TestShapeCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	out, err := compaction(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	pre := out.Metrics["compaction_log_bytes_pre"]
	post := out.Metrics["compaction_log_bytes_post"]
	live := out.Metrics["compaction_live_bytes"]
	if pre <= 0 || post <= 0 || live <= 0 {
		t.Fatalf("no bytes recorded: pre=%.0f post=%.0f live=%.0f", pre, post, live)
	}
	if pre < 3*live {
		t.Fatalf("history did not outgrow live data: %.0f vs live %.0f — the workload is not overwrite-heavy", pre, live)
	}
	if post > 1.05*live {
		t.Fatalf("post-compaction logs = %.0f bytes, want ≈ live data %.0f — compaction kept history", post, live)
	}
	if out.Metrics["compaction_compactions"] <= 0 {
		t.Fatal("no compactions recorded")
	}
	if out.Metrics["compaction_reclaimed_bytes"] <= 0 {
		t.Fatal("no bytes reclaimed")
	}
	if out.Metrics["compaction_reopen_ms_post"] > out.Metrics["compaction_reopen_ms_pre"] {
		t.Fatalf("compacted store reopened slower: %.2fms vs %.2fms",
			out.Metrics["compaction_reopen_ms_post"], out.Metrics["compaction_reopen_ms_pre"])
	}
}

// TestShapeReadMix checks the readmix invariants rather than exact
// numbers (latency percentiles are scheduler-noisy on few-core
// machines): every row must complete transactions, only the local-mode
// rows may serve local reads, and the read-only local row must consume
// zero sequence numbers while its consensus-ordered twin consumes many —
// the consensus-bypass evidence.
func TestShapeReadMix(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	out, err := readmix(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"quorum_a", "local_a", "quorum_c", "local_c"} {
		if out.Metrics["readmix_tput_"+key] <= 0 {
			t.Fatalf("row %s completed no transactions", key)
		}
	}
	if out.Metrics["readmix_local_reads_quorum_a"] != 0 || out.Metrics["readmix_local_reads_quorum_c"] != 0 {
		t.Fatal("quorum rows served local reads")
	}
	if out.Metrics["readmix_local_reads_local_a"] <= 0 || out.Metrics["readmix_local_reads_local_c"] <= 0 {
		t.Fatal("local rows served no local reads")
	}
	if got := out.Metrics["readmix_seq_used_local_c"]; got != 0 {
		t.Fatalf("read-only local traffic consumed %.0f sequence numbers, want 0", got)
	}
	if out.Metrics["readmix_seq_used_quorum_c"] <= 0 {
		t.Fatal("consensus-ordered read-only traffic consumed no sequence numbers")
	}
}

// TestShapeScans checks the scans experiment's invariants rather than
// exact numbers: every row must complete scan transactions, only the
// local-mode rows may serve scans from the local path, and the
// consensus-ordered rows must burn sequence numbers for scan traffic.
// (Local rows still consume some — workload E keeps a write minority —
// so the quorum-vs-local contrast is per-scan, asserted via LocalReads.)
func TestShapeScans(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	out, err := scans(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"quorum_e", "local_e", "quorum_mix", "local_mix"} {
		if out.Metrics["scans_tput_"+key] <= 0 {
			t.Fatalf("row %s completed no transactions", key)
		}
		if out.Metrics["scans_scan_txns_"+key] <= 0 {
			t.Fatalf("row %s completed no scan transactions", key)
		}
	}
	if out.Metrics["scans_local_reads_quorum_e"] != 0 || out.Metrics["scans_local_reads_quorum_mix"] != 0 {
		t.Fatal("quorum rows served local scans")
	}
	if out.Metrics["scans_local_reads_local_e"] <= 0 || out.Metrics["scans_local_reads_local_mix"] <= 0 {
		t.Fatal("local rows served no local scans")
	}
	if out.Metrics["scans_seq_used_quorum_e"] <= 0 {
		t.Fatal("consensus-ordered scan traffic consumed no sequence numbers")
	}
}

func TestRunAndRenderProducesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	e, ok := ByID("ablation-exec")
	if !ok {
		t.Fatal("missing experiment")
	}
	var buf bytes.Buffer
	out, err := RunAndRender(e, ScaleSmall, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) == 0 || buf.Len() == 0 {
		t.Fatal("no output produced")
	}
	if !strings.Contains(buf.String(), "Ablation") {
		t.Fatalf("output missing table title:\n%s", buf.String())
	}
}
