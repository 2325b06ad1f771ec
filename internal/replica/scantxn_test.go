package replica

import (
	"fmt"
	"strings"
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/ledger"
	"resilientdb/internal/store"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// rywBase is the key region the hand-crafted read-your-writes requests
// use. It sits far above the workload's record space so no randomized
// transaction can disturb the values these requests observe.
const rywBase = uint64(1) << 20

// scanTxnBatches builds a deterministic committed-batch history over a
// mixed write/read/scan Zipfian workload, plus one request duplicated
// across batches (dedup must skip it identically under every E) and two
// hand-crafted read-your-writes requests whose transactions write, read,
// and scan the same keys.
func scanTxnBatches(t *testing.T, batches int) []consensus.Execute {
	t.Helper()
	wcfg := workload.Config{
		Records:      shardTestRecords,
		OpsPerTxn:    4,
		ValueSize:    64,
		Distribution: workload.Zipf,
		Seed:         7,
		ReadFraction: 0.3,
		ScanFraction: 0.35,
		ScanLength:   24,
	}
	const clients = 4
	wls := make([]*workload.Workload, clients)
	for c := range wls {
		wl, err := workload.New(wcfg, int64(c))
		if err != nil {
			t.Fatal(err)
		}
		wls[c] = wl
	}
	var dup types.ClientRequest
	acts := make([]consensus.Execute, batches)
	for b := 0; b < batches; b++ {
		reqs := make([]types.ClientRequest, 0, clients+1)
		for c := 0; c < clients; c++ {
			reqs = append(reqs, wls[c].NextRequest(types.ClientID(c), uint64(b*2+1), 2))
		}
		switch b {
		case 1:
			dup = reqs[0]
		case 2:
			reqs = append(reqs, dup)
		case 3:
			// Intra-transaction read-your-writes: a write followed by a
			// read and a scan of the same key inside one transaction must
			// observe that write; a write sequenced after the scan must
			// not appear in it. The second transaction then sees the
			// first's full write set.
			reqs = append(reqs, types.ClientRequest{
				Client:   clients,
				FirstSeq: 1,
				Txns: []types.Transaction{
					{Client: clients, ClientSeq: 1, Ops: []types.Op{
						{Kind: types.OpWrite, Key: rywBase, Value: []byte("ryw-a")},
						{Kind: types.OpRead, Key: rywBase},
						{Kind: types.OpScan, Key: rywBase, EndKey: rywBase + 4, Limit: 8},
						{Kind: types.OpWrite, Key: rywBase + 2, Value: []byte("ryw-b")},
					}},
					{Client: clients, ClientSeq: 2, Ops: []types.Op{
						{Kind: types.OpScan, Key: rywBase, EndKey: rywBase + 4, Limit: 8},
						{Kind: types.OpRead, Key: rywBase + 2},
					}},
				},
			})
		case 5:
			// Limit truncation over the transaction's own writes: six
			// fresh keys, then a scan capped at three must return exactly
			// the three lowest.
			ops := make([]types.Op, 0, 7)
			for i := uint64(0); i < 6; i++ {
				ops = append(ops, types.Op{
					Kind: types.OpWrite, Key: rywBase + 10 + i,
					Value: []byte{byte('A' + i)},
				})
			}
			ops = append(ops, types.Op{
				Kind: types.OpScan, Key: rywBase + 10, EndKey: rywBase + 30, Limit: 3,
			})
			reqs = append(reqs, types.ClientRequest{
				Client:   clients,
				FirstSeq: 3,
				Txns:     []types.Transaction{{Client: clients, ClientSeq: 3, Ops: ops}},
			})
		}
		acts[b] = consensus.Execute{
			Seq:      types.SeqNum(b + 1),
			Digest:   types.BatchDigest(reqs),
			Requests: reqs,
		}
	}
	return acts
}

// TestScanDeterminism is the acceptance check for general transactions:
// a randomized mixed write/read/scan workload — plus hand-crafted
// intra-transaction read-your-writes cases — run under E=4 with pipeline
// depth 3 over the sharded group-commit disk store with the ordered read
// index must produce ledger digests, checkpoint chains, store state, AND
// per-request responses (every scan row included) byte-identical to E=1
// serial execution over a MemStore. Scans fan out to every shard behind
// the write-flush barrier and the coordinator merges the disjoint sorted
// fragments at retirement, so the merged rows equal the serial scan.
func TestScanDeterminism(t *testing.T) {
	const batches = 32
	const clients = 4
	acts := scanTxnBatches(t, batches)
	// One response per request: 4 clients per batch, plus the duplicate
	// re-delivery and the two read-your-writes requests.
	wantResponses := batches*clients + 3

	mem := store.NewMemStore(shardTestRecords)
	preloadEven(t, mem)
	serial, serialEPs := newReadMixReplica(t, 1, 1, clients+1, mem)

	disk, err := store.OpenShardedDisk(t.TempDir(), store.ShardedDiskOptions{SyncLinger: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	preloadEven(t, disk)
	preloadFsyncs := disk.SyncStats().Fsyncs
	pipelined, pipelinedEPs := newReadMixReplica(t, 4, 3, clients+1, disk)

	for _, act := range acts {
		serial.execIn.Offer(uint64(act.Seq), execItem{act: act})
		pipelined.execIn.Offer(uint64(act.Seq), execItem{act: act})
	}
	waitBatches(t, serial, batches)
	waitBatches(t, pipelined, batches)

	if got, want := historyDigest(pipelined.Ledger()), historyDigest(serial.Ledger()); got != want {
		t.Fatalf("ledger history diverged: pipelined %x vs serial %x", got[:8], want[:8])
	}
	if err := ledger.VerifyChainEquality(serial.Ledger(), pipelined.Ledger()); err != nil {
		t.Fatalf("chains diverged: %v", err)
	}
	ss, ps := serial.Stats(), pipelined.Stats()
	if ss.TxnsExecuted != ps.TxnsExecuted {
		t.Fatalf("txns executed diverged: serial %d vs pipelined %d", ss.TxnsExecuted, ps.TxnsExecuted)
	}
	if ss.ReadsExecuted == 0 {
		t.Fatal("mixed workload executed no reads or scans")
	}
	if ss.ReadsExecuted != ps.ReadsExecuted {
		t.Fatalf("reads executed diverged: serial %d vs pipelined %d", ss.ReadsExecuted, ps.ReadsExecuted)
	}
	checkGroupCommit(t, ps.StoreFsyncs-preloadFsyncs, batches, 4)
	if got, want := storeDigest(t, pipelined.Store()), storeDigest(t, serial.Store()); got != want {
		t.Fatalf("store state diverged: pipelined %x vs serial %x", got[:8], want[:8])
	}

	// The decisive checks: every request's response — result digest, read
	// values, and every scan row — must match the model's, and between the
	// execution modes.
	serialResp := checkAgainstModel(t, acts, true, serial, serialEPs)
	pipelinedResp := collectResponses(t, pipelinedEPs, wantResponses)
	if len(serialResp) != len(pipelinedResp) {
		t.Fatalf("response counts diverged: serial %d vs pipelined %d", len(serialResp), len(pipelinedResp))
	}
	withScans := 0
	for key, sv := range serialResp {
		pv, ok := pipelinedResp[key]
		if !ok {
			t.Fatalf("pipelined replica never answered %+v", key)
		}
		if sv != pv {
			t.Fatalf("response %+v diverged:\nserial:    %s\npipelined: %s", key, sv, pv)
		}
		if strings.Contains(sv, "[scan") {
			withScans++
		}
	}
	if withScans < batches {
		t.Fatalf("only %d responses carried scan results; the scan mix should produce far more", withScans)
	}

	// Pin the read-your-writes semantics on the serial responses (the
	// equality above extends them to the pipelined replica). Transaction 1:
	// the read and the scan both observe the write that precedes them, and
	// not the write that follows the scan. Transaction 2: the scan and the
	// read observe transaction 1's full write set.
	rywKey := respFingerprint{client: clients, clientSeq: 1, seq: 4}
	ryw, ok := serialResp[rywKey]
	if !ok {
		t.Fatalf("no response for the read-your-writes request %+v", rywKey)
	}
	wantReads := fmt.Sprintf("reads=(true,%x)[scan(%d,%x)][scan(%d,%x)(%d,%x)](true,%x)",
		"ryw-a", rywBase, "ryw-a",
		rywBase, "ryw-a", rywBase+2, "ryw-b",
		"ryw-b")
	if !strings.Contains(ryw, wantReads) {
		t.Fatalf("read-your-writes results wrong:\ngot  %s\nwant ...%s", ryw, wantReads)
	}

	limKey := respFingerprint{client: clients, clientSeq: 3, seq: 6}
	lim, ok := serialResp[limKey]
	if !ok {
		t.Fatalf("no response for the limit-truncation request %+v", limKey)
	}
	wantLim := fmt.Sprintf("reads=[scan(%d,%x)(%d,%x)(%d,%x)]",
		rywBase+10, "A", rywBase+11, "B", rywBase+12, "C")
	if !strings.Contains(lim, wantLim) {
		t.Fatalf("limit-truncated scan wrong:\ngot  %s\nwant ...%s", lim, wantLim)
	}
}
