package replica

import (
	"sort"
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// execModel is the determinism tests' reference, and shares nothing with the
// execute stage: a plain map interpreted one op at a time, in batch order,
// with per-client dedup. The E=1 and E=4 replicas both run stageBatch and
// applyPartition, so their agreeing with each other no longer shows either
// is right; agreeing with this does.
type execModel struct {
	kv       map[uint64][]byte
	lastExec map[types.ClientID]uint64
}

func newExecModel() *execModel {
	return &execModel{kv: map[uint64][]byte{}, lastExec: map[types.ClientID]uint64{}}
}

// preloadEven mirrors the preloadEven the replicas' stores get.
func (m *execModel) preloadEven() {
	for k := uint64(0); k < shardTestRecords; k += 2 {
		m.kv[k] = []byte{byte(k), byte(k >> 8)}
	}
}

func (m *execModel) get(key uint64) ([]byte, error) {
	v, ok := m.kv[key]
	if !ok {
		return nil, store.ErrNotFound
	}
	return v, nil
}

// scan returns the rows of [start, end] in ascending key order, at most
// limit of them.
func (m *execModel) scan(start, end uint64, limit uint32) []types.ScanRow {
	var keys []uint64
	for k := range m.kv {
		if k >= start && k <= end {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if uint32(len(keys)) > limit {
		keys = keys[:limit]
	}
	var rows []types.ScanRow
	for _, k := range keys {
		rows = append(rows, types.ScanRow{Key: k, Value: m.kv[k]})
	}
	return rows
}

// execute interprets one committed batch and returns the response every
// request in it must get, rendered like collectResponses renders them.
func (m *execModel) execute(act consensus.Execute, into map[respFingerprint]string) {
	for i := range act.Requests {
		req := &act.Requests[i]
		var reads []types.ReadResult
		for _, txn := range req.Txns {
			if last := m.lastExec[req.Client]; last != 0 && txn.ClientSeq <= last {
				continue // already executed: contributes no writes and no results
			}
			m.lastExec[req.Client] = txn.ClientSeq
			for _, op := range txn.Ops {
				switch op.Kind {
				case types.OpRead:
					v, ok := m.kv[op.Key]
					reads = append(reads, types.ReadResult{Found: ok, Value: v})
				case types.OpScan:
					reads = append(reads, types.ReadResult{Scan: true, Rows: m.scan(op.Key, op.EndKey, op.Limit)})
				default:
					m.kv[op.Key] = append([]byte(nil), op.Value...)
				}
			}
		}
		key := respFingerprint{client: req.Client, clientSeq: req.FirstSeq, seq: act.Seq}
		into[key] = renderResponse(types.ResponseDigest(act.Seq, req.Client, req.FirstSeq, reads), reads)
	}
}

// checkAgainstModel runs the batch history through the model and requires
// the replica's store contents and every response it sent — result digest,
// read values, every scan row — to equal the model's. It returns the
// responses collected from eps, for the caller's own checks.
func checkAgainstModel(t *testing.T, acts []consensus.Execute, preload bool, r *Replica, eps []transport.Endpoint) map[respFingerprint]string {
	t.Helper()
	m := newExecModel()
	if preload {
		m.preloadEven()
	}
	want := make(map[respFingerprint]string)
	for _, act := range acts {
		m.execute(act, want)
	}
	if got, want := storeDigest(t, r.Store()), digestRecords(t, m.get); got != want {
		t.Fatalf("E=%d store state diverged from the model: %x vs %x", r.cfg.ExecuteThreads, got[:8], want[:8])
	}
	got := collectResponses(t, eps, len(want))
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("E=%d replica never answered %+v", r.cfg.ExecuteThreads, key)
		}
		if g != w {
			t.Fatalf("response %+v diverged from the model:\nE=%d:   %s\nmodel: %s", key, r.cfg.ExecuteThreads, g, w)
		}
	}
	return got
}
