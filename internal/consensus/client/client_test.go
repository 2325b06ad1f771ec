package client

import (
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/types"
)

func req(client types.ClientID, seq uint64) types.ClientRequest {
	return types.ClientRequest{Client: client, FirstSeq: seq, Sig: []byte{1}}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 2, PBFT); err == nil {
		t.Fatal("accepted n=2")
	}
	for _, p := range []Protocol{0, 2} {
		if _, err := New(1, 4, p); err == nil {
			t.Fatalf("accepted protocol %d", p)
		}
	}
}

func TestSubmitSendsToPrimary(t *testing.T) {
	e, err := New(3, 4, PBFT)
	if err != nil {
		t.Fatal(err)
	}
	acts := e.Submit(req(3, 1))
	if len(acts) != 1 {
		t.Fatalf("Submit produced %d actions", len(acts))
	}
	send, ok := acts[0].(consensus.Send)
	if !ok || send.To != types.ReplicaNode(0) {
		t.Fatalf("Submit sent to %v", send.To)
	}
	if !e.Busy() {
		t.Fatal("client not busy after Submit")
	}
}

func TestPBFTQuorumFPlusOne(t *testing.T) {
	e, err := New(3, 4, PBFT) // f=1, quorum 2
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 5))
	result := types.ResponseDigest(1, 3, 5, nil)
	resp := func(rep types.ReplicaID) *types.ClientResponse {
		return &types.ClientResponse{View: 0, Seq: 1, Client: 3, ClientSeq: 5, Result: result, Replica: rep}
	}
	out, _ := e.OnMessage(types.ReplicaNode(0), resp(0))
	if out != nil {
		t.Fatal("completed with one response")
	}
	// Duplicate from the same replica must not complete the quorum.
	out, _ = e.OnMessage(types.ReplicaNode(0), resp(0))
	if out != nil {
		t.Fatal("completed on duplicate responses")
	}
	out, _ = e.OnMessage(types.ReplicaNode(1), resp(1))
	if out == nil {
		t.Fatal("did not complete at f+1 matching responses")
	}
	if out.Result != result || out.ClientSeq != 5 {
		t.Fatalf("bad outcome: %+v", out)
	}
	if e.Busy() {
		t.Fatal("still busy after completion")
	}
	if s := e.Stats(); s.Completed != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestPBFTMismatchedResultsDoNotComplete(t *testing.T) {
	e, err := New(3, 4, PBFT)
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 5))
	// Both responses carry internally consistent payloads (their digests
	// verify) but disagree on the executed sequence, so their results differ.
	a := &types.ClientResponse{Seq: 1, Client: 3, ClientSeq: 5, Result: types.ResponseDigest(1, 3, 5, nil), Replica: 0}
	b := &types.ClientResponse{Seq: 2, Client: 3, ClientSeq: 5, Result: types.ResponseDigest(2, 3, 5, nil), Replica: 1}
	if out, _ := e.OnMessage(types.ReplicaNode(0), a); out != nil {
		t.Fatal("early completion")
	}
	if out, _ := e.OnMessage(types.ReplicaNode(1), b); out != nil {
		t.Fatal("completed on mismatched results")
	}
}

func TestPBFTIgnoresWrongClientSeq(t *testing.T) {
	e, err := New(3, 4, PBFT)
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 5))
	stale := &types.ClientResponse{Client: 3, ClientSeq: 4, Result: types.Digest{1}, Replica: 0}
	stale2 := &types.ClientResponse{Client: 3, ClientSeq: 4, Result: types.Digest{1}, Replica: 1}
	e.OnMessage(types.ReplicaNode(0), stale)
	if out, _ := e.OnMessage(types.ReplicaNode(1), stale2); out != nil {
		t.Fatal("completed on stale responses")
	}
}

func TestPBFTTimeoutRetransmitsToAll(t *testing.T) {
	e, err := New(3, 4, PBFT)
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 5))
	acts := e.OnTimeout()
	if len(acts) != 4 {
		t.Fatalf("retransmitted to %d replicas, want 4", len(acts))
	}
	if s := e.Stats(); s.Retransmits != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}

// TestPBFTForgedReadResultsRejected: votes are keyed on Result alone, so a
// Byzantine replica could copy the correct result digest from honest
// replicas and attach forged, stripped, or re-sequenced read values as the
// f+1-th completing response. The engine must recompute the digest over
// every response's carried payload and refuse to count mismatches.
func TestPBFTForgedReadResultsRejected(t *testing.T) {
	e, err := New(3, 4, PBFT) // f=1, quorum 2
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 5))
	reads := []types.ReadResult{{Found: true, Value: []byte("honest")}, {Found: false}}
	result := types.ResponseDigest(1, 3, 5, reads)
	honest := func(rep types.ReplicaID) *types.ClientResponse {
		return &types.ClientResponse{Seq: 1, Client: 3, ClientSeq: 5, Result: result, Replica: rep, ReadResults: reads}
	}
	if out, _ := e.OnMessage(types.ReplicaNode(0), honest(0)); out != nil {
		t.Fatal("completed with one response")
	}
	// Each forgery copies the honest Result; any would complete the f+1
	// quorum if its vote were counted.
	forgeries := map[string]*types.ClientResponse{
		"forged value": {Seq: 1, Client: 3, ClientSeq: 5, Result: result, Replica: 1,
			ReadResults: []types.ReadResult{{Found: true, Value: []byte("forged")}, {Found: false}}},
		"stripped reads": {Seq: 1, Client: 3, ClientSeq: 5, Result: result, Replica: 1},
		"flipped found": {Seq: 1, Client: 3, ClientSeq: 5, Result: result, Replica: 1,
			ReadResults: []types.ReadResult{{Found: true, Value: []byte("honest")}, {Found: true}}},
		"wrong seq": {Seq: 2, Client: 3, ClientSeq: 5, Result: result, Replica: 1, ReadResults: reads},
	}
	for name, forged := range forgeries {
		if out, _ := e.OnMessage(types.ReplicaNode(1), forged); out != nil {
			t.Fatalf("%s: forged response completed the request", name)
		}
	}
	out, _ := e.OnMessage(types.ReplicaNode(1), honest(1))
	if out == nil {
		t.Fatal("honest f+1-th response did not complete")
	}
	if len(out.ReadResults) != 2 || string(out.ReadResults[0].Value) != "honest" {
		t.Fatalf("outcome carries wrong read results: %+v", out.ReadResults)
	}
}

// TestPBFTForgedScanResultsRejected extends the forgery matrix to scan
// results: multi-row payloads give a Byzantine replica more to tamper
// with — mutate a row's value, drop the tail rows, reorder them, or
// append an extra row — and every variant must fail the ResponseDigest
// recompute and lose its vote.
func TestPBFTForgedScanResultsRejected(t *testing.T) {
	e, err := New(3, 4, PBFT) // f=1, quorum 2
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 5))
	rows := []types.ScanRow{
		{Key: 10, Value: []byte("a")},
		{Key: 11, Value: []byte("b")},
		{Key: 12, Value: []byte("c")},
	}
	reads := []types.ReadResult{
		{Found: true, Value: []byte("point")},
		{Scan: true, Rows: rows},
	}
	result := types.ResponseDigest(7, 3, 5, reads)
	honest := func(rep types.ReplicaID) *types.ClientResponse {
		return &types.ClientResponse{Seq: 7, Client: 3, ClientSeq: 5, Result: result, Replica: rep, ReadResults: reads}
	}
	if out, _ := e.OnMessage(types.ReplicaNode(0), honest(0)); out != nil {
		t.Fatal("completed with one response")
	}
	scanReads := func(rows []types.ScanRow) []types.ReadResult {
		return []types.ReadResult{{Found: true, Value: []byte("point")}, {Scan: true, Rows: rows}}
	}
	forgeries := map[string][]types.ReadResult{
		"forged row value": scanReads([]types.ScanRow{
			{Key: 10, Value: []byte("a")}, {Key: 11, Value: []byte("X")}, {Key: 12, Value: []byte("c")}}),
		"truncated rows": scanReads(rows[:1]),
		"reordered rows": scanReads([]types.ScanRow{rows[1], rows[0], rows[2]}),
		"extra row": scanReads(append(append([]types.ScanRow{}, rows...),
			types.ScanRow{Key: 13, Value: []byte("d")})),
		"forged row key": scanReads([]types.ScanRow{
			{Key: 10, Value: []byte("a")}, {Key: 99, Value: []byte("b")}, {Key: 12, Value: []byte("c")}}),
		"scan flag flipped": {{Found: true, Value: []byte("point")}, {Found: true, Value: []byte("a")}},
		"empty scan":        scanReads(nil),
	}
	for name, fr := range forgeries {
		forged := &types.ClientResponse{Seq: 7, Client: 3, ClientSeq: 5, Result: result, Replica: 1, ReadResults: fr}
		if out, _ := e.OnMessage(types.ReplicaNode(1), forged); out != nil {
			t.Fatalf("%s: forged scan response completed the request", name)
		}
	}
	out, _ := e.OnMessage(types.ReplicaNode(1), honest(1))
	if out == nil {
		t.Fatal("honest f+1-th response did not complete")
	}
	if out.Seq != 7 {
		t.Fatalf("Outcome.Seq = %d, want the committed sequence 7", out.Seq)
	}
	got := out.ReadResults
	if len(got) != 2 || !got[1].Scan || len(got[1].Rows) != 3 || string(got[1].Rows[1].Value) != "b" {
		t.Fatalf("outcome carries wrong scan results: %+v", got)
	}
}

func TestViewTrackingFollowsResponses(t *testing.T) {
	e, err := New(3, 4, PBFT)
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 1))
	resp := &types.ClientResponse{View: 2, Seq: 1, Client: 3, ClientSeq: 1, Result: types.ResponseDigest(1, 3, 1, nil), Replica: 1}
	e.OnMessage(types.ReplicaNode(1), resp)
	if e.Primary() != 2 {
		t.Fatalf("Primary = %d after observing view 2, want 2", e.Primary())
	}
	// The next Submit goes to the new primary.
	acts := e.Submit(req(3, 2))
	send := acts[0].(consensus.Send)
	if send.To != types.ReplicaNode(2) {
		t.Fatalf("submitted to %v, want r2", send.To)
	}
}

func TestBusyGaugeRobustToByzantineInflation(t *testing.T) {
	e, err := New(3, 4, PBFT) // f=1
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 5))
	result := types.ResponseDigest(1, 3, 5, nil)
	resp := func(rep types.ReplicaID, busy uint8) *types.ClientResponse {
		return &types.ClientResponse{Seq: 1, Client: 3, ClientSeq: 5, Result: result, Replica: rep, Busy: busy}
	}
	// The gauge sits outside the vote key, so a Byzantine replica can
	// stamp full saturation on an otherwise-valid response — and with a
	// plain max its response completing the quorum would force Busy=255
	// on every request. The outcome must report the (f+1)-th highest
	// gauge instead: a value at least one honest replica stands behind.
	out, _ := e.OnMessage(types.ReplicaNode(2), resp(2, 255)) // Byzantine inflation
	if out != nil {
		t.Fatal("completed with one response")
	}
	out, _ = e.OnMessage(types.ReplicaNode(0), resp(0, 10)) // honest
	if out == nil {
		t.Fatal("did not complete at f+1 matching responses")
	}
	if out.Busy != 10 {
		t.Fatalf("Busy = %d, want the honest gauge 10, not the liar's 255", out.Busy)
	}
}

func TestBusyGaugeReportsHonestSaturation(t *testing.T) {
	e, err := New(3, 4, PBFT) // f=1
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 5))
	result := types.ResponseDigest(1, 3, 5, nil)
	resp := func(rep types.ReplicaID, busy uint8) *types.ClientResponse {
		return &types.ClientResponse{Seq: 1, Client: 3, ClientSeq: 5, Result: result, Replica: rep, Busy: busy}
	}
	// Real saturation still surfaces: with honest replicas at 200 and
	// 240, the (f+1)-th highest of {240, 200} is 200 — admission
	// controllers above the threshold still see the overload.
	e.OnMessage(types.ReplicaNode(0), resp(0, 240))
	out, _ := e.OnMessage(types.ReplicaNode(1), resp(1, 200))
	if out == nil {
		t.Fatal("did not complete at f+1 matching responses")
	}
	if out.Busy != 200 {
		t.Fatalf("Busy = %d, want 200", out.Busy)
	}
}

// TestPBFTFloodOfDistinctResultsHoldsOneVote: a faulty replica can send
// any number of distinct results that each hash correctly (ResponseDigest
// covers Seq and ReadResults, both of which it chooses). It holds one
// vote — its latest — so the flood neither grows the engine's table nor
// slows later votes, and the request completes on f+1 honest votes.
func TestPBFTFloodOfDistinctResultsHoldsOneVote(t *testing.T) {
	e, err := New(3, 4, PBFT) // f=1, quorum 2
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 5))
	const flood = 5000
	forged := make([]*types.ClientResponse, flood)
	for i := range forged {
		seq := types.SeqNum(100 + i)
		forged[i] = &types.ClientResponse{Seq: seq, Client: 3, ClientSeq: 5, Result: types.ResponseDigest(seq, 3, 5, nil), Replica: 2}
	}
	for _, m := range forged {
		if out, _ := e.OnMessage(types.ReplicaNode(2), m); out != nil {
			t.Fatal("one replica completed the request")
		}
	}
	if len(e.cur.slots) != 4 {
		t.Fatalf("a flood of %d results left %d vote slots, want one a replica", flood, len(e.cur.slots))
	}
	// The true result completes on f+1 honest votes and not before.
	result := types.ResponseDigest(1, 3, 5, nil)
	honest := func(rep types.ReplicaID) *types.ClientResponse {
		return &types.ClientResponse{Seq: 1, Client: 3, ClientSeq: 5, Result: result, Replica: rep}
	}
	if out, _ := e.OnMessage(types.ReplicaNode(0), honest(0)); out != nil {
		t.Fatal("completed on one honest vote")
	}
	out, _ := e.OnMessage(types.ReplicaNode(1), honest(1))
	if out == nil || out.Result != result {
		t.Fatalf("did not complete on f+1 honest votes: %+v", out)
	}
}

// TestPBFTReplicaVoteIsItsLatest: a replica that changes its result
// withdraws its vote for the earlier one.
func TestPBFTReplicaVoteIsItsLatest(t *testing.T) {
	e, err := New(3, 4, PBFT)
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(req(3, 5))
	a := &types.ClientResponse{Seq: 1, Client: 3, ClientSeq: 5, Result: types.ResponseDigest(1, 3, 5, nil)}
	b := &types.ClientResponse{Seq: 2, Client: 3, ClientSeq: 5, Result: types.ResponseDigest(2, 3, 5, nil)}
	e.OnMessage(types.ReplicaNode(2), a)
	e.OnMessage(types.ReplicaNode(2), b) // replica 2 now votes b
	if out, _ := e.OnMessage(types.ReplicaNode(0), a); out != nil {
		t.Fatal("a withdrawn vote counted toward the quorum")
	}
	if out, _ := e.OnMessage(types.ReplicaNode(1), a); out == nil {
		t.Fatal("did not complete on two standing votes")
	}
}
