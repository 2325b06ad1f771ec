package replica

import (
	"testing"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// TestVerifyStageRejectsForgedEnvelopes runs a replica whose input-threads
// verify (the default V = 2) and checks that forged peer traffic dies there — counted
// as an auth failure, never reaching the worker — while genuinely
// authenticated traffic passes.
func TestVerifyStageRejectsForgedEnvelopes(t *testing.T) {
	dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInproc()
	ep := net.Endpoint(types.ReplicaNode(0), 3, 64)
	r, err := New(Config{
		ID:        0,
		N:         4,
		Protocol:  PBFT,
		Directory: dir,
		Endpoint:  ep,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	peerAuth := dir.NodeAuth(types.ReplicaNode(1))
	body := types.MarshalBody(&types.Prepare{View: 0, Seq: 1})
	mac, err := peerAuth.Sign(types.ReplicaNode(0), body)
	if err != nil {
		t.Fatal(err)
	}
	sender := net.Endpoint(types.ReplicaNode(1), 1, 16)
	defer sender.Close()

	forged := append([]byte(nil), mac...)
	forged[0] ^= 0xFF
	if err := sender.Send(&types.Envelope{
		From: types.ReplicaNode(1), To: types.ReplicaNode(0),
		Type: types.MsgPrepare, Body: body, Auth: forged,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.Stats().AuthFailures == 1 }, "forged envelope not rejected")

	if err := sender.Send(&types.Envelope{
		From: types.ReplicaNode(1), To: types.ReplicaNode(0),
		Type: types.MsgPrepare, Body: body, Auth: mac,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.Stats().MsgsIn == 2 }, "valid envelope never arrived")
	// Give the input-thread time to (wrongly) reject it before asserting
	// the failure count did not move.
	time.Sleep(50 * time.Millisecond)
	if got := r.Stats().AuthFailures; got != 1 {
		t.Fatalf("auth failures = %d after a valid envelope, want 1", got)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
