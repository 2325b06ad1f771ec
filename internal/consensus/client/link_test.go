package client

import (
	"testing"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// TestTransmitSignsWhatReplicasVerify pins both halves of the envelope
// rule: a ClientRequest travels with an empty envelope authenticator (its
// own Sig authenticates it), while a ReadRequest, which replicas verify by
// envelope, carries one the replica accepts.
func TestTransmitSignsWhatReplicasVerify(t *testing.T) {
	dir, err := crypto.NewDirectoryFromSeed(crypto.Recommended(), 5)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInproc()
	replica := net.Endpoint(types.ReplicaNode(0), 1, 8)
	defer replica.Close()
	ep := net.Endpoint(types.ClientNode(9), 1, 8)
	defer ep.Close()
	link, err := NewLink(9, 4, dir, ep, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	replicaAuth := dir.NodeAuth(types.ReplicaNode(0))
	recv := func() *types.Envelope {
		t.Helper()
		select {
		case env := <-replica.Inbox(0):
			return env
		case <-time.After(time.Second):
			t.Fatal("nothing arrived at the replica")
			return nil
		}
	}

	req := types.ClientRequest{Client: 9, FirstSeq: 1, Txns: []types.Transaction{{Client: 9, ClientSeq: 1, Ops: []types.Op{{Key: 1, Value: []byte("v")}}}}}
	if err := link.Sign(&req); err != nil {
		t.Fatal(err)
	}
	link.Transmit(types.ReplicaNode(0), &req)
	env := recv()
	if len(env.Auth) != 0 {
		t.Fatalf("ClientRequest envelope carries a %d-byte authenticator nobody verifies", len(env.Auth))
	}
	msg, err := types.DecodeBody(env.Type, env.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*types.ClientRequest)
	if err := replicaAuth.Verify(types.ClientNode(got.Client), got.SigningBytes(), got.Sig); err != nil {
		t.Fatalf("the request's own signature does not verify at the replica: %v", err)
	}

	read := &types.ReadRequest{Client: 9, ClientSeq: 2, Ops: []types.Op{{Kind: types.OpRead, Key: 1}}}
	link.Transmit(types.ReplicaNode(0), read)
	env = recv()
	if env.Type != read.Type() {
		t.Fatalf("received %v, sent %v", env.Type, read.Type())
	}
	if err := replicaAuth.Verify(env.From, env.Body, env.Auth); err != nil {
		t.Fatalf("%v envelope does not verify at the replica: %v", read.Type(), err)
	}
}
