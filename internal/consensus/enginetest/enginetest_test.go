package enginetest

import (
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/types"
)

// fakeEngine records calls and emits scripted outputs so the harness
// itself can be tested.
type fakeEngine struct {
	id       types.ReplicaID
	n        int
	received []types.Message
	onMsg    func(from types.NodeID, msg types.Message, out *consensus.Out)
}

func (f *fakeEngine) OnMessage(from types.NodeID, msg types.Message, out *consensus.Out) {
	f.received = append(f.received, msg)
	if f.onMsg != nil {
		f.onMsg(from, msg, out)
	}
}
func (f *fakeEngine) Propose(reqs []types.ClientRequest, out *consensus.Out) bool {
	out.Broadcast(&types.PrePrepare{Seq: 1, Requests: reqs})
	return true
}
func (f *fakeEngine) OnExecuted(types.SeqNum, types.Digest, types.Signature, *consensus.Out) {}
func (f *fakeEngine) OnViewTimeout(types.View, *consensus.Out)                               {}
func (f *fakeEngine) View() types.View                                                       { return 0 }
func (f *fakeEngine) IsPrimary() bool                                                        { return f.id == 0 }
func (f *fakeEngine) Stats() consensus.EngineStats                                           { return consensus.EngineStats{} }
func (f *fakeEngine) Close()                                                                 {}
func (f *fakeEngine) LastProposed() types.SeqNum                                             { return 0 }
func (f *fakeEngine) CountsCheckpoint(types.ReplicaID, types.SeqNum) bool                    { return true }

func fakes(n int) ([]consensus.Engine, []*fakeEngine) {
	engines := make([]consensus.Engine, n)
	raw := make([]*fakeEngine, n)
	for i := range engines {
		raw[i] = &fakeEngine{id: types.ReplicaID(i), n: n}
		engines[i] = raw[i]
	}
	return engines, raw
}

func TestBroadcastExcludesSender(t *testing.T) {
	engines, raw := fakes(4)
	c := NewCluster(engines)
	c.Propose(0, []types.ClientRequest{MakeRequest(1, 1)})
	c.Run(100)
	if len(raw[0].received) != 0 {
		t.Fatal("broadcast looped back to the sender")
	}
	for i := 1; i < 4; i++ {
		if len(raw[i].received) != 1 {
			t.Fatalf("replica %d received %d messages, want 1", i, len(raw[i].received))
		}
	}
}

func TestDownReplicaIsolated(t *testing.T) {
	engines, raw := fakes(4)
	c := NewCluster(engines)
	c.Down[2] = true
	c.Propose(0, []types.ClientRequest{MakeRequest(1, 1)})
	c.Run(100)
	if len(raw[2].received) != 0 {
		t.Fatal("downed replica received traffic")
	}
	// A downed replica's own sends are also dropped.
	var out consensus.Out
	out.Broadcast(&types.Prepare{Seq: 1})
	c.handle(2, &out)
	if c.Pending() != 0 {
		t.Fatal("downed replica's broadcast entered the network")
	}
}

func TestExecutionLayerReorders(t *testing.T) {
	engines, _ := fakes(4)
	c := NewCluster(engines)
	// Release executions out of order; the harness must deliver in order.
	var out consensus.Out
	out.Execute(consensus.Execute{Seq: 2, Digest: types.Digest{2}})
	c.handle(1, &out)
	if len(c.Executed[1]) != 0 {
		t.Fatal("executed seq 2 before seq 1")
	}
	out.Execute(consensus.Execute{Seq: 1, Digest: types.Digest{1}})
	c.handle(1, &out)
	if len(c.Executed[1]) != 2 {
		t.Fatalf("executed %d batches, want 2", len(c.Executed[1]))
	}
	if c.Executed[1][0].Seq != 1 || c.Executed[1][1].Seq != 2 {
		t.Fatalf("execution order broken: %v", c.ExecutedDigests(1))
	}
}

func TestClientDeliveriesCaptured(t *testing.T) {
	engines, _ := fakes(4)
	c := NewCluster(engines)
	var out consensus.Out
	out.Send(types.ClientNode(9), &types.ClientResponse{Client: 9, ClientSeq: 1})
	c.handle(3, &out)
	c.Run(100)
	if len(c.ToClients) != 1 || c.ToClients[0].To != types.ClientNode(9) {
		t.Fatalf("client delivery not captured: %+v", c.ToClients)
	}
}

func TestEvidenceCaptured(t *testing.T) {
	engines, raw := fakes(4)
	raw[1].onMsg = func(_ types.NodeID, _ types.Message, out *consensus.Out) {
		out.Evidence(0, "equivocation")
	}
	c := NewCluster(engines)
	c.Propose(0, []types.ClientRequest{MakeRequest(1, 1)})
	c.Run(100)
	if len(c.Evidence[1]) != 1 || c.Evidence[1][0].Culprit != 0 {
		t.Fatalf("evidence not captured: %+v", c.Evidence[1])
	}
}

func TestMakeRequestDistinct(t *testing.T) {
	a := MakeRequest(1, 1)
	b := MakeRequest(1, 2)
	da := types.BatchDigest([]types.ClientRequest{a})
	db := types.BatchDigest([]types.ClientRequest{b})
	if da == db {
		t.Fatal("MakeRequest not distinct across sequence numbers")
	}
}
