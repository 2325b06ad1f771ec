package enginetest

import (
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/types"
)

// fakeEngine records calls and emits scripted actions so the harness
// itself can be tested.
type fakeEngine struct {
	id       types.ReplicaID
	n        int
	received []types.Message
	onMsg    func(from types.NodeID, msg types.Message) []consensus.Action
}

func (f *fakeEngine) OnMessage(from types.NodeID, msg types.Message, _ []byte) []consensus.Action {
	f.received = append(f.received, msg)
	if f.onMsg != nil {
		return f.onMsg(from, msg)
	}
	return nil
}
func (f *fakeEngine) Propose(reqs []types.ClientRequest) []consensus.Action {
	return []consensus.Action{consensus.Broadcast{Msg: &types.PrePrepare{Seq: 1, Requests: reqs}}}
}
func (f *fakeEngine) OnExecuted(types.SeqNum, types.Digest) []consensus.Action { return nil }
func (f *fakeEngine) OnViewTimeout(types.View) []consensus.Action              { return nil }
func (f *fakeEngine) View() types.View                                         { return 0 }
func (f *fakeEngine) IsPrimary() bool                                          { return f.id == 0 }
func (f *fakeEngine) Stats() consensus.EngineStats                             { return consensus.EngineStats{} }

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
	c.handleActions(2, []consensus.Action{consensus.Broadcast{Msg: &types.Prepare{Seq: 1}}})
	if c.Pending() != 0 {
		t.Fatal("downed replica's broadcast entered the network")
	}
}

func TestExecutionLayerReorders(t *testing.T) {
	engines, _ := fakes(4)
	c := NewCluster(engines)
	// Release executions out of order; the harness must deliver in order.
	c.handleActions(1, []consensus.Action{consensus.Execute{Seq: 2, Digest: types.Digest{2}}})
	if len(c.Executed[1]) != 0 {
		t.Fatal("executed seq 2 before seq 1")
	}
	c.handleActions(1, []consensus.Action{consensus.Execute{Seq: 1, Digest: types.Digest{1}}})
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
	c.handleActions(3, []consensus.Action{consensus.Send{
		To:  types.ClientNode(9),
		Msg: &types.ClientResponse{Client: 9, ClientSeq: 1},
	}})
	c.Run(100)
	if len(c.ToClients) != 1 || c.ToClients[0].To != types.ClientNode(9) {
		t.Fatalf("client delivery not captured: %+v", c.ToClients)
	}
}

func TestEvidenceCaptured(t *testing.T) {
	engines, raw := fakes(4)
	raw[1].onMsg = func(types.NodeID, types.Message) []consensus.Action {
		return []consensus.Action{consensus.Evidence{Culprit: 0, Detail: "equivocation"}}
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
