package replica

import (
	"strings"
	"testing"

	"resilientdb/internal/types"
)

func TestWorkerThreadsValidation(t *testing.T) {
	cfg := validConfig(t)
	cfg.WorkerThreads = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative WorkerThreads accepted")
	}
}

func TestWorkerThreadsDefaultSingleLane(t *testing.T) {
	r, err := New(validConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.WorkerLanes() != 1 {
		t.Fatalf("default lanes = %d, want 1", r.WorkerLanes())
	}
}

func TestPBFTGetsRequestedLanes(t *testing.T) {
	cfg := validConfig(t)
	cfg.WorkerThreads = 4
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.WorkerLanes() != 4 {
		t.Fatalf("lanes = %d, want 4", r.WorkerLanes())
	}
	if got := len(r.Stats().WorkerLaneBusyNS); got != 4 {
		t.Fatalf("stats report %d lanes, want 4", got)
	}
}

// TestZyzzyvaForcedSingleLane keeps its name from when a Zyzzyva replica
// ran one lane whatever W asked for. No replica runs Zyzzyva now: a
// config naming it (Protocol 2) is refused, at any lane count, with the
// error pointing at the simulator, where Zyzzyva lives.
func TestZyzzyvaForcedSingleLane(t *testing.T) {
	for _, w := range []int{1, 8} {
		cfg := validConfig(t)
		cfg.Protocol = 2
		cfg.WorkerThreads = w
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "internal/sim") {
			t.Fatalf("W=%d: New with Zyzzyva's protocol value = %v, want a refusal naming internal/sim", w, err)
		}
	}
}

// TestLaneRouting checks the routing invariants the engine relies on:
// sequence-carrying messages spread by seq mod W, control traffic stays
// on lane 0, and messages for one sequence number always share a lane.
func TestLaneRouting(t *testing.T) {
	cfg := validConfig(t)
	cfg.WorkerThreads = 4
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seq := types.SeqNum(1); seq <= 16; seq++ {
		want := int(uint64(seq) % 4)
		pp := &types.PrePrepare{Seq: seq}
		p := &types.Prepare{Seq: seq}
		c := &types.Commit{Seq: seq}
		if r.laneOf(pp) != want || r.laneOf(p) != want || r.laneOf(c) != want {
			t.Fatalf("seq %d not routed consistently to lane %d", seq, want)
		}
	}
	// Control traffic has no instance to stripe: lane 0.
	for _, m := range []types.Message{
		&types.ViewChange{NewView: 3},
		&types.NewView{View: 3},
	} {
		if got := r.laneOf(m); got != 0 {
			t.Fatalf("%T routed to lane %d, want control lane 0", m, got)
		}
	}
	// Messages for a view other than the engine's current one must stay
	// on lane 0: a new view's first pre-prepares follow the NewView from
	// the same sender and must not overtake it on a seq lane.
	for _, m := range []types.Message{
		&types.PrePrepare{View: 1, Seq: 6},
		&types.Prepare{View: 1, Seq: 6},
		&types.Commit{View: 1, Seq: 6},
	} {
		if got := r.laneOf(m); got != 0 {
			t.Fatalf("other-view %T routed to lane %d, want control lane 0", m, got)
		}
	}
}

// TestDecodeFailuresSplitFromAuthFailures pins the stats split: malformed
// bodies must land in DecodeFailures, not AuthFailures, so garbage
// traffic cannot mask a real forgery signal.
func TestDecodeFailuresSplitFromAuthFailures(t *testing.T) {
	r, err := New(validConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// A Prepare body must be 8+8+32+2 bytes; 3 bytes cannot decode.
	r.route(&types.Envelope{
		From: types.ReplicaNode(1),
		To:   types.ReplicaNode(0),
		Type: types.MsgPrepare,
		Body: []byte{1, 2, 3},
	}, false)
	s := r.Stats()
	if s.DecodeFailures != 1 {
		t.Fatalf("DecodeFailures = %d, want 1", s.DecodeFailures)
	}
	if s.AuthFailures != 0 {
		t.Fatalf("AuthFailures = %d, want 0 (decode garbage must not count as auth)", s.AuthFailures)
	}
}

// TestSendAfterStopDoesNotPanic: a producer that outlives Stop (the
// watchdog, a late execution) must drop its envelope cleanly — the closed
// endpoint refuses it. TestStopWhileSending races the two.
func TestSendAfterStopDoesNotPanic(t *testing.T) {
	r, err := New(validConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Stop()
	before := r.Stats().MsgsOut
	r.send(&types.Envelope{
		From: types.ReplicaNode(0),
		To:   types.ReplicaNode(1),
		Type: types.MsgPrepare,
	})
	if got := r.Stats().MsgsOut; got != before {
		t.Fatalf("MsgsOut grew from %d to %d after Stop", before, got)
	}
}
