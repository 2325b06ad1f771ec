package consensus

import (
	"reflect"
	"testing"

	"resilientdb/internal/types"
)

func TestQuorumArithmetic(t *testing.T) {
	tests := []struct {
		n, f, q2f, q2f1 int
	}{
		{4, 1, 2, 3},
		{7, 2, 4, 5},
		{10, 3, 6, 7},
		{16, 5, 10, 11},
		// For n beyond 3f+1 quorums generalize to n−f, which is what keeps
		// any two commit quorums overlapping in more than f replicas.
		{32, 10, 21, 22},
		{5, 1, 3, 4},
	}
	for _, tt := range tests {
		if got := MaxFaults(tt.n); got != tt.f {
			t.Fatalf("MaxFaults(%d) = %d, want %d", tt.n, got, tt.f)
		}
		if got := Quorum2f(tt.n); got != tt.q2f {
			t.Fatalf("Quorum2f(%d) = %d, want %d", tt.n, got, tt.q2f)
		}
		if got := Quorum2f1(tt.n); got != tt.q2f1 {
			t.Fatalf("Quorum2f1(%d) = %d, want %d", tt.n, got, tt.q2f1)
		}
	}
}

// TestQuorumIntersection verifies the BFT safety foundation: any two
// commit quorums of 2f+1 among 3f+1 replicas intersect in at least f+1
// replicas — more than the f that can be byzantine, so at least one
// honest replica witnesses both.
func TestQuorumIntersection(t *testing.T) {
	for _, n := range []int{4, 7, 16, 31, 32} {
		f := MaxFaults(n)
		q := Quorum2f1(n)
		// Two quorums of size q drawn from n overlap in ≥ 2q−n replicas.
		overlap := 2*q - n
		if overlap < f+1 {
			t.Fatalf("n=%d: quorums may overlap in only %d ≤ f=%d replicas", n, overlap, f)
		}
	}
}

func TestPrimaryRotation(t *testing.T) {
	n := 4
	for v := 0; v < 10; v++ {
		want := types.ReplicaID(v % n)
		if got := PrimaryOf(types.View(v), n); got != want {
			t.Fatalf("PrimaryOf(%d, %d) = %d, want %d", v, n, got, want)
		}
	}
	// Each of n consecutive views has a distinct primary.
	seen := make(map[types.ReplicaID]bool)
	for v := 0; v < n; v++ {
		seen[PrimaryOf(types.View(v), n)] = true
	}
	if len(seen) != n {
		t.Fatalf("only %d distinct primaries across %d views", len(seen), n)
	}
}

// TestActionTypesSealed ensures every action type implements the marker
// interface (compile-time enforced; this documents the set).
func TestActionTypesSealed(t *testing.T) {
	actions := []Action{
		Send{}, Broadcast{}, Execute{}, CheckpointStable{}, ViewChanged{}, Evidence{},
	}
	if len(actions) != 6 {
		t.Fatalf("action set changed: %d", len(actions))
	}
}

// TestOutKeepsOrderAndResetDropsPayloads: entries come back in the order
// they were appended, Reset zeroes them so the buffer keeps no message or
// batch reachable, and once the buffer has grown a step appends without
// allocating.
func TestOutKeepsOrderAndResetDropsPayloads(t *testing.T) {
	var out Out
	vote := &types.Prepare{Seq: 1}
	reqs := []types.ClientRequest{{Client: 1}}
	out.Broadcast(vote)
	out.Execute(Execute{Seq: 1, Requests: reqs})
	out.Send(types.ClientNode(9), vote)
	out.CheckpointStable(1, types.Digest{}, nil)
	out.ViewChanged(2)
	out.Evidence(3, "equivocation")
	var kinds []Kind
	for _, o := range out.Outputs() {
		kinds = append(kinds, o.Kind)
	}
	want := []Kind{KindBroadcast, KindExecute, KindSend, KindCheckpointStable, KindViewChanged, KindEvidence}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kinds %v, want %v", kinds, want)
	}
	if o := out.Outputs()[1]; o.Execute.Seq != 1 || &o.Execute.Requests[0] != &reqs[0] {
		t.Fatalf("the Execute entry does not carry its batch: %+v", o.Execute)
	}
	used := out.list
	out.Reset()
	if len(out.Outputs()) != 0 {
		t.Fatalf("%d entries after Reset", len(out.Outputs()))
	}
	for i := range used {
		if !reflect.DeepEqual(used[i], Output{}) {
			t.Fatalf("entry %d still holds %+v after Reset", i, used[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		out.Broadcast(vote)
		out.Execute(Execute{Seq: 2, Requests: reqs})
		out.CheckpointStable(2, types.Digest{}, nil)
		out.Reset()
	})
	if allocs != 0 {
		t.Fatalf("a step into a grown Out allocates %.0f, want 0", allocs)
	}
}
