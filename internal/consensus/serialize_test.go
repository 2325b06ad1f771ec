package consensus

import (
	"sync"
	"testing"

	"resilientdb/internal/types"
)

// countEngine is a deliberately non-thread-safe Engine: the unsynchronized
// counter lets the race detector prove Serialize actually serializes.
type countEngine struct {
	steps int
}

func (c *countEngine) OnMessage(types.NodeID, types.Message, []byte, *Out) { c.steps++ }
func (c *countEngine) Propose([]types.ClientRequest, *Out) bool            { c.steps++; return false }
func (c *countEngine) OnExecuted(types.SeqNum, types.Digest, *Out)         { c.steps++ }
func (c *countEngine) OnViewTimeout(types.View, *Out)                      { c.steps++ }
func (c *countEngine) View() types.View                                    { return 7 }
func (c *countEngine) IsPrimary() bool                                     { return true }
func (c *countEngine) Stats() EngineStats                                  { return EngineStats{Proposed: 9} }

// concurrentEngine marks itself safe for concurrent stepping.
type concurrentEngine struct{ countEngine }

func (c *concurrentEngine) ConcurrentStepping() {}

func TestSerializeUnwrapsConcurrentSteppers(t *testing.T) {
	e := &concurrentEngine{}
	if got := Serialize(e); got != Engine(e) {
		t.Fatal("Serialize must pass a ConcurrentStepper through unchanged")
	}
}

func TestSerializeWrapsAndSerializes(t *testing.T) {
	inner := &countEngine{}
	e := Serialize(inner)
	if e == Engine(inner) {
		t.Fatal("Serialize must wrap a non-concurrent engine")
	}
	// Hammer every stepping method from many goroutines; the wrapper's
	// mutex is the only thing between them and inner's unsynchronized
	// counter, so -race verifies the serialization.
	var wg sync.WaitGroup
	const g, per = 8, 200
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out Out
			for j := 0; j < per; j++ {
				e.OnMessage(types.ReplicaNode(2), &types.Prepare{}, nil, &out)
				e.Propose(nil, &out)
				e.OnExecuted(1, types.Digest{}, &out)
				e.OnViewTimeout(7, &out)
			}
		}()
	}
	wg.Wait()
	if inner.steps != g*per*4 {
		t.Fatalf("steps = %d, want %d", inner.steps, g*per*4)
	}
	// Observers pass through without the lock.
	if e.View() != 7 || !e.IsPrimary() || e.Stats().Proposed != 9 {
		t.Fatal("observer passthrough broken")
	}
}
