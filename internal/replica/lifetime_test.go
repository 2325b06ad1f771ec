package replica

import (
	"testing"

	"resilientdb/internal/types"
)

// TestProposalLifetimeAcrossViewChange pins the counted lifetime of a
// decoded proposal. A client request at the primary and a pre-prepare at a
// backup are decoded in place, their views held by a reference on the frame
// (or, in process, the sender's encode buffer) they arrived in, their
// message and arrays lent from the hold pool; the engine's log holds each
// batch until a checkpoint prunes it and the execute stage until the batch
// retires, whichever is later, and every refusal lets go at once. Every
// pooled buffer is poisoned when it goes back (poisonBuffers), and so is
// every message, request, transaction and op array (SetPoisonLent): a
// holder that read on past the last release would see 0xDB. The run is
// testLentAcrossViewChange's — closed-loop rounds, a checkpoint every fourth
// batch, a forced view change with one replica's NewView held back so it
// keeps its peers' pre-prepares and replays them — and its stores and
// ledgers must agree byte for byte. Once every replica has stopped, no
// proposal may still hold memory: the count of live holds is back where it
// started.
func TestProposalLifetimeAcrossViewChange(t *testing.T) {
	for _, fabric := range []string{"tcp", "inproc"} {
		t.Run(fabric, func(t *testing.T) {
			live := types.LiveProposals()
			c := testLentAcrossViewChange(t, fabric == "tcp", 1, 4)
			for _, r := range c.replicas {
				r.Stop()
			}
			if got := types.LiveProposals() - live; got != 0 {
				t.Fatalf("%d proposals still hold memory after every replica stopped", got)
			}
			if hits, misses := c.bufs.Stats(); hits == 0 {
				t.Fatalf("no buffer was ever recycled (%d allocated): the run proved nothing", misses)
			}
		})
	}
}
