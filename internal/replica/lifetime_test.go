package replica

import (
	"testing"

	"resilientdb/internal/store"
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
// started. The replicas run on disk stores that compact their logs at every
// stable checkpoint, and once the stores close too, no record table holds
// memory outside the Go heap either: the mapped bytes are back where they
// started.
func TestProposalLifetimeAcrossViewChange(t *testing.T) {
	for _, fabric := range []string{"tcp", "inproc"} {
		t.Run(fabric, func(t *testing.T) {
			live, mapped := types.LiveProposals(), store.MappedBytes()
			c := testLentAcrossViewChange(t, fabric == "tcp", 1, 4, true)
			for _, r := range c.replicas {
				r.Stop()
			}
			if got := types.LiveProposals() - live; got != 0 {
				t.Fatalf("%d proposals still hold memory after every replica stopped", got)
			}
			compactions := uint64(0)
			for _, r := range c.replicas {
				compactions += r.Stats().StoreCompactions
			}
			if compactions == 0 {
				t.Fatal("no store compacted its log: the run proved nothing of compaction")
			}
			for _, st := range c.stores {
				st.Close()
			}
			if got := store.MappedBytes() - mapped; got > 0 {
				t.Fatalf("%d mapped bytes still held after every replica stopped and its store closed", got)
			}
			if hits, misses := c.bufs.Stats(); hits == 0 {
				t.Fatalf("no buffer was ever recycled (%d allocated): the run proved nothing", misses)
			}
		})
	}
}
