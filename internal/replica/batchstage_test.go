package replica

import (
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// TestBatchStageDrainsThenProposes: requests already queued when a
// batch-thread looks come out as one proposal — everything queued, cut at
// BatchSize, in queue order — and what the cut left behind is the next
// proposal, with nothing waited for in between.
func TestBatchStageDrainsThenProposes(t *testing.T) {
	const batchSize, burst = 32, 4
	for _, k := range []int{1, 3, 8, 11} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			dir, err := crypto.NewDirectory(crypto.NoSig(), [32]byte{4})
			if err != nil {
				t.Fatal(err)
			}
			net := transport.NewInproc()
			backup := net.Endpoint(types.ReplicaNode(1), 1, 64)
			r, err := New(Config{
				ID:           0,
				N:            4,
				Protocol:     PBFT,
				BatchSize:    batchSize,
				BatchThreads: 1,
				Directory:    dir,
				Endpoint:     net.Endpoint(types.ReplicaNode(0), 3, 64),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				req := &types.ClientRequest{Client: types.ClientID(i), FirstSeq: 1, Txns: make([]types.Transaction, burst)}
				for j := range req.Txns {
					req.Txns[j] = types.Transaction{Client: req.Client, ClientSeq: uint64(1 + j)}
				}
				signRequest(t, dir, req)
				r.batchQ.Push(req)
			}
			r.Start()
			t.Cleanup(r.Stop)

			next := 0 // the queue position the next proposal must start at
			for seq := types.SeqNum(1); next < k; seq++ {
				pp := nextPrePrepare(t, backup)
				want := k - next
				if want > batchSize/burst {
					want = batchSize / burst
				}
				if pp.Seq != seq || len(pp.Requests) != want {
					t.Fatalf("proposal seq %d carries %d requests, want seq %d with %d of the %d queued",
						pp.Seq, len(pp.Requests), seq, want, k)
				}
				for i, req := range pp.Requests {
					if int(req.Client) != next+i || len(req.Txns) != burst {
						t.Fatalf("proposal %d slot %d holds client %d with %d txns, want client %d with %d: queue order lost",
							seq, i, req.Client, len(req.Txns), next+i, burst)
					}
				}
				next += want
			}
			if got := r.Stats().BatchesProposed; got != uint64((k*burst+batchSize-1)/batchSize) {
				t.Fatalf("%d proposals for %d queued transactions at BatchSize %d", got, k*burst, batchSize)
			}
		})
	}
}

// nextPrePrepare returns the next PrePrepare the primary broadcast to ep.
func nextPrePrepare(t *testing.T, ep transport.Endpoint) *types.PrePrepare {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case env := <-ep.Inbox(0):
			if env.Type != types.MsgPrePrepare {
				env.Release()
				continue
			}
			msg, err := types.DecodeBody(env.Type, env.Body)
			env.Release()
			if err != nil {
				t.Fatal(err)
			}
			return msg.(*types.PrePrepare)
		case <-deadline:
			t.Fatal("no proposal arrived")
		}
	}
}
