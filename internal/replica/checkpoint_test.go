package replica

import (
	"testing"

	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// TestCheckpointVoteCheckedOnlyWhileItCounts pins the cost the engine
// contract claims for a checkpoint: with its own vote in first, a replica
// checks 2f peer signatures (2 at n = 4), not n-1, because a vote that
// arrives after the quorum is dropped unchecked. A forged vote that would
// still count is checked, refused before the engine records it, and counted
// as a rejected checkpoint signature and as evidence; the sender's genuine
// vote still counts after it.
//
// The test is the replica's input-thread and checkpoint-thread: nothing is
// started. Every row runs twice, once on the bare engine and once with the
// engine wrapped the way tamper_test.go wraps it: the replica asks whichever
// engine it holds, so a wrapper changes neither the count nor the proposal
// head.
func TestCheckpointVoteCheckedOnlyWhileItCounts(t *testing.T) {
	const seq = types.SeqNum(1)
	self := types.ReplicaNode(1)
	// vote is one peer's vote; a forged one carries replica 3's signature.
	type vote struct {
		from   types.ReplicaID
		forged bool
	}
	rows := []struct {
		name                        string
		votes                       []vote // in arrival order
		verifies, rejects, evidence uint64
		stable                      bool
	}{
		{name: "quorum-then-late-vote", votes: []vote{{0, false}, {2, false}, {3, false}}, verifies: 2, stable: true},
		{name: "forged-vote-that-counts", votes: []vote{{2, true}, {2, false}}, verifies: 2, rejects: 1, evidence: 1},
	}
	for _, wrapped := range []bool{false, true} {
		for _, row := range rows {
			name := row.name
			if wrapped {
				name += "/wrapped"
			}
			t.Run(name, func(t *testing.T) {
				dir, err := crypto.NewDirectory(crypto.Recommended(), [32]byte{35})
				if err != nil {
					t.Fatal(err)
				}
				r, err := New(Config{
					ID: self.Replica(), N: 4, CheckpointInterval: 1,
					Directory: dir, Endpoint: transport.NewInproc().Endpoint(self, 3, 16),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer r.engine.Close()
				if wrapped {
					r.engine = &proposalCounter{Engine: r.engine}
				}
				if _, err := r.ledger.Append(seq, 0, types.Digest{1}, nil, 1); err != nil {
					t.Fatal(err)
				}
				digest, err := r.ledger.Checkpoint(seq)
				if err != nil {
					t.Fatal(err)
				}

				// The replica's own vote goes in first, as the execute stage
				// casts it.
				var out consensus.Out
				r.engine.OnExecuted(seq, digest, dir.SignCheckpoint(self, seq, digest), &out)
				r.handleActions(&out)

				for _, v := range row.votes {
					signer := types.ReplicaNode(v.from)
					if v.forged {
						signer = types.ReplicaNode(3)
					}
					body := types.MarshalBody(&types.Checkpoint{
						Seq: seq, StateDigest: digest, Replica: v.from,
						Sig: dir.SignCheckpoint(signer, seq, digest),
					})
					from := types.ReplicaNode(v.from)
					tag, err := dir.NodeAuth(from).Sign(self, types.AuthenticatedBytes(types.MsgCheckpoint, body))
					if err != nil {
						t.Fatal(err)
					}
					env := types.AcquireEnvelope()
					env.From, env.To, env.Type, env.Body = from, self, types.MsgCheckpoint, body
					env.Auth = append(env.AuthBuffer(), tag...)
					r.admit(env)
					r.processItem(<-r.ckptQ.C(), &out)
				}

				s := r.Stats()
				if s.AuthFailures != 0 || s.DecodeFailures != 0 {
					t.Fatalf("%d auth and %d decode failures: the votes never reached the checkpoint stage", s.AuthFailures, s.DecodeFailures)
				}
				if s.CheckpointVerifies != row.verifies || s.CheckpointRejects != row.rejects || s.Evidence != row.evidence {
					t.Fatalf("checkpoint verifies %d, rejects %d, evidence %d; want %d, %d, %d",
						s.CheckpointVerifies, s.CheckpointRejects, s.Evidence, row.verifies, row.rejects, row.evidence)
				}
				stable := r.Ledger().Certificate().Seq == seq
				if stable != row.stable {
					t.Fatalf("checkpoint %d certified: %v, want %v", seq, stable, row.stable)
				}
				// A stable checkpoint lifts a backup's proposal head to it.
				if head, want := r.ProposalHead(), r.engine.LastProposed(); head != want || row.stable && head != seq {
					t.Fatalf("proposal head %d, engine's last proposed %d, want both %d once stable", head, want, seq)
				}
			})
		}
	}
}
