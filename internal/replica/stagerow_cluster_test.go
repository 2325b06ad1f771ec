// Whole-cluster coverage for the stage table, in the external test package
// for the reason workerlanes_stress_test.go gives.
package replica_test

import (
	"context"
	"testing"
	"time"

	"resilientdb/internal/chaos"
	"resilientdb/internal/cluster"
	"resilientdb/internal/crypto"
	"resilientdb/internal/replica"
	"resilientdb/internal/store"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// stageRow is what one run shows of one replica's stages: each stage's busy
// share of the run, and the execute stage's fullest backlog against its
// window.
type stageRow struct {
	busy     [replica.StageOutput + 1]float64
	execFill float64
}

// slowedRowMargin is how far a busy share of a stage that was not slowed may
// rise. Busy time is wall time, so a stage descheduled mid-work books the
// wait: beside two CPU hogs on two cores an input or worker share moved by
// up to 0.15 between runs. The stall moves the slowed stage's share by about
// 0.9, and a stall that leaked into another stage would move that one's by
// as much.
const slowedRowMargin = 0.25

// stopFill is the execute fill at which a run ends early. A backup whose
// backlog reaches its watermark window stops taking part in consensus and
// its worker-thread waits on the in-order queue, which is a stall leaking
// into another stage, so the slowed run stops well short of that.
const stopFill = 0.25

// runStageRow runs a closed-loop load for d, or until the execute fill
// reaches stopFill, on a 4-replica cluster in which backup 3's store sleeps
// for stall in every write call, and reads backup 3's row.
func runStageRow(t *testing.T, stall, d time.Duration) stageRow {
	t.Helper()
	const slowed = 3
	wl := workload.Default()
	wl.Records = 1000
	wl.ValueSize = 16
	sf := chaos.NewStoreFaults()
	c, err := cluster.New(cluster.Options{
		N:         4,
		Clients:   8,
		Burst:     4,
		BatchSize: 32,
		Crypto:    crypto.NoSig(),
		Workload:  wl,
		Seed:      21,
		StoreWrapper: func(id types.ReplicaID, st store.Store) store.Store {
			if id != slowed {
				return st
			}
			return sf.WrapStore(st)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	sf.SetWriteStall(stall)

	r := c.Replica(slowed)
	before := r.Stats()
	var row stageRow
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for ctx.Err() == nil && row.execFill < stopFill {
			select {
			case <-tick.C:
			case <-ctx.Done():
			}
			s := r.Stats()
			row.execFill = max(row.execFill, float64(s.ExecBacklog)/float64(s.ExecWindow))
		}
		cancel()
	}()
	t0 := time.Now()
	res := c.Run(ctx, d)
	cancel()
	<-done
	wall := time.Since(t0)
	after := r.Stats()
	sf.SetWriteStall(0)
	if res.Txns == 0 {
		t.Fatalf("no transaction completed with backup %d's store stalled %v: %s", slowed, stall, res)
	}
	for st := range row.busy {
		row.busy[st] = float64(after.BusyNS[st]-before.BusyNS[st]) / float64(wall)
	}
	t.Logf("stall %v: %s; backup %d busy input %.3f batch %.3f worker %.3f execute %.3f checkpoint %.3f, exec fill %.4f",
		stall, res, slowed, row.busy[replica.StageInput], row.busy[replica.StageBatch], row.busy[replica.StageWorker],
		row.busy[replica.StageExecute], row.busy[replica.StageCheckpoint], row.execFill)
	return row
}

// TestStalledStoreShowsInExecuteRow slows one stage of one backup, its
// store's writes, and checks that the backup's own row says so: the execute
// stage's busy share and its backlog against the watermark window rise, and
// the busy shares of input, batch and worker do not rise past
// slowedRowMargin. A 1 ms stall per write call caps the backup at about
// 1,000 batches a second, far below the other three's pace, so its backlog
// reaches stopFill within the run; without the stall it stays near 0.
func TestStalledStoreShowsInExecuteRow(t *testing.T) {
	const d = 400 * time.Millisecond
	base := runStageRow(t, 0, d)
	slow := runStageRow(t, time.Millisecond, d)
	if slow.busy[replica.StageExecute] <= base.busy[replica.StageExecute] {
		t.Errorf("execute busy share %.3f with the store stalled, %.3f without: the slowed stage does not show in its row",
			slow.busy[replica.StageExecute], base.busy[replica.StageExecute])
	}
	if slow.execFill <= base.execFill {
		t.Errorf("execute fill %.4f with the store stalled, %.4f without: the backlog does not show in the execute row",
			slow.execFill, base.execFill)
	}
	for _, st := range []replica.Stage{replica.StageInput, replica.StageBatch, replica.StageWorker} {
		if slow.busy[st] > base.busy[st]+slowedRowMargin {
			t.Errorf("%s busy share rose from %.3f to %.3f with the store stalled: past the %.2f margin, the stall shows in a stage it is not in",
				st, base.busy[st], slow.busy[st], slowedRowMargin)
		}
	}
}
