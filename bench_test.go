package resilientdb_test

import (
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/bench"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Each benchmark regenerates one table/figure of the paper's evaluation
// (Section 5) through the experiment suite at small scale and reports the
// figure's headline metrics. Run the resdb-bench command with
// -scale paper for full-scale populations and rendered tables:
//
//	go run ./cmd/resdb-bench -experiment all -scale paper
//
// Shapes — who wins, by what factor, where crossovers fall — are the
// reproduction target; see EXPERIMENTS.md for paper-vs-measured numbers.

// runFigure executes an experiment once per benchmark iteration and
// reports the selected metrics.
func runFigure(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var out bench.Outcome
	var err error
	for i := 0; i < b.N; i++ {
		out, err = e.Run(bench.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
	}
	for key, unit := range metrics {
		if v, ok := out.Metrics[key]; ok {
			b.ReportMetric(v, unit)
		}
	}
}

// BenchmarkFig01ScalabilityHeadline regenerates Figure 1: ResilientDB's
// three-phase PBFT on the full pipeline vs single-phase Zyzzyva on a
// protocol-centric design. Paper: up to 175K txn/s and +79% for PBFT.
func BenchmarkFig01ScalabilityHeadline(b *testing.B) {
	runFigure(b, "fig1", map[string]string{
		"pbft_n16_tps":      "pbft_txn/s",
		"zyz_pc_n16_tps":    "zyz_txn/s",
		"advantage_pct_n16": "adv_%",
	})
}

// BenchmarkFig07UpperBound regenerates Figure 7: the no-consensus
// ceiling. Paper: up to ~500K txn/s.
func BenchmarkFig07UpperBound(b *testing.B) {
	runFigure(b, "fig7", map[string]string{
		"noexec_c80000_tps": "noexec_txn/s",
		"exec_c80000_tps":   "exec_txn/s",
	})
}

// BenchmarkFig08ThreadsPipeline regenerates Figure 8: every thread
// configuration × replica count. Paper: PBFT gains 1.39× from 0B0E to
// 2B1E; Zyzzyva 1.72×.
func BenchmarkFig08ThreadsPipeline(b *testing.B) {
	runFigure(b, "fig8", map[string]string{
		"pbft_pipeline_gain_x": "pbft_gain_x",
		"zyz_pipeline_gain_x":  "zyz_gain_x",
	})
}

// BenchmarkFig09Saturation regenerates Figure 9: per-thread saturation.
// Paper: worker saturates under 0B0E; batch-threads dominate under 2B1E.
func BenchmarkFig09Saturation(b *testing.B) {
	runFigure(b, "fig9", map[string]string{
		"pbft_0B0E_primary_worker_sat": "mono_worker_sat",
		"pbft_2B1E_primary_batch1_sat": "pipe_batch_sat",
	})
}

// BenchmarkFig10Batching regenerates Figure 10. Paper: batching is worth
// up to 66×, peaking near batch=1000.
func BenchmarkFig10Batching(b *testing.B) {
	runFigure(b, "fig10", map[string]string{
		"batching_gain_x": "gain_x",
		"batch100_tps":    "b100_txn/s",
	})
}

// BenchmarkFig11MultiOperation regenerates Figure 11. Paper: txn/s falls
// ~93% from 1 to 50 ops; extra batch-threads recover up to 66%.
func BenchmarkFig11MultiOperation(b *testing.B) {
	runFigure(b, "fig11", map[string]string{
		"ops1_2B_tps":  "ops1_txn/s",
		"ops50_2B_tps": "ops50_txn/s",
		"ops50_5B_tps": "ops50_5B_txn/s",
	})
}

// BenchmarkFig12MessageSize regenerates Figure 12. Paper: 8KB→64KB
// pre-prepares cost ~52% throughput.
func BenchmarkFig12MessageSize(b *testing.B) {
	runFigure(b, "fig12", map[string]string{
		"size_tput_drop_pct": "drop_%",
	})
}

// BenchmarkFig13Signatures regenerates Figure 13. Paper: crypto ≥49%
// throughput cost; clever schemes beat RSA by ~103×.
func BenchmarkFig13Signatures(b *testing.B) {
	runFigure(b, "fig13", map[string]string{
		"crypto_cost_pct": "crypto_%",
		"scheme_gain_x":   "vs_rsa_x",
	})
}

// BenchmarkFig14Storage regenerates Figure 14. Paper: off-memory storage
// costs ~94% throughput and ~24× latency.
func BenchmarkFig14Storage(b *testing.B) {
	runFigure(b, "fig14", map[string]string{
		"storage_drop_pct":  "drop_%",
		"storage_latency_x": "lat_x",
	})
}

// BenchmarkFig15Clients regenerates Figure 15. Paper: throughput
// saturates near 32K clients; latency grows ~5×.
func BenchmarkFig15Clients(b *testing.B) {
	runFigure(b, "fig15", map[string]string{
		"latency_growth_x": "lat_growth_x",
	})
}

// BenchmarkFig16Cores regenerates Figure 16. Paper: 8 cores are worth
// 8.92× over 1 core.
func BenchmarkFig16Cores(b *testing.B) {
	runFigure(b, "fig16", map[string]string{
		"core_scaling_x": "scaling_x",
	})
}

// BenchmarkFig17Failures regenerates Figure 17. Paper: PBFT dips
// slightly under crashes; Zyzzyva loses ~39×.
func BenchmarkFig17Failures(b *testing.B) {
	runFigure(b, "fig17", map[string]string{
		"zyz_collapse_x": "zyz_collapse_x",
		"pbft_f5_ratio":  "pbft_f5_ratio",
	})
}

// BenchmarkAblationOutOfOrder measures Section 4.5's claim that
// out-of-order consensus processing is worth ~60% throughput.
func BenchmarkAblationOutOfOrder(b *testing.B) {
	runFigure(b, "ablation-ooo", map[string]string{
		"ooo_gain_pct": "gain_%",
	})
}

// BenchmarkAblationDecoupledExecution measures the Section 3 claim that
// decoupling execution from ordering is worth ~9.5%.
func BenchmarkAblationDecoupledExecution(b *testing.B) {
	runFigure(b, "ablation-exec", map[string]string{
		"decouple_gain_pct": "gain_%",
	})
}

// benchTCPTransport pumps b.N envelopes through a localhost TCP pair with
// the given transport batching config and reports envelopes per second.
// The workload is identical across configs — only the framing differs —
// so the two benchmarks below compare the batched send path against the
// per-envelope baseline at equal client load.
func benchTCPTransport(b *testing.B, batchMax int) {
	b.Helper()
	rx, err := transport.NewTCPWithConfig(transport.TCPConfig{Self: types.ReplicaNode(1), ListenAddr: "127.0.0.1:0", Inboxes: 1, Capacity: 1 << 15})
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	tx, err := transport.NewTCPWithConfig(transport.TCPConfig{
		Self:       types.ReplicaNode(0),
		ListenAddr: "127.0.0.1:0",
		Inboxes:    1,
		Capacity:   16,
		BatchMax:   batchMax,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Close()
	tx.SetPeerAddr(types.ReplicaNode(1), rx.Addr())

	body := make([]byte, 256)
	auth := make([]byte, 32)
	b.SetBytes(int64(len(body) + len(auth)))
	b.ResetTimer()
	var sendErrs atomic.Int64
	go func() {
		for i := 0; i < b.N; i++ {
			if tx.Send(&types.Envelope{
				From: types.ReplicaNode(0),
				To:   types.ReplicaNode(1),
				Type: types.MsgPrepare,
				Body: body,
				Auth: auth,
			}) != nil {
				sendErrs.Add(1)
			}
		}
	}()
	received := 0
	lastProgress := time.Now()
	for received+int(rx.Drops())+int(sendErrs.Load()) < b.N {
		select {
		case <-rx.Inbox(0):
			received++
			lastProgress = time.Now()
		case <-time.After(50 * time.Millisecond):
			// Re-check drop and error counters so a dropped tail cannot
			// hang the benchmark; a write error can also discard envelopes
			// already queued on the torn-down writer, which no counter
			// sees, so a stall deadline backstops the accounting.
			if time.Since(lastProgress) > 5*time.Second {
				b.Fatalf("stalled: received=%d drops=%d sendErrs=%d of %d",
					received, rx.Drops(), sendErrs.Load(), b.N)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(received)/b.Elapsed().Seconds(), "env/s")
}

// BenchmarkTCPTransportBatched measures the batch-frame send path: each
// peer's writer coalesces queued envelopes into multi-envelope frames,
// one write syscall per batch.
func BenchmarkTCPTransportBatched(b *testing.B) {
	benchTCPTransport(b, transport.DefaultBatchMax)
}

// BenchmarkTCPTransportUnbatched measures the per-envelope baseline: one
// frame and one write syscall per envelope, the transport's pre-batching
// behavior.
func BenchmarkTCPTransportUnbatched(b *testing.B) {
	benchTCPTransport(b, 1)
}
