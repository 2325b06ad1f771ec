// Simulate: replay the paper's headline experiment (Figure 1) at full
// scale — up to 32 replicas with 8 cores each and tens of thousands of
// closed-loop clients — using the deterministic simulator, then the
// Section 5.10 failure story (Figure 17: one crashed backup) and the
// Figure 13 signature-scheme comparison.
//
//	go run ./examples/simulate
package main

import (
	"fmt"
	"log"
	"os"

	"resilientdb"
)

// millisecond is one millisecond of simulated time, which counts
// nanoseconds.
const millisecond = 1_000_000

func simulate(cfg resilientdb.SimConfig) resilientdb.SimResult {
	res, err := resilientdb.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("Figure 1 — a well-crafted PBFT system vs a protocol-centric Zyzzyva:")
	fmt.Printf("%-10s %-22s %-26s\n", "replicas", "ResilientDB-PBFT", "Zyzzyva (protocol-centric)")
	for _, n := range []int{4, 8, 16, 32} {
		pbft := simulate(resilientdb.SimConfig{
			Protocol: resilientdb.SimPBFT,
			Replicas: n,
			Clients:  8000,
		})
		zyz := simulate(resilientdb.SimConfig{
			Protocol:       resilientdb.SimZyzzyva,
			Replicas:       n,
			Clients:        8000,
			BatchThreads:   -1, // monolithic: no batch threads,
			ExecuteThreads: -1, // no execute thread — all work on the worker
		})
		fmt.Printf("%-10d %-22s %-26s\n", n,
			fmt.Sprintf("%.0fK txn/s", pbft.ThroughputTxns/1000),
			fmt.Sprintf("%.0fK txn/s (+%.0f%% for PBFT)", zyz.ThroughputTxns/1000,
				(pbft.ThroughputTxns/zyz.ThroughputTxns-1)*100))
	}

	// Zyzzyva's fast path needs all 3f+1 responses, so one crashed backup
	// sends every request through the client timeout and the commit-
	// certificate round; PBFT needs only 2f+1 and barely notices.
	fmt.Println("\nFigure 17 — one of four replicas crashed:")
	fmt.Printf("%-10s %-14s %s\n", "failures", "PBFT", "Zyzzyva")
	for _, failed := range []int{0, 1} {
		cfg := resilientdb.SimConfig{
			Protocol:      resilientdb.SimPBFT,
			Replicas:      4,
			FailedBackups: failed,
			Clients:       8000,
			ClientTimeout: 60 * millisecond,
			Warmup:        150 * millisecond,
			Measure:       250 * millisecond,
		}
		pbft := simulate(cfg)
		cfg.Protocol = resilientdb.SimZyzzyva
		zyz := simulate(cfg)
		fmt.Printf("%-10d %-14s %s\n", failed,
			fmt.Sprintf("%.0fK txn/s", pbft.ThroughputTxns/1000),
			fmt.Sprintf("%.1fK txn/s (slow path: %d)", zyz.ThroughputTxns/1000, zyz.SlowPath))
	}

	fmt.Println("\nFigure 13 — signature schemes (full experiment via the suite):")
	if err := resilientdb.RunExperiment("fig13", resilientdb.ScaleSmall, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
