// Command resdb-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	resdb-bench -list
//	resdb-bench -experiment fig10
//	resdb-bench -experiment all -scale paper -out results.txt
//
// Scale "small" (default) shrinks populations so the full suite finishes
// in minutes; "paper" uses the paper's populations (80K clients).
//
// The execshards experiment runs the real replica pipeline: it sweeps the
// execution shards over 1, 2 and 4 under an execution-heavy Zipfian write
// load, reporting throughput plus the per-shard busy split (the evidence
// that write-set partitioning spreads the last serialized pipeline stage).
//
// The diskpipe experiment runs the real pipeline over MemStore and over
// the disk store twice: one log behind nothing but the blocking Put, every
// record waiting out its own fsync (the Section 5.7 off-memory contrast),
// and sharded with group commit and depth-4 cross-batch execution
// pipelining — reporting throughput, fsync counts, and fsync-stall time.
//
// The compaction experiment measures the sharded store's log garbage
// collection: an overwrite-heavy Zipfian history, then log bytes and
// reopen (recovery) time before and after compaction rewrites the log to
// live records only.
//
// The readmix experiment compares consensus-ordered against
// locally-served reads under YCSB mixes (workloads A and C) on the real
// pipeline, each row a warmup window plus a measured window, with read
// and write latency percentiles split; its seq-used column is the
// ledger-height growth during the measured window — zero for the
// read-only local row, the evidence that local reads consume no sequence
// numbers.
//
// The faults experiment runs the chaos scenario matrix (internal/chaos)
// and reports per-scenario degraded throughput and recovery time; -chaos
// layers an ambient link fault under every scenario so the matrix can be
// rerun on an already-degraded network.
//
// Every experiment's shape is fixed in internal/bench; -chaos, which takes
// the fault spec resdb-node's -chaos takes, is the one tuning flag.
//
// End-to-end throughput, latency, allocations per transaction and the
// per-layer account (transport, codec, crypto, pools, gateway) are not
// measured here: go run -C benchmark resilientdb/benchmark is the harness
// every claim is measured with.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"resilientdb/internal/bench"
	"resilientdb/internal/chaos"
)

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list experiments and exit")
	experiment := flag.String("experiment", "all", "experiment id (e.g. fig10) or 'all'")
	scaleName := flag.String("scale", "small", "small | paper")
	outPath := flag.String("out", "", "also write results to this file")
	chaosSpec := flag.String("chaos", "", "faults: ambient link fault layered under every scenario, drop=P,dup=P,corrupt=P,delay=D,reorder=D,seed=N (empty = fault-free between injections)")
	flag.Parse()

	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		bench.ChaosTuning.BaseFault = spec.Fault
		bench.ChaosTuning.Seed = spec.Seed
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-14s %s\n               paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return 0
	}

	scale := bench.ScaleSmall
	switch *scaleName {
	case "small":
	case "paper":
		scale = bench.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small|paper)\n", *scaleName)
		return 2
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	var targets []bench.Experiment
	if *experiment == "all" {
		targets = bench.All()
	} else {
		e, ok := bench.ByID(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *experiment)
			return 2
		}
		targets = []bench.Experiment{e}
	}

	for _, e := range targets {
		if _, err := bench.RunAndRender(e, scale, w); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			return 1
		}
	}
	return 0
}
