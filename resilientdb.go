// Package resilientdb is a Go reproduction of "Permissioned Blockchain
// Through the Looking Glass: Architectural and Implementation Lessons
// Learned" (Gupta, Rahnama, Sadoghi — ICDCS 2020): a high-throughput
// permissioned blockchain fabric built around a deeply pipelined,
// extensively parallel replica architecture.
//
// The package exposes three layers:
//
//   - A runnable fabric: NewCluster builds an n-replica PBFT deployment
//     with closed-loop YCSB clients, either in-process or over TCP, running the full Figure 6 pipeline — input-threads,
//     batch-threads, the worker-thread, the in-order execute stage (optionally
//     fanned across write-set-partitioned shards), checkpoint-thread,
//     per-peer transport writers — with real ED25519/RSA/AES-CMAC
//     authentication, message buffers pooled on the receive and send side
//     (Section 4.8; how the fabric works, not an option), an in-memory or
//     disk-backed store, and a blockchain ledger.
//
//   - A deterministic simulator: Simulate replays the paper's evaluation
//     at full scale (32 replicas, 8 cores, 80K clients) by driving the
//     very same PBFT engines under a calibrated cost model. It also
//     models Zyzzyva, the single-phase speculative baseline the paper
//     measures PBFT against, which the runnable fabric does not deploy.
//
//   - The experiment suite: Experiments and RunExperiment regenerate
//     every table and figure of the paper's Section 5, plus the sweeps
//     over the runnable fabric that have no other home yet.
//
// End-to-end and per-layer performance of the runnable fabric is measured
// by the separate benchmark/ module (BENCHMARK.json is its contract). See
// docs/ARCHITECTURE.md for the architecture and the knob reference.
package resilientdb

import (
	"io"

	"resilientdb/internal/bench"
	"resilientdb/internal/cluster"
	"resilientdb/internal/crypto"
	"resilientdb/internal/sim"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// ---- Runnable fabric ----

// ClusterOptions configures a cluster; zero values select the paper's
// standard configuration (batch 100, 2 batch-threads, 1 execute-thread,
// CMAC+ED25519, in-memory storage).
type ClusterOptions = cluster.Options

// Cluster is a runnable deployment of replicas plus closed-loop clients.
type Cluster = cluster.Cluster

// Result summarizes a load run against a cluster.
type Result = cluster.Result

// NewCluster builds a single-process cluster. Call Start, then Run.
func NewCluster(opts ClusterOptions) (*Cluster, error) { return cluster.New(opts) }

// ---- Workload ----

// WorkloadConfig describes the YCSB-style workload (Section 5.1).
type WorkloadConfig = workload.Config

// DefaultWorkload returns the paper's standard workload: 600K records,
// single-operation write-only transactions, Zipfian keys.
func DefaultWorkload() WorkloadConfig { return workload.Default() }

// ---- Cryptography ----

// CryptoConfig selects the signature schemes (Section 5.6).
type CryptoConfig = crypto.Config

// NoSig disables signatures (measurement baseline; unsafe).
func NoSig() CryptoConfig { return crypto.NoSig() }

// AllED25519 signs everything with ED25519 digital signatures.
func AllED25519() CryptoConfig { return crypto.AllED25519() }

// AllRSA signs everything with RSA-2048 digital signatures.
func AllRSA() CryptoConfig { return crypto.AllRSA() }

// RecommendedCrypto is the paper's recommended combination: CMAC between
// replicas, ED25519 client signatures (Section 6).
func RecommendedCrypto() CryptoConfig { return crypto.Recommended() }

// ---- Ledger ----

// Block is one element of the immutable ledger.
type Block = types.Block

// ---- Simulator ----

// SimConfig parameterizes a simulated experiment at paper scale.
type SimConfig = sim.Config

// SimResult is a simulated experiment's outcome.
type SimResult = sim.Result

// Simulated protocols and knobs.
const (
	SimPBFT    = sim.PBFT
	SimZyzzyva = sim.Zyzzyva
)

// Simulate runs one deterministic simulated experiment.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// ---- Experiment suite ----

// Experiment regenerates one of the paper's figures.
type Experiment = bench.Experiment

// Scale selects experiment fidelity.
type Scale = bench.Scale

// Scales.
const (
	// ScaleSmall shrinks populations and windows for quick runs.
	ScaleSmall = bench.ScaleSmall
	// ScalePaper uses the paper's populations.
	ScalePaper = bench.ScalePaper
)

// Experiments returns every figure-reproduction experiment.
func Experiments() []Experiment { return bench.All() }

// RunExperiment executes the experiment with the given figure ID (e.g.
// "fig10"), rendering its tables to w.
func RunExperiment(id string, scale Scale, w io.Writer) error {
	e, ok := bench.ByID(id)
	if !ok {
		return ErrUnknownExperiment
	}
	_, err := bench.RunAndRender(e, scale, w)
	return err
}

// ErrUnknownExperiment is returned by RunExperiment for unknown IDs.
var ErrUnknownExperiment = errUnknownExperiment{}

type errUnknownExperiment struct{}

func (errUnknownExperiment) Error() string { return "resilientdb: unknown experiment id" }
