// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment builds the simulator
// configurations for one figure, runs them, and renders the same rows and
// series the paper reports. The cmd/resdb-bench binary and the top-level
// bench_test.go both drive this package.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"resilientdb/internal/sim"
)

// Scale trades fidelity for wall-clock time.
type Scale int

// Scales.
const (
	// ScaleSmall shrinks client counts and measurement windows so the
	// full suite finishes in minutes; shapes are preserved.
	ScaleSmall Scale = iota + 1
	// ScalePaper uses the paper's population sizes (up to 80K clients,
	// 60s-class windows scaled to simulator steady state).
	ScalePaper
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == ScalePaper {
		return "paper"
	}
	return "small"
}

// clients scales a paper-scale client population.
func (s Scale) clients(paper int) int {
	if s == ScalePaper {
		return paper
	}
	scaled := paper / 20
	if scaled < 400 {
		scaled = 400
	}
	return scaled
}

// windows returns warmup and measurement windows.
func (s Scale) windows() (warmup, measure sim.Time) {
	if s == ScalePaper {
		return 300 * sim.Millisecond, 1000 * sim.Millisecond
	}
	return 80 * sim.Millisecond, 200 * sim.Millisecond
}

// Table is one printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	var hdr strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&hdr, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(hdr.String(), " "))
	for _, row := range t.Rows {
		var line strings.Builder
		for i, cell := range row {
			fmt.Fprintf(&line, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
	fmt.Fprintln(w)
}

// Outcome is one experiment's output: rendered tables plus headline
// metrics for programmatic assertions and benchmark reporting.
type Outcome struct {
	Tables  []Table
	Metrics map[string]float64
}

// Experiment regenerates one paper figure.
type Experiment struct {
	// ID is the figure identifier, e.g. "fig10".
	ID string
	// Title describes the experiment.
	Title string
	// Paper summarizes what the paper reports for this figure.
	Paper string
	// Run executes the experiment at the given scale.
	Run func(Scale) (Outcome, error)
}

// All returns every experiment in figure order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Headline: ResilientDB-PBFT vs protocol-centric Zyzzyva (throughput vs replicas)",
			Paper: "PBFT on the full pipeline attains up to 175K txn/s and up to 79% more throughput than Zyzzyva on a protocol-centric design; scales to 32 replicas", Run: fig1},
		{ID: "fig7", Title: "Upper bound without consensus: No-Execution vs Execution (vs clients)",
			Paper: "up to ~500K txn/s and ≤0.25s latency", Run: fig7},
		{ID: "fig8", Title: "Threading and pipelining: throughput/latency vs replicas per thread configuration",
			Paper: "PBFT 0B0E→2B1E gains 1.39x (latency -58.4%); Zyzzyva gains 1.72x (-63.19%); PBFT 2B1E beats every Zyzzyva config except 2B1E", Run: fig8},
		{ID: "fig9", Title: "Thread saturation at primary and backup per configuration",
			Paper: "batch-threads saturate at the primary under 2B1E (~85% each); worker saturates under 0B0E; backup worker highest at 2B1E", Run: fig9},
		{ID: "fig10", Title: "Transaction batching: throughput/latency vs batch size",
			Paper: "throughput rises to a peak near batch=1000 then declines by 3000; batching is worth up to 66x and -98.4% latency", Run: fig10},
		{ID: "fig11", Title: "Multi-operation transactions: throughput/latency vs ops per txn and batch-threads",
			Paper: "txn/s falls ~93% from 1 to 50 ops (2B); 2B→5B recovers up to 66%; ops/s trend reverses", Run: fig11},
		{ID: "fig12", Title: "Message size: throughput/latency vs pre-prepare size",
			Paper: "8KB→64KB costs ~52% throughput and ~2.09x latency; network-bound, threads idle", Run: fig12},
		{ID: "fig13", Title: "Cryptographic signatures: NoSig vs ED25519 vs RSA vs CMAC+ED25519",
			Paper: "crypto costs ≥49% throughput; RSA latency ~125x the CMAC+ED combination", Run: fig13},
		{ID: "fig14", Title: "Storage: in-memory vs off-memory (blocking store API)",
			Paper: "off-memory storage cuts throughput ~94% and raises latency ~24x", Run: fig14},
		{ID: "fig15", Title: "Clients: throughput/latency vs client population",
			Paper: "throughput saturates near 32K clients (+1.44% from 16K to 80K); latency grows ~5x", Run: fig15},
		{ID: "fig16", Title: "Hardware cores: throughput/latency vs cores per replica",
			Paper: "8 cores vs 1 core is worth 8.92x", Run: fig16},
		{ID: "fig17", Title: "Replica failures: PBFT vs Zyzzyva under 0/1/5 crashed backups",
			Paper: "PBFT dips slightly; Zyzzyva collapses (~39x loss) with a single failure", Run: fig17},
		{ID: "ablation-ooo", Title: "Ablation: out-of-order consensus vs strictly sequential instances",
			Paper: "out-of-order processing is worth ~60% throughput (Section 4.5)", Run: ablationOOO},
		{ID: "ablation-exec", Title: "Ablation: decoupled execution (1E) vs worker-executed (0E)",
			Paper: "decoupling execution from ordering is worth ~9.5% (Section 3)", Run: ablationExec},
		{ID: "workerscale", Title: "Worker lanes: throughput and per-lane busy time vs WorkerThreads (real pipeline)",
			Paper: "the single worker-thread saturates at the backups (Figure 9); lock-striped instances let W lanes split consensus stepping so the worker stops being the lone saturated stage", Run: workerscale},
		{ID: "execshards", Title: "Execution shards: throughput and per-shard busy time vs ExecuteThreads (real pipeline)",
			Paper: "the paper caps execution at one thread (data conflicts, Section 6); write-set partitioning lifts the cap — E shards split a Zipfian write load deterministically, shown by the per-shard busy table", Run: execshards},
		{ID: "diskpipe", Title: "Durable storage pipeline: MemStore vs the disk store behind a serial blocking Put vs sharded with group commit (real pipeline)",
			Paper: "naive off-memory storage cuts throughput ~94% (Section 5.7); one append log every execution shard writes to and a group-committed fsync narrow that gap — the fsync-stall column shows the amortization", Run: diskpipe},
		{ID: "compaction", Title: "Checkpoint-driven log compaction: log bytes and reopen time before/after (sharded store)",
			Paper: "a stable checkpoint licenses discarding old state (Section 4.7), and off-memory storage only stays viable if its costs stay bounded (Section 5.7) — compaction rewrites live records so log size and restart replay track live data, not history", Run: compaction},
		{ID: "readmix", Title: "Read path: consensus-ordered vs locally-served reads under YCSB mixes (real pipeline)",
			Paper: "the paper orders every operation through consensus; serving read-only requests from a replica's last-executed snapshot skips the three-phase round — the seq-used column shows local reads consuming no sequence numbers", Run: readmix},
		{ID: "scans", Title: "Range scans: consensus-ordered vs locally-served scans under YCSB-E mixes (real pipeline)",
			Paper: "the paper's transactions are opaque write payloads; general transactions add ordered range scans — fanned to every execute shard behind a write-flush barrier, merged deterministically — and the seq-used column shows write-free scans served locally under a staleness bound consuming no sequence numbers", Run: scans},
		{ID: "faults", Title: "Fault matrix: degraded throughput and recovery time per injected fault class (chaos harness)",
			Paper: "the paper evaluates replica failures (Figure 17) and argues the pipeline dips rather than collapses under a crashed backup; the chaos matrix generalizes that run to Byzantine, network, and storage fault classes and adds recovery-time and safety-invariant columns", Run: faults},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAndRender executes one experiment and writes its tables.
func RunAndRender(e Experiment, scale Scale, w io.Writer) (Outcome, error) {
	out, err := e.Run(scale)
	if err != nil {
		return out, fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Fprintf(w, "---- %s: %s [scale=%s] ----\n", e.ID, e.Title, scale)
	fmt.Fprintf(w, "paper: %s\n\n", e.Paper)
	for i := range out.Tables {
		out.Tables[i].Render(w)
	}
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "metric %-32s %12.2f\n", k, out.Metrics[k])
	}
	fmt.Fprintln(w)
	return out, nil
}

// helpers

func ktps(v float64) string { return fmt.Sprintf("%.1fK", v/1000) }

func ms(d interface{ Seconds() float64 }) string {
	return fmt.Sprintf("%.2fms", d.Seconds()*1000)
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
