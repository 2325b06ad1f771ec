package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is BENCHMARK.json, the contract between this benchmark and
// whatever runs it: the workloads, every metric's unit and direction, and
// the bound by which each end-to-end metric may worsen before a change
// counts as a regression.
type manifest struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadManifest reads BENCHMARK.json from the repository root: the parent of
// the working directory under `go run -C benchmark`, the working directory
// itself when the binary is started from the root.
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// worsening is how much worse b is than a as a share of a, in the metric's
// own direction; negative means b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints every (workload, end-to-end metric) pair of two sets of
// runs of the same code with both values, their relative difference and the
// bound, and reports whether the sets agree: no pair differs, in either
// direction, by more than its bound, and the exact count
// pbft.steps_per_batch repeats exactly. setup_s is printed but not judged:
// it is 0.2 s of allocation-heavy work, and on the memory-store workloads
// single runs of the same binary ranged over 30-57 % of their median here
// (four -repeat 2 runs in a row disagreed on it and on nothing else). It is
// steady only as a median over many runs, which is how a driver compares it.
func compare(w io.Writer, a, b *suiteResult, man *manifest) bool {
	ok := true
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %8s %7s\n", "workload", "metric", "a", "b", "diff", "bound")
	for _, run := range a.Runs {
		if run.Trace != 0 {
			continue
		}
		other := b.find(run.Workload, 0)
		if other == nil {
			fmt.Fprintf(w, "%-18s missing from the second set\n", run.Workload)
			ok = false
			continue
		}
		for _, m := range man.EndToEnd {
			va, vb := run.Result.Metrics[m.Name].Value, other.Metrics[m.Name].Value
			diff := worsening(va, vb, m.Better)
			verdict := ""
			switch {
			case math.Abs(diff) <= *m.Bound:
			case m.Name == "setup_s":
				verdict = "  outside bound (not judged on one pair)"
			default:
				verdict = "  OUTSIDE BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %+7.1f%% %6.0f%%%s\n",
				run.Workload, m.Name, va, vb, 100*diff, 100**m.Bound, verdict)
		}
	}
	for _, run := range a.Runs {
		if run.Trace != 1 {
			continue
		}
		other := b.find(run.Workload, 1)
		if other == nil {
			continue
		}
		sa, sb := run.Result.Metrics["pbft.steps_per_batch"].Value, other.Metrics["pbft.steps_per_batch"].Value
		if sa != sb {
			fmt.Fprintf(w, "%-18s pbft.steps_per_batch is an exact count and did not repeat: %v vs %v\n", run.Workload, sa, sb)
			ok = false
		}
	}
	return ok
}
