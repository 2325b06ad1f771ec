// Command benchpair runs the repository's benchmark on two versions of the
// code in ten alternating pairs and writes what the pairs show to a
// BENCH_<n>.json: per workload, seed and end-to-end metric, each side's
// median, quartile spread and coefficient of variation, the pairs the
// change won, Cohen's d and the check against the metric's BENCHMARK.json
// bound. The parent is a commit, built in a temporary git worktree that is
// removed when done; the change is a commit built the same way or, by
// default, the working tree as it stands. Each side runs benchmark/ as its
// own code has it, for its own run_seconds. It needs no network.
//
//	go run ./cmd/benchpair -parent HEAD -o BENCH_57.json
//	go run ./cmd/benchpair -parent 44a60c0^ -commit 44a60c0 -workloads write-mem-tcp -o BENCH_55.json
//	go run ./cmd/benchpair -compare BENCH_56.json BENCH_57.json
//
// A pair runs the parent first on even pairs and the change first on odd
// ones, so drift over a session favours neither side.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// pairs is how many alternating pairs run per workload and seed: the
// benchmark's paired-run rule judges a claimed gain on ten.
const pairs = 10

// Report is the BENCH_<n>.json file.
type Report struct {
	// Commit is the change side's commit, empty when it was the working
	// tree; Parent is the parent side's commit.
	Commit string `json:"commit"`
	Parent string `json:"parent"`
	// Source identifies the code the change side measured (see sourceHash):
	// it matches the commit that checks the report in, however the change
	// was built.
	Source string `json:"source"`
	Nproc  int    `json:"nproc"`
	Pairs  int    `json:"pairs"`
	Runs   []Run  `json:"runs"`
}

// Run is one workload at one seed: pairs of parent and change runs.
type Run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Correct is false if any run of either side failed its correctness
	// check; Attempted and Failed sum each side's operations over its runs.
	Correct         bool              `json:"correct"`
	ParentAttempted uint64            `json:"parent_attempted"`
	ParentFailed    uint64            `json:"parent_failed"`
	ChangeAttempted uint64            `json:"change_attempted"`
	ChangeFailed    uint64            `json:"change_failed"`
	Metrics         map[string]Metric `json:"metrics"`
}

// Metric is one end-to-end metric over a Run's pairs.
type Metric struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Parent Side    `json:"parent"`
	Change Side    `json:"change"`
	// PairsWon counts the pairs whose change run was better than its
	// parent run; ties count for neither side.
	PairsWon int `json:"pairs_won"`
	// CohensD is the difference of the means over their pooled standard
	// deviation, signed so that positive is better; null when both sides
	// have no spread.
	CohensD *float64 `json:"cohens_d"`
	// Delta is the change's median relative to the parent's, signed so
	// that positive is better; WithinBound is false when it is worse by
	// more than Bound.
	Delta       float64 `json:"delta"`
	WithinBound bool    `json:"within_bound"`
}

// Side is one commit's runs of a metric.
type Side struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	IQR    float64   `json:"iqr"`
	CV     float64   `json:"cv"`
}

// manifest is the part of BENCHMARK.json the report needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line of one benchmark run.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	parent := flag.String("parent", "HEAD", "the commit to compare against")
	commit := flag.String("commit", "", "the commit under test (default: the working tree)")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every workload of the change's BENCHMARK.json)")
	seeds := flag.String("seeds", "13", "comma-separated seeds")
	out := flag.String("o", "", "write the report here (default: standard output)")
	compare := flag.Bool("compare", false, "diff the two BENCH files named as arguments instead of running")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchpair: -compare takes two BENCH files")
			os.Exit(2)
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchpair:", err)
			os.Exit(1)
		}
		return
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchpair: -seeds must be integers (%v)\n", err)
		os.Exit(2)
	}
	rep, err := run(*parent, *commit, *workloads, seedList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// side is one version of the code, built.
type side struct {
	sha string // empty for the working tree
	dir string // the worktree, or the repository's top level
	bin string
}

func run(parentRev, commitRev, workloads string, seeds []int64) (*Report, error) {
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var sides [2]side // parent, change
	for i, rev := range []string{parentRev, commitRev} {
		name := []string{"parent", "change"}[i]
		if i == 1 && rev == "" {
			sides[i], err = workingTree(tmp, name)
			if err != nil {
				return nil, err
			}
			continue
		}
		s, err := checkout(tmp, rev, name)
		if s.dir != "" {
			defer git("worktree", "remove", "--force", s.dir)
		}
		if err != nil {
			return nil, err
		}
		sides[i] = s
	}
	source, err := sourceHash(sides[1].sha)
	if err != nil {
		return nil, err
	}

	var man manifest
	data, err := os.ReadFile(filepath.Join(sides[1].dir, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &man)
	}
	if err != nil {
		return nil, fmt.Errorf("reading the commit's BENCHMARK.json: %w", err)
	}
	names := strings.Split(workloads, ",")
	if workloads == "" {
		names = names[:0]
		for _, w := range man.Workloads {
			names = append(names, w.Name)
		}
	}

	rep := &Report{Commit: sides[1].sha, Parent: sides[0].sha, Source: source, Nproc: runtime.NumCPU(), Pairs: pairs}
	for _, w := range names {
		for _, seed := range seeds {
			var res [2][]result
			for p := 0; p < pairs; p++ {
				order := []int{0, 1}
				if p%2 == 1 {
					order = []int{1, 0}
				}
				for _, i := range order {
					r, err := runOnce(sides[i], filepath.Join(tmp, "out"), w, seed)
					if err != nil {
						return nil, fmt.Errorf("%s seed %d pair %d (%s): %w", w, seed, p, []string{"parent", "change"}[i], err)
					}
					fmt.Fprintf(os.Stderr, "%s seed %d pair %d %s: correct=%v failed=%d tput=%.0f allocs=%.3f rss=%.1f\n",
						w, seed, p, []string{"parent", "change"}[i], r.Correct, r.Failed,
						r.Metrics["tput_txn_s"].Value, r.Metrics["allocs_per_txn"].Value, r.Metrics["rss_peak_mb"].Value)
					res[i] = append(res[i], r)
				}
			}
			rep.Runs = append(rep.Runs, summarize(w, seed, &man, res))
		}
	}
	return rep, nil
}

// checkout adds a detached worktree of rev under tmp and builds its
// benchmark binary there.
func checkout(tmp, rev, name string) (side, error) {
	sha, err := git("rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return side{}, err
	}
	s := side{sha: sha, dir: filepath.Join(tmp, name), bin: filepath.Join(tmp, "bench-"+name)}
	if _, err := git("worktree", "add", "--detach", s.dir, sha); err != nil {
		return side{}, err
	}
	return s, build(s)
}

// workingTree builds the benchmark binary from the repository's working
// tree as it stands.
func workingTree(tmp, name string) (side, error) {
	top, err := git("rev-parse", "--show-toplevel")
	if err != nil {
		return side{}, err
	}
	s := side{dir: top, bin: filepath.Join(tmp, "bench-"+name)}
	return s, build(s)
}

func build(s side) error {
	cmd := exec.Command("go", "build", "-o", s.bin, ".")
	cmd.Dir = filepath.Join(s.dir, "benchmark")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the benchmark in %s: %v\n%s", s.dir, err, msg)
	}
	return nil
}

// sourceHash identifies a version of the code: a SHA-256 over the path and
// git blob id of every file, in path order. At a commit the files are its
// tree's; with sha empty they are the working tree's, tracked or not but
// not ignored, as a commit of it would take them. Markdown documents and
// BENCH_*.json reports are left out: they build nothing, and they are
// written after the runs they describe.
func sourceHash(sha string) (string, error) {
	type file struct{ path, blob string }
	var files []file
	if sha != "" {
		out, err := git("ls-tree", "-r", "-z", "--full-tree", sha)
		if err != nil {
			return "", err
		}
		for _, ent := range strings.Split(out, "\x00") {
			meta, path, ok := strings.Cut(ent, "\t")
			if f := strings.Fields(meta); ok && len(f) == 3 && f[1] == "blob" {
				files = append(files, file{path, f[2]})
			}
		}
	} else {
		top, err := git("rev-parse", "--show-toplevel")
		if err != nil {
			return "", err
		}
		out, err := git("-C", top, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
		if err != nil {
			return "", err
		}
		var paths []string
		for _, path := range strings.Split(out, "\x00") {
			if _, err := os.Lstat(filepath.Join(top, path)); path != "" && err == nil {
				paths = append(paths, path)
			}
		}
		cmd := exec.Command("git", "-C", top, "hash-object", "--stdin-paths")
		cmd.Stdin = strings.NewReader(strings.Join(paths, "\n") + "\n")
		blobs, err := cmd.Output()
		if err != nil {
			return "", fmt.Errorf("git hash-object: %w", err)
		}
		for i, blob := range strings.Fields(string(blobs)) {
			files = append(files, file{paths[i], blob})
		}
	}
	slices.SortFunc(files, func(a, b file) int { return strings.Compare(a.path, b.path) })
	h := sha256.New()
	for _, f := range files {
		base := filepath.Base(f.path)
		if strings.HasSuffix(base, ".md") || (f.path == base && strings.HasPrefix(base, "BENCH_") && strings.HasSuffix(base, ".json")) {
			continue
		}
		fmt.Fprintf(h, "%s %s\n", f.blob, f.path)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, ee.Stderr)
		}
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// runOnce runs one untraced benchmark of workload w from the side's own
// benchmark directory, for that side's run_seconds, and parses its last
// output line.
func runOnce(s side, outDir, w string, seed int64) (result, error) {
	cmd := exec.Command(s.bin, "-workload", w, "-seed", strconv.FormatInt(seed, 10), "-trace", "0", "-out", outDir)
	cmd.Dir = filepath.Join(s.dir, "benchmark")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("no result line (%v): %s", runErr, stderr.Bytes())
	}
	// A run whose correctness check failed exits nonzero but still
	// reports: it is counted, not dropped.
	return r, nil
}

func summarize(w string, seed int64, man *manifest, res [2][]result) Run {
	run := Run{Workload: w, Seed: seed, Correct: true, Metrics: make(map[string]Metric)}
	for i, rs := range res {
		for _, r := range rs {
			run.Correct = run.Correct && r.Correct
			if i == 0 {
				run.ParentAttempted += r.Attempted
				run.ParentFailed += r.Failed
			} else {
				run.ChangeAttempted += r.Attempted
				run.ChangeFailed += r.Failed
			}
		}
	}
	for _, def := range man.EndToEnd {
		m := Metric{Unit: def.Unit, Better: def.Better, Bound: def.Bound}
		var vals [2][]float64
		for i := range res {
			for _, r := range res[i] {
				vals[i] = append(vals[i], r.Metrics[def.Name].Value)
			}
		}
		sign := 1.0 // positive is better
		if def.Better == "lower" {
			sign = -1
		}
		for p := range vals[0] {
			if d := sign * (vals[1][p] - vals[0][p]); d > 0 {
				m.PairsWon++
			}
		}
		m.Parent, m.Change = describe(vals[0]), describe(vals[1])
		if m.Parent.Median != 0 {
			m.Delta = sign * (m.Change.Median - m.Parent.Median) / m.Parent.Median
		}
		m.WithinBound = m.Delta >= -def.Bound
		m.CohensD = cohensD(vals[0], vals[1], sign)
		run.Metrics[def.Name] = m
	}
	return run
}

func describe(vals []float64) Side {
	s := Side{Values: vals}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	s.Median, s.Q1, s.Q3 = quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75)
	s.IQR = s.Q3 - s.Q1
	if mean, sd := meanSD(vals); mean != 0 {
		s.CV = sd / mean
	}
	return s
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func meanSD(vals []float64) (mean, sd float64) {
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if len(vals) < 2 {
		return mean, 0
	}
	for _, v := range vals {
		sd += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(sd / float64(len(vals)-1))
}

func cohensD(parent, change []float64, sign float64) *float64 {
	mp, sp := meanSD(parent)
	mc, sc := meanSD(change)
	pooled := math.Sqrt((sp*sp + sc*sc) / 2)
	if pooled == 0 {
		return nil
	}
	d := sign * (mc - mp) / pooled
	return &d
}

// compareFiles prints, for every workload, seed and metric both files
// report, each file's change-side median and how far the second moved from
// the first, signed so that positive is better.
func compareFiles(a, b string) error {
	ra, err := readReport(a)
	if err != nil {
		return err
	}
	rb, err := readReport(b)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%.12s) -> %s (%.12s)\n", a, ra.Source, b, rb.Source)
	for _, run := range rb.Runs {
		i := slices.IndexFunc(ra.Runs, func(r Run) bool { return r.Workload == run.Workload && r.Seed == run.Seed })
		if i < 0 {
			continue
		}
		names := make([]string, 0, len(run.Metrics))
		for name := range run.Metrics {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			mb, ok := run.Metrics[name]
			ma, okA := ra.Runs[i].Metrics[name]
			if !ok || !okA {
				continue
			}
			delta := 0.0
			if ma.Change.Median != 0 {
				delta = (mb.Change.Median - ma.Change.Median) / ma.Change.Median
				if mb.Better == "lower" {
					delta = -delta
				}
			}
			fmt.Printf("%-18s seed %-4d %-16s %14.4g -> %-14.4g %+7.1f%% (IQR %.4g -> %.4g)\n",
				run.Workload, run.Seed, name, ma.Change.Median, mb.Change.Median, 100*delta, ma.Change.IQR, mb.Change.IQR)
		}
	}
	return nil
}

// readReport parses a BENCH file, refusing fields the Report does not
// define.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
