package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// readManifest reads the repository's BENCHMARK.json.
func readManifest(t *testing.T) *manifest {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	return &man
}

var (
	sha      = regexp.MustCompile(`^[0-9a-f]{40}$`)
	sourceID = regexp.MustCompile(`^[0-9a-f]{64}$`)
)

// TestCheckedInBenchFiles parses every BENCH_*.json at the repository root
// against the Report schema: no unknown field, the parent commit and the
// change's source named, every end-to-end metric of BENCHMARK.json on
// every run with one value a pair on each side, and summaries that agree
// with those values. Where the repository's history is at hand, a report
// must have measured the code it says it did (see checkSource).
func TestCheckedInBenchFiles(t *testing.T) {
	man := readManifest(t)
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no BENCH file checked in")
	}
	for _, path := range files {
		rep, err := readReport(path)
		if err != nil {
			t.Fatal(err)
		}
		if (rep.Commit != "" && !sha.MatchString(rep.Commit)) || !sha.MatchString(rep.Parent) || !sourceID.MatchString(rep.Source) ||
			rep.Nproc < 1 || rep.Pairs != pairs || len(rep.Runs) == 0 {
			t.Fatalf("%s: header %q %q %q nproc %d pairs %d runs %d", path, rep.Commit, rep.Parent, rep.Source, rep.Nproc, rep.Pairs, len(rep.Runs))
		}
		checkSource(t, path, rep)
		for _, run := range rep.Runs {
			if run.Workload == "" || run.ParentAttempted == 0 || run.ChangeAttempted == 0 {
				t.Fatalf("%s: run %+v", path, run)
			}
			for _, def := range man.EndToEnd {
				m, ok := run.Metrics[def.Name]
				if !ok {
					t.Fatalf("%s: %s seed %d lacks %s", path, run.Workload, run.Seed, def.Name)
				}
				where := path + ": " + run.Workload + " " + def.Name
				if m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.Bound {
					t.Fatalf("%s: unit %q better %q bound %g, BENCHMARK.json says %q %q %g", where, m.Unit, m.Better, m.Bound, def.Unit, def.Better, def.Bound)
				}
				for _, s := range []Side{m.Parent, m.Change} {
					if len(s.Values) != rep.Pairs {
						t.Fatalf("%s: %d values for %d pairs", where, len(s.Values), rep.Pairs)
					}
					if d := describe(s.Values); d.Median != s.Median || d.IQR != s.IQR || d.Q1 != s.Q1 || d.Q3 != s.Q3 {
						t.Fatalf("%s: summary %+v does not match its values (%+v)", where, s, d)
					}
				}
				if m.PairsWon < 0 || m.PairsWon > rep.Pairs || m.WithinBound != (m.Delta >= -m.Bound) {
					t.Fatalf("%s: pairs won %d, delta %g, within bound %v", where, m.PairsWon, m.Delta, m.WithinBound)
				}
			}
		}
	}
}

// checkSource holds a report to the code it names. A report of a commit
// must carry that commit's source hash. A report of a working tree is
// checked while it is this change's own: uncommitted, against the working
// tree, or added by HEAD, against HEAD. Without git, a full history or
// the named commit, there is nothing to compare against.
func checkSource(t *testing.T, path string, rep *Report) {
	t.Helper()
	if out, err := git("rev-parse", "--is-shallow-repository"); err != nil || out != "false" {
		return
	}
	var rev string
	switch {
	case rep.Commit != "":
		if _, err := git("cat-file", "-e", rep.Commit+"^{commit}"); err != nil {
			return
		}
		rev = rep.Commit
	default:
		status, err := git("status", "--porcelain", "--", path)
		if err != nil {
			return
		}
		if status == "" {
			added, err1 := git("log", "-1", "--format=%H", "--", path)
			head, err2 := git("rev-parse", "HEAD")
			if err1 != nil || err2 != nil || added != head {
				return
			}
			rev = head
		}
	}
	got, err := sourceHash(rev)
	if err != nil {
		t.Fatal(err)
	}
	if got != rep.Source {
		where := rev
		if where == "" {
			where = "the working tree"
		}
		t.Fatalf("%s: source %.12s, but %s hashes to %.12s: the report did not measure this code", path, rep.Source, where, got)
	}
}

// TestSourceHashOfHeadIgnoresDocuments: where the working tree's code is
// HEAD's, documents aside, the two hash alike, so a report made from the
// working tree matches the commit that checks it in; a change to code, or
// new untracked code, makes them differ. It works in a repository of its
// own, so it holds whatever state this checkout is in.
func TestSourceHashOfHeadIgnoresDocuments(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	t.Chdir(t.TempDir())
	write := func(path, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(args ...string) {
		t.Helper()
		if _, err := git(args...); err != nil {
			t.Fatal(err)
		}
	}
	write("main.go", "package main\n")
	write("README.md", "one\n")
	write("BENCH_1.json", "{}\n")
	write("docs/NOTES.md", "one\n")
	run("init", "-q")
	run("add", ".")
	run("-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false", "commit", "-q", "-m", "seed")

	hashes := func() (head, tree string) {
		t.Helper()
		head, err := sourceHash("HEAD")
		if err != nil {
			t.Fatal(err)
		}
		tree, err = sourceHash("")
		if err != nil {
			t.Fatal(err)
		}
		return head, tree
	}
	if head, tree := hashes(); head != tree || !sourceID.MatchString(head) {
		t.Fatalf("HEAD hashes to %s, its unchanged working tree to %s", head, tree)
	}

	write("README.md", "two\n")
	write("BENCH_1.json", "{\"x\": 1}\n")
	write("BENCH_2.json", "{}\n")
	write("docs/NOTES.md", "two\n")
	write("docs/NEW.md", "new\n")
	if head, tree := hashes(); head != tree {
		t.Fatalf("documents changed: HEAD hashes to %s, the working tree to %s", head, tree)
	}

	write("extra.go", "package main\n")
	if head, tree := hashes(); head == tree {
		t.Fatalf("untracked code did not change the working tree's hash %s", tree)
	}
	if err := os.Remove("extra.go"); err != nil {
		t.Fatal(err)
	}
	write("main.go", "package main\n\nfunc main() {}\n")
	if head, tree := hashes(); head == tree {
		t.Fatalf("changed code did not change the working tree's hash %s", tree)
	}
}

// TestSummarize checks the statistics on hand-made pairs: a lower-is-better
// metric the change halves wins every pair, moves by +50 % and keeps
// within any bound; one it doubles loses every pair and breaks a 25 %
// bound.
func TestSummarize(t *testing.T) {
	man := &manifest{}
	man.EndToEnd = append(man.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"allocs_per_txn", "count", "lower", 0.25})
	mk := func(vals ...float64) []result {
		var rs []result
		for _, v := range vals {
			r := result{Correct: true, Attempted: 10, Metrics: map[string]struct {
				Value float64 `json:"value"`
			}{"allocs_per_txn": {v}}}
			rs = append(rs, r)
		}
		return rs
	}
	run := summarize("w", 13, man, [2][]result{mk(2, 4, 6, 8), mk(1, 2, 3, 4)})
	m := run.Metrics["allocs_per_txn"]
	if m.PairsWon != 4 || m.Parent.Median != 5 || m.Change.Median != 2.5 || m.Delta != 0.5 || !m.WithinBound || *m.CohensD <= 0 {
		t.Fatalf("halved: %+v", m)
	}
	if m.Parent.Q1 != 3.5 || m.Parent.Q3 != 6.5 || m.Parent.IQR != 3 {
		t.Fatalf("parent quartiles %+v, want 3.5 and 6.5", m.Parent)
	}
	run = summarize("w", 13, man, [2][]result{mk(1, 2, 3, 4), mk(2, 4, 6, 8)})
	if m := run.Metrics["allocs_per_txn"]; m.PairsWon != 0 || m.Delta != -1 || m.WithinBound || *m.CohensD >= 0 {
		t.Fatalf("doubled: %+v", m)
	}
	if !run.Correct || run.ParentAttempted != 40 {
		t.Fatalf("run %+v", run)
	}
	run = summarize("w", 13, man, [2][]result{mk(1, 1), mk(1, 1)})
	if m := run.Metrics["allocs_per_txn"]; m.CohensD != nil || m.PairsWon != 0 || !m.WithinBound {
		t.Fatalf("equal: %+v", m)
	}
}

// TestCompareReadsWhatRunWrites: a report written by the tool reads back
// under the schema, and -compare diffs two of them.
func TestCompareReadsWhatRunWrites(t *testing.T) {
	man := readManifest(t)
	mk := func(v float64) []result {
		r := result{Correct: true, Attempted: 1, Metrics: map[string]struct {
			Value float64 `json:"value"`
		}{}}
		for _, def := range man.EndToEnd {
			r.Metrics[def.Name] = struct {
				Value float64 `json:"value"`
			}{v}
		}
		return []result{r}
	}
	dir := t.TempDir()
	var paths []string
	for i, v := range []float64{1, 2} {
		rep := Report{Commit: "a", Parent: "b", Source: "c", Nproc: 1, Pairs: 1, Runs: []Run{summarize("w", 13, man, [2][]result{mk(1), mk(v)})}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, []string{"a.json", "b.json"}[i])
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	if err := compareFiles(paths[0], paths[1]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], []byte(`{"commit":"a","extra":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(paths[1]); err == nil {
		t.Fatal("a field the schema does not define was accepted")
	}
}
