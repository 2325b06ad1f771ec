// Command benchmark is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the system would see, and a per-layer account
// that says where a change in them came from. See README.md.
//
//	go run -C benchmark .                       every workload, untraced then traced
//	go run -C benchmark . -repeat 2             the whole set twice, compared against the bounds
//	go run -C benchmark . --workload write-disk --seed 7 --seconds 12 --trace 0
//
// The last form is one run in this process; its last line of output is one
// JSON object (correct, attempted, failed, metrics).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	defaultSeconds = 15
	defaultSetups  = 7
	warmup         = 2 * time.Second
)

func main() {
	os.Exit(run(time.Now()))
}

func run(procStart time.Time) int {
	workloadName := flag.String("workload", "", "run this one workload in this process and print its result as the last line")
	seed := flag.Int64("seed", 13, "the only source of randomness: workload generators, key material, sampled keys")
	seconds := flag.Int("seconds", 0, "measured window in seconds (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run plus layer probes, per-layer metrics")
	workloads := flag.String("workloads", "", "comma-separated workloads for the full set (default: those of BENCHMARK.json; primary-crash runs only when named)")
	repeat := flag.Int("repeat", 1, "run the full set this many times and compare consecutive sets against the bounds")
	quick := flag.Bool("quick", false, "smoke mode: 1s warm-up, 2s windows, write-mem-tcp and backup-crash only, in this process")
	outDir := flag.String("out", "out", "directory for results, traces and the disk workloads' data")
	flag.Parse()

	man, manErr := loadManifest()
	if *seconds == 0 {
		*seconds = defaultSeconds
		if manErr == nil {
			*seconds = man.RunSeconds
		}
	}

	if *workloadName != "" {
		sp := findSpec(*workloadName)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
			return 2
		}
		cfg := &runConfig{sp: sp, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir, warmup: warmup, setups: defaultSetups}
		if cfg.trace {
			cfg.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
		}
		res, err := runWorkload(cfg, procStart)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		line, _ := json.Marshal(res) // a struct of numbers and strings always marshals
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	names := strings.Split(*workloads, ",")
	if *workloads == "" {
		names = names[:0]
		for _, sp := range specs {
			if !sp.optIn {
				names = append(names, sp.name)
			}
		}
	}
	if *quick {
		names, *seconds = []string{"write-mem-tcp", "backup-crash"}, 2
	}
	for _, n := range names {
		if findSpec(n) == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", n)
			return 2
		}
	}
	if *repeat > 1 && manErr != nil {
		fmt.Fprintln(os.Stderr, "-repeat needs the bounds in BENCHMARK.json:", manErr)
		return 1
	}

	var prev *suiteResult
	for i := 0; i < *repeat; i++ {
		suite, err := runSuite(names, *seed, *seconds, *quick, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		file := "results.json"
		if *repeat > 1 {
			file = fmt.Sprintf("run-%c.json", 'a'+i)
		}
		if err := suite.write(filepath.Join(*outDir, file)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if prev != nil && !compare(os.Stdout, prev, suite, man) {
			return 1
		}
		prev = suite
	}
	return 0
}

// suiteResult is one pass over the workload set, as written to
// results.json.
type suiteResult struct {
	Header struct {
		NProc   int    `json:"nproc"`
		Go      string `json:"go"`
		Commit  string `json:"commit"`
		Seed    int64  `json:"seed"`
		Seconds int    `json:"seconds"`
		Started string `json:"started"`
	} `json:"header"`
	Runs []suiteRun `json:"runs"`
}

type suiteRun struct {
	Workload string     `json:"workload"`
	Trace    int        `json:"trace"`
	Result   *runResult `json:"result"`
}

func (s *suiteResult) find(workload string, trace int) *runResult {
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace {
			return r.Result
		}
	}
	return nil
}

func (s *suiteResult) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSuite runs every named workload untraced and then traced. Each run is
// a fresh child process (this binary with -workload), so CPU time, peak RSS,
// heap state and leaked goroutines never cross workloads; -quick runs them
// in this process instead.
func runSuite(names []string, seed int64, seconds int, quick bool, outDir string) (*suiteResult, error) {
	suite := &suiteResult{}
	suite.Header.NProc, suite.Header.Go = runtime.NumCPU(), runtime.Version()
	suite.Header.Commit = gitCommit()
	suite.Header.Seed, suite.Header.Seconds = seed, seconds
	suite.Header.Started = time.Now().UTC().Format(time.RFC3339)
	for _, trace := range []int{0, 1} {
		for _, name := range names {
			var res *runResult
			var err error
			if quick {
				cfg := &runConfig{sp: findSpec(name), seed: seed, seconds: seconds, trace: trace != 0,
					outDir: outDir, warmup: time.Second, setups: 1}
				res, err = runWorkload(cfg, time.Now())
			} else {
				res, err = runChild(name, seed, seconds, trace, outDir)
			}
			if err != nil {
				return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s (trace %d): correctness check failed", name, trace)
			}
			suite.Runs = append(suite.Runs, suiteRun{Workload: name, Trace: trace, Result: res})
		}
	}
	return suite, nil
}

// runChild re-executes this binary for one workload, passing its output
// through and parsing the result from its last line.
func runChild(name string, seed int64, seconds, trace int, outDir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", outDir)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	return &res, nil
}

// gitCommit names the tree the numbers came from, for the header of a
// committed baseline; outside a git checkout it is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
