package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"resilientdb/internal/ledger"
	"resilientdb/internal/replica"
	"resilientdb/internal/store"
)

// runConfig is one run of one workload: what the contract's driver asks for
// (--workload --seed --seconds --trace) plus the phase lengths -quick
// shortens.
type runConfig struct {
	sp      *spec
	seed    int64
	seconds int
	trace   bool
	outDir  string
	warmup  time.Duration
	// setups is how many times the system is built from nothing up to its
	// first acknowledged transaction; setup_s is the median. Only the last
	// build is measured further.
	setups int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints, as one JSON object.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const sliceWidth = int64(time.Second)

// driverCount is min(nproc, 4): one goroutine and one connection each.
func driverCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// session is a built system with its load running.
type session struct {
	sys    *system
	direct *directLoad
	gw     *gatewayLoad
}

func (s *session) ackedTxns() uint64 {
	if s.gw != nil {
		return s.gw.ackedTxns()
	}
	return s.direct.ackedTxns()
}

// stopLoad ends the traffic; the system stays up for the correctness check.
func (s *session) stopLoad() error {
	if s.gw != nil {
		return s.gw.stop()
	}
	s.direct.stop()
	return nil
}

// startSession builds the system, starts the load, and returns once the
// first transaction has been acknowledged — the end of set-up.
func startSession(cfg *runConfig, tr *tracer, attempt int) (*session, error) {
	var wrapTr *tracer
	if cfg.trace {
		wrapTr = tr
	}
	dataDir := filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%d-%d", cfg.sp.name, os.Getpid(), attempt))
	sys, err := buildSystem(cfg.sp, cfg.seed, wrapTr, dataDir)
	if err != nil {
		return nil, err
	}
	s := &session{sys: sys}
	if cfg.sp.gateway {
		s.gw, err = startGatewayLoad(cfg.sp, cfg.seed, sys.cluster)
	} else {
		s.direct, err = startDirectLoad(cfg.sp, cfg.seed, sys, tr, driverCount())
	}
	if err != nil {
		sys.stop()
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.ackedTxns() == 0 {
		if time.Now().After(deadline) {
			_ = s.stopLoad()
			sys.stop()
			return nil, errors.New("no transaction acknowledged within 30s of start")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return s, nil
}

// window is one measured interval: n one-second slices from t0. Process CPU
// (and the gateway's counters) are read at every slice boundary, the heap
// and replica counters at both ends.
type window struct {
	t0      int64
	n       int
	crashAt int64 // when replica crashed was cut off; 0 when none was in this window
	crashed int
	marks   []gwMark
	cpuAt   []time.Duration // n+1 readings
	mallocs [2]uint64
	reps    [2][]replica.Stats
}

func (w *window) end() int64       { return w.t0 + int64(w.n)*sliceWidth }
func (w *window) seconds() float64 { return float64(w.n) }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// cpuTime is the process's user plus system CPU so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (s *session) replicaStats() []replica.Stats {
	out := make([]replica.Stats, len(s.sys.replicas))
	for i, r := range s.sys.replicas {
		out[i] = r.Stats()
	}
	return out
}

// measure sleeps through n slices, snapshotting the gateway counters at each
// boundary, and cuts replica crash off a quarter of the way in (-1: none).
func (s *session) measure(tr *tracer, n int, crash int) *window {
	w := &window{n: n}
	w.reps[0] = s.replicaStats()
	w.mallocs[0] = mallocCount()
	w.t0 = tr.now()
	crashSlice := n / 4
	for i := 0; i <= n; i++ {
		time.Sleep(time.Duration(w.t0 + int64(i)*sliceWidth - tr.now()))
		w.cpuAt = append(w.cpuAt, cpuTime())
		if s.gw != nil {
			w.marks = append(w.marks, s.gw.mark(tr))
		}
		if crash >= 0 && i == crashSlice {
			s.sys.crash(crash)
			w.crashAt, w.crashed = tr.now(), crash
		}
	}
	w.mallocs[1] = mallocCount()
	w.reps[1] = s.replicaStats()
	return w
}

// windowStats is what the load saw inside one window. The three timing
// figures are medians over the steady slices, so a second the host spent
// elsewhere moves none of them.
type windowStats struct {
	rates      []float64 // txn/s of each slice
	sliceTxns  []float64 // transactions acknowledged in each slice
	sliceLatMS []float64 // mean latency of the requests completed in each slice
	// steady is the first slice that counts: 0, or after a crash the first
	// slice wholly in degraded mode.
	steady int

	tput        float64 // median slice rate
	latMeanMS   float64 // median slice mean latency
	cpuUSPerTxn float64 // median slice CPU ÷ slice transactions
	sliceNote   string

	txns      float64 // transactions acknowledged in the whole window
	attempted int     // requests (direct) or session submits (gateway)
	failed    int

	// Direct workloads only.
	latP50MS, latP99MS float64
	latNote            string
	gapMS              float64
	recs               []reqRec
}

// summarize takes the medians over the steady slices.
func (st *windowStats) summarize(w *window) {
	var cpu []float64
	for i := st.steady; i < w.n; i++ {
		cpu = append(cpu, ratio(float64((w.cpuAt[i+1]-w.cpuAt[i]).Microseconds()), st.sliceTxns[i]))
	}
	st.tput = median(st.rates[st.steady:])
	st.latMeanMS = median(st.sliceLatMS[st.steady:])
	st.cpuUSPerTxn = median(cpu)
	st.sliceNote = fmt.Sprintf("medians of %d one-second slices", w.n-st.steady)
	if st.steady > 0 {
		st.sliceNote = fmt.Sprintf("medians of the %d one-second slices in degraded mode", w.n-st.steady)
	}
}

// directStats cuts the drivers' per-request records to the window. It must
// run after the drivers have stopped.
func directStats(l *directLoad, w *window, now int64) windowStats {
	var st windowStats
	burst := float64(l.drivers[0].burst)
	var ends []int64
	for _, d := range l.drivers {
		for _, r := range d.recs {
			if r.done >= w.t0 && r.done < w.end() {
				st.recs = append(st.recs, r)
				ends = append(ends, r.done)
			}
		}
		// A request still unanswered when the load stopped counts as
		// attempted, and as failed if it had already waited too long.
		if since := d.inFlightSince.Load(); since != 0 && since < w.end() && now-since > int64(lateAfter) {
			st.attempted++
			st.failed++
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	st.attempted += len(st.recs)
	st.txns = float64(len(st.recs)) * burst
	st.rates = sliceRates(ends, burst, w.t0, sliceWidth, w.n)
	st.sliceTxns = st.rates // slices are one second wide

	lats := make([]float64, len(st.recs))
	perSlice := make([][]float64, w.n)
	for i, r := range st.recs {
		ms := float64(r.latencyNS()) / 1e6
		lats[i] = ms
		if r.latencyNS() > int64(lateAfter) {
			st.failed++
		}
		sl := sliceOf(r.done, w.t0, sliceWidth, w.n)
		perSlice[sl] = append(perSlice[sl], ms)
	}
	for _, s := range perSlice {
		st.sliceLatMS = append(st.sliceLatMS, mean(s))
	}
	sort.Float64s(lats)
	st.latP50MS = percentile(lats, 50)

	// p99 needs ten samples beyond it: per slice when every slice has 1 000
	// requests, over the whole window otherwise.
	minSlice := len(st.recs)
	for _, s := range perSlice {
		if len(s) < minSlice {
			minSlice = len(s)
		}
	}
	if minSlice >= 1000 && w.crashAt == 0 {
		p99s := make([]float64, w.n)
		for i, s := range perSlice {
			sort.Float64s(s)
			p99s[i] = percentile(s, 99)
		}
		st.latP99MS = median(p99s)
		st.latNote = fmt.Sprintf("p99 = median of %d slice p99s, >= %d requests per slice", w.n, minSlice)
	} else {
		st.latP99MS = percentile(lats, 99)
		st.latNote = fmt.Sprintf("p99 over the whole window, %d requests", len(lats))
	}

	if w.crashAt != 0 {
		gap, resumed := maxGap(ends, w.crashAt, w.end())
		st.gapMS = float64(gap) / 1e6
		// Degraded mode is measured from the first whole slice after the
		// crash; without the primary, after the view change that ended the
		// longest gap.
		from := w.crashAt
		if w.crashed == primaryID {
			from = resumed
		}
		if first := sliceOf(from, w.t0, sliceWidth, w.n) + 1; first > 0 && first < w.n {
			st.steady = first
		}
	}
	st.summarize(w)
	return st
}

// gatewayStats derives the window from the boundary snapshots: the session
// load exposes counters and a bucketed histogram, so rates are exact, the
// mean latency is exact (histogram sum ÷ count), and percentiles are not
// available at better than ×2.
func gatewayStats(w *window) windowStats {
	var st windowStats
	first, last := w.marks[0], w.marks[len(w.marks)-1]
	for i := 1; i < len(w.marks); i++ {
		a, b := w.marks[i-1], w.marks[i]
		txns := float64(b.load.Completed - a.load.Completed)
		st.sliceTxns = append(st.sliceTxns, txns)
		st.rates = append(st.rates, txns/(float64(b.at-a.at)/1e9))
		st.sliceLatMS = append(st.sliceLatMS, ratio(b.latSumNS-a.latSumNS, float64(b.latCount-a.latCount))/1e6)
	}
	st.txns = float64(last.load.Completed - first.load.Completed)
	refused := (last.load.Rejected - first.load.Rejected) + (last.load.BusyReplies - first.load.BusyReplies)
	late := last.load.Retries - first.load.Retries
	st.failed = int(refused + late)
	st.attempted = int(st.txns) + int(refused)
	st.summarize(w)
	return st
}

func (s *session) stats(w *window, now int64) windowStats {
	if s.gw != nil {
		return gatewayStats(w)
	}
	return directStats(s.direct, w, now)
}

// check is the correctness gate: a run whose outputs are wrong reports
// correct=false and the command exits non-zero.
func (s *session) check(cfg *runConfig) []string {
	var bad []string
	sys := s.sys
	if !sys.waitQuiesce(10 * time.Second) {
		bad = append(bad, "live replicas did not quiesce within 10s")
	}
	acked := s.ackedTxns()
	var ref *replica.Replica
	for i, r := range sys.replicas {
		if !sys.live(i) {
			continue
		}
		if err := r.Ledger().Validate(); err != nil {
			bad = append(bad, fmt.Sprintf("replica %d ledger invalid: %v", i, err))
		}
		if ref == nil {
			ref = r
		} else if err := ledger.VerifyChainEquality(ref.Ledger(), r.Ledger()); err != nil {
			bad = append(bad, fmt.Sprintf("replica %d vs %d: %v", i, ref.ID(), err))
		}
		st := r.Stats()
		if st.TxnsExecuted < acked {
			bad = append(bad, fmt.Sprintf("replica %d executed %d txns, clients saw %d acknowledged", i, st.TxnsExecuted, acked))
		}
		if st.StoreWriteFailures+st.Evidence+st.AuthFailures != 0 {
			bad = append(bad, fmt.Sprintf("replica %d: store write failures %d, evidence %d, auth failures %d",
				i, st.StoreWriteFailures, st.Evidence, st.AuthFailures))
		}
		if cfg.sp.fault == crashPrimary && st.View == 0 {
			bad = append(bad, fmt.Sprintf("replica %d still in view 0 after the primary crash", i))
		}
		if cfg.sp.fault != crashPrimary && st.View != 0 {
			bad = append(bad, fmt.Sprintf("replica %d moved to view %d without a fault", i, st.View))
		}
	}
	bad = append(bad, sys.compareStores(cfg)...)
	return bad
}

// compareStores checks that the live replicas' stores hold byte-identical
// values under 1 000 seeded sample keys.
func (s *system) compareStores(cfg *runConfig) []string {
	var ref store.Store
	refID := 0
	rnd := rand.New(rand.NewSource(cfg.seed))
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(rnd.Int63n(int64(cfg.sp.records)))
	}
	var bad []string
	for i, st := range s.stores {
		if !s.live(i) {
			continue
		}
		if ref == nil {
			ref, refID = st, i
			continue
		}
		for _, k := range keys {
			a, errA := ref.Get(k)
			b, errB := st.Get(k)
			if (errA == nil) != (errB == nil) || string(a) != string(b) {
				bad = append(bad, fmt.Sprintf("stores of replicas %d and %d differ at key %d", refID, i, k))
				break
			}
		}
	}
	return bad
}

// runWorkload is one complete run: set-up (several times), warm-up, the
// measured window(s), the correctness check, and the metrics.
func runWorkload(cfg *runConfig, procStart time.Time) (*runResult, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tr := &tracer{epoch: procStart}
	var sess *session
	var setupS []float64
	for k := 0; k < cfg.setups; k++ {
		began := time.Now()
		if k == 0 {
			began = procStart // the first set-up is charged from process start
		}
		var err error
		if sess, err = startSession(cfg, tr, k); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setupS = append(setupS, time.Since(began).Seconds())
		if k < cfg.setups-1 {
			_ = sess.stopLoad()
			sess.sys.stop()
			runtime.GC() // so peak RSS reflects one system, not the discarded ones
		}
	}
	defer sess.sys.stop()
	time.Sleep(cfg.warmup)

	res := &runResult{Metrics: map[string]metricValue{}}
	var bad []string
	if !cfg.trace {
		w := sess.measure(tr, cfg.seconds, cfg.sp.fault.target())
		if err := sess.stopLoad(); err != nil {
			return nil, err
		}
		st := sess.stats(w, tr.now())
		bad = sess.check(cfg)
		endToEndMetrics(res, cfg, w, &st, median(setupS))
		fmt.Printf("# %s: setup_s is the median of %d set-ups, s: %.3f\n", cfg.sp.name, len(setupS), setupS)
	} else {
		// One system serves both windows: the wrappers pass through while
		// the tracer is off, so the first window is the untraced reference
		// the tracing overhead is measured against.
		n := cfg.seconds / 3
		if n < 2 {
			n = 2
		}
		ref := sess.measure(tr, n, -1)
		tr.on.Store(true)
		sampler := startSampler(sess.sys)
		w := sess.measure(tr, n, cfg.sp.fault.target())
		samples := sampler.stop()
		tr.on.Store(false)
		if err := sess.stopLoad(); err != nil {
			return nil, err
		}
		now := tr.now()
		refSt, st := sess.stats(ref, now), sess.stats(w, now)
		bad = sess.check(cfg)
		res.Attempted, res.Failed = st.attempted, st.failed
		vals := perLayerRun(cfg, sess, w, &st, &refSt, samples)
		if err := runProbes(cfg, vals); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		emit(res, cfg.sp.name, perLayer, vals)
		fmt.Printf("# %s: traced window of %d one-second slices after an untraced reference window of the same length; bench.trace_overhead_frac compares their tput_txn_s\n", cfg.sp.name, n)
		if sess.direct != nil {
			fmt.Printf("# %s: client.lat_p50_ms and client.lat_p99_ms are exact; %s\n", cfg.sp.name, st.latNote)
		}
		if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+cfg.sp.name+".json"), sess.spans()); err != nil {
			return nil, err
		}
	}
	for _, b := range bad {
		fmt.Println("CHECK FAILED:", b)
	}
	res.Correct = len(bad) == 0
	return res, nil
}

// spans gathers what every recorder of the session kept in memory.
func (s *session) spans() []span {
	var all []span
	if s.direct != nil {
		for _, d := range s.direct.drivers {
			all = append(all, d.spans...)
		}
	}
	for _, e := range s.sys.endpoints {
		all = append(all, e.rec.snapshot()...)
	}
	for _, w := range s.sys.wrapped {
		all = append(all, w.rec.snapshot()...)
	}
	return all
}

func endToEndMetrics(res *runResult, cfg *runConfig, w *window, st *windowStats, setupS float64) {
	res.Attempted, res.Failed = st.attempted, st.failed
	vals := map[string]float64{
		"tput_txn_s":     st.tput,
		"lat_mean_ms":    st.latMeanMS,
		"allocs_per_txn": ratio(float64(w.mallocs[1]-w.mallocs[0]), st.txns),
		"rss_peak_mb":    float64(rusage().Maxrss) / 1024, // Linux reports KiB
		"setup_s":        setupS,
	}
	emit(res, cfg.sp.name, endToEnd, vals)
	fmt.Printf("# %s: closed loop, zero injected message delay (latency is processor time plus fsync, not a network)\n", cfg.sp.name)
	fmt.Printf("# %s: tput_txn_s and lat_mean_ms are %s; slice cv %.3f; %d requests attempted, %d failed\n",
		cfg.sp.name, st.sliceNote, coefficientOfVariation(st.rates), st.attempted, st.failed)
	fmt.Printf("# %s: slice rates, txn/s: %.0f\n", cfg.sp.name, st.rates)
	if cfg.sp.gateway {
		fmt.Printf("# %s: %d sessions over %d connections; lat_mean_ms = histogram sum / count per slice (exact); exact percentiles are not observable from outside the gateway package\n",
			cfg.sp.name, gwSessions, gwConns)
	} else {
		fmt.Printf("# %s: %d drivers x burst %d; latency of %d requests, sign-start to quorum outcome, exact timestamps\n",
			cfg.sp.name, driverCount(), cfg.sp.burst, len(st.recs))
	}
	if w.crashAt != 0 {
		fmt.Printf("# %s: replica %d cut off %.1fs into the window; longest time without an acknowledged request after that: %.1f ms (closed loop: requests that would have been due in the gap are not counted)\n",
			cfg.sp.name, w.crashed, float64(w.crashAt-w.t0)/1e9, st.gapMS)
	}
}

// emit stores vals under the names in defs, with their units, and prints
// one line per metric. A name in defs without a value is a bug in this
// file; the manifest test catches the reverse.
func emit(res *runResult, workload string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("benchmark: no value computed for metric " + d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%s %s %.6g %s\n", workload, d.name, v, d.unit)
	}
}
