package sim

import (
	"testing"
	"time"
)

// small returns a fast-running base configuration for tests.
func small(p Protocol) Config {
	return Config{
		Protocol: p,
		Replicas: 4,
		Clients:  1500,
		Warmup:   50 * Millisecond,
		Measure:  150 * Millisecond,
	}
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEventLoopOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.At(10, func() { order = append(order, 11) }) // same time: insertion order
	s.Run(100)
	want := []int{1, 11, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 100 {
		t.Fatalf("Now = %d, want 100", s.Now())
	}
}

func TestHostCoreContention(t *testing.T) {
	s := NewSim()
	h := NewHost(s, 1, NewNIC(s, 1e9)) // a single core
	t1 := h.NewThread("a")
	t2 := h.NewThread("b")
	var doneA, doneB Time
	h.Submit(t1, 100, func() { doneA = s.Now() })
	h.Submit(t2, 100, func() { doneB = s.Now() })
	s.Run(1000)
	// With one core the jobs serialize: 100 and 200.
	if doneA != 100 || doneB != 200 {
		t.Fatalf("single core: doneA=%d doneB=%d, want 100/200", doneA, doneB)
	}

	h2 := NewHost(s, 2, NewNIC(s, 1e9))
	t3 := h2.NewThread("c")
	t4 := h2.NewThread("d")
	base := s.Now()
	var doneC, doneD Time
	h2.Submit(t3, 100, func() { doneC = s.Now() - base })
	h2.Submit(t4, 100, func() { doneD = s.Now() - base })
	s.Run(s.Now() + 1000)
	if doneC != 100 || doneD != 100 {
		t.Fatalf("two cores: doneC=%d doneD=%d, want 100/100", doneC, doneD)
	}
}

func TestThreadFIFOWithinThread(t *testing.T) {
	s := NewSim()
	h := NewHost(s, 4, NewNIC(s, 1e9))
	th := h.NewThread("x")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		h.Submit(th, 10, func() { order = append(order, i) })
	}
	s.Run(1000)
	for i, v := range order {
		if v != i {
			t.Fatalf("thread order = %v", order)
		}
	}
	if th.BusyNS != 50 {
		t.Fatalf("BusyNS = %d, want 50", th.BusyNS)
	}
}

func TestNICSerialization(t *testing.T) {
	s := NewSim()
	nic := NewNIC(s, float64(Second)) // 1 byte per ns
	var first, second Time
	nic.Send(1000, 0, func() { first = s.Now() })
	nic.Send(1000, 0, func() { second = s.Now() })
	s.Run(10_000)
	if first != 1000 || second != 2000 {
		t.Fatalf("NIC serialization: %d/%d, want 1000/2000", first, second)
	}
	if nic.SentBytes != 2000 || nic.SentMsgs != 2 {
		t.Fatalf("NIC counters: %d bytes, %d msgs", nic.SentBytes, nic.SentMsgs)
	}
}

func TestPBFTSimCommitsTransactions(t *testing.T) {
	res := mustRun(t, small(PBFT))
	if res.ThroughputTxns <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.SlowPath != 0 {
		t.Fatalf("PBFT reported slow-path completions: %+v", res)
	}
	if res.MeanLatency <= 0 {
		t.Fatal("no latency recorded")
	}
	// Standard pipeline exists and accumulates busy time.
	for _, name := range []string{"worker", "execute", "batch-1", "batch-2"} {
		if _, ok := res.PrimarySaturation[name]; !ok {
			t.Fatalf("missing thread %q in saturation map: %v", name, res.PrimarySaturation)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	a := mustRun(t, small(PBFT))
	b := mustRun(t, small(PBFT))
	if a.ThroughputTxns != b.ThroughputTxns || a.Events != b.Events || a.MeanLatency != b.MeanLatency {
		t.Fatalf("nondeterministic: %v/%v events %d/%d", a.ThroughputTxns, b.ThroughputTxns, a.Events, b.Events)
	}
}

// TestSimGolden pins the simulator's results for the small configurations
// to the last event: engines write their outputs into a buffer the driver
// reuses, and any change to what they emit, or in which order, moves these
// numbers. The failed rows are Figure 17's: one crashed backup, under
// TestZyzzyvaFailureForcesSlowPath's client timeout and windows.
func TestSimGolden(t *testing.T) {
	golden := []struct {
		p      Protocol
		failed bool
		events uint64
		tput   float64
		lat    time.Duration
		slow   uint64
	}{
		{PBFT, false, 415536, 172866.6666666667, 8674259, 0},
		{Zyzzyva, false, 386534, 173333.33333333334, 8675427, 0},
		{PBFT, true, 733109, 173600, 8654859, 0},
		{Zyzzyva, true, 253917, 24348, 69682685, 6087},
	}
	for _, g := range golden {
		cfg := small(g.p)
		if g.failed {
			cfg = oneFailedBackup(g.p)
		}
		res := mustRun(t, cfg)
		if res.Events != g.events || res.ThroughputTxns != g.tput || res.MeanLatency != g.lat || res.SlowPath != g.slow {
			t.Errorf("%v (failed backup %v): events %d, throughput %v, mean latency %d ns, slow path %d; want %d, %v, %d ns, %d",
				g.p, g.failed, res.Events, res.ThroughputTxns, int64(res.MeanLatency), res.SlowPath, g.events, g.tput, int64(g.lat), g.slow)
		}
	}
}

// oneFailedBackup is small(p) with one crashed backup and a client timeout
// short enough for Zyzzyva's slow path to complete inside the window.
func oneFailedBackup(p Protocol) Config {
	cfg := small(p)
	cfg.FailedBackups = 1
	cfg.ClientTimeout = 60 * Millisecond
	cfg.Warmup = 150 * Millisecond
	cfg.Measure = 250 * Millisecond
	return cfg
}

func TestZyzzyvaFaultFreeIsFastPath(t *testing.T) {
	res := mustRun(t, small(Zyzzyva))
	if res.ThroughputTxns <= 0 {
		t.Fatal("no throughput")
	}
	if res.FastPath == 0 || res.SlowPath != 0 {
		t.Fatalf("fault-free Zyzzyva: fast=%d slow=%d", res.FastPath, res.SlowPath)
	}
}

func TestZyzzyvaFailureForcesSlowPath(t *testing.T) {
	res := mustRun(t, oneFailedBackup(Zyzzyva))
	if res.SlowPath == 0 {
		t.Fatalf("no slow-path completions under failure: %+v", res)
	}
	if res.FastPath != 0 {
		t.Fatalf("impossible fast path with a crashed replica: %+v", res)
	}

	// The headline shape (Figure 17): one crash costs Zyzzyva an order of
	// magnitude; PBFT barely notices.
	healthy := mustRun(t, small(Zyzzyva))
	if res.ThroughputTxns > healthy.ThroughputTxns/2 {
		t.Fatalf("failure collapse too small: %v vs %v", res.ThroughputTxns, healthy.ThroughputTxns)
	}
	pcfg := small(PBFT)
	pcfg.FailedBackups = 1
	pbftFail := mustRun(t, pcfg)
	pbftOK := mustRun(t, small(PBFT))
	if pbftFail.ThroughputTxns < pbftOK.ThroughputTxns/2 {
		t.Fatalf("PBFT collapsed under one backup failure: %v vs %v", pbftFail.ThroughputTxns, pbftOK.ThroughputTxns)
	}
}

func TestBatchingImprovesThroughput(t *testing.T) {
	small1 := small(PBFT)
	small1.BatchSize = 1
	small1.Clients = 300
	tiny := mustRun(t, small1)

	big := small(PBFT)
	big.BatchSize = 100
	batched := mustRun(t, big)

	// The Section 5.3 shape: batching by 100 must yield a large multiple.
	if batched.ThroughputTxns < 5*tiny.ThroughputTxns {
		t.Fatalf("batching gain too small: %v vs %v", batched.ThroughputTxns, tiny.ThroughputTxns)
	}
}

func TestMoreCoresMoreThroughput(t *testing.T) {
	one := small(PBFT)
	one.Cores = 1
	r1 := mustRun(t, one)
	eight := small(PBFT)
	eight.Cores = 8
	r8 := mustRun(t, eight)
	if r8.ThroughputTxns <= r1.ThroughputTxns {
		t.Fatalf("8 cores (%v) not above 1 core (%v)", r8.ThroughputTxns, r1.ThroughputTxns)
	}
	// Section 5.9 reports 8.92×; require at least a strong multiple.
	if r8.ThroughputTxns < 2*r1.ThroughputTxns {
		t.Fatalf("core scaling too weak: %v vs %v", r8.ThroughputTxns, r1.ThroughputTxns)
	}
}

func TestDiskStorageCollapsesThroughput(t *testing.T) {
	mem := mustRun(t, small(PBFT))
	diskCfg := small(PBFT)
	diskCfg.Storage = StorageDisk
	disk := mustRun(t, diskCfg)
	// Section 5.7: off-memory storage reduces throughput by ~94%.
	if disk.ThroughputTxns > mem.ThroughputTxns/2 {
		t.Fatalf("disk storage too fast: %v vs %v", disk.ThroughputTxns, mem.ThroughputTxns)
	}
}

func TestSchemeOrdering(t *testing.T) {
	tput := func(s Scheme) float64 {
		cfg := small(PBFT)
		cfg.Scheme = s
		return mustRun(t, cfg).ThroughputTxns
	}
	none := tput(SchemeNone)
	cmac := tput(SchemeCMAC)
	ed := tput(SchemeED25519)
	rsa := tput(SchemeRSA)
	// Section 5.6 ordering: NoSig > CMAC+ED > ED-only > RSA.
	if !(none > cmac && cmac > ed && ed > rsa) {
		t.Fatalf("scheme ordering broken: none=%v cmac=%v ed=%v rsa=%v", none, cmac, ed, rsa)
	}
}

func TestMessageSizeReducesThroughput(t *testing.T) {
	base := small(PBFT)
	base.Clients = 800
	smallMsg := mustRun(t, base)
	bigCfg := base
	bigCfg.PayloadSize = 64 * 1024 / 100 * 100 // ~64KB across the batch
	bigCfg.PayloadSize = 640                   // per txn ⇒ pre-prepare ≈ 64KB+
	big := mustRun(t, bigCfg)
	if big.ThroughputTxns >= smallMsg.ThroughputTxns {
		t.Fatalf("larger messages did not hurt: %v vs %v", big.ThroughputTxns, smallMsg.ThroughputTxns)
	}
}

func TestOutOfOrderAblation(t *testing.T) {
	ooo := mustRun(t, small(PBFT))
	seqCfg := small(PBFT)
	seqCfg.DisableOutOfOrder = true
	seq := mustRun(t, seqCfg)
	// Section 4.5: out-of-order processing is claimed worth ~60%.
	if ooo.ThroughputTxns <= seq.ThroughputTxns {
		t.Fatalf("out-of-order (%v) not above sequential (%v)", ooo.ThroughputTxns, seq.ThroughputTxns)
	}
}

func TestUpperBoundModes(t *testing.T) {
	noexec := small(PBFT)
	noexec.UpperBound = UpperBoundNoExec
	noexec.Scheme = SchemeNone
	noexec.Replicas = 1
	rNo := mustRun(t, noexec)

	exec := noexec
	exec.UpperBound = UpperBoundExec
	rEx := mustRun(t, exec)

	full := mustRun(t, small(PBFT))
	if !(rNo.ThroughputTxns >= rEx.ThroughputTxns) {
		t.Fatalf("no-exec (%v) below exec (%v)", rNo.ThroughputTxns, rEx.ThroughputTxns)
	}
	if rEx.ThroughputTxns <= full.ThroughputTxns {
		t.Fatalf("upper bound (%v) below full consensus (%v)?", rEx.ThroughputTxns, full.ThroughputTxns)
	}
}

func TestThreadConfigsShape(t *testing.T) {
	// Section 5.2: the deep pipeline must beat the monolithic design.
	run := func(b, e int) float64 {
		cfg := small(PBFT)
		cfg.BatchThreads = b
		cfg.ExecuteThreads = e
		return mustRun(t, cfg).ThroughputTxns
	}
	mono := run(-1, -1) // 0B 0E: everything on the worker
	full := run(2, 1)   // the standard pipeline
	if full <= mono {
		t.Fatalf("pipeline (%v) not above monolithic (%v)", full, mono)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Replicas: 3}); err == nil {
		t.Fatal("accepted 3 replicas")
	}
	if _, err := Run(Config{Replicas: 16, FailedBackups: 6}); err == nil {
		t.Fatal("accepted more failures than f")
	}
}

func TestZyzzyvaMatchesPBFTOnFullPipeline(t *testing.T) {
	p := mustRun(t, small(PBFT))
	z := mustRun(t, small(Zyzzyva))
	// Section 5.2: with the full pipeline both land close together (the
	// batch-threads bound both); allow a generous band.
	ratio := z.ThroughputTxns / p.ThroughputTxns
	if ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("unexpected zyzzyva/pbft ratio %.2f (z=%v p=%v)", ratio, z.ThroughputTxns, p.ThroughputTxns)
	}
}
