package chaos

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/store"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// Scenario is one cell of the fault matrix: a fault class bound to a
// target replica, the workload and knob overrides it runs under, and the
// outcomes it must produce. The runner drives every scenario through the
// same three-window schedule — warmup (baseline throughput), fault window
// (fault active under live load), recovery window (fault healed) — and
// checks the safety invariants at the end.
type Scenario struct {
	// Name identifies the scenario in reports; Class is the fault class
	// (the matrix coverage unit).
	Name  string
	Class string
	// Target is the replica the fault lands on; Byzantine-primary
	// scenarios target replica 0, the view-0 primary.
	Target int

	// Backend overrides the record store backend ("" = mem); scenarios
	// exercising the durability path use "sharded".
	Backend string
	// AggressiveCompact tunes the disk backend so compaction fires
	// constantly during the run (compaction-crash coverage).
	AggressiveCompact bool
	// ReadFraction mixes read transactions into the workload (0 = the
	// write-only default); ReadMode overrides the cluster read mode.
	ReadFraction float64
	ReadMode     string
	// ViewTimeout overrides the progress watchdog (0 = the harness
	// default, generous enough that only real wedges trip it).
	ViewTimeout time.Duration

	// The fault itself: a link fault on the target's links, a Byzantine
	// sender behavior, a store write stall, a partition, or a crash.
	Link       LinkFault
	Behavior   Behavior
	StoreStall time.Duration
	// Isolate partitions the target from the other replicas for the
	// fault window; healing rejoins it via crash-restart bootstrap (the
	// harness's stand-in for state transfer — a replica that missed
	// committed sequence numbers has no protocol path to refetch them).
	Isolate bool
	// Crash fails the target at fault start; healing restarts it.
	Crash bool
	// Restart forces healing to go through crash-restart bootstrap even
	// when the fault left the target up. Faults that lose committed
	// messages (floods, partitions) leave the target with sequence gaps
	// it cannot refill; Isolate and Crash imply it.
	Restart bool
	// PlantCompactTemp drops a stray .compact-* rewrite temp into the
	// target's store directory before restart, simulating a crash in the
	// middle of a compaction rename; the reopened store must discard it.
	PlantCompactTemp bool

	Expect Expect
}

// Expect lists the outcomes a scenario must produce on top of the
// always-on safety invariants; each unmet expectation is a violation.
type Expect struct {
	// ViewChange requires the cluster to finish in a view > 0.
	ViewChange bool
	// SameView requires the cluster to finish still in view 0 (the
	// detected-equivocation scenario: evidence without a view change).
	SameView bool
	// Evidence requires at least one replica-side Byzantine-evidence
	// observation.
	Evidence bool
	// DecodeFailures requires the malformed-flood counter to fire.
	DecodeFailures bool
	// ForgedReads requires the fabric to have forged at least one read
	// response (the client-side defense is then what the safety
	// invariants certify).
	ForgedReads bool
	// Certifies requires every live replica to hold a newer checkpoint
	// certificate at the end than when the fault began: checkpoints kept
	// becoming stable, and certified, through it.
	Certifies bool
}

// settleWait bounds the post-run wait for the live replicas' ledger
// heights to converge.
const settleWait = 3 * time.Second

// Tuning sizes the runner's windows and workload; zero values take the
// defaults below, sized for the small in-process cluster.
type Tuning struct {
	Warmup  time.Duration // baseline window
	Fault   time.Duration // fault-active window
	Recover time.Duration // post-heal window (bounds recovery time)
	Records uint64
	Clients int
	Seed    int64
	// BaseFault is ambient network degradation layered under every
	// scenario (the -chaos flag's link fault): it stays active through
	// all three windows, including after the scenario's own fault heals.
	BaseFault LinkFault
}

func (t *Tuning) fill() {
	if t.Warmup <= 0 {
		t.Warmup = 400 * time.Millisecond
	}
	if t.Fault <= 0 {
		t.Fault = 1500 * time.Millisecond
	}
	if t.Recover <= 0 {
		t.Recover = 1200 * time.Millisecond
	}
	if t.Records == 0 {
		t.Records = 1024
	}
	if t.Clients == 0 {
		t.Clients = 3
	}
	if t.Seed == 0 {
		t.Seed = 42
	}
}

// Report is one scenario's outcome: the throughput under each window,
// how long liveness took to come back after healing, the final view, the
// fault counters, and every invariant or expectation violation. An empty
// Violations slice means the scenario passed.
type Report struct {
	Scenario string `json:"scenario"`
	Class    string `json:"class"`

	BaselineTput  float64 `json:"baseline_tput"`
	FaultTput     float64 `json:"fault_tput"`
	RecoveredTput float64 `json:"recovered_tput"`
	// RecoverySeconds is the time from heal to the first new ledger
	// height every live replica reached; the recovery window duration
	// means liveness never came back (also recorded as a violation).
	RecoverySeconds float64 `json:"recovery_seconds"`
	Txns            uint64  `json:"txns"`

	FinalView      uint64 `json:"final_view"`
	Evidence       uint64 `json:"evidence"`
	DecodeFailures uint64 `json:"decode_failures"`
	Injected       Stats  `json:"injected"`

	Violations []string `json:"violations,omitempty"`
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// DefaultMatrix is the full fault matrix: ten fault classes, each under
// live Zipfian load.
func DefaultMatrix() []Scenario {
	return []Scenario{
		{
			Name: "equivocation-detected", Class: "equivocation", Target: 0,
			Behavior: ByzEquivocateBoth,
			Expect:   Expect{Evidence: true, SameView: true},
		},
		{
			Name: "equivocation-split", Class: "equivocation", Target: 0,
			Behavior: ByzEquivocateSplit, ViewTimeout: 250 * time.Millisecond,
			Expect: Expect{ViewChange: true},
		},
		{
			Name: "silent-primary", Class: "primary-silence", Target: 0,
			Behavior: ByzMutePrimary, ViewTimeout: 250 * time.Millisecond,
			Expect: Expect{ViewChange: true},
		},
		{
			Name: "partition-minority", Class: "partition", Target: 3,
			Isolate: true,
		},
		{
			Name: "slow-replica", Class: "slow-replica", Target: 3,
			Link: LinkFault{Delay: 2 * time.Millisecond, Reorder: 3 * time.Millisecond},
		},
		{
			Name: "malformed-flood", Class: "malformed-flood", Target: 3,
			// A corrupted message is a lost message: the flooded replica
			// accumulates sequence gaps it has no protocol path to refill,
			// so healing rejoins it via restart bootstrap.
			Link: LinkFault{Corrupt: 0.25}, Restart: true,
			Expect: Expect{DecodeFailures: true},
		},
		{
			Name: "disk-stall", Class: "disk-stall", Target: 2,
			Backend: "sharded", StoreStall: time.Millisecond,
		},
		{
			Name: "read-forgery", Class: "read-forgery", Target: 2,
			Behavior: ByzForgeReads, ReadFraction: 0.5,
			Expect: Expect{ForgedReads: true},
		},
		{
			Name: "wrong-checkpoint-key", Class: "checkpoint-forgery", Target: 1,
			Behavior: ByzWrongCheckpointKey,
			Expect:   Expect{Evidence: true, SameView: true, Certifies: true},
		},
		{
			Name: "compaction-crash", Class: "compaction-crash", Target: 3,
			Backend: "sharded", AggressiveCompact: true, Crash: true, PlantCompactTemp: true,
		},
		{
			Name: "crash-restart", Class: "crash-restart", Target: 3,
			Backend: "sharded", Crash: true,
		},
	}
}

// SmokeMatrix is the reduced matrix CI runs under the race detector: one
// Byzantine scenario with a view change, one without, and one
// crash-restart over the durable backend.
func SmokeMatrix() []Scenario {
	keep := map[string]bool{"equivocation-detected": true, "silent-primary": true, "crash-restart": true}
	var out []Scenario
	for _, sc := range DefaultMatrix() {
		if keep[sc.Name] {
			out = append(out, sc)
		}
	}
	return out
}

// RunScenario executes one scenario: build a 4-replica cluster with the
// fabric wrapped around every replica endpoint, run
// warmup → inject → fault window → heal → recovery window, then settle
// and check the safety invariants. The returned error covers harness
// failures (cluster construction, restart); fault-induced misbehavior
// lands in Report.Violations instead.
func RunScenario(sc Scenario, tn Tuning) (*Report, error) {
	tn.fill()
	rep := &Report{Scenario: sc.Name, Class: sc.Class}
	fab := NewFabric(tn.Seed)
	fab.SetDefault(tn.BaseFault)
	sf := NewStoreFaults()

	wl := workload.Default()
	wl.Records = tn.Records
	wl.ValueSize = 64
	wl.Seed = tn.Seed
	if sc.ReadFraction != 0 {
		wl.ReadFraction = sc.ReadFraction
	}

	opts := cluster.Options{
		N:                  4,
		Clients:            tn.Clients,
		Burst:              2,
		BatchSize:          8,
		Workload:           wl,
		CheckpointInterval: 16,
		ClientTimeout:      120 * time.Millisecond,
		ViewTimeout:        time.Second,
		ReadMode:           sc.ReadMode,
		Seed:               tn.Seed,
		PreloadTable:       true,
		StoreBackend:       sc.Backend,
		EndpointWrapper:    fab.WrapEndpoint,
		StoreWrapper: func(id types.ReplicaID, st store.Store) store.Store {
			if int(id) == sc.Target {
				return sf.WrapStore(st)
			}
			return st
		},
	}
	if sc.ViewTimeout > 0 {
		opts.ViewTimeout = sc.ViewTimeout
	}
	if sc.AggressiveCompact {
		opts.CheckpointInterval = 8
		opts.StoreCompactRatio = 0.01
		opts.StoreCompactMinBytes = -1
	}

	// Disk-backed scenarios get a runner-owned store root so the harness
	// knows each replica's directory (the compaction-crash scenario plants
	// a stray rewrite temp there before restart).
	var storeRoot string
	if sc.Backend == "sharded" {
		var err error
		storeRoot, err = os.MkdirTemp("", "chaos-store-")
		if err != nil {
			return nil, fmt.Errorf("chaos: store root: %w", err)
		}
		defer os.RemoveAll(storeRoot)
		opts.StoreDir = storeRoot
	}

	c, err := cluster.New(opts)
	if err != nil {
		return nil, fmt.Errorf("chaos: building cluster: %w", err)
	}
	defer c.Stop()
	c.Start()
	ctx := context.Background()

	// Window 1: fault-free baseline.
	base := c.Run(ctx, tn.Warmup)
	rep.BaselineTput = base.Throughput
	rep.Txns += base.Txns
	if base.Txns == 0 {
		rep.violate("no progress during fault-free warmup")
	}

	// Inject, then run the fault window under load.
	certAtFault := make([]types.SeqNum, 4)
	for i := range certAtFault {
		certAtFault[i] = c.Replica(i).Ledger().Certificate().Seq
	}
	if sc.Behavior != ByzNone {
		fab.SetByzantine(types.ReplicaID(sc.Target), sc.Behavior)
	}
	if !sc.Link.zero() {
		fab.SetNode(types.ReplicaNode(types.ReplicaID(sc.Target)), sc.Link)
	}
	if sc.StoreStall > 0 {
		sf.SetWriteStall(sc.StoreStall)
	}
	if sc.Isolate {
		fab.Isolate(types.ReplicaNode(types.ReplicaID(sc.Target)))
	}
	if sc.Crash {
		c.Crash(sc.Target)
	}
	fault := c.Run(ctx, tn.Fault)
	rep.FaultTput = fault.Throughput
	rep.Txns += fault.Txns

	// Heal: clear every fault; a partitioned target rejoins via
	// crash-restart bootstrap (it has no protocol path to refetch the
	// sequence numbers it missed), a crashed one restarts directly.
	sf.SetWriteStall(0)
	fab.Clear()
	fab.SetDefault(tn.BaseFault)
	restarted := map[int]bool{}
	if (sc.Isolate || sc.Restart) && !sc.Crash {
		c.Crash(sc.Target)
	}
	if sc.Crash || sc.Isolate || sc.Restart {
		if sc.PlantCompactTemp && storeRoot != "" {
			stray := filepath.Join(storeRoot, fmt.Sprintf("replica-%d", sc.Target), ".compact-777")
			if err := os.WriteFile(stray, []byte("partial rewrite left by a mid-compaction crash"), 0o600); err != nil {
				return nil, fmt.Errorf("chaos: planting compaction temp: %w", err)
			}
		}
		if err := c.Restart(sc.Target); err != nil {
			return nil, fmt.Errorf("chaos: restarting replica %d: %w", sc.Target, err)
		}
		restarted[sc.Target] = true
		if sc.PlantCompactTemp && storeRoot != "" {
			dir := filepath.Join(storeRoot, fmt.Sprintf("replica-%d", sc.Target))
			if strays, _ := filepath.Glob(filepath.Join(dir, ".compact-*")); len(strays) > 0 {
				rep.violate("stray compaction temp survived restart: %v", strays)
			}
		}
	}

	// Window 3: recovery. Load runs in the background while the runner
	// polls for the first new height every live replica reaches; the gap
	// between heal and that height is the recovery time.
	healTarget := maxLiveHeight(c) + 1
	healStart := time.Now()
	resCh := make(chan cluster.Result, 1)
	go func() { resCh <- c.Run(ctx, tn.Recover) }()
	recovery := tn.Recover // pessimistic: full window = never recovered
	for time.Since(healStart) < tn.Recover {
		if minLiveHeight(c) >= healTarget {
			recovery = time.Since(healStart)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec := <-resCh
	rep.RecoveredTput = rec.Throughput
	rep.Txns += rec.Txns
	rep.RecoverySeconds = recovery.Seconds()
	if recovery >= tn.Recover {
		rep.violate("liveness did not recover within %v of healing (heights %v, want %d)", tn.Recover, liveHeights(c), healTarget)
	}
	if rec.Txns == 0 {
		rep.violate("no acknowledged transactions after healing")
	}

	// Let in-flight execution drain and delayed deliveries land, then
	// check safety: every live replica agrees on the chain, and every
	// non-restarted one agrees on sampled record state. Together with the
	// liveness check above this is the no-lost-acked-write invariant: an
	// acknowledged write is committed on a quorum, so it is in every
	// honest chain and applied to every settled store.
	fab.Drain()
	settled := settleHeights(c, settleWait)
	if err := c.VerifyLedgers(c.Live); err != nil {
		rep.violate("ledger divergence: %v", err)
	}
	if settled {
		for _, v := range compareStores(c, tn.Records, restarted) {
			rep.Violations = append(rep.Violations, v)
		}
	} else {
		rep.violate("ledger heights did not converge within %v (heights %v)", settleWait, liveHeights(c))
	}

	// Collect counters and check the scenario's expectations.
	var maxView uint64
	for i := 0; i < 4; i++ {
		if !c.Live(i) {
			continue
		}
		s := c.Replica(i).Stats()
		if uint64(s.View) > maxView {
			maxView = uint64(s.View)
		}
		if i != sc.Target {
			rep.Evidence += s.Evidence
		}
		rep.DecodeFailures += s.DecodeFailures
	}
	rep.FinalView = maxView
	rep.Injected = fab.Stats()
	if sc.Expect.ViewChange && rep.FinalView == 0 {
		rep.violate("expected a view change, still in view 0")
	}
	if sc.Expect.SameView && rep.FinalView != 0 {
		rep.violate("expected no view change, finished in view %d", rep.FinalView)
	}
	if sc.Expect.Evidence && rep.Evidence == 0 {
		rep.violate("expected byzantine evidence, none recorded")
	}
	if sc.Expect.DecodeFailures && rep.DecodeFailures == 0 {
		rep.violate("expected decode failures, none recorded")
	}
	if sc.Expect.ForgedReads && rep.Injected.ForgedReads == 0 {
		rep.violate("expected forged read responses, fabric forged none")
	}
	if sc.Expect.Certifies {
		for i := 0; i < 4; i++ {
			if seq := c.Replica(i).Ledger().Certificate().Seq; c.Live(i) && seq <= certAtFault[i] {
				rep.violate("replica %d's newest certificate is at %d, where it was when the fault began", i, seq)
			}
		}
	}
	return rep, nil
}

func liveHeights(c *cluster.Cluster) []uint64 {
	out := make([]uint64, 0, 4)
	for i := 0; i < 4; i++ {
		if !c.Live(i) {
			continue
		}
		out = append(out, c.Replica(i).Ledger().Height())
	}
	return out
}

func maxLiveHeight(c *cluster.Cluster) uint64 {
	var h uint64
	for i := 0; i < 4; i++ {
		if !c.Live(i) {
			continue
		}
		if got := c.Replica(i).Ledger().Height(); got > h {
			h = got
		}
	}
	return h
}

func minLiveHeight(c *cluster.Cluster) uint64 {
	h := ^uint64(0)
	for i := 0; i < 4; i++ {
		if !c.Live(i) {
			continue
		}
		if got := c.Replica(i).Ledger().Height(); got < h {
			h = got
		}
	}
	return h
}

// settleHeights waits for every live replica to reach the same stable
// ledger height: load has stopped, so once the pipelines drain the
// heights stop moving. Equal heights mean equal execution prefixes,
// which is what licenses the store comparison below.
func settleHeights(c *cluster.Cluster, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		lo, hi := minLiveHeight(c), maxLiveHeight(c)
		if lo == hi {
			time.Sleep(25 * time.Millisecond)
			if minLiveHeight(c) == hi && maxLiveHeight(c) == hi {
				return true
			}
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// compareStores samples the record table across live, non-restarted
// replicas and reports every divergent key. Restarted replicas are
// exempt: their store resumes from its own durable state and may trail
// the bootstrap head until state transfer lands (see Cluster.Restart).
func compareStores(c *cluster.Cluster, records uint64, restarted map[int]bool) []string {
	ref := -1
	var out []string
	stride := records/64 + 1
	for i := 0; i < 4; i++ {
		if !c.Live(i) || restarted[i] {
			continue
		}
		if ref < 0 {
			ref = i
			continue
		}
		for key := uint64(0); key < records; key += stride {
			want, errW := c.Store(ref).Get(key)
			got, errG := c.Store(i).Get(key)
			if (errW == nil) != (errG == nil) || !bytes.Equal(want, got) {
				out = append(out, fmt.Sprintf("store divergence at key %d: replica %d vs %d", key, ref, i))
				break
			}
		}
	}
	return out
}
