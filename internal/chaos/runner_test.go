package chaos

import (
	"testing"
	"time"
)

// testTuning shrinks the windows so the whole matrix stays fast on the
// small in-process cluster; view-change scenarios still get enough fault
// time for client retransmission plus the watchdog to fire.
func testTuning() Tuning {
	return Tuning{
		Warmup:  300 * time.Millisecond,
		Fault:   1200 * time.Millisecond,
		Recover: time.Second,
		Records: 512,
		Clients: 3,
		Seed:    11,
	}
}

func scenarioByName(t *testing.T, name string) Scenario {
	t.Helper()
	for _, sc := range DefaultMatrix() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("no scenario named %q in the default matrix", name)
	return Scenario{}
}

func runScenario(t *testing.T, sc Scenario) *Report {
	t.Helper()
	rep, err := RunScenario(sc, testTuning())
	if err != nil {
		t.Fatalf("scenario %s: harness error: %v", sc.Name, err)
	}
	t.Logf("%s: baseline=%.0f fault=%.0f recovered=%.0f txn/s, recovery=%.2fs, view=%d, evidence=%d, injected=%+v",
		rep.Scenario, rep.BaselineTput, rep.FaultTput, rep.RecoveredTput,
		rep.RecoverySeconds, rep.FinalView, rep.Evidence, rep.Injected)
	for _, v := range rep.Violations {
		t.Errorf("%s: invariant violated: %s", sc.Name, v)
	}
	if rep.BaselineTput <= 0 {
		t.Errorf("%s: no baseline throughput", sc.Name)
	}
	if rep.RecoverySeconds <= 0 {
		t.Errorf("%s: no recovery time recorded", sc.Name)
	}
	return rep
}

// TestViewChangeUnderSilentPrimary covers the PBFT view change under a
// primary that is alive but sends no PrePrepares: the watchdog must rotate
// the view and liveness must come back, with ledgers equal across replicas
// afterwards.
func TestViewChangeUnderSilentPrimary(t *testing.T) {
	rep := runScenario(t, scenarioByName(t, "silent-primary"))
	if rep.FinalView == 0 {
		t.Error("silent primary never forced a view change")
	}
	if rep.Injected.MutedPP == 0 {
		t.Error("fabric muted no PrePrepares")
	}
}

// TestViewChangeUnderEquivocatingPrimary covers the same view change under
// a split-equivocating primary: no digest reaches a quorum, the instance
// stalls, and the view change recovers it.
func TestViewChangeUnderEquivocatingPrimary(t *testing.T) {
	rep := runScenario(t, scenarioByName(t, "equivocation-split"))
	if rep.FinalView == 0 {
		t.Error("equivocating primary never forced a view change")
	}
	if rep.Injected.Equivocations == 0 {
		t.Error("fabric injected no equivocations")
	}
}

// TestEquivocationDetected covers the detected-equivocation path: both
// variants reach every backup, consensus proceeds on the first arrival,
// and the conflicting second arrival lands in the evidence counter with
// no view change.
func TestEquivocationDetected(t *testing.T) {
	rep := runScenario(t, scenarioByName(t, "equivocation-detected"))
	if rep.Evidence == 0 {
		t.Error("no backup recorded equivocation evidence")
	}
}

// TestScenarioMatrix runs the rest of the default matrix; in -short mode
// it runs only the reduced smoke matrix (minus the scenarios the
// dedicated tests above already cover).
func TestScenarioMatrix(t *testing.T) {
	covered := map[string]bool{
		"silent-primary":        true,
		"equivocation-split":    true,
		"equivocation-detected": true,
	}
	matrix := DefaultMatrix()
	if testing.Short() {
		matrix = SmokeMatrix()
	}
	classes := map[string]bool{}
	for _, sc := range DefaultMatrix() {
		classes[sc.Class] = true
	}
	if len(classes) < 6 {
		t.Fatalf("default matrix covers %d fault classes, want >= 6", len(classes))
	}
	for _, sc := range matrix {
		if covered[sc.Name] {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			runScenario(t, sc)
		})
	}
}
