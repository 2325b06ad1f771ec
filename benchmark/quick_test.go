package main

import "testing"

// TestQuickSuite drives -quick end to end: both workloads untraced and
// traced, in this process, with the correctness check on. It covers the TCP
// and in-process builders, the driver, the wrappers, the crash path and
// every probe; the numbers themselves are too short to mean anything.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and loads four clusters; about 20s")
	}
	names := []string{"write-mem-tcp", "backup-crash"}
	suite, err := runSuite(names, 13, 2, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res := suite.find(name, trace)
			if res == nil {
				t.Fatalf("%s trace %d: no result", name, trace)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %d: metric %s missing or with unit %q", name, trace, d.name, m.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.name, m.Value)
				}
			}
		}
	}
	crash := suite.find("backup-crash", 1).Metrics
	if crash["fault.failover_gap_ms"].Value <= 0 || crash["replica.view_changes"].Value != 0 {
		t.Errorf("backup-crash: longest gap %v ms, %v view changes; want a measured gap and no view change",
			crash["fault.failover_gap_ms"].Value, crash["replica.view_changes"].Value)
	}
	steady := suite.find("write-mem-tcp", 1).Metrics
	if steady["fault.failover_gap_ms"].Value != 0 || steady["replica.view_changes"].Value != 0 {
		t.Errorf("write-mem-tcp reports a fault it did not have")
	}
	if steady["pbft.steps_per_batch"].Value != crash["pbft.steps_per_batch"].Value {
		t.Errorf("pbft.steps_per_batch is an exact count and differs between two runs: %v vs %v",
			steady["pbft.steps_per_batch"].Value, crash["pbft.steps_per_batch"].Value)
	}
}
