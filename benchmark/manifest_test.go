package main

import (
	"regexp"
	"testing"
)

// TestManifestMatchesBinary is the guard against a BENCHMARK.json the
// driver refuses: every name the binary can emit is in the manifest and
// vice versa, and the file stays inside the contract's limits.
func TestManifestMatchesBinary(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf(`paths = %v, want exactly ["benchmark"]`, man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", man.RunSeconds)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameOK.MatchString(n) {
			t.Errorf("name %q has a character outside letters, digits, _ . - or is too long", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	listed := 0
	for _, sp := range specs {
		if !sp.optIn {
			listed++
		}
	}
	if len(man.Workloads) != listed {
		t.Errorf("manifest has %d workloads, binary has %d that are not opt-in", len(man.Workloads), listed)
	}
	for _, w := range man.Workloads {
		name(w.Name)
		sp := findSpec(w.Name)
		if sp == nil || sp.optIn {
			t.Errorf("workload %q is in BENCHMARK.json but not in the binary's default set", w.Name)
			continue
		}
		if w.Why != sp.why {
			t.Errorf("workload %q: manifest and binary give different reasons", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		byName := map[string]manifestMetric{}
		for _, m := range got {
			name(m.Name)
			byName[m.Name] = m
			if !unitOK.MatchString(m.Unit) {
				t.Errorf("%s metric %q: unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s metric %q: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s metric %q needs a bound in (0, 0.25]", kind, m.Name)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s metric %q must not carry a bound", kind, m.Name)
			}
		}
		for _, d := range want {
			m, ok := byName[d.name]
			if !ok {
				t.Errorf("%s metric %q is emitted by the binary but missing from BENCHMARK.json", kind, d.name)
				continue
			}
			if m.Unit != d.unit {
				t.Errorf("%s metric %q: unit %q in the manifest, %q in the binary", kind, d.name, m.Unit, d.unit)
			}
			delete(byName, d.name)
		}
		for n := range byName {
			t.Errorf("%s metric %q is in BENCHMARK.json but the binary never emits it", kind, n)
		}
	}
	check("end-to-end", man.EndToEnd, endToEnd, true)
	check("per-layer", man.PerLayer, perLayer, false)

	var setup *manifestMetric
	for i := range man.EndToEnd {
		if man.EndToEnd[i].Name == "setup_s" {
			setup = &man.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf(`end_to_end needs setup_s with unit "s" and better "lower"`)
	}
}
