package main

import (
	"flag"
	"reflect"
	"testing"

	"resilientdb/cmd/internal/deploy"
	"resilientdb/internal/workload"
)

var update = flag.Bool("update", false, "rewrite resdb-client's knob table in docs/ARCHITECTURE.md")

// TestKnobReference holds resdb-client's table in docs/ARCHITECTURE.md to
// the flags themselves.
func TestKnobReference(t *testing.T) {
	fs := flag.NewFlagSet("resdb-client", flag.ContinueOnError)
	register(fs)
	if err := deploy.CheckKnobTable("../../docs/ARCHITECTURE.md", "resdb-client", fs, *update); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsLeaveConfigDefaults: an empty command line leaves the workload
// at workload.Default(), so workload.Config alone decides the defaults.
func TestFlagsLeaveConfigDefaults(t *testing.T) {
	fs := flag.NewFlagSet("resdb-client", flag.ContinueOnError)
	f := register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.workload, workload.Default()) {
		t.Errorf("flags set workload.Config %+v, want workload.Default()", f.workload)
	}
}
