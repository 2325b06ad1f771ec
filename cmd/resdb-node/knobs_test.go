package main

import (
	"flag"
	"reflect"
	"testing"

	"resilientdb/cmd/internal/deploy"
	"resilientdb/internal/replica"
	"resilientdb/internal/store"
)

var update = flag.Bool("update", false, "rewrite resdb-node's knob table in docs/ARCHITECTURE.md")

// TestKnobReference holds resdb-node's table in docs/ARCHITECTURE.md to
// the flags themselves: a flag without a row, a row without a flag, and a
// stale default or usage string all fail.
func TestKnobReference(t *testing.T) {
	fs := flag.NewFlagSet("resdb-node", flag.ContinueOnError)
	register(fs)
	if err := deploy.CheckKnobTable("../../docs/ARCHITECTURE.md", "resdb-node", fs, *update); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsLeaveConfigDefaults: an empty command line leaves every field
// the flags bind at its zero value, so replica.Config and
// store.BackendConfig alone decide the defaults.
func TestFlagsLeaveConfigDefaults(t *testing.T) {
	fs := flag.NewFlagSet("resdb-node", flag.ContinueOnError)
	f := register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.rep, replica.Config{}) {
		t.Errorf("flags set replica.Config %+v, want the zero config", f.rep)
	}
	if !reflect.DeepEqual(f.store, store.BackendConfig{}) {
		t.Errorf("flags set store.BackendConfig %+v, want the zero config", f.store)
	}
}
