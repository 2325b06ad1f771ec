package main

import (
	"flag"
	"reflect"
	"testing"

	"resilientdb/cmd/internal/deploy"
	"resilientdb/internal/gateway"
)

var update = flag.Bool("update", false, "rewrite resdb-gateway's knob table in docs/ARCHITECTURE.md")

// TestKnobReference holds resdb-gateway's table in docs/ARCHITECTURE.md to
// the flags themselves.
func TestKnobReference(t *testing.T) {
	fs := flag.NewFlagSet("resdb-gateway", flag.ContinueOnError)
	register(fs)
	if err := deploy.CheckKnobTable("../../docs/ARCHITECTURE.md", "resdb-gateway", fs, *update); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsLeaveConfigDefaults: an empty command line leaves
// gateway.Config at its zero value, so gateway.Config alone decides the
// defaults.
func TestFlagsLeaveConfigDefaults(t *testing.T) {
	fs := flag.NewFlagSet("resdb-gateway", flag.ContinueOnError)
	f := register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.gw, gateway.Config{}) {
		t.Errorf("flags set gateway.Config %+v, want the zero config", f.gw)
	}
}
