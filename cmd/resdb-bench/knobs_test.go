package main

import (
	"flag"
	"testing"

	"resilientdb/cmd/internal/deploy"
)

var update = flag.Bool("update", false, "rewrite resdb-bench's knob table in docs/ARCHITECTURE.md")

// TestKnobReference holds resdb-bench's table in docs/ARCHITECTURE.md to
// the flags themselves.
func TestKnobReference(t *testing.T) {
	fs := flag.NewFlagSet("resdb-bench", flag.ContinueOnError)
	register(fs)
	if err := deploy.CheckKnobTable("../../docs/ARCHITECTURE.md", "resdb-bench", fs, *update); err != nil {
		t.Fatal(err)
	}
}
