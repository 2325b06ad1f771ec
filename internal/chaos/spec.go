package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"resilientdb/internal/types"
)

// Spec is the parsed form of the -chaos command-line flag: an ambient
// link fault applied to every wrapped endpoint, an optional Byzantine
// behavior pinned to one replica, and the fabric seed.
type Spec struct {
	Fault     LinkFault
	Byz       Behavior
	ByzTarget int
	Seed      int64
}

// ParseSpec parses the compact comma-separated spec syntax shared by
// resdb-node and resdb-bench:
//
//	drop=0.05,delay=2ms,reorder=5ms,dup=0.02,corrupt=0.005,byz=mute@0,seed=7
//
// Probabilities are in [0, 1]; delay and reorder take Go durations. byz
// pins a behavior (mute, equivocate-split, equivocate-both, forge-reads)
// to the replica after the @. An empty spec parses to the zero Spec.
func ParseSpec(spec string) (Spec, error) {
	var sp Spec
	if strings.TrimSpace(spec) == "" {
		return sp, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return sp, fmt.Errorf("chaos spec: %q is not key=value", part)
		}
		var err error
		switch key {
		case "drop":
			sp.Fault.Drop, err = parseProb(val)
		case "dup":
			sp.Fault.Duplicate, err = parseProb(val)
		case "corrupt":
			sp.Fault.Corrupt, err = parseProb(val)
		case "delay":
			sp.Fault.Delay, err = time.ParseDuration(val)
		case "reorder":
			sp.Fault.Reorder, err = time.ParseDuration(val)
		case "seed":
			sp.Seed, err = strconv.ParseInt(val, 10, 64)
		case "byz":
			mode, target, ok := strings.Cut(val, "@")
			if !ok {
				return sp, fmt.Errorf("chaos spec: byz wants mode@replica, got %q", val)
			}
			sp.Byz, err = parseBehavior(mode)
			if err == nil {
				sp.ByzTarget, err = strconv.Atoi(target)
			}
		default:
			return sp, fmt.Errorf("chaos spec: unknown key %q", key)
		}
		if err != nil {
			return sp, fmt.Errorf("chaos spec: %s: %w", key, err)
		}
	}
	return sp, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}

func parseBehavior(mode string) (Behavior, error) {
	switch mode {
	case "mute":
		return ByzMutePrimary, nil
	case "equivocate-split", "equivocate":
		return ByzEquivocateSplit, nil
	case "equivocate-both":
		return ByzEquivocateBoth, nil
	case "forge-reads":
		return ByzForgeReads, nil
	case "wrong-checkpoint-key":
		return ByzWrongCheckpointKey, nil
	default:
		return ByzNone, fmt.Errorf("unknown behavior %q (want mute|equivocate-split|equivocate-both|forge-reads|wrong-checkpoint-key)", mode)
	}
}

// Fabric builds a fabric preconfigured with the spec: the ambient fault
// as the default link rule and the pinned Byzantine behavior, if any.
func (sp Spec) Fabric() *Fabric {
	f := NewFabric(sp.Seed)
	sp.Apply(f)
	return f
}

// Apply layers the spec onto an existing fabric.
func (sp Spec) Apply(f *Fabric) {
	if !sp.Fault.zero() {
		f.SetDefault(sp.Fault)
	}
	if sp.Byz != ByzNone {
		f.SetByzantine(types.ReplicaID(sp.ByzTarget), sp.Byz)
	}
}
