//go:build race

package pbft

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool randomly drops Puts and allocation counts of
// pooled paths become nondeterministic.
const raceEnabled = true
