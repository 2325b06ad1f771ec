//go:build !race

package pbft

const raceEnabled = false
