package types

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled
