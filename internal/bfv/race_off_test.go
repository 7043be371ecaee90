//go:build !race

package bfv

// raceEnabled reports whether the race detector is active; allocation
// counts skip under it (sync.Pool intentionally drops items to widen race
// coverage, so pooled paths allocate). The bench-regression CI job runs
// them without -race.
const raceEnabled = false
