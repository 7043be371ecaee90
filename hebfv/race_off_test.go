//go:build !race

package hebfv

// raceEnabled reports whether the race detector is active; the
// byte-growth assertions skip under it (sync.Pool intentionally drops
// items to widen race coverage, so pooled paths allocate). The
// bench-regression CI job runs them without -race.
const raceEnabled = false
