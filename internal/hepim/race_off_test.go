//go:build !race

package hepim

// raceEnabled reports whether the race detector is active; allocation
// counts skip under it, which adds its own allocations to goroutine
// starts and synchronisation.
const raceEnabled = false
