//go:build race

package bfv

const raceEnabled = true
