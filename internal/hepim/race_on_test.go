//go:build race

package hepim

const raceEnabled = true
