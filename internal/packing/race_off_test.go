//go:build !race

package packing

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
