//go:build !race

package ilp

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
