//go:build race

package ilp

// raceEnabled reports whether the race detector is compiled in; allocation
// guards skip under it because instrumentation changes allocation counts.
const raceEnabled = true
