//go:build race

package core_test

// raceEnabled reports whether the race detector is compiled in; allocation
// guards skip under it because instrumentation changes allocation counts.
const raceEnabled = true
