//go:build !race

package exact

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
