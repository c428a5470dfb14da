//go:build !race

package facts

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
