//go:build race

package facts

// raceEnabled reports whether the race detector is compiled in; the
// allocation-budget pin skips under it because instrumentation inflates
// AllocsPerRun counts.
const raceEnabled = true
