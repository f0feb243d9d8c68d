//go:build !race

package explore

// raceEnabled reports a race-detector build, whose instrumentation changes
// allocation counts.
const raceEnabled = false
