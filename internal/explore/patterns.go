package explore

import (
	"fmt"
	"strings"

	"weakestfd/internal/sim"
)

// patternLabel renders a pattern unambiguously, including crash times —
// sim.Pattern.String() shows only the faulty set, which would conflate the
// grid points the sweep deliberately distinguishes (e.g. crash at 0 vs 3).
// Used for scenario names, violation reports and the dedup key.
func patternLabel(p sim.Pattern) string {
	faulty := p.Faulty()
	if faulty.IsEmpty() {
		return fmt.Sprintf("failure-free(n=%d)", p.N())
	}
	var b strings.Builder
	b.WriteString("crash{")
	for i, pid := range faulty.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%v@%d", pid, p.CrashAt(pid))
	}
	fmt.Fprintf(&b, "}(n=%d)", p.N())
	return b.String()
}

// patternsFor enumerates the failure patterns of E_f over n processes:
// every crash set of size ≤ maxF (clamped to n−1) with every assignment of
// crash times from the grid ({0} when empty).
func patternsFor(n, maxF int, grid []sim.Time) []sim.Pattern {
	if maxF > n-1 {
		maxF = n - 1 // at least one process stays correct
	}
	if len(grid) == 0 {
		grid = []sim.Time{0}
	}
	var out []sim.Pattern
	// assign enumerates every time tuple for one faulty set.
	var assign func(faulty []sim.PID, times []sim.Time)
	assign = func(faulty []sim.PID, times []sim.Time) {
		if len(times) == len(faulty) {
			crashes := make(map[sim.PID]sim.Time, len(faulty))
			for i, p := range faulty {
				crashes[p] = times[i]
			}
			out = append(out, sim.CrashPattern(n, crashes))
			return
		}
		for _, t := range grid {
			assign(faulty, append(times, t))
		}
	}
	full := sim.FullSet(n)
	for bits := sim.Set(0); bits <= full; bits++ {
		if bits.Len() <= maxF {
			faulty := bits.Members()
			assign(faulty, make([]sim.Time, 0, len(faulty)))
		}
	}
	return out
}
