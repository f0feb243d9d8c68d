package explore

import (
	"testing"

	"weakestfd/internal/sim"
)

// TestPatternLabelForms pins the dedup-key format of patternLabel: the
// explorer keys its per-configuration caps on these strings, so two
// different configurations must never collide.
func TestPatternLabelForms(t *testing.T) {
	cases := []struct {
		p    sim.Pattern
		want string
	}{
		{sim.FailFree(3), "failure-free(n=3)"},
		{sim.CrashPattern(2, map[sim.PID]sim.Time{0: 0}), "crash{p1@0}(n=2)"},
		{sim.CrashPattern(2, map[sim.PID]sim.Time{0: 3}), "crash{p1@3}(n=2)"},
		{sim.CrashPattern(3, map[sim.PID]sim.Time{0: 0, 2: 3}), "crash{p1@0,p3@3}(n=3)"},
	}
	for _, c := range cases {
		if got := patternLabel(c.p); got != c.want {
			t.Errorf("patternLabel = %q, want %q", got, c.want)
		}
	}
	// Crash-at-0 and crash-at-3 are distinct configurations: the time is
	// part of the key, not just the faulty set.
	a := patternLabel(sim.CrashPattern(2, map[sim.PID]sim.Time{0: 0}))
	b := patternLabel(sim.CrashPattern(2, map[sim.PID]sim.Time{0: 3}))
	if a == b {
		t.Fatalf("crash-time ignored in dedup key: %q", a)
	}
}

// TestPatternsForEnumeration covers the grid pinning and the dedup keys of
// patternsFor.
func TestPatternsForEnumeration(t *testing.T) {
	// An empty grid is pinned to {0}: failure-free plus one crash-at-0 per
	// process.
	pats := patternsFor(2, 1, nil)
	if len(pats) != 3 {
		t.Fatalf("patternsFor(2,1,nil) = %d patterns, want 3", len(pats))
	}
	labels := make(map[string]bool)
	for _, p := range pats {
		labels[patternLabel(p)] = true
	}
	for _, want := range []string{"failure-free(n=2)", "crash{p1@0}(n=2)", "crash{p2@0}(n=2)"} {
		if !labels[want] {
			t.Errorf("missing pattern %s in %v", want, labels)
		}
	}

	// n=3, maxF=2, grid {0,3}: 1 failure-free + 3·2 singles + 3·4 pairs =
	// 19, all with distinct dedup keys.
	all := patternsFor(3, 2, []sim.Time{0, 3})
	if len(all) != 19 {
		t.Fatalf("enumeration = %d patterns, want 19", len(all))
	}
	seen := make(map[string]bool)
	for _, p := range all {
		l := patternLabel(p)
		if seen[l] {
			t.Errorf("duplicate pattern key %s", l)
		}
		seen[l] = true
	}

	// maxF is clamped to n-1: at least one process stays correct.
	for _, p := range patternsFor(2, 5, []sim.Time{0}) {
		if p.Faulty().Len() > 1 {
			t.Errorf("pattern %s crashes everyone", patternLabel(p))
		}
	}
}
