package explore

import (
	"testing"

	"weakestfd/internal/sim"
)

// TestSourceSearchAllocBound pins the source engine's steady-state run loop
// as allocation-free: one configuration's search recycles its grant record,
// schedule, Run, Report, query seam, join-cache slabs and stack storage
// across its runs, so what a run still allocates comes from the protocol
// instance itself (converge value sets, boxed register fingerprints, the
// run's Υ history, the Machines slice Instantiate returns). Measured on one
// stable and one switch-budget-1 fig1 n=3 configuration, a run used to
// allocate about 64 objects and now about 15; the bound sits between, with
// room for allocator differences across Go releases, and fails as soon as a
// few allocations per run come back.
func TestSourceSearchAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const perRunBound = 20
	free := sim.FailFree(3)
	for _, tc := range []struct {
		name  string
		plan  SwitchPlan
		match func(OracleChoice) bool
	}{
		{"stable", SwitchPlan{}, func(o OracleChoice) bool {
			return o.Stable == sim.SetOf(0, 1)
		}},
		{"flip", SwitchPlan{Budget: 1, Times: []sim.Time{2, 14}}, func(o OracleChoice) bool {
			return o.Stable == sim.SetOf(0, 1) && len(o.Flips) == 1 &&
				o.Flips[0].Until == 14 && o.Flips[0].Out == sim.SetOf(1, 2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{System: Fig1System(3), MaxDepth: 12, SwitchBudget: tc.plan.Budget, FlipTimes: tc.plan.Times}.withDefaults()
			var oracle OracleChoice
			found := false
			for _, o := range cfg.System.Oracles(free, tc.plan) {
				if tc.match(o) {
					oracle, found = o, true
					break
				}
			}
			if !found {
				t.Fatal("configuration not enumerated")
			}
			e := &explorer{cfg: cfg, seen: make(map[string]bool)}
			var s *srcSearch
			allocs := testing.AllocsPerRun(2, func() {
				s = e.sourceConfig(free, oracle)
			})
			if s.runs < 1000 || s.joined == 0 {
				t.Fatalf("%s: %d runs, %d joined: the configuration no longer exercises a long search with joins", oracle.Name, s.runs, s.joined)
			}
			perRun := allocs / float64(s.runs)
			t.Logf("%s: %d runs (%d joined), %.0f allocations, %.2f per run", oracle.Name, s.runs, s.joined, allocs, perRun)
			if perRun > perRunBound {
				t.Errorf("%s: %.2f allocations per run, want <= %d", oracle.Name, perRun, perRunBound)
			}
		})
	}
}
