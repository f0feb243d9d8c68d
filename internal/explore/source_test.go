package explore

import (
	"sort"
	"strings"
	"testing"

	"weakestfd/internal/sim"
)

// Differential testing of the source-DPOR engine against the classic engine:
// identical verdicts, fewer executions. The brute-force oracle
// (oracle_test.go) is the unreduced reference both are checked against.
// CI's explore-smoke matrix runs these explicitly.

// violationKeys returns the sorted (pattern, oracle, property) triples of a
// result's violations.
func violationKeys(r *Result) []string {
	var out []string
	for _, v := range r.Violations {
		out = append(out, violationKey(v))
	}
	sort.Strings(out)
	return out
}

// TestSourceVsClassicDifferential compares the three reduction variants —
// classic DPOR, pure source-DPOR (NoHash), and source-DPOR with state-hash
// joins (the default) — on the toy ground truth, the full standard suite,
// and three zoo mutants.
func TestSourceVsClassicDifferential(t *testing.T) {
	if testing.Short() {
		// The engine-equivalence sweep is the slowest test in the package
		// and exercises no concurrency the other lanes miss; the race lane
		// runs with -short and relies on the full lane for equivalence.
		t.Skip("engine differential sweep skipped under -short")
	}
	t.Run("toy-optimal", func(t *testing.T) {
		// The 2×(read;write) shared-counter space has 6 raw interleavings in
		// 4 Mazurkiewicz classes. Classic DPOR is sound but not optimal here
		// (sleep sets cull siblings only after paying a run); the source
		// engine must execute exactly one run per class.
		res := Explore(Config{
			System: toySystem{name: "toy-shared", props: []Property{propSomeoneDecides2{}}},
		})
		if res.Runs != 4 {
			t.Errorf("source engine executed %d runs on the lost-update toy, want exactly its 4 trace classes", res.Runs)
		}
		if len(res.Violations) == 0 {
			t.Error("source engine missed the lost-update violation")
		}
	})

	t.Run("clean-suite", func(t *testing.T) {
		var classicRuns, classicPruned, sourceRuns, hashRuns, joined int64
		for _, cfg := range DefaultSweep() {
			cfg.Engine = EngineDPOR
			c := Explore(cfg)
			cfg.Engine = EngineSource
			cfg.NoHash = true
			s := Explore(cfg)
			cfg.NoHash = false
			h := Explore(cfg)
			for _, r := range []*Result{c, s, h} {
				if len(r.Violations) != 0 {
					t.Errorf("%s: engine %s found violations on the real protocol: %v", r.System, r.Engine, r.Violations)
				}
				if r.Truncated {
					t.Errorf("%s: engine %s truncated — exhaustiveness claim void", r.System, r.Engine)
				}
			}
			if c.Configs != s.Configs || c.Configs != h.Configs {
				t.Errorf("%s: engines explored different config counts: %d vs %d vs %d",
					c.System, c.Configs, s.Configs, h.Configs)
			}
			if s.Runs > c.Runs {
				t.Errorf("%s: source executed %d runs, more than classic's %d", c.System, s.Runs, c.Runs)
			}
			if h.Runs > c.Runs {
				t.Errorf("%s: source+hash executed %d runs, more than classic's %d", c.System, h.Runs, c.Runs)
			}
			if c.System == "extract-omega" {
				// Settledness is the one non-trace-invariant margin (see
				// dpor.go); guard against a silent collapse under any
				// engine variant.
				if c.SettledRuns == 0 || s.SettledRuns == 0 || h.SettledRuns == 0 {
					t.Errorf("extract-omega: settled runs classic=%d source=%d source+hash=%d; the sanity property was never exercised",
						c.SettledRuns, s.SettledRuns, h.SettledRuns)
				}
			}
			classicRuns += c.Runs
			classicPruned += c.Pruned
			sourceRuns += s.Runs
			hashRuns += h.Runs
			joined += h.Joined
			t.Logf("%s: classic %d runs vs source %d (%d pruned) vs source+hash %d (%d joined)",
				c.System, c.Runs, s.Runs, s.Pruned, h.Runs, h.Joined)
		}
		if sourceRuns >= classicRuns {
			t.Errorf("source executed %d runs across the suite, not fewer than classic's %d", sourceRuns, classicRuns)
		}
		if joined == 0 {
			t.Error("state hashing joined nothing across the whole suite; the join layer is dead")
		}
		if classicPruned == 0 {
			t.Error("classic sleep sets pruned nothing across the whole suite")
		}
		t.Logf("suite totals: classic %d vs source %d vs source+hash %d (%d joined)",
			classicRuns, sourceRuns, hashRuns, joined)
	})

	t.Run("budget1", func(t *testing.T) {
		// Switch-budget-1 sweeps of the clean protocol: the regime the
		// flip-anchored wakeup sequences (wakeup.go) were built for. All
		// three engines must agree the protocol is clean, and the source
		// engine must beat classic *strictly* — before flip anchoring it
		// degraded to single-initial insertion here and the margin collapsed.
		for _, n := range []int{2, 3} {
			cfg := Config{
				System:       Fig1System(n),
				SwitchBudget: 1,
				CrashTimes:   []sim.Time{0},
				MaxDepth:     12,
				Budget:       2048,
			}
			cfg.Engine = EngineDPOR
			c := Explore(cfg)
			cfg.Engine = EngineSource
			cfg.NoHash = true
			s := Explore(cfg)
			cfg.NoHash = false
			h := Explore(cfg)
			for _, r := range []*Result{c, s, h} {
				if len(r.Violations) != 0 {
					t.Errorf("n=%d: engine %s found violations on the clean protocol: %v", n, r.Engine, r.Violations)
				}
				if r.Truncated {
					t.Errorf("n=%d: engine %s truncated", n, r.Engine)
				}
			}
			if c.Configs != s.Configs || c.Configs != h.Configs {
				t.Errorf("n=%d: engines explored different config counts: %d vs %d vs %d", n, c.Configs, s.Configs, h.Configs)
			}
			if s.Runs >= c.Runs {
				t.Errorf("n=%d: source executed %d runs, not strictly fewer than classic's %d", n, s.Runs, c.Runs)
			}
			if h.Runs >= c.Runs {
				t.Errorf("n=%d: source+hash executed %d runs, not strictly fewer than classic's %d", n, h.Runs, c.Runs)
			}
			// A sound join key never changes the search, only who executes
			// each tail: the hash variant must visit exactly the pure-source
			// schedules. (The pre-PR-10 key conflated runs whose forced
			// prefixes extended past the horizon and merged real schedules.)
			if h.Runs != s.Runs {
				t.Errorf("n=%d: source+hash executed %d runs vs pure source's %d; the join key is altering the search", n, h.Runs, s.Runs)
			}
			t.Logf("n=%d switch-budget 1: classic %d runs vs source %d (%d pruned) vs source+hash %d (%d joined)",
				n, c.Runs, s.Runs, s.Pruned, h.Runs, h.Joined)
		}
	})

	t.Run("mutants", func(t *testing.T) {
		// Three zoo mutants covering the engine's regimes: a pure scheduling
		// race (full wakeup sequences), a flip-schedule kill (flip-anchored
		// wakeup sequences under an unstable history), and a flips-plus-joins
		// extraction kill (MaxDepth 1 < Budget keeps the hash layer active on
		// a violating sweep — joins must not eat violations).
		cases := []struct {
			name string
			cfg  Config
			want int // exact violating-config count; 0 means at least one
		}{
			{"fig1-broken-adopt", Config{
				System:        BrokenFig1System(2),
				MaxDepth:      24,
				Budget:        2048,
				MaxViolations: 1 << 20,
				Workers:       1,
			}, 0},
			{"fig1-skip-on-change", Config{
				System:       SkipOnChangeFig1System(2),
				SwitchBudget: 1,
				FlipTimes:    []sim.Time{14},
				CrashTimes:   []sim.Time{0},
				MaxDepth:     31,
				Budget:       2048,
				// The mutant has exactly two violating configurations on
				// this grid, one per stable set; capping there keeps the
				// three full-depth sweeps CI-affordable (uncapped, the clean
				// flip-variant configs cost millions of runs and add no
				// violation).
				MaxViolations: 2,
				Workers:       1,
			}, 2},
			{"extract-stale-leader", Config{
				System:        mustSystem("extract-stale-leader", 2, 1),
				SwitchBudget:  1,
				FlipTimes:     []sim.Time{2},
				CrashTimes:    []sim.Time{0},
				MaxDepth:      1,
				MaxRuns:       16,
				Budget:        768,
				MaxViolations: 1 << 20,
				Workers:       1,
			}, 0},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.Engine = EngineDPOR
				c := Explore(cfg)
				cfg.Engine = EngineSource
				cfg.NoHash = true
				s := Explore(cfg)
				cfg.NoHash = false
				h := Explore(cfg)
				ck, sk, hk := violationKeys(c), violationKeys(s), violationKeys(h)
				if strings.Join(ck, "\n") != strings.Join(sk, "\n") {
					t.Fatalf("violation sets differ:\nclassic (%d):\n%s\nsource (%d):\n%s",
						len(ck), strings.Join(ck, "\n"), len(sk), strings.Join(sk, "\n"))
				}
				if strings.Join(ck, "\n") != strings.Join(hk, "\n") {
					t.Fatalf("violation sets differ:\nclassic (%d):\n%s\nsource+hash (%d):\n%s",
						len(ck), strings.Join(ck, "\n"), len(hk), strings.Join(hk, "\n"))
				}
				if len(ck) == 0 {
					t.Fatal("no engine killed the mutant")
				}
				if tc.want > 0 && len(ck) != tc.want {
					t.Fatalf("found %d violating configs, want %d:\n%s", len(ck), tc.want, strings.Join(ck, "\n"))
				}
				t.Logf("identical %d violating configs; classic %d runs vs source %d vs source+hash %d (%d joined)",
					len(ck), c.Runs, s.Runs, h.Runs, h.Joined)
			})
		}
	})
}

// mustSystem resolves a registered system or fails the build of the test
// fixture loudly.
func mustSystem(name string, n, f int) System {
	sys, err := NewSystem(name, n, f)
	if err != nil {
		panic(err)
	}
	return sys
}
