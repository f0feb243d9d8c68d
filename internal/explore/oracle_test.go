package explore

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"weakestfd/internal/sim"
)

// The brute-force oracle: an unreduced enumerator of the plain interleaving
// semantics of asynchronous shared memory, where an execution is any
// sequence of atomic steps. It assumes nothing about commutativity, so on
// instances small enough to enumerate outright it is the ground truth the
// reducing engines are checked against.

// bruteForce executes, for every (pattern × oracle) configuration of cfg,
// every schedule whose first depth grants are free choices among the enabled
// processes and whose remainder is the round-robin tail, and hands each
// completed run to visit. It is a stateless DFS: each run replays its prefix
// through execute, and every enabled alternative at each free step past the
// forced prefix becomes a child. It returns the number of runs.
func bruteForce(cfg Config, depth int, visit func(*Run)) int64 {
	cfg = cfg.withDefaults()
	var runs int64
	for _, jb := range enumerateJobs(cfg) {
		var dfs func(prefix []sim.PID)
		dfs = func(prefix []sim.PID) {
			var enabled []sim.Set
			var granted []sim.PID
			sched := sim.NewFixedSchedule(prefix)
			sched.OnGrant = func(_ int, _ sim.Time, en sim.Set, p sim.PID) {
				enabled = append(enabled, en)
				granted = append(granted, p)
			}
			run := execute(cfg.System, jb.Pattern, jb.Oracle, sched, cfg.Budget, nil, nil)
			if sched.Diverged() {
				panic(fmt.Sprintf("oracle: prefix %v diverged on %s (non-deterministic system?)", prefix, jb.Label()))
			}
			run.Schedule = granted
			runs++
			visit(run)
			for i := len(prefix); i < depth && i < len(granted); i++ {
				for _, q := range enabled[i].Members() {
					if q != granted[i] {
						dfs(append(granted[:i:i], q))
					}
				}
			}
		}
		dfs(nil)
	}
	return runs
}

// outcome renders a run's terminal state: its configuration, each process's
// decision, the halted and crashed sets, and the total step count. Per-process
// step counts are left out: a run cut short by the budget splits them in a
// way commuting independent steps changes.
func outcome(r *Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s", patternLabel(r.Pattern), r.Oracle.Name)
	for p := range r.Report.StepsBy {
		if v, ok := r.Report.Decided[sim.PID(p)]; ok {
			fmt.Fprintf(&b, " %v=%d", sim.PID(p), v)
		}
	}
	fmt.Fprintf(&b, " halted%v crashed%v steps=%d", r.Report.Halted, r.Report.Crashed, r.Report.Steps)
	return b.String()
}

// outcomes is a set of run keys.
type outcomes map[string]bool

// minus returns the sorted keys of s missing from o.
func (s outcomes) minus(o outcomes) []string {
	var out []string
	for k := range s {
		if !o[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// oracleOutcomes collects key over every run bruteForce enumerates.
func oracleOutcomes(cfg Config, depth int, key func(*Run) string) (outcomes, int64) {
	set := make(outcomes)
	runs := bruteForce(cfg, depth, func(r *Run) { set[key(r)] = true })
	return set, runs
}

// recorder is a property that never fails: it adds the key of every run an
// engine checks to a set. Engines check every run they execute except
// state-hash joins, which the first visitor's check covers.
type recorder struct {
	set outcomes
	key func(*Run) string
}

func (recorder) Name() string { return "outcome-recorder" }

func (p recorder) Check(r *Run) error {
	p.set[p.key(r)] = true
	return nil
}

// recordedSystem adds a recorder to a system's properties.
type recordedSystem struct {
	System
	rec recorder
}

func (s recordedSystem) Properties() []Property {
	return append(append([]Property(nil), s.System.Properties()...), s.rec)
}

// engineOutcome is one engine variant's sweep and the keys of its checked
// runs.
type engineOutcome struct {
	name string
	res  *Result
	set  outcomes
}

// engineOutcomes explores cfg under classic, source and source+hash and
// collects key over each variant's checked runs. No violation cap stops the
// search early, and one worker keeps the recorder's set single-threaded.
func engineOutcomes(cfg Config, key func(*Run) string) []engineOutcome {
	variants := []struct {
		name   string
		engine Engine
		noHash bool
	}{
		{"classic", EngineDPOR, false},
		{"source", EngineSource, true},
		{"source+hash", EngineSource, false},
	}
	var out []engineOutcome
	for _, v := range variants {
		c := cfg
		c.Engine, c.NoHash = v.engine, v.noHash
		set := make(outcomes)
		c.System = recordedSystem{System: cfg.System, rec: recorder{set: set, key: key}}
		c.MaxViolations = 1 << 20
		c.ShrinkBudget = 1
		c.Workers = 1
		out = append(out, engineOutcome{name: v.name, res: Explore(c), set: set})
	}
	return out
}

// TestOracleFullDepth: at full depth (MaxDepth = Budget) every engine
// variant reaches exactly the oracle's set of terminal outcomes. Equality
// does not hold at a bounded depth, where the engines' forced prefixes may
// run past the horizon the oracle branches to.
func TestOracleFullDepth(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		runs     int64 // oracle runs; 0 leaves the count unpinned
		outcomes int
		long     bool
	}{
		{name: "toy-shared", cfg: Config{
			System: toySystem{name: "toy-shared", props: []Property{propSomeoneDecides2{}}},
		}, runs: 6, outcomes: 3},
		{name: "toy-disjoint", cfg: Config{
			System: toySystem{name: "toy-disjoint", disjoint: true, props: []Property{propAlwaysHolds{}}},
		}, runs: 6, outcomes: 1},
		{name: "fig1-broken-adopt", cfg: Config{
			System: BrokenFig1System(2), CrashTimes: []sim.Time{0}, Budget: 14,
		}, runs: 18_540, outcomes: 18, long: true},
		{name: "fig1-flips", cfg: Config{
			System: Fig1System(2), SwitchBudget: 1, FlipTimes: []sim.Time{2, 6},
			CrashTimes: []sim.Time{0}, Budget: 14,
		}, runs: 92_700, outcomes: 90, long: true},
		{name: "fig1-skip-on-change", cfg: Config{
			System: SkipOnChangeFig1System(2), SwitchBudget: 1, FlipTimes: []sim.Time{3, 7},
			CrashTimes: []sim.Time{0}, Budget: 16,
		}, runs: 358_780, outcomes: 90, long: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("full-depth oracle over a real protocol skipped under -short (race lane); the full lane runs it")
			}
			budget := tc.cfg.withDefaults().Budget
			want, runs := oracleOutcomes(tc.cfg, int(budget), outcome)
			if tc.runs > 0 && runs != tc.runs {
				t.Errorf("oracle executed %d runs, want %d", runs, tc.runs)
			}
			if len(want) != tc.outcomes {
				t.Errorf("oracle reached %d outcomes, want %d", len(want), tc.outcomes)
			}
			for _, e := range engineOutcomes(tc.cfg, outcome) {
				if missed := want.minus(e.set); len(missed) > 0 {
					t.Errorf("%s missed %d of the oracle's %d outcomes:\n%s", e.name, len(missed), len(want), strings.Join(missed, "\n"))
				}
				if extra := e.set.minus(want); len(extra) > 0 {
					t.Errorf("%s reached %d outcomes the oracle did not:\n%s", e.name, len(extra), strings.Join(extra, "\n"))
				}
				t.Logf("%s: %d runs", e.name, e.res.Runs)
			}
			t.Logf("oracle: %d runs, %d outcomes", runs, len(want))
		})
	}
}

// crashKey renders a run's configuration and decisions, then each faulty
// process's step count before its crash after a " faulty" marker.
func crashKey(r *Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s", patternLabel(r.Pattern), r.Oracle.Name)
	for p := range r.Report.StepsBy {
		if v, ok := r.Report.Decided[sim.PID(p)]; ok {
			fmt.Fprintf(&b, " %v=%d", sim.PID(p), v)
		}
	}
	b.WriteString(" faulty")
	for _, p := range r.Pattern.Faulty().Members() {
		fmt.Fprintf(&b, " %v:%d", p, r.Report.StepsBy[p])
	}
	return b.String()
}

// TestOracleCrashTimeGap pins a known coverage gap of classic, source and
// source+hash; it does not fix it. A crash disables its process at an
// absolute time, and no access records that, so race analysis never learns
// that scheduling the crashing process earlier lets it complete one more
// step before the crash: with p crashing at t=3, the runs where p takes
// both steps 1 and 2 are never tried. On fig1 and fig2 at n=2 the oracle
// reaches 16 outcomes and every engine 12; the 4 missed are exactly those
// where the crashing process completes 2 steps, and the decisions reached
// are the same. When the gap is closed, this test fails and should become
// an equality check.
func TestOracleCrashTimeGap(t *testing.T) {
	const depth = 10
	decisions := func(set outcomes) []string {
		seen := make(map[string]bool)
		for k := range set {
			seen[k[:strings.Index(k, " faulty")]] = true
		}
		var out []string
		for k := range seen {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	for _, sys := range []System{Fig1System(2), Fig2System(2, 1)} {
		cfg := Config{System: sys, CrashTimes: []sim.Time{3}, MaxDepth: depth, Budget: 2048}
		want, _ := oracleOutcomes(cfg, depth, crashKey)
		var twoSteps []string
		for k := range want {
			if strings.HasSuffix(k, ":2") {
				twoSteps = append(twoSteps, k)
			}
		}
		sort.Strings(twoSteps)
		if len(want) != 16 || len(twoSteps) != 4 {
			t.Errorf("%s: oracle reached %d outcomes, %d with a two-step crash; want 16 and 4", sys.Name(), len(want), len(twoSteps))
		}
		for _, e := range engineOutcomes(cfg, crashKey) {
			if extra := e.set.minus(want); len(extra) > 0 {
				t.Errorf("%s %s: reached outcomes the oracle did not:\n%s", sys.Name(), e.name, strings.Join(extra, "\n"))
			}
			if missed := want.minus(e.set); strings.Join(missed, "\n") != strings.Join(twoSteps, "\n") {
				t.Errorf("%s %s: missed\n%s\nwant exactly the two-step crashes\n%s",
					sys.Name(), e.name, strings.Join(missed, "\n"), strings.Join(twoSteps, "\n"))
			}
			if eng, ora := decisions(e.set), decisions(want); strings.Join(eng, "\n") != strings.Join(ora, "\n") {
				t.Errorf("%s %s: decision sets differ:\n%s\nvs oracle\n%s", sys.Name(), e.name, strings.Join(eng, "\n"), strings.Join(ora, "\n"))
			}
		}
	}
}

// TestOracleBoundedLens: every standard-suite config is violation-free
// under the oracle at branch depth 6, and the extraction's sanity property
// is exercised on settled runs. This is the reference for upsilon-sanity,
// whose verdict can differ between schedules the engines treat as
// equivalent (see dpor.go).
func TestOracleBoundedLens(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep of the standard suite skipped under -short (race lane); the full lane runs it")
	}
	const depth = 6
	for _, cfg := range DefaultSweep() {
		sys := cfg.System
		props := sys.Properties()
		var settled int64
		var violations []string
		runs := bruteForce(cfg, depth, func(r *Run) {
			if r.OutputsSettled {
				settled++
			}
			for _, p := range props {
				if err := p.Check(r); err != nil && len(violations) < 4 {
					violations = append(violations, fmt.Sprintf("%s/%s %s: %v", patternLabel(r.Pattern), r.Oracle.Name, p.Name(), err))
				}
			}
		})
		for _, v := range violations {
			t.Errorf("%s n=%d: %s", sys.Name(), sys.N(), v)
		}
		if sys.Name() == "extract-omega" && settled == 0 {
			t.Errorf("extract-omega: no oracle run settled; the sanity property was never exercised")
		}
		t.Logf("%s n=%d: %d runs, %d settled", sys.Name(), sys.N(), runs, settled)
	}
}
