package explore

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"testing"

	"weakestfd/internal/sim"
)

// The protocol systems recycle a released run's shared memory and machines
// instead of building them again (pooledInstance). These tests pin that a
// recycled run is indistinguishable from a freshly built one, that an
// unreleased instance is never handed out twice, and that the pool is safe
// under the lab's concurrent workers.

// recycledSystems are the systems that recycle their runs, with the (n, f)
// each test instantiates them at: both protocols and a mutant of each, so
// the mutation hooks are covered too.
var recycledSystems = []struct {
	name string
	n, f int
}{
	{"fig1", 3, 2},
	{"fig2", 3, 1},
	{"fig1-broken-adopt", 3, 2},
	{"fig2-skip-on-change", 3, 1},
}

// recycleStep is one run of the fixed sequence pushed through a system.
type recycleStep struct {
	pattern sim.Pattern
	oracle  OracleChoice
	seed    int64    // 0: round-robin; otherwise a seeded random schedule
	horizon sim.Time // > 0: stop after this many steps, as a state-hash join does
}

func (st recycleStep) schedule() sim.Schedule {
	if st.seed == 0 {
		return sim.RoundRobin()
	}
	return sim.NewRandom(st.seed)
}

// recycleSequence builds the sequence for sys: stable histories failure-free
// and with a crash at t=3, a switch-budget-1 flip history under each
// pattern, and a run stopped at a join horizon followed by a full run.
func recycleSequence(t *testing.T, sys System) []recycleStep {
	t.Helper()
	n := sys.N()
	free := sim.FailFree(n)
	crash := sim.CrashPattern(n, map[sim.PID]sim.Time{0: 3})
	flipPlan := SwitchPlan{Budget: 1, Times: []sim.Time{2, 14}}
	stable := func(p sim.Pattern, last bool) OracleChoice {
		os := sys.Oracles(p, SwitchPlan{})
		if last {
			return os[len(os)-1]
		}
		return os[0]
	}
	flipped := func(p sim.Pattern) OracleChoice {
		for _, o := range sys.Oracles(p, flipPlan) {
			if len(o.Flips) == 1 && o.Flips[0].Until == 14 {
				return o
			}
		}
		t.Fatalf("%s: no switch-budget-1 history flipping at t=14", sys.Name())
		return OracleChoice{}
	}
	return []recycleStep{
		{pattern: free, oracle: stable(free, false)},
		{pattern: crash, oracle: stable(crash, true), seed: 1},
		{pattern: free, oracle: flipped(free), seed: 2},
		{pattern: free, oracle: stable(free, true), seed: 3, horizon: 7},
		{pattern: crash, oracle: flipped(crash), seed: 4},
		{pattern: free, oracle: stable(free, false), seed: 5},
	}
}

// recordedRun is everything a run exposes to the explorer: its Report, its
// per-step access sets and the state digest after every step.
type recordedRun struct {
	report  sim.Report
	err     string
	steps   []string
	digests []uint64
}

// recordSequence executes seq with one access log reset between runs, as
// one configuration's search does. recycled runs the whole sequence through
// one system value and one runSlot, so machines, Run, Report and query seam
// are all reused; otherwise every run gets a new system and a one-shot
// execute.
func recordSequence(seq []recycleStep, sys System, recycled bool) []recordedRun {
	log := sim.NewAccessLog()
	log.EnableDigest()
	slot := newRunSlot(sys, 4096, log, nil)
	out := make([]recordedRun, len(seq))
	for i, st := range seq {
		rec := &out[i]
		log.Reset()
		stop := func(t sim.Time, _ *sim.QuerySeam) bool {
			rec.digests = append(rec.digests, log.StateDigest())
			return st.horizon > 0 && t >= st.horizon
		}
		var run *Run
		if recycled {
			slot.stop = stop
			run = slot.execute(st.pattern, st.oracle, st.schedule())
		} else {
			fresh, _ := NewSystem(sys.Name(), sys.N(), sys.MaxFaults())
			run = execute(fresh, st.pattern, st.oracle, st.schedule(), 4096, log, stop)
		}
		// The recycled Report's maps are cleared by the next run: keep
		// copies.
		rec.report = *run.Report
		rec.report.Decided = maps.Clone(run.Report.Decided)
		rec.report.DecidedAt = maps.Clone(run.Report.DecidedAt)
		rec.report.StepsBy = slices.Clone(run.Report.StepsBy)
		rec.report.Accesses = nil
		if run.Err != nil {
			rec.err = run.Err.Error()
		}
		for s := 0; s < log.Steps(); s++ {
			p, as := log.Step(s)
			rec.steps = append(rec.steps, p.String()+" "+log.AccessString(as))
		}
	}
	return out
}

// machineSpy counts the instances whose machines an earlier instance
// already handed out, i.e. the recycled ones.
type machineSpy struct {
	System
	seen     map[sim.StepMachine]bool
	recycled int
}

func (s *machineSpy) Instantiate(p sim.Pattern, o OracleChoice) Instance {
	inst := s.System.Instantiate(p, o)
	if s.seen[inst.Machines[0]] {
		s.recycled++
	}
	for _, m := range inst.Machines {
		s.seen[m] = true
	}
	return inst
}

// TestRecycledRunsEqualFresh pushes one fixed sequence of (pattern, oracle,
// schedule) runs through a single system value and run slot, so its runs
// and their Run, Report and query seam recycle, and through a new system
// per run, so every run is built fresh. Reports, per-step access sets and
// per-step state digests must be equal run by run.
func TestRecycledRunsEqualFresh(t *testing.T) {
	recycled := 0
	for _, rs := range recycledSystems {
		sys, err := NewSystem(rs.name, rs.n, rs.f)
		if err != nil {
			t.Fatal(err)
		}
		seq := recycleSequence(t, sys)
		spy := &machineSpy{System: sys, seen: make(map[sim.StepMachine]bool)}
		got := recordSequence(seq, spy, true)
		want := recordSequence(seq, sys, false)
		for i := range seq {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s run %d (%s/%s): recycled run differs from a fresh one\nrecycled: %+v\nfresh:    %+v",
					rs.name, i, patternLabel(seq[i].pattern), seq[i].oracle.Name, got[i], want[i])
			}
		}
		if want[3].report.Stopped != true || want[3].report.Steps != int64(seq[3].horizon) {
			t.Errorf("%s: run 3 should stop at the horizon %d, got %d steps (stopped=%v)",
				rs.name, seq[3].horizon, want[3].report.Steps, want[3].report.Stopped)
		}
		recycled += spy.recycled
	}
	// sync.Pool may drop any released run (the race detector drops a
	// quarter of them on purpose), so only the total is asserted: it proves
	// the comparison above covered recycled runs at all.
	if recycled == 0 {
		t.Error("no run was recycled: the sequence compared fresh runs only")
	}
}

// TestUnreleasedInstancesShareNothing asserts that instances not released
// in between never share a machine, and that every Instantiate returns a
// new Machines slice even when it recycles.
func TestUnreleasedInstancesShareNothing(t *testing.T) {
	for _, rs := range recycledSystems {
		sys, err := NewSystem(rs.name, rs.n, rs.f)
		if err != nil {
			t.Fatal(err)
		}
		p := sim.FailFree(rs.n)
		o := sys.Oracles(p, SwitchPlan{})[0]
		a := sys.Instantiate(p, o)
		b := sys.Instantiate(p, o)
		for _, ma := range a.Machines {
			for _, mb := range b.Machines {
				if ma == mb {
					t.Fatalf("%s: two unreleased instances share machine %p", rs.name, ma)
				}
			}
		}
		a.Release()
		c := sys.Instantiate(p, o)
		if &c.Machines[0] == &a.Machines[0] {
			t.Errorf("%s: Instantiate returned a released instance's Machines slice", rs.name)
		}
		for _, mb := range b.Machines {
			for _, mc := range c.Machines {
				if mb == mc {
					t.Fatalf("%s: an unreleased instance's machine %p was handed out again", rs.name, mb)
				}
			}
		}
		b.Release()
		c.Release()
	}
}

// TestRecyclePoolWorkersAgree runs sweeps at one and at four workers on
// the same system value, so runs recycle across goroutines: every count and
// the violation keys must agree. The garbled-decide mutant violates in every
// configuration, so its violations are built from recycled search runs
// whose Schedule and Report the next run overwrites: their artifacts must
// be byte-identical across worker counts. CI also runs it repeatedly under
// the race detector.
func TestRecyclePoolWorkersAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fig1", Config{System: Fig1System(3), SwitchBudget: 1, MaxDepth: 6}},
		{"fig1-garbled-decide", Config{System: GarbledFig1System(3), MaxDepth: 6, MaxViolations: 1 << 20, ShrinkBudget: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 1
			one := Explore(cfg)
			cfg.Workers = 4
			four := Explore(cfg)
			keys := func(r *Result) []string {
				var out []string
				for _, v := range r.Violations {
					out = append(out, violationKey(v))
				}
				return out
			}
			type counts struct {
				Runs, Steps, Joined, Pruned, SettledRuns int64
				Violations                               []string
			}
			a := counts{one.Runs, one.Steps, one.Joined, one.Pruned, one.SettledRuns, keys(one)}
			b := counts{four.Runs, four.Steps, four.Joined, four.Pruned, four.SettledRuns, keys(four)}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("workers=1 and workers=4 disagree:\n 1: %+v\n 4: %+v", a, b)
			}
			if a.Runs == 0 {
				t.Fatal("the sweep executed no runs")
			}
			if cfg.System.Name() != "fig1-garbled-decide" {
				return
			}
			if len(one.Violations) != one.Configs {
				t.Fatalf("%d violations over %d configurations, want one each", len(one.Violations), one.Configs)
			}
			for i := range one.Violations {
				ja, err := json.Marshal(one.Violations[i])
				if err != nil {
					t.Fatal(err)
				}
				jb, err := json.Marshal(four.Violations[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ja, jb) {
					t.Errorf("violation %d differs across worker counts:\n 1: %s\n 4: %s", i, ja, jb)
				}
				v := one.Violations[i]
				if _, verr, err := v.Artifact.Replay(nil); err != nil || verr == nil || verr.Error() != v.Message {
					t.Errorf("violation %d (%s): artifact replay gave (%v, %v), want the recorded %q", i, violationKey(v), verr, err, v.Message)
				}
			}
		})
	}
}
