package main

import (
	"fmt"
	"io"
	"time"

	"weakestfd/internal/explore"
	"weakestfd/internal/sim"
)

// The traced sweep measures each layer from outside, through the explorer's
// public seams: a decorating explore.System whose Instantiate wraps every
// sim.StepMachine and hooks Instance.Finish, wrapped explore.Property
// values, and Config.OnConfig. At Workers: 1 every call arrives in program
// order on one goroutine, so the tracer charges the time between two
// consecutive boundary events to the layer that was running in between.
// The layers partition the sweep's wall time exactly, so their self times
// add up to it.

// layer is one row of the "where the time goes" table.
type layer int

const (
	lSetup       layer = iota // system construction and EnumerateJobs
	lInstantiate              // System.Instantiate of search runs
	lSim                      // execute minus Instantiate of search runs: runner, AccessLog, QuerySeam, machines
	lSearch                   // config self time: source-DPOR, flip anchoring, state-hash joins, lab dispatch
	lCheck                    // property checks of search runs
	lViolation                // shrink replays and their checks, witness re-execution, classify, artifact
	lLab                      // after the last configuration: lab pool shutdown, result assembly
	numLayers
)

var layerNames = [numLayers]struct{ key, label string }{
	{"setup", "sweep set-up (NewSystem, EnumerateJobs)"},
	{"instantiate", "internal/explore set-up (System.Instantiate)"},
	{"sim", "internal/sim (runner, AccessLog, QuerySeam, machines)"},
	{"search", "internal/explore search (DPOR, flips, joins)"},
	{"check", "internal/explore property check"},
	{"violation", "internal/explore violation path (shrink, classify, artifact)"},
	{"lab", "internal/lab (pool shutdown, result assembly)"},
}

// mode is what the sweep is doing between two boundary events.
type mode int

const (
	mSearch mode = iota // search bookkeeping
	mFailed             // just after a failing search check: a shrink follows only if the violation is new
	mShrink             // inside the shrinker, between its replays
	mPost               // after the witness re-execution: classify and build the artifact
)

// execKind tells the three kinds of execute apart at their Finish. Search
// runs record accesses, shrink replays do not, and the witness
// re-execution is the recorded execute that ends a shrink.
type execKind int

const (
	kSearch execKind = iota
	kShrink
	kWitness
)

// tracer accumulates the layer partition and the per-layer counts of one
// or more traced sweeps.
type tracer struct {
	last time.Time
	mode mode

	// The execute in flight.
	gap     time.Duration // time before its Instantiate
	gapMode mode
	inst    time.Duration
	steps   int64 // Step calls counted by the machine wrappers

	self   [numLayers]time.Duration
	wall   time.Duration
	sweeps int

	instantiates, searchRuns, shrinkReplays, witnesses int64
	stepsAll, stepsSearch, stepMismatches              int64
	instNS, execNS                                     time.Duration // execNS: execute minus Instantiate, every execute
	checkCalls, checkFailures                          int64
	checkNS                                            time.Duration
	sweepSteps                                         []int64 // stepsAll at each sweep's end
}

func (t *tracer) tick() time.Duration {
	now := time.Now()
	d := now.Sub(t.last)
	t.last = now
	return d
}

// gapLayer is the layer a gap in mode m is charged to, given that the
// next event resolved a failing check into a new violation (shrinking) or
// not.
func gapLayer(m mode, shrinking bool) layer {
	switch m {
	case mShrink, mPost:
		return lViolation
	case mFailed:
		if shrinking {
			return lViolation
		}
	}
	return lSearch
}

func (t *tracer) sweepBegin(start time.Time) {
	t.last = start
	t.mode = mSearch
}

func (t *tracer) setupDone() { t.self[lSetup] += t.tick() }

func (t *tracer) instantiateBegin() {
	t.gap, t.gapMode = t.tick(), t.mode
	t.steps = 0
}

func (t *tracer) instantiateEnd() { t.inst = t.tick() }

func (t *tracer) finish(r *explore.Run) {
	run := t.tick()
	kind := kSearch
	switch {
	case r.Report == nil || r.Report.Accesses == nil:
		kind = kShrink
	case t.gapMode == mShrink:
		kind = kWitness
	}
	t.instantiates++
	t.instNS += t.inst
	t.execNS += run
	t.stepsAll += t.steps
	if r.Report != nil && r.Report.Steps != t.steps {
		t.stepMismatches++
	}
	t.self[gapLayer(t.gapMode, kind != kSearch)] += t.gap
	switch kind {
	case kSearch:
		t.searchRuns++
		t.stepsSearch += t.steps
		t.self[lInstantiate] += t.inst
		t.self[lSim] += run
		t.mode = mSearch
	case kShrink:
		t.shrinkReplays++
		t.self[lViolation] += t.inst + run
		t.mode = mShrink
	case kWitness:
		t.witnesses++
		t.self[lViolation] += t.inst + run
		t.mode = mPost
	}
}

// checkBegin reports whether the check is a search check (not a shrink
// candidate's).
func (t *tracer) checkBegin() bool {
	t.self[gapLayer(t.mode, false)] += t.tick()
	return t.mode != mShrink
}

func (t *tracer) checkEnd(search, failed bool) {
	d := t.tick()
	if !search {
		t.self[lViolation] += d
		return
	}
	t.checkCalls++
	t.checkNS += d
	t.self[lCheck] += d
	t.mode = mSearch
	if failed {
		t.checkFailures++
		t.mode = mFailed
	}
}

func (t *tracer) onConfig() {
	t.self[gapLayer(t.mode, false)] += t.tick()
	t.mode = mSearch
}

func (t *tracer) sweepEnd(start time.Time) {
	t.self[lLab] += t.tick()
	t.wall += t.last.Sub(start)
	t.sweeps++
	t.sweepSteps = append(t.sweepSteps, t.stepsAll)
}

// stepsOfSweep returns the steps the i-th traced sweep simulated.
func (t *tracer) stepsOfSweep(i int) int64 {
	if i == 0 {
		return t.sweepSteps[0]
	}
	return t.sweepSteps[i] - t.sweepSteps[i-1]
}

// writeTable prints the "where the time goes" table: each layer's self
// time per sweep and its share of the sweep's wall time.
func (t *tracer) writeTable(w io.Writer, name string) {
	n := float64(t.sweeps)
	wallMS := float64(t.wall.Microseconds()) / 1000 / n
	fmt.Fprintf(w, "where the time goes: %s (traced, mean of %d sweeps)\n", name, t.sweeps)
	fmt.Fprintf(w, "  %-62s %10s %7s\n", "layer", "self ms", "share")
	var total float64
	for l := layer(0); l < numLayers; l++ {
		ms := float64(t.self[l].Microseconds()) / 1000 / n
		total += ms
		fmt.Fprintf(w, "  %-62s %10.1f %6.1f%%\n", layerNames[l].label, ms, 100*ratio(ms, wallMS))
	}
	fmt.Fprintf(w, "  %-62s %10.1f %6.1f%%  (sweep wall %.1f ms)\n", "sum of self times", total, 100*ratio(total, wallMS), wallMS)
}

// tracedSystem decorates a System so every run reports to the tracer.
type tracedSystem struct {
	explore.System
	t     *tracer
	props []explore.Property
}

func newTracedSystem(sys explore.System, t *tracer) *tracedSystem {
	inner := sys.Properties()
	props := make([]explore.Property, len(inner))
	for i, p := range inner {
		props[i] = tracedProperty{Property: p, t: t}
	}
	return &tracedSystem{System: sys, t: t, props: props}
}

func (s *tracedSystem) Properties() []explore.Property { return s.props }

func (s *tracedSystem) Instantiate(pattern sim.Pattern, o explore.OracleChoice) explore.Instance {
	t := s.t
	t.instantiateBegin()
	inst := s.System.Instantiate(pattern, o)
	for i, m := range inst.Machines {
		inst.Machines[i] = &countingMachine{m: m, steps: &t.steps}
	}
	inner := inst.Finish
	inst.Finish = func(r *explore.Run) {
		if inner != nil {
			inner(r)
		}
		t.finish(r)
	}
	t.instantiateEnd()
	return inst
}

// tracedProperty times one property's checks.
type tracedProperty struct {
	explore.Property
	t *tracer
}

func (p tracedProperty) Check(r *explore.Run) error {
	search := p.t.checkBegin()
	err := p.Property.Check(r)
	p.t.checkEnd(search, err != nil)
	return err
}

// countingMachine counts the steps of the machine it wraps. It is
// machine-world code (fdlint's determinism scope), so it only counts; all
// timing happens at the Instantiate, Finish and Check boundaries.
type countingMachine struct {
	m     sim.StepMachine
	steps *int64
}

func (c *countingMachine) Init(ctx sim.MachineContext) { c.m.Init(ctx) }

func (c *countingMachine) Step(t sim.Time) sim.MachineStatus {
	*c.steps++
	return c.m.Step(t)
}

func (c *countingMachine) Decision() sim.Value { return c.m.Decision() }
