package explore

import (
	"fmt"
	"strings"
	"sync"

	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// OracleChoice identifies one failure detector history of a system's
// enumerated family: an optional bounded unstable prefix (Flips), then a
// stable value (a Υ/Υ^f set, or a singleton {leader} for Ω sources) output
// permanently. Without flips the history is stable from time 0 — the PR-4
// space. Seed feeds any remaining seeded choices a system makes.
type OracleChoice struct {
	// Name is the display form, e.g. "U={p1,p3}" or
	// "U={p1} pre[{p1,p2}<8]".
	Name string
	// Stable is the history's stable output as a process set.
	Stable sim.Set
	// Seed drives auxiliary seeded choices.
	Seed int64
	// Flips is the unstable prefix: the pre-stabilization phases, ordered by
	// strictly increasing Until (empty = stable from time 0). Each flip is
	// recorded by the query seam as a write of the history's virtual object.
	Flips []FlipPhase
	// base is the stable-from-0 display name the flip variant was built
	// from (set by withFlips), so the shrinker can recover the base choice
	// without parsing Name.
	base string
}

// NamedHistory is one detector history an instance's machines query,
// paired with the virtual-object name it is registered under in the run's
// query seam (and hence how its accesses render in traces).
type NamedHistory struct {
	Name string
	H    sim.Oracle
}

// Instance is one run's shared state, equal to freshly built state: the
// per-process machines plus the hooks the explorer wires into the
// simulation.
type Instance struct {
	// Machines are the per-process automata (one per PID). Single-task
	// systems set Machines; multi-task systems set Tasks instead.
	Machines []sim.StepMachine
	// Tasks are the per-process task sets of multi-task systems
	// (Composed/TimedComposed): the explorer drives them through
	// sim.RunTaskMachines, putting the extraction∘protocol pipeline of
	// Corollary 11 under the same exhaustive lens as the single-task
	// protocols. Exactly one of Machines and Tasks is non-nil.
	Tasks []sim.MachineTaskSet
	// Proposals are the input values (nil for extraction systems).
	Proposals []sim.Value
	// K is the agreement bound (0 when not applicable).
	K int
	// Observe, when non-nil, is called after every settled step (wired into
	// sim.Config.StopWhen); extraction systems use it to trace outputs.
	Observe func(t sim.Time)
	// Finish, when non-nil, runs after the simulation and may fill
	// system-specific Run fields (e.g. Outputs/OutputsSettled).
	Finish func(r *Run)
	// Histories are the detector histories the machines query, registered
	// with the run's query seam so every query is recorded as a read of the
	// history's virtual object and every flip as a write. Empty for systems
	// that consume no oracle (timed-composed) or whose detector is emulated
	// from shared state already under access tracking.
	Histories []NamedHistory
	// Release, when non-nil, hands the instance's state back to its system
	// for the next Instantiate; execute calls it once the run is finished
	// (after Finish). Nothing of the instance may be used after Release,
	// and an instance that is never released is never handed out again.
	Release func()
}

// System is one protocol (or reduction) under exploration. Every
// Instantiate call must return state equal to freshly built state, and no
// two unreleased instances may share memory: the explorer replays thousands
// of runs, and a run must not see anything of another. A system may
// recycle a released instance's objects (resetting them) instead of
// building new ones.
type System interface {
	// Name is the registry name ("fig1", "fig2", …).
	Name() string
	// N is the number of processes.
	N() int
	// MaxFaults is the resilience f of the system's environment E_f.
	MaxFaults() int
	// Oracles enumerates the detector histories to explore for one pattern:
	// every legal stable value, expanded by every flip schedule the switch
	// plan allows (a zero plan keeps the histories stable from time 0).
	Oracles(pattern sim.Pattern, plan SwitchPlan) []OracleChoice
	// LegalFlipOut validates one pre-stabilization phase output against the
	// system's detector *range* (which constrains every output, not just the
	// eventual one): Υ^f phases must be sets of size ≥ n+1−f, Ω phases
	// singletons. Artifact.Replay applies it to hand-edited flip schedules;
	// the enumeration (flipVariants over upsilonRange/omegaRange) only
	// produces outputs that pass. Systems without an oracle reject every
	// flip.
	LegalFlipOut(out sim.Set) error
	// Instantiate returns one run's machines and hooks, in a new Machines
	// slice on every call.
	Instantiate(pattern sim.Pattern, o OracleChoice) Instance
	// Properties are the claims checked on every completed run.
	Properties() []Property
}

// NewSystem builds a registered system by name — the registry `fdlab
// explore -system` and artifact replay resolve against. f is the resilience
// where the system has one (fig2); others ignore it.
func NewSystem(name string, n, f int) (System, error) {
	switch name {
	case "fig1":
		return Fig1System(n), nil
	case "fig1-broken-adopt":
		return BrokenFig1System(n), nil
	case "fig1-skip-on-change":
		return SkipOnChangeFig1System(n), nil
	case "fig1-garbled-decide":
		return GarbledFig1System(n), nil
	case "fig1-garbled-echo":
		return GarbledEchoFig1System(n), nil
	case "fig2":
		return Fig2System(n, f), nil
	case "fig2-broken-adopt":
		return BrokenAdoptFig2System(n, f), nil
	case "fig2-skip-on-change":
		return SkipOnChangeFig2System(n, f), nil
	case "fig2-starved-wait":
		return StarvedWaitFig2System(n, f), nil
	case "extract-omega":
		return ExtractOmegaSystem(n), nil
	case "extract-full-output":
		return FullOutputExtractSystem(n), nil
	case "extract-empty-output":
		return EmptyOutputExtractSystem(n), nil
	case "extract-stale-leader":
		return StaleLeaderExtractSystem(n), nil
	case "composed":
		return ComposedSystem(n), nil
	case "composed-broken-adopt":
		return BrokenAdoptComposedSystem(n), nil
	case "composed-garbled-echo":
		return GarbledEchoComposedSystem(n), nil
	case "composed-garbled-decide":
		return GarbledComposedSystem(n), nil
	case "timed-composed":
		return TimedComposedSystem(n), nil
	default:
		return nil, fmt.Errorf("explore: unknown system %q (want %s)", name, strings.Join(SystemNames(), "|"))
	}
}

// SystemNames lists the registry, for CLI help: the real systems first,
// then each protocol family's mutants (the zoo in mutants.go pairs every
// mutant with its expected killing configuration and failure pattern).
func SystemNames() []string {
	return []string{
		"fig1", "fig2", "extract-omega", "composed", "timed-composed",
		"fig1-broken-adopt", "fig1-skip-on-change", "fig1-garbled-decide",
		"fig1-garbled-echo",
		"fig2-broken-adopt", "fig2-skip-on-change", "fig2-starved-wait",
		"extract-full-output", "extract-empty-output", "extract-stale-leader",
		"composed-broken-adopt", "composed-garbled-echo", "composed-garbled-decide",
	}
}

// canonicalProposals returns the explorer's fixed inputs 100..100+n−1:
// distinct values, so agreement violations cannot hide behind colliding
// proposals.
func canonicalProposals(n int) []sim.Value {
	out := make([]sim.Value, n)
	for i := range out {
		out[i] = sim.Value(100 + i)
	}
	return out
}

// upsilonHistory builds the Υ^f history for one choice: the seeded
// stable-from-0 history when the choice has no flips (the PR-4 path,
// byte-identical behaviour), otherwise the flip-aware Unstable history the
// query seam records writes for.
func upsilonHistory(spec core.UpsilonSpec, pattern sim.Pattern, o OracleChoice) sim.Oracle {
	if len(o.Flips) == 0 {
		return spec.HistoryWithStable(pattern, 0, o.Seed, o.Stable)
	}
	if err := spec.LegalStable(pattern, o.Stable); err != nil {
		panic(fmt.Sprintf("explore: illegal Υ^f stable set: %v", err))
	}
	phases := make([]fd.Phase[sim.Set], len(o.Flips))
	for i, f := range o.Flips {
		phases[i] = fd.Phase[sim.Set]{Until: f.Until, Out: f.Out}
	}
	return fd.NewUnstable(o.Stable, phases...)
}

// omegaHistory builds the Ω source history for one choice: a constant
// correct leader without flips, otherwise the flip-aware history running
// through the choice's pre-stabilization leaders.
func omegaHistory(o OracleChoice) sim.Oracle {
	leader := o.Stable.Min()
	if len(o.Flips) == 0 {
		return &fd.Stabilizing[sim.PID]{Stable: leader}
	}
	phases := make([]fd.Phase[sim.PID], len(o.Flips))
	for i, f := range o.Flips {
		phases[i] = fd.Phase[sim.PID]{Until: f.Until, Out: f.Out.Min()}
	}
	return fd.NewUnstable(leader, phases...)
}

// omegaLeaderChoices enumerates every correct leader as an Ω source's stable
// output, in PID order (Members iterates ascending).
func omegaLeaderChoices(pattern sim.Pattern) []OracleChoice {
	var out []OracleChoice
	for _, leader := range pattern.Correct().Members() {
		out = append(out, OracleChoice{
			Name:   fmt.Sprintf("leader=%v", leader),
			Stable: sim.SetOf(leader),
		})
	}
	return out
}

// legalStableSets enumerates every legal Υ^f stable set for the pattern, in
// deterministic order: all subsets of Π of size ≥ n+1−f except correct(F).
func legalStableSets(spec core.UpsilonSpec, pattern sim.Pattern) []OracleChoice {
	var out []OracleChoice
	full := sim.FullSet(spec.N)
	for bits := sim.Set(1); bits <= full; bits++ {
		if spec.LegalStable(pattern, bits) != nil {
			continue
		}
		out = append(out, OracleChoice{Name: "U=" + bits.String(), Stable: bits})
	}
	return out
}

// pooledRun is one built run of a Υ-based protocol (Figure 1 or 2): its
// shared memory, the machines built on it and their fixed inputs. The
// protocol systems recycle these through a sync.Pool (see the package
// documentation).
type pooledRun struct {
	shared interface {
		Reset(upsilon sim.Oracle)
		K() int
	} // *core.Fig1 or *core.Fig2
	machines  []sim.StepMachine
	proposals []sim.Value
	histories [1]NamedHistory
	release   func()
}

// pooledInstance returns a run under history h: a released one from pool,
// reset to its initial state, or one that build makes when the pool is
// empty. The instance's Release puts the run back.
func pooledInstance(pool *sync.Pool, h sim.Oracle, build func() *pooledRun) Instance {
	r, _ := pool.Get().(*pooledRun)
	if r == nil {
		r = build()
		r.release = func() { pool.Put(r) }
	} else {
		r.shared.Reset(h)
	}
	r.histories[0] = NamedHistory{Name: "H(U)", H: h}
	return Instance{
		// A new slice on every call: callers may wrap the machines in place.
		Machines:  append([]sim.StepMachine(nil), r.machines...),
		Proposals: r.proposals,
		K:         r.shared.K(),
		Histories: r.histories[:],
		Release:   r.release,
	}
}

// ---------------------------------------------------------------------------
// Figure 1 (and its mutation-testing variant)

type fig1System struct {
	n    int
	mut  core.Fig1Mutation
	runs *sync.Pool // of *pooledRun
}

// Fig1System explores the paper's Figure 1: Υ-based n−1-set agreement among
// n processes, wait-free.
func Fig1System(n int) System { return fig1System{n: n, runs: new(sync.Pool)} }

// BrokenFig1System is Figure 1 with the converge adopt rule broken
// (core.MutWrongAdopt) — the intentionally wrong variant the mutation tests
// use to prove the explorer catches what seeded-random testing misses.
func BrokenFig1System(n int) System {
	return fig1System{n: n, mut: core.MutWrongAdopt, runs: new(sync.Pool)}
}

// SkipOnChangeFig1System is Figure 1 with the detector-change escape broken
// (core.MutSkipOnChange): provably correct under every stable-from-0
// history — the mutated branch is dead code there — but agreement-violating
// under an unstable prefix. It calibrates the SwitchBudget dimension: the
// sweep must pass at SwitchBudget=0 and find (and shrink) the violation at
// SwitchBudget>=1.
func SkipOnChangeFig1System(n int) System {
	return fig1System{n: n, mut: core.MutSkipOnChange, runs: new(sync.Pool)}
}

// GarbledFig1System is Figure 1 with the commit path corrupted
// (core.MutGarbledDecide): every deciding run writes an unproposed value,
// so the root fair run already violates Validity — the cheapest mutant in
// the zoo, pinning the validity property end to end.
func GarbledFig1System(n int) System {
	return fig1System{n: n, mut: core.MutGarbledDecide, runs: new(sync.Pool)}
}

// GarbledEchoFig1System is Figure 1 with the citizen echo corrupted
// (core.MutGarbledEcho): dead code under stable output Π, but any stable
// Υ output that excludes a live process turns that process into a citizen
// whose poisoned D[r] echo everyone leaving the round adopts — the oracle
// enumeration alone (no schedule branching) reaches the kill.
func GarbledEchoFig1System(n int) System {
	return fig1System{n: n, mut: core.MutGarbledEcho, runs: new(sync.Pool)}
}

func (s fig1System) Name() string {
	switch s.mut {
	case core.MutWrongAdopt:
		return "fig1-broken-adopt"
	case core.MutSkipOnChange:
		return "fig1-skip-on-change"
	case core.MutGarbledDecide:
		return "fig1-garbled-decide"
	case core.MutGarbledEcho:
		return "fig1-garbled-echo"
	}
	return "fig1"
}

func (s fig1System) N() int         { return s.n }
func (s fig1System) MaxFaults() int { return s.n - 1 }

func (s fig1System) Oracles(pattern sim.Pattern, plan SwitchPlan) []OracleChoice {
	spec := core.Upsilon(s.n)
	return flipVariants(legalStableSets(spec, pattern), upsilonRange(s.n, spec.MinSize()), plan)
}

func (s fig1System) LegalFlipOut(out sim.Set) error {
	return upsilonFlipOut(core.Upsilon(s.n), out)
}

func (s fig1System) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	h := upsilonHistory(core.Upsilon(s.n), pattern, o)
	return pooledInstance(s.runs, h, func() *pooledRun {
		g := core.NewFig1(s.n, h, converge.UseAtomic)
		proposals := canonicalProposals(s.n)
		machines := make([]sim.StepMachine, s.n)
		for i := range machines {
			machines[i] = g.MutantMachine(proposals[i], s.mut)
		}
		return &pooledRun{shared: g, machines: machines, proposals: proposals}
	})
}

func (s fig1System) Properties() []Property {
	return []Property{AtMostK{}, Validity{}, TerminationOfCorrect{}}
}

// ---------------------------------------------------------------------------
// Figure 2

type fig2System struct {
	n, f int
	mut  core.Fig2Mutation
	runs *sync.Pool // of *pooledRun
}

// Fig2System explores the paper's Figure 2: Υ^f-based f-set agreement among
// n processes in E_f.
func Fig2System(n, f int) System { return fig2System{n: n, f: f, runs: new(sync.Pool)} }

// BrokenAdoptFig2System is Figure 2 with the converge adopt rule broken
// (core.MutF2WrongAdopt): the top-level (f)-converge race yields two solo
// commits of different values, violating f-set Agreement — the same shape
// as fig1-broken-adopt, proving the explorer's reach extends to Figure 2.
func BrokenAdoptFig2System(n, f int) System {
	return fig2System{n: n, f: f, mut: core.MutF2WrongAdopt, runs: new(sync.Pool)}
}

// SkipOnChangeFig2System is Figure 2 with the detector-change escape
// broken (core.MutF2SkipOnChange): a gladiator observing a Υ^f change at a
// re-query skips two rounds with its current value instead of writing
// Stable[r] and adopting D[r]. Dead code under stable-from-0 histories —
// only a SwitchBudget sweep reaches it, mirroring fig1-skip-on-change.
func SkipOnChangeFig2System(n, f int) System {
	return fig2System{n: n, f: f, mut: core.MutF2SkipOnChange, runs: new(sync.Pool)}
}

// StarvedWaitFig2System is Figure 2 with the gladiator scan threshold
// raised to all n entries (core.MutF2StarvedWait): one crashed gladiator
// parks every correct one in the lines 17-19 wait loop forever — a
// termination failure whose witness crash is load-bearing.
func StarvedWaitFig2System(n, f int) System {
	return fig2System{n: n, f: f, mut: core.MutF2StarvedWait, runs: new(sync.Pool)}
}

func (s fig2System) Name() string {
	switch s.mut {
	case core.MutF2WrongAdopt:
		return "fig2-broken-adopt"
	case core.MutF2SkipOnChange:
		return "fig2-skip-on-change"
	case core.MutF2StarvedWait:
		return "fig2-starved-wait"
	}
	return "fig2"
}

func (s fig2System) N() int         { return s.n }
func (s fig2System) MaxFaults() int { return s.f }

func (s fig2System) Oracles(pattern sim.Pattern, plan SwitchPlan) []OracleChoice {
	spec := core.UpsilonF(s.n, s.f)
	return flipVariants(legalStableSets(spec, pattern), upsilonRange(s.n, spec.MinSize()), plan)
}

func (s fig2System) LegalFlipOut(out sim.Set) error {
	return upsilonFlipOut(core.UpsilonF(s.n, s.f), out)
}

func (s fig2System) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	h := upsilonHistory(core.UpsilonF(s.n, s.f), pattern, o)
	return pooledInstance(s.runs, h, func() *pooledRun {
		g := core.NewFig2(s.n, s.f, h, converge.UseAtomic)
		proposals := canonicalProposals(s.n)
		machines := make([]sim.StepMachine, s.n)
		for i := range machines {
			machines[i] = g.MutantMachine(proposals[i], s.mut)
		}
		return &pooledRun{shared: g, machines: machines, proposals: proposals}
	})
}

func (s fig2System) Properties() []Property {
	return []Property{AtMostK{}, Validity{}, TerminationOfCorrect{}}
}

// ---------------------------------------------------------------------------
// Figure 3 extraction from Ω

type extractSystem struct {
	n   int
	mut core.ExtractMutation
}

// ExtractOmegaSystem explores the Figure 3 reduction extracting Υ from a
// stable Ω source: the checked property is Υ-output sanity — whenever the
// emulated outputs settle within the run, the settled set must be a legal Υ
// value for the pattern (in particular, not the correct set).
func ExtractOmegaSystem(n int) System { return extractSystem{n: n} }

// FullOutputExtractSystem is the extraction writing Π instead of φ_D's set
// at the output switch (core.MutExFullOutput): under a failure-free pattern
// the outputs settle on Π = correct, the one value Υ may never settle on.
func FullOutputExtractSystem(n int) System {
	return extractSystem{n: n, mut: core.MutExFullOutput}
}

// EmptyOutputExtractSystem is the extraction writing ∅ at the output switch
// (core.MutExEmptyOutput): the settled output violates Υ's range in every
// pattern.
func EmptyOutputExtractSystem(n int) System {
	return extractSystem{n: n, mut: core.MutExEmptyOutput}
}

// StaleLeaderExtractSystem is the extraction that latches its first
// detector query forever (core.MutExStaleLeader): one pre-stabilization
// flip of the Ω source — outputting a crashed process until the first query
// — makes it settle on complement({crashed}) = correct. Both the flip and
// the crash are load-bearing, making this the SwitchBudget calibration
// mutant of the extraction family.
func StaleLeaderExtractSystem(n int) System {
	return extractSystem{n: n, mut: core.MutExStaleLeader}
}

func (s extractSystem) Name() string {
	switch s.mut {
	case core.MutExFullOutput:
		return "extract-full-output"
	case core.MutExEmptyOutput:
		return "extract-empty-output"
	case core.MutExStaleLeader:
		return "extract-stale-leader"
	}
	return "extract-omega"
}

func (s extractSystem) N() int         { return s.n }
func (s extractSystem) MaxFaults() int { return s.n - 1 }

func (s extractSystem) LegalFlipOut(out sim.Set) error { return omegaFlipOut(s.n, out) }

// Oracles enumerates every correct leader as the Ω source's stable output,
// in PID order (Members iterates ascending), expanded by the plan's flip
// schedules over arbitrary (possibly faulty) pre-stabilization leaders.
func (s extractSystem) Oracles(pattern sim.Pattern, plan SwitchPlan) []OracleChoice {
	return flipVariants(omegaLeaderChoices(pattern), omegaRange(s.n), plan)
}

func (s extractSystem) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	oracle := omegaHistory(o)
	ex := core.NewExtraction(s.n, oracle, core.PhiOmega(s.n))
	machines := make([]sim.StepMachine, s.n)
	for i := range machines {
		machines[i] = ex.MutantMachine(s.mut)
	}
	trace := check.NewOutputTrace[sim.Set](s.n, ex.Output)
	correct := pattern.Correct()
	return Instance{
		Machines:  machines,
		Histories: []NamedHistory{{Name: "H(Ω)", H: oracle}},
		Observe:   trace.Observe,
		Finish: func(r *Run) {
			r.Outputs = append([]sim.Set(nil), trace.Final()...)
			stable, from, err := trace.StableFrom(correct)
			if err != nil {
				return // outputs still disagree at the horizon: inconclusive
			}
			// Settled means the common output survived unchanged for a
			// meaningful fraction of the run — the bounded-run reading of
			// "eventually permanently output".
			window := r.Report.Steps / 4
			if window < 64 {
				window = 64
			}
			if int64(trace.Horizon()-from) >= window {
				r.OutputsSettled = true
				r.StableOutput = stable
			}
		},
	}
}

func (s extractSystem) Properties() []Property {
	return []Property{UpsilonSanity{Spec: core.Upsilon(s.n)}}
}

// ---------------------------------------------------------------------------
// Composed: Figure 3 extraction ∘ Figure 1 protocol (Corollary 11 pipeline)

type composedSystem struct {
	n   int
	mut core.Fig1Mutation
}

// ComposedSystem explores the Theorem 10 composition: each process runs the
// Figure 3 reduction against a stable Ω source as one task and the Figure 1
// protocol consuming the emulated Υ as a second, through
// sim.RunTaskMachines. Checked properties are the safety half — Agreement
// and Validity must hold under *every* schedule, even ones on which the
// emulated detector has not yet converged; termination is an eventual
// property of fair runs and is exercised by the lab experiments instead
// (a bounded adversarial run cannot refute it).
func ComposedSystem(n int) System { return composedSystem{n: n} }

// BrokenAdoptComposedSystem is the composition with the protocol task's
// converge adopt rule broken (core.MutWrongAdopt): the fig1 agreement race
// must stay reachable through the task interleaving, under the emulated
// detector.
func BrokenAdoptComposedSystem(n int) System {
	return composedSystem{n: n, mut: core.MutWrongAdopt}
}

// GarbledEchoComposedSystem is the composition with the protocol task's
// citizen echo corrupted (core.MutGarbledEcho). The emulated Υ settles on
// the complement of the Ω leader's singleton, so the leader itself is a
// live citizen of every later round: its poisoned D[r] echo is adopted by
// the gladiator and decided — a root-run Validity kill that exercises the
// one protocol branch only a proper-subset detector output can reach.
// (MutSkipOnChange is deliberately not composed: the emulated output only
// changes pre-settle, before any decision, so the armed skip renumbers
// rounds without breaking Agreement — see core.MutantMachineTaskSets.)
func GarbledEchoComposedSystem(n int) System {
	return composedSystem{n: n, mut: core.MutGarbledEcho}
}

// GarbledComposedSystem is the composition with the protocol task's commit
// path corrupted (core.MutGarbledDecide): the root fair run already decides
// an unproposed value.
func GarbledComposedSystem(n int) System {
	return composedSystem{n: n, mut: core.MutGarbledDecide}
}

func (s composedSystem) Name() string {
	switch s.mut {
	case core.MutWrongAdopt:
		return "composed-broken-adopt"
	case core.MutGarbledEcho:
		return "composed-garbled-echo"
	case core.MutGarbledDecide:
		return "composed-garbled-decide"
	}
	return "composed"
}

func (s composedSystem) N() int         { return s.n }
func (s composedSystem) MaxFaults() int { return s.n - 1 }

func (s composedSystem) LegalFlipOut(out sim.Set) error { return omegaFlipOut(s.n, out) }

// Oracles enumerates every correct leader as the underlying Ω source's
// stable output, as in ExtractOmegaSystem, with the plan's flip schedules.
func (s composedSystem) Oracles(pattern sim.Pattern, plan SwitchPlan) []OracleChoice {
	return flipVariants(omegaLeaderChoices(pattern), omegaRange(s.n), plan)
}

func (s composedSystem) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	oracle := omegaHistory(o)
	c := core.NewComposed(s.n, oracle, core.PhiOmega(s.n), converge.UseAtomic)
	proposals := canonicalProposals(s.n)
	return Instance{
		Tasks:     c.MutantMachineTaskSets(proposals, s.mut),
		Proposals: proposals,
		K:         c.K(),
		// Only the underlying Ω source is a seam history; the emulated Υ the
		// protocol task queries reads the process's own output variable —
		// process-local state, not an environment object.
		Histories: []NamedHistory{{Name: "H(Ω)", H: oracle}},
	}
}

func (s composedSystem) Properties() []Property {
	return []Property{AtMostK{}, Validity{}}
}

// ---------------------------------------------------------------------------
// TimedComposed: heartbeat-implemented Υ ∘ Figure 1 protocol

type timedComposedSystem struct {
	n int
}

// timedComposedThreshold is the heartbeat implementation's initial
// per-target patience: small, so suspicion dynamics are reachable within
// explorer-sized runs.
const timedComposedThreshold = 2

// TimedComposedSystem explores the oracle-free composition: Υ implemented
// from heartbeats and adaptive timeouts, consumed by Figure 1, both as
// parallel tasks. Adversarial schedules legally make the emulated Υ output
// arbitrary garbage (that is the impossibility of implementing a
// non-trivial detector in pure asynchrony), so only the safety properties
// are checked: no schedule — however the emulated detector misbehaves —
// may produce more than n−1 decisions or an unproposed decision.
func TimedComposedSystem(n int) System { return timedComposedSystem{n: n} }

func (s timedComposedSystem) Name() string   { return "timed-composed" }
func (s timedComposedSystem) N() int         { return s.n }
func (s timedComposedSystem) MaxFaults() int { return s.n - 1 }

// Oracles returns the single trivial choice: the system consumes no oracle
// (its detector is implemented, not assumed), so there is no history to
// flip and the switch plan is ignored.
func (s timedComposedSystem) Oracles(sim.Pattern, SwitchPlan) []OracleChoice {
	return []OracleChoice{{Name: "heartbeat-emulated"}}
}

func (s timedComposedSystem) LegalFlipOut(sim.Set) error {
	return fmt.Errorf("system timed-composed consumes no detector history: no flip schedule is legal")
}

func (s timedComposedSystem) Instantiate(pattern sim.Pattern, _ OracleChoice) Instance {
	c := core.NewTimedComposed(s.n, timedComposedThreshold, converge.UseAtomic)
	proposals := canonicalProposals(s.n)
	return Instance{
		Tasks:     c.MachineTaskSets(proposals),
		Proposals: proposals,
		K:         c.K(),
	}
}

func (s timedComposedSystem) Properties() []Property {
	return []Property{AtMostK{}, Validity{}}
}

// upsilonFlipOut checks one pre-stabilization phase output against the Υ^f
// range: every phase output — not just the eventual stable value — must be a
// non-empty subset of Π of size at least n+1−f... in the paper's 1-indexed
// counting; with this codebase's 0-indexed |Π| = n that floor is
// spec.MinSize() = n−f. Unlike LegalStable it does not exclude the correct
// set: pre-stabilization outputs may equal correct(F), only the settled
// value may not.
func upsilonFlipOut(spec core.UpsilonSpec, out sim.Set) error {
	if out == sim.EmptySet {
		return fmt.Errorf("flip output is empty: Υ range values are non-empty")
	}
	all := sim.FullSet(spec.N)
	if out&^all != 0 {
		return fmt.Errorf("flip output %s is not a subset of Π (n=%d)", out.String(), spec.N)
	}
	if out.Len() < spec.MinSize() {
		return fmt.Errorf("flip output %s has %d processes, below the Υ range floor %d",
			out.String(), out.Len(), spec.MinSize())
	}
	return nil
}

// omegaFlipOut checks one pre-stabilization phase output against the Ω
// range: every output is a singleton {leader} ⊆ Π.
func omegaFlipOut(n int, out sim.Set) error {
	if out.Len() != 1 {
		return fmt.Errorf("flip output %s is not a singleton: Ω outputs exactly one leader", out.String())
	}
	if out&^sim.FullSet(n) != 0 {
		return fmt.Errorf("flip output %s names a process outside Π (n=%d)", out.String(), n)
	}
	return nil
}
