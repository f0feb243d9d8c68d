package core

import (
	"fmt"

	"weakestfd/internal/converge"
	"weakestfd/internal/sim"
)

// Mutation-testing variants of the protocol machines. Mutants exist to
// calibrate the schedule-space explorer (internal/explore): a useful
// bug-finding harness must demonstrably catch protocols that are wrong in
// ways the seeded-random test suites miss, and each mutant is paired (in
// explore's mutant zoo) with the named failure pattern expected to kill it.
// They are never used by the real protocol paths.

// Fig1Mutation names an intentionally broken variant of the Figure 1
// protocol.
type Fig1Mutation int

const (
	// MutNone is the unmutated protocol (MutantMachine == Machine).
	MutNone Fig1Mutation = iota
	// MutWrongAdopt breaks the k-converge adopt rule: a process that does not
	// commit keeps its own input instead of adopting the minimum of the
	// smallest committing set. This voids C-Agreement — the chain-containment
	// argument that pins all picked values inside one committing set — and
	// with it the protocol's Agreement property: under the right
	// interleaving, a non-committing process escapes the round with its own
	// value, commits it solo in a later round, and the decision register sees
	// more than n−1 distinct values. Random schedules essentially never
	// produce that interleaving, which is exactly why the explorer exists.
	MutWrongAdopt
	// MutSkipOnChange breaks the detector-change escape: a gladiator whose
	// re-query observes a different Υ output skips ahead two rounds with its
	// current value instead of writing Stable[r] and adopting D[r]. The
	// mutation is *provably dead code under every history that is stable
	// from time 0*: both query sites of a round then return the identical
	// value, the u2 != u branch never fires, and the mutant takes exactly
	// the unmutated protocol's steps — so no stable-from-0 exploration and
	// no seeded-random suite (which also fixes histories at their stable
	// value) can distinguish it. Under an unstable prefix — one
	// pre-stabilization output switch suffices — the skipping process
	// bypasses a round's top-level converge entirely, voiding the
	// pass-through invariant (every process in round r updated round r's
	// converge) that Agreement's containment argument rests on: the skipper
	// solo-commits its stale value in a round the others never contaminate,
	// while another process solo-commits a different value one round behind.
	// It exists to prove the SwitchBudget dimension of the explorer pays for
	// itself: only a schedule-controlled history flip reaches the bug.
	MutSkipOnChange
	// MutGarbledDecide corrupts the commit path: the top-level converge
	// commit writes v+garbleOffset into the decision register and decides
	// that garbled value. Every deciding run violates Validity, so the
	// explorer's root fair run already kills it — the zoo's cheapest mutant,
	// pinning the validity property and the artifact/replay plumbing.
	MutGarbledDecide
	// MutGarbledEcho corrupts the citizen path: a process outside the
	// detector output echoes v+garbleOffset into D[r] instead of its value.
	// Dead code while the detector names every process — a failure-free
	// Figure 1 run under stable output Π never has citizens — but under any
	// stable output that excludes a live process, that process's echo
	// poisons D[r], everyone leaving round r adopts the garbled value, and
	// the eventual decision is unproposed. It pins the citizen branch,
	// which no other mutant exercises, and (composed with Figure 3) is the
	// composition's third kill: the emulated Υ settles on the complement of
	// the Ω leader, so the leader itself is a live citizen in the root run.
	MutGarbledEcho
)

// garbleOffset is the value corruption MutGarbledDecide applies on commit:
// far outside the canonical proposal range, so the decided value is
// provably unproposed.
const garbleOffset sim.Value = 911

// String implements fmt.Stringer.
func (m Fig1Mutation) String() string {
	switch m {
	case MutNone:
		return "none"
	case MutWrongAdopt:
		return "wrong-adopt"
	case MutSkipOnChange:
		return "skip-on-change"
	case MutGarbledDecide:
		return "garbled-decide"
	case MutGarbledEcho:
		return "garbled-echo"
	default:
		return fmt.Sprintf("Fig1Mutation(%d)", int(m))
	}
}

// MutantMachine returns the Figure 1 automaton with the given mutation
// applied, proposing the given value. MutNone yields the correct machine.
func (g *Fig1) MutantMachine(input sim.Value, mut Fig1Mutation) sim.StepMachine {
	m := &fig1Machine{g: g, input: input}
	switch mut {
	case MutNone:
	case MutWrongAdopt:
		m.conv.Adopt = func(in sim.Value, _ converge.ValueSet) sim.Value { return in }
	case MutSkipOnChange:
		m.skipOnChange = true
	case MutGarbledDecide:
		m.garbleDecide = true
	case MutGarbledEcho:
		m.garbleEcho = true
	default:
		panic(fmt.Sprintf("core: unknown Fig1Mutation %d", int(mut)))
	}
	return m
}

// Fig2Mutation names an intentionally broken variant of the Figure 2
// protocol. The mutations target its three load-bearing mechanisms: the
// converge adopt rule (agreement), the detector-change escape of the
// gladiator cycle (agreement under unstable histories), and the gladiator
// scan threshold n+1−f of lines 17-19 (termination). Note that *lowering*
// the scan threshold is not here: the top-level converge's C-Agreement pins
// every gladiator's scan-minimum inside the committing set regardless of
// how stale the scan is, so an undersized-scan mutant is behaviorally
// equivalent for every property the explorer checks.
type Fig2Mutation int

const (
	// MutF2None is the unmutated protocol.
	MutF2None Fig2Mutation = iota
	// MutF2WrongAdopt breaks the converge adopt rule exactly like
	// MutWrongAdopt does for Figure 1: non-committers keep their own value.
	// The top-level (f)-converge race then yields two solo commits of
	// different values — more than f distinct decisions.
	MutF2WrongAdopt
	// MutF2SkipOnChange breaks Figure 2's detector-change escape the same
	// way MutSkipOnChange breaks Figure 1's: a gladiator whose re-query
	// (line 29, or the wait-loop escape of line 19) observes a different Υ^f
	// output skips ahead two rounds with its current value instead of
	// writing Stable[r] and adopting D[r]. Like the Figure 1 variant it is
	// provably dead code under every stable-from-0 history — both query
	// sites return the identical value — so only a SwitchBudget sweep
	// reaches it; the skipper bypasses two rounds' top-level (f)-converges,
	// voiding the pass-through containment that Agreement rests on.
	MutF2SkipOnChange
	// MutF2StarvedWait raises the gladiator scan threshold to all n
	// entries: the wait loop of lines 17-19 then waits for crashed
	// gladiators too, and a single crashed member of U parks every correct
	// gladiator in the wait loop forever — a termination failure whose
	// witness crash is load-bearing (the failure-free runs terminate).
	MutF2StarvedWait
)

// String implements fmt.Stringer.
func (m Fig2Mutation) String() string {
	switch m {
	case MutF2None:
		return "none"
	case MutF2WrongAdopt:
		return "wrong-adopt"
	case MutF2SkipOnChange:
		return "skip-on-change"
	case MutF2StarvedWait:
		return "starved-wait"
	default:
		return fmt.Sprintf("Fig2Mutation(%d)", int(m))
	}
}

// MutantMachine returns the Figure 2 automaton with the given mutation
// applied, proposing the given value. MutF2None yields the correct machine.
func (g *Fig2) MutantMachine(input sim.Value, mut Fig2Mutation) sim.StepMachine {
	m := &fig2Machine{g: g, input: input, minEntries: g.n - g.f}
	switch mut {
	case MutF2None:
	case MutF2WrongAdopt:
		m.conv.Adopt = func(in sim.Value, _ converge.ValueSet) sim.Value { return in }
	case MutF2SkipOnChange:
		m.skipOnChange = true
	case MutF2StarvedWait:
		m.minEntries = g.n
	default:
		panic(fmt.Sprintf("core: unknown Fig2Mutation %d", int(mut)))
	}
	return m
}

// ExtractMutation names an intentionally broken variant of the Figure 3
// reduction. The extraction's claim is output *sanity* — whenever the
// emulated outputs settle, the settled set is a legal Υ^f value — so its
// mutants corrupt what gets written into the output registers, or when.
type ExtractMutation int

const (
	// MutExNone is the unmutated reduction.
	MutExNone ExtractMutation = iota
	// MutExFullOutput writes Π instead of φ_D's set S at the round's output
	// switch (the "batches complete" commit of Figure 3). Under a
	// failure-free pattern the outputs settle on Π = correct — exactly the
	// value Υ^f may never stabilize on.
	MutExFullOutput
	// MutExEmptyOutput writes ∅ instead of S: the settled output violates
	// the range constraint (Υ^f outputs are non-empty) in every pattern.
	MutExEmptyOutput
	// MutExStaleLeader latches the first detector query forever: Task 1
	// keeps republishing the round-entry value and the round exit re-adopts
	// it instead of re-querying, so a leader change never propagates. A
	// single pre-stabilization flip of the Ω source — output the
	// crashed process until the very first query has happened — makes the
	// reduction compute S = complement({crashed}) = correct and settle
	// there. Both the flip and the crash are load-bearing: stable-from-0
	// histories latch the true leader (S legal), and without the crash the
	// latched complement is a strict subset of correct (also legal).
	MutExStaleLeader
)

// String implements fmt.Stringer.
func (m ExtractMutation) String() string {
	switch m {
	case MutExNone:
		return "none"
	case MutExFullOutput:
		return "full-output"
	case MutExEmptyOutput:
		return "empty-output"
	case MutExStaleLeader:
		return "stale-leader"
	default:
		return fmt.Sprintf("ExtractMutation(%d)", int(m))
	}
}

// MutantMachine returns the Figure 3 reduction automaton with the given
// mutation applied. MutExNone yields the correct machine.
func (e *Extraction) MutantMachine(mut ExtractMutation) sim.StepMachine {
	switch mut {
	case MutExNone, MutExFullOutput, MutExEmptyOutput, MutExStaleLeader:
		return &extractionMachine{e: e, mut: mut}
	default:
		panic(fmt.Sprintf("core: unknown ExtractMutation %d", int(mut)))
	}
}

// MutantMachineTaskSets is MachineTaskSets with the protocol task replaced
// by the given Figure 1 mutant: the reduction half runs unmutated, so the
// composition's failures are the protocol's — under the emulated detector,
// whose output changes are ordinary shared-state evolution rather than
// oracle flips. MutSkipOnChange is NOT composed here: the emulated output
// only changes during the pre-settle window, before any process can
// decide, so an armed skip merely renumbers rounds while converge still
// enforces Agreement (depth-48 sweeps past 6M runs find no kill).
// MutGarbledEcho is the composition's detector-shape mutant instead: the
// emulated Υ settles on the complement of the Ω leader, so the leader is a
// live citizen in the root run and its garbled echo poisons D[r].
func (c *Composed) MutantMachineTaskSets(proposals []sim.Value, mut Fig1Mutation) []sim.MachineTaskSet {
	out := make([]sim.MachineTaskSet, len(proposals))
	for i := range out {
		out[i] = sim.MachineTaskSet{
			c.extraction.Machine(),
			c.protocol.MutantMachine(proposals[i], mut),
		}
	}
	return out
}
