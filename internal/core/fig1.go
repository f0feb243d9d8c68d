package core

import (
	"fmt"
	"sync"

	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// Fig1 is the paper's Figure 1: the Υ-based protocol solving n-set agreement
// among n+1 processes using registers, tolerating n crashes (Theorem 2).
//
// Each round r:
//
//	line 4:     try (n)-converge[r]; a commit is written to the decision
//	            register D and decided.
//	line ~8:    otherwise query Υ; call the output U. Processes in U are
//	            gladiators, processes outside are citizens.
//	lines 12-17 (cyclic): a citizen writes its value to D[r] and proceeds to
//	            round r+1. A gladiator runs (|U|−1)-converge[r][k] for
//	            k = 1, 2, …, chaining picked values; a commit is written to
//	            D[r]. Every cycle the gladiator re-queries Υ; a changed
//	            output sets the shared flag Stable[r] (so named in the
//	            paper; it records that instability was observed). The cycle
//	            exits when Stable[r] is set, D[r] ≠ ⊥, or D ≠ ⊥.
//
// Processes leaving round r adopt D[r] when non-⊥; a non-⊥ D is decided
// immediately. Agreement needs only the top-level converge and D: the first
// committed (n)-converge pins all values ever written to D to at most n.
// Termination uses Υ: eventually U ≠ correct, so either some gladiator is
// faulty (the sub-converges shed a value) or some citizen is correct (it
// feeds D[r]).
//
// One Fig1 value holds the shared memory of one run; give each process a
// body from Body.
type Fig1 struct {
	n       int
	upsilon sim.Oracle
	top     *converge.Series // (n)-converge[r]
	sub     *converge.Series // (|U|−1)-converge[r][k]
	d       *memory.Register[memory.Opt[sim.Value]]
	rounds  *roundRegs
}

// NewFig1 builds the shared state for one run of the Figure 1 protocol for n
// processes (the paper's n+1) using the given Υ history. The protocol
// decides at most n−1 values (the paper's "at most n" with n+1 processes).
func NewFig1(n int, upsilon sim.Oracle, impl converge.Impl) *Fig1 {
	if n < 2 {
		panic(fmt.Sprintf("core: Fig1 needs ≥ 2 processes, got %d", n))
	}
	return &Fig1{
		n:       n,
		upsilon: upsilon,
		top:     converge.NewSeries("nconv", n, impl),
		sub:     converge.NewSeries("gconv", n, impl),
		d:       memory.NewRegister[memory.Opt[sim.Value]]("D"),
		rounds:  newRoundRegs(n),
	}
}

// Reset restores the shared memory to its initial state and installs a new
// Υ history, so the value (and the machines built from it) can serve
// another run: D, every converge instance and every round register created
// so far are reset in place, keeping their names.
func (g *Fig1) Reset(upsilon sim.Oracle) {
	g.upsilon = upsilon
	g.top.Reset()
	g.sub.Reset()
	g.d.Reset()
	g.rounds.reset()
}

// K returns the agreement parameter: the maximum number of distinct decision
// values, n−1 for n processes.
func (g *Fig1) K() int { return g.n - 1 }

// Decision returns the decision register's current content; for post-run
// inspection only.
func (g *Fig1) Decision() memory.Opt[sim.Value] { return g.d.Inspect() }

// Body returns the process automaton proposing the given value.
func (g *Fig1) Body(input sim.Value) sim.Body {
	return func(p *sim.Proc) (sim.Value, bool) {
		v := input
		me := p.ID()
		for r := 1; ; r++ {
			if d := g.d.Read(p); d.OK {
				return d.V, true // line 20: decide on a posted decision
			}
			// Line 4: top-level (n)-converge.
			picked, committed := g.top.At(r, 0, g.K()).Converge(p, v)
			v = picked
			if committed {
				g.d.Write(p, memory.Some(v))
				return v, true
			}
			u := fd.Query[sim.Set](p, g.upsilon)

			// Lines 12-17: the cyclic gladiator/citizen procedure.
			dr, stable := g.rounds.at(r)
		cycle:
			for k := 1; ; k++ {
				if d := g.d.Read(p); d.OK {
					return d.V, true
				}
				if stable.Read(p) {
					// Condition (a): someone saw Υ change in round r.
					break cycle
				}
				if w := dr.Read(p); w.OK {
					// Condition (c): a value reached D[r]; adopt it.
					v = w.V
					break cycle
				}
				if !u.Has(me) {
					// Citizen: contribute the value and move on.
					dr.Write(p, memory.Some(v))
					break cycle
				}
				// Gladiator: try to shed one of U's values.
				picked, committed := g.sub.At(r, k, u.Len()-1).Converge(p, v)
				v = picked
				if committed {
					// Condition (b): a gladiator commit reaches D[r].
					dr.Write(p, memory.Some(v))
					break cycle
				}
				if u2 := fd.Query[sim.Set](p, g.upsilon); u2 != u {
					stable.Write(p, true)
					break cycle
				}
			}
			// Leaving round r: adopt D[r] if some process fed it.
			if w := dr.Read(p); w.OK {
				v = w.V
			}
		}
	}
}

// roundRegs lazily allocates the per-round registers D[r] and Stable[r].
// Allocation is bookkeeping (no simulation steps); the mutex covers the
// pre-first-step window in which process bodies may run concurrently.
type roundRegs struct {
	mu sync.Mutex
	n  int
	m  map[int]*roundPair
}

type roundPair struct {
	dr     *memory.Register[memory.Opt[sim.Value]]
	stable *memory.Register[bool]
}

func newRoundRegs(n int) *roundRegs {
	return &roundRegs{n: n, m: make(map[int]*roundPair)}
}

func (rr *roundRegs) at(r int) (*memory.Register[memory.Opt[sim.Value]], *memory.Register[bool]) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	pair, ok := rr.m[r]
	if !ok {
		pair = &roundPair{
			dr:     memory.NewRegister[memory.Opt[sim.Value]](fmt.Sprintf("D[%d]", r)),
			stable: memory.NewRegister[bool](fmt.Sprintf("Stable[%d]", r)),
		}
		rr.m[r] = pair
	}
	return pair.dr, pair.stable
}

// reset restores every round register created so far to its initial value.
func (rr *roundRegs) reset() {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for _, pair := range rr.m {
		pair.dr.Reset()
		pair.stable.Reset()
	}
}
