package core

import (
	"fmt"
	"sync"

	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// Fig2 is the paper's Figure 2: the Υ^f-based protocol solving f-set
// agreement among n+1 processes in the environment E_f (at most f crashes),
// using registers and atomic snapshots (Theorem 6).
//
// The skeleton follows Figure 1 with (f)-converge[r] at the top (line 4).
// The difference is in the gladiator sub-round (r, k), lines 15-30: Υ^f
// outputs sets U of size ≥ n+1−f, so the |U| gladiators must shed down to
// |U|+f−n−1 values (so that, with the ≤ n+1−|U| citizen values, at most f
// values survive). To do so each gladiator:
//
//	line 16:    updates its value into the atomic snapshot A[r][k];
//	lines 17-19: repeatedly scans A[r][k] until the scan holds at least
//	            n+1−f non-⊥ values (escaping if D[r], D or Stable[r] fires);
//	line 25:    adopts the minimum value of its scan — scans are related by
//	            containment, and with at least one faulty gladiator they
//	            hold between n+1−f and |U|−1 values, so at most
//	            |U|+f−n−1 distinct minima arise;
//	line 26:    runs (|U|+f−n−1)-converge[r][k]; a commit is written to D[r].
//
// Agreement needs only the top-level (f)-converge and D; termination follows
// Theorem 6's case analysis on the eventual output U ≠ correct.
type Fig2 struct {
	n       int
	f       int
	upsilon sim.Oracle
	impl    converge.Impl
	top     *converge.Series
	sub     *converge.Series
	d       *memory.Register[memory.Opt[sim.Value]]
	rounds  *roundRegs
	snaps   *snapSeries
}

// NewFig2 builds the shared state for one run of the Figure 2 protocol for n
// processes with resilience f (1 ≤ f ≤ n−1), using the given Υ^f history.
func NewFig2(n, f int, upsilon sim.Oracle, impl converge.Impl) *Fig2 {
	if n < 2 {
		panic(fmt.Sprintf("core: Fig2 needs ≥ 2 processes, got %d", n))
	}
	if f < 1 || f >= n {
		panic(fmt.Sprintf("core: Fig2 resilience f=%d out of range for n=%d", f, n))
	}
	return &Fig2{
		n:       n,
		f:       f,
		upsilon: upsilon,
		impl:    impl,
		top:     converge.NewSeries("fconv", n, impl),
		sub:     converge.NewSeries("gconv", n, impl),
		d:       memory.NewRegister[memory.Opt[sim.Value]]("D"),
		rounds:  newRoundRegs(n),
		snaps:   newSnapSeries(n, impl),
	}
}

// Reset restores the shared memory to its initial state and installs a new
// Υ^f history, like Fig1.Reset; the snapshot objects A[r][k] are reset too.
func (g *Fig2) Reset(upsilon sim.Oracle) {
	g.upsilon = upsilon
	g.top.Reset()
	g.sub.Reset()
	g.d.Reset()
	g.rounds.reset()
	g.snaps.reset()
}

// K returns the agreement parameter f: at most f distinct decisions.
func (g *Fig2) K() int { return g.f }

// Decision returns the decision register's current content; for post-run
// inspection only.
func (g *Fig2) Decision() memory.Opt[sim.Value] { return g.d.Inspect() }

// Body returns the process automaton proposing the given value.
func (g *Fig2) Body(input sim.Value) sim.Body {
	return func(p *sim.Proc) (sim.Value, bool) {
		v := input
		me := p.ID()
		minEntries := g.n - g.f // the paper's n+1−f
		for r := 1; ; r++ {
			if d := g.d.Read(p); d.OK {
				return d.V, true
			}
			// Line 4: top-level (f)-converge.
			picked, committed := g.top.At(r, 0, g.f).Converge(p, v)
			v = picked
			if committed {
				g.d.Write(p, memory.Some(v))
				return v, true
			}
			u := fd.Query[sim.Set](p, g.upsilon)

			dr, stable := g.rounds.at(r)
		cycle:
			for k := 1; ; k++ {
				if d := g.d.Read(p); d.OK {
					return d.V, true
				}
				if stable.Read(p) {
					break cycle
				}
				if w := dr.Read(p); w.OK { // line 23
					v = w.V
					break cycle
				}
				if !u.Has(me) {
					dr.Write(p, memory.Some(v)) // line 11: citizen feeds D[r]
					break cycle
				}
				// Gladiator sub-round (r, k).
				snap := g.snaps.at(r, k, u.Len())
				snap.Update(p, me, v) // line 16
				for {                 // lines 17-19: wait for n+1−f entries
					scan := snap.Scan(p)
					if memory.CountSome(scan) >= minEntries {
						v = minValue(scan) // line 25
						break
					}
					if d := g.d.Read(p); d.OK {
						return d.V, true
					}
					if w := dr.Read(p); w.OK {
						v = w.V
						break cycle
					}
					if stable.Read(p) {
						break cycle
					}
					if u2 := fd.Query[sim.Set](p, g.upsilon); u2 != u {
						stable.Write(p, true)
						break cycle
					}
				}
				param := u.Len() + g.f - g.n // the paper's |U|+f−n−1
				picked, committed := g.sub.At(r, k, param).Converge(p, v)
				v = picked
				if committed {
					dr.Write(p, memory.Some(v)) // commit feeds D[r]
					break cycle
				}
				if u2 := fd.Query[sim.Set](p, g.upsilon); u2 != u {
					stable.Write(p, true)
					break cycle
				}
			}
			if w := dr.Read(p); w.OK { // line 33: adopt before round r+1
				v = w.V
			}
		}
	}
}

func minValue(scan []memory.Opt[sim.Value]) sim.Value {
	best := sim.Value(0)
	found := false
	for _, c := range scan {
		if c.OK && (!found || c.V < best) {
			best = c.V
			found = true
		}
	}
	if !found {
		panic("core: minValue of empty scan")
	}
	return best
}

// snapSeries lazily allocates the atomic snapshot objects A[r][k]. Like
// converge series, the identity includes the caller's |U| so that processes
// with divergent Υ^f views use distinct objects.
type snapSeries struct {
	mu   sync.Mutex
	n    int
	impl converge.Impl
	m    map[seriesKey3]memory.Snapshot[sim.Value]
}

type seriesKey3 struct{ r, k, usize int }

func newSnapSeries(n int, impl converge.Impl) *snapSeries {
	return &snapSeries{n: n, impl: impl, m: make(map[seriesKey3]memory.Snapshot[sim.Value])}
}

func (ss *snapSeries) at(r, k, usize int) memory.Snapshot[sim.Value] {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	key := seriesKey3{r: r, k: k, usize: usize}
	s, ok := ss.m[key]
	if !ok {
		name := fmt.Sprintf("A[%d][%d]/%d", r, k, usize)
		if ss.impl == converge.UseAfek {
			s = memory.NewAfekSnapshot[sim.Value](name, ss.n)
		} else {
			s = memory.NewAtomicSnapshot[sim.Value](name, ss.n)
		}
		ss.m[key] = s
	}
	return s
}

// reset restores every snapshot object created so far to all-⊥.
func (ss *snapSeries) reset() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, s := range ss.m {
		s.Reset()
	}
}
