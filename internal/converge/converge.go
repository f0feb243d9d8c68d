// Package converge implements the k-converge routine the paper borrows from
// Yang, Neiger and Gafni ("Structured derivations of consensus algorithms
// for failure detectors", PODC 1998 — the paper's [21]).
//
// A process calls k-converge with an input value and gets back a picked
// value and a commit flag, with the properties (paper Section 5.1):
//
//	C-Termination: every correct process picks some value.
//	C-Validity:    a picked value is some process's input.
//	C-Agreement:   if some process commits, at most k values are picked.
//	Convergence:   if at most k distinct values are input, every process
//	               that picks also commits.
//
// By definition 0-converge(v) always returns (v, false).
//
// The implementation uses two atomic-snapshot rounds. Round 1: write the
// input, scan, and let V be the distinct values seen; propose commit iff
// |V| ≤ k. Round 2: write (V, commit), scan; if every entry proposes commit,
// return (min V, committed); if some entry proposes commit, adopt the
// minimum of the smallest committing set; otherwise keep the input. Because
// snapshot scans are related by containment, the V-sets form a chain: all
// values picked when anyone commits lie in the largest committing set, which
// has at most k elements.
package converge

import (
	"fmt"
	"sync"

	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// ValueSet is a sorted set of distinct values.
type ValueSet []sim.Value

// NewValueSet collects the distinct present values of a snapshot scan.
func NewValueSet(scan []memory.Opt[sim.Value]) ValueSet {
	var vs ValueSet
	for _, c := range scan {
		if c.OK {
			vs = vs.add(c.V)
		}
	}
	return vs
}

func (vs ValueSet) add(v sim.Value) ValueSet {
	lo, hi := 0, len(vs)
	for lo < hi {
		mid := (lo + hi) / 2
		if vs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(vs) && vs[lo] == v {
		return vs
	}
	out := make(ValueSet, 0, len(vs)+1)
	out = append(out, vs[:lo]...)
	out = append(out, v)
	out = append(out, vs[lo:]...)
	return out
}

// Min returns the smallest value; it panics on an empty set.
func (vs ValueSet) Min() sim.Value {
	if len(vs) == 0 {
		panic("converge: Min of empty ValueSet")
	}
	return vs[0]
}

// proposal is a round-2 entry: the proposer's round-1 value set and whether
// it proposes to commit.
type proposal struct {
	set    ValueSet
	commit bool
}

// StateFP implements sim.Fingerprinter for the explorer's state digests:
// proposals live in shared snapshot cells, so their fingerprint must be a
// function of their content alone.
func (p proposal) StateFP() uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range p.set {
		h = (h ^ uint64(v)) * 0x100000001b3
	}
	if p.commit {
		h ^= 0x8000000000000001
	}
	return h
}

// Impl selects the snapshot implementation backing converge instances.
type Impl int

const (
	// UseAtomic backs instances with one-step atomic snapshot objects.
	UseAtomic Impl = iota
	// UseAfek backs instances with the registers-only Afek et al. snapshot,
	// exercising the paper's "registers suffice" claim at O(n²) step cost.
	UseAfek
)

// String implements fmt.Stringer.
func (i Impl) String() string {
	switch i {
	case UseAtomic:
		return "atomic-snapshot"
	case UseAfek:
		return "afek-snapshot"
	default:
		return fmt.Sprintf("Impl(%d)", int(i))
	}
}

// Instance is one k-converge object shared by the n processes.
type Instance struct {
	k int
	a memory.Snapshot[sim.Value]
	b memory.Snapshot[proposal]
}

// NewInstance creates a k-converge object for n processes.
func NewInstance(name string, n, k int, impl Impl) *Instance {
	if k < 0 {
		panic(fmt.Sprintf("converge: negative k=%d", k))
	}
	inst := &Instance{k: k}
	switch impl {
	case UseAtomic:
		inst.a = memory.NewAtomicSnapshot[sim.Value](name+".A", n)
		inst.b = memory.NewAtomicSnapshot[proposal](name+".B", n)
	case UseAfek:
		inst.a = memory.NewAfekSnapshot[sim.Value](name+".A", n)
		inst.b = memory.NewAfekSnapshot[proposal](name+".B", n)
	default:
		panic(fmt.Sprintf("converge: unknown Impl %d", int(impl)))
	}
	return inst
}

// reset restores the instance's two snapshot objects to their initial
// (all-⊥) contents without taking steps, so the instance can serve a new
// run.
func (c *Instance) reset() {
	c.a.Reset()
	c.b.Reset()
}

// K returns the instance's convergence parameter.
func (c *Instance) K() int { return c.k }

// Converge runs the routine for process p with input v, returning the picked
// value and whether p commits to it.
func (c *Instance) Converge(p *sim.Proc, v sim.Value) (sim.Value, bool) {
	if c.k == 0 {
		return v, false // 0-converge, by definition
	}
	c.a.Update(p, p.ID(), v)
	vs := NewValueSet(c.a.Scan(p))
	mine := proposal{set: vs, commit: len(vs) <= c.k}
	c.b.Update(p, p.ID(), mine)
	scan := c.b.Scan(p)

	allCommit := true
	var smallest ValueSet
	for _, e := range scan {
		if !e.OK {
			continue
		}
		if !e.V.commit {
			allCommit = false
			continue
		}
		if smallest == nil || len(e.V.set) < len(smallest) {
			smallest = e.V.set
		}
	}
	switch {
	case allCommit:
		// Own entry is in the scan, so mine.commit is true and vs is a
		// committing set.
		return vs.Min(), true
	case smallest != nil:
		return smallest.Min(), false
	default:
		return v, false
	}
}

// Series is a lazily-allocated family of converge instances, indexed the way
// the paper indexes them: converge[r] and converge[r][k], with the instance's
// convergence parameter part of the identity (so that processes with
// divergent failure detector views, and hence divergent parameters, use
// distinct objects).
type Series struct {
	mu   sync.Mutex
	name string
	n    int
	impl Impl
	m    map[seriesKey]*Instance
}

type seriesKey struct {
	r, k, param int
}

// NewSeries creates a converge-instance family for n processes.
func NewSeries(name string, n int, impl Impl) *Series {
	return &Series{name: name, n: n, impl: impl, m: make(map[seriesKey]*Instance)}
}

// At returns the param-converge instance with indices [r][k], creating it on
// first use. The accessor takes no simulation steps; object creation is
// bookkeeping, not shared-memory communication.
func (s *Series) At(r, k, param int) *Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := seriesKey{r: r, k: k, param: param}
	inst, ok := s.m[key]
	if !ok {
		inst = NewInstance(fmt.Sprintf("%s[%d][%d]/%d", s.name, r, k, param), s.n, param, s.impl)
		s.m[key] = inst
	}
	return inst
}

// Reset restores every instance created so far to its initial contents and
// keeps them, so a recycled run finds the same objects — with their names
// and cached log identities — instead of building them again. Instances a
// run never reaches stay unobservable, exactly as if they did not exist.
func (s *Series) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, inst := range s.m {
		inst.reset()
	}
}
