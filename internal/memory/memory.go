// Package memory implements the shared objects of the paper's model:
// atomic read/write registers (the only object type its algorithms need) and
// atomic-snapshot objects, both as a one-step atomic object and as the
// classic wait-free construction from single-writer registers of Afek,
// Attiya, Dolev, Gafni, Merritt and Shavit (J. ACM 1993) — the paper's
// reference [1].
//
// Every operation costs exactly one simulator step per register access; the
// one-step snapshot costs one step per operation and is justified by [1]'s
// implementability result.
package memory

import (
	"fmt"

	"weakestfd/internal/sim"
)

// Opt is an optional value: registers start ⊥ and the paper's protocols
// repeatedly test registers against ⊥.
type Opt[T any] struct {
	V  T
	OK bool
}

// Some returns a present optional.
func Some[T any](v T) Opt[T] { return Opt[T]{V: v, OK: true} }

// None returns the absent optional (⊥).
func None[T any]() Opt[T] { return Opt[T]{} }

// StateFP implements sim.Fingerprinter: ⊥ is distinct from every present
// value, and present values fingerprint by their content.
func (o Opt[T]) StateFP() uint64 {
	if !o.OK {
		return 0x9d6e1c2b0b07a55a
	}
	return sim.StateFP(o.V)
}

// Register is an atomic multi-reader multi-writer register holding a value
// of type T. The zero value... is not usable; construct with NewRegister so
// the register carries a name for traces.
type Register[T any] struct {
	name string
	v    T

	// oid caches the register's interned identity in logRef, so recorded
	// runs pay the name-interning map lookup once per (object, log) pair
	// instead of once per access. Valid only while logRef matches the log
	// in use; see Register.logID.
	oid    sim.ObjID
	logRef *sim.AccessLog
}

// NewRegister returns a register initialized to T's zero value.
func NewRegister[T any](name string) *Register[T] {
	return &Register[T]{name: name}
}

// Read returns the register's current value; one atomic step.
func (r *Register[T]) Read(p *sim.Proc) T {
	var out T
	p.Step("read "+r.name, func() { out = r.v })
	return out
}

// Write sets the register's value; one atomic step.
func (r *Register[T]) Write(p *sim.Proc, v T) {
	p.Step("write "+r.name, func() { r.v = v })
}

// Reset restores the register's initial value (T's zero value) without
// taking a step, so a run's shared state can be recycled for the next run.
// The name and the cached log identity are kept: a reset register recorded
// into the same AccessLog reuses its interned ID.
func (r *Register[T]) Reset() {
	var zero T
	r.v = zero
}

// Inspect returns the register's value without taking a step. It exists for
// the benefit of schedules, stop predicates and post-run checks, all of
// which run while no process is executing; algorithm bodies must not use it.
func (r *Register[T]) Inspect() T { return r.v }

// Array is a per-process array of atomic registers, R[0..n-1]: the shared
// structure used by all announcement/heartbeat patterns in the paper.
type Array[T any] struct {
	name string
	regs []*Register[T]
}

// NewArray returns an array of n registers, each holding T's zero value.
func NewArray[T any](name string, n int) *Array[T] {
	regs := make([]*Register[T], n)
	for i := range regs {
		regs[i] = NewRegister[T](fmt.Sprintf("%s[%d]", name, i))
	}
	return &Array[T]{name: name, regs: regs}
}

// N returns the array length.
func (a *Array[T]) N() int { return len(a.regs) }

// At returns the i-th register.
func (a *Array[T]) At(i sim.PID) *Register[T] { return a.regs[i] }

// Read reads register i; one atomic step.
func (a *Array[T]) Read(p *sim.Proc, i sim.PID) T { return a.regs[i].Read(p) }

// Write writes register i; one atomic step.
func (a *Array[T]) Write(p *sim.Proc, i sim.PID, v T) { a.regs[i].Write(p, v) }

// Reset restores every register's initial value without taking steps.
func (a *Array[T]) Reset() {
	for _, r := range a.regs {
		r.Reset()
	}
}

// Collect reads all n registers one step at a time (a non-atomic collect).
func (a *Array[T]) Collect(p *sim.Proc) []T {
	out := make([]T, len(a.regs))
	for i := range a.regs {
		out[i] = a.regs[i].Read(p)
	}
	return out
}

// Inspect returns a copy of the array contents without taking steps; for
// schedules and post-run checks only.
func (a *Array[T]) Inspect() []T {
	out := make([]T, len(a.regs))
	for i, r := range a.regs {
		out[i] = r.Inspect()
	}
	return out
}
