package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrBudgetExhausted is reported when the step budget ran out before every
// correct process returned. In this simulator it is the observable face of
// non-termination; impossibility experiments assert it, liveness experiments
// assert its absence.
var ErrBudgetExhausted = errors.New("sim: step budget exhausted before all correct processes returned")

// Body is the algorithm automaton run by one process. It returns the
// process's decision value and true, or (0, false) if the process halts
// without deciding (e.g. a non-participant). Bodies that emulate failure
// detectors typically never return and are stopped by the budget or a
// StopWhen predicate.
//
// All interaction with shared state must go through the Proc step methods;
// code between steps must only touch process-local state.
type Body func(p *Proc) (Value, bool)

// Config describes one run of an algorithm.
type Config struct {
	// Pattern is the failure pattern F of the run.
	Pattern Pattern
	// Schedule decides which enabled process takes each step.
	Schedule Schedule
	// Budget caps the total number of atomic steps (0 means DefaultBudget).
	Budget int64
	// Tracer, if non-nil, receives every step event.
	Tracer func(Event)
	// StopWhen, if non-nil, is consulted after every step; returning true
	// ends the run early. The run is not marked budget-exhausted in that
	// case. Used by adversary experiments that stop once they have forced
	// enough behaviour.
	StopWhen func(t Time) bool
	// AccessLog, if non-nil, records the shared-object accesses of every
	// granted step. Only the step-machine runners (RunMachines,
	// RunTaskMachines) record: their machines route every operation through
	// the instrumented Direct* accessors. The goroutine runner ignores it.
	AccessLog *AccessLog
	// Queries, if non-nil, is the run's detector-query seam: every failure
	// detector query (Proc.Query on the goroutine runner, fd.QueryAt in
	// step machines) routes through it, recording the query as a read of the
	// history's virtual object and each registered history flip as a write
	// (see QuerySeam). Nil is the pass-through default.
	Queries *QuerySeam
}

// DefaultBudget is the step budget used when Config.Budget is zero.
const DefaultBudget int64 = 1 << 20

// Report is the outcome of a run.
type Report struct {
	// Decided maps each process that decided to its decision value.
	Decided map[PID]Value
	// DecidedAt maps each deciding process to the time of its last step.
	DecidedAt map[PID]Time
	// Halted is the set of processes that returned without deciding.
	Halted Set
	// Crashed is the set of processes that crashed during the run.
	Crashed Set
	// Steps is the total number of atomic steps granted.
	Steps int64
	// StepsBy counts the steps taken by each process.
	StepsBy []int64
	// Stopped reports that StopWhen ended the run.
	Stopped bool
	// BudgetExhausted reports that the budget ran out with live processes.
	BudgetExhausted bool
	// Accesses is the run's access log when Config.AccessLog was set (nil
	// otherwise): per-step shared-object access sets, aligned with the grant
	// order. It is the same log the caller passed in, surfaced here so
	// consumers that only see the Report (replay tracing, dependency
	// analysis) can reach it.
	Accesses *AccessLog

	// budgetErr is the storage behind the error a runner returns when a
	// correct process did not return, so reporting it allocates nothing.
	budgetErr budgetError
}

// reset prepares r to receive a run of n processes recorded into log,
// clearing its maps and step counters in place so that a Report reused
// across runs allocates nothing once warm.
func (r *Report) reset(n int, log *AccessLog) {
	if r.Decided == nil {
		r.Decided = make(map[PID]Value)
		r.DecidedAt = make(map[PID]Time)
	} else {
		clear(r.Decided)
		clear(r.DecidedAt)
	}
	if cap(r.StepsBy) >= n {
		r.StepsBy = r.StepsBy[:n]
		clear(r.StepsBy)
	} else {
		r.StepsBy = make([]int64, n)
	}
	r.Halted, r.Crashed = EmptySet, EmptySet
	r.Steps = 0
	r.Stopped, r.BudgetExhausted = false, false
	r.Accesses = log
	r.budgetErr = budgetError{}
}

// budgetError is the error every runner returns when the run ended with a
// correct process that had not returned: ErrBudgetExhausted plus the run's
// pattern and length. Most such runs are stopped early on purpose (the
// explorer's join probe) and nobody reads their error, so the message is
// formatted only when asked for.
type budgetError struct {
	pattern Pattern
	steps   int64
}

func (e *budgetError) Error() string {
	return fmt.Sprintf("%v (pattern %v, %d steps)", ErrBudgetExhausted, e.pattern, e.steps)
}

func (e *budgetError) Unwrap() error { return ErrBudgetExhausted }

// budgetExhausted returns the run's budget error, stored in r.
func (r *Report) budgetExhausted(pattern Pattern) error {
	r.budgetErr = budgetError{pattern: pattern, steps: r.Steps}
	return &r.budgetErr
}

// DecidedValues returns the set of distinct decision values in the report,
// in ascending order.
func (r *Report) DecidedValues() []Value {
	return r.DecidedValuesAppend(nil)
}

// DecidedValuesAppend appends the distinct decision values to dst in
// ascending order and returns the extended slice. It is the non-allocating
// variant of DecidedValues for hot summary loops: dedup and ordering are
// done by insertion into the slice itself, with no map.
func (r *Report) DecidedValuesAppend(dst []Value) []Value {
	base := len(dst)
	//lint:fdlint determinism -- sorted-insertion dedup: the resulting slice is independent of iteration order
	for _, v := range r.Decided {
		lo, hi := base, len(dst)
		for lo < hi {
			mid := (lo + hi) / 2
			if dst[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(dst) && dst[lo] == v {
			continue
		}
		dst = append(dst, 0)
		copy(dst[lo+1:], dst[lo:])
		dst[lo] = v
	}
	return dst
}

type procState uint8

const (
	stateAwaited  procState = iota // we owe a receive: the proc will send a message
	statePending                   // proc is blocked waiting for a grant
	stateReturned                  // body returned
	stateDead                      // crashed (poison acknowledged)
)

// Run executes one body per process under the given configuration and
// returns the run report. It returns ErrBudgetExhausted (wrapped) if the
// budget ran out before every correct process returned.
//
// Run panics if a body panics (with the original value and stack), since a
// panicking body is a bug in the algorithm, not a property of the run.
func Run(cfg Config, bodies []Body) (*Report, error) {
	n := cfg.Pattern.N()
	if len(bodies) != n {
		panic(fmt.Sprintf("sim: %d bodies for %d processes", len(bodies), n))
	}
	if cfg.Schedule == nil {
		panic("sim: nil Schedule")
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = DefaultBudget
	}

	msgs := make(chan procMsg)
	procs := make([]*Proc, n)
	states := make([]procState, n)
	rep := &Report{
		Decided:   make(map[PID]Value),
		DecidedAt: make(map[PID]Time),
		StepsBy:   make([]int64, n),
	}

	for i := 0; i < n; i++ {
		p := &Proc{
			id:     PID(i),
			slot:   i,
			n:      n,
			msgs:   msgs,
			grants: make(chan grant, 1),
			tracer: cfg.Tracer,
			seam:   cfg.Queries,
		}
		procs[i] = p
		states[i] = stateAwaited
		//lint:fdlint determinism -- goroutine-engine mechanism: bodies run on goroutines but every step is serialized by the grant channel, so the schedule alone decides interleaving
		go runBody(p, bodies[i])
	}

	outstanding := n // messages we still owe a receive for
	var t Time
	recvOne := func() procMsg {
		m := <-msgs
		outstanding--
		switch m.kind {
		case msgRequest:
			states[m.pid] = statePending
		case msgReturned:
			states[m.pid] = stateReturned
			if m.decided {
				rep.Decided[m.pid] = m.val
				rep.DecidedAt[m.pid] = procs[m.pid].now
			} else {
				rep.Halted = rep.Halted.Add(m.pid)
			}
		case msgDied:
			states[m.pid] = stateDead
			rep.Crashed = rep.Crashed.Add(m.pid)
		case msgPanicked:
			// Drain remaining goroutines best-effort, then surface the bug.
			panic(fmt.Sprintf("sim: process %v panicked: %v\n%s", m.pid, m.pval, m.stack))
		}
		return m
	}
	poison := func(pid PID) {
		procs[pid].grants <- grant{poison: true}
		outstanding++
	}
	poisonAllPending := func() {
		for i := range states {
			if states[i] == statePending {
				poison(PID(i))
			}
		}
		for outstanding > 0 {
			recvOne()
		}
	}

	for {
		for outstanding > 0 {
			recvOne()
		}

		// Poison processes whose crash time has arrived.
		next := t + 1
		for i := range states {
			if states[i] == statePending && cfg.Pattern.CrashAt(PID(i)) <= next {
				poison(PID(i))
			}
		}
		if outstanding > 0 {
			continue
		}

		var enabled Set
		for i := range states {
			if states[i] == statePending {
				enabled = enabled.Add(PID(i))
			}
		}
		if enabled.IsEmpty() {
			break // every process returned or crashed
		}
		if rep.Steps >= budget {
			rep.BudgetExhausted = true
			poisonAllPending()
			break
		}

		pid := cfg.Schedule.Next(next, enabled)
		if !enabled.Has(pid) {
			panic(fmt.Sprintf("sim: schedule chose %v not in enabled %v", pid, enabled))
		}
		t = next
		states[pid] = stateAwaited
		procs[pid].grants <- grant{t: t}
		outstanding++
		rep.Steps++
		rep.StepsBy[pid]++

		if cfg.StopWhen != nil {
			// Settle the granted step before consulting the predicate so it
			// observes a quiescent shared state.
			for outstanding > 0 {
				recvOne()
			}
			if cfg.StopWhen(t) {
				rep.Stopped = true
				poisonAllPending()
				break
			}
		}
	}

	// A run terminates successfully when every correct process has returned.
	for s := cfg.Pattern.Correct(); s != 0; s &= s - 1 {
		if states[s.Min()] != stateReturned {
			return rep, rep.budgetExhausted(cfg.Pattern)
		}
	}
	return rep, nil
}

func runBody(p *Proc, body Body) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashTokenType); ok {
				p.msgs <- procMsg{kind: msgDied, pid: p.id, slot: p.slot}
				return
			}
			p.msgs <- procMsg{kind: msgPanicked, pid: p.id, slot: p.slot, pval: r, stack: debug.Stack()}
		}
	}()
	v, decided := body(p)
	p.msgs <- procMsg{kind: msgReturned, pid: p.id, slot: p.slot, val: v, decided: decided}
}
