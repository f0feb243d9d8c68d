package sim

import "fmt"

// This file is the simulator's second execution engine: a coroutine-free
// step-machine runner. The goroutine runner (Run/RunTasks) executes each
// process body on its own goroutine and synchronizes every atomic step with
// two channel handshakes; that is the most convenient way to *write*
// protocol code, but it makes a logically single-threaded simulation pay
// Go-scheduler overhead on every step. The machine runner instead drives
// processes as resumable state machines — Aspnes-style explicit step
// schedules over process automata — in a single goroutine with zero channels
// and near-zero allocations per step.
//
// Both engines implement the same model and must produce byte-identical
// Reports for the same (Config, algorithm) pair; the equivalence suite in
// machine_equiv_test.go and the repository-level runner tests enforce this.

// MachineStatus is the outcome of one StepMachine step.
type MachineStatus uint8

const (
	// MachineRunning means the machine has more steps to take.
	MachineRunning MachineStatus = iota
	// MachineDecided means the machine returned a decision during this step;
	// the value is available from Decision.
	MachineDecided
	// MachineHalted means the machine returned without deciding (a
	// non-participant), mirroring a Body returning (0, false).
	MachineHalted
)

// MachineContext carries the per-process identity the runner assigns before
// the first step — the machine-world analogue of Proc.ID/Proc.N.
type MachineContext struct {
	// ID is the process identity (slot index in the machines slice).
	ID PID
	// N is the total number of processes in the system.
	N int
	// Log is the run's access log (nil when the run is not recorded). A
	// machine must hand it to every Direct* accessor it calls, so the
	// step's shared-object access set is observable; with a nil log the
	// accessors are no-ops and cost one branch.
	Log *AccessLog
	// Queries is the run's detector-query seam (nil when queries are not
	// recorded). A machine must route every failure detector query through
	// it (fd.QueryAt, or QuerySeam.Query directly), so the query is
	// observable as a read of the history's virtual object; a nil seam
	// evaluates oracles directly and costs one branch.
	Queries *QuerySeam
}

// StepMachine is a process automaton in resumable form: where a Body blocks
// inside Proc.Step for each grant, a StepMachine *returns* between steps and
// stores its control state explicitly. Each Step call must perform exactly
// one atomic operation (one shared-object access, failure detector query or
// yield) and may follow it with any amount of process-local computation; this
// is exactly the atomicity granularity Proc.Step gives a Body.
//
// Because the runner is single-threaded, machines access shared objects
// directly (memory.Register.DirectRead, memory.DirectSnapshot, …) instead of
// going through Proc: with one machine stepping at a time, every access is
// trivially atomic.
type StepMachine interface {
	// Init is called at the start of every run, before the machine's first
	// step, and restores the machine's full initial state: a machine whose
	// shared memory has been reset may be handed to a new run, and that run
	// must behave exactly like one on a freshly built machine.
	Init(ctx MachineContext)
	// Step performs the machine's next atomic step at time t.
	Step(t Time) MachineStatus
	// Decision returns the decision value; valid only after Step returned
	// MachineDecided.
	Decision() Value
}

// machState mirrors the goroutine runner's procState for machines. Machines
// have no "awaited" state: they are always either runnable, returned or dead.
type machState uint8

const (
	machLive machState = iota
	machReturned
	machDead
)

// RunMachines executes one StepMachine per process under the given
// configuration and returns the run report. It is the coroutine-free
// counterpart of Run and follows the same scheduling rules step for step, so
// that an algorithm ported faithfully from Body to StepMachine produces an
// identical Report under an identical Config.
//
// Differences from Run: Config.Tracer receives events with the generic label
// "step" (machines do not carry human-readable step labels), and a machine
// cannot return before its first step (no ported protocol does).
func RunMachines(cfg Config, machines []StepMachine) (*Report, error) {
	n := cfg.Pattern.N()
	if len(machines) != n {
		panic(fmt.Sprintf("sim: %d machines for %d processes", len(machines), n))
	}
	if cfg.Schedule == nil {
		panic("sim: nil Schedule")
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = DefaultBudget
	}

	states := make([]machState, n)
	rep := &Report{
		Decided:   make(map[PID]Value),
		DecidedAt: make(map[PID]Time),
		StepsBy:   make([]int64, n),
		Accesses:  cfg.AccessLog,
	}
	for i := range machines {
		machines[i].Init(MachineContext{ID: PID(i), N: n, Log: cfg.AccessLog, Queries: cfg.Queries})
	}

	// crashLive marks every still-live machine crashed — the machine-world
	// equivalent of the goroutine runner's poisonAllPending, which the report
	// observes as membership in Crashed.
	crashLive := func() {
		for i := range states {
			if states[i] == machLive {
				states[i] = machDead
				rep.Crashed = rep.Crashed.Add(PID(i))
			}
		}
	}

	var t Time
	for {
		next := t + 1
		for i := range states {
			if states[i] == machLive && cfg.Pattern.CrashAt(PID(i)) <= next {
				states[i] = machDead
				rep.Crashed = rep.Crashed.Add(PID(i))
			}
		}
		var enabled Set
		for i := range states {
			if states[i] == machLive {
				enabled = enabled.Add(PID(i))
			}
		}
		if enabled.IsEmpty() {
			break // every process returned or crashed
		}
		if rep.Steps >= budget {
			rep.BudgetExhausted = true
			crashLive()
			break
		}

		pid := cfg.Schedule.Next(next, enabled)
		if !enabled.Has(pid) {
			panic(fmt.Sprintf("sim: schedule chose %v not in enabled %v", pid, enabled))
		}
		t = next
		cfg.AccessLog.BeginStep()
		cfg.Queries.OnStep(t)
		status := machines[pid].Step(t)
		cfg.AccessLog.EndStep(pid)
		rep.Steps++
		rep.StepsBy[pid]++
		if cfg.Tracer != nil {
			cfg.Tracer(Event{T: t, P: pid, Label: "step"})
		}
		switch status {
		case MachineDecided:
			states[pid] = machReturned
			rep.Decided[pid] = machines[pid].Decision()
			rep.DecidedAt[pid] = t
		case MachineHalted:
			states[pid] = machReturned
			rep.Halted = rep.Halted.Add(pid)
		}

		if cfg.StopWhen != nil && cfg.StopWhen(t) {
			rep.Stopped = true
			crashLive()
			break
		}
	}

	for _, pid := range cfg.Pattern.Correct().Members() {
		if states[pid] != machReturned {
			return rep, fmt.Errorf("%w (pattern %v, %d steps)", ErrBudgetExhausted, cfg.Pattern, rep.Steps)
		}
	}
	return rep, nil
}

// MachineTaskSet holds one logical process's parallel task machines, the
// machine-world TaskSet.
type MachineTaskSet []StepMachine

// RunTaskMachines is RunMachines generalized to multi-task processes,
// mirroring RunTasks: all tasks of process i share identity PID i, every
// atomic step belongs to exactly one task, the schedule decides which
// *process* steps and the runner rotates among that process's live tasks. A
// process decides when any of its tasks does; the run ends successfully as
// soon as every correct process has decided.
func RunTaskMachines(cfg Config, tasks []MachineTaskSet) (*Report, error) {
	n := cfg.Pattern.N()
	if len(tasks) != n {
		panic(fmt.Sprintf("sim: %d task sets for %d processes", len(tasks), n))
	}
	if cfg.Schedule == nil {
		panic("sim: nil Schedule")
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = DefaultBudget
	}

	type slot struct {
		pid   PID
		m     StepMachine
		state machState
	}
	var slots []slot
	taskIdx := make([][]int, n) // taskIdx[pid] lists slot indices
	for i := 0; i < n; i++ {
		if len(tasks[i]) == 0 {
			panic(fmt.Sprintf("sim: process %d has no tasks", i))
		}
		taskIdx[i] = make([]int, len(tasks[i]))
		for k, m := range tasks[i] {
			m.Init(MachineContext{ID: PID(i), N: n, Log: cfg.AccessLog, Queries: cfg.Queries})
			taskIdx[i][k] = len(slots)
			slots = append(slots, slot{pid: PID(i), m: m, state: machLive})
		}
	}

	rep := &Report{
		Decided:   make(map[PID]Value),
		DecidedAt: make(map[PID]Time),
		StepsBy:   make([]int64, n),
		Accesses:  cfg.AccessLog,
	}
	rotate := make([]int, n) // last-granted task index per process

	crashLive := func() {
		for i := range slots {
			if slots[i].state == machLive {
				slots[i].state = machDead
				rep.Crashed = rep.Crashed.Add(slots[i].pid)
			}
		}
	}
	correct := cfg.Pattern.Correct()
	allCorrectDecided := func() bool {
		// Checked once per step: iterate the bitset directly, no allocation.
		for s := correct; s != 0; s &= s - 1 {
			if _, ok := rep.Decided[s.Min()]; !ok {
				return false
			}
		}
		return true
	}

	var t Time
	for {
		if allCorrectDecided() {
			crashLive()
			break
		}
		next := t + 1
		for i := range slots {
			if slots[i].state == machLive && cfg.Pattern.CrashAt(slots[i].pid) <= next {
				slots[i].state = machDead
				rep.Crashed = rep.Crashed.Add(slots[i].pid)
			}
		}
		var enabled Set
		for i := range slots {
			if slots[i].state == machLive {
				enabled = enabled.Add(slots[i].pid)
			}
		}
		if enabled.IsEmpty() {
			break
		}
		if rep.Steps >= budget {
			rep.BudgetExhausted = true
			crashLive()
			break
		}

		pid := cfg.Schedule.Next(next, enabled)
		if !enabled.Has(pid) {
			panic(fmt.Sprintf("sim: schedule chose %v not in enabled %v", pid, enabled))
		}
		procTasks := taskIdx[pid]
		chosen := -1
		for k := 1; k <= len(procTasks); k++ {
			cand := (rotate[pid] + k) % len(procTasks)
			if slots[procTasks[cand]].state == machLive {
				chosen = cand
				break
			}
		}
		if chosen < 0 {
			panic("sim: enabled process has no live task")
		}
		rotate[pid] = chosen
		s := &slots[procTasks[chosen]]
		t = next
		cfg.AccessLog.BeginStep()
		cfg.Queries.OnStep(t)
		status := s.m.Step(t)
		cfg.AccessLog.EndStep(pid)
		rep.Steps++
		rep.StepsBy[pid]++
		if cfg.Tracer != nil {
			cfg.Tracer(Event{T: t, P: pid, Label: "step"})
		}
		switch status {
		case MachineDecided:
			s.state = machReturned
			if _, dup := rep.Decided[pid]; !dup {
				rep.Decided[pid] = s.m.Decision()
				rep.DecidedAt[pid] = t
			}
		case MachineHalted:
			s.state = machReturned
			if !rep.Halted.Has(pid) {
				rep.Halted = rep.Halted.Add(pid)
			}
		}

		if cfg.StopWhen != nil && cfg.StopWhen(t) {
			rep.Stopped = true
			crashLive()
			break
		}
	}

	if !allCorrectDecided() {
		return rep, fmt.Errorf("%w (pattern %v, %d steps)", ErrBudgetExhausted, cfg.Pattern, rep.Steps)
	}
	return rep, nil
}
