package converge

import (
	"fmt"

	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// Machine resumes one Converge call one atomic step at a time, for use
// inside sim.StepMachine protocol automata. Where Converge(p, v) blocks the
// calling goroutine across its four snapshot operations, a Machine performs
// exactly one of them per StepOp call and parks its control state in between,
// producing the same picked value and commit flag as Converge for the same
// interleaving.
//
// One Machine is embedded per process automaton and reused across converge
// instances (Start rebinds it); its scan buffers are reused so the only
// allocation per converge call is the value set that escapes into the shared
// round-2 snapshot — the same allocation the goroutine path performs.
type Machine struct {
	me   sim.PID
	log  *sim.AccessLog
	inst *Instance
	a    memory.DirectSnapshot[sim.Value]
	b    memory.DirectSnapshot[proposal]
	in   sim.Value
	vs   ValueSet
	pc   uint8

	scanA []memory.Opt[sim.Value]
	scanB []memory.Opt[proposal]

	// Picked and Committed hold the call's results once StepOp returned true
	// (or Start returned true for a 0-converge).
	Picked    sim.Value
	Committed bool

	// Adopt, when non-nil, replaces the round-2 adopt rule — what a
	// non-committing process picks when some scan entry proposes commit. The
	// correct rule (minimum of the smallest committing set) is what makes
	// C-Agreement hold; the hook exists solely for mutation testing: the
	// schedule-space explorer (internal/explore) proves it catches the broken
	// protocol variant built on a wrong adopt rule. Protocols never set it.
	Adopt func(in sim.Value, smallest ValueSet) sim.Value
}

// Bind fixes the machine's process identity and the run's instrumentation
// (the access log; nil when the run is not recorded) from the enclosing
// automaton's context and clears any call left over from a previous run;
// call from StepMachine.Init. The scan buffers and the Adopt hook are kept.
func (m *Machine) Bind(ctx sim.MachineContext) {
	*m = Machine{
		me:    ctx.ID,
		log:   ctx.Log,
		scanA: m.scanA[:0],
		scanB: m.scanB[:0],
		Adopt: m.Adopt,
	}
}

// Start prepares one Converge(inst, v) call. It returns true when the call
// completed without any atomic step — the 0-converge case, which by
// definition returns (v, false) immediately; otherwise the caller must drive
// StepOp until it returns true, spending one simulation step per call.
func (m *Machine) Start(inst *Instance, v sim.Value) (done bool) {
	if inst.k == 0 {
		m.Picked, m.Committed = v, false
		return true
	}
	a, ok := memory.AsDirect(inst.a)
	if !ok {
		panic(fmt.Sprintf("converge: instance %T does not support step-free access (use the goroutine runner for the Afek construction)", inst.a))
	}
	b, _ := memory.AsDirect(inst.b)
	m.inst = inst
	m.a, m.b = a, b
	m.in = v
	m.pc = 0
	return false
}

// StepOp performs the call's next atomic operation, returning true when the
// call has completed and Picked/Committed are valid. The operation sequence
// and the pick/commit logic mirror Instance.Converge exactly.
func (m *Machine) StepOp() (done bool) {
	switch m.pc {
	case 0: // round 1 update
		m.a.DirectUpdate(m.log, m.me, m.in)
		m.pc = 1
	case 1: // round 1 scan
		m.scanA = m.a.DirectScan(m.log, m.scanA[:0])
		m.vs = NewValueSet(m.scanA)
		m.pc = 2
	case 2: // round 2 update
		m.b.DirectUpdate(m.log, m.me, proposal{set: m.vs, commit: len(m.vs) <= m.inst.k})
		m.pc = 3
	case 3: // round 2 scan + result
		m.scanB = m.b.DirectScan(m.log, m.scanB[:0])
		allCommit := true
		var smallest ValueSet
		for _, e := range m.scanB {
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
			m.Picked, m.Committed = m.vs.Min(), true
		case smallest != nil:
			if m.Adopt != nil {
				m.Picked, m.Committed = m.Adopt(m.in, smallest), false
			} else {
				m.Picked, m.Committed = smallest.Min(), false
			}
		default:
			m.Picked, m.Committed = m.in, false
		}
		return true
	default:
		panic("converge: StepOp after completion")
	}
	return false
}
