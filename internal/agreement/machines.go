package agreement

import (
	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// Step-machine ports of the baseline algorithm bodies for sim.RunMachines.
// As in internal/core, each machine mirrors its Body operation for operation
// so the two runners produce identical Reports; see core/machines.go for the
// conventions.

// ---------------------------------------------------------------------------
// Consensus from Ω

const (
	ocReadD     uint8 = iota // poll the decision register
	ocQuery                  // query Ω
	ocLastRead               // catch up on the round's announced pick
	ocConv                   // leader: 1-converge[r]
	ocLastWrite              // announce the pick
	ocWriteD                 // commit: write D and decide
)

type omegaConsensusMachine struct {
	c        *OmegaConsensus
	input    sim.Value
	me       sim.PID
	v        sim.Value
	r        int
	conv     converge.Machine
	log      *sim.AccessLog
	seam     *sim.QuerySeam
	pc       uint8
	decision sim.Value
}

// Machine returns the consensus automaton proposing the given value in
// resumable step-machine form.
func (c *OmegaConsensus) Machine(input sim.Value) sim.StepMachine {
	return &omegaConsensusMachine{c: c, input: input}
}

func (m *omegaConsensusMachine) Init(ctx sim.MachineContext) {
	*m = omegaConsensusMachine{
		c: m.c, input: m.input, conv: m.conv,
		me: ctx.ID, log: ctx.Log, seam: ctx.Queries,
		v: m.input, r: 1, pc: ocReadD,
	}
	m.conv.Bind(ctx)
}

func (m *omegaConsensusMachine) Decision() sim.Value { return m.decision }

func (m *omegaConsensusMachine) Step(t sim.Time) sim.MachineStatus {
	c := m.c
	switch m.pc {
	case ocReadD:
		if d := c.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		m.pc = ocQuery
	case ocQuery:
		if fd.QueryAt[sim.PID](m.seam, c.omega, m.me, t) != m.me {
			m.pc = ocReadD // not the leader: poll again
		} else {
			m.pc = ocLastRead
		}
	case ocLastRead:
		if w := c.last.at(m.r).DirectRead(m.log); w.OK {
			m.v = w.V
			m.r++
			m.pc = ocReadD
		} else {
			m.conv.Start(c.conv.At(m.r, 0, 1), m.v) // k = 1: never immediate
			m.pc = ocConv
		}
	case ocConv:
		if m.conv.StepOp() {
			m.v = m.conv.Picked
			m.pc = ocLastWrite
		}
	case ocLastWrite:
		c.last.at(m.r).DirectWrite(m.log, memory.Some(m.v))
		if m.conv.Committed {
			m.pc = ocWriteD
		} else {
			m.r++
			m.pc = ocReadD
		}
	case ocWriteD:
		c.d.DirectWrite(m.log, memory.Some(m.v))
		m.decision = m.v
		return sim.MachineDecided
	}
	return sim.MachineRunning
}

// ---------------------------------------------------------------------------
// n−1-set agreement from Ωn

const (
	onReadD    uint8 = iota // round top: poll the decision register
	onQuery                 // query Ωn
	onAnnWrite              // member: announce own value
	onAnnRead               // read one member's announcement
	onReadD2                // loop bottom: poll the decision register
	onConv                  // (n−1)-converge[r]
	onWriteD                // commit: write D and decide
)

type omegaNSetAgreementMachine struct {
	a        *OmegaNSetAgreement
	input    sim.Value
	me       sim.PID
	v        sim.Value
	r        int
	ann      *memory.Array[memory.Opt[sim.Value]]
	l        sim.Set
	rest     sim.Set // members of l not yet read this pass
	adopted  bool
	conv     converge.Machine
	log      *sim.AccessLog
	seam     *sim.QuerySeam
	pc       uint8
	decision sim.Value
}

// Machine returns the set-agreement automaton proposing the given value in
// resumable step-machine form.
func (a *OmegaNSetAgreement) Machine(input sim.Value) sim.StepMachine {
	return &omegaNSetAgreementMachine{a: a, input: input}
}

func (m *omegaNSetAgreementMachine) Init(ctx sim.MachineContext) {
	*m = omegaNSetAgreementMachine{
		a: m.a, input: m.input, conv: m.conv,
		me: ctx.ID, log: ctx.Log, seam: ctx.Queries,
		v: m.input, r: 1, pc: onReadD,
	}
	m.conv.Bind(ctx)
}

func (m *omegaNSetAgreementMachine) Decision() sim.Value { return m.decision }

func (m *omegaNSetAgreementMachine) Step(t sim.Time) sim.MachineStatus {
	a := m.a
	switch m.pc {
	case onReadD:
		if d := a.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		m.ann = a.ann.at(m.r)
		m.adopted = false
		m.pc = onQuery
	case onQuery:
		m.l = fd.QueryAt[sim.Set](m.seam, a.omegaN, m.me, t)
		if m.l.Has(m.me) {
			m.pc = onAnnWrite
		} else if m.rest = m.l; m.rest.IsEmpty() {
			m.pc = onReadD2
		} else {
			m.pc = onAnnRead
		}
	case onAnnWrite:
		m.ann.DirectWrite(m.log, m.me, memory.Some(m.v))
		if m.rest = m.l; m.rest.IsEmpty() {
			m.pc = onReadD2
		} else {
			m.pc = onAnnRead
		}
	case onAnnRead:
		j := m.rest.Min()
		m.rest = m.rest.Remove(j)
		if w := m.ann.DirectRead(m.log, j); w.OK {
			m.v = w.V
			m.adopted = true
			m.pc = onReadD2
		} else if m.rest.IsEmpty() {
			m.pc = onReadD2
		}
	case onReadD2:
		if d := a.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		if m.adopted {
			m.conv.Start(a.conv.At(m.r, 0, a.n-1), m.v) // n ≥ 2: never immediate
			m.pc = onConv
		} else {
			m.pc = onQuery
		}
	case onConv:
		if m.conv.StepOp() {
			m.v = m.conv.Picked
			if m.conv.Committed {
				m.pc = onWriteD
			} else {
				m.r++
				m.pc = onReadD
			}
		}
	case onWriteD:
		a.d.DirectWrite(m.log, memory.Some(m.v))
		m.decision = m.v
		return sim.MachineDecided
	}
	return sim.MachineRunning
}

// ---------------------------------------------------------------------------
// FD-free attempt

const (
	aaReadD uint8 = iota
	aaConv
	aaWriteD
)

type asyncAttemptMachine struct {
	a        *AsyncAttempt
	input    sim.Value
	me       sim.PID
	v        sim.Value
	r        int
	conv     converge.Machine
	log      *sim.AccessLog
	pc       uint8
	decision sim.Value
}

// Machine returns the FD-free automaton proposing the given value in
// resumable step-machine form.
func (a *AsyncAttempt) Machine(input sim.Value) sim.StepMachine {
	return &asyncAttemptMachine{a: a, input: input}
}

func (m *asyncAttemptMachine) Init(ctx sim.MachineContext) {
	*m = asyncAttemptMachine{
		a: m.a, input: m.input, conv: m.conv,
		me: ctx.ID, log: ctx.Log,
		v: m.input, r: 1, pc: aaReadD,
	}
	m.conv.Bind(ctx)
}

func (m *asyncAttemptMachine) Decision() sim.Value { return m.decision }

func (m *asyncAttemptMachine) Step(_ sim.Time) sim.MachineStatus {
	a := m.a
	switch m.pc {
	case aaReadD:
		if d := a.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		if m.conv.Start(a.conv.At(m.r, 0, a.n-1), m.v) {
			// 0-converge (n = 1): picked = v, never committed; spin.
			m.r++
		} else {
			m.pc = aaConv
		}
	case aaConv:
		if m.conv.StepOp() {
			m.v = m.conv.Picked
			if m.conv.Committed {
				m.pc = aaWriteD
			} else {
				m.r++
				m.pc = aaReadD
			}
		}
	case aaWriteD:
		a.d.DirectWrite(m.log, memory.Some(m.v))
		m.decision = m.v
		return sim.MachineDecided
	}
	return sim.MachineRunning
}

// ---------------------------------------------------------------------------
// Boosted consensus from Ωn and n-process consensus objects

const (
	bReadD uint8 = iota
	bQuery
	bPropose
	bAnnWrite
	bAnnRead
	bReadD2
	bConv
	bWriteD
)

type boostedMachine struct {
	b        *BoostedConsensus
	input    sim.Value
	me       sim.PID
	v        sim.Value
	won      sim.Value
	r        int
	ann      *memory.Array[memory.Opt[sim.Value]]
	l        sim.Set
	rest     sim.Set
	adopted  bool
	conv     converge.Machine
	log      *sim.AccessLog
	seam     *sim.QuerySeam
	pc       uint8
	decision sim.Value
}

// Machine returns the boosted-consensus automaton proposing the given value
// in resumable step-machine form.
func (b *BoostedConsensus) Machine(input sim.Value) sim.StepMachine {
	return &boostedMachine{b: b, input: input}
}

func (m *boostedMachine) Init(ctx sim.MachineContext) {
	*m = boostedMachine{
		b: m.b, input: m.input, conv: m.conv,
		me: ctx.ID, log: ctx.Log, seam: ctx.Queries,
		v: m.input, r: 1, pc: bReadD,
	}
	m.conv.Bind(ctx)
}

func (m *boostedMachine) Decision() sim.Value { return m.decision }

func (m *boostedMachine) Step(t sim.Time) sim.MachineStatus {
	b := m.b
	switch m.pc {
	case bReadD:
		if d := b.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		m.ann = b.ann.at(m.r)
		m.adopted = false
		m.pc = bQuery
	case bQuery:
		m.l = fd.QueryAt[sim.Set](m.seam, b.omegaN, m.me, t)
		if m.l.Has(m.me) {
			m.pc = bPropose
		} else if m.rest = m.l; m.rest.IsEmpty() {
			m.pc = bReadD2
		} else {
			m.pc = bAnnRead
		}
	case bPropose:
		// Funnel through the object keyed by this exact view.
		m.won = b.cons.At(m.r, m.l).DirectPropose(m.log, m.me, m.v)
		m.pc = bAnnWrite
	case bAnnWrite:
		m.ann.DirectWrite(m.log, m.me, memory.Some(m.won))
		m.v = m.won
		// adopted via the leader path: skip the decision poll (the body
		// breaks out of the adoption loop before it).
		m.conv.Start(b.conv.At(m.r, 0, 1), m.v)
		m.pc = bConv
	case bAnnRead:
		j := m.rest.Min()
		m.rest = m.rest.Remove(j)
		if w := m.ann.DirectRead(m.log, j); w.OK {
			m.v = w.V
			m.adopted = true
			m.pc = bReadD2
		} else if m.rest.IsEmpty() {
			m.pc = bReadD2
		}
	case bReadD2:
		if d := b.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		if m.adopted {
			m.conv.Start(b.conv.At(m.r, 0, 1), m.v)
			m.pc = bConv
		} else {
			m.pc = bQuery
		}
	case bConv:
		if m.conv.StepOp() {
			m.v = m.conv.Picked
			if m.conv.Committed {
				m.pc = bWriteD
			} else {
				m.r++
				m.pc = bReadD
			}
		}
	case bWriteD:
		b.d.DirectWrite(m.log, memory.Some(m.v))
		m.decision = m.v
		return sim.MachineDecided
	}
	return sim.MachineRunning
}
