package memory

import (
	"fmt"

	"weakestfd/internal/sim"
)

// Snapshot is an atomic snapshot object with n positions (paper Section 5.3):
// Update(i, v) writes v into position i and Scan returns the contents of all
// positions, such that all scans are related by containment (each position of
// one scan is the same or a more recent write than the other's).
//
// Two implementations are provided: AtomicSnapshot performs each operation in
// one simulator step (justified by the implementability result of Afek et
// al., the paper's [1]), and AfekSnapshot is that very construction from
// single-writer registers, so that the "registers only" claim of the paper's
// algorithms can be exercised end to end.
type Snapshot[T any] interface {
	// Update writes v into position i. Processes only update their own
	// position in the paper's protocols, but the object does not require it.
	Update(p *sim.Proc, i sim.PID, v T)
	// Scan returns the contents of all n positions; absent positions (never
	// updated) are None.
	Scan(p *sim.Proc) []Opt[T]
	// N returns the number of positions.
	N() int
	// Reset restores every position to ⊥ without taking a step, so a run's
	// shared state can be recycled for the next run. It is bookkeeping
	// between runs, never an operation of a protocol.
	Reset()
}

// SnapshotFactory builds snapshot objects; protocols that need families of
// snapshot objects (one per round/sub-round) take a factory so experiments
// can switch implementations.
type SnapshotFactory[T any] func(name string, n int) Snapshot[T]

// NewAtomicSnapshot returns a snapshot object whose Update and Scan each
// take one atomic step.
func NewAtomicSnapshot[T any](name string, n int) Snapshot[T] {
	return &atomicSnapshot[T]{name: name, cells: make([]Opt[T], n)}
}

var _ SnapshotFactory[int] = NewAtomicSnapshot[int]

type atomicSnapshot[T any] struct {
	name  string
	cells []Opt[T]

	// cellIDs caches the per-position interned identities in logRef; see
	// atomicSnapshot.cellID in direct.go.
	cellIDs []sim.ObjID
	logRef  *sim.AccessLog
}

func (s *atomicSnapshot[T]) N() int { return len(s.cells) }

// Reset implements Snapshot. The name and the cached per-position log
// identities are kept, so a reset snapshot recorded into the same AccessLog
// neither formats nor interns its cell names again.
func (s *atomicSnapshot[T]) Reset() { clear(s.cells) }

func (s *atomicSnapshot[T]) Update(p *sim.Proc, i sim.PID, v T) {
	p.Step("update "+s.name, func() { s.cells[i] = Some(v) })
}

func (s *atomicSnapshot[T]) Scan(p *sim.Proc) []Opt[T] {
	out := make([]Opt[T], len(s.cells))
	p.Step("scan "+s.name, func() { copy(out, s.cells) })
	return out
}

// afekCell is the content of one single-writer register in the Afek et al.
// construction: the value, an unbounded sequence number, and the embedded
// scan the writer performed just before this write (used for helping).
type afekCell[T any] struct {
	val  Opt[T]
	seq  int64
	view []Opt[T] // embedded scan; nil until first update
}

// NewAfekSnapshot returns a wait-free atomic snapshot implemented from
// single-writer multi-reader registers (Afek et al., J. ACM 40(4), 1993,
// unbounded-register version):
//
//   - Update(i, v): perform an embedded scan, then write (v, seq+1, scan) to
//     register i.
//   - Scan: repeatedly collect all registers. If two successive collects are
//     identical (no sequence number changed), the double collect is a valid
//     snapshot. Otherwise, a writer moved; once some writer has been observed
//     to move twice since the scan began, its embedded view was taken
//     entirely within this scan's interval and is returned (helping).
//
// Each collect costs n register-read steps, and an update costs a scan plus
// one write, so operations cost O(n²) steps — the price of registers-only.
func NewAfekSnapshot[T any](name string, n int) Snapshot[T] {
	return &afekSnapshot[T]{name: name, regs: NewArray[afekCell[T]](name, n)}
}

var _ SnapshotFactory[int] = NewAfekSnapshot[int]

type afekSnapshot[T any] struct {
	name string
	regs *Array[afekCell[T]]
}

func (s *afekSnapshot[T]) N() int { return s.regs.N() }

func (s *afekSnapshot[T]) Reset() { s.regs.Reset() }

func (s *afekSnapshot[T]) Update(p *sim.Proc, i sim.PID, v T) {
	view := s.Scan(p)
	cur := s.regs.Read(p, i)
	s.regs.Write(p, i, afekCell[T]{val: Some(v), seq: cur.seq + 1, view: view})
}

func (s *afekSnapshot[T]) Scan(p *sim.Proc) []Opt[T] {
	n := s.regs.N()
	moved := make([]int, n)
	prev := s.regs.Collect(p)
	for {
		cur := s.regs.Collect(p)
		same := true
		for j := 0; j < n; j++ {
			if cur[j].seq != prev[j].seq {
				same = false
				break
			}
		}
		if same {
			return values(cur)
		}
		for j := 0; j < n; j++ {
			if cur[j].seq == prev[j].seq {
				continue
			}
			moved[j]++
			if moved[j] >= 2 {
				// j's latest update embeds a scan that started after our
				// scan began; borrow it.
				view := make([]Opt[T], n)
				copy(view, cur[j].view)
				return view
			}
		}
		prev = cur
	}
}

func values[T any](cells []afekCell[T]) []Opt[T] {
	out := make([]Opt[T], len(cells))
	for i, c := range cells {
		out[i] = c.val
	}
	return out
}

// CountSome returns the number of present entries in a scan result — the
// paper's "snapshot with at least n+1−f non-⊥ values" test.
func CountSome[T any](scan []Opt[T]) int {
	n := 0
	for _, c := range scan {
		if c.OK {
			n++
		}
	}
	return n
}

// ScanString renders a scan result for traces and examples.
func ScanString[T any](scan []Opt[T]) string {
	out := "["
	for i, c := range scan {
		if i > 0 {
			out += " "
		}
		if c.OK {
			out += fmt.Sprint(c.V)
		} else {
			out += "⊥"
		}
	}
	return out + "]"
}
