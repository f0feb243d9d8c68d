package explore

import (
	"strings"

	"weakestfd/internal/sim"
)

// witness is a minimized, verified counterexample: the smallest
// configuration and schedule the shrinker could reach on which the violated
// property still fails, with the failure message of the final replay.
type witness struct {
	pattern  sim.Pattern
	oracle   OracleChoice
	schedule []sim.PID
	message  string
}

// shrink minimizes a violating run along three axes, every candidate
// re-replayed from the initial state through a sim.FixedSchedule and
// accepted only if the same property still fails — the result is a verified
// counterexample by construction:
//
//  1. Schedule: binary prefix truncation (the tail after the violation is
//     replaced by the fair fallback), then ddmin-style chunk deletion at
//     halving granularities.
//  2. Pattern: each crash is tentatively dropped (the process becomes
//     correct); a drop is kept when the failure survives, so the witness
//     carries only load-bearing crashes.
//  3. Oracle: every legal detector history for the (possibly shrunk)
//     pattern with a strictly smaller stable set is tried; the witness
//     keeps the smallest on which the failure survives.
//  4. Flips: each pre-stabilization phase of the history is tentatively
//     dropped (stable-from-0 when none remain), and each surviving flip is
//     moved later one grid-free step at a time — so the witness carries
//     only load-bearing output switches, at the latest times that still
//     fail.
//
// A configuration change can make more of the schedule redundant, so a
// successful pattern/oracle shrink re-runs the schedule pass. Replays are
// capped by cfg.ShrinkBudget; the best witness so far is returned when it
// runs out. A witness with an empty message means the original run did not
// reproduce under replay (which deterministic systems never hit).
func shrink(cfg Config, run *Run, prop Property) witness {
	w := witness{
		pattern:  run.Pattern,
		oracle:   run.Oracle,
		schedule: append([]sim.PID(nil), run.Schedule...),
	}
	budget := cfg.ShrinkBudget

	violates := func(pat sim.Pattern, o OracleChoice, sched []sim.PID) (string, bool) {
		if budget <= 0 {
			return "", false
		}
		budget--
		r := execute(cfg.System, pat, o, sim.NewFixedSchedule(sched), cfg.Budget, nil, nil)
		if err := prop.Check(r); err != nil {
			return err.Error(), true
		}
		return "", false
	}

	// The full sequence must reproduce (it is the run's own trace); record
	// its message as the baseline.
	if msg, ok := violates(w.pattern, w.oracle, w.schedule); ok {
		w.message = msg
	} else {
		return w
	}

	shrinkSchedule(&w, violates)
	changed := shrinkPattern(cfg, &w, violates)
	changed = shrinkOracle(cfg, &w, violates) || changed
	changed = shrinkFlips(&w, violates) || changed
	if changed {
		shrinkSchedule(&w, violates)
	}
	return w
}

// shrinkSchedule minimizes w.schedule under the current configuration:
// binary-search the shortest violating prefix, then ddmin-lite chunk
// deletion.
func shrinkSchedule(w *witness, violates func(sim.Pattern, OracleChoice, []sim.PID) (string, bool)) {
	lo, hi := 0, len(w.schedule)
	for lo < hi {
		mid := (lo + hi) / 2
		if msg, ok := violates(w.pattern, w.oracle, w.schedule[:mid]); ok {
			w.message = msg
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	w.schedule = append([]sim.PID(nil), w.schedule[:hi]...)

	for size := len(w.schedule) / 2; size >= 1; size /= 2 {
		for i := 0; i+size <= len(w.schedule); {
			trial := append(append([]sim.PID(nil), w.schedule[:i]...), w.schedule[i+size:]...)
			if msg, ok := violates(w.pattern, w.oracle, trial); ok {
				w.schedule, w.message = trial, msg
				continue // same offset now holds the next chunk
			}
			i++
		}
	}
}

// shrinkPattern drops crashes from the witness pattern while the failure
// survives, keeping the oracle legal for each candidate (an illegal history
// would indict the environment, not the protocol). Returns whether the
// pattern changed.
func shrinkPattern(cfg Config, w *witness, violates func(sim.Pattern, OracleChoice, []sim.PID) (string, bool)) bool {
	changed := false
	for {
		progress := false
		for _, p := range w.pattern.Faulty().Members() {
			cand := dropCrash(w.pattern, p)
			o, legal := matchOracle(cfg.System, cand, w.oracle)
			if !legal {
				continue
			}
			if msg, ok := violates(cand, o, w.schedule); ok {
				w.pattern, w.oracle, w.message = cand, o, msg
				progress, changed = true, true
				break
			}
		}
		if !progress {
			return changed
		}
	}
}

// shrinkOracle replaces the witness oracle with a legal history whose
// stable set is strictly smaller (keeping the witness's flip schedule),
// while the failure survives. Returns whether the oracle changed.
func shrinkOracle(cfg Config, w *witness, violates func(sim.Pattern, OracleChoice, []sim.PID) (string, bool)) bool {
	changed := false
	for {
		progress := false
		for _, o := range cfg.System.Oracles(w.pattern, SwitchPlan{}) {
			if o.Stable.Len() >= w.oracle.Stable.Len() {
				continue
			}
			cand := o.withFlips(w.oracle.Flips)
			if msg, ok := violates(w.pattern, cand, w.schedule); ok {
				w.oracle, w.message = cand, msg
				progress, changed = true, true
				break
			}
		}
		if !progress {
			return changed
		}
	}
}

// shrinkFlips minimizes the witness history's unstable prefix: every phase
// is tentatively dropped (a kept drop removes one output switch; dropping
// all of them yields a stable-from-0 witness), then every surviving flip is
// pushed later one step at a time (capped per flip) while the failure
// survives — the canonical witness flips as rarely and as late as possible.
// Returns whether the flip schedule changed.
func shrinkFlips(w *witness, violates func(sim.Pattern, OracleChoice, []sim.PID) (string, bool)) bool {
	if len(w.oracle.Flips) == 0 {
		return false
	}
	base := baseOracle(w.oracle)
	changed := false
	// Pass 1: drop phases, first-to-last, restarting after each kept drop.
	for {
		progress := false
		for i := range w.oracle.Flips {
			trial := append([]FlipPhase(nil), w.oracle.Flips[:i]...)
			trial = append(trial, w.oracle.Flips[i+1:]...)
			cand := base.withFlips(trial)
			if msg, ok := violates(w.pattern, cand, w.schedule); ok {
				w.oracle, w.message = cand, msg
				progress, changed = true, true
				break
			}
		}
		if !progress {
			break
		}
	}
	// Pass 2: move each remaining flip later, one step at a time.
	const maxLater = 16 // bound the walk; the schedule pass already bounds run length
	for i := 0; i < len(w.oracle.Flips); i++ {
		for moved := 0; moved < maxLater; moved++ {
			trial := append([]FlipPhase(nil), w.oracle.Flips...)
			trial[i].Until++
			if i+1 < len(trial) && trial[i].Until >= trial[i+1].Until {
				break // phases must stay strictly ordered
			}
			cand := base.withFlips(trial)
			msg, ok := violates(w.pattern, cand, w.schedule)
			if !ok {
				break
			}
			w.oracle, w.message, changed = cand, msg, true
		}
	}
	return changed
}

// baseOracle strips a choice's flip schedule, recovering the stable-from-0
// choice the flip variants were built from: the base name withFlips
// remembered, with a display-name parse as the fallback for choices built
// outside the enumeration (artifact replay).
func baseOracle(o OracleChoice) OracleChoice {
	if o.base != "" {
		o.Name = o.base
	} else if i := strings.Index(o.Name, " pre["); i >= 0 {
		o.Name = o.Name[:i]
	}
	o.Flips = nil
	o.base = ""
	return o
}

// dropCrash returns pattern with p made correct.
func dropCrash(pattern sim.Pattern, p sim.PID) sim.Pattern {
	crashes := make(map[sim.PID]sim.Time)
	for _, q := range pattern.Faulty().Members() {
		if q != p {
			crashes[q] = pattern.CrashAt(q)
		}
	}
	return sim.CrashPattern(pattern.N(), crashes)
}

// matchOracle finds the system's enumerated oracle for pattern whose stable
// set equals o's (re-attaching o's flip schedule), reporting false when o is
// not legal for pattern.
func matchOracle(sys System, pattern sim.Pattern, o OracleChoice) (OracleChoice, bool) {
	for _, c := range sys.Oracles(pattern, SwitchPlan{}) {
		if c.Stable == o.Stable {
			return c.withFlips(o.Flips), true
		}
	}
	return OracleChoice{}, false
}
