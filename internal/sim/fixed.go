package sim

// FixedSchedule replays an explicit grant sequence: step i of the run goes to
// Prefix[i], and once the prefix is exhausted the schedule continues
// round-robin over the enabled processes in PID order, as RoundRobin does
// from a fresh start. It is the replay hook of the schedule-space explorer
// (internal/explore): a counterexample artifact carries the granted PID
// sequence of a violating run, and re-executing it through a FixedSchedule
// reproduces that run step for step.
//
// A prefix entry that is not enabled at its turn (possible when a shrinker
// mutates the sequence, or when the program under replay changed) does not
// fault the run: the schedule falls through to round-robin for that step
// and records the divergence. Every schedule is a legal adversary, so a
// diverged replay is still a valid run — it just no longer retraces the
// original one.
//
// One FixedSchedule may drive many runs: Reset rewinds it to a new prefix,
// so a search replaying thousands of prefixes builds the schedule once.
type FixedSchedule struct {
	// Prefix is the grant sequence to replay, one PID per step.
	Prefix []PID
	// OnGrant, when non-nil, observes every scheduling decision: the 0-based
	// step index, the time, the enabled set and the granted PID. The explorer
	// uses it to learn branch points; replay uses it for step traces.
	OnGrant func(idx int, t Time, enabled Set, chosen PID)

	pos      int
	diverged bool
	// rr is where the round-robin fallback resumes its search: one past its
	// last grant, 0 before its first.
	rr PID
}

// NewFixedSchedule returns a FixedSchedule over the given prefix with a
// round-robin fallback.
func NewFixedSchedule(prefix []PID) *FixedSchedule {
	return &FixedSchedule{Prefix: prefix}
}

// Reset rewinds the schedule to replay prefix from the first step, with a
// fresh round-robin fallback and no recorded divergence. OnGrant is kept.
func (s *FixedSchedule) Reset(prefix []PID) {
	s.Prefix = prefix
	s.pos = 0
	s.diverged = false
	s.rr = 0
}

// Next implements Schedule.
func (s *FixedSchedule) Next(t Time, enabled Set) PID {
	idx := s.pos
	s.pos++
	var pick PID
	switch {
	case idx < len(s.Prefix) && enabled.Has(s.Prefix[idx]):
		pick = s.Prefix[idx]
	default:
		if idx < len(s.Prefix) {
			s.diverged = true
		}
		// Round-robin: the lowest enabled PID at or after rr, wrapping
		// around to the lowest enabled one.
		pick = enabled.Min()
		if later := enabled &^ (Set(1)<<uint(s.rr) - 1); !later.IsEmpty() {
			pick = later.Min()
		}
		s.rr = (pick + 1) % MaxProcs
	}
	if s.OnGrant != nil {
		s.OnGrant(idx, t, enabled, pick)
	}
	return pick
}

// Granted returns how many steps the schedule has granted so far.
func (s *FixedSchedule) Granted() int { return s.pos }

// Diverged reports whether some prefix entry was skipped because its process
// was not enabled at its turn.
func (s *FixedSchedule) Diverged() bool { return s.diverged }

var _ Schedule = (*FixedSchedule)(nil)
