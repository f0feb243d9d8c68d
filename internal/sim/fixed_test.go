package sim

import (
	"reflect"
	"testing"
)

func TestFixedScheduleReplaysPrefix(t *testing.T) {
	prefix := []PID{2, 0, 2, 1}
	s := NewFixedSchedule(prefix)
	var grants []PID
	s.OnGrant = func(idx int, _ Time, _ Set, chosen PID) {
		if idx != len(grants) {
			t.Fatalf("OnGrant idx %d, want %d", idx, len(grants))
		}
		grants = append(grants, chosen)
	}
	enabled := SetOf(0, 1, 2)
	for i := 0; i < len(prefix); i++ {
		if got := s.Next(Time(i+1), enabled); got != prefix[i] {
			t.Fatalf("step %d: got %v, want %v", i, got, prefix[i])
		}
	}
	if s.Diverged() {
		t.Fatal("fully-enabled prefix reported divergence")
	}
	// Past the prefix: round-robin fallback (fresh, starts at p1).
	if got := s.Next(5, enabled); got != 0 {
		t.Fatalf("fallback step: got %v, want p1 (fresh round-robin)", got)
	}
	if s.Granted() != 5 {
		t.Fatalf("granted %d, want 5", s.Granted())
	}
}

func TestFixedScheduleDivergesOnDisabledEntry(t *testing.T) {
	s := NewFixedSchedule([]PID{1, 0})
	// p2 is not enabled: the schedule must fall through, not fault.
	got := s.Next(1, SetOf(0, 2))
	if got == 1 {
		t.Fatal("granted a disabled process")
	}
	if !s.Diverged() {
		t.Fatal("skipped prefix entry not reported as divergence")
	}
	// The next prefix entry still applies.
	if got := s.Next(2, SetOf(0, 2)); got != 0 {
		t.Fatalf("second step: got %v, want p1", got)
	}
}

// TestFixedScheduleReset drives one schedule through several prefixes,
// diverging on some: after Reset it must grant exactly what a new
// FixedSchedule over the same prefix grants, including the round-robin
// fallback's rotation from a fresh start.
func TestFixedScheduleReset(t *testing.T) {
	enabled := []Set{SetOf(0, 1, 2), SetOf(0, 2), SetOf(1, 2), SetOf(0, 1, 2), SetOf(0, 1), SetOf(2), SetOf(0, 1, 2), SetOf(0, 1, 2)}
	grants := func(s *FixedSchedule) ([]PID, bool) {
		var out []PID
		for i, e := range enabled {
			out = append(out, s.Next(Time(i+1), e))
		}
		return out, s.Diverged()
	}
	reused := NewFixedSchedule(nil)
	for _, prefix := range [][]PID{{2, 0}, {1, 1, 1}, nil, {0, 2, 2, 1, 0, 2, 1, 1}, {2}} {
		reused.Reset(prefix)
		got, gotDiv := grants(reused)
		want, wantDiv := grants(NewFixedSchedule(prefix))
		if !reflect.DeepEqual(got, want) || gotDiv != wantDiv {
			t.Errorf("prefix %v: reset schedule granted %v (diverged %v), fresh %v (diverged %v)", prefix, got, gotDiv, want, wantDiv)
		}
		if reused.Granted() != len(enabled) {
			t.Errorf("prefix %v: Granted() = %d, want %d", prefix, reused.Granted(), len(enabled))
		}
	}
}

// TestFixedScheduleFallbackMatchesRoundRobin pins the built-in fallback to
// RoundRobin's rotation over shrinking and regrowing enabled sets.
func TestFixedScheduleFallbackMatchesRoundRobin(t *testing.T) {
	s := NewFixedSchedule(nil)
	rr := RoundRobin()
	sets := []Set{SetOf(0, 1, 2, 3), SetOf(0, 3), SetOf(1, 2), SetOf(0), SetOf(2, 3), SetOf(0, 1, 2, 3), SetOf(3), SetOf(0, 1), SetOf(63, 5), SetOf(0, 63)}
	for i := 0; i < 4*len(sets); i++ {
		e := sets[i%len(sets)]
		if got, want := s.Next(Time(i+1), e), rr.Next(Time(i+1), e); got != want {
			t.Fatalf("step %d over %v: fallback granted %v, RoundRobin %v", i, e, got, want)
		}
	}
}
