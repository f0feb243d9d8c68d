package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestBudgetErrorMessage pins the error every runner returns when a correct
// process has not returned: byte-identical to the message the runners used
// to build eagerly with fmt.Errorf, and still ErrBudgetExhausted under
// errors.Is.
func TestBudgetErrorMessage(t *testing.T) {
	pattern := CrashPattern(3, map[PID]Time{0: 5})
	cfg := Config{Pattern: pattern, Schedule: RoundRobin(), Budget: 12}
	spin := []StepMachine{spinMachine{}, spinMachine{}, spinMachine{}}
	for _, tc := range []struct {
		name string
		run  func() (*Report, error)
	}{
		{"Run", func() (*Report, error) {
			cfg := cfg
			cfg.Schedule = RoundRobin()
			return Run(cfg, []Body{spinBody, spinBody, spinBody})
		}},
		{"RunMachines", func() (*Report, error) {
			cfg := cfg
			cfg.Schedule = RoundRobin()
			return RunMachines(cfg, spin)
		}},
		{"RunTaskMachines", func() (*Report, error) {
			cfg := cfg
			cfg.Schedule = RoundRobin()
			return RunTaskMachines(cfg, []MachineTaskSet{{spinMachine{}}, {spinMachine{}}, {spinMachine{}}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := tc.run()
			if err == nil {
				t.Fatal("spinning correct processes returned no error")
			}
			if !errors.Is(err, ErrBudgetExhausted) {
				t.Errorf("errors.Is(%v, ErrBudgetExhausted) = false", err)
			}
			if rep.Steps != 12 {
				t.Fatalf("run took %d steps, want the budget 12", rep.Steps)
			}
			want := fmt.Errorf("%w (pattern %v, %d steps)", ErrBudgetExhausted, pattern, rep.Steps).Error()
			if got := err.Error(); got != want {
				t.Errorf("message\n got  %q\n want %q", got, want)
			}
		})
	}
}

// TestRunMachinesIntoReusesReport fills one Report with runs of different
// shapes: each must equal the Report a fresh RunMachines call produces.
func TestRunMachinesIntoReusesReport(t *testing.T) {
	runs := []struct {
		cfg      Config
		machines func() []StepMachine
	}{
		{Config{Pattern: FailFree(3), Budget: 50}, func() []StepMachine {
			return []StepMachine{
				&countdownMachine{steps: 3, val: 7, decides: true},
				&countdownMachine{steps: 2, decides: false},
				&countdownMachine{steps: 4, val: 9, decides: true},
			}
		}},
		{Config{Pattern: CrashPattern(2, map[PID]Time{1: 2}), Budget: 6}, func() []StepMachine {
			return []StepMachine{spinMachine{}, spinMachine{}}
		}},
		{Config{Pattern: FailFree(4), Budget: 50}, func() []StepMachine {
			return []StepMachine{
				&countdownMachine{steps: 1, val: 1, decides: true},
				&countdownMachine{steps: 1, val: 2, decides: true},
				&countdownMachine{steps: 1, val: 3, decides: true},
				&countdownMachine{steps: 1, val: 4, decides: true},
			}
		}},
	}
	var reused Report
	for i, r := range runs {
		cfg := r.cfg
		cfg.Schedule = RoundRobin()
		fresh, freshErr := RunMachines(cfg, r.machines())
		cfg.Schedule = RoundRobin()
		err := RunMachinesInto(&reused, cfg, r.machines())
		if (err == nil) != (freshErr == nil) || (err != nil && err.Error() != freshErr.Error()) {
			t.Errorf("run %d: error %v, fresh %v", i, err, freshErr)
		}
		if !reflect.DeepEqual(&reused, fresh) {
			t.Errorf("run %d: reused report\n %+v\nfresh\n %+v", i, reused, *fresh)
		}
	}
}

// TestRunMachinesIntoSteadyStateAllocFree replays runs through one Report
// and one FixedSchedule, as the explorer's searches do: once warm, a run —
// including one that ends with the budget error — allocates nothing.
func TestRunMachinesIntoSteadyStateAllocFree(t *testing.T) {
	machines := []StepMachine{spinMachine{}, spinMachine{}, spinMachine{}}
	prefix := []PID{2, 1, 2, 0}
	pattern := FailFree(3)
	var rep Report
	var sched FixedSchedule
	allocs := testing.AllocsPerRun(20, func() {
		sched.Reset(prefix)
		err := RunMachinesInto(&rep, Config{Pattern: pattern, Schedule: &sched, Budget: 64}, machines)
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("err = %v, want the budget error", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm RunMachinesInto run allocated %.0f objects, want 0", allocs)
	}
}
