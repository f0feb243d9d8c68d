package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"weakestfd/internal/explore"
	"weakestfd/internal/sim"
)

// neutralitySweeps are small sweeps that exercise every decorator path: a
// clean search, detector flips, and the violation path.
var neutralitySweeps = []workload{
	{name: "fig1-n2", system: "fig1", n: 2, f: 1, base: explore.Config{MaxDepth: 12, Workers: 1}},
	{name: "fig1-n3-sb1-crash0", system: "fig1", n: 3, f: 2, base: explore.Config{
		MaxDepth: 12, CrashTimes: []sim.Time{0}, SwitchBudget: 1, Workers: 1}},
	{name: "garbled-n2", system: "fig1-garbled-decide", n: 2, f: 1, base: explore.Config{
		MaxDepth: 12, MaxViolations: noViolationCap, Workers: 1}},
}

// TestDecoratorsAreSearchNeutral runs each sweep bare and decorated: the
// tracing decorators must not change what the explorer searches or finds.
func TestDecoratorsAreSearchNeutral(t *testing.T) {
	for _, w := range neutralitySweeps {
		t.Run(w.name, func(t *testing.T) {
			bare, err := runSweep(w, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := &tracer{}
			dec, err := runSweep(w, tr)
			if err != nil {
				t.Fatal(err)
			}
			b, d := bare.res, dec.res
			if b.Runs != d.Runs || b.Joined != d.Joined || b.Pruned != d.Pruned || b.Configs != d.Configs {
				t.Errorf("counts differ: bare runs/joined/pruned/configs %d/%d/%d/%d, decorated %d/%d/%d/%d",
					b.Runs, b.Joined, b.Pruned, b.Configs, d.Runs, d.Joined, d.Pruned, d.Configs)
			}
			if bk, dk := violationKeys(b), violationKeys(d); bk != dk {
				t.Errorf("violations differ:\nbare      %s\ndecorated %s", bk, dk)
			}
			// The tracer's classification of executes must agree with the
			// explorer's own counts.
			if tr.searchRuns != d.Runs || tr.witnesses != int64(len(d.Violations)) || tr.stepMismatches != 0 {
				t.Errorf("trace classification: search runs %d (want %d), witnesses %d (want %d), step mismatches %d",
					tr.searchRuns, d.Runs, tr.witnesses, len(d.Violations), tr.stepMismatches)
			}
			if strings.HasPrefix(w.system, "fig1-garbled") && (len(d.Violations) == 0 || tr.shrinkReplays == 0) {
				t.Errorf("mutant sweep found %d violations with %d shrink replays; want both > 0", len(d.Violations), tr.shrinkReplays)
			}
		})
	}
}

// violationKeys renders a result's violations as their identities and
// failure patterns.
func violationKeys(r *explore.Result) string {
	var parts []string
	for _, v := range r.Violations {
		parts = append(parts, strings.Join([]string{v.Pattern, v.Oracle, v.Property, v.FailurePattern}, "|"))
	}
	return strings.Join(parts, "\n")
}

// TestSelfTimesAddUpToWall checks that the layers partition the sweep's
// wall time exactly.
func TestSelfTimesAddUpToWall(t *testing.T) {
	tr := &tracer{}
	if _, err := runSweep(neutralitySweeps[2], tr); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, d := range tr.self {
		total += int64(d)
	}
	if total != int64(tr.wall) {
		t.Errorf("self times sum to %d ns, sweep wall is %d ns", total, tr.wall)
	}
	if tr.self[lViolation] == 0 || tr.self[lSim] == 0 || tr.self[lCheck] == 0 {
		t.Errorf("expected violation, sim and check time in a mutant sweep: %v", tr.self)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names the workloads
// and metrics this program reports, with the same units, and that every
// workload has a pin.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		if _, ok := pins[w.Name]; !ok {
			t.Errorf("workload %s has no pin", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestResultLine checks the shape of the final JSON line.
func TestResultLine(t *testing.T) {
	line, err := resultLine(true, 3, 0, []metric{{"sweep_s", 1.25}, {"setup_s", 0.001}})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("%v: %s", err, line)
	}
	if !got.Correct || got.Attempted != 3 || got.Failed != 0 || got.Metrics["sweep_s"].Value != 1.25 || got.Metrics["setup_s"].Unit != "s" {
		t.Errorf("unexpected result line %s", line)
	}
	if _, err := resultLine(true, 1, 0, []metric{{"bogus", 1}}); err == nil {
		t.Error("an undefined metric was accepted")
	}
}
