package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"weakestfd/internal/explore"
	"weakestfd/internal/fleet"
	"weakestfd/internal/sim"
)

// workload is one pinned sweep. Every sweep is exhaustive and takes no
// random input; the benchmark's seed drives only the ladder's schedule
// sample.
type workload struct {
	name string
	// system, n and f name the system in the explore registry.
	system string
	n, f   int
	// base holds the sweep bounds; setup fills in System.
	base explore.Config
	// fleet runs the sweep through fleet.Run with two worker processes.
	fleet bool
}

var crashGrid = []sim.Time{0, 3}

// noViolationCap lets the mutant sweep find every violation instead of
// stopping at the default four.
const noViolationCap = 1 << 30

// n4e3 is the fig1 n=4 full-E_3 bound set ROADMAP pins.
var n4e3 = explore.Config{MaxDepth: 11, CrashTimes: crashGrid, Workers: 1}

var workloads = []workload{
	{name: "fig1-n4-e3", system: "fig1", n: 4, f: 3, base: n4e3},
	{name: "fig1-n3-sb1", system: "fig1", n: 3, f: 2, base: explore.Config{
		MaxDepth: 12, CrashTimes: crashGrid, SwitchBudget: 1, FlipTimes: []sim.Time{2, 14}, Workers: 1}},
	{name: "extract-n3-long", system: "extract-omega", n: 3, f: 2, base: explore.Config{
		MaxDepth: 18, Budget: 8192, CrashTimes: crashGrid, Workers: 1}},
	{name: "mutant-n4-e3", system: "fig1-garbled-decide", n: 4, f: 3, base: withViolationCap(n4e3, noViolationCap)},
	{name: "fleet-n4-e3", system: "fig1", n: 4, f: 3, base: n4e3, fleet: true},
}

func withViolationCap(c explore.Config, cap int) explore.Config {
	c.MaxViolations = cap
	return c
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// setup is the sweep's set-up as a user pays it: build the system from the
// registry and enumerate the configuration space.
func (w workload) setup() (explore.Config, []explore.Job, error) {
	sys, err := explore.NewSystem(w.system, w.n, w.f)
	if err != nil {
		return explore.Config{}, nil, err
	}
	cfg := w.base
	cfg.System = sys
	return cfg, explore.EnumerateJobs(cfg), nil
}

// spec is the fleet form of the workload's sweep: the same system and
// bounds, each worker process exploring with one lab worker.
func (w workload) spec() fleet.Spec {
	toInts := func(ts []sim.Time) []int64 {
		out := make([]int64, len(ts))
		for i, t := range ts {
			out[i] = int64(t)
		}
		return out
	}
	return fleet.Spec{
		System:        w.system,
		N:             w.n,
		F:             w.f,
		MaxDepth:      w.base.MaxDepth,
		Budget:        w.base.Budget,
		CrashTimes:    toInts(w.base.CrashTimes),
		SwitchBudget:  w.base.SwitchBudget,
		FlipTimes:     toInts(w.base.FlipTimes),
		MaxViolations: w.base.MaxViolations,
		Workers:       1,
	}
}

// pin is one workload's expected outcome. Every count is deterministic.
type pin struct {
	Configs int   `json:"configs"`
	Runs    int64 `json:"runs"`
	Joined  int64 `json:"joined"`
	Pruned  int64 `json:"pruned"`
	// Steps counts every simulated step, shrink replays and witness
	// re-executions included. Only a traced sweep can count them.
	Steps      int64 `json:"steps"`
	Violations int   `json:"violations"`
	// Properties and Patterns count the violations by violated property
	// and by failure pattern.
	Properties map[string]int `json:"properties"`
	Patterns   map[string]int `json:"patterns"`
}

//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	Note      string         `json:"note"`
	Workloads map[string]pin `json:"workloads"`
}

func loadPins() (map[string]pin, error) {
	var f pinFile
	if err := json.Unmarshal(pinsJSON, &f); err != nil {
		return nil, fmt.Errorf("parsing pins.json: %w", err)
	}
	return f.Workloads, nil
}

// mismatches compares a sweep result against the pin and lists every
// difference; steps < 0 skips the step count (untraced sweeps).
func (p pin) mismatches(r *explore.Result, steps int64) []string {
	var out []string
	diff := func(what string, got, want any) {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			out = append(out, fmt.Sprintf("%s = %v, pinned %v", what, got, want))
		}
	}
	diff("configs", r.Configs, p.Configs)
	diff("runs", r.Runs, p.Runs)
	diff("joined", r.Joined, p.Joined)
	diff("pruned", r.Pruned, p.Pruned)
	diff("violations", len(r.Violations), p.Violations)
	diff("truncated", r.Truncated, false)
	if steps >= 0 {
		diff("steps", steps, p.Steps)
	}
	props, pats := map[string]int{}, map[string]int{}
	for _, v := range r.Violations {
		props[v.Property]++
		pats[v.FailurePattern]++
	}
	diff("properties", countsString(props), countsString(p.Properties))
	diff("patterns", countsString(pats), countsString(p.Patterns))
	return out
}

// countsString renders a name→count map in sorted key order.
func countsString(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, m[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}
