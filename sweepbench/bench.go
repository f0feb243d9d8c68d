package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"weakestfd/internal/explore"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names and units (bench_test.go checks it).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sweep_s", "s"},
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"steps_per_s", "1/s"},
	{"alloc_bytes_per_run", "B"},
	{"max_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"sim.steps", "count"},
	{"sim.ns_per_step", "ns"},
	{"ladder.bare_ns_per_step", "ns"},
	{"ladder.bare_allocs_per_step", "allocs"},
	{"ladder.log_ns_per_step", "ns"},
	{"ladder.log_allocs_per_step", "allocs"},
	{"ladder.seam_ns_per_step", "ns"},
	{"ladder.seam_allocs_per_step", "allocs"},
	{"explore.instantiates", "count"},
	{"explore.instantiate_ns", "ns"},
	{"ladder.instantiate_allocs", "allocs"},
	{"explore.configs", "count"},
	{"explore.runs", "count"},
	{"explore.joined", "count"},
	{"explore.pruned", "count"},
	{"explore.steps_per_run", "steps"},
	{"explore.join_rate", "ratio"},
	{"explore.prune_share", "ratio"},
	{"explore.search_self_ns_per_run", "ns"},
	{"check.calls", "count"},
	{"check.failures", "count"},
	{"check.ns", "ns"},
	{"shrink.replays", "count"},
	{"shrink.step_ratio", "ratio"},
	{"violation.ms_each", "ms"},
	{"triage.replay_ns", "ns"},
	{"triage.classify_ns", "ns"},
	{"fleet.spawn_ms", "ms"},
	{"fleet.tail_ms", "ms"},
	{"fleet.utilisation", "ratio"},
	{"fleet.shards", "count"},
	{"fleet.steals", "count"},
	{"fleet.speedup_vs_single", "ratio"},
	{"lab.config_ms_p50", "ms"},
	{"lab.config_ms_p90", "ms"},
	{"trace.overhead", "ratio"},
	{"self_ms.setup", "ms"},
	{"self_ms.instantiate", "ms"},
	{"self_ms.sim", "ms"},
	{"self_ms.search", "ms"},
	{"self_ms.check", "ms"},
	{"self_ms.violation", "ms"},
	{"self_ms.lab", "ms"},
}

// bench is one benchmark invocation.
type bench struct {
	w      workload
	pins   map[string]pin
	seed   int64
	budget time.Duration
	out    io.Writer

	attempted, failed int
}

// sweeps runs w's sweep until the time share is spent, and at least
// atLeast times. Each sweep counts as one attempt; a sweep that errs or whose
// counts differ from the pin counts as failed.
func (b *bench) sweeps(w workload, tr *tracer, share time.Duration, atLeast int) ([]sweepOut, error) {
	p, ok := b.pins[w.name]
	if !ok {
		return nil, fmt.Errorf("no pin for workload %s", w.name)
	}
	var outs []sweepOut
	start := time.Now()
	for i := 0; ; i++ {
		var o sweepOut
		var err error
		if w.fleet {
			o, err = runFleetSweep(w)
		} else {
			o, err = runSweep(w, tr)
		}
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "sweepbench: %s sweep failed: %v\n", w.name, err)
		} else {
			steps := int64(-1)
			if tr != nil {
				steps = tr.stepsOfSweep(tr.sweeps - 1)
			}
			if bad := p.mismatches(o.res, steps); len(bad) > 0 {
				b.failed++
				fmt.Fprintf(os.Stderr, "sweepbench: %s sweep differs from its pin: %v\n", w.name, bad)
			}
			outs = append(outs, o)
		}
		el := time.Since(start)
		if i+1 >= atLeast && el+el/time.Duration(i+1) > share {
			break
		}
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("every %s sweep failed", w.name)
	}
	return outs, nil
}

// configMS pools the sweeps' per-configuration latencies, in ms.
func configMS(outs []sweepOut) []float64 {
	var ms []float64
	for _, o := range outs {
		for _, g := range o.configGaps {
			ms = append(ms, float64(g.Nanoseconds())/1e6)
		}
	}
	return ms
}

func walls(outs []sweepOut) []float64 {
	ds := make([]time.Duration, len(outs))
	for i, o := range outs {
		ds[i] = o.wall
	}
	return seconds(ds)
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() ([]metric, error) {
	w := b.w
	start := time.Now()
	var setups []time.Duration
	if !w.fleet {
		// Set-up takes about a millisecond; repeat it for a steady median.
		for i := 0; i < 50 || (i < 2000 && time.Since(start) < b.budget/20); i++ {
			d, err := setupOnce(w)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
	}
	outs, err := b.sweeps(w, nil, b.budget-time.Since(start), 3)
	if err != nil {
		return nil, err
	}
	var allocs []float64
	for _, o := range outs {
		setups = append(setups, o.setup)
		allocs = append(allocs, float64(o.alloc)/float64(o.res.Runs))
	}
	rssSelf, rssKids := maxRSSMB()
	p := b.pins[w.name]
	sweepS := median(walls(outs))
	ms := []metric{
		{"sweep_s", sweepS},
		{"setup_s", median(seconds(setups))},
		{"runs_per_s", ratio(float64(p.Runs), sweepS)},
		{"steps_per_s", ratio(float64(p.Steps), sweepS)},
		{"alloc_bytes_per_run", median(allocs)},
		{"max_rss_mb", max(rssSelf, rssKids)},
	}
	gaps := configMS(outs)
	fmt.Fprintf(b.out, "%s: %d sweeps, %d set-up samples, failed_share %.3f\n",
		w.name, len(outs), len(setups), ratio(float64(b.failed), float64(b.attempted)))
	for _, m := range ms {
		fmt.Fprintf(b.out, "  %-22s %14.6g\n", m.name, m.value)
	}
	fmt.Fprintf(b.out, "  config latency: p50 %.4f ms, p90 %.4f ms over %d configurations\n",
		quantile(gaps, 0.5), quantile(gaps, 0.9), len(gaps))
	fmt.Fprintf(b.out, "  sweep_s samples: %.4f\n", walls(outs))
	return ms, nil
}

// traced measures the per-layer metrics: untraced and traced sweeps in
// alternation (the untraced ones are the trace overhead's base), the
// ladder, and the workload's extras.
func (b *bench) traced() ([]metric, error) {
	w := b.w
	// The fleet's trace is its progress events, which every fleet sweep
	// records; its workers run in other processes, out of the tracer's reach.
	var tr *tracer
	if !w.fleet {
		tr = &tracer{}
	}
	var base, traced []sweepOut
	start := time.Now()
	for pairs := 1; ; pairs++ {
		o, err := b.sweeps(w, nil, 0, 1)
		if err != nil {
			return nil, err
		}
		base = append(base, o...)
		if o, err = b.sweeps(w, tr, 0, 1); err != nil {
			return nil, err
		}
		traced = append(traced, o...)
		if el := time.Since(start); el+el/time.Duration(pairs) > b.budget/2 {
			break
		}
	}
	lad, err := runLadder(w, b.seed, b.budget/8)
	if err != nil {
		return nil, err
	}
	baseS, tracedS := median(walls(base)), median(walls(traced))
	res := traced[0].res
	gaps := configMS(base)
	m := map[string]float64{
		"lab.config_ms_p50":           quantile(gaps, 0.5),
		"lab.config_ms_p90":           quantile(gaps, 0.9),
		"explore.configs":             float64(res.Configs),
		"explore.runs":                float64(res.Runs),
		"explore.joined":              float64(res.Joined),
		"explore.pruned":              float64(res.Pruned),
		"explore.join_rate":           ratio(float64(res.Joined), float64(res.Runs)),
		"explore.prune_share":         ratio(float64(res.Pruned), float64(res.Runs+res.Pruned)),
		"ladder.instantiate_allocs":   lad.instantiateAllocs,
		"trace.overhead":              ratio(tracedS, baseS) - 1,
		"ladder.bare_ns_per_step":     lad.nsPerStep[rungBare],
		"ladder.log_ns_per_step":      lad.nsPerStep[rungLog],
		"ladder.seam_ns_per_step":     lad.nsPerStep[rungSeam],
		"ladder.bare_allocs_per_step": lad.allocsPerStep[rungBare],
		"ladder.log_allocs_per_step":  lad.allocsPerStep[rungLog],
		"ladder.seam_allocs_per_step": lad.allocsPerStep[rungSeam],
	}
	fmt.Fprintf(b.out, "%s: traced %d sweeps (%.3f s median) against %d untraced (%.3f s median); trace overhead %.1f%%\n",
		w.name, len(traced), tracedS, len(base), baseS, 100*m["trace.overhead"])
	fmt.Fprintf(b.out, "config latency (untraced): p50 %.4f ms, p90 %.4f ms over %d configurations\n",
		m["lab.config_ms_p50"], m["lab.config_ms_p90"], len(gaps))
	fmt.Fprintf(b.out, "ladder (%d random schedules, %d steps per rung pass):", ladderSampleSize, lad.steps)
	for r := rung(0); r < numRungs; r++ {
		fmt.Fprintf(b.out, " %s %.1f ns/step %.2f allocs/step;", rungNames[r], lad.nsPerStep[r], lad.allocsPerStep[r])
	}
	fmt.Fprintf(b.out, " instantiate %.1f allocs\n", lad.instantiateAllocs)

	if w.fleet {
		if err := b.fleetLayers(m, base, traced); err != nil {
			return nil, err
		}
	} else {
		b.exploreLayers(m, tr, res)
		if len(res.Violations) > 0 {
			if err := b.violationLayers(m, base, res); err != nil {
				return nil, err
			}
		}
	}
	ms := make([]metric, len(perLayer))
	for i, d := range perLayer {
		ms[i] = metric{d.name, m[d.name]} // metrics a workload does not exercise read 0
	}
	return ms, nil
}

// exploreLayers fills the metrics of the single-process layers from the
// tracer and prints the "where the time goes" table.
func (b *bench) exploreLayers(m map[string]float64, tr *tracer, res *explore.Result) {
	n := float64(tr.sweeps)
	perSweep := func(x int64) float64 { return float64(x) / n }
	runs := float64(res.Runs)
	m["sim.steps"] = perSweep(tr.stepsAll)
	m["sim.ns_per_step"] = ratio(float64(tr.execNS.Nanoseconds()), float64(tr.stepsAll))
	m["explore.instantiates"] = perSweep(tr.instantiates)
	m["explore.instantiate_ns"] = ratio(float64(tr.instNS.Nanoseconds()), float64(tr.instantiates))
	m["explore.steps_per_run"] = ratio(perSweep(tr.stepsSearch), runs)
	m["explore.search_self_ns_per_run"] = ratio(float64(tr.self[lSearch].Nanoseconds())/n, runs)
	m["check.calls"] = perSweep(tr.checkCalls)
	m["check.failures"] = perSweep(tr.checkFailures)
	m["check.ns"] = ratio(float64(tr.checkNS.Nanoseconds()), float64(tr.checkCalls))
	m["shrink.replays"] = perSweep(tr.instantiates) - runs - float64(len(res.Violations))
	for l := layer(0); l < numLayers; l++ {
		m["self_ms."+layerNames[l].key] = float64(tr.self[l].Nanoseconds()) / 1e6 / n
	}
	tr.writeTable(b.out, b.w.name)
	// The trace classifies executes by kind; cross-check it against the
	// explorer's own counts.
	if tr.searchRuns != int64(n)*res.Runs || tr.witnesses != int64(n)*int64(len(res.Violations)) || tr.stepMismatches != 0 {
		fmt.Fprintf(os.Stderr, "sweepbench: trace classification disagrees with the result: search runs %d, witnesses %d, shrink replays %d, step mismatches %d\n",
			tr.searchRuns, tr.witnesses, tr.shrinkReplays, tr.stepMismatches)
	}
}

// violationLayers times the violation path of a workload that finds
// violations: the sweep time they add over the clean fig1-n4-e3 sweep, and
// replay and classification of the workload's own artifacts.
func (b *bench) violationLayers(m map[string]float64, base []sweepOut, res *explore.Result) error {
	ref, err := workloadByName("fig1-n4-e3")
	if err != nil {
		return err
	}
	refOuts, err := b.sweeps(ref, nil, b.budget/4, 1)
	if err != nil {
		return err
	}
	refS, baseS := median(walls(refOuts)), median(walls(base))
	var orig, shrunk int64
	for _, v := range res.Violations {
		orig += v.Steps
		shrunk += int64(v.ShrunkSteps)
	}
	nv := float64(len(res.Violations))
	m["shrink.step_ratio"] = ratio(float64(shrunk), float64(orig))
	m["violation.ms_each"] = ratio((baseS-refS)*1000, nv)

	var replayNS, classifyNS time.Duration
	bad := 0
	for _, v := range res.Violations {
		t0 := time.Now()
		run, checkErr, err := v.Artifact.Replay(nil)
		t1 := time.Now()
		if err != nil || checkErr == nil {
			bad++
			continue
		}
		fp := explore.Classify(run, v.Property)
		t2 := time.Now()
		replayNS += t1.Sub(t0)
		classifyNS += t2.Sub(t1)
		if fp.Name != v.FailurePattern {
			bad++
		}
	}
	b.attempted++
	if bad > 0 {
		b.failed++
		fmt.Fprintf(os.Stderr, "sweepbench: %d of %d artifacts did not replay to their recorded failure pattern\n", bad, len(res.Violations))
	}
	m["triage.replay_ns"] = ratio(float64(replayNS.Nanoseconds()), nv)
	m["triage.classify_ns"] = ratio(float64(classifyNS.Nanoseconds()), nv)
	fmt.Fprintf(b.out, "violation path: %d violations add %.3f s over fig1-n4-e3 (%.3f s): %.3f ms each; replay %.0f ns, classify %.0f ns each\n",
		len(res.Violations), baseS-refS, refS, m["violation.ms_each"], m["triage.replay_ns"], m["triage.classify_ns"])
	return nil
}

// fleetLayers fills the fleet metrics from the progress events and prints
// the fleet's "where the time goes" table. Worker internals run in other
// processes, so the table splits the coordinator's wall time.
func (b *bench) fleetLayers(m map[string]float64, base, traced []sweepOut) error {
	ref, err := workloadByName("fig1-n4-e3")
	if err != nil {
		return err
	}
	single, err := b.sweeps(ref, nil, b.budget/4, 1)
	if err != nil {
		return err
	}
	var spawn, busy, tail, wall, shards, steals, util []float64
	for _, o := range traced {
		ws := o.wall.Seconds()
		spawn = append(spawn, o.firstEvent.Seconds()*1000)
		busy = append(busy, (o.lastEvent-o.firstEvent).Seconds()*1000)
		tail = append(tail, (o.wall-o.lastEvent).Seconds()*1000)
		wall = append(wall, ws*1000)
		shards = append(shards, float64(o.shards))
		steals = append(steals, float64(o.steals))
		util = append(util, ratio(float64(o.computeMS)/1000, ws*fleetProcs))
	}
	singleS, fleetS := median(walls(single)), median(walls(base))
	m["fleet.spawn_ms"] = median(spawn)
	m["fleet.tail_ms"] = median(tail)
	m["fleet.utilisation"] = median(util)
	m["fleet.shards"] = median(shards)
	m["fleet.steals"] = median(steals)
	m["fleet.speedup_vs_single"] = ratio(singleS, fleetS)

	mean := func(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
	wallMS := mean(wall)
	fmt.Fprintf(b.out, "where the time goes: %s (coordinator wall, mean of %d sweeps)\n", b.w.name, len(traced))
	fmt.Fprintf(b.out, "  %-62s %10s %7s\n", "layer", "self ms", "share")
	rows := []struct {
		label string
		ms    float64
	}{
		{"internal/fleet spawn and handshake (Run to first progress)", mean(spawn)},
		{"workers exploring (first to last progress)", mean(busy)},
		{"internal/fleet tail (last progress to return)", mean(tail)},
	}
	var total float64
	for _, r := range rows {
		total += r.ms
		fmt.Fprintf(b.out, "  %-62s %10.1f %6.1f%%\n", r.label, r.ms, 100*ratio(r.ms, wallMS))
	}
	fmt.Fprintf(b.out, "  %-62s %10.1f %6.1f%%  (sweep wall %.1f ms)\n", "sum of self times", total, 100*ratio(total, wallMS), wallMS)
	fmt.Fprintf(b.out, "fleet: %d procs, utilisation %.2f, %.0f shards, %.0f steals; speedup %.2fx over single-process fig1-n4-e3 (base %.3f s, fleet %.3f s)\n",
		fleetProcs, m["fleet.utilisation"], m["fleet.shards"], m["fleet.steals"], m["fleet.speedup_vs_single"], singleS, fleetS)
	return nil
}
