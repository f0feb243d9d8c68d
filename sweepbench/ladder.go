package main

import (
	"math/rand"
	"runtime"
	"time"

	"weakestfd/internal/explore"
	"weakestfd/internal/sim"
)

// The ladder calls sim.RunMachines directly on instantiated machines under
// a sample of sim.NewRandom schedules, adding one layer per rung, so each
// layer's cost is the difference between two rungs.

type rung int

const (
	rungBare rung = iota // nil AccessLog and QuerySeam
	rungLog              // plus an AccessLog (digest on, as the join layer runs it)
	rungSeam             // plus a QuerySeam holding the instance's detector histories
	numRungs
)

var rungNames = [numRungs]string{"bare", "log", "seam"}

// ladderSampleSize is the number of (configuration, schedule) pairs the
// seed draws; every round runs all of them on every rung.
const ladderSampleSize = 64

type ladderSample struct {
	job  explore.Job
	seed int64
}

type ladderResult struct {
	nsPerStep, allocsPerStep [numRungs]float64
	instantiateAllocs        float64
	steps                    int64 // steps of one rung's pass over the sample
}

// runLadder measures the rungs for the workload's system until the time
// budget is spent (at least three rounds), reporting per-rung medians over
// rounds. Rungs are interleaved within a round so drift hits all alike.
func runLadder(w workload, seed int64, budget time.Duration) (ladderResult, error) {
	var res ladderResult
	cfg, jobs, err := w.setup()
	if err != nil {
		return res, err
	}
	runBudget := cfg.Budget
	if runBudget == 0 {
		runBudget = 4096 // explore.Config's default
	}
	rng := rand.New(rand.NewSource(seed))
	sample := make([]ladderSample, ladderSampleSize)
	for i := range sample {
		sample[i] = ladderSample{job: jobs[rng.Intn(len(jobs))], seed: rng.Int63()}
	}

	var ns, allocs [numRungs][]float64
	var instAllocs []float64
	deadline := time.Now().Add(budget)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for r := rung(0); r < numRungs; r++ {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			insts := make([]explore.Instance, len(sample))
			for i, s := range sample {
				insts[i] = cfg.System.Instantiate(s.job.Pattern, s.job.Oracle)
			}
			runtime.ReadMemStats(&ms)
			instAllocs = append(instAllocs, float64(ms.Mallocs-m0)/float64(len(sample)))

			scheds := make([]sim.Schedule, len(sample))
			for i, s := range sample {
				scheds[i] = sim.NewRandom(s.seed)
			}
			var log *sim.AccessLog
			if r != rungBare {
				log = sim.NewAccessLog()
				log.EnableDigest()
			}
			runtime.ReadMemStats(&ms)
			m1 := ms.Mallocs
			var steps int64
			start := time.Now()
			for i, s := range sample {
				steps += ladderRun(r, insts[i], s.job.Pattern, scheds[i], runBudget, log)
			}
			el := time.Since(start)
			runtime.ReadMemStats(&ms)
			ns[r] = append(ns[r], float64(el.Nanoseconds())/float64(steps))
			allocs[r] = append(allocs[r], float64(ms.Mallocs-m1)/float64(steps))
			res.steps = steps
		}
	}
	for r := rung(0); r < numRungs; r++ {
		res.nsPerStep[r] = median(ns[r])
		res.allocsPerStep[r] = median(allocs[r])
	}
	res.instantiateAllocs = median(instAllocs)
	return res, nil
}

// ladderRun executes one run on one rung and returns its step count. It
// takes the run's AccessLog, which makes it machine-world code for fdlint,
// so the caller does the timing.
func ladderRun(r rung, inst explore.Instance, pattern sim.Pattern, sched sim.Schedule, budget int64, log *sim.AccessLog) int64 {
	cfg := sim.Config{Pattern: pattern, Schedule: sched, Budget: budget}
	if r != rungBare {
		log.Reset()
		cfg.AccessLog = log
	}
	if r == rungSeam && len(inst.Histories) > 0 {
		seam := sim.NewQuerySeam(log)
		for _, h := range inst.Histories {
			seam.Register(h.Name, h.H)
		}
		cfg.Queries = seam
	}
	// A run that exhausts its budget reports non-termination as an error;
	// the ladder measures steps, not verdicts.
	rep, _ := sim.RunMachines(cfg, inst.Machines)
	return rep.Steps
}
