package main

import (
	"runtime"
	"time"

	"weakestfd/internal/explore"
)

// sweepOut is one sweep's outcome and measurements.
type sweepOut struct {
	res   *explore.Result
	wall  time.Duration // the whole sweep call, set-up included
	setup time.Duration // until the sweep starts exploring
	alloc uint64        // TotalAlloc delta; for the fleet, the coordinator's only
	// configGaps are the per-configuration latencies: gaps between
	// consecutive configuration completions of one lab worker, or of one
	// fleet worker process.
	configGaps []time.Duration

	// Fleet only.
	shards, steals int
	firstEvent     time.Duration // Run to first progress event
	lastEvent      time.Duration // Run to last progress event
	computeMS      int64         // summed shard compute time
}

// runSweep runs the workload's sweep once in this process. With a tracer,
// the system is decorated and every boundary is reported to it; without
// one, only configuration completions are timed.
func runSweep(w workload, tr *tracer) (sweepOut, error) {
	var out sweepOut
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc

	start := time.Now()
	if tr != nil {
		tr.sweepBegin(start)
	}
	cfg, jobs, err := w.setup()
	if err != nil {
		return out, err
	}
	if tr != nil {
		tr.setupDone()
		cfg.System = newTracedSystem(cfg.System, tr)
		cfg.OnConfig = func(string, int64) { tr.onConfig() }
	} else {
		last := time.Now()
		out.setup = last.Sub(start)
		// Workers: 1 runs every configuration on one lab worker, and
		// ExploreJobs waits for it before returning, so configGaps needs
		// no lock.
		cfg.OnConfig = func(string, int64) {
			now := time.Now()
			out.configGaps = append(out.configGaps, now.Sub(last))
			last = now
		}
	}
	out.res = explore.ExploreJobs(cfg, jobs)
	end := time.Now()
	if tr != nil {
		tr.sweepEnd(start)
	}
	out.wall = end.Sub(start)

	runtime.ReadMemStats(&ms)
	out.alloc = ms.TotalAlloc - before
	return out, nil
}

// setupOnce times the sweep's set-up alone.
func setupOnce(w workload) (time.Duration, error) {
	start := time.Now()
	_, _, err := w.setup()
	return time.Since(start), err
}
