package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"weakestfd/internal/fleet"
)

// workerFlag is the hidden mode in which this binary serves as one fleet
// worker process, as `paperbench -fleet-worker` does, so the fleet runs
// exactly the code the single-process workloads run.
const workerFlag = "-fleet-worker"

// fleetProcs is the worker process count of the fleet workload.
const fleetProcs = 2

// workerMain serves the fleet protocol on stdin/stdout and logs, in a file
// of its own in the directory args names, the time of every job-progress
// frame it sends: the per-configuration latency seen inside the worker,
// free of the coordinator's scheduling delays.
func workerMain(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: %s <progress log directory>", workerFlag)
	}
	f, err := os.Create(filepath.Join(args[0], fmt.Sprintf("worker-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer f.Close()
	return fleet.WorkerMain(os.Stdin, &progressStamper{w: os.Stdout, log: f})
}

// progressStamper passes the worker's frames through and, before each
// job-progress frame, writes the wall-clock time in nanoseconds to log.
// The worker flushes one whole frame per Write, and serializes its writes.
type progressStamper struct {
	w   io.Writer
	log *os.File
	buf [8]byte
}

var progressTag = []byte(`"type":"progress"`)

func (p *progressStamper) Write(b []byte) (int, error) {
	if bytes.Contains(b, progressTag) {
		binary.LittleEndian.PutUint64(p.buf[:], uint64(time.Now().UnixNano()))
		if _, err := p.log.Write(p.buf[:]); err != nil {
			return 0, err
		}
	}
	return p.w.Write(b)
}

// frameGaps reads the workers' progress logs in dir and returns the gaps
// between each worker's consecutive job completions.
func frameGaps(dir string) ([]time.Duration, error) {
	files, err := filepath.Glob(filepath.Join(dir, "worker-*"))
	if err != nil {
		return nil, err
	}
	var gaps []time.Duration
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for i := 8; i+8 <= len(b); i += 8 {
			prev := binary.LittleEndian.Uint64(b[i-8:])
			gaps = append(gaps, time.Duration(binary.LittleEndian.Uint64(b[i:])-prev))
		}
	}
	return gaps, nil
}

// runFleetSweep runs the workload's sweep through fleet.Run. The
// coordinator's progress events time the spawn and the tail; the workers'
// progress logs give the per-configuration latencies.
func runFleetSweep(w workload) (sweepOut, error) {
	var out sweepOut
	self, err := os.Executable()
	if err != nil {
		return out, fmt.Errorf("locating own binary for the fleet workers: %w", err)
	}
	// The logs go next to the binary, inside the build directory.
	logDir, err := os.MkdirTemp(filepath.Dir(self), "fleet-frames-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(logDir)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc

	var first, last time.Time
	start := time.Now()
	sum, err := fleet.Run(fleet.Options{
		Spec:      w.spec(),
		Procs:     fleetProcs,
		WorkerCmd: []string{self, workerFlag, logDir},
		// Called from the coordinator's event loop, never concurrently.
		OnProgress: func(line string) {
			now := time.Now()
			if first.IsZero() {
				first = now
			}
			last = now
		},
	})
	end := time.Now()
	if err != nil {
		return out, err
	}
	out.res = sum.Result
	out.wall = end.Sub(start)
	out.firstEvent = first.Sub(start)
	out.lastEvent = last.Sub(start)
	out.setup = out.firstEvent
	out.shards, out.steals = sum.Shards, sum.Steals
	out.computeMS = sum.Result.ElapsedMS

	runtime.ReadMemStats(&ms)
	out.alloc = ms.TotalAlloc - before
	if err := waitChildren(10 * time.Second); err != nil {
		return out, err
	}
	out.configGaps, err = frameGaps(logDir)
	return out, err
}
