package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0, so no metric ever prints NaN or Inf.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMB returns the peak resident set size of this process and of its
// largest reaped child, in MiB (Linux reports ru_maxrss in KiB).
func maxRSSMB() (self, children float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		self = float64(ru.Maxrss) / 1024
	}
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err == nil {
		children = float64(ru.Maxrss) / 1024
	}
	return self, children
}

// liveChildren lists the PIDs of this process's children that have not been
// reaped yet, read from /proc/self/task/*/children.
func liveChildren() []string {
	files, _ := filepath.Glob("/proc/self/task/*/children")
	var out []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		out = append(out, strings.Fields(string(b))...)
	}
	return out
}

// waitChildren blocks until every child process has ended and been reaped,
// or fails after the timeout. fleet.Run kills its workers on return and
// reaps them from its reader goroutines, which this waits for.
func waitChildren(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		kids := liveChildren()
		if len(kids) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("child processes still running after %v: %v", timeout, kids)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
