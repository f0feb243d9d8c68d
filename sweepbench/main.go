// Command sweepbench is the repository's benchmark: it times five pinned
// exhaustive sweeps end to end and, in a separate traced run, splits their
// time across the layers (internal/sim, internal/explore, internal/lab,
// internal/fleet) by timing calls into public functions from outside.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	sweepbench --workload fig1-n4-e3 --seed 1 --seconds 25 --trace 0
//
// Every sweep's verdict and counts are checked against pins.json. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. See README.md for what each workload
// and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == workerFlag {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "fleet worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("sweepbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the ladder's schedule sample (the sweeps take no random input)")
	secs := fs.Int("seconds", 25, "measurement time of one run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "sweepbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 1
	}
	b := &bench{w: w, pins: pins, seed: *seed, budget: time.Duration(*secs) * time.Second, out: stdout}
	var metrics []metric
	if *trace == 1 {
		metrics, err = b.traced()
	} else {
		metrics, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 1
	}
	line, err := resultLine(b.failed == 0, b.attempted, b.failed, metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
}

// resultLine renders the final JSON line, metrics in definition order with
// the unit each definition gives.
func resultLine(correct bool, attempted, failed int, ms []metric) (string, error) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	var parts []string
	for _, m := range ms {
		unit, ok := units[m.name]
		if !ok {
			return "", fmt.Errorf("metric %q has no definition", m.name)
		}
		v, err := json.Marshal(m.value)
		if err != nil {
			return "", fmt.Errorf("metric %s: %w", m.name, err)
		}
		parts = append(parts, fmt.Sprintf("%q: {\"value\": %s, \"unit\": %q}", m.name, v, unit))
	}
	return fmt.Sprintf(`{"correct": %t, "attempted": %d, "failed": %d, "metrics": {%s}}`,
		correct, attempted, failed, strings.Join(parts, ", ")), nil
}
