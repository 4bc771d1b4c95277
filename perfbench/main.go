// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time with closed-loop clients, checks every output, and prints
// one JSON line: the end-to-end metrics, or with --trace 1 the per-layer
// metrics taken from spans the benchmark records around each layer's
// public entry point. Run it from the root of the repository:
//
//	bash perfbench/run.sh --workload serve-churn --seed 7 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// JSON has no infinity; a latency quantile that reaches a failed
		// operation reports the largest finite value instead.
		v = math.MaxFloat64
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is one invocation.
type config struct {
	spec    spec
	seed    int64
	window  time.Duration
	trace   bool
	workDir string // scratch space inside the checkout
	log     io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the generated dataset and operation stream")
	seconds := fs.Int("seconds", 30, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := lookup(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := config{spec: s, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, workDir: workDir, log: stderr}
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	if s.Serve {
		err = runServe(cfg, rep)
	} else {
		err = runEngine(cfg, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
