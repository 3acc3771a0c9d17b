// Command bracebench is BRACE's end-to-end benchmark. It runs one named
// workload from a single process for a fixed wall-clock budget, checks every
// simulation result against the sequential oracle, and prints one JSON
// result line:
//
//	bracebench --workload fish-inproc --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run is split into an untraced and a traced half followed by layer
// replays, and the result carries the per-layer metrics instead (see
// NOTES.md). The workloads and their sizes are fixed here; the seed only
// varies the generated inputs.
//
// A second mode compares result files against the bounds in BENCHMARK.json:
//
//	bracebench compare <workload> <base.jsonl> <cand.jsonl>
//
// exits 1 when the candidate's median is worse than the base's by more than
// a metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// workload runs one benchmark workload and returns its result. Why each
// exists is in BENCHMARK.json and NOTES.md.
type workload struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"fish-inproc", runFishInproc},
	{"fish-loopback", runFishLoopback},
	{"epidemic-service", runEpidemicService},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// out receives human-readable tables (traced breakdowns); the result
	// line always goes last on stdout.
	out io.Writer
	// traceDir receives the span dump of a traced run.
	traceDir string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bracebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bracebench: unknown workload %q; want one of:", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bracebench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	start := time.Now()
	res, err := w.run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, out: stdout, traceDir: ".bench_build/trace"})
	if err != nil {
		fmt.Fprintf(stderr, "bracebench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s seed=%d trace=%d attempted=%d failed=%d ops_failed_frac=%g machine_slowdown=%.3f wall=%.1fs\n",
		w.name, *seed, *trace, res.Attempted, res.Failed, res.failedFrac(), res.slowdown, time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bracebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
