// Command perfbench is the repository benchmark. It drives the ReD-CaNe
// system in-process through its public entry points, one closed-loop
// caller per workload, and prints every metric BENCHMARK.json names:
//
//	perfbench --workload design|validate|serve --seed N --seconds S --trace 0|1
//	perfbench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl
//
// A run trains and caches the seed's weights (untimed), times several
// full set-ups, runs one untimed warm-up op, then times ops for the given
// seconds, checking every op's output. With --trace 0 it reports the
// end-to-end metrics with telemetry off; with --trace 1 it alternates
// untraced and traced ops and reports the per-layer metrics. The last
// stdout line is the result object; the line before it is the run's full
// record (environment, op counts, output digest), which compare reads.
//
// Everything the benchmark keeps or leaves behind lives under
// .bench_build/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// setupsPerRun is how many full set-ups a run times; setup_s is their
// median.
const setupsPerRun = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: design, validate or serve")
	seed := fs.Uint64("seed", 42, "seed of the benchmark's inputs: dataset, weights and noise")
	seconds := fs.Float64("seconds", 20, "how long the op loop measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	rec, err := run(config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: ".bench_build", setups: setupsPerRun,
	}, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics}
	if err := enc.Encode(result); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rec.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED: an op's output did not match; see the log above")
		return 1
	}
	return 0
}
