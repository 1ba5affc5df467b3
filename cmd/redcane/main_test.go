package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redcane/internal/core"
	"redcane/internal/experiments"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

func testCLI(t *testing.T) *cli {
	t.Helper()
	r := experiments.NewRunner(experiments.Config{Dir: t.TempDir(), Quick: true, Seed: 42})
	return &cli{runner: r}
}

func TestListCommand(t *testing.T) {
	var b strings.Builder
	if err := testCLI(t).run(&b, "list", nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"deepcaps-cifar-like", "capsnet-mnist-like", "table4", "ablation-lut"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownCommandErrors(t *testing.T) {
	var b strings.Builder
	if err := testCLI(t).run(&b, "bogus", nil); err == nil {
		t.Fatal("expected error for unknown command")
	}
}

func TestUnknownExperimentErrors(t *testing.T) {
	var b strings.Builder
	if err := testCLI(t).run(&b, "experiment", []string{"fig99"}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	if err := testCLI(t).run(&b, "experiment", nil); err == nil {
		t.Fatal("expected error for missing experiment id")
	}
}

func TestUnknownBenchmarkErrors(t *testing.T) {
	var b strings.Builder
	if err := testCLI(t).run(&b, "design", []string{"nope"}); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if err := testCLI(t).run(&b, "validate", []string{"nope"}); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestValidateUnknownBackendErrors(t *testing.T) {
	// A backend typo must fail before any training or analysis runs.
	c := testCLI(t)
	c.opt.Backend = "fpga"
	var b strings.Builder
	err := c.run(&b, "validate", nil)
	if err == nil {
		t.Fatal("expected error for unknown backend")
	}
	if !strings.Contains(err.Error(), "fpga") || !strings.Contains(err.Error(), "quant-approx") {
		t.Fatalf("error should name the bad backend and the valid ones: %v", err)
	}
}

func TestEnergyBundleCommand(t *testing.T) {
	var b strings.Builder
	if err := testCLI(t).run(&b, "energy", nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table I", "Fig. 4", "Fig. 5", "XM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("energy output missing %q", want)
		}
	}
}

func TestCharacterizeSingleComponent(t *testing.T) {
	var b strings.Builder
	if err := testCLI(t).run(&b, "characterize", []string{"mul8u_NGR"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mul8u_NGR") {
		t.Fatalf("characterize output:\n%s", b.String())
	}
	if err := testCLI(t).run(&b, "characterize", []string{"mul8u_NOPE"}); err == nil {
		t.Fatal("expected error for unknown component")
	}
}

func TestFindBenchmark(t *testing.T) {
	// The CLI resolves benchmarks through the shared case-insensitive
	// lookup, so DeepCaps-CIFAR-Like works anywhere deepcaps-cifar-like
	// does, and a typo's error names every valid key.
	for _, key := range []string{"deepcaps-cifar-like", "DeepCaps-CIFAR-Like"} {
		b, err := experiments.FindBenchmark(key)
		if err != nil {
			t.Fatalf("FindBenchmark(%q): %v", key, err)
		}
		if b.Key() != "deepcaps-cifar-like" {
			t.Fatalf("FindBenchmark(%q) = %q", key, b.Key())
		}
	}
	_, err := experiments.FindBenchmark("x")
	if err == nil {
		t.Fatal("unknown benchmark found")
	}
	if !strings.Contains(err.Error(), "capsnet-mnist-like") {
		t.Fatalf("error should list the valid keys: %v", err)
	}
}

func TestExperimentTableIncludesValidate(t *testing.T) {
	// Regression: `experiment all` used to be a hand-maintained list that
	// had drifted to omit validate. The table is now the single registry.
	ids := experimentIDs(true)
	found := map[string]bool{}
	for _, id := range ids {
		if found[id] {
			t.Fatalf("duplicate experiment id %q", id)
		}
		found[id] = true
	}
	for _, want := range []string{"table1", "fig12", "stability", "accel", "validate"} {
		if !found[want] {
			t.Fatalf("'all' sequence missing %q: %v", want, ids)
		}
	}
	// Per-benchmark sweep ids are registered but excluded from 'all'.
	all := experimentIDs(false)
	perBench := map[string]bool{}
	for _, id := range all {
		perBench[id] = true
	}
	if !perBench["groups-capsnet-mnist-like"] || !perBench["layers-capsnet-mnist-like"] {
		t.Fatalf("per-benchmark sweep ids missing: %v", all)
	}
	if found["groups-capsnet-mnist-like"] {
		t.Fatal("per-benchmark sweeps must not be part of 'all'")
	}
}

func TestUnknownExperimentErrorListsIDs(t *testing.T) {
	var b strings.Builder
	err := testCLI(t).run(&b, "experiment", []string{"fig99"})
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{"fig99", "validate", "table4"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error should mention %q: %v", want, err)
		}
	}
}

func TestUsageDocumentsAllCommandsAndFlags(t *testing.T) {
	var b strings.Builder
	usage(&b)
	out := b.String()
	for _, want := range []string{
		"train", "experiment", "design", "refine", "validate", "characterize", "energy", "list",
		"serve", "-addr", "-queue", "-slots",
		"-dir", "-quick", "-seed", "-workers", "-checkpoint", "-csv", "-json", "-v",
		"-backend", "-bits", "quant-approx",
		"-log-level", "-metrics", "-pprof", "-cpuprofile",
		"exit codes", "130",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("usage missing %q", want)
		}
	}
}

func TestBuildObsLevels(t *testing.T) {
	cases := []struct {
		logLevel string
		verbose  bool
		metrics  bool
		wantNil  bool
		want     obs.Level
	}{
		{"", false, false, false, obs.Warn},      // default
		{"", true, false, false, obs.Info},       // -v
		{"debug", true, false, false, obs.Debug}, // explicit beats -v
		{"off", false, false, true, 0},           // fully disabled
		{"off", false, true, false, obs.Off},     // metrics keep Obs alive
	}
	for _, c := range cases {
		o, err := buildObs(c.logLevel, c.verbose, c.metrics)
		if err != nil {
			t.Fatalf("buildObs(%q, %v, %v): %v", c.logLevel, c.verbose, c.metrics, err)
		}
		if (o == nil) != c.wantNil {
			t.Errorf("buildObs(%q, %v, %v) nil = %v, want %v",
				c.logLevel, c.verbose, c.metrics, o == nil, c.wantNil)
			continue
		}
		if o != nil && o.Level() != c.want {
			t.Errorf("buildObs(%q, %v, %v) level = %v, want %v",
				c.logLevel, c.verbose, c.metrics, o.Level(), c.want)
		}
	}
	if _, err := buildObs("bogus", false, false); err == nil {
		t.Error("expected error for invalid -log-level")
	}
}

func TestWriteMetricsSnapshot(t *testing.T) {
	o := obs.New(obs.Off, nil)
	o.Counter("sweep.jobs").Add(7)
	o.Gauge("sweep.workers.utilization").Set(0.5)
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := writeMetrics(o, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, data)
	}
	if snap.Counters["sweep.jobs"] != 7 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Gauges["sweep.workers.utilization"] != 0.5 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	// A nil Obs still writes a parseable (empty) snapshot.
	path2 := filepath.Join(t.TempDir(), "empty.json")
	if err := writeMetrics(nil, path2); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path2)
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("empty snapshot malformed: %v\n%s", err, data)
	}
}

func TestWriteFig12CSVsOnePerBenchmark(t *testing.T) {
	// fig12 is a multi-result experiment: it must write one CSV per
	// benchmark (fig12-<benchmark>.csv), not silently skip the -csv flag.
	c := testCLI(t)
	c.csvDir = t.TempDir()
	results := []*experiments.GroupSweepResult{
		{
			Benchmark: experiments.Benchmarks[1],
			Clean:     0.9,
			Groups: []core.GroupResult{{
				Group:  noise.Softmax,
				Points: []core.SweepPoint{{NM: 0.5, Accuracy: 0.89, Drop: -0.01}},
			}},
		},
		{
			Benchmark: experiments.Benchmarks[4],
			Clean:     0.95,
			Groups: []core.GroupResult{{
				Group:  noise.MACOutputs,
				Points: []core.SweepPoint{{NM: 0.5, Accuracy: 0.5, Drop: -0.45}},
			}},
		},
	}
	if err := c.writeFig12CSVs(results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		path := filepath.Join(c.csvDir, "fig12-"+r.Benchmark.Key()+".csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), r.Benchmark.Dataset) {
			t.Fatalf("%s malformed:\n%s", path, data)
		}
	}
	// With no -csv dir the helper is a silent no-op.
	c.csvDir = ""
	if err := c.writeFig12CSVs(results); err != nil {
		t.Fatal(err)
	}
}

func TestCSVFlagWritesFiles(t *testing.T) {
	c := testCLI(t)
	c.csvDir = t.TempDir()
	var b strings.Builder
	if err := c.run(&b, "experiment", []string{"fig6"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(c.csvDir, "fig6.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "chain_len") {
		t.Fatalf("fig6.csv malformed:\n%s", data)
	}
}

func TestBadJobFlagsAreUsageErrorsBeforeTraining(t *testing.T) {
	// Each value is checked at startup against every job kind that takes
	// it, whichever command runs, and fails with the service's 400 error.
	for _, c := range []struct {
		args []string
		job  experiments.Job
	}{
		{[]string{"-bits", "20", "validate"}, experiments.Job{Kind: "validate", Bits: 20}},
		{[]string{"-backend", "fpga", "validate"}, experiments.Job{Kind: "validate", Backend: "fpga"}},
		{[]string{"-fault", "cosmic-ray", "design"}, experiments.Job{Kind: "fault-sweep", Fault: "cosmic-ray"}},
		{[]string{"-fault", "stuck-at-0", "-fault-bits", "4", "fault-sweep"},
			experiments.Job{Kind: "fault-sweep", Fault: "stuck-at-0", FaultBits: 4}},
	} {
		want := c.job.Normalize()
		if want == nil {
			t.Fatalf("%v: job %+v unexpectedly valid", c.args, c.job)
		}
		dir := t.TempDir()
		var stdout, stderr strings.Builder
		code := runMain(append([]string{"-quick", "-dir", dir, "-log-level", "off"}, c.args...), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), want.Error()) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with %q", c.args, code, stderr.String(), want)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("%v: wrote %d files into -dir before failing", c.args, len(files))
		}
	}
}

func TestJobFlagsPassCommandsThatDoNotTakeThem(t *testing.T) {
	// A flag one kind takes never rejects another: these reach the job
	// command, which then fails on the unknown benchmark (exit 1), not on
	// the flag (exit 2).
	for _, args := range [][]string{
		{"-backend", "float", "design", "nope"},
		{"-fault", "stuck-at-1", "validate", "nope"},
	} {
		var stdout, stderr strings.Builder
		code := runMain(append([]string{"-quick", "-dir", t.TempDir(), "-log-level", "off"}, args...), &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "unknown benchmark") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 on the benchmark", args, code, stderr.String())
		}
	}
}

func TestEveryJobKindReachableFromCLI(t *testing.T) {
	ids := map[string]bool{}
	for _, id := range experimentIDs(false) {
		ids[id] = true
	}
	inAll := map[string]bool{}
	for _, id := range experimentIDs(true) {
		inAll[id] = true
	}
	for _, k := range experiments.JobKinds {
		if k.Command == "" && k.Prefix == "" {
			t.Errorf("kind %q has neither a command nor an experiment-id prefix", k.Name)
		}
		if k.Command != "" {
			// The command routes to the kind: an unknown benchmark is the
			// job's error, not an unknown command.
			var b strings.Builder
			err := testCLI(t).run(&b, k.Command, []string{"nope"})
			if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
				t.Errorf("command %q for kind %q: %v", k.Command, k.Name, err)
			}
		}
		if k.InAll && !inAll[k.Command] {
			t.Errorf("kind %q missing from 'experiment all' as %q", k.Name, k.Command)
		}
		for _, b := range experiments.Benchmarks {
			if k.Prefix != "" && !ids[k.ID(b.Key())] {
				t.Errorf("kind %q has no experiment id %q", k.Name, k.ID(b.Key()))
			}
		}
	}
}
