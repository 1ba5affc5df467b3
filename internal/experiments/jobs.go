package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"redcane/internal/noise"
)

// This file is the job-kind table: the one place that defines the
// job-shaped analyses, which optional fields each takes, whether it may
// run over a fleet, how the CLI reaches it and how it runs. The analysis
// service validates and dispatches its jobs through it, and the CLI
// derives its job commands, per-benchmark experiment ids, -csv file names
// and flag checks from it, so the two front ends cannot drift apart.

// JobKind is one row of the job-kind table.
type JobKind struct {
	// Name is the kind a job names.
	Name string
	// Command is the CLI command that runs the kind ("" for none); InAll
	// also makes Command an experiment id that `experiment all` runs on
	// the default benchmark. Prefix, when set, makes Prefix+<benchmark>
	// an experiment id for every benchmark. See ID.
	Command string
	InAll   bool
	Prefix  string
	// Backend, Fault and Sweep say which optional fields the kind takes:
	// backend/bits, fault/fault_bits and nm_sweep/na.
	Backend, Fault, Sweep bool
	// Distributed says whether the kind may run its sweeps over a fleet.
	Distributed bool
	run         func(r *Runner, j Job, b Benchmark) (Result, error)
}

// JobKinds is the job-kind table.
var JobKinds = []JobKind{
	{ // methodology Steps 1–3 (Fig. 9/12)
		Name: "group-sweep", Prefix: "groups-", Sweep: true, Distributed: true,
		run: func(r *Runner, j Job, b Benchmark) (Result, error) { return r.GroupSweep(b, j.Overrides) },
	},
	{ // Steps 1–5 (Fig. 10)
		Name: "layer-sweep", Prefix: "layers-", Sweep: true, Distributed: true,
		run: func(r *Runner, j Job, b Benchmark) (Result, error) { return r.LayerSweep(b, j.Overrides) },
	},
	{ // the full 6-step design
		Name: "methodology", Command: "design", Distributed: true,
		run: func(r *Runner, j Job, b Benchmark) (Result, error) { return r.Design(b) },
	},
	{ // bit-accurate check of the design against the noise model
		Name: "validate", Command: "validate", InAll: true, Backend: true,
		run: func(r *Runner, j Job, b Benchmark) (Result, error) { return r.Validate(b, j.Backend, j.Bits) },
	},
	{ // group-wise fault campaign (bit flips, stuck-at cells)
		Name: "fault-sweep", Command: "fault-sweep", Prefix: "faults-", Fault: true, Sweep: true, Distributed: true,
		run: func(r *Runner, j Job, b Benchmark) (Result, error) {
			return r.FaultSweep(b, noise.Spec{Kind: j.Fault, Bits: j.FaultBits}, j.Overrides)
		},
	},
}

// findJobKind resolves a kind name; an unknown name errors listing every
// valid one.
func findJobKind(name string) (JobKind, error) {
	var names []string
	for _, k := range JobKinds {
		if k.Name == name {
			return k, nil
		}
		names = append(names, k.Name)
	}
	return JobKind{}, fmt.Errorf("unknown job kind %q (valid: %s)", name, strings.Join(names, ", "))
}

// ID is the kind's experiment id on the benchmark key: Prefix+key for
// per-benchmark kinds, else Command. The CLI names the kind's -csv file
// after it.
func (k JobKind) ID(key string) string {
	if k.Prefix != "" {
		return k.Prefix + key
	}
	return k.Command
}

// Job returns the kind's job on the benchmark key, with the backend and
// fault fields copied from opt only when the kind takes them: how the
// CLI's global -backend/-bits/-fault/-fault-bits flags reach just the
// commands they concern.
func (k JobKind) Job(key string, opt Job) Job {
	j := Job{Kind: k.Name, Benchmark: key}
	if k.Backend {
		j.Backend, j.Bits = opt.Backend, opt.Bits
	}
	if k.Fault {
		j.Fault, j.FaultBits = opt.Fault, opt.FaultBits
	}
	return j
}

// Job is one job-shaped analysis: a kind of the table run on one
// benchmark, with the optional fields that kind takes. The analysis
// service embeds it in its job spec, so the JSON names are the wire
// format of POST /v1/jobs.
type Job struct {
	// Kind names the analysis: a JobKinds row, case-insensitive (the
	// unknown-kind error lists them).
	Kind string `json:"kind"`
	// Benchmark is the (architecture, dataset) key, case-insensitive
	// (default capsnet-mnist-like).
	Benchmark string `json:"benchmark,omitempty"`
	// Backend and Bits select the execution backend of kinds that take
	// them (default quant-approx at 8 bits).
	Backend string `json:"backend,omitempty"`
	Bits    uint   `json:"bits,omitempty"`
	// Overrides replace the noise grid and average of sweep kinds.
	Overrides
	// Fault and FaultBits select the injector of kinds that take them
	// (default bit-flip at 8 bits; see noise.Kinds).
	Fault     string `json:"fault,omitempty"`
	FaultBits uint   `json:"fault_bits,omitempty"`
	// Distributed asks for the job's sweeps to run over a worker fleet,
	// which the service hands the runner as Config.Fleet. Artifacts are
	// byte-identical either way, so this is a scheduling knob, absent
	// from the engine fingerprint.
	Distributed bool `json:"distributed,omitempty"`
}

// Normalize validates the job in place against its row of the table: it
// canonicalizes the kind and benchmark key, fills the defaults of the
// fields the kind takes and rejects those it does not. Its errors are
// user errors: the service answers them with a 400, the CLI with exit 2.
func (j *Job) Normalize() error {
	j.Kind = strings.ToLower(strings.TrimSpace(j.Kind))
	k, err := findJobKind(j.Kind)
	if err != nil {
		return err
	}
	if j.Benchmark == "" {
		j.Benchmark = DefaultBenchmark.Key()
	}
	b, err := FindBenchmark(j.Benchmark)
	if err != nil {
		return err
	}
	j.Benchmark = b.Key()
	for _, nm := range j.NMSweep {
		if math.IsNaN(nm) || math.IsInf(nm, 0) {
			return fmt.Errorf("nm_sweep contains non-finite value %v", nm)
		}
		if nm < 0 {
			// Options.WithDefaults silently drops negative grid entries; a
			// job naming one is a mistake worth an error, not a silently
			// smaller grid.
			return fmt.Errorf("nm_sweep contains negative value %v (noise magnitudes are >= 0)", nm)
		}
	}
	if math.IsNaN(j.NA) || math.IsInf(j.NA, 0) {
		return fmt.Errorf("na is not finite")
	}
	if j.NA < 0 {
		return fmt.Errorf("na = %v is negative (noise averages are >= 0)", j.NA)
	}
	switch {
	case !k.Sweep && (len(j.NMSweep) > 0 || j.NA != 0):
		return onlyFor("nm_sweep/na apply", func(k JobKind) bool { return k.Sweep })
	case !k.Distributed && j.Distributed:
		return onlyFor("distributed applies", func(k JobKind) bool { return k.Distributed })
	case !k.Backend && (j.Backend != "" || j.Bits != 0):
		return onlyFor("backend/bits apply", func(k JobKind) bool { return k.Backend })
	case !k.Fault && (j.Fault != "" || j.FaultBits != 0):
		return onlyFor("fault/fault_bits apply", func(k JobKind) bool { return k.Fault })
	}
	if k.Backend {
		if j.Backend == "" {
			j.Backend = "quant-approx"
		}
		if !slices.Contains(ValidBackends, j.Backend) {
			return fmt.Errorf("unknown backend %q (valid: %s)", j.Backend, strings.Join(ValidBackends, ", "))
		}
		if j.Bits == 0 {
			j.Bits = 8
		}
		if j.Bits > 16 {
			return fmt.Errorf("bits = %d out of range (1..16)", j.Bits)
		}
	}
	if k.Fault {
		if j.Fault == "" {
			j.Fault = noise.KindBitFlip
		}
		ns, err := noise.Spec{Kind: j.Fault, Bits: j.FaultBits}.Normalize()
		if err != nil {
			return err
		}
		j.Fault, j.FaultBits = ns.Kind, ns.Bits
	}
	return nil
}

// onlyFor is the error for an optional field set on a kind that does not
// take it; it names every kind that does.
func onlyFor(fields string, takes func(JobKind) bool) error {
	var names []string
	for _, k := range JobKinds {
		if takes(k) {
			names = append(names, k.Name)
		}
	}
	return fmt.Errorf("%s only to %s jobs", fields, strings.Join(names, ", "))
}

// Run normalizes and executes one job and renders its artifacts. It is
// the one entry point of the service's jobs and the CLI's job commands,
// so a job's artifacts are byte-identical whichever front end ran it.
func (r *Runner) Run(j Job) (Artifacts, error) {
	if err := j.Normalize(); err != nil {
		return Artifacts{}, err
	}
	k, _ := findJobKind(j.Kind)
	b, _ := FindBenchmark(j.Benchmark)
	res, err := k.run(r, j, b)
	if err != nil {
		return Artifacts{}, err
	}
	return RenderArtifacts(res)
}

// Result is any experiment result: Render gives its text form. Results
// with machine-readable forms also have WriteCSV and/or WriteJSON.
type Result interface{ Render() string }

// Artifacts are a result's rendered forms.
type Artifacts struct {
	// Text is the rendered result (what the CLI prints).
	Text string
	// CSV and JSON are the machine-readable forms, nil when the result
	// has none.
	CSV, JSON []byte
}

// RenderArtifacts renders a result's text, plus its CSV when it has
// WriteCSV and its JSON when it has WriteJSON: the one renderer behind
// the CLI's output and the service's job artifacts.
func RenderArtifacts(res Result) (Artifacts, error) {
	out := Artifacts{Text: res.Render()}
	if w, ok := res.(interface{ WriteCSV(io.Writer) error }); ok {
		var buf bytes.Buffer
		if err := w.WriteCSV(&buf); err != nil {
			return Artifacts{}, err
		}
		out.CSV = buf.Bytes()
	}
	if w, ok := res.(interface{ WriteJSON(io.Writer) error }); ok {
		var buf bytes.Buffer
		if err := w.WriteJSON(&buf); err != nil {
			return Artifacts{}, err
		}
		out.JSON = buf.Bytes()
	}
	return out, nil
}
