package server

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"redcane/internal/core"
	"redcane/internal/experiments"
	"redcane/internal/obs"
)

// JobSpec is the POST /v1/jobs request body: what to analyze and under
// which results-affecting knobs. Scheduling knobs (workers, queue) are
// server-wide and deliberately absent, mirroring how Options.Fingerprint
// excludes them.
type JobSpec struct {
	// Job is the analysis: a kind of the job-kind table
	// (experiments.JobKinds) on one benchmark, with the optional fields
	// that kind's row accepts. The service runs it through the same
	// Runner.Run as the CLI's job commands, so its artifacts are
	// byte-identical to the CLI's given the same seed.
	experiments.Job
	// Seed overrides the server's master seed for this job.
	Seed *uint64 `json:"seed,omitempty"`
	// Softmax and Squash select the nonlinearity variants the job
	// evaluates under ("" or "exact" keeps the bit-exact operators; see
	// approx.SoftmaxNames / approx.SquashNames). Valid for every kind.
	Softmax string `json:"softmax,omitempty"`
	Squash  string `json:"squash,omitempty"`
	// Probes enables the numeric-health probes: per-layer activation
	// statistics collected at every sweep point, served as the "probes"
	// result format. Probing is inert — the text/CSV/JSON artifacts stay
	// byte-identical — but roughly doubles evaluation cost, so it is
	// off by default. It is a diagnostic knob, not a results-affecting
	// one, and deliberately absent from the engine fingerprint. Probe
	// stats never travel the fleet wire, so probes exclude distributed.
	Probes bool `json:"probes,omitempty"`
	// Priority orders the job in the queue: "low", "normal" (or ""), or
	// "high". Higher priorities dequeue first — no preemption, so a quick
	// high-priority validate runs ahead of queued methodology runs but
	// never interrupts one. Like distributed, it is a scheduling knob:
	// absent from the engine fingerprint, no effect on artifacts.
	Priority string `json:"priority,omitempty"`
}

// The priority levels a spec may name, and their queue ranks.
var priorityRanks = map[string]int{"low": -1, "": 0, "high": 1}

// priorityRank resolves a normalized priority to its queue rank.
func priorityRank(p string) int { return priorityRanks[p] }

// normalize validates the spec in place: the job against its kind's row
// (experiments.Job.Normalize), then the knobs every kind takes. Errors
// are user errors (HTTP 400).
func (spec *JobSpec) normalize() error {
	if err := spec.Job.Normalize(); err != nil {
		return err
	}
	if spec.Distributed && spec.Probes {
		return fmt.Errorf("probes cannot be collected over a distributed fleet")
	}
	if _, err := core.ResolveNonlinearity(spec.Softmax, spec.Squash); err != nil {
		return err
	}
	if spec.Softmax == "exact" {
		spec.Softmax = ""
	}
	if spec.Squash == "exact" {
		spec.Squash = ""
	}
	spec.Priority = strings.ToLower(strings.TrimSpace(spec.Priority))
	if spec.Priority == "normal" {
		spec.Priority = "" // canonical form, like softmax "exact"
	}
	if _, ok := priorityRanks[spec.Priority]; !ok {
		return fmt.Errorf("unknown priority %q (valid: low, normal, high)", spec.Priority)
	}
	return nil
}

// Artifacts is a finished job's outputs: the text, CSV and JSON forms
// experiments.Runner.Run renders, which the CLI writes for the
// corresponding command, plus the probe artifacts.
type Artifacts struct {
	// Text is the rendered result (what the CLI prints to stdout).
	Text string
	// CSV and JSON are the machine-readable forms, when the result has
	// them.
	CSV, JSON []byte
	// ProbesCSV / ProbesJSON are the numeric-health probe artifacts,
	// present when the job asked for probes.
	ProbesCSV  []byte
	ProbesJSON []byte
}

// artifact file names in the job store, by ?format= key.
var artifactFiles = map[string]struct{ name, contentType string }{
	"text":       {"result.txt", "text/plain; charset=utf-8"},
	"csv":        {"result.csv", "text/csv; charset=utf-8"},
	"json":       {"result.json", "application/json"},
	"probes":     {"probes.json", "application/json"},
	"probes-csv": {"probes.csv", "text/csv; charset=utf-8"},
}

// files maps the present artifacts to their store names for persistence.
func (a Artifacts) files() map[string][]byte {
	out := map[string][]byte{"result.txt": []byte(a.Text)}
	for name, data := range map[string][]byte{
		"result.csv":  a.CSV,
		"result.json": a.JSON,
		"probes.csv":  a.ProbesCSV,
		"probes.json": a.ProbesJSON,
	} {
		if data != nil {
			out[name] = data
		}
	}
	return out
}

// runSpec executes one job against the real experiment runner. Each job
// owns a fresh Runner so nothing is shared across concurrent jobs except
// the weight-cache directory (guarded by the server's train gate) and
// the process metrics registry; analysis checkpoints are keyed by the
// job's private directory, so a restarted server resumes this job — and
// only this job — from its last completed sweep window.
func (s *Server) runSpec(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
	seed := s.cfg.Seed
	if spec.Seed != nil {
		seed = *spec.Seed
	}
	var probes *core.ProbeSet
	if spec.Probes {
		probes = core.NewProbeSet()
	}
	var fleet core.Fleet
	if spec.Distributed {
		fleet = s.fleet.ForJob(filepath.Base(jobDir), spec.Benchmark, s.cfg.Quick, seed)
	}
	r := experiments.NewRunner(experiments.Config{
		Dir:           s.cfg.StateDir,
		Quick:         s.cfg.Quick,
		Seed:          seed,
		Workers:       s.jobWorkers(),
		Obs:           o,
		Ctx:           ctx,
		Checkpoint:    true,
		CheckpointDir: jobDir,
		TrainMu:       &s.trainMu,
		Probes:        probes,
		Fleet:         fleet,
		Softmax:       spec.Softmax,
		Squash:        spec.Squash,
	})
	res, err := r.Run(spec.Job)
	if err != nil {
		return Artifacts{}, err
	}
	art := Artifacts{Text: res.Text, CSV: res.CSV, JSON: res.JSON}
	if probes != nil {
		var cbuf, jbuf bytes.Buffer
		if err := probes.WriteCSV(&cbuf); err != nil {
			return Artifacts{}, err
		}
		if err := probes.WriteJSON(&jbuf); err != nil {
			return Artifacts{}, err
		}
		art.ProbesCSV = cbuf.Bytes()
		art.ProbesJSON = jbuf.Bytes()
	}
	return art, nil
}
