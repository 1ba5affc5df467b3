package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"redcane/internal/obs"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir holds everything the benchmark keeps or leaves behind: the
	// weight cache, per-run scratch, recorded digests and traces.
	dir string
	// setups is how many full set-ups a run times; the last one serves
	// the ops.
	setups int
	// maxOps caps the measured ops (0 = run until the deadline); tests
	// use it for one-op smokes.
	maxOps int
}

// minOps is the fewest measured ops a run makes even past its deadline:
// enough for a median, and for a traced run at least two of each kind.
const minOps = 4

// record is the full account of one run. It is printed as a JSON line
// before the result line, and the compare tool reads these lines back.
type record struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Env       runEnv           `json:"env"`
	Digest    string           `json:"digest"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// OpS lists every measured untraced op's latency in seconds.
	OpS []float64 `json:"op_s"`
}

// runEnv records the conditions a run was measured under.
type runEnv struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seconds    float64 `json:"seconds"`
	Setups     int     `json:"setups"`
	WarmupOps  int     `json:"warmup_ops"`
	TimedOps   int     `json:"timed_ops"`
	TracedOps  int     `json:"traced_ops"`
	PrepareS   float64 `json:"prepare_s"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opStats is what the op loop observed, the input to every metric.
type opStats struct {
	untraced, traced []float64 // op latencies in seconds
	loopWall         time.Duration
	allocMB, gcs     []float64 // per untraced op of a traced run
	ckptBytes        []float64
	traces           []opTrace
}

type opTrace struct {
	offset time.Duration // trace start relative to the loop start
	tr     *obs.Trace
}

// run executes one benchmark run and returns its record. logw receives
// progress and, for traced runs, the per-layer breakdown.
func run(cfg config, logw io.Writer) (*record, error) {
	root, err := filepath.Abs(cfg.dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, "work"), 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(filepath.Join(root, "work"), cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	e := env{
		cacheDir: filepath.Join(root, "weights"),
		workDir:  workDir,
		seed:     cfg.seed,
		workers:  runtime.NumCPU(),
	}
	w, err := newWorkload(cfg.workload, e)
	if err != nil {
		return nil, err
	}
	digests, err := loadDigests(filepath.Join(root, "digests.json"))
	if err != nil {
		return nil, err
	}

	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Correct: true,
		Env: runEnv{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Seconds: cfg.seconds, Setups: cfg.setups,
		},
	}
	t0 := time.Now()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	rec.Env.PrepareS = time.Since(t0).Seconds()
	fmt.Fprintf(logw, "perfbench: %s seed %d prepared in %.1fs\n", cfg.workload, cfg.seed, rec.Env.PrepareS)

	var reg *obs.Metrics
	if cfg.trace {
		reg = obs.NewMetrics()
	}
	t0 = time.Now()
	setupS, heapMB, parts, inst, err := setups(w, cfg, reg)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	fmt.Fprintf(logw, "perfbench: %d set-ups in %.1fs: %.3f s\n", cfg.setups, time.Since(t0).Seconds(), setupS)

	// The warm-up op is untimed; its output is checked like every op and,
	// for workloads without a precomputed reference, becomes the reference.
	ref := w.reference()
	check := func(out []byte) error {
		if ref != nil && !bytes.Equal(out, ref) {
			return errors.New("output differs from the run's reference output")
		}
		return digests.check(cfg.workload, cfg.seed, out)
	}
	rec.Attempted++
	rec.Env.WarmupOps = 1
	out, _, err := inst.op(nil)
	if err == nil {
		if ref == nil {
			ref = out
		}
		err = check(out)
		rec.Digest = digestOf(out)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}

	base := reg.Snapshot()
	st, failed, mismatch := loop(inst, cfg, reg, check, logw)
	fmt.Fprintf(logw, "perfbench: %d ops in %.1fs\n", len(st.untraced)+len(st.traced)+failed, st.loopWall.Seconds())
	rec.Attempted += len(st.untraced) + len(st.traced) + failed
	rec.Failed = failed
	rec.Correct = !mismatch
	rec.Env.TimedOps = len(st.untraced)
	rec.Env.TracedOps = len(st.traced)
	rec.OpS = st.untraced
	if len(st.untraced) == 0 {
		return rec, errors.New("no op succeeded")
	}

	vals := map[string]float64{}
	if !cfg.trace {
		vals["setup_s"] = median(setupS)
		vals["setup_heap_mb"] = median(heapMB)
		vals["op_p50_s"] = median(st.untraced)
		vals["ops_per_min"] = 60 * float64(len(st.untraced)) / st.loopWall.Seconds()
		rec.Metrics = withUnits(vals, endToEnd)
	} else {
		probes, err := w.probe(inst)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		lm, err := layerMetrics(st, reg.Snapshot(), base, parts, probes, e.workers, logw)
		if err != nil {
			return nil, err
		}
		rec.Metrics = withUnits(lm, perLayer)
		path := filepath.Join(root, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeChromeTrace(path, st.traces); err != nil {
			return nil, err
		}
		fmt.Fprintf(logw, "perfbench: chrome trace written to %s\n", path)
	}
	if err := digests.save(); err != nil {
		return nil, err
	}
	return rec, nil
}

// setups times cfg.setups full set-ups, forcing a GC before each and
// reading the live heap after a GC at its end. The last instance is kept
// for the ops.
func setups(w workload, cfg config, reg *obs.Metrics) (setupS, heapMB []float64, parts map[string][]float64, inst instance, err error) {
	parts = map[string][]float64{}
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, nil, nil, err
			}
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		in, p, err := w.setup(cfg.trace, reg)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		inst = in
		setupS = append(setupS, d.Seconds())
		// Two collections: the first moves sync.Pool contents (the scratch
		// arenas) to the victim cache, the second frees them, so the live
		// heap does not depend on when the last automatic GC ran.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMB = append(heapMB, float64(ms.HeapAlloc)/(1<<20))
		for k, v := range p {
			parts[k] = append(parts[k], v.Seconds())
		}
	}
	return setupS, heapMB, parts, inst, nil
}

// loop runs closed-loop ops until the deadline (or cfg.maxOps). A traced
// run alternates untraced and traced ops, so the tracing overhead is
// measured on interleaved pairs rather than across a drifting host.
func loop(inst instance, cfg config, reg *obs.Metrics, check func([]byte) error, logw io.Writer) (st opStats, failed int, mismatch bool) {
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if cfg.maxOps > 0 {
			if i >= cfg.maxOps {
				break
			}
		} else if i >= minOps && !time.Now().Before(deadline) {
			break
		}
		traced := cfg.trace && i%2 == 1
		var o *obs.Obs
		var tr *obs.Trace
		if traced {
			o = obs.NewWithMetrics(obs.Off, nil, reg)
			tr = obs.NewTrace()
			o.AttachTrace(tr)
		}
		var ms0, ms1 runtime.MemStats
		if cfg.trace && !traced {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		sp := o.StartSpan("bench.op")
		out, ckpt, err := inst.op(o)
		sp.End()
		d := time.Since(t0)
		if cfg.trace && !traced {
			runtime.ReadMemStats(&ms1)
			st.allocMB = append(st.allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			st.gcs = append(st.gcs, float64(ms1.NumGC-ms0.NumGC))
		}
		if err == nil {
			if err = check(out); err != nil {
				mismatch = true
			}
		}
		if err != nil {
			failed++
			fmt.Fprintf(logw, "perfbench: op %d FAILED: %v\n", i, err)
			continue
		}
		if traced {
			st.traced = append(st.traced, d.Seconds())
			st.traces = append(st.traces, opTrace{offset: t0.Sub(start), tr: tr})
		} else {
			st.untraced = append(st.untraced, d.Seconds())
		}
		if cfg.trace {
			st.ckptBytes = append(st.ckptBytes, float64(ckptBytes(ckpt)))
		}
	}
	st.loopWall = time.Since(start)
	return st, failed, mismatch
}

// ckptBytes sums the sizes of the checkpoint files in dir.
func ckptBytes(dir string) int64 {
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.json")) // only a malformed pattern errors
	var n int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func withUnits(vals map[string]float64, list []metric) map[string]value {
	out := make(map[string]value, len(list))
	for _, m := range list {
		out[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

func digestOf(out []byte) string {
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}
