// Command redcane drives the ReD-CaNe reproduction: training the
// benchmark CapsNets, regenerating every table and figure of the paper's
// evaluation, and producing approximate-CapsNet designs with the full
// 6-step methodology.
//
// Usage:
//
//	redcane [flags] <command> [args]
//
// Commands:
//
//	train                     train (or load) all five benchmarks, print Table II
//	experiment <id>|all       regenerate a paper artifact: table1..table4,
//	                          fig4..fig6, fig9..fig12, ablation-routing,
//	                          ablation-lut, ablation-na, ablation-faults,
//	                          ablation-selection, ablation-range, stability,
//	                          accel, validate, the per-benchmark sweeps
//	                          groups-/layers-/faults-<benchmark>, or all
//	design [benchmark]        run the 6-step methodology (default capsnet-mnist-like)
//	refine [benchmark]        design plus the validate-and-repair refinement loop
//	validate [benchmark]      run the selected design bit-accurately on the
//	                          -backend execution backend and compare measured
//	                          accuracy with the noise model's prediction per
//	                          design, group, and MAC layer
//	fault-sweep [benchmark]   group-wise resilience under a fault injector
//	                          (-fault kind) instead of the Gaussian noise
//	                          model; same engine, severity grid per kind
//	characterize [component]  error profiles of one or all library multipliers
//	energy                    the energy analysis bundle (table1 + fig4 + fig5)
//	serve                     long-running HTTP/JSON analysis job service
//	                          (serve flags: -addr :8080, -queue 16, -slots 2,
//	                          -lease-ttl 30s for distributed sweep leases,
//	                          -keys file for multi-tenant API keys with
//	                          per-tenant quotas and rate limits)
//	worker                    join a coordinator's fleet and evaluate leased
//	                          sweep windows (worker flags: -join URL required,
//	                          -name worker-<pid>, -poll 500ms)
//	client                    drive a running service over its HTTP API:
//	                          submit/status/result/cancel/list/health
//	                          (client flags: -server URL, -key K, -format,
//	                          -wait, -poll)
//	list                      list benchmarks and experiment ids
//
// Flags:
//
//	-dir        weight-cache directory (default .redcane-cache)
//	-quick      reduced dataset/epoch/evaluation sizes
//	-seed       master seed (default 42)
//	-workers    sweep-engine evaluation goroutines (default GOMAXPROCS);
//	            results are bit-identical for any worker count
//	-checkpoint persist analysis progress under -dir so interrupted runs
//	            resume bit-identically (default true)
//	-csv        also write machine-readable CSVs into this directory
//	-json       write the design report as JSON to this file (design/refine)
//	-backend    execution backend for validate: float, quant-exact, or
//	            quant-approx (default quant-approx)
//	-bits       operand wordlength of the quantized backends (default 8)
//	-softmax    routing softmax operator: exact (default), base2, or pwl;
//	            approximate variants apply to every analysis and sweep
//	-squash     capsule squash operator: exact (default) or sqnorm
//	-fault      fault-sweep injector kind: gaussian, bit-flip (default),
//	            stuck-at-0, or stuck-at-1
//	-fault-bits bit-flip word length (default 8; bit-flip kind only)
//	-v          shorthand for -log-level info
//	-log-level  event verbosity: debug, info, warn (default), error, off
//	-metrics    write a JSON telemetry snapshot (counters/gauges/timers:
//	            cache hit rates, per-layer forward timings, worker
//	            utilization, latency histograms) to this file on exit
//	-probes     write numeric-health probes (per-layer activation stats,
//	            SQNR, saturation/overflow counts per sweep point) to
//	            probes.csv and probes.json in this directory; inert —
//	            results stay byte-identical — but ~doubles eval cost
//	-trace-out  write a Chrome trace-event JSON execution trace to this
//	            file on exit (load in chrome://tracing or Perfetto)
//	-pprof      serve net/http/pprof on this address (e.g. localhost:6060)
//	-cpuprofile write a CPU profile to this file
//
// Exit codes: 0 success, 1 error, 2 usage, 130 interrupted (SIGINT or
// SIGTERM). On interrupt the run stops at the next batch boundary,
// flushes the -metrics snapshot and any partial outputs, and — with
// -checkpoint — leaves a resumable analysis checkpoint in -dir. The
// serve command treats SIGINT/SIGTERM as a graceful drain and exits 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"redcane/internal/approx"
	"redcane/internal/core"
	"redcane/internal/experiments"
	"redcane/internal/noise"
	"redcane/internal/obs"
	"redcane/internal/server"
)

// exitInterrupted is the conventional exit status for a SIGINT-style
// shutdown (128 + SIGINT).
const exitInterrupted = 130

func main() { os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr)) }

// runMain is the whole command: it parses args, checks every flag value
// before any training or analysis starts, runs the command and flushes
// the telemetry. It returns the process exit code.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".redcane-cache", "weight-cache directory")
	quick := fs.Bool("quick", false, "reduced dataset/epoch/evaluation sizes")
	seed := fs.Uint64("seed", 42, "master seed")
	workers := fs.Int("workers", 0, "sweep-engine evaluation goroutines (0 = GOMAXPROCS); never affects results")
	checkpointOn := fs.Bool("checkpoint", true, "persist analysis progress under -dir so interrupted runs resume")
	csvDir := fs.String("csv", "", "also write machine-readable CSVs into this directory")
	jsonPath := fs.String("json", "", "write the design report as JSON to this file (design/refine)")
	backend := fs.String("backend", "quant-approx", "validate execution backend: float|quant-exact|quant-approx")
	bits := fs.Uint("bits", 8, "operand wordlength of the quantized backends")
	softmax := fs.String("softmax", "exact", "routing softmax operator: exact|base2|pwl")
	squash := fs.String("squash", "exact", "capsule squash operator: exact|sqnorm")
	fault := fs.String("fault", noise.KindBitFlip, "fault-sweep injector kind: gaussian|bit-flip|stuck-at-0|stuck-at-1")
	faultBits := fs.Uint("fault-bits", 0, "bit-flip word length (default 8; bit-flip kind only)")
	verbose := fs.Bool("v", false, "shorthand for -log-level info")
	logLevel := fs.String("log-level", "", "event verbosity: debug|info|warn|error|off (default warn)")
	metricsPath := fs.String("metrics", "", "write a JSON telemetry snapshot to this file on exit")
	probesDir := fs.String("probes", "", "write numeric-health probes (probes.csv/probes.json) into this directory")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON trace to this file on exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	// Bad flag values are usage errors: fail before any training or
	// analysis starts.
	needMetrics := *metricsPath != "" || *pprofAddr != "" || *cpuProfile != "" || *traceOut != ""
	o, err := buildObs(*logLevel, *verbose, needMetrics)
	opt := experiments.Job{Backend: *backend, Bits: *bits, Fault: *fault, FaultBits: *faultBits}
	if err == nil {
		err = checkJobFlags(opt)
	}
	if err == nil {
		_, err = core.ResolveNonlinearity(*softmax, *squash)
	}
	if err != nil {
		fmt.Fprintln(stderr, "redcane:", err)
		return 2
	}
	var trace *obs.Trace
	if *traceOut != "" {
		trace = obs.NewTrace()
		o.AttachTrace(trace)
	}
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		// net/http/pprof registers on the default mux; wrapping it in an
		// owned server (rather than the old bare ListenAndServe) gives the
		// endpoint header timeouts and a shutdown handle that is closed
		// below instead of leaking past process teardown.
		pprofSrv = server.NewHTTPServer(*pprofAddr, http.DefaultServeMux)
		o.Info("pprof server listening", obs.F("addr", *pprofAddr))
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				o.Warn("pprof server failed", obs.F("addr", *pprofAddr), obs.F("err", err))
			}
		}()
	}
	var profFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "redcane:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "redcane:", err)
			return 1
		}
		profFile = f
	}

	// SIGINT/SIGTERM cancel the run context: work stops at the next batch
	// boundary and the shutdown path below still flushes telemetry and
	// partial outputs. A second signal kills the process immediately.
	// Closing stopSig ends the watcher once the command has returned.
	runCtx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 2)
	stopSig := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
		case <-stopSig:
			return
		}
		fmt.Fprintln(stderr, "redcane: interrupted; stopping at next batch (signal again to kill)")
		cancel()
		select {
		case <-sig:
			os.Exit(exitInterrupted)
		case <-stopSig:
		}
	}()

	var probes *core.ProbeSet
	if *probesDir != "" {
		probes = core.NewProbeSet()
	}
	cfg := experiments.Config{
		Dir: *dir, Quick: *quick, Seed: *seed, Workers: *workers, Obs: o,
		Ctx: runCtx, Checkpoint: *checkpointOn, Probes: probes,
		Softmax: *softmax, Squash: *squash,
	}
	c := &cli{
		runner: experiments.NewRunner(cfg), obs: o, ctx: runCtx, cfg: cfg,
		csvDir: *csvDir, jsonPath: *jsonPath, opt: opt,
	}
	runErr := c.run(stdout, fs.Arg(0), fs.Args()[1:])
	signal.Stop(sig)
	close(stopSig)
	cancel()

	exitCode := 0
	if runErr != nil {
		exitCode = 1
		if errors.Is(runErr, context.Canceled) {
			exitCode = exitInterrupted
		}
	}

	// Flush the profile and snapshot even when the command failed or was
	// interrupted: a partial run's telemetry is exactly what debugs it.
	flushErr := func(err error) {
		if err != nil {
			fmt.Fprintln(stderr, "redcane:", err)
			if exitCode == 0 {
				exitCode = 1
			}
		}
	}
	if profFile != nil {
		pprof.StopCPUProfile()
		flushErr(profFile.Close())
	}
	if pprofSrv != nil {
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
		pprofSrv.Shutdown(shutCtx) //nolint:errcheck // best-effort teardown
		shutCancel()
	}
	if probes != nil {
		flushErr(writeProbes(probes, *probesDir))
	}
	if trace != nil {
		flushErr(writeTrace(trace, *traceOut))
	}
	if *metricsPath != "" {
		flushErr(writeMetrics(o, *metricsPath))
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "redcane:", runErr)
	}
	return exitCode
}

// checkJobFlags checks the job flags against every job kind that takes
// them, so a bad -backend, -bits, -fault or -fault-bits fails at startup
// with the error the service answers the same job with, whichever
// command runs.
func checkJobFlags(opt experiments.Job) error {
	for _, k := range experiments.JobKinds {
		j := k.Job("", opt)
		if err := j.Normalize(); err != nil {
			return err
		}
	}
	return nil
}

// buildObs resolves the -log-level / -v flags into the process Obs.
// Level off with no metrics consumer yields a nil Obs — the fully
// disabled zero-cost path.
func buildObs(logLevel string, verbose, needMetrics bool) (*obs.Obs, error) {
	level := obs.Warn
	if verbose {
		level = obs.Info
	}
	if logLevel != "" {
		var err error
		if level, err = obs.ParseLevel(logLevel); err != nil {
			return nil, err
		}
	}
	if level == obs.Off && !needMetrics {
		return nil, nil
	}
	return obs.New(level, obs.NewTextSink(os.Stderr)), nil
}

// writeMetrics persists the end-of-run metrics snapshot, sampling the
// runtime gauges (goroutines, heap, GC) first. The close error is
// returned: a snapshot that did not reach the disk (full filesystem,
// quota) must fail the flush rather than silently report success.
func writeMetrics(o *obs.Obs, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	obs.SampleRuntime(o.Metrics())
	if err := o.Metrics().Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeProbes persists the numeric-health probes as probes.csv and
// probes.json under dir. Like the metrics snapshot, probes from a failed
// or interrupted run are flushed too — partial health data is exactly
// what debugs a partial run.
func writeProbes(ps *core.ProbeSet, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeOne := func(name string, write func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeOne("probes.csv", ps.WriteCSV); err != nil {
		return err
	}
	return writeOne("probes.json", ps.WriteJSON)
}

// writeTrace persists the execution trace as Chrome trace-event JSON.
func writeTrace(tr *obs.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: redcane [flags] <command> [args]

commands:
  train                     train (or load) all benchmarks, print Table II
  experiment <id> | all     table1..table4, fig4..fig6, fig9..fig12,
                            ablation-routing, ablation-lut, ablation-na,
                            ablation-faults, ablation-selection,
                            ablation-range, stability, accel, validate,
                            groups-/layers-/faults-<benchmark>
  design [benchmark]        full 6-step methodology (see 'list')
  refine [benchmark]        design + validate-and-repair refinement loop
  validate [benchmark]      run the selected design bit-accurately on the
                            -backend backend; compare measured accuracy with
                            the noise model per design, group, and MAC layer
  fault-sweep [benchmark]   group-wise resilience under the -fault injector
                            (bit flips, stuck-at cells) instead of the
                            Gaussian noise model; severity grid per kind
  characterize [component]  multiplier error profiles
  energy                    table1 + fig4 + fig5
  serve                     HTTP/JSON analysis job service over -dir; jobs
                            checkpoint and resume across restarts
                            (serve flags: -addr :8080, -queue 16, -slots 2,
                            -lease-ttl 30s for distributed sweep leases,
                            -keys file for multi-tenant API keys)
  worker                    join a coordinator's fleet and evaluate leased
                            sweep windows (worker flags: -join URL required,
                            -name worker-<pid>, -poll 500ms)
  client                    drive a running service over its HTTP API:
                            submit <spec.json|->, status/result/cancel <id>,
                            list, health (client flags: -server URL, -key K,
                            -format text|csv|json|probes|probes-csv,
                            -wait, -poll 500ms)
  list                      benchmarks and experiment ids

flags:
  -dir cache     weight-cache directory (default .redcane-cache)
  -quick         reduced dataset/epoch/evaluation sizes
  -seed n        master seed (default 42)
  -workers n     sweep-engine goroutines (default GOMAXPROCS); results
                 are bit-identical for any worker count
  -checkpoint    persist analysis progress under -dir so interrupted runs
                 resume bit-identically (default true)
  -csv dir       also write machine-readable CSVs into this directory
  -json file     write the design report as JSON (design/refine; refine
                 includes the repaired choices and repair trace)
  -backend name  validate execution backend: float, quant-exact, or
                 quant-approx (default quant-approx)
  -bits n        operand wordlength of the quantized backends (default 8;
                 approximate multipliers require n <= 8)
  -softmax name  routing softmax operator: exact (default), base2 (2^x
                 shift hardware), or pwl (piecewise-linear exponential);
                 approximate variants apply to every analysis and sweep
  -squash name   capsule squash operator: exact (default) or sqnorm
                 (Newton-free squared-norm squash)
  -fault kind    fault-sweep injector: gaussian, bit-flip (default),
                 stuck-at-0, or stuck-at-1
  -fault-bits n  bit-flip word length (default 8; bit-flip kind only)
  -v             shorthand for -log-level info
  -log-level l   event verbosity: debug|info|warn|error|off (default warn)
  -metrics file  write a JSON telemetry snapshot on exit
  -probes dir    write numeric-health probes (probes.csv/probes.json):
                 per-layer activation stats, SQNR, saturation/overflow
                 per sweep point; inert but ~doubles evaluation cost
  -trace-out f   write a Chrome trace-event JSON trace on exit
                 (load in chrome://tracing or Perfetto)
  -pprof addr    serve net/http/pprof on this address
  -cpuprofile f  write a CPU profile to this file

exit codes:
  0 success, 1 error, 2 usage, 130 interrupted (SIGINT/SIGTERM stops at
  the next batch boundary; a second signal kills immediately; serve
  drains gracefully and exits 0; worker leaves the fleet and exits 0)`)
}

// cli bundles the runner with output options.
type cli struct {
	runner   *experiments.Runner
	obs      *obs.Obs
	ctx      context.Context
	cfg      experiments.Config
	csvDir   string
	jsonPath string
	// opt holds the -backend/-bits/-fault/-fault-bits values; each job
	// takes from it only the fields its kind accepts.
	opt experiments.Job
}

func (c *cli) run(w io.Writer, cmd string, args []string) error {
	sp := c.obs.StartSpan("command."+cmd, obs.F("args", args))
	defer sp.End()
	r := c.runner
	switch cmd {
	case "train":
		res, err := r.Table2()
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		return nil
	case "experiment":
		if len(args) != 1 {
			return fmt.Errorf("experiment wants one id (or 'all'); see 'redcane list'")
		}
		return c.runExperiments(w, args[0])
	case "refine":
		b := experiments.DefaultBenchmark
		if len(args) == 1 {
			var err error
			if b, err = experiments.FindBenchmark(args[0]); err != nil {
				return err
			}
		}
		res, err := r.Design(b)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		ref, err := r.RefineDesign(b, res)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, core.FormatRefine(ref))
		if c.jsonPath == "" {
			return nil
		}
		// refine serializes the refined design — the repaired choices,
		// final validated accuracy and the repair trace — not the
		// pre-refinement report.
		var buf bytes.Buffer
		if err := core.WriteRefinedJSON(&buf, res.Report, ref); err != nil {
			return err
		}
		return os.WriteFile(c.jsonPath, buf.Bytes(), 0o666)
	case "characterize":
		return characterize(w, args)
	case "energy":
		for _, id := range []string{"table1", "fig4", "fig5"} {
			if err := c.runExperiments(w, id); err != nil {
				return err
			}
		}
		return nil
	case "serve":
		return c.serve(w, args)
	case "worker":
		return c.worker(w, args)
	case "client":
		return c.clientCmd(w, args)
	case "list":
		fmt.Fprintln(w, "benchmarks:")
		for _, b := range experiments.Benchmarks {
			fmt.Fprintf(w, "  %s\n", b.Key())
		}
		// Derived from the experiment table so the listing cannot drift
		// from what `experiment` actually accepts.
		fmt.Fprintln(w, "experiments (in 'all' order):")
		fmt.Fprintf(w, "  %s\n", strings.Join(experimentIDs(true), " "))
		fmt.Fprintln(w, "per-benchmark sweeps (not part of 'all'):")
		fmt.Fprintln(w, "  groups-<benchmark>  methodology Steps 1-3 (Fig. 9/12 for that benchmark)")
		fmt.Fprintln(w, "  layers-<benchmark>  layer-wise MAC sweep (Fig. 10 for that benchmark)")
		fmt.Fprintln(w, "  faults-<benchmark>  group-wise fault campaign under -fault/-fault-bits")
		return nil
	default:
		for _, k := range experiments.JobKinds {
			if cmd != "" && k.Command == cmd {
				key := ""
				if len(args) == 1 {
					key = args[0]
				}
				return c.runJob(w, k, key)
			}
		}
		usage(os.Stderr)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runJob runs kind k on the benchmark key ("" = the default benchmark)
// with the job flags the kind takes: one Runner.Run, whose artifacts are
// the service's for the same job. It prints the text and writes the CSV
// as <-csv>/<id>.csv and the JSON to -json.
func (c *cli) runJob(w io.Writer, k experiments.JobKind, key string) error {
	j := k.Job(key, c.opt)
	if err := j.Normalize(); err != nil {
		return err
	}
	art, err := c.runner.Run(j)
	if err != nil {
		return err
	}
	return c.emit(w, k.ID(j.Benchmark), art)
}

// emit prints a result's text and writes those machine-readable forms
// the result has and the flags ask for: the CSV as <-csv>/<id>.csv, the
// JSON to -json.
func (c *cli) emit(w io.Writer, id string, art experiments.Artifacts) error {
	fmt.Fprint(w, art.Text)
	if err := c.saveCSV(id, art.CSV); err != nil {
		return err
	}
	if c.jsonPath == "" || art.JSON == nil {
		return nil
	}
	return os.WriteFile(c.jsonPath, art.JSON, 0o666)
}

// saveCSV writes csv as <-csv>/<id>.csv; a no-op without -csv or data.
func (c *cli) saveCSV(id string, csv []byte) error {
	if c.csvDir == "" || csv == nil {
		return nil
	}
	if err := os.MkdirAll(c.csvDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.csvDir, id+".csv"), csv, 0o666)
}

// serve runs the long-lived analysis service until the run context is
// cancelled (SIGINT/SIGTERM), then drains: admission stops, running jobs
// cancel at their next batch boundary with their progress checkpointed
// under -dir, the metrics snapshot flushes, and open connections close.
// A clean drain exits 0.
func (c *cli) serve(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	queue := fs.Int("queue", 16, "max queued jobs before submissions get 429")
	slots := fs.Int("slots", 2, "jobs running concurrently (each gets -workers/-slots goroutines)")
	leaseTTL := fs.Duration("lease-ttl", server.DefaultLeaseTTL,
		"fleet lease lifetime before an unrenewed window is re-issued")
	keysPath := fs.String("keys", "",
		"API-key file enabling multi-tenant mode ({\"tenants\":[{\"name\",\"key\",\"max_queued\",\"rate_per_min\"}]}); empty = anonymous")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no arguments, got %q", fs.Args())
	}
	var auth *server.Auth
	if *keysPath != "" {
		var err error
		if auth, err = server.LoadKeys(*keysPath); err != nil {
			return err
		}
	}
	srv, err := server.New(server.Config{
		StateDir: c.cfg.Dir, Quick: c.cfg.Quick, Seed: c.cfg.Seed,
		Workers: c.cfg.Workers, Slots: *slots, QueueCap: *queue, Obs: c.obs,
		LeaseTTL: *leaseTTL, Auth: auth,
	})
	if err != nil {
		return err
	}
	hs := server.NewHTTPServer(*addr, srv)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "redcane serve listening on %s (state: %s)\n", ln.Addr(), c.cfg.Dir)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died; still drain so running jobs checkpoint.
		if derr := srv.Drain(context.Background()); derr != nil {
			return errors.Join(err, derr)
		}
		return err
	case <-c.ctx.Done():
	}
	// Drain before Shutdown: open NDJSON event streams only end when
	// their jobs' sinks close, which draining causes; Shutdown would
	// otherwise wait on them forever.
	fmt.Fprintln(w, "redcane serve draining")
	if err := srv.Drain(context.Background()); err != nil {
		return err
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	fmt.Fprintln(w, "redcane serve drained cleanly")
	return nil
}

// worker joins a coordinator's fleet and evaluates leased sweep windows
// until the run context is cancelled (SIGINT/SIGTERM), which is the clean
// way to leave: any window in flight is abandoned and the coordinator
// re-issues it when the lease expires, so results stay byte-identical.
func (c *cli) worker(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	join := fs.String("join", "", "coordinator base URL (required), e.g. http://host:8080")
	name := fs.String("name", "", "worker name reported to the coordinator (default worker-<pid>)")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle poll interval when no work is leased")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("worker takes no arguments, got %q", fs.Args())
	}
	if *join == "" {
		return fmt.Errorf("worker requires -join with the coordinator base URL")
	}
	wk := &server.Worker{
		Base: strings.TrimRight(*join, "/"),
		Name: *name,
		Poll: *poll,
		Obs:  c.obs,
		// nil quick override: trust the sweep's recorded mode so a worker
		// started without -quick can still serve a -quick coordinator.
		Resolve: server.ExperimentResolver(c.cfg.Dir, nil, c.cfg.Workers, c.obs),
	}
	fmt.Fprintf(w, "redcane worker joining %s (cache: %s)\n", wk.Base, c.cfg.Dir)
	if err := wk.Run(c.ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	fmt.Fprintln(w, "redcane worker left the fleet")
	return nil
}

// clientCmd drives a running analysis service over its HTTP API:
//
//	redcane client -server URL [-key K] submit <spec.json|->  (- = stdin)
//	redcane client -server URL [-key K] status|result|cancel <job-id>
//	redcane client -server URL [-key K] list|health
//
// submit prints the created job's status; with -wait it polls until the
// job finishes and then prints the result artifact (-format selects
// which). Exit code 1 on any API error, including a failed job.
func (c *cli) clientCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("client", flag.ContinueOnError)
	serverURL := fs.String("server", "http://localhost:8080", "analysis-service base URL")
	key := fs.String("key", "", "API key (Authorization: Bearer) for a -keys server")
	format := fs.String("format", "", "result artifact format: text|csv|json|probes|probes-csv (default text)")
	wait := fs.Bool("wait", false, "submit only: poll until the job finishes, then print its result")
	poll := fs.Duration("poll", 500*time.Millisecond, "poll interval for -wait")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("client wants an action: submit, status, result, cancel, list, health")
	}
	cl := server.NewClient(*serverURL, *key)
	action, rest := fs.Arg(0), fs.Args()[1:]
	jsonOut := func(v any) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(v)
	}
	oneArg := func(what string) (string, error) {
		if len(rest) != 1 {
			return "", fmt.Errorf("client %s wants exactly one %s", action, what)
		}
		return rest[0], nil
	}
	switch action {
	case "submit":
		path, err := oneArg("spec file (or - for stdin)")
		if err != nil {
			return err
		}
		var data []byte
		if path == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(path)
		}
		if err != nil {
			return err
		}
		var spec server.JobSpec
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("invalid job spec: %w", err)
		}
		st, err := cl.Submit(c.ctx, spec)
		if err != nil {
			return err
		}
		if !*wait {
			return jsonOut(st)
		}
		if st, err = cl.Wait(c.ctx, st.ID, *poll); err != nil {
			return err
		}
		if st.State != server.StateDone {
			return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		res, err := cl.Result(c.ctx, st.ID, *format)
		if err != nil {
			return err
		}
		_, err = w.Write(res)
		return err
	case "status":
		id, err := oneArg("job id")
		if err != nil {
			return err
		}
		st, err := cl.Status(c.ctx, id)
		if err != nil {
			return err
		}
		return jsonOut(st)
	case "result":
		id, err := oneArg("job id")
		if err != nil {
			return err
		}
		res, err := cl.Result(c.ctx, id, *format)
		if err != nil {
			return err
		}
		_, err = w.Write(res)
		return err
	case "cancel":
		id, err := oneArg("job id")
		if err != nil {
			return err
		}
		st, err := cl.Cancel(c.ctx, id)
		if err != nil {
			return err
		}
		return jsonOut(st)
	case "list":
		sts, err := cl.List(c.ctx)
		if err != nil {
			return err
		}
		return jsonOut(sts)
	case "health":
		h, err := cl.ServerHealth(c.ctx)
		if err != nil {
			return err
		}
		return jsonOut(h)
	default:
		return fmt.Errorf("unknown client action %q (valid: submit, status, result, cancel, list, health)", action)
	}
}

// experimentEntry is one row of the experiment registry: the id the CLI
// accepts, whether `experiment all` includes it, and how to run it.
type experimentEntry struct {
	id    string
	inAll bool
	run   func(c *cli, w io.Writer) error
}

// resultEntry adapts the common single-result shape (run, then emit the
// artifacts under the experiment id) into an entry.
func resultEntry(id string, inAll bool, f func(c *cli) (experiments.Result, error)) experimentEntry {
	return experimentEntry{id: id, inAll: inAll, run: func(c *cli, w io.Writer) error {
		res, err := f(c)
		if err != nil {
			return err
		}
		art, err := experiments.RenderArtifacts(res)
		if err != nil {
			return err
		}
		return c.emit(w, id, art)
	}}
}

// jobEntry runs job kind k on the benchmark key as experiment id.
func jobEntry(id string, inAll bool, k experiments.JobKind, key string) experimentEntry {
	return experimentEntry{id: id, inAll: inAll, run: func(c *cli, w io.Writer) error {
		return c.runJob(w, k, key)
	}}
}

// experimentTable is the single registry every experiment-facing path
// derives from: `experiment <id>` lookup, the `experiment all` sequence,
// the `list` output and the unknown-id error all read it, so an
// experiment added here is automatically reachable everywhere. The job
// entries (validate and the per-benchmark groups-/layers-/faults- ids)
// come from the job-kind table and run through Runner.Run, like the
// analysis service's jobs, which is what lets the smoke tests compare
// HTTP artifacts against the CLI byte-for-byte.
func experimentTable() []experimentEntry {
	entries := []experimentEntry{
		resultEntry("table1", true, func(c *cli) (experiments.Result, error) { return experiments.Table1() }),
		resultEntry("fig4", true, func(c *cli) (experiments.Result, error) { return experiments.Fig4() }),
		resultEntry("fig5", true, func(c *cli) (experiments.Result, error) { return experiments.Fig5() }),
		resultEntry("fig6", true, func(c *cli) (experiments.Result, error) { return c.runner.Fig6() }),
		resultEntry("table2", true, func(c *cli) (experiments.Result, error) { return c.runner.Table2() }),
		resultEntry("table3", true, func(c *cli) (experiments.Result, error) { return c.runner.Table3() }),
		resultEntry("fig9", true, func(c *cli) (experiments.Result, error) { return c.runner.Fig9() }),
		resultEntry("fig10", true, func(c *cli) (experiments.Result, error) { return c.runner.Fig10() }),
		resultEntry("fig11", true, func(c *cli) (experiments.Result, error) { return c.runner.Fig11() }),
		resultEntry("table4", true, func(c *cli) (experiments.Result, error) { return c.runner.Table4() }),
		{id: "fig12", inAll: true, run: func(c *cli, w io.Writer) error {
			results, err := c.runner.Fig12()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Fig. 12 — group-wise resilience on the remaining benchmarks")
			for _, g := range results {
				fmt.Fprint(w, g.Render())
			}
			return c.writeFig12CSVs(results)
		}},
		resultEntry("ablation-routing", true, func(c *cli) (experiments.Result, error) { return c.runner.AblationRoutingIterations() }),
		resultEntry("ablation-lut", true, func(c *cli) (experiments.Result, error) { return c.runner.AblationNoiseVsLUT() }),
		resultEntry("ablation-na", true, func(c *cli) (experiments.Result, error) { return c.runner.AblationNoiseAverage() }),
		resultEntry("ablation-faults", true, func(c *cli) (experiments.Result, error) { return c.runner.AblationFaultTypes() }),
		resultEntry("ablation-selection", true, func(c *cli) (experiments.Result, error) {
			return c.runner.AblationSelectionStrategy(experiments.DefaultBenchmark)
		}),
		resultEntry("ablation-range", true, func(c *cli) (experiments.Result, error) {
			return c.runner.AblationRangeEstimator(experiments.DefaultBenchmark)
		}),
		resultEntry("stability", true, func(c *cli) (experiments.Result, error) {
			return c.runner.Stability(experiments.DefaultBenchmark, 5)
		}),
		resultEntry("accel", true, func(c *cli) (experiments.Result, error) { return experiments.Accel() }),
	}
	for _, k := range experiments.JobKinds {
		if k.InAll {
			entries = append(entries, jobEntry(k.Command, true, k, ""))
		}
	}
	for _, b := range experiments.Benchmarks {
		for _, k := range experiments.JobKinds {
			if k.Prefix != "" {
				entries = append(entries, jobEntry(k.ID(b.Key()), false, k, b.Key()))
			}
		}
	}
	return entries
}

// experimentIDs lists the registered ids, optionally only those that
// `experiment all` runs.
func experimentIDs(inAllOnly bool) []string {
	var ids []string
	for _, e := range experimentTable() {
		if !inAllOnly || e.inAll {
			ids = append(ids, e.id)
		}
	}
	return ids
}

func (c *cli) runExperiments(w io.Writer, id string) error {
	table := experimentTable()
	if id == "all" {
		for _, e := range table {
			if !e.inAll {
				continue
			}
			if err := c.runExperiment(w, e); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, e := range table {
		if e.id == id {
			return c.runExperiment(w, e)
		}
	}
	return fmt.Errorf("unknown experiment %q; valid: %s, all (and groups-/layers-<benchmark>; see 'redcane list')",
		id, strings.Join(experimentIDs(true), " "))
}

func (c *cli) runExperiment(w io.Writer, e experimentEntry) error {
	sp := c.obs.StartSpan("experiment." + e.id)
	defer sp.End()
	return e.run(c, w)
}

// writeFig12CSVs persists one CSV per Fig. 12 benchmark
// (fig12-<benchmark>.csv): Fig. 12 is a multi-result experiment.
func (c *cli) writeFig12CSVs(results []*experiments.GroupSweepResult) error {
	for _, g := range results {
		art, err := experiments.RenderArtifacts(g)
		if err != nil {
			return err
		}
		if err := c.saveCSV("fig12-"+g.Benchmark.Key(), art.CSV); err != nil {
			return err
		}
	}
	return nil
}

func characterize(w io.Writer, args []string) error {
	lib := approx.Library()
	if len(args) == 1 {
		c, err := approx.ByName(args[0])
		if err != nil {
			return err
		}
		lib = []approx.Component{c}
	}
	fmt.Fprintf(w, "%-12s %7s %7s %10s %10s %8s\n", "component", "µW", "µm²", "NM(1MAC)", "NM(81MAC)", "KS(81)")
	for _, c := range lib {
		p1 := approx.Characterize(c.Model, approx.Uniform{}, 1, 30000, 7)
		p81 := approx.Characterize(c.Model, approx.Uniform{}, 81, 30000, 7)
		fmt.Fprintf(w, "%-12s %7.0f %7.0f %10.4f %10.4f %8.3f\n",
			c.Name, c.PowerUW, c.AreaUM2, p1.NM, p81.NM, p81.Fit.KS)
	}
	return nil
}
