package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"redcane/internal/experiments"
	"redcane/internal/obs"
	"redcane/internal/server"
)

// The workloads all analyze the paper's primary case study in quick mode
// with one closed-loop caller. design and validate drive the experiment
// runner in-process; serve drives the analysis service over loopback HTTP
// with an in-process two-worker fleet.
const benchmarkKey = "capsnet-mnist-like"

// workload is one benchmark workload: an untimed prepare step, then
// timed set-ups, each yielding an instance that runs ops.
type workload interface {
	// prepare trains and caches the seed's weights and computes any
	// reference output the ops are checked against. It is never timed.
	prepare() error
	// setup builds one instance ready to run ops. traced asks for the
	// instance to also support traced ops (op with a non-nil Obs), which
	// may cost extra set-up work. parts reports named sub-timings.
	setup(traced bool, reg *obs.Metrics) (inst instance, parts map[string]time.Duration, err error)
	// reference returns the output every op must reproduce, or nil when
	// the run's first op defines it.
	reference() []byte
	// probe times, after a traced run's op loop and with telemetry off,
	// the layers the ops reach through paths the registry cannot separate.
	probe(inst instance) (map[string]float64, error)
}

// instance runs ops. An op's output bytes are compared with the
// reference; its checkpoint directory is measured by traced runs.
type instance interface {
	// op runs one operation. o is nil for an untraced op; for a traced op
	// it carries the run's metrics registry and a fresh trace.
	op(o *obs.Obs) (out []byte, ckptDir string, err error)
	close() error
}

// env is what every workload shares: where to cache and where to work.
type env struct {
	cacheDir string // trained weights, kept across runs
	workDir  string // per-run scratch, removed at the end of the run
	seed     uint64
	workers  int
}

func (e env) benchmark() experiments.Benchmark {
	b, err := experiments.FindBenchmark(benchmarkKey)
	if err != nil {
		panic(err) // a constant key; only a renamed benchmark reaches this
	}
	return b
}

func (e env) runner(checkpoint bool) *experiments.Runner {
	return experiments.NewRunner(experiments.Config{
		Dir: e.cacheDir, Quick: true, Seed: e.seed, Workers: e.workers, Checkpoint: checkpoint,
	})
}

// freshDir makes a new empty directory under the run's work directory.
func (e env) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(e.workDir, prefix)
}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "design", "validate":
		return &runnerWorkload{env: e, kind: name}, nil
	case "serve":
		return &serveWorkload{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: design, validate, serve)", name)
}

// runnerWorkload is design (each op is Runner.Design) or validate (each
// op is Runner.Validate with the quant-approx backend at 8 bits), both on
// a warm runner with checkpointing on, as the CLI defaults.
type runnerWorkload struct {
	env
	kind string
}

func (w *runnerWorkload) prepare() error {
	r := w.runner(false)
	if _, err := r.Trained(w.benchmark()); err != nil {
		return err
	}
	// Design characterizes the multiplier library on Fig. 11's operand
	// pools, which come from the trained DeepCaps benchmark.
	_, err := r.Fig11()
	return err
}

func (w *runnerWorkload) reference() []byte { return nil }

// setup is runner construction, weight load with clean evaluation, and
// Fig. 11: everything a warm runner has done before its first design.
func (w *runnerWorkload) setup(bool, *obs.Metrics) (instance, map[string]time.Duration, error) {
	t0 := time.Now()
	r := w.runner(true)
	t, err := r.Trained(w.benchmark())
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	if _, err := r.Fig11(); err != nil {
		return nil, nil, err
	}
	parts := map[string]time.Duration{"trained": t1.Sub(t0), "fig11": time.Since(t1)}
	return &runnerInstance{w: w, r: r, t: t}, parts, nil
}

type runnerInstance struct {
	w    *runnerWorkload
	r    *experiments.Runner
	t    *experiments.Trained
	prev string // the previous op's checkpoint directory
}

// op runs one design or validation into an empty checkpoint directory, so
// nothing resumes; the previous op's directory is removed first.
func (in *runnerInstance) op(o *obs.Obs) ([]byte, string, error) {
	if err := in.close(); err != nil {
		return nil, "", err
	}
	dir, err := in.w.freshDir("ckpt-")
	if err != nil {
		return nil, "", err
	}
	in.prev = dir
	in.r.Cfg.Obs = o
	in.r.Cfg.CheckpointDir = dir
	in.t.Net.Obs = o
	var out bytes.Buffer
	b := in.w.benchmark()
	if in.w.kind == "design" {
		d, err := in.r.Design(b)
		if err != nil {
			return nil, dir, err
		}
		out.WriteString(d.Render())
		err = d.Report.WriteJSON(&out)
		return out.Bytes(), dir, err
	}
	v, err := in.r.Validate(b, "quant-approx", 8)
	if err != nil {
		return nil, dir, err
	}
	out.WriteString(v.Render())
	err = v.WriteCSV(&out)
	return out.Bytes(), dir, err
}

func (in *runnerInstance) close() error {
	if in.prev == "" {
		return nil
	}
	err := os.RemoveAll(in.prev)
	in.prev = ""
	return err
}

// serveWorkload submits one distributed group-sweep per op to an
// in-process analysis service with a two-worker in-process fleet, follows
// the job's event stream to its end and fetches the text and CSV results.
type serveWorkload struct {
	env
	ref []byte
}

const serveSpec = `{"kind":"group-sweep","benchmark":"` + benchmarkKey + `","distributed":true}`

// workerPoll is the fleet workers' idle poll: short, so a newly registered
// sweep is leased within a few milliseconds of the coordinator posting it.
const workerPoll = 20 * time.Millisecond

// prepare caches the weights and computes the reference: the same group
// sweep run in-process on the runner, which the served job must equal
// byte for byte.
func (w *serveWorkload) prepare() error {
	r := w.runner(false)
	res, err := r.GroupSweep(w.benchmark(), experiments.Overrides{})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteString(res.Render())
	if err := res.WriteCSV(&buf); err != nil {
		return err
	}
	w.ref = buf.Bytes()
	return nil
}

func (w *serveWorkload) reference() []byte { return w.ref }

// probe has nothing to add: the service's layers report through the
// registry the traced stack records into.
func (w *serveWorkload) probe(instance) (map[string]float64, error) { return nil, nil }

// setup is server start plus fleet join. A traced set-up builds two
// stacks: untraced ops run on one with telemetry off, traced ops on one
// recording into the run's registry.
func (w *serveWorkload) setup(traced bool, reg *obs.Metrics) (instance, map[string]time.Duration, error) {
	plain, err := w.startStack(nil)
	if err != nil {
		return nil, nil, err
	}
	in := &serveInstance{plain: plain}
	if traced {
		in.traced, err = w.startStack(obs.NewWithMetrics(obs.Off, nil, reg))
		if err != nil {
			plain.close()
			return nil, nil, err
		}
	}
	return in, nil, nil
}

// stack is one running service: server, HTTP listener and fleet. The
// client and the workers share one transport, so closing its idle
// connections before shutdown leaves the server none to wait out.
type stack struct {
	dir       string
	srv       *server.Server
	hs        *http.Server
	base      string
	transport *http.Transport
	client    *http.Client
	cancel    context.CancelFunc
	workers   sync.WaitGroup
	serving   sync.WaitGroup
}

func (w *serveWorkload) startStack(o *obs.Obs) (*stack, error) {
	dir, err := w.freshDir("state-")
	if err != nil {
		return nil, err
	}
	if err := seedWeights(w.cacheDir, dir, w.seed); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		StateDir: dir, Quick: true, Seed: w.seed, Workers: w.workers, Obs: o,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	st := &stack{
		dir: dir, srv: srv, base: "http://" + ln.Addr().String(),
		transport: tr,
		client:    &http.Client{Timeout: 60 * time.Second, Transport: tr},
		hs:        server.NewHTTPServer(ln.Addr().String(), srv),
	}
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		st.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	names := []string{"w1", "w2"}
	for _, name := range names {
		resolve := server.ExperimentResolver(dir, nil, 1, o)
		// A joined worker is one ready to evaluate: resolve the benchmark
		// (weight load and clean evaluation) before it polls for work.
		if _, err := resolve(server.WireSweep{Benchmark: benchmarkKey, Quick: true, TrainSeed: w.seed}); err != nil {
			st.close()
			return nil, err
		}
		wk := &server.Worker{
			Base: st.base, Name: name, Poll: workerPoll, Obs: o, Resolve: resolve,
			Client: &http.Client{Timeout: 30 * time.Second, Transport: tr},
		}
		st.workers.Add(1)
		go func() {
			defer st.workers.Done()
			wk.Run(ctx) //nolint:errcheck // returns ctx.Err() once the stack closes
		}()
	}
	if err := st.awaitFleet(len(names)); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// seedWeights copies the seed's cached weight files into a fresh state
// directory, so the service loads rather than trains.
func seedWeights(cacheDir, stateDir string, seed uint64) error {
	files, err := filepath.Glob(filepath.Join(cacheDir, fmt.Sprintf("%s-*-seed%d.gob", benchmarkKey, seed)))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no cached %s weights for seed %d in %s", benchmarkKey, seed, cacheDir)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(stateDir, filepath.Base(f)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// awaitFleet waits until GET /v1/fleet lists n workers.
func (st *stack) awaitFleet(n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var fs server.FleetStatus
		if err := st.getJSON("/v1/fleet", &fs); err != nil {
			return err
		}
		if len(fs.Workers) >= n {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("fleet join: fewer than %d workers after 30s", n)
}

// close stops the workers, then drains and shuts down the server. A
// worker request cancelled mid-dial can leave an unused connection in the
// transport's pool; the server would count it busy for seconds, so the
// idle connections are closed before the shutdown.
func (st *stack) close() error {
	st.cancel()
	st.workers.Wait()
	st.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := st.srv.Drain(ctx)
	if serr := st.hs.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	st.serving.Wait()
	if rerr := os.RemoveAll(st.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

func (st *stack) do(method, path, body string) ([]byte, error) {
	req, err := http.NewRequest(method, st.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (st *stack) getJSON(path string, v any) error {
	data, err := st.do(http.MethodGet, path, "")
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

type serveInstance struct {
	plain, traced *stack
}

// op submits the job, follows its event stream to EOF (the stream ends
// when the job reaches a terminal state, so no status polling is
// needed) and fetches the text and CSV results. A traced op records the
// client-side phases as spans and grafts the job's server-side trace
// onto the op's trace.
func (in *serveInstance) op(o *obs.Obs) ([]byte, string, error) {
	st := in.plain
	if o != nil {
		st = in.traced
	}
	start := time.Now()
	sp := o.StartSpan("bench.submit")
	data, err := st.do(http.MethodPost, "/v1/jobs", serveSpec)
	submit := sp.End()
	if err != nil {
		return nil, "", err
	}
	var js server.JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, "", fmt.Errorf("submit response: %w", err)
	}
	ckptDir := filepath.Join(st.dir, "jobs", js.ID)
	sp = o.StartSpan("bench.events")
	_, err = st.do(http.MethodGet, "/v1/jobs/"+js.ID+"/events", "")
	sp.End()
	if err != nil {
		return nil, ckptDir, err
	}
	sp = o.StartSpan("bench.result")
	text, err := st.do(http.MethodGet, "/v1/jobs/"+js.ID+"/result?format=text", "")
	if err != nil {
		sp.End()
		return nil, ckptDir, err
	}
	csv, err := st.do(http.MethodGet, "/v1/jobs/"+js.ID+"/result?format=csv", "")
	sp.End()
	if err != nil {
		return nil, ckptDir, err
	}
	if tr := o.Trace(); tr != nil {
		if err := graftJobTrace(st, js.ID, tr, start.Add(submit)); err != nil {
			return nil, ckptDir, err
		}
	}
	return append(text, csv...), ckptDir, nil
}

// jobLaneOffset moves the job's server-side trace lanes clear of the
// client's, so self-time nesting never mixes the two clocks.
const jobLaneOffset = 1 << 40

// graftJobTrace copies a finished job's trace events into the op's trace,
// anchored at the job's submission.
func graftJobTrace(st *stack, id string, tr *obs.Trace, anchor time.Time) error {
	data, err := st.do(http.MethodGet, "/v1/jobs/"+id+"/trace", "")
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("job trace: %w", err)
	}
	us := func(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }
	for _, ev := range doc.TraceEvents {
		tr.Complete(ev.Name, ev.Cat, ev.TID+jobLaneOffset, anchor.Add(us(ev.TS)), us(ev.Dur), ev.Args)
	}
	return nil
}

func (in *serveInstance) close() error {
	err := in.plain.close()
	if in.traced != nil {
		err = errors.Join(err, in.traced.close())
	}
	return err
}
