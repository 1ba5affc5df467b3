// Package server is the long-running analysis service behind
// `redcane serve`: an HTTP/JSON front-end that queues, runs, streams and
// persists resilience-analysis jobs of the kinds the job-kind table
// (experiments.JobKinds) defines, on top of the experiment runner.
//
// Design invariants:
//
//   - Jobs are durable. Every job's spec and state live in
//     <state>/jobs/<id>/job.json; its analysis checkpoints and result
//     artifacts live beside it. A server restarted over the same state
//     directory re-enqueues unfinished jobs, which resume from their
//     last completed sweep window and produce byte-identical results
//     (the checkpoint + counter-seeded-RNG guarantee of the engine).
//   - Results equal the CLI's. A job runs through the same
//     experiments.Runner.Run as the corresponding CLI command with the
//     same options, so its artifacts are byte-identical given the same
//     seed.
//   - The worker budget is process-wide. Options.Workers is divided
//     across the configured job slots, so concurrency between jobs never
//     multiplies the evaluation goroutines.
//   - Drain is graceful. Stopping the server stops job admission,
//     cancels running jobs at their next batch boundary (their progress
//     is already checkpointed per window), flushes the metrics
//     snapshot, and only then returns.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"redcane/internal/obs"
)

// Job states. A queued job is admitted but not started (including jobs
// re-admitted after a server restart); cancelled means a client asked
// for the cancellation, failed that the analysis itself errored.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Sentinel errors of Submit, mapped onto HTTP statuses by the handlers.
var (
	// ErrQueueFull reports a submission bouncing off the bounded queue
	// (HTTP 429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining reports a submission during shutdown (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// RunFunc executes one job: it receives the job's cancellation context,
// validated spec, private directory (for checkpoints and any scratch
// state) and telemetry handle, and returns the artifacts to persist.
// The server's default is (*Server).runSpec; tests substitute stubs.
type RunFunc func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error)

// Config parameterizes the service.
type Config struct {
	// StateDir roots all persistence: the shared weight cache, the drain
	// metrics snapshot, and under jobs/<id>/ each job's spec, checkpoints
	// and artifacts. Required.
	StateDir string
	// Auth is the API-key table. Nil runs the anonymous single-tenant
	// mode: no credentials, no per-tenant limits.
	Auth *Auth
	// Quick selects the reduced dataset/epoch/evaluation sizes,
	// mirroring the CLI's -quick.
	Quick bool
	// Seed is the default master seed of jobs that do not carry one.
	Seed uint64
	// Workers is the process-wide evaluation-goroutine budget shared by
	// all running jobs (0 = GOMAXPROCS).
	Workers int
	// Slots bounds how many jobs run concurrently (0 = 2). Each running
	// job gets Workers/Slots evaluation goroutines.
	Slots int
	// QueueCap bounds the number of queued-but-not-running submissions
	// (0 = 16); beyond it Submit returns ErrQueueFull.
	QueueCap int
	// Obs receives the server's own events and hosts the process metrics
	// registry that every job folds its engine metrics into (and that
	// /metricsz snapshots). A nil Obs gets a metrics-only replacement.
	Obs *obs.Obs
	// RunJob overrides the job executor (tests); nil runs the real
	// experiments.
	RunJob RunFunc
	// LeaseTTL is the fleet lease lifetime: how long a worker's window
	// lease survives without a completion or renewal before the
	// coordinator re-issues it (0 = DefaultLeaseTTL). Workers renew at
	// TTL/3, so the TTL trades crash-recovery latency against renewal
	// traffic, never correctness.
	LeaseTTL time.Duration
}

// job is the server-side state of one submission. All mutable fields are
// guarded by Server.mu; events has its own lock.
type job struct {
	id      string
	spec    JobSpec
	dir     string
	state   string
	errMsg  string
	tenant  string // "" in anonymous mode
	rank    int    // resolved priority (higher runs first)
	created time.Time
	started time.Time
	ended   time.Time
	// progress/eta mirror the latest sweep-engine progress event.
	progress string
	eta      string
	cancel   context.CancelFunc
	events   *obs.SubSink
}

// jobFile is the persisted form of a job (jobs/<id>/job.json).
type jobFile struct {
	ID      string    `json:"id"`
	Spec    JobSpec   `json:"spec"`
	State   string    `json:"state"`
	Error   string    `json:"error,omitempty"`
	Tenant  string    `json:"tenant,omitempty"`
	Created time.Time `json:"created"`
	Started time.Time `json:"started"`
	Ended   time.Time `json:"ended"`
}

// Server is the analysis service: an http.Handler plus the job manager
// behind it.
type Server struct {
	cfg     Config
	obs     *obs.Obs
	store   *DirStore
	auth    *Auth
	handler *serverHandler
	fleet   *FleetManager
	started time.Time
	// trainMu serializes benchmark training/loading across jobs sharing
	// the weight cache.
	trainMu sync.Mutex

	mu       sync.Mutex
	jobs     map[string]*job
	pending  []*job // admitted, waiting for a slot (see pickLocked)
	running  int
	nextSeq  int
	pickSeq  int64            // monotonic scheduling clock for fairness
	lastPick map[string]int64 // tenant → pickSeq of its last scheduled job
	draining bool
	wg       sync.WaitGroup // one entry per running job goroutine
}

// New builds the service over cfg.StateDir, re-admitting any unfinished
// persisted jobs (they resume from their checkpoints) and scheduling
// them immediately.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("server: Config.StateDir is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New(obs.Off, nil) // metrics registry only
	}
	store, err := NewDirStore(cfg.StateDir, o)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg, obs: o, store: store, auth: cfg.Auth,
		jobs: map[string]*job{}, lastPick: map[string]int64{}, started: time.Now(),
	}
	s.fleet = NewFleetManager(o, cfg.LeaseTTL)
	s.handler = newHandler(s)
	if err := s.loadJobs(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.schedule()
	s.mu.Unlock()
	return s, nil
}

// jobWorkers is each running job's share of the process worker budget.
func (s *Server) jobWorkers() int {
	w := s.cfg.Workers / s.cfg.Slots
	if w < 1 {
		w = 1
	}
	return w
}

// loadJobs restores the persisted jobs from the store. Finished jobs
// become inert records serving their artifacts; queued or running ones
// are re-admitted as queued, in submission (ID) order, bypassing the
// queue bound (they were admitted before the restart).
func (s *Server) loadJobs() error {
	manifests, err := s.store.Load()
	if err != nil {
		return err
	}
	var restored []*job
	for _, jf := range manifests {
		dir, err := s.store.Dir(jf.ID)
		if err != nil {
			s.obs.Warn("job dir unavailable; skipping", obs.F("id", jf.ID), obs.F("err", err))
			continue
		}
		j := &job{
			id: jf.ID, spec: jf.Spec, dir: dir,
			state: jf.State, errMsg: jf.Error,
			tenant: jf.Tenant, rank: priorityRank(jf.Spec.Priority),
			created: jf.Created, started: jf.Started, ended: jf.Ended,
			events: obs.NewSubSink(0),
		}
		if seq, err := strconv.Atoi(strings.TrimPrefix(jf.ID, "j")); err == nil && seq > s.nextSeq {
			s.nextSeq = seq
		}
		switch j.state {
		case StateQueued, StateRunning:
			// Interrupted mid-flight (crash or drain): back to the queue;
			// its checkpoints make the rerun resume where it stopped.
			j.state = StateQueued
			j.started, j.ended = time.Time{}, time.Time{}
			restored = append(restored, j)
		case StateDone, StateFailed, StateCancelled:
			j.events.Close()
		default:
			s.obs.Warn("job manifest has unknown state; skipping",
				obs.F("id", jf.ID), obs.F("state", j.state))
			continue
		}
		s.jobs[j.id] = j
	}
	sort.Slice(restored, func(i, k int) bool { return restored[i].id < restored[k].id })
	for _, j := range restored {
		s.persistLocked(j)
		s.pending = append(s.pending, j)
		s.obs.Info("job re-admitted after restart", obs.F("id", j.id), obs.F("kind", j.spec.Kind))
	}
	return nil
}

// Submit admits one anonymous job. The spec must already be normalized.
func (s *Server) Submit(spec JobSpec) (*job, error) { return s.SubmitAs(spec, Tenant{}) }

// SubmitAs admits one job on behalf of a tenant (zero Tenant =
// anonymous), enforcing the tenant's rate limit and queue quota before
// the server-wide queue bound. The spec must already be normalized.
func (s *Server) SubmitAs(spec JobSpec, tenant Tenant) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if tenant.Name != "" {
		if s.auth != nil && !s.auth.allow(tenant.Key) {
			s.tenantCounter(tenant.Name, "rejected").Inc()
			return nil, ErrRateLimited
		}
		if tenant.MaxQueued > 0 && s.queuedByLocked(tenant.Name) >= tenant.MaxQueued {
			s.tenantCounter(tenant.Name, "rejected").Inc()
			return nil, ErrTenantQuota
		}
	}
	if len(s.pending) >= s.cfg.QueueCap {
		if tenant.Name != "" {
			s.tenantCounter(tenant.Name, "rejected").Inc()
		}
		return nil, ErrQueueFull
	}
	s.nextSeq++
	j := &job{
		id:      fmt.Sprintf("j%06d", s.nextSeq),
		spec:    spec,
		state:   StateQueued,
		tenant:  tenant.Name,
		rank:    priorityRank(spec.Priority),
		created: time.Now(),
		events:  obs.NewSubSink(0),
	}
	dir, err := s.store.Dir(j.id)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	j.dir = dir
	s.jobs[j.id] = j
	s.pending = append(s.pending, j)
	s.persistLocked(j)
	if tenant.Name != "" {
		s.tenantCounter(tenant.Name, "submitted").Inc()
	}
	s.obs.Info("job submitted", obs.F("id", j.id), obs.F("kind", spec.Kind),
		obs.F("benchmark", spec.Benchmark), obs.F("tenant", j.tenant),
		obs.F("priority", spec.Priority), obs.F("queued", len(s.pending)))
	s.schedule()
	return j, nil
}

// tenantCounter names a per-tenant admission counter in the process
// registry (server.tenant.<name>.<what>); names are sanitized so a
// tenant label cannot mint hostile series.
func (s *Server) tenantCounter(tenant, what string) *obs.Counter {
	return s.obs.Metrics().Counter("server.tenant." + metricLabel(tenant) + "." + what)
}

// queuedByLocked counts a tenant's queued jobs. Callers hold s.mu.
func (s *Server) queuedByLocked(tenant string) int {
	n := 0
	for _, j := range s.pending {
		if j.tenant == tenant {
			n++
		}
	}
	return n
}

// pickLocked selects the next queued job: highest priority first; among
// equals, the tenant least recently scheduled (round-robin fairness, so
// one tenant's burst cannot starve another's jobs of the same
// priority); within a tenant, FIFO. In anonymous mode every job shares
// one tenant, so the pick degenerates to the plain FIFO the
// single-tenant server always had. Callers hold s.mu. Returns an index
// into s.pending, or -1.
func (s *Server) pickLocked() int {
	best := -1
	for i, j := range s.pending {
		if best < 0 {
			best = i
			continue
		}
		b := s.pending[best]
		if j.rank != b.rank {
			if j.rank > b.rank {
				best = i
			}
			continue
		}
		// Equal priority: least-recently-picked tenant wins; ties keep
		// the earlier submission (FIFO).
		if s.lastPick[j.tenant] < s.lastPick[b.tenant] {
			best = i
		}
	}
	return best
}

// schedule starts pending jobs while slots are free. Callers hold s.mu.
func (s *Server) schedule() {
	for !s.draining && s.running < s.cfg.Slots {
		i := s.pickLocked()
		if i < 0 {
			return
		}
		j := s.pending[i]
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
		s.pickSeq++
		s.lastPick[j.tenant] = s.pickSeq
		ctx, cancel := context.WithCancel(context.Background())
		j.state = StateRunning
		j.started = time.Now()
		j.cancel = cancel
		s.persistLocked(j)
		s.running++
		s.wg.Add(1)
		go s.runJob(ctx, cancel, j)
	}
}

// runRecovered runs j under run, turning a panic into the job's error:
// the panic value becomes the error and the stack goes to the job's
// event stream, so one broken job fails alone and the server keeps
// serving.
func runRecovered(ctx context.Context, run RunFunc, j *job, o *obs.Obs) (art Artifacts, err error) {
	defer func() {
		if v := recover(); v != nil {
			o.Error("job panicked", obs.F("id", j.id), obs.F("panic", v), obs.F("stack", string(debug.Stack())))
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return run(ctx, j.spec, j.dir, o)
}

// runJob drives one job to a terminal state (or back to queued when the
// server drains out from under it).
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job) {
	defer s.wg.Done()
	defer cancel()

	// The job's telemetry: events go to its subscriber stream and the
	// progress mirror; engine metrics fold into the process registry.
	level := obs.Info
	if s.obs.Level() < level {
		level = s.obs.Level()
	}
	o := obs.NewWithMetrics(level, obs.MultiSink(j.events, progressSink{s: s, j: j}), s.obs.Metrics())
	tr := obs.NewTrace()
	o.AttachTrace(tr)
	m := s.obs.Metrics()
	m.Timer("server.job.queue_wait").Observe(j.started.Sub(j.created))
	o.Info("job started", obs.F("id", j.id), obs.F("kind", j.spec.Kind),
		obs.F("benchmark", j.spec.Benchmark), obs.F("workers", s.jobWorkers()))

	run := s.cfg.RunJob
	if run == nil {
		run = s.runSpec
	}
	runStart := time.Now()
	art, err := runRecovered(ctx, run, j, o)
	m.Timer("server.job.run").Observe(time.Since(runStart))

	var writeErr error
	if err == nil {
		for name, data := range art.files() {
			if werr := s.store.PutArtifact(j.id, name, data); werr != nil && writeErr == nil {
				writeErr = fmt.Errorf("%s: %w", name, werr)
			}
		}
	}
	if terr := s.writeTrace(j.id, tr); terr != nil {
		o.Warn("job trace write failed", obs.F("id", j.id), obs.F("err", terr))
	}

	s.mu.Lock()
	j.cancel = nil
	j.ended = time.Now()
	switch {
	case err == nil && writeErr == nil:
		j.state = StateDone
		o.Info("job done", obs.F("id", j.id), obs.F("dur", j.ended.Sub(j.started).Round(time.Millisecond)))
	case err == nil:
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("write artifacts: %v", writeErr)
		o.Error("job failed", obs.F("id", j.id), obs.F("err", j.errMsg))
	case errors.Is(err, context.Canceled) && s.draining:
		// Drained, not cancelled: back to the queue so the next server
		// over this state directory resumes it from its checkpoints.
		j.state = StateQueued
		j.started, j.ended = time.Time{}, time.Time{}
		j.progress, j.eta = "", ""
		o.Info("job requeued by drain", obs.F("id", j.id))
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		o.Info("job cancelled", obs.F("id", j.id))
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		o.Error("job failed", obs.F("id", j.id), obs.F("err", err))
	}
	s.persistLocked(j)
	// Close the event stream only on terminal states. A drain-requeued
	// job is still queued — its subscribers must keep their streams open
	// (Drain ends them once the manager has fully wound down), not see a
	// terminal close on a job that will run again.
	if j.state != StateQueued {
		j.events.Close()
	}
	s.running--
	s.schedule()
	s.mu.Unlock()
}

// Cancel requests cancellation of one job. Queued jobs are removed from
// the queue immediately; running jobs stop at their next batch boundary.
// Cancelling a finished job is a no-op. Reports whether the job exists.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	switch j.state {
	case StateQueued:
		for i, p := range s.pending {
			if p == j {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
		j.state = StateCancelled
		j.ended = time.Now()
		s.persistLocked(j)
		j.events.Close()
		s.obs.Info("queued job cancelled", obs.F("id", id))
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		s.obs.Info("running job cancellation requested", obs.F("id", id))
	}
	return true
}

// Drain gracefully shuts the manager down: stop admitting jobs, cancel
// running ones (they stop at the next batch boundary with their progress
// checkpointed and are re-queued for the next server), wait for them to
// unwind, then flush the metrics snapshot to <state>/metrics.json. The
// context bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		n := 0
		for _, j := range s.jobs {
			if j.state == StateRunning && j.cancel != nil {
				j.cancel()
				n++
			}
		}
		s.obs.Info("draining", obs.F("running", n), obs.F("queued", len(s.pending)))
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
	// Every job goroutine has unwound; jobs still queued (never started,
	// or requeued by the drain itself) will not run in this process, so
	// end their event streams now — otherwise their NDJSON subscribers
	// would hang and block the HTTP server's shutdown.
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.state == StateQueued {
			j.events.Close()
		}
	}
	s.mu.Unlock()
	if err := s.writeMetricsSnapshot(); err != nil {
		return err
	}
	s.obs.Info("drained")
	return nil
}

// writeTrace persists a job's execution trace (Chrome trace-event JSON)
// as an artifact, served by GET /v1/jobs/{id}/trace. A drained job that
// reruns later simply overwrites it.
func (s *Server) writeTrace(id string, tr *obs.Trace) error {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return err
	}
	return s.store.PutArtifact(id, "trace.json", buf.Bytes())
}

// writeMetricsSnapshot flushes the process metrics registry to
// <state>/metrics.json, reporting the close error (a full disk must not
// masquerade as a successful flush).
func (s *Server) writeMetricsSnapshot() error {
	path := filepath.Join(s.cfg.StateDir, "metrics.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.obs.Metrics().Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// persistLocked records a job's manifest in the store. Callers hold
// s.mu. Persistence failures degrade to a warning — the in-memory job
// keeps serving, it just won't survive a restart cleanly.
func (s *Server) persistLocked(j *job) {
	jf := jobFile{
		ID: j.id, Spec: j.spec, State: j.state, Error: j.errMsg, Tenant: j.tenant,
		Created: j.created, Started: j.started, Ended: j.ended,
	}
	if err := s.store.Put(jf); err != nil {
		s.obs.Warn("job manifest write failed", obs.F("id", j.id), obs.F("err", err))
	}
}

// Fleet returns the server's lease coordinator.
func (s *Server) Fleet() *FleetManager { return s.fleet }

// Get returns a job by ID.
func (s *Server) Get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}
