package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"redcane/internal/core"
	"redcane/internal/obs"
)

// This file is the coordinator side of distributed sweeps: a lease-based
// work-distribution protocol layered on the job service. A distributed
// job's sweeps register their batch windows here instead of running on
// the local worker pool; `redcane worker` processes poll for leases,
// evaluate each window with the same counter-seeded engine
// (core.Analyzer.EvalWindow) and report integer correct-counts back. The
// protocol is crash-tolerant by leasing: a window whose lease outlives
// its TTL without a completion is re-issued to the next polling worker,
// so a dead worker delays — never loses — its windows. Completions are
// idempotent: every evaluation of a window is a pure function of
// (seed, seedBase, point, trial, batch), so any completion of a pending
// window carries the same counts and duplicates are simply dropped.
//
//	POST /v1/fleet/lease    {"worker": name}        → 200 Lease | 204 no work
//	POST /v1/fleet/complete completeRequest         → 200 {"status": ok|duplicate}
//	POST /v1/fleet/renew    {"lease_id": id, ...}   → 200 | 410 lease gone
//	POST /v1/fleet/release  {"lease_id": id, ...}   → 200 {"status": released|unknown}
//	GET  /v1/fleet          coordinator fleet state → 200 FleetStatus

// WireSweep describes one registered sweep to the fleet: the engine's
// own descriptor (core.SweepJob: scope, seed namespace, options and the
// grid the worker must derive identically) plus the fleet identity and
// the identity of the trained model every worker must rebuild.
type WireSweep struct {
	// ID is the sweep's fleet-wide identity: "<job>/<checkpoint key>".
	ID    string `json:"id"`
	JobID string `json:"job_id"`
	// Benchmark / Quick / TrainSeed identify the trained network and
	// evaluation split: workers train (or load from their weight cache)
	// the same benchmark at the same seed, which is deterministic, so
	// every fleet member evaluates the identical model.
	Benchmark string `json:"benchmark"`
	Quick     bool   `json:"quick"`
	TrainSeed uint64 `json:"train_seed"`
	core.SweepJob
}

// Lease is one issued batch window [B0, B1): the worker evaluates it and
// reports its counts before the TTL runs out (renewing along the way for
// long windows).
type Lease struct {
	LeaseID string    `json:"lease_id"`
	Sweep   WireSweep `json:"sweep"`
	B0      int       `json:"b0"`
	B1      int       `json:"b1"`
	TTLMs   int64     `json:"ttl_ms"`
}

// leaseRequest / renewRequest / completeRequest are the POST bodies.
type leaseRequest struct {
	Worker string `json:"worker"`
}

type renewRequest struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker,omitempty"`
}

// releaseRequest returns a lease before its TTL: a worker that cannot
// evaluate its window (unresolvable sweep, a sweep it derives
// differently, eval failure) hands it back so another worker picks it up
// immediately instead of after expiry.
type releaseRequest struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker,omitempty"`
}

type completeRequest struct {
	LeaseID string `json:"lease_id,omitempty"`
	Worker  string `json:"worker,omitempty"`
	SweepID string `json:"sweep_id"`
	B0      int    `json:"b0"`
	B1      int    `json:"b1"`
	Correct []int  `json:"correct"`
}

// FleetStatus is the GET /v1/fleet body.
type FleetStatus struct {
	Sweeps         int              `json:"sweeps"`
	WindowsPending int              `json:"windows_pending"` // not yet done, not currently leased
	WindowsLeased  int              `json:"windows_leased"`
	LeaseTTLMs     int64            `json:"lease_ttl_ms"`
	Workers        map[string]int64 `json:"workers,omitempty"` // worker → ms since last seen
}

// fleetWindow is one lease unit of a registered sweep: the one batch
// [b0, b0+1).
type fleetWindow struct {
	b0       int
	done     bool
	leaseID  string // "" when unleased
	worker   string
	issuedAt time.Time
	expires  time.Time
}

// fleetSweep is one registered sweep: its wire descriptor, its windows
// (windows[i] is batch start+i), and the channel the coordinator's fold
// loop reads.
type fleetSweep struct {
	wire      WireSweep
	start     int
	windows   []*fleetWindow
	remaining int
	results   chan core.WindowResult
	closed    bool
	done      chan struct{}   // closed when every window completed
	ctx       context.Context // the registering job's context
}

type leaseRef struct {
	sweepID string
	idx     int // index into the sweep's windows
}

// DefaultLeaseTTL is the lease lifetime when Config.LeaseTTL is unset:
// long enough for a quick-mode window on a slow worker, short enough
// that a crashed worker's windows are re-issued promptly (workers renew
// at TTL/3, so healthy long windows never expire).
const DefaultLeaseTTL = 30 * time.Second

// FleetManager tracks registered sweeps, outstanding leases and worker
// liveness. It is the server half of the core.Fleet seam: ForJob adapts
// it to the engine's interface, the HTTP handlers expose it to workers.
type FleetManager struct {
	ttl time.Duration
	obs *obs.Obs
	now func() time.Time // test seam

	mu       sync.Mutex
	sweeps   map[string]*fleetSweep
	order    []string // registration order, for FIFO leasing
	leases   map[string]leaseRef
	leaseSeq int64
	lastSeen map[string]time.Time
	// workerSeries tracks which workers own a fleet.worker.<name>.window
	// timer, capped at maxWorkerSeries so client-supplied names cannot
	// mint unbounded metric series.
	workerSeries map[string]bool
}

// Worker-state bounds: both lastSeen and the per-worker metric series are
// keyed by client-supplied names, so both must be bounded. Workers unseen
// for workerPruneTTLs lease lifetimes are forgotten (ephemeral
// worker-<pid> names would otherwise accumulate forever), lastSeen never
// exceeds maxTrackedWorkers entries (oldest evicted first), and at most
// maxWorkerSeries workers get their own latency timer — later ones still
// fold into the fleet-wide fleet.window series.
const (
	workerPruneTTLs   = 10
	maxTrackedWorkers = 256
	maxWorkerSeries   = 64
)

// NewFleetManager builds a manager issuing leases with the given TTL
// (<= 0 uses DefaultLeaseTTL).
func NewFleetManager(o *obs.Obs, ttl time.Duration) *FleetManager {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if o == nil {
		o = obs.New(obs.Off, nil)
	}
	return &FleetManager{
		ttl: ttl, obs: o, now: time.Now,
		sweeps:       map[string]*fleetSweep{},
		leases:       map[string]leaseRef{},
		lastSeen:     map[string]time.Time{},
		workerSeries: map[string]bool{},
	}
}

// markSeenLocked records worker liveness and prunes stale entries, so the
// worker table tracks the live fleet instead of every name ever seen.
// Callers hold m.mu.
func (m *FleetManager) markSeenLocked(worker string, now time.Time) {
	cutoff := now.Add(-workerPruneTTLs * m.ttl)
	for name, seen := range m.lastSeen {
		if seen.Before(cutoff) {
			delete(m.lastSeen, name)
		}
	}
	if worker == "" {
		return
	}
	if _, known := m.lastSeen[worker]; !known && len(m.lastSeen) >= maxTrackedWorkers {
		// Table full of live-ish workers: evict the stalest so the newest
		// is tracked; bounded memory beats a complete roster.
		oldest, oldestSeen := "", now
		for name, seen := range m.lastSeen {
			if seen.Before(oldestSeen) {
				oldest, oldestSeen = name, seen
			}
		}
		delete(m.lastSeen, oldest)
	}
	m.lastSeen[worker] = now
}

// workerTimerLocked returns the worker's window-latency timer, or nil
// when the worker is anonymous or the series budget is spent. Names are
// sanitized — a hostile worker name cannot mint arbitrary series text.
// Callers hold m.mu.
func (m *FleetManager) workerTimerLocked(worker string) *obs.Timer {
	if worker == "" {
		return nil
	}
	name := metricLabel(worker)
	if !m.workerSeries[name] {
		if len(m.workerSeries) >= maxWorkerSeries {
			return nil
		}
		m.workerSeries[name] = true
	}
	return m.obs.Metrics().Timer("fleet.worker." + name + ".window")
}

// TTL returns the lease lifetime.
func (m *FleetManager) TTL() time.Duration { return m.ttl }

// ForJob adapts the manager to the engine's Fleet seam for one job: the
// returned Fleet registers each sweep under "<jobID>/<sweep key>" and
// stamps the wire descriptor with the job's benchmark identity.
func (m *FleetManager) ForJob(jobID, benchmark string, quick bool, trainSeed uint64) core.Fleet {
	return &jobFleet{m: m, wire: WireSweep{JobID: jobID, Benchmark: benchmark, Quick: quick, TrainSeed: trainSeed}}
}

// jobFleet holds one job's identity fields of the wire descriptor.
type jobFleet struct {
	m    *FleetManager
	wire WireSweep
}

// RunSweep implements core.Fleet.
func (f *jobFleet) RunSweep(ctx context.Context, job core.SweepJob, start int) (<-chan core.WindowResult, error) {
	wire := f.wire
	wire.ID, wire.SweepJob = f.wire.JobID+"/"+job.Key, job
	return f.m.runSweep(ctx, wire, start)
}

// runSweep registers one sweep's batches [start, NB) for leasing, one
// batch per window, and returns the channel its results arrive on. The
// channel is buffered to hold every window, so completions never block on
// the fold loop; it closes when the last window completes or ctx is
// cancelled, whichever comes first.
func (m *FleetManager) runSweep(ctx context.Context, wire WireSweep, start int) (<-chan core.WindowResult, error) {
	if start < 0 || start > wire.NB {
		return nil, fmt.Errorf("fleet: sweep %s start %d out of range (nb=%d)", wire.ID, start, wire.NB)
	}
	var windows []*fleetWindow
	for b := start; b < wire.NB; b++ {
		windows = append(windows, &fleetWindow{b0: b})
	}
	fs := &fleetSweep{
		wire: wire, start: start, windows: windows, remaining: len(windows),
		results: make(chan core.WindowResult, len(windows)+1),
		done:    make(chan struct{}),
		ctx:     ctx,
	}

	m.mu.Lock()
	if cur, dup := m.sweeps[wire.ID]; dup {
		// A sweep whose job context is already cancelled is dead; its
		// teardown goroutine just hasn't run yet. A drain-requeued job
		// re-registering the same sweep must not lose that race, so close
		// the husk synchronously and take its place. A live duplicate is
		// still a caller bug.
		if cur.ctx == nil || cur.ctx.Err() == nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("fleet: sweep %s already registered", wire.ID)
		}
		m.closeSweepLocked(cur)
	}
	m.sweeps[wire.ID] = fs
	m.order = append(m.order, wire.ID)
	if fs.remaining == 0 {
		m.closeSweepLocked(fs)
	}
	m.mu.Unlock()

	m.obs.Info("sweep registered with fleet",
		obs.F("sweep", wire.ID), obs.F("scope", wire.Scope.String()),
		obs.F("windows", len(windows)))

	go func() {
		select {
		case <-ctx.Done():
			m.mu.Lock()
			if cur, ok := m.sweeps[wire.ID]; ok && cur == fs {
				m.closeSweepLocked(fs)
			}
			m.mu.Unlock()
		case <-fs.done:
		}
	}()
	return fs.results, nil
}

// closeSweepLocked unregisters a sweep and closes its channels. Callers
// hold m.mu.
func (m *FleetManager) closeSweepLocked(fs *fleetSweep) {
	if fs.closed {
		return
	}
	fs.closed = true
	for _, w := range fs.windows {
		if w.leaseID != "" {
			delete(m.leases, w.leaseID)
		}
	}
	delete(m.sweeps, fs.wire.ID)
	for i, id := range m.order {
		if id == fs.wire.ID {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	close(fs.results)
	close(fs.done)
}

// Lease issues the next available window to a worker: the first
// never-leased or lease-expired window of the oldest registered sweep.
// Expired leases are reclaimed lazily here — no background timer — so an
// idle fleet does no work. Returns ok=false when no work is available.
func (m *FleetManager) Lease(worker string) (Lease, bool) {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.markSeenLocked(worker, now)
	for _, id := range m.order {
		fs := m.sweeps[id]
		for i, w := range fs.windows {
			if w.done {
				continue
			}
			if w.leaseID != "" {
				if now.Before(w.expires) {
					continue
				}
				// Lease outlived its TTL without a completion: the worker
				// died (or stalled past its renewals). Reclaim and re-issue.
				m.obs.Metrics().Counter("fleet.leases.expired").Inc()
				m.obs.Warn("lease expired; window re-issued",
					obs.F("sweep", id), obs.F("window", fmt.Sprintf("[%d,%d)", w.b0, w.b0+1)),
					obs.F("worker", w.worker))
				delete(m.leases, w.leaseID)
			}
			m.leaseSeq++
			w.leaseID = fmt.Sprintf("L%06d", m.leaseSeq)
			w.worker = worker
			w.issuedAt = now
			w.expires = now.Add(m.ttl)
			m.leases[w.leaseID] = leaseRef{sweepID: id, idx: i}
			m.obs.Metrics().Counter("fleet.leases.issued").Inc()
			return Lease{
				LeaseID: w.leaseID, Sweep: fs.wire, B0: w.b0, B1: w.b0 + 1,
				TTLMs: m.ttl.Milliseconds(),
			}, true
		}
	}
	return Lease{}, false
}

// Renew extends a lease's TTL. It succeeds while the lease is still the
// window's current lease (even slightly past expiry, as long as the
// window was not re-issued); once the window completed or was re-leased
// the renewal reports false and the worker should abandon the window.
func (m *FleetManager) Renew(leaseID, worker string) bool {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.markSeenLocked(worker, now)
	ref, ok := m.leases[leaseID]
	if !ok {
		return false
	}
	fs := m.sweeps[ref.sweepID]
	w := fs.windows[ref.idx]
	if w.done || w.leaseID != leaseID {
		return false
	}
	w.expires = now.Add(m.ttl)
	m.obs.Metrics().Counter("fleet.leases.renewed").Inc()
	return true
}

// Release returns a leased window to pending before its TTL, so a worker
// that cannot evaluate it (unresolvable sweep, a sweep it derives
// differently, eval failure) does not leave the window dead until
// expiry. Idempotent: releasing a lease that already completed, expired,
// was re-issued, or never existed reports false and changes nothing.
func (m *FleetManager) Release(leaseID, worker string) bool {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.markSeenLocked(worker, now)
	ref, ok := m.leases[leaseID]
	if !ok {
		return false
	}
	fs := m.sweeps[ref.sweepID]
	w := fs.windows[ref.idx]
	if w.done || w.leaseID != leaseID {
		return false
	}
	delete(m.leases, leaseID)
	w.leaseID = ""
	w.worker = ""
	m.obs.Metrics().Counter("fleet.leases.released").Inc()
	m.obs.Info("lease released; window back to pending",
		obs.F("sweep", ref.sweepID), obs.F("window", fmt.Sprintf("[%d,%d)", w.b0, w.b0+1)),
		obs.F("worker", worker))
	return true
}

// Completion outcomes of Complete.
const (
	CompleteOK        = "ok"
	CompleteDuplicate = "duplicate"
)

// errUnknownSweep reports a completion for a sweep the fleet no longer
// tracks (finished, cancelled, or never registered) — the worker should
// drop the result.
var errUnknownSweep = fmt.Errorf("fleet: unknown sweep")

// Complete folds one window's counts. Any completion of a pending window
// is accepted — regardless of whose lease is current — because window
// counts are deterministic: a slow worker racing a re-issued lease
// reports the same integers the replacement would. A second completion
// of a done window is a duplicate and is dropped without a second fold.
func (m *FleetManager) Complete(req completeRequest) (string, error) {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.markSeenLocked(req.Worker, now)
	fs, ok := m.sweeps[req.SweepID]
	if !ok {
		return "", errUnknownSweep
	}
	i := req.B0 - fs.start
	if req.B1 != req.B0+1 || i < 0 || i >= len(fs.windows) {
		return "", fmt.Errorf("fleet: sweep %s has no window [%d, %d)", req.SweepID, req.B0, req.B1)
	}
	w := fs.windows[i]
	if len(req.Correct) != fs.wire.Evals {
		return "", fmt.Errorf("fleet: window [%d, %d) completion carries %d counts, want %d",
			req.B0, req.B1, len(req.Correct), fs.wire.Evals)
	}
	// Correct-counts are numbers of correctly-classified examples in the
	// window, so each must lie in [0, window example count]: a whole batch,
	// or what the split has left for the short tail batch. A count outside
	// that range cannot come from an honest evaluation — folding it would
	// silently corrupt the sweep's accuracy, so reject it before it
	// reaches a checkpoint.
	batch := fs.wire.Opts.Batch
	maxCorrect := min(batch, fs.wire.Examples-req.B0*batch)
	for i, c := range req.Correct {
		if c < 0 || c > maxCorrect {
			m.obs.Metrics().Counter("fleet.completions.out_of_range").Inc()
			return "", fmt.Errorf("fleet: window [%d, %d) count[%d] = %d out of range [0, %d]",
				req.B0, req.B1, i, c, maxCorrect)
		}
	}
	if w.done {
		m.obs.Metrics().Counter("fleet.leases.duplicate").Inc()
		return CompleteDuplicate, nil
	}
	w.done = true
	if w.leaseID != "" {
		delete(m.leases, w.leaseID)
		w.leaseID = ""
	}
	if !w.issuedAt.IsZero() {
		d := now.Sub(w.issuedAt)
		m.obs.Metrics().Timer("fleet.window").Observe(d)
		if t := m.workerTimerLocked(req.Worker); t != nil {
			t.Observe(d)
		}
	}
	m.obs.Metrics().Counter("fleet.leases.completed").Inc()
	fs.results <- core.WindowResult{B0: req.B0, B1: req.B1, Correct: append([]int(nil), req.Correct...)}
	fs.remaining--
	if fs.remaining == 0 {
		m.closeSweepLocked(fs)
	}
	return CompleteOK, nil
}

// Status snapshots the fleet for GET /v1/fleet. Workers unseen for
// workerPruneTTLs lease lifetimes have left the fleet and are pruned,
// not reported.
func (m *FleetManager) Status() FleetStatus {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.markSeenLocked("", now)
	st := FleetStatus{Sweeps: len(m.sweeps), LeaseTTLMs: m.ttl.Milliseconds()}
	for _, fs := range m.sweeps {
		for _, w := range fs.windows {
			if w.done {
				continue
			}
			if w.leaseID != "" && now.Before(w.expires) {
				st.WindowsLeased++
			} else {
				st.WindowsPending++
			}
		}
	}
	if len(m.lastSeen) > 0 {
		st.Workers = map[string]int64{}
		for name, seen := range m.lastSeen {
			st.Workers[name] = now.Sub(seen).Milliseconds()
		}
	}
	return st
}

// ---- HTTP handlers ----

// maxFleetBytes bounds fleet POST bodies; a completion is a few KB of
// integer counts at most.
const maxFleetBytes = 4 << 20

func decodeFleet(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFleetBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid fleet request: %v", err)
		return false
	}
	return true
}

func (h *serverHandler) fleetLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeFleet(w, r, &req) {
		return
	}
	lease, ok := h.s.fleet.Lease(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

func (h *serverHandler) fleetComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeFleet(w, r, &req) {
		return
	}
	status, err := h.s.fleet.Complete(req)
	if err == errUnknownSweep {
		writeErr(w, http.StatusNotFound, "unknown sweep %q", req.SweepID)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (h *serverHandler) fleetRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if !decodeFleet(w, r, &req) {
		return
	}
	if !h.s.fleet.Renew(req.LeaseID, req.Worker) {
		writeErr(w, http.StatusGone, "lease %q is gone", req.LeaseID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "renewed"})
}

// fleetRelease hands a lease back before expiry. Always 200 — release
// is advisory and idempotent; a lease that is already gone (completed,
// expired, re-issued) just reports "unknown".
func (h *serverHandler) fleetRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !decodeFleet(w, r, &req) {
		return
	}
	status := "released"
	if !h.s.fleet.Release(req.LeaseID, req.Worker) {
		status = "unknown"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (h *serverHandler) fleetStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.s.fleet.Status())
}
