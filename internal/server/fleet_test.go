package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redcane/internal/checkpoint"
	"redcane/internal/core"
	"redcane/internal/datasets"
	"redcane/internal/models"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

// ---- FleetManager unit tests (fake clock) ----

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testFleetManager(ttl time.Duration) (*FleetManager, *fakeClock, *obs.Obs) {
	o := obs.New(obs.Off, nil)
	m := NewFleetManager(o, ttl)
	fc := &fakeClock{t: time.Unix(1000, 0)}
	m.now = fc.Now
	return m, fc, o
}

func testWireSweep(id string, evals, nb int) WireSweep {
	return WireSweep{
		ID: id, JobID: "j000001", SeedBase: 100,
		Scope: core.SweepScope{Group: noise.MACOutputs.String()},
		Evals: evals, NB: nb,
	}
}

func counts(evals, b0 int) []int {
	out := make([]int, evals)
	for i := range out {
		out[i] = b0*10 + i // distinct per (window, eval): fold mix-ups show
	}
	return out
}

func TestFleetManagerLeaseCompleteLifecycle(t *testing.T) {
	m, _, _ := testFleetManager(time.Minute)
	ch, err := m.runSweep(context.Background(), testWireSweep("j1/s1", 2, 3), 0)
	if err != nil {
		t.Fatal(err)
	}

	var leases []Lease
	for i := 0; i < 3; i++ {
		l, ok := m.Lease("w1")
		if !ok {
			t.Fatalf("lease %d refused", i)
		}
		if l.B0 != i || l.B1 != i+1 || l.Sweep.ID != "j1/s1" {
			t.Fatalf("lease %d = %+v", i, l)
		}
		leases = append(leases, l)
	}
	if _, ok := m.Lease("w1"); ok {
		t.Fatal("lease issued with every window already leased")
	}
	st := m.Status()
	if st.Sweeps != 1 || st.WindowsLeased != 3 || st.WindowsPending != 0 {
		t.Fatalf("status = %+v", st)
	}

	for _, l := range leases {
		status, err := m.Complete(completeRequest{
			LeaseID: l.LeaseID, Worker: "w1", SweepID: l.Sweep.ID,
			B0: l.B0, B1: l.B1, Correct: counts(2, l.B0),
		})
		if err != nil || status != CompleteOK {
			t.Fatalf("complete [%d,%d): %q, %v", l.B0, l.B1, status, err)
		}
	}

	got := map[int]core.WindowResult{}
	for r := range ch { // closes once the last window completes
		got[r.B0] = r
	}
	if len(got) != 3 {
		t.Fatalf("folded %d windows, want 3", len(got))
	}
	for b0 := 0; b0 < 3; b0++ {
		r := got[b0]
		want := counts(2, b0)
		if r.B1 != b0+1 || len(r.Correct) != 2 || r.Correct[0] != want[0] || r.Correct[1] != want[1] {
			t.Fatalf("window %d result = %+v", b0, r)
		}
	}

	// The finished sweep is gone: completions 404 and the fleet idles.
	if _, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: 0, B1: 1, Correct: counts(2, 0)}); err != errUnknownSweep {
		t.Fatalf("complete after finish: %v", err)
	}
	if st := m.Status(); st.Sweeps != 0 {
		t.Fatalf("status after finish = %+v", st)
	}
}

func TestFleetSweepLeasesOneBatchPerWindow(t *testing.T) {
	// The fleet's window is one batch: a sweep registered from batch
	// start through the core.Fleet seam leaves nb-start pending windows,
	// leased in ascending order, each covering a single batch.
	const nb = 4
	for _, start := range []int{0, 1} {
		m, _, _ := testFleetManager(time.Minute)
		ctx, cancel := context.WithCancel(context.Background())
		job := core.SweepJob{
			Key: "sweep-7", SeedBase: 7, Scope: core.ScopeForGroup(noise.MACOutputs),
			Evals: 1, NB: nb, Examples: 3 * nb,
		}
		if _, err := m.ForJob("j000001", "capsnet-mnist-like", true, 42).RunSweep(ctx, job, start); err != nil {
			t.Fatal(err)
		}
		if st := m.Status(); st.WindowsPending != nb-start {
			t.Fatalf("start %d: %d pending windows, want %d", start, st.WindowsPending, nb-start)
		}
		for b := start; b < nb; b++ {
			if l, ok := m.Lease("w1"); !ok || l.B0 != b || l.B1 != b+1 {
				t.Fatalf("start %d: lease = %+v, %v; want window [%d, %d)", start, l, ok, b, b+1)
			}
		}
		cancel()
	}
}

func TestFleetManagerDuplicateAndUnleasedCompletions(t *testing.T) {
	m, _, o := testFleetManager(time.Minute)
	ch, err := m.runSweep(context.Background(), testWireSweep("j1/s1", 1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}

	// A completion needs no lease: window counts are deterministic, so
	// whoever computed them is welcome.
	req := completeRequest{Worker: "w1", SweepID: "j1/s1", B0: 0, B1: 1, Correct: []int{7}}
	if status, err := m.Complete(req); err != nil || status != CompleteOK {
		t.Fatalf("unleased complete: %q, %v", status, err)
	}
	// A second completion of a done window is a duplicate, dropped
	// without a second fold.
	if status, err := m.Complete(req); err != nil || status != CompleteDuplicate {
		t.Fatalf("duplicate complete: %q, %v", status, err)
	}
	if v := o.Metrics().Counter("fleet.leases.duplicate").Value(); v != 1 {
		t.Fatalf("duplicate counter = %d", v)
	}

	// Malformed completions are rejected: wrong count width, bogus window.
	if _, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: 1, B1: 2, Correct: []int{1, 2}}); err == nil {
		t.Fatal("wrong-width completion accepted")
	}
	// A window is one registered batch; any other range names none.
	for _, bad := range [][2]int{{5, 6}, {0, 2}, {-1, 0}} {
		if _, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: bad[0], B1: bad[1], Correct: []int{1}}); err == nil ||
			!strings.Contains(err.Error(), "has no window") {
			t.Fatalf("completion of [%d, %d): %v, want no such window", bad[0], bad[1], err)
		}
	}

	if status, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: 1, B1: 2, Correct: []int{9}}); err != nil || status != CompleteOK {
		t.Fatalf("second window: %q, %v", status, err)
	}
	n := 0
	for range ch {
		n++
	}
	if n != 2 {
		t.Fatalf("channel delivered %d results, want 2 (the duplicate folded)", n)
	}

	// A sweep resumed at batch 1 registers only [1, 2): batch 0 is
	// already folded, so completing it names no window.
	resumed, err := m.runSweep(context.Background(), testWireSweep("j1/s2", 1, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Complete(completeRequest{SweepID: "j1/s2", B0: 0, B1: 1, Correct: []int{1}}); err == nil ||
		!strings.Contains(err.Error(), "has no window") {
		t.Fatalf("completion of a batch before the resumed start: %v, want no such window", err)
	}
	if status, err := m.Complete(completeRequest{SweepID: "j1/s2", B0: 1, B1: 2, Correct: []int{1}}); err != nil || status != CompleteOK {
		t.Fatalf("resumed sweep's window: %q, %v", status, err)
	}
	if r := <-resumed; r.B0 != 1 || r.B1 != 2 {
		t.Fatalf("resumed sweep delivered [%d, %d), want [1, 2)", r.B0, r.B1)
	}
}

func TestFleetManagerExpiryReissueAndLateCompletion(t *testing.T) {
	m, fc, o := testFleetManager(time.Second)
	if _, err := m.runSweep(context.Background(), testWireSweep("j1/s1", 1, 2), 0); err != nil {
		t.Fatal(err)
	}

	l1, ok := m.Lease("w1")
	if !ok || l1.B0 != 0 {
		t.Fatalf("first lease = %+v, %v", l1, ok)
	}
	// Within the TTL the window stays with w1; w2 gets the next one.
	l2, ok := m.Lease("w2")
	if !ok || l2.B0 != 1 {
		t.Fatalf("second lease = %+v, %v", l2, ok)
	}

	// w1 dies: its lease outlives the TTL and the window is re-issued.
	fc.Advance(1500 * time.Millisecond)
	l3, ok := m.Lease("w3")
	if !ok || l3.B0 != 0 || l3.LeaseID == l1.LeaseID {
		t.Fatalf("re-issued lease = %+v, %v (original %+v)", l3, ok, l1)
	}
	if v := o.Metrics().Counter("fleet.leases.expired").Value(); v < 1 {
		t.Fatalf("expired counter = %d", v)
	}
	// The dead lease cannot renew...
	if m.Renew(l1.LeaseID, "w1") {
		t.Fatal("re-issued window renewed under the old lease")
	}
	// ...but if w1 was merely slow, its late completion still counts
	// (deterministic counts), and the replacement's becomes the duplicate.
	if status, err := m.Complete(completeRequest{LeaseID: l1.LeaseID, Worker: "w1", SweepID: "j1/s1", B0: 0, B1: 1, Correct: []int{3}}); err != nil || status != CompleteOK {
		t.Fatalf("late complete: %q, %v", status, err)
	}
	if status, err := m.Complete(completeRequest{LeaseID: l3.LeaseID, Worker: "w3", SweepID: "j1/s1", B0: 0, B1: 1, Correct: []int{3}}); err != nil || status != CompleteDuplicate {
		t.Fatalf("replacement complete: %q, %v", status, err)
	}
}

func TestFleetManagerRenewKeepsLeaseAlive(t *testing.T) {
	m, fc, _ := testFleetManager(time.Second)
	if _, err := m.runSweep(context.Background(), testWireSweep("j1/s1", 1, 2), 0); err != nil {
		t.Fatal(err)
	}
	l1, _ := m.Lease("w1")
	fc.Advance(900 * time.Millisecond)
	if !m.Renew(l1.LeaseID, "w1") {
		t.Fatal("live lease refused renewal")
	}
	// Past the original expiry but within the renewed one: the window is
	// not up for grabs.
	fc.Advance(900 * time.Millisecond)
	l2, ok := m.Lease("w2")
	if !ok || l2.B0 == l1.B0 {
		t.Fatalf("renewed window re-issued: %+v, %v", l2, ok)
	}
	if !m.Renew(l1.LeaseID, "w1") {
		t.Fatal("renewed lease refused a second renewal")
	}
	// Renewing a finished or unknown lease reports gone.
	if m.Renew("L999999", "w9") {
		t.Fatal("unknown lease renewed")
	}
}

func TestFleetManagerContextCancelClosesSweep(t *testing.T) {
	m, _, _ := testFleetManager(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := m.runSweep(ctx, testWireSweep("j1/s1", 1, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case _, open := <-ch:
		if open {
			t.Fatal("cancelled sweep delivered a result")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled sweep's channel never closed")
	}
	if _, ok := m.Lease("w1"); ok {
		t.Fatal("cancelled sweep still leasing windows")
	}
	if _, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: 0, B1: 1, Correct: []int{1}}); err != errUnknownSweep {
		t.Fatalf("complete after cancel: %v", err)
	}

	// A duplicate registration under a live ID is refused.
	ch2, err := m.runSweep(context.Background(), testWireSweep("j1/s2", 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.runSweep(context.Background(), testWireSweep("j1/s2", 1, 1), 0); err == nil {
		t.Fatal("duplicate sweep ID registered")
	}
	if status, err := m.Complete(completeRequest{SweepID: "j1/s2", B0: 0, B1: 1, Correct: []int{1}}); err != nil || status != CompleteOK {
		t.Fatalf("complete: %q, %v", status, err)
	}
	for range ch2 {
	}
}

// ---- HTTP handler tests ----

func TestFleetHTTPEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{}, instantRun(Artifacts{Text: "x"}))
	postFleet := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	// An idle fleet has no work and says so without a body.
	if resp, _ := postFleet("/v1/fleet/lease", `{"worker":"w1"}`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idle lease: HTTP %d", resp.StatusCode)
	}
	// Malformed bodies are 400s.
	if resp, _ := postFleet("/v1/fleet/lease", `{bogus`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed lease: HTTP %d", resp.StatusCode)
	}
	if resp, _ := postFleet("/v1/fleet/complete", `{"sweep_id":"nope","b0":0,"b1":1,"correct":[1]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-sweep complete: HTTP %d", resp.StatusCode)
	}
	if resp, _ := postFleet("/v1/fleet/renew", `{"lease_id":"L000001"}`); resp.StatusCode != http.StatusGone {
		t.Fatalf("unknown renew: HTTP %d", resp.StatusCode)
	}

	ch, err := s.Fleet().runSweep(context.Background(), testWireSweep("j1/s1", 2, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postFleet("/v1/fleet/lease", `{"worker":"w1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: HTTP %d, %s", resp.StatusCode, body)
	}
	var lease Lease
	if err := json.Unmarshal(body, &lease); err != nil {
		t.Fatalf("lease body: %v\n%s", err, body)
	}
	if lease.Sweep.ID != "j1/s1" || lease.B0 != 0 || lease.B1 != 1 || lease.TTLMs != DefaultLeaseTTL.Milliseconds() {
		t.Fatalf("lease = %+v", lease)
	}

	var fs FleetStatus
	if code := getJSON(t, ts.URL+"/v1/fleet", &fs); code != http.StatusOK {
		t.Fatalf("fleet status: HTTP %d", code)
	}
	if fs.Sweeps != 1 || fs.WindowsLeased != 1 {
		t.Fatalf("fleet status = %+v", fs)
	}
	if _, ok := fs.Workers["w1"]; !ok {
		t.Fatalf("worker liveness missing: %+v", fs.Workers)
	}

	// Wrong count width bounces with a 400; the real one lands.
	if resp, body := postFleet("/v1/fleet/complete",
		fmt.Sprintf(`{"lease_id":%q,"sweep_id":"j1/s1","b0":0,"b1":1,"correct":[1]}`, lease.LeaseID)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short complete: HTTP %d, %s", resp.StatusCode, body)
	}
	resp, body = postFleet("/v1/fleet/complete",
		fmt.Sprintf(`{"lease_id":%q,"worker":"w1","sweep_id":"j1/s1","b0":0,"b1":1,"correct":[4,9]}`, lease.LeaseID))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("complete: HTTP %d, %s", resp.StatusCode, body)
	}
	r := <-ch
	if r.Correct[0] != 4 || r.Correct[1] != 9 {
		t.Fatalf("folded result = %+v", r)
	}
	for range ch {
	}
}

// ---- End-to-end distributed sweeps ----

// fleetFixtureOpts are the results-affecting options shared by the
// coordinator fixture and the (stub-resolved) workers.
func fleetFixtureOpts() core.Options {
	return core.Options{
		NMSweep: []float64{0.5, 0.1}, Trials: 1, Batch: 10,
		Threshold: 0.02, Seed: 5, Workers: 1,
	}
}

// fleetFixtureAnalyzer builds a deterministic, cheap analyzer: an
// untrained (seed-initialized) CapsNet over a synthetic dataset. The
// resilience numbers are meaningless — the fleet tests assert byte
// identity of the fold, which only needs determinism, not accuracy.
func fleetFixtureAnalyzer() (*core.Analyzer, error) {
	ds := datasets.MNISTLike(12, 30, 7)
	net, err := models.BuildInference(models.CapsNet([]int{ds.Channels, ds.H, ds.W}, len(ds.ClassNames)), 3)
	if err != nil {
		return nil, err
	}
	return &core.Analyzer{Net: net, Data: ds, Opts: fleetFixtureOpts()}, nil
}

// fixtureWindows is the fixture's total lease count per group-sweep job:
// one sweep per noise group, one single-batch window per eval batch.
func fixtureWindows(t *testing.T) int {
	t.Helper()
	a, err := fleetFixtureAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	_, nb := a.SweepGrid()
	return len(noise.Groups()) * nb
}

// fleetRunFunc is a RunFunc running the fixture's group analysis — the
// same checkpointed AnalyzeGroups path runSpec drives, minus training.
// The FleetManager is read through a 1-slot channel so restart tests can
// swap in a new server's fleet before the restored job resumes.
func fleetRunFunc(fm chan *FleetManager) RunFunc {
	return func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		a, err := fleetFixtureAnalyzer()
		if err != nil {
			return Artifacts{}, err
		}
		a.Obs = o
		st, _, err := checkpoint.Open(jobDir, "fleet-fixture", a.Opts.Seed, a.Opts.Fingerprint())
		if err != nil {
			return Artifacts{}, err
		}
		a.Checkpoint = st
		if spec.Distributed {
			m := <-fm
			fm <- m
			a.Fleet = m.ForJob(filepath.Base(jobDir), spec.Benchmark, true, 0)
		}
		clean, err := a.Evaluate(ctx, nil, nil, "")
		if err != nil {
			return Artifacts{}, err
		}
		groups, err := a.AnalyzeGroups(ctx, clean)
		if err != nil {
			return Artifacts{}, err
		}
		data, err := json.MarshalIndent(groups, "", " ")
		if err != nil {
			return Artifacts{}, err
		}
		return Artifacts{Text: string(data) + "\n"}, nil
	}
}

// fleetBaseline runs the fixture analysis single-process, in-process:
// the byte-identity reference every fleet topology must reproduce.
func fleetBaseline(t *testing.T) string {
	t.Helper()
	a, err := fleetFixtureAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := a.Evaluate(context.Background(), nil, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := a.AnalyzeGroups(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(groups, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// fixtureResolve is the worker-side Resolve over the same fixture;
// delay throttles each lease to give tests time to interrupt mid-run.
func fixtureResolve(delay time.Duration) func(WireSweep) (*core.Analyzer, error) {
	return func(ws WireSweep) (*core.Analyzer, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		a, err := fleetFixtureAnalyzer()
		if err != nil {
			return nil, err
		}
		a.Opts = ws.Options.CoreOptions(1)
		return a, nil
	}
}

// startWorker runs an in-process fleet worker against a coordinator URL.
func startWorker(t *testing.T, url, name string, resolve func(WireSweep) (*core.Analyzer, error)) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	wk := &Worker{Base: url, Name: name, Poll: 5 * time.Millisecond, Resolve: resolve}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wk.Run(ctx) //nolint:errcheck // returns ctx.Err() on stop
	}()
	stop = func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

func getResult(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d, %s", resp.StatusCode, data)
	}
	return string(data)
}

// TestDistributedJobByteIdenticalAcrossFleetSizes is the tentpole
// acceptance test: a distributed group-sweep job folded from 1, 2 and 4
// workers must produce byte-identical artifacts to the single-process
// run of the same analysis.
func TestDistributedJobByteIdenticalAcrossFleetSizes(t *testing.T) {
	want := fleetBaseline(t)

	// The same RunFunc without the distributed flag takes the local path.
	fm := make(chan *FleetManager, 1)
	s, ts := newTestServer(t, Config{}, fleetRunFunc(fm))
	fm <- s.Fleet()
	st, _ := postJob(t, ts, `{"kind":"group-sweep"}`)
	waitState(t, ts, st.ID, StateDone)
	if got := getResult(t, ts, st.ID); got != want {
		t.Fatalf("local server run differs from in-process baseline:\n%s\nvs\n%s", got, want)
	}

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			fm := make(chan *FleetManager, 1)
			s, ts := newTestServer(t, Config{}, fleetRunFunc(fm))
			fm <- s.Fleet()
			for i := 0; i < n; i++ {
				startWorker(t, ts.URL, fmt.Sprintf("w%d", i+1), fixtureResolve(0))
			}
			st, resp := postJob(t, ts, `{"kind":"group-sweep","distributed":true}`)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			waitState(t, ts, st.ID, StateDone)
			if got := getResult(t, ts, st.ID); got != want {
				t.Fatalf("%d-worker fleet differs from single-process run:\n%s\nvs\n%s", n, got, want)
			}
		})
	}
}

// TestDistributedJobSurvivesWorkerCrash kills a worker mid-window: its
// lease expires, the window is re-issued to a healthy worker, and the
// artifacts stay byte-identical.
func TestDistributedJobSurvivesWorkerCrash(t *testing.T) {
	want := fleetBaseline(t)
	o := obs.New(obs.Off, nil)
	fm := make(chan *FleetManager, 1)
	s, ts := newTestServer(t, Config{Obs: o, LeaseTTL: 150 * time.Millisecond}, fleetRunFunc(fm))
	fm <- s.Fleet()

	// The crash worker takes one lease and dies holding it: its context
	// ends mid-window, so it never completes, never renews, and exits.
	crashCtx, crashCancel := context.WithCancel(context.Background())
	defer crashCancel()
	var crashed atomic.Bool
	crashWk := &Worker{
		Base: ts.URL, Name: "doomed", Poll: 2 * time.Millisecond,
		Resolve: func(ws WireSweep) (*core.Analyzer, error) {
			crashed.Store(true)
			crashCancel()
			return fixtureResolve(0)(ws)
		},
	}
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		crashWk.Run(crashCtx) //nolint:errcheck
	}()

	st, _ := postJob(t, ts, `{"kind":"group-sweep","distributed":true}`)
	select {
	case <-crashDone: // the worker leased a window and died
	case <-time.After(10 * time.Second):
		t.Fatal("crash worker never leased a window")
	}
	if !crashed.Load() {
		t.Fatal("crash worker exited without leasing")
	}

	// Only now does a healthy worker join: the crashed window is
	// genuinely outstanding until its lease expires.
	startWorker(t, ts.URL, "healthy", fixtureResolve(0))
	waitState(t, ts, st.ID, StateDone)
	if got := getResult(t, ts, st.ID); got != want {
		t.Fatalf("post-crash fleet run differs from single-process run:\n%s\nvs\n%s", got, want)
	}
	if v := o.Metrics().Counter("fleet.leases.expired").Value(); v < 1 {
		t.Fatalf("fleet.leases.expired = %d, want >= 1 (the crashed lease)", v)
	}
	if v := o.Metrics().Counter("fleet.leases.completed").Value(); v != int64(fixtureWindows(t)) {
		t.Fatalf("fleet.leases.completed = %d, want %d", v, fixtureWindows(t))
	}
}

// TestDistributedJobResumesAcrossCoordinatorRestart drains a coordinator
// mid-fleet-run (leases outstanding), restarts it over the same state
// dir, and the resumed job folds only the missing windows — with
// byte-identical artifacts.
func TestDistributedJobResumesAcrossCoordinatorRestart(t *testing.T) {
	want := fleetBaseline(t)
	state := t.TempDir()
	total := fixtureWindows(t)

	o1 := obs.New(obs.Off, nil)
	fm := make(chan *FleetManager, 1)
	s1, err := New(Config{StateDir: state, Obs: o1, RunJob: fleetRunFunc(fm)})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	fm <- s1.Fleet()
	stop1 := startWorker(t, ts1.URL, "slow", fixtureResolve(30*time.Millisecond))

	st, resp := postJob(t, ts1, `{"kind":"group-sweep","distributed":true}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// Let the fleet fold some — not all — windows, then drain with the
	// worker mid-lease.
	deadline := time.Now().Add(20 * time.Second)
	for o1.Metrics().Counter("fleet.leases.completed").Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("fleet never made progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	stop1()
	j, ok := s1.Get(st.ID)
	if !ok || j.state != StateQueued {
		t.Fatalf("drained job state = %+v", j)
	}
	done1 := o1.Metrics().Counter("fleet.leases.completed").Value()
	if done1 >= int64(total) {
		t.Fatalf("drain came too late: all %d windows already folded", total)
	}

	// Restart over the same state dir. The restored job is scheduled
	// inside New and blocks on the fleet channel (emptied here) until the
	// new server's manager is swapped in.
	<-fm
	o2 := obs.New(obs.Off, nil)
	s2, err := New(Config{StateDir: state, Obs: o2, RunJob: fleetRunFunc(fm)})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s2.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	fm <- s2.Fleet()
	startWorker(t, ts2.URL, "fresh", fixtureResolve(0))

	waitState(t, ts2, st.ID, StateDone)
	if got := getResult(t, ts2, st.ID); got != want {
		t.Fatalf("resumed fleet run differs from single-process run:\n%s\nvs\n%s", got, want)
	}
	// The resume folded exactly the windows the first coordinator did
	// not: nothing recomputed, nothing lost.
	done2 := o2.Metrics().Counter("fleet.leases.completed").Value()
	if done1+done2 != int64(total) {
		t.Fatalf("windows folded: %d before + %d after restart, want %d total", done1, done2, total)
	}
}
