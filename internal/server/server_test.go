package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"redcane/internal/experiments"
	"redcane/internal/obs"
)

// newTestServer builds a server over a temp state dir with a stubbed job
// executor, plus its httptest front-end. Callers must Drain (the helper
// registers that as cleanup).
func newTestServer(t *testing.T, cfg Config, run RunFunc) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	cfg.RunJob = run
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return st, resp
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp.StatusCode
}

// waitState polls a job until it reaches want (fatal on timeout).
func waitState(t *testing.T, ts *httptest.Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State == want {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return JobStatus{}
}

func instantRun(art Artifacts) RunFunc {
	return func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		return art, nil
	}
}

func TestSubmitStatusAndResult(t *testing.T) {
	art := Artifacts{Text: "hello\n", CSV: []byte("a,b\n1,2\n"), JSON: []byte(`{"x":1}`)}
	_, ts := newTestServer(t, Config{}, instantRun(art))

	st, resp := postJob(t, ts, `{"kind":"group-sweep"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
	if st.Spec.Benchmark != "capsnet-mnist-like" {
		t.Fatalf("default benchmark = %q", st.Spec.Benchmark)
	}
	done := waitState(t, ts, st.ID, StateDone)
	if done.Ended.IsZero() || done.Started.IsZero() {
		t.Fatalf("timestamps missing: %+v", done)
	}

	for format, want := range map[string]string{
		"":     art.Text,
		"text": art.Text,
		"csv":  string(art.CSV),
		"json": string(art.JSON),
	} {
		url := ts.URL + "/v1/jobs/" + st.ID + "/result"
		if format != "" {
			url += "?format=" + format
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(data) != want {
			t.Fatalf("result format %q: HTTP %d, body %q", format, resp.StatusCode, data)
		}
	}

	// The list endpoint includes the job; unknown ids and formats fail.
	var all []JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs", &all); code != http.StatusOK || len(all) != 1 || all[0].ID != st.ID {
		t.Fatalf("list: HTTP %d, %+v", code, all)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=xml", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown format: HTTP %d", code)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, instantRun(Artifacts{Text: "x"}))
	for _, body := range []string{
		`{"kind":"bogus"}`,
		`{"kind":"group-sweep","benchmark":"nope"}`,
		`{"kind":"group-sweep","bogus_field":1}`,
		`{"kind":"group-sweep","backend":"float"}`,
		`{"kind":"validate","backend":"fpga"}`,
		`{"kind":"validate","bits":99}`,
		// Sweep overrides on kinds that run the paper defaults regardless.
		`{"kind":"methodology","nm_sweep":[0.5]}`,
		`{"kind":"validate","na":0.3}`,
		`not json`,
	} {
		if _, resp := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%s): HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	// Kind and benchmark are case-insensitive; validate gets defaults.
	st, resp := postJob(t, ts, `{"kind":"VALIDATE","benchmark":"CapsNet-MNIST-Like"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("case-insensitive submit: HTTP %d", resp.StatusCode)
	}
	if st.Spec.Kind != "validate" || st.Spec.Benchmark != "capsnet-mnist-like" ||
		st.Spec.Backend != "quant-approx" || st.Spec.Bits != 8 {
		t.Fatalf("normalized spec = %+v", st.Spec)
	}
}

func TestQueueSaturationAnd429(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		select {
		case <-release:
			return Artifacts{Text: "ok"}, nil
		case <-ctx.Done():
			return Artifacts{}, ctx.Err()
		}
	}
	_, ts := newTestServer(t, Config{Slots: 1, QueueCap: 2}, blocking)
	defer close(release)

	// One running + two queued fill the server.
	var ids []string
	for i := 0; i < 3; i++ {
		st, resp := postJob(t, ts, `{"kind":"group-sweep"}`)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	waitState(t, ts, ids[0], StateRunning)
	if _, resp := postJob(t, ts, `{"kind":"group-sweep"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: HTTP %d, want 429", resp.StatusCode)
	}
	// Releasing the executor drains the queue FIFO.
	release <- struct{}{}
	release <- struct{}{}
	release <- struct{}{}
	for _, id := range ids {
		waitState(t, ts, id, StateDone)
	}
}

func TestCancelRunningAndQueuedJobs(t *testing.T) {
	started := make(chan struct{}, 1)
	blocking := func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		started <- struct{}{}
		<-ctx.Done()
		return Artifacts{}, ctx.Err()
	}
	_, ts := newTestServer(t, Config{Slots: 1}, blocking)

	run, _ := postJob(t, ts, `{"kind":"methodology"}`)
	queued, _ := postJob(t, ts, `{"kind":"methodology"}`)
	<-started

	// Cancelling the queued job is immediate; it never runs.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d", resp.StatusCode)
	}
	if st := waitState(t, ts, queued.ID, StateCancelled); st.Started != (time.Time{}) {
		t.Fatalf("queued job should never have started: %+v", st)
	}

	// Cancelling the running job stops it at the executor's next
	// cancellation point.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+run.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, run.ID, StateCancelled)

	// The cancelled job's result is a 409, and DELETE on a missing job 404s.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+run.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("cancelled result: HTTP %d", code)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: HTTP %d", resp.StatusCode)
	}
}

func TestEventsStreamReplayAndLive(t *testing.T) {
	gate := make(chan struct{})
	run := func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		o.Info("phase-one", obs.F("progress", "1/2"))
		<-gate
		o.Info("phase-two", obs.F("progress", "2/2"))
		return Artifacts{Text: "done"}, nil
	}
	_, ts := newTestServer(t, Config{}, run)
	st, _ := postJob(t, ts, `{"kind":"group-sweep"}`)
	waitState(t, ts, st.ID, StateRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	readEvent := func() map[string]any {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		return ev
	}
	// Replay covers everything emitted before the subscription...
	var msgs []string
	for {
		ev := readEvent()
		msgs = append(msgs, ev["msg"].(string))
		if ev["msg"] == "phase-one" {
			break
		}
	}
	// ...then the live tail follows, and the stream EOFs with the job.
	close(gate)
	for {
		ev := readEvent()
		msgs = append(msgs, ev["msg"].(string))
		if ev["msg"] == "phase-two" {
			fields := ev["fields"].(map[string]any)
			if fields["progress"] != "2/2" {
				t.Fatalf("phase-two fields = %v", fields)
			}
			break
		}
	}
	for sc.Scan() { // remaining events until the sink closes
	}
	if sc.Err() != nil {
		t.Fatalf("stream error: %v", sc.Err())
	}

	// The progress mirror caught the latest progress field.
	done := waitState(t, ts, st.ID, StateDone)
	if done.Progress != "2/2" {
		t.Fatalf("progress = %q, want 2/2 (events seen: %v)", done.Progress, msgs)
	}
}

func TestHealthzMetricszAndDrain(t *testing.T) {
	blocked := make(chan struct{})
	run := func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		o.Counter("server.test.jobs").Add(1)
		select {
		case <-blocked:
			return Artifacts{Text: "ok"}, nil
		case <-ctx.Done():
			return Artifacts{}, ctx.Err()
		}
	}
	state := t.TempDir()
	s, err := New(Config{StateDir: state, RunJob: run})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	st, _ := postJob(t, ts, `{"kind":"group-sweep"}`)
	waitState(t, ts, st.ID, StateRunning)

	// Drain: the running job is cancelled and re-queued for the next
	// server over this state dir; admission and health flip to 503; the
	// metrics snapshot lands on disk.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: HTTP %d", code)
	}
	if _, resp := postJob(t, ts, `{"kind":"group-sweep"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: HTTP %d", resp.StatusCode)
	}
	if st := waitState(t, ts, st.ID, StateQueued); st.State != StateQueued {
		t.Fatalf("drained job state = %q", st.State)
	}
	var snap obs.Snapshot
	data, err := os.ReadFile(filepath.Join(state, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot malformed: %v\n%s", err, data)
	}
	if snap.Counters["server.test.jobs"] != 1 {
		t.Fatalf("job metrics not folded into the process registry: %v", snap.Counters)
	}
	// /metricsz serves the same registry.
	var live obs.Snapshot
	if code := getJSON(t, ts.URL+"/metricsz", &live); code != http.StatusOK || live.Counters["server.test.jobs"] != 1 {
		t.Fatalf("metricsz: HTTP %d, %v", code, live.Counters)
	}

	// A second server over the same state dir re-admits the drained job
	// and (with an unblocked executor) finishes it under the same ID.
	close(blocked)
	s2, err := New(Config{StateDir: state, RunJob: run})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s2.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	done := waitState(t, ts2, st.ID, StateDone)
	if done.ID != st.ID {
		t.Fatalf("restart changed the job id: %q vs %q", done.ID, st.ID)
	}
}

func TestRestartPreservesFinishedJobs(t *testing.T) {
	state := t.TempDir()
	s, err := New(Config{StateDir: state, RunJob: instantRun(Artifacts{Text: "payload"})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	st, _ := postJob(t, ts, `{"kind":"layer-sweep","seed":7}`)
	waitState(t, ts, st.ID, StateDone)
	ts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{StateDir: state, RunJob: instantRun(Artifacts{})})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	defer s2.Drain(context.Background()) //nolint:errcheck
	got := waitState(t, ts2, st.ID, StateDone)
	if got.Spec.Seed == nil || *got.Spec.Seed != 7 {
		t.Fatalf("restored spec lost its seed: %+v", got.Spec)
	}
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(data) != "payload" {
		t.Fatalf("restored result: HTTP %d, %q", resp.StatusCode, data)
	}
	// New submissions continue the ID sequence instead of colliding.
	st2, _ := postJob(t, ts2, `{"kind":"group-sweep"}`)
	if st2.ID == st.ID {
		t.Fatalf("restart reused job id %q", st2.ID)
	}
}

func TestFailedJobReports409WithError(t *testing.T) {
	run := func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		return Artifacts{}, fmt.Errorf("sweep exploded")
	}
	_, ts := newTestServer(t, Config{}, run)
	st, _ := postJob(t, ts, `{"kind":"group-sweep"}`)
	failed := waitState(t, ts, st.ID, StateFailed)
	if !strings.Contains(failed.Error, "sweep exploded") {
		t.Fatalf("error = %q", failed.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !bytes.Contains(data, []byte("sweep exploded")) {
		t.Fatalf("failed result: HTTP %d, %s", resp.StatusCode, data)
	}
}

// TestHTTPGroupSweepMatchesDirectRun is the end-to-end identity check:
// a group-sweep submitted over HTTP must produce byte-identical
// artifacts to the same sweep run directly through the experiment
// runner with the same seed and options.
func TestHTTPGroupSweepMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a quick benchmark")
	}
	b, err := experiments.FindBenchmark("capsnet-mnist-like")
	if err != nil {
		t.Fatal(err)
	}
	direct := experiments.NewRunner(experiments.Config{
		Dir: t.TempDir(), Quick: true, Seed: 42,
	})
	want, err := direct.GroupSweep(b, experiments.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	wantArt, err := experiments.RenderArtifacts(want)
	if err != nil {
		t.Fatal(err)
	}

	// nil RunJob: the server executes the real experiment path.
	s, err := New(Config{StateDir: t.TempDir(), Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(context.Background()) //nolint:errcheck
	st, resp := postJob(t, ts, `{"kind":"group-sweep","benchmark":"capsnet-mnist-like"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Minute)
	var done JobStatus
	for {
		if time.Now().After(deadline) {
			t.Fatal("group-sweep job never finished")
		}
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &done)
		if done.State == StateDone {
			break
		}
		if done.State == StateFailed {
			t.Fatalf("job failed: %s", done.Error)
		}
		time.Sleep(100 * time.Millisecond)
	}
	for format, want := range map[string]string{"text": wantArt.Text, "csv": string(wantArt.CSV)} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: HTTP %d", format, resp.StatusCode)
		}
		if string(got) != want {
			t.Errorf("HTTP %s artifact differs from the direct run:\n--- http ---\n%s\n--- direct ---\n%s",
				format, got, want)
		}
	}
}
