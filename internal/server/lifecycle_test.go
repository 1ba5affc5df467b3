package server

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"redcane/internal/obs"
)

// TestSubmitValidationRejectsBadNoiseAndDistributedCombos covers the
// spec-validation bugfixes: negative noise values must bounce with a 400
// instead of being silently dropped by the engine's defaulting, and the
// distributed flag only composes with kinds and knobs that can actually
// travel the fleet.
func TestSubmitValidationRejectsBadNoiseAndDistributedCombos(t *testing.T) {
	_, ts := newTestServer(t, Config{}, instantRun(Artifacts{Text: "x"}))
	for _, body := range []string{
		`{"kind":"group-sweep","na":-0.1}`,
		`{"kind":"layer-sweep","nm_sweep":[0.5,-0.1,0.01]}`,
		`{"kind":"group-sweep","nm_sweep":[-1]}`,
		`{"kind":"validate","distributed":true}`,
		`{"kind":"group-sweep","distributed":true,"probes":true}`,
	} {
		if _, resp := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%s): HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	// The legitimate combinations still land.
	for _, body := range []string{
		`{"kind":"group-sweep","na":0.1,"nm_sweep":[0.5,0.1,0]}`,
		`{"kind":"methodology","distributed":true}`,
	} {
		st, resp := postJob(t, ts, body)
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("submit(%s): HTTP %d, want 201", body, resp.StatusCode)
			continue
		}
		waitState(t, ts, st.ID, StateDone)
	}
}

// TestDrainKeepsRequeuedJobStreamsOpenUntilDrained is the regression
// test for the runJob close bug: a drain-requeued job is still queued,
// so its event stream must NOT end when its goroutine unwinds — only
// when the whole drain completes. (It used to close as soon as the job
// requeued, signalling a terminal state on a job that will run again.)
func TestDrainKeepsRequeuedJobStreamsOpenUntilDrained(t *testing.T) {
	started := make(chan string, 2)
	release := make(chan struct{})
	run := func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		started <- spec.Benchmark
		if spec.Seed != nil && *spec.Seed == 2 {
			// Job B ignores the drain until released, keeping the drain
			// in flight after job A has already requeued.
			<-release
			return Artifacts{Text: "ok"}, nil
		}
		<-ctx.Done()
		return Artifacts{}, ctx.Err()
	}
	s, ts := newTestServer(t, Config{Slots: 2}, run)

	a, _ := postJob(t, ts, `{"kind":"group-sweep","seed":1}`)
	b, _ := postJob(t, ts, `{"kind":"group-sweep","seed":2}`)
	<-started
	<-started

	// Stream job A's events; track when the stream ends.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + a.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamEnded := make(chan struct{})
	go func() {
		defer close(streamEnded)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
	}()

	// Drain: job A cancels and requeues immediately; job B keeps the
	// drain open until released.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitState(t, ts, a.ID, StateQueued)

	// A is requeued but the drain is still in flight — its subscribers
	// must still be attached. (With the unconditional close this stream
	// had already ended by the time the requeue was visible.)
	select {
	case <-streamEnded:
		t.Fatal("requeued job's event stream ended while the server was still draining")
	case <-time.After(100 * time.Millisecond):
	}

	// Finishing the drain ends the stream, exactly once, for everyone.
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	select {
	case <-streamEnded:
	case <-time.After(5 * time.Second):
		t.Fatal("drain completed but the requeued job's event stream never ended")
	}
	waitState(t, ts, b.ID, StateDone)
}

// TestPanickingJobFailsAndServerKeepsServing: a job whose run panics
// ends failed with the panic value as its error and its stack on the
// event stream, while the server goes on to run the next job and drains
// cleanly.
func TestPanickingJobFailsAndServerKeepsServing(t *testing.T) {
	run := func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		if spec.Kind == "layer-sweep" {
			panic("boom")
		}
		return Artifacts{Text: "ok"}, nil
	}
	s, ts := newTestServer(t, Config{Slots: 1}, run)

	bad, _ := postJob(t, ts, `{"kind":"layer-sweep"}`)
	if st := waitState(t, ts, bad.ID, StateFailed); !strings.Contains(st.Error, "boom") {
		t.Fatalf("failed job error = %q, want the panic value", st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + bad.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), "job panicked") || !strings.Contains(string(events), "runRecovered") {
		t.Fatalf("event stream lacks the panic and its stack:\n%s", events)
	}

	good, _ := postJob(t, ts, `{"kind":"group-sweep"}`)
	waitState(t, ts, good.ID, StateDone)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
