package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"redcane/internal/checkpoint"
	"redcane/internal/experiments"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

// postRaw submits a job body and returns the status code with the raw
// response body — for asserting on validation error messages.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func TestFaultSweepSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, instantRun(Artifacts{Text: "x"}))

	// The unknown-kind error must name every valid kind, so a user can
	// self-correct from the 400 body. Every row of the job-kind table is
	// a submittable kind, distributed exactly when its row allows it.
	code, body := postRaw(t, ts.URL, `{"kind":"bogus"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown kind: HTTP %d", code)
	}
	for _, k := range experiments.JobKinds {
		if !strings.Contains(body, k.Name) {
			t.Errorf("unknown-kind 400 %q does not list %q", body, k.Name)
		}
		st, resp := postJob(t, ts, `{"kind":"`+k.Name+`"}`)
		if resp.StatusCode != http.StatusCreated || st.Spec.Kind != k.Name {
			t.Fatalf("submit kind %q: HTTP %d, spec %+v", k.Name, resp.StatusCode, st.Spec)
		}
		waitState(t, ts, st.ID, StateDone)
		want := http.StatusBadRequest
		if k.Distributed {
			want = http.StatusCreated
		}
		if code, body := postRaw(t, ts.URL, `{"kind":"`+k.Name+`","distributed":true}`); code != want {
			t.Errorf("distributed %q: HTTP %d (%s), want %d", k.Name, code, body, want)
		}
	}

	for _, bad := range []string{
		// Unknown injector kinds and out-of-range word lengths.
		`{"kind":"fault-sweep","fault":"cosmic-ray"}`,
		`{"kind":"fault-sweep","fault_bits":99}`,
		`{"kind":"fault-sweep","fault":"stuck-at-0","fault_bits":4}`,
		// Fault knobs are meaningless on other kinds.
		`{"kind":"group-sweep","fault":"bit-flip"}`,
		`{"kind":"validate","fault_bits":8}`,
		// Negative fault severities (probabilities/fractions) bounce like
		// negative noise magnitudes do.
		`{"kind":"fault-sweep","nm_sweep":[0.01,-0.001]}`,
		// Unknown nonlinearity variants on any kind.
		`{"kind":"group-sweep","softmax":"base3"}`,
		`{"kind":"fault-sweep","squash":"newton"}`,
	} {
		if code, body := postRaw(t, ts.URL, bad); code != http.StatusBadRequest {
			t.Errorf("submit(%s): HTTP %d (%s), want 400", bad, code, body)
		}
	}

	// The bad-injector 400 lists the valid injector kinds.
	if code, body := postRaw(t, ts.URL, `{"kind":"fault-sweep","fault":"cosmic-ray"}`); code != http.StatusBadRequest || !strings.Contains(body, noise.KindStuckAt1) {
		t.Fatalf("bad injector 400 = %d %q, want the valid-kind list", code, body)
	}

	// Normalization: case-insensitive kind, injector defaults, and the
	// "exact" aliases canonicalize to the empty (default) spelling.
	st, resp := postJob(t, ts, `{"kind":"FAULT-SWEEP","fault":"Bit-Flip","softmax":"exact","squash":"exact"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("fault-sweep submit: HTTP %d", resp.StatusCode)
	}
	if st.Spec.Kind != "fault-sweep" || st.Spec.Fault != noise.KindBitFlip || st.Spec.FaultBits != 8 {
		t.Fatalf("normalized spec = %+v", st.Spec)
	}
	if st.Spec.Softmax != "" || st.Spec.Squash != "" {
		t.Fatalf("exact aliases survived normalization: %+v", st.Spec)
	}
	waitState(t, ts, st.ID, StateDone)

	// Approximate variants are accepted on every kind.
	st2, resp2 := postJob(t, ts, `{"kind":"group-sweep","softmax":"base2","squash":"sqnorm"}`)
	if resp2.StatusCode != http.StatusCreated || st2.Spec.Softmax != "base2" || st2.Spec.Squash != "sqnorm" {
		t.Fatalf("nonlinearity submit: HTTP %d, %+v", resp2.StatusCode, st2.Spec)
	}
	waitState(t, ts, st2.ID, StateDone)
}

// faultFleetRunFunc mirrors fleetRunFunc with the job's fault spec folded
// into the fixture options — the same shape runSpec gives FaultSweep,
// minus training.
func faultFleetRunFunc(fm chan *FleetManager) RunFunc {
	return func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		a, err := fleetFixtureAnalyzer()
		if err != nil {
			return Artifacts{}, err
		}
		a.Obs = o
		a.Opts.Noise = noise.Spec{Kind: spec.Fault, Bits: spec.FaultBits}
		if len(spec.NMSweep) > 0 {
			a.Opts.NMSweep = spec.NMSweep
		}
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

// TestDistributedFaultSweepByteIdenticalAcrossFleetSizes is the fault
// half of the acceptance criterion: a fault-sweep job with
// distributed:true over 1 and 2 workers matches the single-process run
// byte-for-byte. The worker side resolves purely from the wire options,
// so this also proves the injector spec survives WireSweep.
func TestDistributedFaultSweepByteIdenticalAcrossFleetSizes(t *testing.T) {
	const jobBody = `{"kind":"fault-sweep","fault":"bit-flip","nm_sweep":[0.02,0.005]}`

	// Single-process reference: the same run func, local path.
	fm0 := make(chan *FleetManager, 1)
	s0, ts0 := newTestServer(t, Config{}, faultFleetRunFunc(fm0))
	fm0 <- s0.Fleet()
	st0, resp := postJob(t, ts0, jobBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitState(t, ts0, st0.ID, StateDone)
	want := getResult(t, ts0, st0.ID)
	if !strings.Contains(want, "Points") && len(want) < 10 {
		t.Fatalf("implausible baseline artifact: %q", want)
	}

	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			fm := make(chan *FleetManager, 1)
			s, ts := newTestServer(t, Config{}, faultFleetRunFunc(fm))
			fm <- s.Fleet()
			for i := 0; i < n; i++ {
				startWorker(t, ts.URL, fmt.Sprintf("fw%d", i+1), fixtureResolve(0))
			}
			st, resp := postJob(t, ts, `{"kind":"fault-sweep","fault":"bit-flip","nm_sweep":[0.02,0.005],"distributed":true}`)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			waitState(t, ts, st.ID, StateDone)
			if got := getResult(t, ts, st.ID); got != want {
				t.Fatalf("%d-worker fault fleet differs from single-process run:\n%s\nvs\n%s", n, got, want)
			}
		})
	}
}
