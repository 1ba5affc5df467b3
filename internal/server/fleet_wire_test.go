package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"redcane/internal/core"
	"redcane/internal/noise"
	"redcane/internal/obs"
	"redcane/internal/tensor"
)

// ---- The sweep descriptor on the wire ----

func TestLeaseCarriesOptionsExactly(t *testing.T) {
	// A worker evaluates under the options it decodes from the lease, so
	// every results-affecting option must survive the lease JSON: equal
	// fingerprints, equal values, and no Workers, which is each process's
	// own.
	opts := core.Options{
		NMSweep: []float64{0.3, 0.30000000000000004, 1e-7}, NA: -0.0125, Trials: 3, Batch: 7,
		Threshold: 0.015, Seed: math.MaxUint64 - 1, MaxEval: 99, Workers: 5,
		Noise: noise.Spec{Kind: noise.KindBitFlip, Bits: 4}, Softmax: "base2", Squash: "sqnorm",
	}
	sent := Lease{LeaseID: "L000001", Sweep: WireSweep{ID: "j1/sweep-1", SweepJob: core.SweepJob{Key: "sweep-1", Opts: opts}}}
	data, err := json.Marshal(sent)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"key":"sweep-1"`, `"opts":{`, `"noise":{"kind":"bit-flip","bits":4}`} {
		if !bytes.Contains(data, []byte(field)) {
			t.Fatalf("lease JSON lacks %s:\n%s", field, data)
		}
	}
	var got Lease
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if fp, want := got.Sweep.Opts.Fingerprint(), opts.Fingerprint(); fp != want {
		t.Fatalf("fingerprint after the wire = %s, want %s", fp, want)
	}
	want := opts
	want.Workers = 0
	if !reflect.DeepEqual(got.Sweep.Opts, want) {
		t.Fatalf("options after the wire = %+v, want %+v", got.Sweep.Opts, want)
	}
}

// parentShapeLease is a lease in the wire shape that predates the
// core.SweepJob descriptor: "options" with flat noise fields, and no key.
const parentShapeLease = `{"lease_id":"L000001","sweep":{"id":"j000001/sweep-100","job_id":"j000001","seed_base":100,"scope":{"group":"MAC outputs"},"benchmark":"capsnet-mnist-like","quick":true,"train_seed":0,"options":{"nm_sweep":[0.5,0.1],"na":0,"trials":1,"batch":10,"threshold":0.02,"seed":5,"max_eval":0},"evals":2,"nb":3,"examples":30},"b0":0,"b1":1,"ttl_ms":30000}`

func TestWorkerRefusesParentShapeLease(t *testing.T) {
	// A coordinator that still speaks the older shape sends no key, so a
	// worker must refuse the sweep and hand the lease back, never
	// evaluate it under options it could not read.
	var mu sync.Mutex
	var leased, completed int
	released := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/v1/fleet/lease":
			if leased++; leased == 1 {
				io.WriteString(w, parentShapeLease) //nolint:errcheck
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case "/v1/fleet/release":
			var req releaseRequest
			json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
			select {
			case released <- req.LeaseID:
			default:
			}
			writeJSON(w, http.StatusOK, map[string]string{"status": "released"})
		case "/v1/fleet/complete":
			completed++
			writeJSON(w, http.StatusOK, map[string]string{"status": CompleteOK})
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer ts.Close()

	wk := &Worker{Base: ts.URL, Name: "w1", Poll: 5 * time.Millisecond, Resolve: fixtureResolve(0)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		wk.Run(ctx) //nolint:errcheck // returns ctx.Err() on stop
	}()
	select {
	case id := <-released:
		if id != "L000001" {
			t.Fatalf("released lease %q, want L000001", id)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never released the parent-shape lease")
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if completed != 0 {
		t.Fatalf("worker completed %d windows of a sweep it cannot read", completed)
	}
	if !wk.bad["j000001/sweep-100"] {
		t.Fatal("worker did not mark the sweep bad")
	}
}

// TestSkewedWorkerRefusesEveryWindow pins the drift guard end to end. The
// skewed worker's split holds 25 of the fixture's 30 examples, which is
// still 3 batches of 10, so only the example count tells its counts
// apart. It runs alone first, so it is leased windows before anyone else
// can take them: it must refuse each, mark the sweep bad after one
// resolve, and release the lease (the hour-long TTL would hang the test
// otherwise). The healthy worker then folds every window, and the result
// equals the single-process bytes.
func TestSkewedWorkerRefusesEveryWindow(t *testing.T) {
	want := fleetBaseline(t)
	o := obs.New(obs.Off, nil)
	fm := make(chan *FleetManager, 1)
	s, ts := newTestServer(t, Config{Obs: o, LeaseTTL: time.Hour}, fleetRunFunc(fm))
	fm <- s.Fleet()

	var mu sync.Mutex
	resolves := map[string]int{}
	skewed := func(ws WireSweep) (*core.Analyzer, error) {
		mu.Lock()
		resolves[ws.ID]++
		mu.Unlock()
		a, err := fleetFixtureAnalyzer()
		if err != nil {
			return nil, err
		}
		const n = 25
		d := *a.Data
		x := d.TestX
		sample := x.Len() / x.Shape[0]
		d.TestX = tensor.NewFrom(x.Data[:n*sample], append([]int{n}, x.Shape[1:]...)...)
		d.TestY = d.TestY[:n]
		a.Data = &d
		return a, nil
	}

	st, resp := postJob(t, ts, `{"kind":"group-sweep","distributed":true}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	startWorker(t, ts.URL, "skewed", skewed)
	deadline := time.Now().Add(20 * time.Second)
	for o.Metrics().Counter("fleet.leases.released").Value() == 0 {
		if js, _ := s.Status(st.ID); js.State != StateQueued && js.State != StateRunning {
			break // the skewed worker folded the whole job on its own
		}
		if time.Now().After(deadline) {
			t.Fatal("skewed worker neither released nor completed a window")
		}
		time.Sleep(2 * time.Millisecond)
	}
	startWorker(t, ts.URL, "healthy", fixtureResolve(0))
	waitState(t, ts, st.ID, StateDone)

	if _, ok := o.Metrics().Snapshot().Timers["fleet.worker.skewed.window"]; ok {
		t.Fatal("the skewed worker's counts were folded")
	}
	if got := getResult(t, ts, st.ID); got != want {
		t.Fatalf("run with a skewed worker differs from single-process run:\n%s\nvs\n%s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	for id, n := range resolves {
		if n != 1 {
			t.Fatalf("skewed worker resolved sweep %s %d times, want once before marking it bad", id, n)
		}
	}
}

// ---- Completion body fuzzing ----

// fuzzSweep is the one sweep FuzzFleetComplete registers: 2 evaluations
// over 25 examples in batches of 10, so the tail window [2, 3) holds 5.
func fuzzSweep() WireSweep {
	ws := testWireSweep("j1/s1", 2, 3)
	ws.Opts.Batch, ws.Examples = 10, 25
	return ws
}

func FuzzFleetComplete(f *testing.F) {
	// Whatever bytes a worker posts as a completion, the coordinator must
	// not panic or answer 5xx; it answers ok only for a registered pending
	// window whose counts an honest evaluation could produce; it folds
	// each window at most once; and a duplicate sends nothing to the fold.
	// Window 1 is completed before each input, and each input is posted
	// twice.
	for _, seed := range []string{
		`{"lease_id":"L000001","worker":"w1","sweep_id":"j1/s1","b0":0,"b1":1,"correct":[10,3]}`,
		`{"sweep_id":"j1/s1","b0":1,"b1":2,"correct":[4,4]}`,
		`{"sweep_id":"j1/s1","b0":2,"b1":3,"correct":[6,0]}`,
		`{"sweep_id":"j1/s1","b0":0,"b1":1,"correct":[1]}`,
		`{"sweep_id":"j9/s9","b0":0,"b1":1,"correct":[1,1]}`,
		`{"sweep_id":"j1/s1","b0":0,"b1":1,"correct":[1,1],"attempt":2}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{StateDir: f.TempDir(), RunJob: instantRun(Artifacts{Text: "x"})})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			f.Errorf("drain: %v", err)
		}
	})
	ws := fuzzSweep()
	f.Fuzz(func(t *testing.T, body []byte) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ch, err := s.Fleet().runSweep(ctx, ws, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Fleet().Complete(completeRequest{SweepID: ws.ID, B0: 1, B1: 2, Correct: []int{4, 4}}); err != nil {
			t.Fatal(err)
		}
		<-ch
		folded := map[int]bool{1: true}
		for post := 0; post < 2; post++ {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/complete", bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("post %d: HTTP %d, %s", post, rec.Code, rec.Body)
			}
			var out struct {
				Status string `json:"status"`
			}
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case r, open := <-ch:
				if !open {
					t.Fatalf("post %d closed the sweep with window 2 or 0 still pending", post)
				}
				if out.Status != CompleteOK {
					t.Fatalf("post %d: a %q answer sent window [%d, %d) to the fold", post, out.Status, r.B0, r.B1)
				}
				req := decodedCompletion(t, body)
				if req.SweepID != ws.ID || r.B0 != req.B0 || r.B1 != req.B1 || !reflect.DeepEqual(r.Correct, req.Correct) {
					t.Fatalf("post %d folded %+v for %+v", post, r, req)
				}
				if req.B0 < 0 || req.B0 >= ws.NB || req.B1 != req.B0+1 || folded[req.B0] {
					t.Fatalf("post %d: ok for window [%d, %d), which was not pending", post, req.B0, req.B1)
				}
				hi := min(ws.Opts.Batch, ws.Examples-req.B0*ws.Opts.Batch)
				if len(req.Correct) != ws.Evals {
					t.Fatalf("post %d: ok for %d counts, want %d", post, len(req.Correct), ws.Evals)
				}
				for _, c := range req.Correct {
					if c < 0 || c > hi {
						t.Fatalf("post %d: ok for count %d outside [0, %d]", post, c, hi)
					}
				}
				folded[req.B0] = true
			default:
				if out.Status == CompleteOK {
					t.Fatalf("post %d: ok sent nothing to the fold", post)
				}
			}
		}
	})
}

// decodedCompletion decodes a completion body the way the coordinator
// does, for a body it answered ok.
func decodedCompletion(t *testing.T, body []byte) completeRequest {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req completeRequest
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("ok for a body that does not decode: %v", err)
	}
	return req
}
