package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"redcane/internal/core"
	"redcane/internal/experiments"
	"redcane/internal/obs"
)

// Worker is the fleet-member side of the lease protocol: it polls a
// coordinator for window leases, evaluates each leased batch window with
// the counter-seeded engine (core.Analyzer.EvalWindow) and reports the
// integer correct-counts back. Long windows stay alive through heartbeat
// renewals at TTL/3; a worker that dies mid-window simply stops renewing
// and the coordinator re-issues the window after the TTL.
type Worker struct {
	// Base is the coordinator's base URL (e.g. "http://host:8080").
	Base string
	// Name identifies the worker in leases, metrics and the fleet status.
	Name string
	// Poll is the idle sleep between lease requests when the coordinator
	// has no work (0 = 500ms).
	Poll time.Duration
	// Client is the HTTP client (nil = a 30s-timeout default).
	Client *http.Client
	// Obs receives the worker's telemetry; nil disables it.
	Obs *obs.Obs
	// Resolve builds the analyzer that evaluates one sweep's windows:
	// network, dataset and the wire options. The default
	// (ExperimentResolver) trains or cache-loads the named benchmark; in-
	// process tests substitute synthetic fixtures. Resolvers are called
	// once per lease; cache the expensive parts across calls.
	Resolve func(ws WireSweep) (*core.Analyzer, error)

	// bad remembers sweeps this worker cannot run (resolve failure, grid
	// mismatch) so it reports each once and leaves their windows to
	// healthier fleet members instead of spinning on them.
	bad map[string]bool
}

// Run polls for leases until ctx is cancelled, which is the normal way a
// worker leaves the fleet; it returns ctx's error. In-flight windows are
// abandoned on cancellation — their leases expire and the coordinator
// re-issues them.
func (wk *Worker) Run(ctx context.Context) error {
	if wk.Name == "" {
		wk.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if wk.Poll <= 0 {
		wk.Poll = 500 * time.Millisecond
	}
	if wk.Client == nil {
		wk.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if wk.bad == nil {
		wk.bad = map[string]bool{}
	}
	o := wk.Obs
	o.Info("worker joined fleet", obs.F("coordinator", wk.Base), obs.F("name", wk.Name))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, ok, err := wk.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			o.Warn("lease request failed", obs.F("err", err))
			ok = false
		}
		if ok {
			// A lease this worker had to give back (bad sweep, eval
			// failure) counts as no work: back off by the poll interval so
			// a broken worker does not spin hot re-leasing the windows it
			// keeps releasing.
			ok = wk.runLease(ctx, lease)
		}
		if !ok {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wk.Poll):
			}
		}
	}
}

// runLease evaluates one leased window and reports its counts. A window
// this worker knows it cannot (or failed to) evaluate is released back
// to the coordinator so a healthier fleet member picks it up immediately
// — only a crash leaves a lease to die of TTL expiry, which is the
// protocol's recovery of last resort.
func (wk *Worker) runLease(ctx context.Context, lease Lease) bool {
	o := wk.Obs
	ws := lease.Sweep
	if wk.bad[ws.ID] {
		// Known-bad sweep (reported once already). The coordinator still
		// hands its windows to whoever polls, so give each one straight
		// back — a worker that merely abandoned them would serially lease
		// every window and leave each dead until its TTL.
		wk.release(ctx, lease)
		return false
	}
	a, err := wk.Resolve(ws)
	if err == nil {
		evals, nb := a.SweepGrid()
		if evals != ws.Evals || nb != ws.NB {
			err = fmt.Errorf("work grid mismatch: coordinator says %d evals × %d batches, this worker derives %d × %d",
				ws.Evals, ws.NB, evals, nb)
		}
	}
	if err != nil {
		wk.bad[ws.ID] = true
		o.Error("cannot run sweep; releasing its windows to the fleet",
			obs.F("sweep", ws.ID), obs.F("err", err))
		wk.release(ctx, lease)
		return false
	}

	// Heartbeat: renew at TTL/3 so a healthy worker never loses a long
	// window to expiry. A failed renewal (lease re-issued after a stall)
	// aborts the evaluation — the replacement worker owns the window now.
	wctx, cancel := context.WithCancel(ctx)
	var hb sync.WaitGroup
	ttl := time.Duration(lease.TTLMs) * time.Millisecond
	if ttl > 0 {
		hb.Add(1)
		go func() {
			defer hb.Done()
			tick := time.NewTicker(ttl / 3)
			defer tick.Stop()
			for {
				select {
				case <-wctx.Done():
					return
				case <-tick.C:
					if !wk.renew(wctx, lease.LeaseID) {
						o.Warn("lease renewal refused; abandoning window",
							obs.F("lease", lease.LeaseID),
							obs.F("window", fmt.Sprintf("[%d,%d)", lease.B0, lease.B1)))
						cancel()
						return
					}
				}
			}
		}()
	}

	t0 := time.Now()
	correct, err := a.EvalWindow(wctx, ws.Scope, ws.SeedBase, lease.B0, lease.B1)
	cancel()
	hb.Wait()
	if err != nil {
		if ctx.Err() == nil && wctx.Err() == nil {
			o.Error("window evaluation failed; releasing it",
				obs.F("sweep", ws.ID),
				obs.F("window", fmt.Sprintf("[%d,%d)", lease.B0, lease.B1)), obs.F("err", err))
			wk.release(ctx, lease)
		}
		return false
	}
	o.Metrics().Counter("fleet.worker.windows").Inc()
	o.Metrics().Timer("fleet.worker.window").Observe(time.Since(t0))
	o.Debug("window complete", obs.F("sweep", ws.ID),
		obs.F("window", fmt.Sprintf("[%d,%d)", lease.B0, lease.B1)),
		obs.F("dur", time.Since(t0).Round(time.Millisecond)))
	wk.complete(ctx, lease, correct)
	return true
}

// lease requests the next window; ok=false means no work right now.
func (wk *Worker) lease(ctx context.Context) (Lease, bool, error) {
	var lease Lease
	code, err := wk.post(ctx, "/v1/fleet/lease", leaseRequest{Worker: wk.Name}, &lease)
	if err != nil {
		return Lease{}, false, err
	}
	switch code {
	case http.StatusOK:
		return lease, true, nil
	case http.StatusNoContent:
		return Lease{}, false, nil
	default:
		return Lease{}, false, fmt.Errorf("lease request: HTTP %d", code)
	}
}

// renew extends the lease; false means it is gone and the window must be
// abandoned.
func (wk *Worker) renew(ctx context.Context, leaseID string) bool {
	code, err := wk.post(ctx, "/v1/fleet/renew", renewRequest{LeaseID: leaseID, Worker: wk.Name}, nil)
	if err != nil {
		// Transient coordinator unreachability: keep computing; the next
		// tick retries and the TTL still has 2/3 of its budget left.
		return ctx.Err() == nil
	}
	return code == http.StatusOK
}

// complete reports a window's counts. A 404 means the sweep is no longer
// tracked (job finished or cancelled) — the result is dropped, which is
// fine: whoever completed the sweep reported identical counts.
func (wk *Worker) complete(ctx context.Context, lease Lease, correct []int) {
	req := completeRequest{
		LeaseID: lease.LeaseID, Worker: wk.Name, SweepID: lease.Sweep.ID,
		B0: lease.B0, B1: lease.B1, Correct: correct,
	}
	code, err := wk.post(ctx, "/v1/fleet/complete", req, nil)
	if err != nil {
		wk.Obs.Warn("completion report failed; window will be re-issued",
			obs.F("sweep", lease.Sweep.ID), obs.F("err", err))
		return
	}
	if code != http.StatusOK && code != http.StatusNotFound {
		wk.Obs.Warn("completion rejected", obs.F("sweep", lease.Sweep.ID), obs.F("http", code))
	}
}

// release hands a lease back to the coordinator so its window returns to
// pending without waiting out the TTL. Best-effort: on any failure the
// TTL remains the backstop.
func (wk *Worker) release(ctx context.Context, lease Lease) {
	if ctx.Err() != nil {
		return
	}
	req := releaseRequest{LeaseID: lease.LeaseID, Worker: wk.Name}
	if _, err := wk.post(ctx, "/v1/fleet/release", req, nil); err != nil {
		wk.Obs.Warn("lease release failed; window waits out its TTL",
			obs.F("sweep", lease.Sweep.ID), obs.F("err", err))
	}
}

// post sends one JSON request and decodes a 200 response into out (when
// non-nil). Returns the HTTP status code.
func (wk *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.Base+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := wk.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	return resp.StatusCode, nil
}

// ExperimentResolver is the production Resolve: it rebuilds the sweep's
// trained benchmark through the experiment runner — training is
// goroutine-free and therefore deterministic, so every fleet member of
// one GOARCH reproduces bit-identical weights from (benchmark, quick,
// train seed), or loads them from a shared weight-cache dir — and pairs
// it with the wire options. Resolved benchmarks are cached across leases.
// Members of different GOARCHes train different weights (a 386 build's
// math.Exp differs in the last bits), and nothing in WireSweep detects
// such a mixed fleet.
func ExperimentResolver(dir string, quickOverride *bool, workers int, o *obs.Obs) func(WireSweep) (*core.Analyzer, error) {
	type trainedKey struct {
		benchmark string
		quick     bool
		seed      uint64
	}
	var mu sync.Mutex
	cache := map[trainedKey]*experiments.Trained{}
	return func(ws WireSweep) (*core.Analyzer, error) {
		b, err := experiments.FindBenchmark(ws.Benchmark)
		if err != nil {
			return nil, err
		}
		quick := ws.Quick
		if quickOverride != nil {
			quick = *quickOverride
			if quick != ws.Quick {
				return nil, fmt.Errorf("mode mismatch: coordinator runs %s, worker forced to %s",
					modeName(ws.Quick), modeName(quick))
			}
		}
		key := trainedKey{benchmark: b.Key(), quick: quick, seed: ws.TrainSeed}
		mu.Lock()
		t, ok := cache[key]
		mu.Unlock()
		if !ok {
			r := experiments.NewRunner(experiments.Config{
				Dir: dir, Quick: quick, Seed: ws.TrainSeed, Workers: workers, Obs: o,
			})
			t, err = r.Trained(b)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			cache[key] = t
			mu.Unlock()
		}
		return &core.Analyzer{
			Net: t.Net, Data: t.Data, Obs: o,
			Opts: ws.Options.CoreOptions(workers),
		}, nil
	}
}

func modeName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}
