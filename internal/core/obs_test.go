package core

import (
	"testing"

	"redcane/internal/noise"
	"redcane/internal/obs"
)

// instrumented runs three representative sweeps (cached frontier, warm
// reuse of that frontier, and a frontier-0 bypass) with a fresh Obs at
// the given worker count, returning the metrics snapshot and the sweep
// points.
func instrumented(t *testing.T, workers int) (obs.Snapshot, [][]SweepPoint) {
	t.Helper()
	a := derived(t)
	o := obs.New(obs.Off, nil) // metrics only, no events
	a.Obs = o
	a.Net.Obs = o
	defer func() { a.Net.Obs = nil }()
	a.Opts.Workers = workers
	clean := oracleAccuracy(a, nil, nil)
	pts := [][]SweepPoint{
		mustSweep(t, a, noise.ForGroup(noise.Softmax), clean, 3),
		mustSweep(t, a, noise.ForGroup(noise.LogitsUpdate), clean, 4),
		mustSweep(t, a, noise.ForGroup(noise.MACOutputs), clean, 5),
	}
	return o.Metrics().Snapshot(), pts
}

func TestMetricsSnapshotDeterministicAcrossWorkers(t *testing.T) {
	// The obs determinism contract: counter values and timer invocation
	// counts depend only on the work performed, never on how it was
	// scheduled — a sweep instrumented at -workers 1 and -workers 8 must
	// produce identical counters and timer counts (durations and gauges
	// are wall-clock telemetry and exempt).
	base, basePts := instrumented(t, 1)
	for _, workers := range []int{2, 8} {
		snap, pts := instrumented(t, workers)
		for i := range basePts {
			samePoints(t, "instrumented sweep", basePts[i], pts[i])
		}
		if len(snap.Counters) != len(base.Counters) {
			t.Fatalf("counter sets differ: %d vs %d", len(snap.Counters), len(base.Counters))
		}
		for name, want := range base.Counters {
			if got := snap.Counters[name]; got != want {
				t.Errorf("workers=%d: counter %s = %d, want %d", workers, name, got, want)
			}
		}
		if len(snap.Timers) != len(base.Timers) {
			t.Fatalf("timer sets differ: %d vs %d", len(snap.Timers), len(base.Timers))
		}
		for name, want := range base.Timers {
			if got := snap.Timers[name]; got.Count != want.Count {
				t.Errorf("workers=%d: timer %s count = %d, want %d", workers, name, got.Count, want.Count)
			}
		}
	}
}

func TestSweepResultsUnchangedByTelemetry(t *testing.T) {
	// Instrumentation must never alter numerical results: an instrumented
	// sweep is bit-identical to a bare one.
	bare := derived(t)
	clean := oracleAccuracy(bare, nil, nil)
	want := [][]SweepPoint{
		mustSweep(t, bare, noise.ForGroup(noise.Softmax), clean, 3),
		mustSweep(t, bare, noise.ForGroup(noise.LogitsUpdate), clean, 4),
		mustSweep(t, bare, noise.ForGroup(noise.MACOutputs), clean, 5),
	}
	_, got := instrumented(t, 4)
	for i := range want {
		samePoints(t, "telemetry on vs off", want[i], got[i])
	}
}

func TestSweepEngineMetricValues(t *testing.T) {
	snap, _ := instrumented(t, 4)
	// Softmax sweep computes the prefix (miss + retain), logits-update
	// reuses it (hit), MAC-outputs fronts at layer 0 (bypass).
	if v := snap.Counters["sweep.prefix_cache.misses"]; v < 1 {
		t.Errorf("prefix-cache misses = %d, want >= 1", v)
	}
	if v := snap.Counters["sweep.prefix_cache.hits"]; v < 1 {
		t.Errorf("prefix-cache hits = %d, want >= 1", v)
	}
	if v := snap.Counters["sweep.prefix_cache.bypass"]; v < 1 {
		t.Errorf("prefix-cache bypass = %d, want >= 1", v)
	}
	if v := snap.Counters["sweep.sweeps"]; v != 3 {
		t.Errorf("sweeps = %d, want 3", v)
	}
	if v := snap.Counters["sweep.jobs"]; v < 1 {
		t.Errorf("jobs = %d, want >= 1", v)
	}
	if v := snap.Gauges["sweep.prefix_cache.retained_bytes"]; v <= 0 {
		t.Errorf("retained_bytes = %v, want > 0", v)
	}
	if v := snap.Gauges["sweep.workers.utilization"]; v <= 0 || v > 1 {
		t.Errorf("utilization = %v, want in (0, 1]", v)
	}
	if v := snap.Gauges["tensor.scratch.takes"]; v <= 0 {
		t.Errorf("scratch takes = %v, want > 0", v)
	}
	// Per-layer forward timers split by pass kind: the suffix replays and
	// the prefix computations must both appear.
	sawSuffix, sawPrefix := false, false
	for name, ts := range snap.Timers {
		if ts.Count <= 0 {
			t.Errorf("timer %s has count %d", name, ts.Count)
		}
		if len(name) > len("caps.forward.suffix.") && name[:len("caps.forward.suffix.")] == "caps.forward.suffix." {
			sawSuffix = true
		}
		if len(name) > len("caps.forward.prefix.") && name[:len("caps.forward.prefix.")] == "caps.forward.prefix." {
			sawPrefix = true
		}
	}
	if !sawSuffix || !sawPrefix {
		t.Errorf("per-layer forward timers missing: suffix=%v prefix=%v (timers: %v)",
			sawSuffix, sawPrefix, snap.Timers)
	}
	if ts := snap.Timers["sweep.duration"]; ts.Count != 3 {
		t.Errorf("sweep.duration count = %d, want 3", ts.Count)
	}
}
