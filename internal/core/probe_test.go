package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"redcane/internal/axe"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

func TestSweepProbesInert(t *testing.T) {
	// The tentpole inertness guarantee: enabling probes changes no
	// result bit. Same sweep, probes off vs on — identical points; and
	// with checkpointing, byte-identical checkpoint files.
	filter := noise.ForGroup(noise.MACOutputs)
	const clean = 0.9

	dirOff := t.TempDir()
	off := derived(t)
	st, _ := resumeStore(t, dirOff, off.Opts)
	off.Checkpoint = st
	want := mustSweep(t, off, filter, clean, 11)

	dirOn := t.TempDir()
	on := derived(t)
	st2, _ := resumeStore(t, dirOn, on.Opts)
	on.Checkpoint = st2
	on.Probes = NewProbeSet()
	got := mustSweep(t, on, filter, clean, 11)

	samePoints(t, "probes on vs off", want, got)
	sameDirBytes(t, dirOff, dirOn)

	// Backend evaluations too: same accuracy, same checkpoint bytes.
	eval := func(a *Analyzer, dir string) float64 {
		st, _ := resumeStore(t, dir, a.Opts)
		a.Checkpoint = st
		acc, err := a.EvalBackend(context.Background(), designBackend(t, a), "probe-inert")
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	evalOff, evalOn := t.TempDir(), t.TempDir()
	probed := derived(t)
	probed.Probes = NewProbeSet()
	if accOff, accOn := eval(derived(t), evalOff), eval(probed, evalOn); accOff != accOn {
		t.Fatalf("backend accuracy %g with probes on, %g off", accOn, accOff)
	}
	sameDirBytes(t, evalOff, evalOn)
	if len(probed.Probes.Sweeps()) != 1 {
		t.Fatalf("backend eval recorded %d probe sweeps, want 1", len(probed.Probes.Sweeps()))
	}

	// And the probes actually recorded something useful.
	sweeps := on.Probes.Sweeps()
	if len(sweeps) != 1 || sweeps[0].Label != "sweep-11" || sweeps[0].Backend != "float" {
		t.Fatalf("sweeps = %+v", sweeps)
	}
	if len(sweeps[0].Points) == 0 {
		t.Fatal("no probe points")
	}
	for _, pt := range sweeps[0].Points {
		if len(pt.Layers) == 0 {
			t.Fatalf("point NM=%g has no layers", pt.NM)
		}
		for _, l := range pt.Layers {
			if l.Count == 0 || l.Min > l.Max {
				t.Fatalf("bad layer stats %+v", l)
			}
			if l.RefCount != l.Count {
				t.Fatalf("layer %s: reference covered %d of %d", l.Layer, l.RefCount, l.Count)
			}
			if l.Overflow != 0 {
				t.Fatalf("float path reported overflow: %+v", l)
			}
		}
	}
}

// sameDirBytes compares every regular file under two directories.
func sameDirBytes(t *testing.T, a, b string) {
	t.Helper()
	la := listFiles(t, a)
	lb := listFiles(t, b)
	if !reflect.DeepEqual(la, lb) {
		t.Fatalf("file sets differ: %v vs %v", la, lb)
	}
	for _, rel := range la {
		da, err := os.ReadFile(filepath.Join(a, rel))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("checkpoint file %s differs", rel)
		}
	}
}

func listFiles(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			rel, _ := filepath.Rel(root, path)
			out = append(out, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSweepProbesWorkerInvariant(t *testing.T) {
	// A fold merges per-job probe stats in one fixed order over the whole
	// sweep, so the emitted stats — float sums included — must be
	// bit-identical for any worker count and any window layout.
	run := func(workers, windowBatches int, eval func(*Analyzer)) []ProbeSweep {
		a := derived(t)
		a.Opts.Workers = workers
		a.windowBatches = windowBatches
		a.Probes = NewProbeSet()
		eval(a)
		return a.Probes.Sweeps()
	}
	sweep := func(g noise.Group) func(*Analyzer) {
		return func(a *Analyzer) { mustSweep(t, a, noise.ForGroup(g), 0.9, 13) }
	}
	for name, eval := range map[string]func(*Analyzer){
		"softmax sweep": sweep(noise.Softmax),
		"mac sweep":     sweep(noise.MACOutputs),
		"design eval": func(a *Analyzer) {
			if _, err := a.EvalBackend(context.Background(), designBackend(t, a), "probe-workers"); err != nil {
				t.Fatal(err)
			}
		},
	} {
		want := run(1, 0, eval)
		for _, wb := range []int{0, 1} {
			for _, workers := range []int{1, 2, 8} {
				if got := run(workers, wb, eval); !reflect.DeepEqual(want, got) {
					t.Fatalf("%s, workers=%d, windowBatches=%d: probe stats diverge:\n%+v\nvs\n%+v",
						name, workers, wb, got, want)
				}
			}
		}
	}
}

func TestJobCorrectHistogramWorkerInvariant(t *testing.T) {
	// The sweep.job_correct value histogram is observed in the
	// deterministic merge loop, so its buckets (and sum: a fixed-order
	// float accumulation) must be identical across worker counts.
	filter := noise.ForGroup(noise.Softmax)
	const clean = 0.9
	run := func(workers int) obs.HistogramStats {
		a := derived(t)
		a.Opts.Workers = workers
		a.Obs = obs.New(obs.Off, nil)
		mustSweep(t, a, filter, clean, 17)
		return a.Obs.Metrics().Histogram("sweep.job_correct").Stats()
	}
	want := run(1)
	if want.Count == 0 {
		t.Fatal("job_correct histogram empty")
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d histogram diverges:\n%+v\nvs\n%+v", workers, got, want)
		}
	}
}

func TestEvalBackendProbes(t *testing.T) {
	// Backend evaluations probe too: QuantExact is its own baseline
	// (stats only, no reference pass), QuantApprox gets a reference pass
	// against QuantExact at the same width. Probing must not change the
	// measured accuracy.
	a := derived(t)
	be := axe.QuantExact{Bits: 8}
	want, err := a.EvalBackend(context.Background(), be, "probe-eval")
	if err != nil {
		t.Fatal(err)
	}

	b := derived(t)
	b.Probes = NewProbeSet()
	got, err := b.EvalBackend(context.Background(), be, "probe-eval")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("probed accuracy %g != %g", got, want)
	}
	sweeps := b.Probes.Sweeps()
	if len(sweeps) != 1 || sweeps[0].Backend != be.Name() || len(sweeps[0].Points) != 1 {
		t.Fatalf("sweeps = %+v", sweeps)
	}
	if sweeps[0].Label != "backend/"+be.Name() {
		t.Fatalf("label = %q", sweeps[0].Label)
	}
	for _, l := range sweeps[0].Points[0].Layers {
		// Same-name baseline: no reference pass, stats only.
		if l.RefCount != 0 || l.Count == 0 {
			t.Fatalf("QuantExact probe layer = %+v", l)
		}
	}

	// An approximate design gets SQNR against its exact baseline.
	c := derived(t)
	c.Probes = NewProbeSet()
	dbe := designBackend(t, c)
	if _, err := c.EvalBackend(context.Background(), dbe, "probe-eval-approx"); err != nil {
		t.Fatal(err)
	}
	ds := c.Probes.Sweeps()
	if len(ds) != 1 {
		t.Fatalf("sweeps = %+v", ds)
	}
	sawRef := false
	for _, l := range ds[0].Points[0].Layers {
		if l.RefCount > 0 {
			sawRef = true
		}
	}
	if !sawRef {
		t.Fatal("approximate backend probes carry no reference comparison")
	}
}
