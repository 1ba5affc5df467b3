package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"

	"redcane/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python 3: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianSpreadRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", s)
	}
	if s := spread([]float64{0, 0}); !math.IsInf(s, 1) {
		t.Errorf("spread of zeros = %v, want +Inf", s)
	}
	if r := ratio(3, 0); r != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", r)
	}
	if r := ratio(3, 4); r != 0.75 {
		t.Errorf("ratio = %v", r)
	}
}

func TestSelfTimes(t *testing.T) {
	ev := func(name string, tid int64, ts, dur float64) obs.TraceEvent {
		return obs.TraceEvent{Name: name, TID: tid, TS: ts, Dur: dur, Ph: "X"}
	}
	got := selfTimes([]obs.TraceEvent{
		ev("op", 0, 0, 100),
		ev("a", 0, 10, 30),
		ev("a.inner", 0, 15, 10),
		ev("b", 0, 50, 20),
		ev("b", 0, 60, 5),     // nested in the first b
		ev("other", 7, 0, 90), // another lane never nests under op
		ev("late", 0, 90, 30), // overlaps op's end: a new nest
	})
	want := map[string]spanStat{
		"op":      {Count: 1, Total: 100, Self: 50},
		"a":       {Count: 1, Total: 30, Self: 20},
		"a.inner": {Count: 1, Total: 10, Self: 10},
		"b":       {Count: 2, Total: 25, Self: 20},
		"other":   {Count: 1, Total: 90, Self: 90},
		"late":    {Count: 1, Total: 30, Self: 30},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || !near(g.Total, w.Total) || !near(g.Self, w.Self) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func TestUnionLen(t *testing.T) {
	if u := unionLen([][2]float64{{0, 10}, {5, 15}, {20, 25}, {21, 22}}); u != 20 {
		t.Errorf("unionLen = %v, want 20", u)
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := metric{Name: "op_p50_s", Better: "lower", Bound: 0.1}
	steady := side{1: 1.00, 2: 1.01, 3: 0.99, 4: 1.00, 5: 1.02}
	if v := compareMetric(m, steady, side{1: 1.0, 2: 1.01, 3: 1.0, 4: 0.99, 5: 1.0}).verdict; v != "unchanged" {
		t.Errorf("same numbers: %s", v)
	}
	if v := compareMetric(m, steady, side{1: 1.3, 2: 1.3, 3: 1.3, 4: 1.3, 5: 1.3}).verdict; v != "regressed" {
		t.Errorf("30%% slower: %s", v)
	}
	if v := compareMetric(m, steady, side{1: 0.8, 2: 0.8, 3: 0.81, 4: 0.8, 5: 0.79}).verdict; v != "improved" {
		t.Errorf("20%% faster: %s", v)
	}
	noisy := side{1: 1, 2: 2, 3: 1, 4: 2, 5: 1.5}
	if v := compareMetric(m, noisy, side{1: 1.2, 2: 1.2, 3: 1.2, 4: 1.2, 5: 1.2}).verdict; v != "unresolved" {
		t.Errorf("noisy parent: %s", v)
	}
	if v := compareMetric(m, noisy, side{1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5, 5: 0.5}).verdict; v != "improved" {
		t.Errorf("noisy parent, change better than every run: %s", v)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricsMatchBenchmarkJSON pins the program's metric lists to the
// ones BENCHMARK.json declares, name for name and unit for unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, code []metric, declared []metric) {
		if len(code) != len(declared) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(code), len(declared))
		}
		for i, m := range code {
			d := declared[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d]: program %+v, BENCHMARK.json %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric name %q used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs every workload for one op untraced and two ops traced
// (one of each kind), checking that each run is correct and prints every
// metric it owes. It trains the quick benchmarks once into a shared cache.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the quick benchmarks")
	}
	dir := t.TempDir()
	for _, wl := range []string{"design", "validate", "serve"} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl, seed: 7, seconds: 1, trace: traced, dir: dir, setups: 1, maxOps: 1}
			want := endToEnd
			if traced {
				cfg.maxOps, want = 2, perLayer
			}
			rec, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted != cfg.maxOps+1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", wl, traced, rec.Correct, rec.Failed, rec.Attempted)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := rec.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: missing %s", wl, traced, m.Name)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if rec.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", wl, m.Name, rec.Metrics[m.Name].Value)
					}
				}
				continue
			}
			if be := rec.Metrics["core.backend_evals"].Value; (wl == "validate") != (be > 0) {
				t.Errorf("%s: core.backend_evals = %v", wl, be)
			}
			if wl == "validate" && rec.Metrics["axe.quant_over_float"].Value <= 0 {
				t.Errorf("validate: axe.quant_over_float not measured")
			}
			if wl == "serve" && rec.Metrics["server.fleet.leases_per_op"].Value <= 0 {
				t.Errorf("serve: no fleet leases recorded")
			}
		}
	}
}
