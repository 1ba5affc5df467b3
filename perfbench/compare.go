package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json the compare tool needs.
type benchFile struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// compareMain prints, for every workload and metric present in both
// result sets, each side's median and quartiles, the share of seed-paired
// runs the change wins, and a verdict under the metric's bound:
//
//	perfbench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl
//
// Each file holds run output lines; the per-run record lines are used.
func compareMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare wants two result files: parent change")
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	compare(stdout, append(bf.EndToEnd, bf.PerLayer...), parent, change)
	return nil
}

// readRecords reads the run records (lines naming a workload) from a
// file of captured benchmark output.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// side is one metric's runs on one commit, keyed by seed.
type side map[uint64]float64

func (s side) values() []float64 {
	out := make([]float64, 0, len(s))
	for _, v := range s {
		out = append(out, v)
	}
	return out
}

func collect(recs []record) map[string]map[string]side {
	out := map[string]map[string]side{}
	for _, r := range recs {
		if !r.Correct {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]side{}
		}
		for name, v := range r.Metrics {
			if out[r.Workload][name] == nil {
				out[r.Workload][name] = side{}
			}
			out[r.Workload][name][r.Seed] = v.Value
		}
	}
	return out
}

func compare(w io.Writer, metrics []metric, parentRecs, changeRecs []record) {
	parent, change := collect(parentRecs), collect(changeRecs)
	workloads := make([]string, 0, len(parent))
	for wl := range parent {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-9s %-32s %-6s %-31s %-31s %8s %9s %s\n",
		"workload", "metric", "unit", "parent p50 [q1 q3]", "change p50 [q1 q3]", "delta", "wins", "verdict")
	for _, wl := range workloads {
		for _, m := range metrics {
			p, c := parent[wl][m.Name], change[wl][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			row := compareMetric(m, p, c)
			fmt.Fprintf(w, "%-9s %-32s %-6s %-31s %-31s %+7.1f%% %9s %s\n",
				wl, m.Name, m.Unit, row.parent, row.change, 100*row.delta, row.wins, row.verdict)
		}
	}
}

type compareRow struct {
	parent, change, wins, verdict string
	delta                         float64
}

// compareMetric applies the benchmark's acceptance rules to one metric:
// unresolved when the parent's own spread exceeds the bound, unless every
// change run beats every parent run; regressed
// when the change's median is worse by more than the bound; improved only
// when the change wins at least nine in ten seed pairs and the medians
// differ by more than the parent's interquartile distance.
func compareMetric(m metric, p, c side) compareRow {
	pv, cv := p.values(), c.values()
	p1, p2, p3 := quartiles(pv)
	c1, c2, c3 := quartiles(cv)
	row := compareRow{
		parent: fmt.Sprintf("%.4g [%.4g %.4g]", p2, p1, p3),
		change: fmt.Sprintf("%.4g [%.4g %.4g]", c2, c1, c3),
		delta:  ratio(c2-p2, math.Abs(p2)),
	}
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	wins, pairs := 0, 0
	for seed, pvv := range p {
		if cvv, ok := c[seed]; ok {
			pairs++
			if better(cvv, pvv) {
				wins++
			}
		}
	}
	row.wins = fmt.Sprintf("%d/%d", wins, pairs)
	worse := row.delta
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range cv {
		for _, y := range pv {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case m.Bound == 0:
		row.verdict = "-" // a per-layer metric: reported, never judged
	case spread(pv) > m.Bound && allBetter:
		row.verdict = "improved"
	case spread(pv) > m.Bound:
		row.verdict = "unresolved"
	case worse > m.Bound:
		row.verdict = "regressed"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(c2-p2) > p3-p1:
		row.verdict = "improved"
	default:
		row.verdict = "unchanged"
	}
	return row
}
