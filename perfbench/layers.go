package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"redcane/internal/obs"
)

// layerMetrics turns a traced run's observations into the per-layer
// metrics, each normalized per traced op, and prints the self-time table
// and every ratio with its base to logw. now and base are registry
// snapshots after and before the op loop; only their difference counts,
// so set-up work never leaks into per-op numbers.
func layerMetrics(st opStats, now, base obs.Snapshot, parts map[string][]float64, probes map[string]float64, workers int, logw io.Writer) (map[string]float64, error) {
	n := float64(len(st.traced))
	if n == 0 {
		return nil, fmt.Errorf("traced run completed no traced op")
	}
	counter := func(name string) float64 { return float64(now.Counters[name] - base.Counters[name]) }
	gauge := func(name string) float64 { return now.Gauges[name] - base.Gauges[name] }
	timerS := func(name string) float64 {
		return float64(now.Timers[name].TotalNS-base.Timers[name].TotalNS) / 1e9
	}
	timerN := func(name string) float64 {
		return float64(now.Timers[name].Count - base.Timers[name].Count)
	}
	// timerSum adds up every timer whose name matches.
	timerSum := func(match func(string) bool) (s, count float64) {
		for name := range now.Timers {
			if match(name) {
				s += timerS(name)
				count += timerN(name)
			}
		}
		return s, count
	}

	m := map[string]float64{}
	m["runtime.alloc_mb_per_op"] = median(st.allocMB)
	m["runtime.gc_per_op"] = mean(st.gcs)

	takes, reuses := gauge("tensor.scratch.takes"), gauge("tensor.scratch.reuses")
	m["tensor.scratch.reuse_ratio"] = ratio(reuses, takes)
	m["tensor.scratch.takes_per_op"] = takes / n

	for _, mode := range []string{"full", "prefix", "suffix"} {
		s, _ := timerSum(func(name string) bool { return strings.HasPrefix(name, "caps.forward."+mode+".") })
		m["caps.forward."+mode+"_s"] = s / n
	}
	for _, layer := range []string{"Conv2D", "Primary", "ClassCaps"} {
		s, _ := timerSum(func(name string) bool {
			return strings.HasPrefix(name, "caps.forward.") && strings.HasSuffix(name, "."+layer)
		})
		m["caps.forward."+layer+"_s"] = s / n
	}

	m["core.sweeps"] = counter("sweep.sweeps") / n
	m["core.sweep_jobs"] = counter("sweep.jobs") / n
	m["core.sweep_s"] = timerS("sweep.duration") / n
	for _, phase := range []string{"clean_eval", "groups", "layers", "validate"} {
		m["core.methodology."+phase+"_s"] = timerS("span.methodology."+phase) / n
	}
	hits, misses := counter("sweep.prefix_cache.hits"), counter("sweep.prefix_cache.misses")
	m["core.prefix_cache.hit_ratio"] = ratio(hits, hits+misses)
	m["core.prefix_cache.lookups"] = (hits + misses) / n
	m["core.prefix_cache.bypass"] = counter("sweep.prefix_cache.bypass") / n
	// The engine sets sweep.workers.count to its pool size on every run;
	// a served job's fleet workers each evaluate with one goroutine.
	if c := now.Gauges["sweep.workers.count"]; c > 0 {
		workers = int(c)
	}
	busy, wall := gauge("sweep.workers.busy_ns"), gauge("sweep.workers.wall_ns")
	m["core.workers.utilization"] = ratio(busy, wall*float64(workers))
	m["core.backend_eval_s"] = timerS("span.backend.eval") / n
	m["core.backend_evals"] = timerN("span.backend.eval") / n

	m["checkpoint.bytes_per_op"] = median(st.ckptBytes)

	if len(parts["trained"]) > 0 {
		m["experiments.trained_s"] = median(parts["trained"])
		m["experiments.fig11_s"] = median(parts["fig11"])
	} else {
		// A served job builds a fresh runner, so its weight load and clean
		// evaluation are per-op work, recorded as the job's train spans.
		s, _ := timerSum(func(name string) bool { return strings.HasPrefix(name, "span.train.") })
		m["experiments.trained_s"] = s / n
	}

	jobRun := timerS("server.job.run") / n
	m["server.submit_s"] = timerS("span.bench.submit") / n
	m["server.result_s"] = timerS("span.bench.result") / n
	m["server.queue_wait_s"] = timerS("server.job.queue_wait") / n
	m["server.job_run_s"] = jobRun
	if jobRun > 0 {
		m["server.job_overhead_s"] = mean(st.traced) - jobRun
	}
	_, requests := timerSum(func(name string) bool { return strings.HasPrefix(name, "server.http.") })
	m["server.http_requests_per_op"] = requests / n
	issued, completed := counter("fleet.leases.issued"), counter("fleet.leases.completed")
	m["server.fleet.leases_per_op"] = issued / n
	m["server.fleet.useful_ratio"] = ratio(completed, issued)
	m["server.fleet.window_s"] = timerS("fleet.window") / n
	m["server.fleet.worker_window_s"] = timerS("fleet.worker.window") / n
	m["server.fleet.idle_polls_per_op"] = (timerN("server.http.POST /v1/fleet/lease") - issued) / n

	untraced, traced := median(st.untraced), median(st.traced)
	m["obs.untraced_op_p50_s"] = untraced
	m["obs.trace_overhead"] = ratio(traced, untraced) - 1
	var events float64
	stats := map[string]*spanStat{}
	for _, ot := range st.traces {
		evs, err := traceEvents(ot.tr)
		if err != nil {
			return nil, err
		}
		events += float64(len(evs)) + float64(ot.tr.Dropped())
		for name, s := range selfTimes(evs) {
			agg := stats[name]
			if agg == nil {
				agg = &spanStat{}
				stats[name] = agg
			}
			agg.Count += s.Count
			agg.Total += s.Total
			agg.Self += s.Self
		}
	}
	m["obs.trace_events_per_op"] = events / n
	for k, v := range probes {
		m[k] = v
	}
	m["axe.quant_over_float"] = ratio(m["axe.quant_exact_eval_s"], m["caps.float_eval_s"])

	printSelfTimes(logw, stats, n)
	fmt.Fprintf(logw, "ratios (per traced op, n=%d):\n", len(st.traced))
	for _, r := range []struct {
		name     string
		num, den float64
		what     string
	}{
		{"tensor.scratch.reuse_ratio", reuses / n, takes / n, "reuses / takes"},
		{"core.prefix_cache.hit_ratio", hits / n, (hits + misses) / n, "hits / lookups"},
		{"core.workers.utilization", busy / 1e9 / n, wall * float64(workers) / 1e9 / n, "busy_s / (wall_s x workers)"},
		{"server.fleet.useful_ratio", completed / n, issued / n, "completed / issued leases"},
		{"axe.quant_over_float", m["axe.quant_exact_eval_s"], m["caps.float_eval_s"], "quant-exact_s / float_s"},
		{"obs.trace_overhead", traced, untraced, "traced op_p50_s / untraced op_p50_s, minus 1"},
	} {
		fmt.Fprintf(logw, "  %-30s %-46s = %.4g / %.4g\n", r.name, r.what, r.num, r.den)
	}
	return m, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spanStat aggregates one span name: occurrences, total duration and
// self time (duration minus the part covered by nested spans), in
// microseconds as the trace records them.
type spanStat struct {
	Count       int
	Total, Self float64
}

type traceDoc struct {
	TraceEvents     []obs.TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit,omitempty"`
}

// traceEvents reads a trace's buffered events back through its JSON form,
// the only view obs.Trace exports.
func traceEvents(tr *obs.Trace) ([]obs.TraceEvent, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	return doc.TraceEvents, nil
}

// nestSlack absorbs the microsecond rounding of trace timestamps when
// deciding whether one event lies inside another.
const nestSlack = 1e-3

// selfTimes computes each span name's count, total and self time. Spans
// nest by time containment within a lane (the trace's tid): each event's
// children are the events directly inside it, and its self time is its
// duration minus the union of its children's intervals. An event that
// only partly overlaps an open one starts a new nest.
func selfTimes(events []obs.TraceEvent) map[string]spanStat {
	type node struct {
		ev   *obs.TraceEvent
		end  float64
		kids [][2]float64
	}
	lanes := map[int64][]*node{}
	for i := range events {
		ev := &events[i]
		lanes[ev.TID] = append(lanes[ev.TID], &node{ev: ev, end: ev.TS + ev.Dur})
	}
	out := map[string]spanStat{}
	for _, nodes := range lanes {
		sort.SliceStable(nodes, func(i, j int) bool {
			if nodes[i].ev.TS != nodes[j].ev.TS {
				return nodes[i].ev.TS < nodes[j].ev.TS
			}
			return nodes[i].ev.Dur > nodes[j].ev.Dur
		})
		var stack []*node
		for _, nd := range nodes {
			for len(stack) > 0 && nd.end > stack[len(stack)-1].end+nestSlack {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				top.kids = append(top.kids, [2]float64{nd.ev.TS, nd.end})
			}
			stack = append(stack, nd)
		}
		for _, nd := range nodes {
			s := out[nd.ev.Name]
			s.Count++
			s.Total += nd.ev.Dur
			s.Self += nd.ev.Dur - unionLen(nd.kids)
			out[nd.ev.Name] = s
		}
	}
	return out
}

// unionLen is the total length covered by intervals sorted by start.
func unionLen(iv [][2]float64) float64 {
	var total, lo, hi float64
	open := false
	for _, x := range iv {
		if open && x[0] <= hi {
			if x[1] > hi {
				hi = x[1]
			}
			continue
		}
		if open {
			total += hi - lo
		}
		lo, hi, open = x[0], x[1], true
	}
	if open {
		total += hi - lo
	}
	return total
}

// layerOf names the program layer a span belongs to, for the roll-up.
func layerOf(span string) string {
	head, _, _ := strings.Cut(span, ".")
	switch head {
	case "sweep", "methodology", "backend":
		return "core"
	case "train", "experiment":
		return "experiments"
	}
	return head
}

func printSelfTimes(w io.Writer, stats map[string]*spanStat, n float64) {
	names := make([]string, 0, len(stats))
	layers := map[string]*spanStat{}
	for name, s := range stats {
		names = append(names, name)
		l := layers[layerOf(name)]
		if l == nil {
			l = &spanStat{}
			layers[layerOf(name)] = l
		}
		l.Count += s.Count
		l.Total += s.Total
		l.Self += s.Self
	}
	table := func(title string, keys []string, m map[string]*spanStat) {
		sort.Slice(keys, func(i, j int) bool { return m[keys[i]].Self > m[keys[j]].Self })
		fmt.Fprintf(w, "%s (per traced op, n=%.0f):\n  %-40s %10s %12s %12s\n", title, n, "name", "count", "total_s", "self_s")
		for _, k := range keys {
			s := m[k]
			fmt.Fprintf(w, "  %-40s %10.1f %12.6f %12.6f\n", k, float64(s.Count)/n, s.Total/1e6/n, s.Self/1e6/n)
		}
	}
	table("span self time", names, stats)
	lnames := make([]string, 0, len(layers))
	for l := range layers {
		lnames = append(lnames, l)
	}
	table("layer self time", lnames, layers)
}

// writeChromeTrace writes every traced op's events into one Chrome
// trace-event file, one process row per op, each shifted to its start in
// the run.
func writeChromeTrace(path string, traces []opTrace) error {
	doc := traceDoc{TraceEvents: []obs.TraceEvent{}, DisplayTimeUnit: "ms"}
	for i, ot := range traces {
		evs, err := traceEvents(ot.tr)
		if err != nil {
			return err
		}
		shift := float64(ot.offset.Microseconds())
		for _, ev := range evs {
			ev.PID = int64(i + 1)
			ev.TS += shift
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
