package main

// metric is one reported number as BENCHMARK.json declares it. Bounds
// live only in BENCHMARK.json, where the compare tool reads them; the
// lists below fix which names a run prints and in which unit.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run (--trace 0) of every workload. They are never 0.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "setup_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "op_p50_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_min", Unit: "1/min", Better: "higher"},
}

// perLayer are the traced run's (--trace 1) per-layer numbers, normalized
// per traced op. Every traced run prints all of them; a layer the workload
// never reaches reads 0. Ratios sit next to the metric that is their base.
var perLayer = []metric{
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_per_op", Unit: "count", Better: "lower"},
	{Name: "tensor.scratch.reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "tensor.scratch.takes_per_op", Unit: "count", Better: "lower"},
	{Name: "caps.forward.full_s", Unit: "s", Better: "lower"},
	{Name: "caps.forward.prefix_s", Unit: "s", Better: "lower"},
	{Name: "caps.forward.suffix_s", Unit: "s", Better: "lower"},
	{Name: "caps.forward.Conv2D_s", Unit: "s", Better: "lower"},
	{Name: "caps.forward.Primary_s", Unit: "s", Better: "lower"},
	{Name: "caps.forward.ClassCaps_s", Unit: "s", Better: "lower"},
	{Name: "caps.float_eval_s", Unit: "s", Better: "lower"},
	{Name: "axe.quant_exact_eval_s", Unit: "s", Better: "lower"},
	{Name: "axe.quant_approx_eval_s", Unit: "s", Better: "lower"},
	{Name: "axe.quant_over_float", Unit: "ratio", Better: "lower"},
	{Name: "noise.gaussian_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "approx.characterize_s", Unit: "s", Better: "lower"},
	{Name: "core.sweeps", Unit: "count", Better: "lower"},
	{Name: "core.sweep_jobs", Unit: "count", Better: "lower"},
	{Name: "core.sweep_s", Unit: "s", Better: "lower"},
	{Name: "core.methodology.clean_eval_s", Unit: "s", Better: "lower"},
	{Name: "core.methodology.groups_s", Unit: "s", Better: "lower"},
	{Name: "core.methodology.layers_s", Unit: "s", Better: "lower"},
	{Name: "core.methodology.validate_s", Unit: "s", Better: "lower"},
	{Name: "core.prefix_cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.prefix_cache.lookups", Unit: "count", Better: "lower"},
	{Name: "core.prefix_cache.bypass", Unit: "count", Better: "lower"},
	{Name: "core.workers.utilization", Unit: "ratio", Better: "higher"},
	{Name: "core.backend_eval_s", Unit: "s", Better: "lower"},
	{Name: "core.backend_evals", Unit: "count", Better: "lower"},
	{Name: "checkpoint.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "experiments.trained_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig11_s", Unit: "s", Better: "lower"},
	{Name: "server.submit_s", Unit: "s", Better: "lower"},
	{Name: "server.result_s", Unit: "s", Better: "lower"},
	{Name: "server.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "server.job_run_s", Unit: "s", Better: "lower"},
	{Name: "server.job_overhead_s", Unit: "s", Better: "lower"},
	{Name: "server.http_requests_per_op", Unit: "count", Better: "lower"},
	{Name: "server.fleet.leases_per_op", Unit: "count", Better: "lower"},
	{Name: "server.fleet.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.fleet.window_s", Unit: "s", Better: "lower"},
	{Name: "server.fleet.worker_window_s", Unit: "s", Better: "lower"},
	{Name: "server.fleet.idle_polls_per_op", Unit: "count", Better: "lower"},
	{Name: "obs.untraced_op_p50_s", Unit: "s", Better: "lower"},
	{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "obs.trace_events_per_op", Unit: "count", Better: "lower"},
}
