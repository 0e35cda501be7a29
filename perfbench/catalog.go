package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are printed by every untraced run, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_per_wall", "s/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"cpu_s_per_sim_s", "s/s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics are printed by every traced run, on every workload; a
// layer the workload does not exercise reads 0.
func perLayerMetrics() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{name, unit, better}) }
	for _, m := range profiledModules {
		add(m+".cpu_share", "fraction", "lower")
	}
	add("runtime.alloc_mb_per_sim_s", "MB/s", "lower")
	add("runtime.allocs_per_sim_s", "1/s", "lower")
	add("runtime.gc_cycles_per_sim_s", "1/s", "lower")
	add("runtime.gc_cpu_share", "fraction", "lower")
	add("runtime.idle_cpu_share", "fraction", "lower")
	add("bench.trace_overhead", "x", "lower")

	add("session.setup_ms_p50", "ms", "lower")
	add("simclock.run_ms_p50", "ms", "lower")
	add("session.result_ms_p50", "ms", "lower")
	add("simclock.events_per_sim_s", "1/s", "lower")
	add("simclock.dispatch_ratio", "ratio", "higher")
	add("simclock.self_ms_per_sim_s", "ms/s", "lower")
	for _, m := range schedModules {
		add(m+".events_per_sim_s", "1/s", "lower")
		add(m+".self_ms_per_sim_s", "ms/s", "lower")
	}
	add("session.deliver_fwd_us_p50", "us", "lower")
	add("session.deliver_rev_us_p50", "us", "lower")

	add("network.run_ms_p50", "ms", "lower")
	add("network.handovers_per_sim_s", "1/s", "lower")
	add("network.frames_per_sim_s", "1/s", "higher")
	add("network.worker_speedup", "x", "higher")
	add("network.parallel_ceiling", "x", "higher")
	add("network.ceiling_efficiency", "ratio", "higher")

	add("obs.write_overhead", "x", "lower")
	add("obs.bytes_per_sim_s", "B/s", "lower")
	add("obs.records_per_sim_s", "1/s", "lower")
	add("obs.replay_ms_p50", "ms", "lower")
	add("obs.replay_ns_per_record", "ns", "lower")
	add("lte.grants_per_sim_s", "1/s", "lower")
	add("lte.diag_per_sim_s", "1/s", "lower")
	add("lte.drops_per_sim_s", "1/s", "lower")
	add("ratecontrol.watchdog_trips_per_sim_s", "1/s", "lower")
	return d
}
