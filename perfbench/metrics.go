package main

// metricDef names one metric and its unit. The two lists below are the
// benchmark's catalogue; BENCHMARK.json must list the same names with
// the same units in the same order (loadCatalogue checks it), and
// METRICS.md defines each one per workload.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run of every workload.
// Each workload defines its latency and throughput on its own unit of
// work: an MD step (md-*), a job's first frame and its MD steps
// (serve-mix), one cluster simulation (des-scale). Tail percentiles are
// per-layer metrics: their run-to-run spread exceeded the largest bound
// the benchmark may set (METRICS.md, "Deviations").
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics are printed by traced runs. The first block restates
// each workload's end-to-end figures under their workload-specific names;
// the rest time or count one layer each. A layer the workload does not
// exercise reads 0.
var perLayerMetrics = []metricDef{
	// Workload views.
	{"ns_per_day", "ns/day"},
	{"ns_per_day_1w", "ns/day"},
	{"step_ms_p50", "ms"},
	{"step_ms_p90", "ms"},
	{"first_frame_ms_p50", "ms"},
	{"first_frame_ms_p90", "ms"},
	{"job_s_p50", "s"},
	{"job_s_p90", "s"},
	{"agg_steps_per_s", "steps/s"},
	{"sweep_s", "s"},
	{"latency_samples", "count"},
	{"fail_frac", "ratio"},

	// molgen, seq.
	{"molgen.build_s", "s"},
	{"seq.minimize_s", "s"},

	// spatial.
	{"spatial.list_build_ms", "ms"},
	{"spatial.rebuild_every_steps", "steps"},
	{"spatial.pair_hit_ratio", "ratio"},

	// forcefield.
	{"forcefield.nb_ns_per_pair", "ns"},
	{"forcefield.nb_pairs", "count"},
	{"forcefield.bonded_ms", "ms"},

	// pme, fft.
	{"pme.recip_ms", "ms"},
	{"fft.mesh_ms", "ms"},
	{"pme.spread_gather_ms", "ms"},

	// par.
	{"par.force_ms", "ms"},
	{"par.integrate_ms", "ms"},
	{"par.barrier_wait_ms", "ms"},
	{"par.imbalance", "ratio"},
	{"par.allocs_per_step", "count"},
	{"par.bytes_per_step", "B"},
	{"par.efficiency", "ratio"},

	// ldb.
	{"ldb.rebalance_ms", "ms"},
	{"ldb.map_ms", "ms"},
	{"ldb.map_ms.hierarchical", "ms"},
	{"ldb.imbalance_pct", "%"},

	// serve.
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_p90", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.poll_ms", "ms"},
	{"serve.job_setup_ms", "ms"},
	{"serve.overhead_frac", "ratio"},
	{"serve.dropped_events", "count"},

	// ckpt, traj, ensemble.
	{"ckpt.save_ms", "ms"},
	{"traj.frame_us", "us"},
	{"ensemble.replica_steps_per_s", "steps/s"},

	// core, converse, charm.
	{"core.workload_build_s", "s"},
	{"core.run_s.256.central", "s"},
	{"core.run_s.256.hier_tree", "s"},
	{"core.run_s.1024.central", "s"},
	{"core.run_s.1024.hier_tree", "s"},
	{"converse.msgs", "count"},
	{"converse.msgs_per_s", "1/s"},
	{"charm.bytes", "B"},

	// Benchmark health.
	{"loadgen.late_ms_max", "ms"},
	{"trace.overhead_frac", "ratio"},
}
