package main

// metricDef names one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; benchmark_test.go keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see, measured
// with tracing off. Bound is the share of the parent's median by which
// a metric may get worse before a change counts as a regression.
//
// Failures and the decryption error are not in this list: both are
// zero or seed-dependent, so they cannot carry a relative bound. They
// gate the run instead (`correct`, `failed`) and are reported per layer
// as check.failed_share and check.max_abs_err.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sets_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "call_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_set", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the traced phase's metrics, named layer.metric after the
// module they price. A metric that does not apply to a workload (serve.*
// on the in-process workload) reads 0.
var perLayer = []metricDef{
	{Name: "ntt.fwd_row_us", Unit: "us", Better: "lower"},
	{Name: "ntt.inv_row_us", Unit: "us", Better: "lower"},
	{Name: "ntt.fwd_batch_row_us", Unit: "us", Better: "lower"},
	{Name: "ntt.strict_fwd_row_us", Unit: "us", Better: "lower"},

	{Name: "ring.ntt_poly_us", Unit: "us", Better: "lower"},
	{Name: "ring.intt_poly_us", Unit: "us", Better: "lower"},
	{Name: "ring.mulcoeffs_poly_us", Unit: "us", Better: "lower"},
	{Name: "ring.automorphism_ntt_poly_us", Unit: "us", Better: "lower"},
	{Name: "ring.floordrop_pair_us", Unit: "us", Better: "lower"},
	{Name: "ring.pool_getput_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.poly_mb", Unit: "MB", Better: "lower"},

	{Name: "ckks.keyswitch_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.keyswitch_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.keyswitch_par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "ckks.keyswitch_allocs", Unit: "count", Better: "lower"},
	{Name: "ckks.mulrelin_into_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rescale_into_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rotate_into_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rotate_hoisted8_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.add_into_us", Unit: "us", Better: "lower"},
	{Name: "ckks.mulplain_into_us", Unit: "us", Better: "lower"},
	{Name: "ckks.keyswitch_vs_paper_cpu", Unit: "ratio", Better: "higher"},
	{Name: "ckks.mulrelin_vs_paper_cpu", Unit: "ratio", Better: "higher"},
	{Name: "ckks.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.encrypt_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.decrypt_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.keygen_s", Unit: "s", Better: "lower"},
	{Name: "ckks.ct_write_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.ct_read_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.ct_mb", Unit: "MB", Better: "lower"},
	{Name: "ckks.evk_write_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.evk_read_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.evk_mb", Unit: "MB", Better: "lower"},

	{Name: "heax.evaluator_mulrelin_ms", Unit: "ms", Better: "lower"},
	{Name: "heax.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "heax.plan_steps", Unit: "count", Better: "lower"},
	{Name: "heax.plan_footprint_mb", Unit: "MB", Better: "lower"},
	{Name: "heax.plan_run_ms", Unit: "ms", Better: "lower"},
	{Name: "heax.plan_runbatch_ms_per_set", Unit: "ms", Better: "lower"},
	{Name: "heax.plan_step_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "heax.plan_parallelism", Unit: "ratio", Better: "higher"},
	{Name: "heax.plan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "heax.step_mulrelin_ms", Unit: "ms", Better: "lower"},
	{Name: "heax.step_rotate_ms", Unit: "ms", Better: "lower"},
	{Name: "heax.step_hoisted_ms", Unit: "ms", Better: "lower"},
	{Name: "heax.step_rescale_ms", Unit: "ms", Better: "lower"},
	{Name: "heax.step_plain_ms", Unit: "ms", Better: "lower"},
	{Name: "heax.plan_run_allocs", Unit: "count", Better: "lower"},
	{Name: "heax.plan_run_alloc_mb", Unit: "MB", Better: "lower"},

	{Name: "circuits.build_ms", Unit: "ms", Better: "lower"},
	{Name: "circuits.rotation_keys", Unit: "count", Better: "lower"},

	{Name: "serve.register_s", Unit: "s", Better: "lower"},
	{Name: "serve.compile_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.compile_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.call_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.call_tail_pct", Unit: "%", Better: "higher"},
	{Name: "serve.send_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.recv_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.wire_mb_per_set", Unit: "MB", Better: "lower"},
	{Name: "serve.server_run_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.allocs_per_set", Unit: "count", Better: "lower"},
	{Name: "serve.alloc_mb_per_set", Unit: "MB", Better: "lower"},
	{Name: "serve.completed_runs", Unit: "count", Better: "higher"},
	{Name: "serve.shed_runs", Unit: "count", Better: "lower"},
	{Name: "serve.canceled_runs", Unit: "count", Better: "lower"},
	{Name: "serve.panics_recovered", Unit: "count", Better: "lower"},

	{Name: "durable.append_register_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.open_replay_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.scrape_kb", Unit: "kB", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.sys_cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "trace.call_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "check.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "check.max_abs_err", Unit: "abs", Better: "lower"},
}
