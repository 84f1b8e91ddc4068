package main

// layerMetric is one per-layer metric of a traced run.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric, grouped by the workload whose
// traced run measures it. Each traced run reports all of them; metrics of
// layers a workload bypasses read 0 on it. All times are self times per
// operation unless the name says otherwise.
var perLayer = []layerMetric{
	// ingest_cold: these should move cpu_ms_per_op, alloc_kb_per_op,
	// points_per_s and the session latencies.
	{"mtx.read_ms", "ms"},
	{"matrix.partition_ms", "ms"},
	{"formats.encode_ms", "ms"},
	{"formats.decode_ms", "ms"},
	{"formats.decode_alloc_kb", "KiB"},
	{"hlsim.warmup_self_ms", "ms"},
	{"backend.analytic_us_per_point", "us"},
	{"core.plan_misses", "count"},
	{"service.upload_ms", "ms"},
	{"service.delete_ms", "ms"},
	{"service.cache_evictions", "count"},
	{"wire.encode_us", "us"},
	// serve_warm: these should move cpu_ms_per_op, alloc_kb_per_op, the
	// p50s and p99s at lo and hi, and max_rps.
	{"service.hit_us.sweep", "us"},
	{"service.hit_us.characterize", "us"},
	{"service.hit_us.advise", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"core.rank_us", "us"},
	{"core.classify_us", "us"},
	{"wire.bytes_per_resp", "B"},
	{"service.json_bytes_per_resp", "B"},
	{"net.overhead_us", "us"},
	// serve_warm and fleet_cold.
	{"runtime.gc_cpu_frac", "ratio"},
	{"driver.lag_p99_ms", "ms"},
	// fleet_cold: these should move the same metrics as on serve_warm.
	{"cluster.dispatch_us", "us"},
	{"cluster.peer_hit_ratio", "ratio"},
	{"cluster.redispatched", "count"},
	{"cluster.local_fallbacks", "count"},
	{"service.worker_group_us", "us"},
	{"wire.decode_us", "us"},
	// native_exec: these should move cpu_ms_per_op, alloc_kb_per_op and
	// points_per_s.
	{"hlsim.exec_ns_per_nnz.csr", "ns"},
	{"hlsim.exec_ns_per_nnz.csc", "ns"},
	{"hlsim.exec_ns_per_nnz.bcsr", "ns"},
	{"hlsim.exec_ns_per_nnz.coo", "ns"},
	{"hlsim.exec_ns_per_nnz.dok", "ns"},
	{"hlsim.exec_ns_per_nnz.lil", "ns"},
	{"hlsim.exec_ns_per_nnz.ell", "ns"},
	{"hlsim.exec_ns_per_nnz.dia", "ns"},
	{"hlsim.exec_ns_per_nnz.sell", "ns"},
	{"hlsim.exec_ns_per_nnz.ellcoo", "ns"},
	{"hlsim.exec_ns_per_nnz.jds", "ns"},
	{"hlsim.exec_ns_per_nnz.sellcs", "ns"},
	{"backend.native_degraded", "count"},
	{"backend.native_retries", "count"},
	{"core.plan_hits", "count"},
	// Every workload.
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}
