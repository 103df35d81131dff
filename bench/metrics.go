package main

// metricDef names one reported metric. The two tables below are the single
// source for what the program emits; BENCHMARK.json at the repository root
// commits the same names, units, directions and bounds, and a test keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen
}

// endToEnd are the metrics a caller of the service sees. Every one is
// defined, and never zero, on every workload.
var endToEnd = []metricDef{
	{"gets_per_s", "1/s", "higher", 0.25},
	{"batch_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_get", "us", "lower", 0.25},
	{"hit_ratio", "ratio", "higher", 0.01},
	{"rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, prefixed with the module
// (internal/<layer>) they belong to. They carry no bound. A value of 0 on
// a workload the metric does not apply to means "not applicable".
var perLayer = []metricDef{
	{"workload.gen_ns_per_key", "ns", "lower", 0},

	{"load.self_ns_per_get", "ns", "lower", 0},
	{"load.batch_p99_us", "us", "lower", 0},
	{"load.miss_ratio", "ratio", "lower", 0},
	{"load.allocs_per_get", "count", "lower", 0},
	{"load.failed_share", "ratio", "lower", 0},
	{"load.rate_ok_gets_per_s", "1/s", "higher", 0},
	{"load.gen_late_p50_us", "us", "lower", 0},
	{"load.gen_late_p99_us", "us", "lower", 0},
	{"load.gen_late_p99_us_25k", "us", "lower", 0},
	{"load.gen_late_p99_us_100k", "us", "lower", 0},
	{"load.achieved_share", "ratio", "higher", 0},
	{"load.achieved_share_25k", "ratio", "higher", 0},
	{"load.achieved_share_100k", "ratio", "higher", 0},
	{"load.batch_p99_us_25k", "us", "lower", 0},
	{"load.batch_p99_us_100k", "us", "lower", 0},

	{"concurrent.get_hit_ns", "ns", "lower", 0},
	{"concurrent.get_miss_ns", "ns", "lower", 0},
	{"concurrent.update_insert_ns", "ns", "lower", 0},
	{"concurrent.delete_ns", "ns", "lower", 0},
	{"concurrent.scale_2p", "ratio", "higher", 0},
	{"concurrent.evictions_per_insert", "ratio", "lower", 0},
	{"concurrent.conflict_evict_share", "ratio", "lower", 0},
	{"concurrent.miss_ratio_a4", "ratio", "lower", 0},
	{"concurrent.miss_ratio_a16", "ratio", "lower", 0},
	{"concurrent.miss_ratio_a64", "ratio", "lower", 0},
	{"concurrent.miss_ratio_afull", "ratio", "lower", 0},

	{"wire.enc_get_ns", "ns", "lower", 0},
	{"wire.dec_get_ns", "ns", "lower", 0},
	{"wire.enc_hit64_ns", "ns", "lower", 0},
	{"wire.dec_hit64_ns", "ns", "lower", 0},
	{"wire.enc_set1k_ns", "ns", "lower", 0},
	{"wire.dec_set1k_ns", "ns", "lower", 0},
	{"wire.enc_set4k_ns", "ns", "lower", 0},
	{"wire.allocs_per_frame", "count", "lower", 0},
	{"wire.bytes_per_get", "B", "lower", 0},

	{"server.pipe_rtt_ns", "ns", "lower", 0},
	{"server.pipe_batch16_ns_per_key", "ns", "lower", 0},
	{"server.tcp_rtt_ns", "ns", "lower", 0},
	{"server.tcp_batch16_ns_per_key", "ns", "lower", 0},
	{"server.syscall_ns_per_batch", "ns", "lower", 0},
	{"server.get_svc_p50_ns", "ns", "lower", 0},
	{"server.get_svc_p99_ns", "ns", "lower", 0},
	{"server.set_svc_p50_ns", "ns", "lower", 0},
	{"server.del_svc_p50_ns", "ns", "lower", 0},
	{"server.tombstones", "count", "lower", 0},
	{"server.evictions", "count", "lower", 0},
	{"server.hints_queued", "count", "lower", 0},

	{"cluster.ring_owners_ns", "ns", "lower", 0},
	{"cluster.router_tax_ns_per_key", "ns", "lower", 0},
	{"cluster.fanout_tax_ns_per_key", "ns", "lower", 0},
	{"cluster.r2_set_tax_ns_per_set", "ns", "lower", 0},
	{"cluster.fallback_share", "ratio", "lower", 0},
	{"cluster.repairs_per_kget", "count", "lower", 0},
	{"cluster.redials", "count", "lower", 0},
	{"cluster.owner_share_max", "ratio", "lower", 0},
	{"cluster.near_hit_share", "ratio", "higher", 0},
	{"cluster.lease_grants", "count", "lower", 0},
	{"cluster.lease_waits", "count", "lower", 0},
	{"cluster.stale_hints", "count", "lower", 0},

	{"telemetry.record_ns", "ns", "lower", 0},
	{"telemetry.record_share_of_get_p50", "ratio", "lower", 0},

	{"runtime.gc_pause_us_per_s", "us/s", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},

	{"budget.sum_ns_per_get", "ns", "lower", 0},
	{"budget.residual_share", "ratio", "lower", 0},

	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.load_batch_self_ns_per_get", "ns", "lower", 0},
	{"trace.load_verify_ns_per_get", "ns", "lower", 0},
	{"trace.load_fill_self_ns_per_get", "ns", "lower", 0},
	{"trace.load_del_ns_per_get", "ns", "lower", 0},
	{"trace.wire_enqueue_ns_per_get", "ns", "lower", 0},
	{"trace.wire_flush_ns_per_get", "ns", "lower", 0},
	{"trace.wire_read_ns_per_get", "ns", "lower", 0},
	{"trace.wire_setbatch_ns_per_get", "ns", "lower", 0},
	{"trace.cluster_getbatch_ns_per_get", "ns", "lower", 0},
	{"trace.cluster_setbatch_ns_per_get", "ns", "lower", 0},
	{"trace.concurrent_ops_ns_per_get", "ns", "lower", 0},
}
