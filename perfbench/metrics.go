package main

// metricDef names one printed metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. The "op" is the workload's unit of work:
// one pass of the paperQuickSet experiments (paper-quick), one finished memcached
// document plus its pprof export (report-memcached), one request
// (serve-mixed: latencies at the low offered rate, ops_per_s the completions
// per second at the high rate).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// serveClasses are the serve-mixed request classes, in deck order.
var serveClasses = []string{"hit", "disk", "fork", "cold", "ingest"}

// perLayer lists the metrics a traced run prints, grouped by the module
// whose public calls they time or whose counters they read. A workload that
// does not exercise a layer prints 0 for it.
func perLayer() []metricDef {
	var out []metricDef
	for _, n := range paperQuickSet {
		out = append(out, metricDef{"exp." + n + "_s", "s"})
	}
	out = append(out,
		metricDef{"workload.build_ms", "ms"},
		metricDef{"session.attach_ms", "ms"},
		metricDef{"session.run_s", "s"},
		metricDef{"session.maccess_per_s", "M/s"},
		metricDef{"sim.accesses", "count"},
		metricDef{"sim.cycles", "count"},
		metricDef{"sim.ns_per_access", "ns"},
		metricDef{"sim.unprofiled_ns_per_access", "ns"},
		metricDef{"profiler.overhead_pct", "%"},
		metricDef{"cache.l1_hit_ratio", "ratio"},
		metricDef{"cache.xfer_ratio", "ratio"},
		metricDef{"cache.xchip_ratio", "ratio"},
		metricDef{"cache.inval_per_kacc", "count"},
		metricDef{"cache.dram_ratio", "ratio"},
	)
	for _, v := range []string{"dataprofile", "workingset", "residency", "missclass", "dataflow", "pathtrace"} {
		out = append(out, metricDef{"view." + v + "_ms", "ms"})
	}
	out = append(out,
		metricDef{"export.doc_ms", "ms"},
		metricDef{"export.marshal_ms", "ms"},
		metricDef{"export.doc_bytes", "bytes"},
		metricDef{"pprof.encode_ms", "ms"},
		metricDef{"pprof.bytes", "bytes"},
		metricDef{"serve.high_p50_ms", "ms"},
		metricDef{"serve.high_tail_ms", "ms"},
	)
	for _, c := range serveClasses {
		out = append(out,
			metricDef{"serve." + c + "_p50_ms", "ms"},
			metricDef{"serve." + c + "_tail_ms", "ms"})
	}
	out = append(out,
		metricDef{"serve.simulations", "count"},
		metricDef{"serve.lru_hit_ratio", "ratio"},
		metricDef{"serve.lru_evictions", "count"},
		metricDef{"serve.dedups", "count"},
		metricDef{"ckpt.captures", "count"},
		metricDef{"ckpt.forks", "count"},
		metricDef{"ckpt.bytes", "bytes"},
		metricDef{"ckpt.evictions", "count"},
		metricDef{"store.hits", "count"},
		metricDef{"store.puts", "count"},
		metricDef{"store.bytes_written", "bytes"},
		metricDef{"ingest.samples_accepted", "count"},
		metricDef{"ingest.parse_failures", "count"},
		metricDef{"runtime.alloc_mb", "MiB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"gen.late_p50_ms", "ms"},
		metricDef{"gen.late_tail_ms", "ms"},
		metricDef{"gen.requests", "count"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"host.steal_pct", "%"},
	)
	return out
}
