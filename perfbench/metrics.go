package main

// metricDef is one metric the benchmark reports. BENCHMARK.json lists
// the same names and units; moves names the end-to-end metric, and
// the workload, that a change to the measured layer should move, so a
// change claiming a gain can cite the pair by name.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. A "request" is one call that returns a report: a whole
// registered experiment for the scans and campaign-sweep, one
// /run/campaign call for sweep-service.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "time from process start to the first timed operation, median of several starts"},
	{"items_per_s", "1/s", "higher", "resolvers, domains, campaign trials or delivered cells per host second"},
	{"cpu_ms_per_item", "ms", "lower", "process user+sys CPU per item"},
	{"peak_rss_mb", "MB", "lower", "high-water RSS of the process"},
	{"ok_share", "share", "higher", "operations whose output checks passed, over operations attempted"},
	{"request_ms_p50", "ms", "lower", "median request latency, send to terminal event"},
	{"request_ms_p90", "ms", "lower", "90th-percentile request latency"},
}

// perLayer are the traced run's metrics. A metric of a layer the
// benchmark cannot observe on a workload reads 0 there: the campaign
// and the server keep their networks inside the library, so the
// netsim, resolver, dnssrv and measure metrics exist only on the
// scans; the server runs its cells out of the client's sight, so
// sweep-service has engine.units but no unit spans; and the serve
// metrics exist only on sweep-service.
var perLayer = []metricDef{
	// dispatch
	{"engine.busy_share", "share", "higher", "items_per_s on resolver-scan and domain-scan"},
	{"engine.gap_share", "share", "lower", "items_per_s on resolver-scan and domain-scan"},
	{"engine.units", "count", "lower", "none: work count per pass, must repeat exactly"},
	{"engine.unit_ms_p50", "ms", "lower", "items_per_s on campaign-sweep"},
	{"engine.unit_ms_max", "ms", "lower", "items_per_s on campaign-sweep"},
	// measure
	{"measure.build_ms_per_kitem", "ms", "lower", "items_per_s and cpu_ms_per_item on resolver-scan and domain-scan"},
	{"measure.scan_ms_per_kitem", "ms", "lower", "items_per_s and cpu_ms_per_item on resolver-scan and domain-scan"},
	{"measure.truth_agreement", "share", "higher", "none: simulated statistic, must not move"},
	// network
	{"netsim.delivered_per_item", "count", "lower", "cpu_ms_per_item on resolver-scan and domain-scan"},
	{"netsim.dropped_per_item", "count", "lower", "cpu_ms_per_item on resolver-scan and domain-scan"},
	{"netsim.icmp_suppressed_per_item", "count", "lower", "none: simulated statistic, must not move"},
	{"netsim.delivered_per_s", "1/s", "higher", "items_per_s on resolver-scan"},
	// protocol
	{"resolver.upstream_queries_per_item", "count", "lower", "cpu_ms_per_item on resolver-scan"},
	{"resolver.tcp_fallbacks_per_item", "count", "lower", "cpu_ms_per_item on resolver-scan"},
	{"resolver.timeouts_per_item", "count", "lower", "cpu_ms_per_item on resolver-scan"},
	{"dnssrv.responses_per_item", "count", "lower", "cpu_ms_per_item on domain-scan"},
	{"dnssrv.rate_dropped_per_item", "count", "lower", "cpu_ms_per_item on domain-scan"},
	{"dnssrv.truncated_per_item", "count", "lower", "cpu_ms_per_item on domain-scan"},
	{"dnssrv.responses_per_s", "1/s", "higher", "items_per_s on domain-scan"},
	// attack and world
	{"core.packets_per_trial", "count", "lower", "none: simulated statistic, must not move"},
	{"core.iterations_per_trial", "count", "lower", "none: simulated statistic, must not move"},
	{"core.virtual_s_per_trial", "virtual_s", "lower", "none: simulated statistic, must not move"},
	{"campaign.poisoned_share", "share", "lower", "none: simulated statistic, must not move"},
	{"campaign.impact_share", "share", "lower", "none: simulated statistic, must not move"},
	{"campaign.cell_ms_p50", "ms", "lower", "items_per_s on campaign-sweep"},
	{"campaign.cell_ms_p90", "ms", "lower", "items_per_s on campaign-sweep"},
	// service
	{"serve.cache_hit_share", "share", "higher", "none: fixed by the request sequence, must not move"},
	{"serve.hit_request_ms_p50", "ms", "lower", "request_ms_p50 on sweep-service"},
	{"serve.miss_ms_per_cell", "ms", "lower", "request_ms_p90 on sweep-service"},
	{"serve.first_byte_ms_p50", "ms", "lower", "request_ms_p50 on sweep-service"},
	{"serve.report_bytes_p50", "bytes", "lower", "request_ms_p50 on sweep-service"},
	{"serve.shutdown_ms", "ms", "lower", "none: final checkpoint flush, outside the timed phase"},
	{"report.render_ms", "ms", "lower", "request_ms_p50 on resolver-scan, domain-scan and campaign-sweep"},
	// Go runtime
	{"go.allocs_per_item", "count", "lower", "cpu_ms_per_item on every workload"},
	{"go.alloc_bytes_per_item", "bytes", "lower", "cpu_ms_per_item on every workload"},
	{"go.gc_cpu_share", "share", "lower", "cpu_ms_per_item and peak_rss_mb on every workload"},
	// CPU self time per layer, from the traced run's profile
	{"cpu.wire", "share", "lower", "items_per_s on domain-scan and campaign-sweep"},
	{"cpu.sim", "share", "lower", "items_per_s on campaign-sweep"},
	{"cpu.network", "share", "lower", "items_per_s on resolver-scan and campaign-sweep"},
	{"cpu.protocol", "share", "lower", "items_per_s on domain-scan"},
	{"cpu.attack", "share", "lower", "items_per_s on campaign-sweep"},
	{"cpu.world", "share", "lower", "items_per_s on campaign-sweep"},
	{"cpu.measure", "share", "lower", "items_per_s on resolver-scan and domain-scan"},
	{"cpu.dispatch", "share", "lower", "items_per_s on every workload"},
	{"cpu.service", "share", "lower", "request_ms_p50 on sweep-service"},
	{"cpu.gc", "share", "lower", "cpu_ms_per_item and peak_rss_mb on every workload"},
	{"cpu.runtime", "share", "lower", "cpu_ms_per_item on every workload"},
	{"cpu.other", "share", "lower", "none: the benchmark program and its HTTP client"},
	// tracing overhead
	{"trace.items_per_s", "1/s", "higher", "none: traced throughput, compared with items_per_s"},
	{"trace.overhead_share", "share", "lower", "none: 1 - traced/untraced items_per_s in the same process"},
}

// metricSet collects one run's metric values, keyed by name.
type metricSet map[string]float64
