package main

// metricDef names one reported metric and its unit. README.md gives each
// per-layer metric's layer and the end-to-end metric it should move.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ads_per_s", "1/s"},
	{"cpu_s_per_kad", "s"},
	{"heap_retained_mb", "MiB"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"served_ratio", "ratio"},
}

// perLayer are the metrics of a traced run, reported on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"webgen.generate_s", "s"},
	{"adnet.generate_s", "s"},
	{"easylist.build_s", "s"},
	{"blacklist.build_s", "s"},
	{"crawler.visits", "count"},
	{"crawler.busy_s", "s"},
	{"crawler.self_s", "s"},
	{"memnet.crawl_fetches_per_visit", "count"},
	{"memnet.analyze_fetches_per_ad", "count"},
	{"memnet.busy_s", "s"},
	{"memnet.bytes_per_ad", "bytes"},
	{"htmlparse.docs", "count"},
	{"htmlparse.busy_s", "s"},
	{"minijs.scripts", "count"},
	{"minijs.distinct_ratio", "ratio"},
	{"minijs.compile_s", "s"},
	{"easylist.matches", "count"},
	{"easylist.busy_s", "s"},
	{"browser.self_s", "s"},
	{"honeyclient.ads", "count"},
	{"honeyclient.busy_s", "s"},
	{"honeyclient.self_s", "s"},
	{"blacklist.lookups", "count"},
	{"blacklist.busy_s", "s"},
	{"avscan.scans", "count"},
	{"avscan.busy_s", "s"},
	{"analysis.analyze_s", "s"},
	{"resilient.retries", "count"},
	{"resilient.circuit_opens", "count"},
	{"cache.honeyclient.hit_ratio", "ratio"},
	{"cache.blacklist.hit_ratio", "ratio"},
	{"cache.avscan.hit_ratio", "ratio"},
	{"flowgraph.busy_s", "s"},
	{"stream.crawl.queue_mean", "count"},
	{"stream.crawl.inflight_mean", "count"},
	{"stream.analyze.queue_mean", "count"},
	{"stream.analyze.inflight_mean", "count"},
	{"stream.source_lag_ms", "ms"},
	{"journal.appends", "count"},
	{"journal.append_s", "s"},
	{"journal.bytes_per_visit", "bytes"},
	{"journal.checkpoints", "count"},
	{"journal.checkpoint_s", "s"},
	{"journal.file_append_s", "s"},
	{"journal.file_checkpoint_s", "s"},
	{"stream.file_ads_per_s", "1/s"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_ad", "bytes"},
	{"pipeline.failed_ratio", "ratio"},
	{"ledger.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}
