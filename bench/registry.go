package main

// This file is the harness's registry of workloads and metrics. It must
// equal the lists in ../BENCHMARK.json; bench_test.go fails on drift.

type workloadDef struct {
	name string
	why  string
	new  func(cfg config) (instance, setupParts, error)
}

type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

var workloads = []workloadDef{
	{"bi_join", "TPC-H q3/q5/q8/q9/q10 with substitution parameters redrawn every execution: join-heavy, each new literal misses the plan cache and rebuilds filtered tries", newBIJoin},
	{"bi_scan", "TPC-H q1/q6 with redrawn date/discount/quantity literals: single table, no set intersections; control for join, GHD and kernel work", newBIScan},
	{"la", "SMM, SMV, DMV and DMM on fixed texts: relaxed orders, set kernels, BLAS dispatch, large outputs, plan cache always hits; control for parse, plan and filtered builds", newLA},
	{"ingest_mixed", "durable engine, alternating lineitem batches with q6/q1/q3 and periodic compaction, then restart: appends invalidate cached tries and pay WAL, snapshot and recovery", newIngest},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd are printed with -trace 0. Every workload reports all of
// them, so the ingest-only figures (rows/s, ack latency, recovery,
// write amplification) live in perLayer; on ingest_mixed latency_ms_* are
// over the three queries and ops_per_s counts the batches as well.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer are printed with -trace 1; a metric a workload does not
// reach reads 0 there.
var perLayer = []metricDef{
	{name: "sqlparse.parse_us_p50", unit: "us", better: "lower"},
	{name: "planner.build_us_p50", unit: "us", better: "lower"},
	{name: "ghd.decompose_us_p50", unit: "us", better: "lower"},
	{name: "costopt.choose_us_p50", unit: "us", better: "lower"},
	{name: "costopt.classify_us_p50", unit: "us", better: "lower"},
	{name: "costopt.cost_ratio_p50", unit: "ratio", better: "lower"},
	{name: "costopt.cost_ratio_p90", unit: "ratio", better: "lower"},
	{name: "core.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.trie_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.overhead_us_p50", unit: "us", better: "lower"},
	{name: "governor.acquire_ns_p50", unit: "ns", better: "lower"},
	{name: "governor.shed_total", unit: "count", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "exec.compile_ms_p50", unit: "ms", better: "lower"},
	{name: "exec.execute_ms_p50", unit: "ms", better: "lower"},
	{name: "exec.output_ms_p50", unit: "ms", better: "lower"},
	{name: "exec.tries_built_per_op", unit: "count", better: "lower"},
	{name: "exec.rows_out_per_op", unit: "rows", better: "lower"},
	{name: "exec.alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "exec.path_binary_share", unit: "ratio", better: "higher"},
	{name: "exec.dispatch.scalar-scan_share", unit: "ratio", better: "higher"},
	{name: "exec.dispatch.hybrid_share", unit: "ratio", better: "higher"},
	{name: "exec.dispatch.generic-wcoj_share", unit: "ratio", better: "higher"},
	{name: "exec.dispatch.dense-mm_share", unit: "ratio", better: "higher"},
	{name: "exec.dispatch.dense-mv_share", unit: "ratio", better: "higher"},
	{name: "exec.dispatch.spmv-gather_share", unit: "ratio", better: "higher"},
	{name: "exec.dispatch.spmv-scatter_share", unit: "ratio", better: "higher"},
	{name: "set.isect_per_op", unit: "count", better: "lower"},
	{name: "set.uint_uint_merge_share", unit: "ratio", better: "lower"},
	{name: "set.uint_uint_gallop_share", unit: "ratio", better: "lower"},
	{name: "set.bs_uint_share", unit: "ratio", better: "higher"},
	{name: "set.bs_bs_share", unit: "ratio", better: "higher"},
	{name: "set.probes_per_op", unit: "count", better: "lower"},
	{name: "set.bytes_out_per_op", unit: "bytes", better: "lower"},
	{name: "set.intersect_ns.uint_uint_even", unit: "ns", better: "lower"},
	{name: "set.intersect_ns.uint_uint_skewed", unit: "ns", better: "lower"},
	{name: "set.intersect_ns.bs_uint", unit: "ns", better: "lower"},
	{name: "set.intersect_ns.bs_bs", unit: "ns", better: "lower"},
	{name: "trie.build_ms.eager", unit: "ms", better: "lower"},
	{name: "trie.build_ms.lazy0", unit: "ms", better: "lower"},
	{name: "trie.lazy_full_ms", unit: "ms", better: "lower"},
	{name: "trie.mem_mb", unit: "MB", better: "lower"},
	{name: "dict.build_ms", unit: "ms", better: "lower"},
	{name: "dict.encode_ns_per_key.int", unit: "ns", better: "lower"},
	{name: "dict.encode_ns_per_key.string", unit: "ns", better: "lower"},
	{name: "dict.extend_ms_per_batch", unit: "ms", better: "lower"},
	{name: "storage.populate_s", unit: "s", better: "lower"},
	{name: "storage.freeze_s", unit: "s", better: "lower"},
	{name: "storage.append_us_per_row", unit: "us", better: "lower"},
	{name: "storage.compact_ms_p50", unit: "ms", better: "lower"},
	{name: "storage.compact_count", unit: "count", better: "lower"},
	{name: "storage.delta_rows_folded_per_op", unit: "rows", better: "lower"},
	{name: "storage.write_amp", unit: "ratio", better: "lower"},
	{name: "ingest.rows_per_s", unit: "rows/s", better: "higher"},
	{name: "ingest.ack_ms_p50", unit: "ms", better: "lower"},
	{name: "ingest.recovery_s", unit: "s", better: "lower"},
	{name: "wal.append_us_p50", unit: "us", better: "lower"},
	{name: "wal.sync_ms_p50", unit: "ms", better: "lower"},
	{name: "wal.bytes_per_row", unit: "bytes", better: "lower"},
	{name: "wal.syncs_per_batch", unit: "ratio", better: "lower"},
	{name: "wal.replay_ms", unit: "ms", better: "lower"},
	{name: "wal.records_dropped", unit: "count", better: "lower"},
	{name: "snapshot.write_ms", unit: "ms", better: "lower"},
	{name: "snapshot.bytes_per_row", unit: "bytes", better: "lower"},
	{name: "snapshot.load_ms", unit: "ms", better: "lower"},
	{name: "blas.gemm_ms", unit: "ms", better: "lower"},
	{name: "blas.gemv_us", unit: "us", better: "lower"},
	{name: "blas.spmv_us", unit: "us", better: "lower"},
	{name: "blas.spgemm_ms", unit: "ms", better: "lower"},
	{name: "la.vs_blas_ratio.smv", unit: "ratio", better: "lower"},
	{name: "la.vs_blas_ratio.smm", unit: "ratio", better: "lower"},
	{name: "la.vs_blas_ratio.dmv", unit: "ratio", better: "lower"},
	{name: "la.vs_blas_ratio.dmm", unit: "ratio", better: "lower"},
}
