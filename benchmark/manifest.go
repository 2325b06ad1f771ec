package main

// metricDef names one metric the binary emits and its unit. BENCHMARK.json
// at the repository root repeats every name with its direction and — for
// end-to-end metrics — the regression bound; manifest_test.go fails when
// the two lists drift apart.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload emits all of
// them with -trace 0. The run's failure share travels beside them as the
// result's attempted and failed counts (it is 0 on a healthy run, and a
// bounded metric may never be 0).
var endToEnd = []metricDef{
	{"tput_txn_s", "txn/s"},
	{"lat_mean_ms", "ms"},
	{"allocs_per_txn", "count"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer is the account of single layers; every workload emits all of
// them with -trace 1, reporting 0 for a layer it does not exercise (client.*
// on gateway-sessions, gateway.* on the direct workloads, store.get_us
// without reads, fault.* without a fault).
var perLayer = []metricDef{
	{"client.gen_us_per_req", "us"},
	{"client.sign_us_per_req", "us"},
	{"client.encode_send_us_per_req", "us"},
	{"client.wait_us_per_req", "us"},
	{"client.reply_verify_decode_us_per_req", "us"},
	{"client.retransmits_per_kreq", "count"},
	{"client.residual_frac", "ratio"},
	{"client.lat_p50_ms", "ms"},
	{"client.lat_p99_ms", "ms"},
	{"fault.failover_gap_ms", "ms"},
	{"workload.next_request_ns_per_txn", "ns"},
	{"types.encode_request_ns", "ns"},
	{"types.decode_request_ns", "ns"},
	{"types.encode_request_allocs", "count"},
	{"types.decode_request_allocs", "count"},
	{"types.frame_roundtrip_ns_per_env", "ns"},
	{"crypto.ed25519_sign_us", "us"},
	{"crypto.ed25519_verify_us", "us"},
	{"crypto.cmac_sign_ns", "ns"},
	{"crypto.cmac_verify_ns", "ns"},
	{"crypto.verify_batch64_us_per_sig", "us"},
	{"transport.msgs_per_txn", "count"},
	{"transport.bytes_per_txn", "bytes"},
	{"transport.send_us_per_msg", "us"},
	{"transport.inbox_drops", "count"},
	{"transport.framepool_hit_frac", "ratio"},
	{"transport.tcp_env_per_s", "1/s"},
	{"pbft.batch_us", "us"},
	{"pbft.steps_per_batch", "count"},
	{"pbft.allocs_per_batch", "count"},
	{"replica.input_busy_frac.p", "ratio"},
	{"replica.batch_busy_frac.p", "ratio"},
	{"replica.worker_busy_frac.p", "ratio"},
	{"replica.execute_busy_frac.p", "ratio"},
	{"replica.checkpoint_busy_frac.p", "ratio"},
	{"replica.output_busy_frac.p", "ratio"},
	{"replica.input_busy_frac.b", "ratio"},
	{"replica.batch_busy_frac.b", "ratio"},
	{"replica.worker_busy_frac.b", "ratio"},
	{"replica.execute_busy_frac.b", "ratio"},
	{"replica.checkpoint_busy_frac.b", "ratio"},
	{"replica.output_busy_frac.b", "ratio"},
	{"replica.txns_per_batch", "count"},
	{"replica.msgs_in_per_txn", "count"},
	{"replica.checkpoints_per_ktxn", "count"},
	{"replica.encode_pool_hit_frac", "ratio"},
	{"replica.verify_batched_frac", "ratio"},
	{"replica.input_queue_fill_p95", "ratio"},
	{"replica.batch_queue_fill_p95", "ratio"},
	{"replica.work_queue_fill_p95", "ratio"},
	{"replica.exec_backlog_p95", "ratio"},
	{"replica.out_queue_fill_p95", "ratio"},
	{"replica.exec_shard_busy_frac_max", "ratio"},
	{"replica.exec_shard_imbalance", "ratio"},
	{"replica.backup_lag_batches_p95", "count"},
	{"replica.view_changes", "count"},
	{"store.write_calls_per_txn", "count"},
	{"store.kvs_per_putmany", "count"},
	{"store.write_us_per_kv", "us"},
	{"store.get_us", "us"},
	{"store.scan_us_per_row", "us"},
	{"store.busy_frac", "ratio"},
	{"store.fsyncs_per_ktxn", "count"},
	{"store.fsync_stall_us_per_txn", "us"},
	{"store.compactions", "count"},
	{"store.compact_stall_ms", "ms"},
	{"store.mem_putmany_ns_per_kv", "ns"},
	{"store.sharded_putmany_us_per_kv", "us"},
	{"store.sharded_get_ns", "ns"},
	{"store.sharded_scan_ns_per_row", "ns"},
	{"ledger.append_ns", "ns"},
	{"gateway.txns_per_upstream_req", "count"},
	{"gateway.busy_rejected_frac", "ratio"},
	{"gateway.dup_replayed", "count"},
	{"gateway.upstream_retransmits", "count"},
	{"gateway.load_retries", "count"},
	{"gateway.lat_mean_ms", "ms"},
	{"gateway.lat_p50_bucket_ms", "ms"},
	{"gateway.lat_p99_bucket_ms", "ms"},
	{"bench.cpu_us_per_txn", "us"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.slice_cv", "ratio"},
}
