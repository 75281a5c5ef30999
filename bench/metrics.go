package main

// The metric tables. BENCHMARK.json at the repository root is checked
// against them by TestBenchmarkJSONMatchesTables, so a metric cannot
// be printed without being declared, or declared without being printed.

// metricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is
// rejected outright. It is as wide as the sandbox is unsteady: with no
// code change the same run drifts by up to a fifth over tens of minutes
// (README.md, "A/A spread"); finer claims need interleaved pairs, which
// -compare resolves down to the measured spread. Per-layer metrics
// have none. README.md lists, for every per-layer metric, which
// end-to-end metric it is predicted to move and on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one, with its own unit of work and operation:
//
//	workload     operation (ops_per_s)                  wait (wait_p50_us)
//	table2-sw    procedure call                         one Executive.Run
//	table2-wan   procedure call                         one Executive.Run
//	rpc-bulk     procedure call, 64 KiB payload         one Line.Call
//	rpc-tcp      procedure call over loopback TCP       one Line.Go().Wait()
//	ctl-churn    control-plane op (lookup/cycle/move)   one cache-miss lookup
//	dst-sweep    simulated millisecond                  one simulated second
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "wait_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced pass, named
// <module>.<metric>. A value of 0 on a workload means the rung or span
// does not exist there (vclock and dst only exist on dst-sweep, batch
// fill only where the executive issues calls, and so on).
var perLayer = []metricDef{
	// machine: native-format conversion.
	{Name: "machine.roundtrip_ns.ieee", Unit: "ns", Better: "lower"},
	{Name: "machine.roundtrip_ns.cray", Unit: "ns", Better: "lower"},
	{Name: "machine.roundtrip_ns.vaxd", Unit: "ns", Better: "lower"},
	{Name: "machine.roundtrip_ns.ibmhex", Unit: "ns", Better: "lower"},
	{Name: "machine.bulk_ns_per_elem.cray", Unit: "ns", Better: "lower"},
	{Name: "machine.bulk_ns_per_elem.vaxd", Unit: "ns", Better: "lower"},
	{Name: "machine.range_errors", Unit: "count", Better: "lower"},

	// uts: the interchange codec.
	{Name: "uts.encode_shaft_ns", Unit: "ns", Better: "lower"},
	{Name: "uts.decode_shaft_ns", Unit: "ns", Better: "lower"},
	{Name: "uts.encode_bulk_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "uts.decode_bulk_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "uts.decode_bulk_allocs", Unit: "count", Better: "lower"},
	{Name: "uts.parse_spec_us", Unit: "us", Better: "lower"},

	// wire: message framing.
	{Name: "wire.encode_call_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_call_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns_per_KB", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_KB", Unit: "ns", Better: "lower"},
	{Name: "wire.stream_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.batch_split_ns", Unit: "ns", Better: "lower"},

	// netsim: the simulated network.
	{Name: "netsim.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.hop_ns_per_KB", Unit: "ns", Better: "lower"},
	{Name: "netsim.sleep_overshoot_us", Unit: "us", Better: "lower"},
	{Name: "netsim.msgs_per_run", Unit: "count", Better: "lower"},
	{Name: "netsim.bytes_per_run", Unit: "B", Better: "lower"},
	{Name: "netsim.simnet_s_per_run", Unit: "sim_s", Better: "lower"},
	{Name: "netsim.sleep_share", Unit: "ratio", Better: "lower"},

	// schooner, client and procedure process.
	{Name: "schooner.call_ns", Unit: "ns", Better: "lower"},
	{Name: "schooner.call_self_ns", Unit: "ns", Better: "lower"},
	{Name: "schooner.shaft_call_ns", Unit: "ns", Better: "lower"},
	{Name: "schooner.call_p99_us", Unit: "us", Better: "lower"},
	{Name: "schooner.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "schooner.alloc_B_per_call", Unit: "B", Better: "lower"},
	{Name: "schooner.inflight2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "schooner.batch_fill", Unit: "ratio", Better: "higher"},
	{Name: "schooner.rpcs_per_run", Unit: "count", Better: "lower"},
	{Name: "schooner.retries", Unit: "count", Better: "lower"},
	{Name: "schooner.rebinds", Unit: "count", Better: "lower"},
	{Name: "schooner.timeouts", Unit: "count", Better: "lower"},
	{Name: "schooner.call_failures", Unit: "count", Better: "lower"},
	{Name: "schooner.payload_MB_per_s", Unit: "MB/s", Better: "higher"},

	// schooner, Manager and Server, and the journal under them.
	{Name: "schooner.lookup_us.lines1", Unit: "us", Better: "lower"},
	{Name: "schooner.lookup_us.lines128", Unit: "us", Better: "lower"},
	{Name: "schooner.register_quit_us", Unit: "us", Better: "lower"},
	{Name: "schooner.start_remote_us", Unit: "us", Better: "lower"},
	{Name: "schooner.move_rpc_ms", Unit: "ms", Better: "lower"},
	{Name: "schooner.stale_recover_ms", Unit: "ms", Better: "lower"},
	{Name: "schooner.move_blackout_ms", Unit: "ms", Better: "lower"},
	{Name: "schooner.cycle_ms", Unit: "ms", Better: "lower"},
	{Name: "schooner.journal_records_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.append_us.file", Unit: "us", Better: "lower"},
	{Name: "wal.append_us.mem", Unit: "us", Better: "lower"},

	// dataflow and core: the executive.
	{Name: "dataflow.execute_us", Unit: "us", Better: "lower"},
	{Name: "dataflow.execute_parallel_us", Unit: "us", Better: "lower"},
	{Name: "dataflow.wavefront_overhead_us", Unit: "us", Better: "lower"},
	{Name: "core.build_f100_us", Unit: "us", Better: "lower"},
	{Name: "core.run_local_s", Unit: "s", Better: "lower"},
	{Name: "core.remote_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.calls_per_run", Unit: "count", Better: "lower"},

	// engine and solver: the compute the network carries.
	{Name: "engine.eval_us", Unit: "us", Better: "lower"},
	{Name: "engine.balance_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.transient_step_us", Unit: "us", Better: "lower"},
	{Name: "engine.evals_per_run", Unit: "count", Better: "lower"},
	{Name: "solver.newton_iters", Unit: "count", Better: "lower"},

	// vclock and dst: the deterministic simulator.
	{Name: "vclock.timer_fire_us", Unit: "us", Better: "lower"},
	{Name: "dst.virt_s_per_wall_s", Unit: "ratio", Better: "higher"},
	{Name: "dst.wall_s_per_seed", Unit: "s", Better: "lower"},
	{Name: "dst.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "dst.signature_retries", Unit: "count", Better: "lower"},
	{Name: "dst.violations", Unit: "count", Better: "lower"},
	{Name: "dst.harness_errors", Unit: "count", Better: "lower"},

	// Observability planes, on minus off on the schooner.call_ns rung.
	{Name: "trace.on_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "tseries.on_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "flight.on_overhead_ns", Unit: "ns", Better: "lower"},

	// Spans of the traced pass, self time per operation.
	{Name: "span.run_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "span.call_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "span.conn_send_us_per_op", Unit: "us", Better: "lower"},
	{Name: "span.conn_recv_wait_us_per_op", Unit: "us", Better: "lower"},
	{Name: "span.proc_fn_us_per_op", Unit: "us", Better: "lower"},
	{Name: "span.mgr_wait_us_per_op", Unit: "us", Better: "lower"},

	// Reconciliation of the ladder with the whole.
	{Name: "ladder.modeled_wait_us", Unit: "us", Better: "lower"},
	{Name: "ladder.coverage", Unit: "ratio", Better: "higher"},
	{Name: "ladder.codec_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "bench.wait_top_us", Unit: "us", Better: "lower"},
	{Name: "bench.wait_top_pct", Unit: "%", Better: "higher"},
	{Name: "bench.wait_samples", Unit: "count", Better: "higher"},
}
