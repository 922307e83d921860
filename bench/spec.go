package main

// The benchmark's vocabulary: every workload, end-to-end metric and
// per-layer metric it can print. BENCHMARK.json at the repo root lists
// the same names (bench_test.go holds the two in step); README.md gives
// the definitions and the interaction table.

// metricSpec names one metric. Bound is the relative worsening that
// counts as a regression (end-to-end metrics only).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// workloadSpec names one workload and records why it exists. Gated
// workloads are the ones BENCHMARK.json lists, which the driver runs and
// holds later changes to; the others run with the suite and in the traced
// pass but do not repeat well enough on a shared host to gate anything.
type workloadSpec struct {
	Name  string
	Loop  string // "closed" or "open"
	Gated bool
	Why   string
}

var workloadSpecs = []workloadSpec{
	{"lrmi_vm_null", "closed", true, "VM bytecode LRMI, null and 3-int-arg: vmkit interpreter plus core gate crossing only; a copy or wire change must not move it"},
	{"lrmi_copy", "closed", true, "LRMI with copied arguments (Table 4 shapes, serialization vs fast-copy, VM and native): copying dominates, no frames or sockets"},
	{"remote_sync_null", "closed", true, "sync null invoke between two kernels over TCP loopback: per-frame overhead, serializer skipped, batcher idle"},
	{"remote_async_echo", "closed", true, "windows of 128 async echo invokes, 64 B to 16 KiB payloads: batcher, buffer pool, writev and four seri passes per call"},
	{"http_local", "closed", true, "raw HTTP/1.1 against the bridge with local native and VM servlets (Table 5): httpd plus one local LRMI, remote and sched idle"},
	{"http_cluster_open", "open", false, "fixed-rate HTTP through bridge, scheduler, wire and two worker processes, timed from each request's due time: the only workload with queueing and cross-process wake-ups"},
}

// endToEnd are the metrics a user of the system would see, reported on
// every workload in the untraced pass. Four of the issue's nine are not in
// this list (README.md, "Demoted metrics"): fail_ratio is always 0 on a
// correct run, so it travels as the result's attempted/failed counts and
// as e2e.fail_ratio; peak_rss_mb and p99_us do not repeat from run to run
// within any bound the contract allows; cpu_us_per_op is 1e6/ops_per_s on
// a closed loop that keeps its one P busy, a second reading of the same
// quantity. They are the per-layer e2e.* metrics.
//
// The timing bounds are the contract's widest, 0.25: ten runs of a gated
// workload spread by 1-7 % once scaled by the host's speed, but sets of
// runs an hour apart still differ by up to a tenth. The allocation counts
// repeat to a fraction of a percent and keep the issue's tight bounds.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"allocs_per_op", "allocs", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
}

// perLayer are the traced-pass metrics, named <module>.<metric>. A
// workload that does not run a layer reports 0 for its metrics.
var perLayer = []metricSpec{
	{"vmkit.invoke_regular_ns", "ns", "lower", 0},
	{"vmkit.invoke_iface_ns", "ns", "lower", 0},
	{"vmkit.lock_pair_ns", "ns", "lower", 0},
	{"vmkit.thread_lookup_ns", "ns", "lower", 0},
	{"vmkit.load_verify_ms", "ms", "lower", 0},

	{"core.lrmi_vm_null_ns", "ns", "lower", 0},
	{"core.lrmi_vm_3arg_ns", "ns", "lower", 0},
	{"core.lrmi_residual_ns", "ns", "lower", 0},
	{"core.lrmi_native_null_ns", "ns", "lower", 0},
	{"core.lrmi_native_null_allocs", "allocs", "lower", 0},
	{"core.vmcopy_ser_ns_per_kb", "ns/KiB", "lower", 0},
	{"core.vmcopy_fast_ns_per_kb", "ns/KiB", "lower", 0},
	{"core.future_roundtrip_ns", "ns", "lower", 0},
	{"core.future_allocs", "allocs", "lower", 0},

	{"seri.marshal_ns", "ns", "lower", 0},
	{"seri.unmarshal_ns", "ns", "lower", 0},
	{"seri.roundtrip_allocs", "allocs", "lower", 0},
	{"seri.bytes_per_msg", "B", "lower", 0},
	{"seri.planned_type_ratio", "ratio", "higher", 0},

	{"fastcopy.copy_ns", "ns", "lower", 0},
	{"fastcopy.copy_allocs", "allocs", "lower", 0},

	{"remote.request_leg_us", "us", "lower", 0},
	{"remote.callee_us", "us", "lower", 0},
	{"remote.reply_leg_us", "us", "lower", 0},
	{"remote.frames_out_per_op", "count", "lower", 0},
	{"remote.frames_in_per_op", "count", "lower", 0},
	{"remote.batch_occupancy_p50", "count", "higher", 0},
	{"remote.writes_per_op", "count", "lower", 0},
	{"remote.reads_per_op", "count", "lower", 0},
	{"remote.wire_bytes_per_op", "B", "lower", 0},
	{"remote.pending_peak", "count", "lower", 0},
	{"remote.exec_workers", "count", "lower", 0},
	{"remote.overhead_allocs_per_op", "allocs", "lower", 0},
	{"remote.sync_over_native_ratio", "ratio", "lower", 0},
	{"remote.async_over_sync_ratio", "ratio", "lower", 0},
	{"remote.dial_import_ms", "ms", "lower", 0},
	{"remote.churn_cycle_us", "us", "lower", 0},
	{"remote.tables_leaked", "count", "lower", 0},

	{"sched.start_ms", "ms", "lower", 0},
	{"sched.deploy_ms", "ms", "lower", 0},
	{"sched.route_overhead_us", "us", "lower", 0},
	{"sched.placement_spread", "count", "lower", 0},
	{"sched.moves", "count", "lower", 0},
	{"sched.replacements", "count", "lower", 0},

	{"httpd.static_rtt_us", "us", "lower", 0},
	{"httpd.servlet_direct_us", "us", "lower", 0},
	{"httpd.bridge_self_us", "us", "lower", 0},
	{"httpd.native_route_us", "us", "lower", 0},
	{"httpd.vm_route_us", "us", "lower", 0},
	{"httpd.non200", "count", "lower", 0},
	{"httpd.slo_miss_ratio", "ratio", "lower", 0},

	{"telemetry.on_off_ratio", "ratio", "lower", 0},
	{"telemetry.snapshot_ms", "ms", "lower", 0},

	{"account.copy_bytes_per_op", "B", "lower", 0},
	{"account.alloc_bytes_per_op", "B", "lower", 0},

	{"loadgen.self_us_per_op", "us", "lower", 0},
	{"loadgen.allocs_per_op", "allocs", "lower", 0},
	{"loadgen.lag_p99_us", "us", "lower", 0},

	{"ledger.sum_over_e2e", "ratio", "higher", 0},
	{"ledger.unattributed_us", "us", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},

	{"e2e.p99_us", "us", "lower", 0},
	{"e2e.cpu_us_per_op", "us", "lower", 0},
	{"e2e.fail_ratio", "ratio", "lower", 0},
	{"e2e.peak_rss_mb", "MiB", "lower", 0},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloadSpecs {
		if workloadSpecs[i].Name == name {
			return &workloadSpecs[i]
		}
	}
	return nil
}
