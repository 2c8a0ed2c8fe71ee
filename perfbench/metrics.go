package main

// metric names one reported number. bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none. BENCHMARK.json at
// the repository root lists the same metrics (TestMetricsMatchManifest).
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the simulator sees, reported from
// untraced runs; every workload reports every one (see doc.go for how the
// suite defines the scenario-shaped ones). Host-time bounds are the widest
// allowed: where cores are shared with other tenants, the median wall time
// of a run moves by a tenth or more between invocations minutes apart.
// Accuracy bounds allow for scale's pilot of eight sensors, which has about
// three true intervals per run, so a seed with one false detection reads a
// precision of 0.8.
var endToEnd = []metric{
	{"run_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"gc_cycles", "count", "lower", 0.2},
	{"recall", "ratio", "higher", 0.1},
	{"precision", "ratio", "higher", 0.1},
}

// suiteIDs are the experiments the suite workload runs: the paper tables
// minus E15, which is three quarters of the whole suite's time and whose
// checker tree the scale workload already covers.
var suiteIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
	"E10", "E11", "E12", "E13", "E14", "E16"}

// perLayer are the traced run's metrics, each read from one module. A
// workload that does not exercise a module, or whose module state is not
// reachable from outside (the suite's inner harnesses), reports 0 for it.
var perLayer = func() []metric {
	m := []metric{
		{"sim.events", "count", "lower", 0},
		{"sim.epochs", "count", "lower", 0},
		{"sim.events_per_epoch", "count", "higher", 0},
		{"sim.cross_msgs", "count", "lower", 0},
		{"sim.max_in_flight", "count", "lower", 0},
		{"sim.shard_imbalance", "ratio", "lower", 0},
		{"sim.idle_core_s", "s", "lower", 0},
		{"sim.heap_max_depth", "count", "lower", 0},
		{"sim.parallel_speedup", "ratio", "higher", 0},
		{"net.sent", "count", "lower", 0},
		{"net.bytes", "B", "lower", 0},
		{"net.bytes_per_msg", "B", "lower", 0},
		{"clock.state_mb", "MB", "lower", 0},
		{"core.applied", "count", "higher", 0},
		{"core.stale", "count", "lower", 0},
		{"core.useful_ratio", "ratio", "higher", 0},
		{"detect_lag_p50_ms", "ms", "lower", 0},
		{"detect_lag_p99_ms", "ms", "lower", 0},
		{"tree.batches", "count", "lower", 0},
		{"tree.wire_kb", "KB", "lower", 0},
		{"tree.coalesced_ratio", "ratio", "higher", 0},
		{"tree.sync_lag_ms", "ms", "lower", 0},
		{"workload.events", "count", "lower", 0},
		{"workload.gen_s", "s", "lower", 0},
		{"workload.bytes_per_event", "B", "lower", 0},
		{"workload.encode_mb_per_s", "MB/s", "higher", 0},
		{"workload.decode_mb_per_s", "MB/s", "higher", 0},
		{"scenario.build_s", "s", "lower", 0},
		{"gc.cpu_s", "s", "lower", 0},
		{"sched.wait_p99_ms", "ms", "lower", 0},
		{"runner.core_util", "ratio", "higher", 0},
		{"cpu.unattributed_share", "ratio", "lower", 0},
		{"trace.overhead_s", "s", "lower", 0},
	}
	for _, b := range cpuBuckets {
		m = append(m, metric{"cpu." + b + "_s", "s", "lower", 0})
	}
	for _, id := range suiteIDs {
		m = append(m, metric{"suite." + id + "_s", "s", "lower", 0})
	}
	return m
}()
