package main

// metric declares one reported number. BENCHMARK.json at the
// repository root repeats these tables; TestBenchmarkJSONMatches keeps
// the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadNames lists the benchmark's workloads in run order.
var workloadNames = []string{"ci-cells", "ci-stress", "ci-sweep", "dc64-gateway"}

// endToEnd are the numbers a user waits for, reported on every
// workload with tracing off. Bound is the share of the baseline median
// by which a metric may get worse before a change counts as a
// regression. What each one times on each workload is in README.md.
// Times and rates are normalized to the reference host speed (host.go).
// Every bound is 25%, the most a bound may be: on the shared 2-CPU host
// the benchmark was calibrated on, the host's speed moved by up to 50%
// between runs, and peak_rss_mb of prismd is bimodal (README.md).
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"sim_mcycles_per_s", "Mcycle/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the numbers of single layers, reported with tracing on.
// A metric a workload never exercises reads 0 there.
var perLayer = []metric{
	{"sim.event_ns", "ns", "lower", 0},
	{"sim.handoff_ns", "ns", "lower", 0},
	{"sim.est_events", "count", "lower", 0},
	{"cache.access_ns", "ns", "lower", 0},
	{"cache.l1_accesses", "count", "lower", 0},
	{"cache.l2_accesses", "count", "lower", 0},
	{"node.bus_txns", "count", "lower", 0},
	{"node.bus_wait_cycles", "cycles", "lower", 0},
	{"coherence.deliver_s", "s", "lower", 0},
	{"coherence.deliver_ns", "ns", "lower", 0},
	{"coherence.deliver_nested", "count", "lower", 0},
	{"coherence.msgs", "count", "lower", 0},
	{"coherence.remote_misses", "count", "lower", 0},
	{"pit.lookup_ns", "ns", "lower", 0},
	{"pit.reverse_hash_ns", "ns", "lower", 0},
	{"pit.lookups", "count", "lower", 0},
	{"pit.reverse_hash", "count", "lower", 0},
	{"directory.access_ns", "ns", "lower", 0},
	{"directory.accesses", "count", "lower", 0},
	{"directory.cache_misses", "count", "lower", 0},
	{"network.send_ns", "ns", "lower", 0},
	{"network.transport_send_ns", "ns", "lower", 0},
	{"network.messages", "count", "lower", 0},
	{"network.bytes", "bytes", "lower", 0},
	{"network.retransmits", "count", "lower", 0},
	{"kernel.deliver_s", "s", "lower", 0},
	{"kernel.deliver_nested", "count", "lower", 0},
	{"kernel.pte_hit_ns", "ns", "lower", 0},
	{"kernel.faults", "count", "lower", 0},
	{"kernel.page_outs", "count", "lower", 0},
	{"kernel.conversions", "count", "lower", 0},
	{"kernel.tlb_misses", "count", "lower", 0},
	{"harness.tail_s", "s", "lower", 0},
	{"harness.pool_eff", "ratio", "higher", 0},
	{"server.miss_s", "s", "lower", 0},
	{"server.miss_accept_ms", "ms", "lower", 0},
	{"server.post_ms", "ms", "lower", 0},
	{"server.csv_ms", "ms", "lower", 0},
	{"server.hit_p50_ms", "ms", "lower", 0},
	{"server.hit_p90_ms", "ms", "lower", 0},
	{"server.cache_hits", "requests", "higher", 0},
	{"server.cache_misses", "requests", "lower", 0},
	{"host.alloc_mb", "MB", "lower", 0},
	{"host.speed", "ratio", "higher", 0},
	{"host.wall_s", "s", "lower", 0},
	{"attr.explained_frac", "ratio", "higher", 0},
	{"attr.residual_s", "s", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// exact reports whether a metric is a simulated statistic: the
// deterministic model repeats it exactly, so a host-only change must
// leave it identical. prismd's cache counters count requests, not model
// work, and may differ by one between passes (see gatewayInstance.pass).
func (m metric) exact() bool {
	return m.Unit == "count" || m.Unit == "cycles" || m.Unit == "bytes"
}
