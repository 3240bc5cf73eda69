package main

// The benchmark's metric tables. Host metrics say what the simulator
// costs to run; virt metrics say what the modelled cluster would take.
// Every name says which. BENCHMARK.json restates these tables for the
// driver; the package test fails if the two disagree.

// exact marks a metric that must repeat exactly between two runs of one
// commit at one seed: every simulated statistic of a deterministic
// simulator.
const exact = 0

type endToEndMetric struct {
	name, unit string
	better     string
	// bound is the share by which the metric may get worse between two
	// runs at one seed before a change counts as a regression; exact for
	// simulated statistics. -repeat judges spreads against it.
	bound float64
	// driverBound is the metric's bound in BENCHMARK.json, 0 if the metric
	// is not in its end_to_end list. The driver gives every run another
	// seed and runs the sets minutes apart, so these bounds cover the
	// spread between seeds and the host's drift as well (README.md).
	driverBound float64
	// fastest marks a host time, reported as the fastest of the timed
	// iterations and not their median. Everything that disturbs a timing on
	// a shared host makes it longer, and for tens of seconds at a stretch
	// (this one runs 30–45 % slower in such phases), so that a run's median
	// iteration is slow whenever half of the run was, its fastest only when
	// all of it was: over ten runs the quartiles of the fastest stay clear
	// of the slow phases far more often (README.md, "Steadiness").
	fastest bool
	// on lists the workloads the metric applies to; nil means all.
	on []string
}

// endToEnd are the 13 metrics a user of the system sees: someone
// regenerating the paper's tables pays host time, CPU and memory; someone
// evaluating a design change reads simulated time, latency and rate, and
// trusts them only while the simulator reproduces the paper's constants.
var endToEnd = []endToEndMetric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.10, driverBound: 0.25, fastest: true},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.10, driverBound: 0.25, fastest: true},
	{name: "host_allocs", unit: "count", better: "lower", bound: 0.02, driverBound: 0.15},
	{name: "host_alloc_mb", unit: "MB", better: "lower", bound: 0.02, driverBound: 0.15},
	{name: "host_peak_mb", unit: "MB", better: "lower", bound: 0.15, driverBound: 0.25},
	{name: "virt_ms", unit: "virt_ms", better: "lower", bound: exact},
	{name: "virt_req_p50_us", unit: "virt_us", better: "lower", bound: exact, on: serveFamily},
	{name: "virt_req_p999_us", unit: "virt_us", better: "lower", bound: exact, on: serveFamily},
	{name: "virt_goodput_krps", unit: "kreq/virt_s", better: "higher", bound: exact, on: serveFamily},
	{name: "virt_max_ok_krps", unit: "kreq/virt_s", better: "higher", bound: exact, on: []string{"serve"}},
	{name: "paper_err_pct", unit: "%", better: "lower", bound: exact, on: []string{"suite"}},
	{name: "fail_share", unit: "ratio", better: "lower", bound: exact},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, driverBound: 0.25},
}

var serveFamily = []string{"serve", "serve_cores", "serve_chaos"}

// forDriver reports whether the metric is in BENCHMARK.json's end_to_end
// list. The driver's contract wants every end-to-end metric from every
// workload, never 0, and no time that reads the same on every run; the
// host metrics qualify. The simulated ones apply to some workloads only,
// are 0 when all is well, or — suite ignores the seed — repeat exactly;
// they ride in the per_layer list instead, where a zero on a workload they
// do not apply to is allowed, and are gated by -repeat and the
// stats_fingerprint comparison rather than by the driver.
func (m endToEndMetric) forDriver() bool { return m.driverBound > 0 }

func (m endToEndMetric) appliesTo(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

// Where a per-layer metric comes from.
const (
	srcCount   = "C" // exact count from core.Report / serve.Report of the traced run
	srcVirt    = "V" // simulated time from the recorder's histograms
	srcHost    = "H" // host CPU from the traced run's CPU profile
	srcProbe   = "P" // layer probe, host cost per operation
	srcHarness = "-" // measured by the benchmark around the run
)

type layerMetric struct {
	name, unit, source string
}

// perLayer are the 104 per-layer metrics, grouped by the package they
// describe. None may be renamed without a benchmark issue: recorded
// baselines are compared by name.
var perLayer = []layerMetric{
	{"sim.events", "count", srcCount},
	{"sim.windows", "count", srcCount},
	{"sim.serialized_windows", "count", srcCount},
	{"sim.lanes_per_window", "lanes", srcCount},
	{"sim.host_share", "ratio", srcHost},
	{"sim.host_ns_per_event", "ns", srcHost},
	{"sim.dispatch_ns", "ns", srcProbe},
	{"sim.switch_ns", "ns", srcProbe},
	{"sim.switch_allocs", "allocs/op", srcProbe},
	{"sim.window_ns", "ns", srcProbe},
	{"sim.window_serial_ns", "ns", srcProbe},

	{"runtime.sched_share", "ratio", srcHost},
	{"runtime.gc_share", "ratio", srcHost},

	{"fabric.small_msgs", "count", srcCount},
	{"fabric.page_msgs", "count", srcCount},
	{"fabric.bytes", "count", srcCount},
	{"fabric.pool_waits", "count", srcCount},
	{"fabric.virt_msg_small_us", "virt_us", srcVirt},
	{"fabric.virt_msg_page_us", "virt_us", srcVirt},
	{"fabric.host_share", "ratio", srcHost},
	{"fabric.host_ns_per_msg", "ns", srcHost},
	{"fabric.send_small_ns", "ns", srcProbe},
	{"fabric.send_page_ns", "ns", srcProbe},

	{"dsm.read_faults", "count", srcCount},
	{"dsm.write_faults", "count", srcCount},
	{"dsm.coalesce_ratio", "ratio", srcCount},
	{"dsm.nack_ratio", "ratio", srcCount},
	{"dsm.invalidations", "count", srcCount},
	{"dsm.ownership_grants", "count", srcCount},
	{"dsm.retransmits", "count", srcCount},
	{"dsm.dups_ignored", "count", srcCount},
	{"dsm.forwards", "count", srcCount},
	{"dsm.origin_serve_share", "ratio", srcCount},
	{"dsm.pages_lost", "count", srcCount},
	{"dsm.dir_rebuilt", "count", srcCount},
	{"dsm.virt_fault_read_us", "virt_us", srcVirt},
	{"dsm.virt_fault_write_us", "virt_us", srcVirt},
	{"dsm.host_share", "ratio", srcHost},
	{"dsm.host_us_per_fault", "us", srcHost},
	{"dsm.fast_ns", "ns", srcProbe},
	{"dsm.slow_wi_us", "us", srcProbe},
	{"dsm.slow_home_us", "us", srcProbe},
	{"dsm.slow_dist_us", "us", srcProbe},
	{"dsm.slow_wi_allocs", "allocs/op", srcProbe},
	{"dsm.slow_home_allocs", "allocs/op", srcProbe},
	{"dsm.slow_dist_allocs", "allocs/op", srcProbe},
	{"dsm.prefetch_ns_per_page", "ns", srcProbe},

	{"mem.tlb_hits", "count", srcCount},
	{"mem.tlb_hit_ratio", "ratio", srcCount},
	{"mem.tlb_flushes", "count", srcCount},
	{"mem.frames_recycled_ratio", "ratio", srcCount},
	{"mem.host_share", "ratio", srcHost},
	{"mem.tlb_hit_ns", "ns", srcProbe},
	{"mem.walk_ns", "ns", srcProbe},

	{"core.migrations", "count", srcCount},
	{"core.delegations", "count", srcCount},
	{"core.vma_queries", "count", srcCount},
	{"core.virt_migrate_fwd_us", "virt_us", srcVirt},
	{"core.host_share", "ratio", srcHost},
	{"core.migrate_roundtrip_us", "us", srcProbe},
	{"core.rw_hit_ns", "ns", srcProbe},

	{"futex.host_share", "ratio", srcHost},
	{"futex.barrier_us", "us", srcProbe},

	{"obs.spans", "count", srcCount},
	{"obs.overhead_ratio", "ratio", srcHarness},
	{"obs.trace_mb", "MB", srcHarness},
	{"obs.export_s", "s", srcHarness},
	{"obs.host_share", "ratio", srcHost},
	{"obs.span_ns", "ns", srcProbe},
	{"obs.off_ns", "ns", srcProbe},

	{"chaos.dropped", "count", srcCount},
	{"chaos.duplicated", "count", srcCount},
	{"chaos.nodes_lost", "count", srcCount},
	{"chaos.threads_restarted", "count", srcCount},
	{"chaos.pages_restored", "count", srcCount},
	{"chaos.lease_suspects", "count", srcCount},
	{"chaos.host_share", "ratio", srcHost},

	{"serve.offered", "count", srcCount},
	{"serve.served", "count", srcCount},
	{"serve.shed_429", "count", srcCount},
	{"serve.shed_queue", "count", srcCount},
	{"serve.republishes", "count", srcCount},
	{"serve.reacks", "count", srcCount},
	{"serve.restarts", "count", srcCount},
	{"serve.virt_overrun_ms", "virt_ms", srcVirt},
	{"serve.virt_p999_us_r050", "virt_us", srcVirt},
	{"serve.virt_p999_us_r100", "virt_us", srcVirt},
	{"serve.virt_p999_us_r150", "virt_us", srcVirt},
	{"serve.virt_p999_us_r200", "virt_us", srcVirt},
	{"serve.virt_p999_us_wi", "virt_us", srcVirt},
	{"serve.virt_p999_us_home", "virt_us", srcVirt},
	{"serve.virt_p999_us_dist", "virt_us", srcVirt},
	{"serve.host_share", "ratio", srcHost},
	{"serve.host_us_per_req", "us", srcHost},

	{"load.schedule_s", "s", srcHarness},
	{"load.requests", "count", srcCount},

	{"apps.host_share", "ratio", srcHost},
	{"graph.host_share", "ratio", srcHost},
	{"textgen.host_share", "ratio", srcHost},

	{"exper.cells", "count", srcCount},
	{"exper.cell_parallelism", "ratio", srcHarness},
	{"exper.host_share", "ratio", srcHost},

	{"radix.host_share", "ratio", srcHost},
	{"other.host_share", "ratio", srcHost},
}

// hostShareName is the per-layer metric that carries a profile layer's
// share of the host CPU.
func hostShareName(layer string) string {
	switch layer {
	case "runtime.sched":
		return "runtime.sched_share"
	case "runtime.gc":
		return "runtime.gc_share"
	}
	return layer + ".host_share"
}
