package main

import "strings"

// The ledger reports two clocks and never mixes them. A metric on the
// modeled clock is a pure function of the workload seed and repeats
// exactly; a metric on the real clock is the simulator process's own
// time or memory, is noisy, and is repeated and bounded.
const (
	clockReal    = "real"
	clockModeled = "modeled"
)

// metricDef names one metric, its unit and direction. Per-layer metrics
// carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string
	// Bound is the share of the old value by which an end-to-end metric
	// may worsen before that is a regression: the one bound of the
	// metric, declared in BENCHMARK.json and applied by -compare. It is
	// sized for BENCHMARK.json's gate, which compares medians of runs at
	// different seeds and can only accept or reject, so it has to clear
	// what this box showed: minutes-long phases in which every workload
	// runs 20–50 % slower, and the seed-to-seed variation of the modeled
	// metrics (README, findings 5 and 6). On top of the bound, a metric
	// on the modeled clock must be exactly equal at an equal seed:
	// between the repetitions of one run, and in -compare.
	//
	// Bound is 0 on the three metrics BENCHMARK.json cannot gate. Its
	// end_to_end metrics must exist on every workload, never read 0, and
	// spread less than the bound over ten seeds. modeled_slo_rate has no
	// value on the three workloads without a ladder; failed_frac is 0
	// whenever the run is correct (the result line's failed and
	// attempted fields carry it); and modeled_p99_s moves 25–50 % from
	// seed to seed on stm_* at the per-tasklet resolution the exported
	// stats give (README, finding 10), while modeled_p50_s, gated, moves
	// 4 %. The three are declared with the per-layer set there; -compare
	// holds them, like every modeled metric, to equality at a seed
	// (failed_frac may also fall).
	Bound float64
}

// gated reports whether BENCHMARK.json lists the metric under
// end_to_end, emitted by --trace 0, and not under per_layer, emitted by
// --trace 1.
func (d metricDef) gated() bool { return d.Bound > 0 }

// endToEnd is the ledger's end-to-end set.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Clock: clockReal, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: clockReal, Bound: 0.25},
	{Name: "real_ops_per_s", Unit: "1/s", Better: "higher", Clock: clockReal, Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Clock: clockReal, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Clock: clockReal, Bound: 0.05},
	{Name: "modeled_tput", Unit: "1/s", Better: "higher", Clock: clockModeled, Bound: 0.25},
	{Name: "modeled_p50_s", Unit: "s", Better: "lower", Clock: clockModeled, Bound: 0.25},
	{Name: "modeled_p99_s", Unit: "s", Better: "lower", Clock: clockModeled},
	{Name: "modeled_slo_rate", Unit: "1/s", Better: "higher", Clock: clockModeled},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Clock: clockModeled},
}

// perLayer lists every per-layer metric, layer by layer, in the order
// bench/README.md tabulates them. Layer names are the repo's packages
// and types; a metric's layer is the part of its name before the first
// dot. Counts come from exported stats and repeat exactly; times come
// from spans the benchmark records around its calls into the layer.
var perLayer = []metricDef{
	// internal/dpu
	{Name: "dpu.new_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "dpu.run_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "dpu.cycles", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "dpu.dma_transfers", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "dpu.dma_bytes", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "dpu.cycles_per_real_s", Unit: "1/s", Better: "higher", Clock: clockReal},
	{Name: "dpu.probe_access_ns_t1", Unit: "ns", Better: "lower", Clock: clockReal},
	{Name: "dpu.probe_access_ns_t11", Unit: "ns", Better: "lower", Clock: clockReal},
	{Name: "dpu.probe_new_ms_8m", Unit: "ms", Better: "lower", Clock: clockReal},
	{Name: "dpu.probe_new_ms_64m", Unit: "ms", Better: "lower", Clock: clockReal},
	{Name: "dpu.probe_reset_ms", Unit: "ms", Better: "lower", Clock: clockReal},
	{Name: "dpu.probe_mram_read_ns", Unit: "ns", Better: "lower", Clock: clockModeled},
	// internal/core
	{Name: "core.new_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "core.commits", Unit: "count", Better: "higher", Clock: clockModeled},
	{Name: "core.aborts", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "core.abort_frac", Unit: "ratio", Better: "lower", Clock: clockModeled},
	{Name: "core.aborts_lock_busy", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "core.aborts_validation", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "core.aborts_upgrade", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "core.aborts_read_lock_busy", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "core.reads", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "core.writes", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "core.real_ns_per_txop", Unit: "ns", Better: "lower", Clock: clockReal},
	{Name: "core.real_us_per_commit", Unit: "us", Better: "lower", Clock: clockReal},
	{Name: "core.phase_frac.reading", Unit: "ratio", Better: "lower", Clock: clockModeled},
	{Name: "core.phase_frac.writing", Unit: "ratio", Better: "lower", Clock: clockModeled},
	{Name: "core.phase_frac.validate_exec", Unit: "ratio", Better: "lower", Clock: clockModeled},
	{Name: "core.phase_frac.other_exec", Unit: "ratio", Better: "lower", Clock: clockModeled},
	{Name: "core.phase_frac.validate_commit", Unit: "ratio", Better: "lower", Clock: clockModeled},
	{Name: "core.phase_frac.other_commit", Unit: "ratio", Better: "lower", Clock: clockModeled},
	{Name: "core.phase_frac.wasted", Unit: "ratio", Better: "lower", Clock: clockModeled},
	{Name: "core.tier_gain", Unit: "ratio", Better: "higher", Clock: clockModeled},
	// internal/workloads
	{Name: "workloads.setup_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "workloads.verify_s", Unit: "s", Better: "lower", Clock: clockReal},
	// host.Fleet
	{Name: "fleet.rounds", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "fleet.launch_modeled_s", Unit: "s", Better: "lower", Clock: clockModeled},
	{Name: "fleet.transfer_modeled_s", Unit: "s", Better: "lower", Clock: clockModeled},
	{Name: "fleet.quiescent_modeled_s", Unit: "s", Better: "lower", Clock: clockModeled},
	{Name: "fleet.pipeline_gain", Unit: "ratio", Better: "higher", Clock: clockModeled},
	{Name: "fleet.probe_round_us_8", Unit: "us", Better: "lower", Clock: clockReal},
	{Name: "fleet.probe_round_us_64", Unit: "us", Better: "lower", Clock: clockReal},
	// host.PartitionedMap
	{Name: "partmap.new_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "partmap.preload_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "partmap.batches", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "partmap.batch_apply_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "partmap.host_classify_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "partmap.host_route_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "partmap.host_shadow_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "partmap.host_compile_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "partmap.kernel_round_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "partmap.txns_coordinated", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "partmap.coordinated_frac", Unit: "ratio", Better: "lower", Clock: clockModeled},
	{Name: "partmap.gather_modeled_s", Unit: "s", Better: "lower", Clock: clockModeled},
	{Name: "partmap.apply_modeled_s", Unit: "s", Better: "lower", Clock: clockModeled},
	{Name: "partmap.writeback_modeled_s", Unit: "s", Better: "lower", Clock: clockModeled},
	{Name: "partmap.guard_aborts", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "partmap.split_reconciles", Unit: "count", Better: "lower", Clock: clockModeled},
	// host.Scheduler / host.Submitter
	{Name: "scheduler.admit_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "scheduler.admits", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "scheduler.probe_admit_ns", Unit: "ns", Better: "lower", Clock: clockReal},
	{Name: "scheduler.probe_admit_ns_lane", Unit: "ns", Better: "lower", Clock: clockReal},
	{Name: "submitter.submit_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "submitter.close_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "submitter.wait_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "submitter.self_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "submitter.size_flushes", Unit: "count", Better: "higher", Clock: clockModeled},
	{Name: "submitter.delay_flushes", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "submitter.drain_flushes", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "submitter.mean_batch_ops", Unit: "count", Better: "higher", Clock: clockModeled},
	{Name: "submitter.confined_batches", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "submitter.coordinated_batches", Unit: "count", Better: "lower", Clock: clockModeled},
	// host.Serve's own work, done here by the benchmark's serving loop
	{Name: "serve.percentiles_s", Unit: "s", Better: "lower", Clock: clockReal},
	// host.Rebalancer
	{Name: "rebalancer.windows_evaluated", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "rebalancer.windows_acted", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "rebalancer.keys_migrated", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "rebalancer.keys_replicated", Unit: "count", Better: "lower", Clock: clockModeled},
	{Name: "rebalancer.keys_split", Unit: "count", Better: "lower", Clock: clockModeled},
	// host.GenerateTraffic / internal/workload
	{Name: "traffic.generate_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "traffic.txns", Unit: "count", Better: "higher", Clock: clockModeled},
	{Name: "workload.check_s", Unit: "s", Better: "lower", Clock: clockReal},
	// The child process as a whole, from the Go runtime's counters.
	{Name: "process.mallocs", Unit: "count", Better: "lower", Clock: clockReal},
	{Name: "process.alloc_mb", Unit: "MiB", Better: "lower", Clock: clockReal},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower", Clock: clockReal},
	// The machine around the traced run: its canary speed as a share of
	// the reference machine's. Per-layer times are as the clock read
	// them; multiply by this to compare them across runs.
	{Name: "machine.speed", Unit: "ratio", Better: "higher", Clock: clockReal},
	// The traced run itself.
	{Name: "trace.wall_s", Unit: "s", Better: "lower", Clock: clockReal},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Clock: clockReal},
	{Name: "trace.coverage_frac", Unit: "ratio", Better: "higher", Clock: clockReal},
}

// setupSpans are the spans whose time is setup_s: trace generation,
// DPU/TM/workload construction, store construction and preload. Users
// pay them on every sweep cell, so they stay inside wall_s and are also
// shown alone, so that work moved into set-up shows.
var setupSpans = map[string]bool{
	"traffic.generate": true,
	"dpu.new":          true,
	"core.new":         true,
	"workloads.setup":  true,
	"partmap.new":      true,
	"partmap.preload":  true,
}

// isProbe reports whether a per-layer metric is a layer microbenchmark,
// measured by the probe child and kept out of the end-to-end set.
func isProbe(name string) bool { return strings.Contains(name, ".probe_") }

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
