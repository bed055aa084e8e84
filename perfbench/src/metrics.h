// The metric vocabulary of the engine benchmark: every name the binary can
// emit, with its unit. BENCHMARK.json declares the same names; run.py and
// perfbench/tests check that the two agree.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Emitted by every untraced run (--trace 0).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ingest_tps", "tuples/s"},
    {"results_per_s", "results/s"},
    {"latency_p50_us", "us"},
    {"peak_rss_mb", "MiB"},
    {"churn_ms", "ms"},
    {"checkpoint_ms", "ms"},
    {"restore_ms", "ms"},
};

// Emitted by every traced run (--trace 1).
inline constexpr MetricDef kPerLayer[] = {
    {"api.push_us_p50", "us"},
    {"api.push_us_p99", "us"},
    {"api.overhead_us_per_tuple", "us"},
    {"api.finish_ms", "ms"},
    {"api.register_ms_p50", "ms"},
    {"api.unregister_ms_p50", "ms"},
    {"api.churn_tail_ms", "ms"},
    {"api.migrations", "count"},
    {"api.rebuilds", "count"},
    {"api.snapshot_bytes_per_state_tuple", "B/tuple"},
    {"query.parse_us_p50", "us"},
    {"core.chain_spec_us", "us"},
    {"core.plan_build_ms", "ms"},
    {"core.sharded_plan_build_ms", "ms"},
    {"ops.probe_cmp_per_tuple", "cmp/tuple"},
    {"ops.purge_cmp_per_tuple", "cmp/tuple"},
    {"ops.route_cmp_per_tuple", "cmp/tuple"},
    {"ops.union_cmp_per_tuple", "cmp/tuple"},
    {"ops.key_lookups_per_tuple", "1/tuple"},
    {"ops.entry_visits_per_tuple", "1/tuple"},
    {"ops.index_upkeep_per_tuple", "1/tuple"},
    {"ops.results_per_tuple", "results/tuple"},
    {"ops.state_tuples_peak", "tuples"},
    {"ops.state_tuples_avg", "tuples"},
    {"ops.insert_ns", "ns"},
    {"ops.probe_ns", "ns"},
    {"ops.purge_ns", "ns"},
    {"rt.events_per_tuple", "events/tuple"},
    {"rt.sched_us_per_tuple", "us"},
    {"rt.ring_events_per_tuple", "events/tuple"},
    {"rt.ring_hwm", "events"},
    {"rt.steals_per_ktuple", "1/ktuple"},
    {"rt.spills_per_ktuple", "1/ktuple"},
    {"rt.spsc_ns_per_event", "ns"},
    {"common.allocs_per_tuple", "1/tuple"},
    {"common.alloc_bytes_per_tuple", "B/tuple"},
    {"api.latency_p99_phase_us", "us"},
    {"harness.gen_lag_p99_us", "us"},
    {"harness.callback_ns", "ns"},
    {"harness.trace_overhead_frac", "ratio"},
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
