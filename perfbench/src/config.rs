//! Fixed benchmark constants.  Every later comparison relies on these staying
//! put: a change to any of them is a change of the benchmark, measured again
//! at the parent commit before any claim is made against it.

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed, not used while tuning, for confirming a claimed gain.
pub const CONFIRM_SEED: u64 = 7919;

/// Closed-loop clients / open-loop connections; capped at the host's cores.
pub const MAX_CLIENTS: usize = 2;
/// Sessions of every engine under test.
pub const SESSIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// `native_cold`: build ⨝ probe tuples, uniform keys, selectivity 1.
pub const NATIVE_BUILD: usize = 128 * 1024;
pub const NATIVE_PROBE: usize = 512 * 1024;

/// `cached_skew`: registered tables, their size, probe batch size, distinct
/// probe batches, and the request period of a re-registration.
pub const CACHED_TABLES: usize = 4;
pub const CACHED_TABLE_TUPLES: usize = 256 * 1024;
pub const CACHED_BATCH: usize = 32 * 1024;
pub const CACHED_BATCHES: usize = 4;
pub const CACHED_REREGISTER_EVERY: u64 = 50;

/// `tcp_mixed`: inline join sizes, registered table, Zipf probe, and the
/// number of distinct inputs of each kind.
pub const TCP_INLINE_BUILD: usize = 2 * 1024;
pub const TCP_INLINE_PROBE: usize = 4 * 1024;
pub const TCP_TABLE_TUPLES: usize = 256 * 1024;
pub const TCP_REF_PROBE: usize = 16 * 1024;
pub const TCP_ZIPF_EXPONENT: f64 = 1.0;
pub const TCP_INPUTS: usize = 8;
/// Fixed open-loop rates (requests/s), set once at ~30 % and ~75 % of the
/// ~620 requests/s the mix sustains within the SLO on a 2-core x86-64 host.
/// Never re-derived per run.
pub const RATE_LO: f64 = 190.0;
pub const RATE_HI: f64 = 465.0;
/// Ladder of offered rates for `max_rps_under_slo`: rung `i` offers
/// `LADDER_BASE × LADDER_STEP^i` requests/s, each step < 10 % above the last.
/// The ladder spans 300–952 requests/s.
pub const LADDER_BASE: f64 = 300.0;
pub const LADDER_STEP: f64 = 1.08;
pub const LADDER_RUNGS: usize = 16;
/// Latency objective of the ladder: p99 at or under this.
pub const SLO_P99_MS: f64 = 50.0;
/// Largest share of failed requests a passing rung may have.
pub const SLO_MAX_FAILED: f64 = 0.01;
/// Seconds of each ladder rung.
pub const RUNG_SECS: f64 = 1.4;

/// `spill_half`: input sizes and the memory budget as a share of the
/// inputs' resident footprint.
pub const SPILL_BUILD: usize = 256 * 1024;
pub const SPILL_PROBE: usize = 512 * 1024;
pub const SPILL_BUDGET_SHARE: f64 = 0.5;

/// Runnable workloads.  `tcp_mixed` is not in `BENCHMARK.json`: on a shared
/// 2-vCPU VM its throughput and tail latency spread 30–50 % between runs
/// (its many short sleeps and wake-ups draw 20–30 % hypervisor steal, the
/// closed-loop workloads 4–14 %), so no bound would hold it.  It stays
/// runnable for serving work; the `serve` and `wire` layers are probed in
/// every workload's traced run.
pub const WORKLOADS: [&str; 4] = ["native_cold", "cached_skew", "tcp_mixed", "spill_half"];

/// End-to-end metrics and their units, reported by every workload with
/// tracing off; the same list as `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("joins_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics and their units, reported by every workload with
/// tracing on; the same list as `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("native.build_ns_per_tuple", "ns"),
    ("native.probe_ns_per_tuple", "ns"),
    ("native.materialize_ns_per_pair", "ns"),
    ("engine.overhead_ms", "ms"),
    ("engine.trivial_submit_us", "us"),
    ("pipeline.run_us_per_task", "us"),
    ("pipeline.busy_ratio", "ratio"),
    ("pipeline.steal_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.cold_ms", "ms"),
    ("cache.hot_ms", "ms"),
    ("cache.register_us", "us"),
    ("cache.bytes_per_tuple", "B"),
    ("spill.bytes_written_per_input_byte", "ratio"),
    ("spill.overhead_ratio", "ratio"),
    ("spill.partitions_spilled", "count"),
    ("spill.recursion_depth", "count"),
    ("spill.grant_denials", "count"),
    ("wire.request_encode_ns_per_tuple", "ns"),
    ("wire.request_decode_ns_per_tuple", "ns"),
    ("wire.chunk_codec_ns_per_pair", "ns"),
    ("serve.roundtrip_overhead_ms", "ms"),
    ("serve.inline_p50_ms", "ms"),
    ("serve.inline_p99_ms", "ms"),
    ("serve.ref_p50_ms", "ms"),
    ("serve.ref_p99_ms", "ms"),
    ("serve.shed_ratio.deadline", "ratio"),
    ("serve.shed_ratio.quota", "ratio"),
    ("serve.shed_ratio.queue_budget", "ratio"),
    ("serve.shed_ratio.saturated", "ratio"),
    ("serve.batch_mean", "requests"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("engine.self_ms", "ms"),
    ("native.self_ms", "ms"),
    ("pipeline.self_ms", "ms"),
    ("cache.self_ms", "ms"),
    ("spill.self_ms", "ms"),
    ("wire.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("loadgen.self_ms", "ms"),
];

/// Layers whose self time the traced run reports.
pub const TRACED_LAYERS: [&str; 8] = [
    "engine", "native", "pipeline", "cache", "spill", "wire", "serve", "loadgen",
];
