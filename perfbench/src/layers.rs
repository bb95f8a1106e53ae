//! Per-layer probes of the traced run: each layer's public functions called
//! directly, on the workload's own inputs, inside spans.

use crate::common::{check_released, expect_ok, median_secs, native_engine, Env, Expected};
use crate::config::RATE_LO;
use crate::native_cold::count_only;
use crate::report::Report;
use crate::spill_half::{half_budget, spill_request};
use crate::stats::{median, quantile};
use crate::tcp_mixed::TcpMixed;
use crate::trace::Tracer;
use crate::workload::Workload;
use datagen::Relation;
use hj_core::pipeline::SharedWorkerPool;
use hj_core::server::{WireChunk, WireRequest};
use hj_core::{
    arena_bytes_for, ExecBackend, ExecContext, JoinEngine, JoinOutcome, JoinRequest, NativeCpu,
    WorkerPool,
};
use std::time::Instant;

/// Repetitions of each timed probe; the median is reported.
const REPS: usize = 5;
/// Empty tasks per `WorkerPool::run` probe, and runs of it.
const POOL_TASKS: usize = 1024;
const POOL_RUNS: usize = 50;
/// 1 ⨝ 1 submissions of the trivial-join probe.
const TRIVIAL_SUBMITS: usize = 200;
/// Sequential idle requests of the serve round-trip probe.
const ROUNDTRIP_REPS: usize = 20;
/// Seconds of the open-loop serve probe at `RATE_LO`.
const SERVE_PROBE_SECS: f64 = 2.0;

/// Lifetime counters of a worker pool, summed over workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounters {
    busy_ns: u64,
    park_ns: u64,
    executed: u64,
    stolen: u64,
}

impl PoolCounters {
    pub fn read(pool: &WorkerPool) -> Self {
        PoolCounters {
            busy_ns: pool.busy_ns().iter().sum(),
            park_ns: pool.park_ns().iter().sum(),
            executed: pool.tasks_executed().iter().sum(),
            stolen: pool.tasks_stolen().iter().sum(),
        }
    }

    fn since(self, before: PoolCounters) -> PoolCounters {
        PoolCounters {
            busy_ns: self.busy_ns - before.busy_ns,
            park_ns: self.park_ns - before.park_ns,
            executed: self.executed - before.executed,
            stolen: self.stolen - before.stolen,
        }
    }
}

/// Cache hits and misses of an engine.
pub fn cache_counts(engine: &JoinEngine) -> (u64, u64) {
    let stats = engine.cache_stats();
    (stats.hits, stats.misses)
}

/// Times `f` inside a root span named `name`; returns its result and ns.
fn timed<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = tracer.span(tracer.new_request(), name, |_| f());
    (out, t.elapsed().as_nanos() as f64)
}

fn outcome(what: &str, r: Result<JoinOutcome, hj_core::JoinError>) -> Result<JoinOutcome, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Everything the probes need from the measured workload.
pub struct Inputs<'a> {
    pub build: &'a Relation,
    pub probe: &'a Relation,
    pub engine: &'a JoinEngine,
    /// Pool counters over the traced workload pass.
    pub pool_before: PoolCounters,
    pub pool_after: PoolCounters,
    /// Cache hits and misses over the traced workload pass.
    pub cache_before: (u64, u64),
    pub cache_after: (u64, u64),
    pub env: &'a Env,
}

/// Runs every layer probe and adds its metrics to `report`.
///
/// # Errors
/// A wrong result or a leaked resource in any probe.
pub fn probe_all(inputs: &Inputs<'_>, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let direct = native(inputs, tracer, report)?;
    engine(inputs, &direct, tracer, report)?;
    pipeline(inputs, tracer, report);
    cache(inputs, tracer, report)?;
    spill(inputs, tracer, report)?;
    wire(inputs, &direct.pairs, tracer, report)?;
    serve(inputs.env, tracer, report)
}

/// Median ns of the direct build, count-only probe and collecting probe,
/// and the collected pairs.
struct NativeTimes {
    build_ns: f64,
    probe_ns: f64,
    collect_ns: f64,
    pairs: Vec<(u32, u32)>,
}

fn native_direct(
    build: &Relation,
    probe: &Relation,
    workers: usize,
    tracer: &Tracer,
) -> Result<NativeTimes, String> {
    let backend = NativeCpu::new();
    let pool = SharedWorkerPool::new(workers);
    let count = count_only();
    let collect = JoinRequest::builder()
        .collect_results(true)
        .build()
        .expect("valid collecting request");
    let expected = Expected::count(build, probe);
    let sys = backend.system().clone();
    let context = |arena: usize, request: &JoinRequest| {
        ExecContext::new(&sys, request.config().allocator, arena, false)
            .with_morsel_tuples(request.config().morsel_tuples)
            .with_worker_pool(&pool)
    };
    let (mut build_ns, mut probe_ns, mut collect_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut pairs = Vec::new();
    for _ in 0..REPS {
        let mut ctx = context(arena_bytes_for(build.len(), 0), &count);
        let (table, ns) = timed(tracer, "native.build_cached", || {
            backend.build_cached(&mut ctx, build, &count)
        });
        let table = table.map_err(|e| format!("native build: {e}"))?;
        build_ns.push(ns);
        for (request, samples) in [(&count, &mut probe_ns), (&collect, &mut collect_ns)] {
            let mut ctx = context(arena_bytes_for(build.len(), probe.len()), request);
            let (out, ns) = timed(tracer, "native.probe_cached", || {
                backend.probe_cached(&mut ctx, &table, probe, request)
            });
            let out = outcome("native probe", out)?;
            expect_ok("native probe", expected.check(out.matches, None))?;
            samples.push(ns);
            if let Some(p) = out.pairs {
                pairs = p;
            }
        }
    }
    Ok(NativeTimes {
        build_ns: median(&build_ns),
        probe_ns: median(&probe_ns),
        collect_ns: median(&collect_ns),
        pairs,
    })
}

fn native(
    inputs: &Inputs<'_>,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<NativeTimes, String> {
    let workers = inputs.engine.config().effective_worker_threads();
    let times = native_direct(inputs.build, inputs.probe, workers, tracer)?;
    let note = format!(
        "{} ⨝ {} tuples, {workers} workers, median of {REPS}",
        inputs.build.len(),
        inputs.probe.len()
    );
    report.add_noted(
        "native.build_ns_per_tuple",
        times.build_ns / inputs.build.len() as f64,
        "ns",
        REPS,
        &note,
    );
    report.add_noted(
        "native.probe_ns_per_tuple",
        times.probe_ns / inputs.probe.len() as f64,
        "ns",
        REPS,
        "count-only",
    );
    report.add_noted(
        "native.materialize_ns_per_pair",
        (times.collect_ns - times.probe_ns) / times.pairs.len().max(1) as f64,
        "ns",
        REPS,
        &format!(
            "collecting minus count-only probe, {} pairs",
            times.pairs.len()
        ),
    );
    Ok(times)
}

fn engine(
    inputs: &Inputs<'_>,
    direct: &NativeTimes,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (build, probe) = (inputs.build, inputs.probe);
    let engine = native_engine(build.len(), probe.len(), None);
    let request = count_only();
    let expected = Expected::count(build, probe);
    let mut submit_ns = Vec::new();
    for _ in 0..REPS {
        let (out, ns) = timed(tracer, "engine.submit", || {
            engine.submit(&request, build, probe)
        });
        expect_ok("engine submit", expected.check_outcome(out))?;
        submit_ns.push(ns);
    }
    report.add_noted(
        "engine.overhead_ms",
        (median(&submit_ns) - direct.build_ns - direct.probe_ns) / 1e6,
        "ms",
        REPS,
        "ESTIMATE: submit minus direct build + probe; execute and the cached path are \
         separate code paths, so this also carries their difference",
    );

    let one = Relation::from_keys(vec![1]);
    let mut trivial_ns = Vec::new();
    for _ in 0..TRIVIAL_SUBMITS {
        let (out, ns) = timed(tracer, "engine.submit", || {
            engine.submit(&request, &one, &one)
        });
        expect_ok(
            "trivial submit",
            Expected {
                matches: 1,
                checksum: None,
            }
            .check_outcome(out),
        )?;
        trivial_ns.push(ns);
    }
    report.add_noted(
        "engine.trivial_submit_us",
        median(&trivial_ns) / 1e3,
        "us",
        TRIVIAL_SUBMITS,
        "1 ⨝ 1 join",
    );
    check_released(engine)
}

fn pipeline(inputs: &Inputs<'_>, tracer: &Tracer, report: &mut Report) {
    let pool = inputs.engine.worker_pool();
    let secs = median_secs(POOL_RUNS, || {
        tracer.span(tracer.new_request(), "pipeline.run", |_| {
            pool.run(POOL_TASKS, |_, _| ());
        });
    });
    report.add_noted(
        "pipeline.run_us_per_task",
        secs * 1e6 / POOL_TASKS as f64,
        "us",
        POOL_RUNS,
        &format!("{POOL_TASKS} empty tasks per run"),
    );
    let d = inputs.pool_after.since(inputs.pool_before);
    report.add_noted(
        "pipeline.busy_ratio",
        d.busy_ns as f64 / (d.busy_ns + d.park_ns).max(1) as f64,
        "ratio",
        d.executed as usize,
        "busy / (busy + parked) over the traced workload pass",
    );
    report.add_noted(
        "pipeline.steal_ratio",
        d.stolen as f64 / d.executed.max(1) as f64,
        "ratio",
        d.executed as usize,
        "stolen / executed tasks over the traced workload pass",
    );
}

fn cache(inputs: &Inputs<'_>, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let (build, probe) = (inputs.build, inputs.probe);
    let engine = native_engine(build.len(), probe.len(), None);
    let request = count_only();
    let expected = Expected::count(build, probe);
    let (mut register_ns, mut cold_ns, mut hot_ns, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut handles = Vec::new();
    for _ in 0..REPS {
        let tuples = build.clone();
        let (handle, ns) = timed(tracer, "cache.register_table", || {
            engine.register_table("probe", tuples)
        });
        register_ns.push(ns);
        let before = engine.cache_stats().bytes;
        for hot in [false, true, true, true] {
            let (out, ns) = timed(tracer, "cache.submit_cached", || {
                engine.submit_cached(&request, &handle, probe)
            });
            expect_ok("cached probe", expected.check_outcome(out))?;
            if hot {
                hot_ns.push(ns);
            } else {
                cold_ns.push(ns);
                bytes.push(engine.cache_stats().bytes.saturating_sub(before) as f64);
            }
        }
        handles.push(handle);
    }
    let (hits0, misses0) = inputs.cache_before;
    let (hits1, misses1) = inputs.cache_after;
    let (hits, base, note) = if misses1 + hits1 > misses0 + hits0 {
        (
            hits1 - hits0,
            hits1 + misses1 - hits0 - misses0,
            "over the traced workload pass",
        )
    } else {
        let (h, m) = cache_counts(&engine);
        (
            h,
            h + m,
            "the workload bypasses the cache: over the cache probe",
        )
    };
    report.add_noted(
        "cache.hit_ratio",
        hits as f64 / base.max(1) as f64,
        "ratio",
        base as usize,
        note,
    );
    report.add("cache.cold_ms", median(&cold_ns) / 1e6, "ms", REPS);
    report.add("cache.hot_ms", median(&hot_ns) / 1e6, "ms", hot_ns.len());
    report.add("cache.register_us", median(&register_ns) / 1e3, "us", REPS);
    report.add_noted(
        "cache.bytes_per_tuple",
        median(&bytes) / build.len() as f64,
        "B",
        REPS,
        "resident cache bytes one built table adds, as CacheStats reports them",
    );
    drop(handles);
    check_released(engine)
}

fn spill(inputs: &Inputs<'_>, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let (build, probe) = (inputs.build, inputs.probe);
    let expected = Expected::count(build, probe);
    let plain = native_engine(build.len(), probe.len(), None);
    let budgeted = native_engine(build.len(), probe.len(), Some(half_budget(build, probe)));
    let (plain_request, spill_req) = (count_only(), spill_request(&inputs.env.spill_dir()));
    let (mut plain_ns, mut spill_ns, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (out, ns) = timed(tracer, "engine.submit", || {
            plain.submit(&plain_request, build, probe)
        });
        expect_ok("unconstrained join", expected.check_outcome(out))?;
        plain_ns.push(ns);
        let (out, ns) = timed(tracer, "spill.submit", || {
            budgeted.submit(&spill_req, build, probe)
        });
        let out = outcome("spilling join", out)?;
        expect_ok("spilling join", expected.check(out.matches, None))?;
        spill_ns.push(ns);
        reports.push(out.spill.unwrap_or_default());
    }
    let input_bytes = ((build.len() + probe.len()) * datagen::TUPLE_BYTES) as f64;
    let written: Vec<f64> = reports.iter().map(|r| r.bytes_spilled as f64).collect();
    let mid = |f: fn(&hj_core::spill::SpillReport) -> u64| {
        median(&reports.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    report.add_noted(
        "spill.bytes_written_per_input_byte",
        median(&written) / input_bytes,
        "ratio",
        REPS,
        "budget = half the inputs' resident footprint",
    );
    report.add_noted(
        "spill.overhead_ratio",
        median(&spill_ns) / median(&plain_ns),
        "ratio",
        REPS,
        "spilling span / unconstrained span on the same input",
    );
    report.add(
        "spill.partitions_spilled",
        mid(|r| r.partitions_spilled),
        "count",
        REPS,
    );
    report.add(
        "spill.recursion_depth",
        mid(|r| u64::from(r.recursion_depth)),
        "count",
        REPS,
    );
    report.add(
        "spill.grant_denials",
        mid(|r| r.grant_denials),
        "count",
        REPS,
    );
    check_released(plain)?;
    check_released(budgeted)
}

fn wire(
    inputs: &Inputs<'_>,
    pairs: &[(u32, u32)],
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (build, probe) = (inputs.build, inputs.probe);
    let request = hj_core::server::RequestBuilder::new(build.clone(), probe.clone()).build();
    let tuples = (build.len() + probe.len()) as f64;
    let (mut enc_ns, mut dec_ns, mut chunk_ns) = (Vec::new(), Vec::new(), Vec::new());
    let chunk = WireChunk {
        id: 1,
        seq: 0,
        pairs: pairs.to_vec(),
    };
    for _ in 0..REPS {
        let (bytes, ns) = timed(tracer, "wire.encode", || request.encode());
        enc_ns.push(ns);
        let (decoded, ns) = timed(tracer, "wire.decode", || WireRequest::decode(&bytes));
        dec_ns.push(ns);
        if decoded.map_err(|e| format!("request decode: {e}"))? != request {
            return Err("request did not survive the codec".to_string());
        }
        let (back, ns) = timed(tracer, "wire.chunk_codec", || {
            WireChunk::decode(&chunk.encode())
        });
        chunk_ns.push(ns);
        if back.map_err(|e| format!("chunk decode: {e}"))? != chunk {
            return Err("chunk did not survive the codec".to_string());
        }
    }
    report.add(
        "wire.request_encode_ns_per_tuple",
        median(&enc_ns) / tuples,
        "ns",
        REPS,
    );
    report.add(
        "wire.request_decode_ns_per_tuple",
        median(&dec_ns) / tuples,
        "ns",
        REPS,
    );
    report.add_noted(
        "wire.chunk_codec_ns_per_pair",
        median(&chunk_ns) / pairs.len().max(1) as f64,
        "ns",
        REPS,
        &format!("encode + decode of {} pairs", pairs.len()),
    );
    Ok(())
}

fn serve(env: &Env, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let tcp = TcpMixed::prepare(env.seed);
    let sut = tcp.setup(env)?;
    let (wire_ns, local_ns) = tcp.roundtrip(&sut, ROUNDTRIP_REPS, tracer)?;
    report.add_noted(
        "serve.roundtrip_overhead_ms",
        (wire_ns - local_ns) / 1e6,
        "ms",
        ROUNDTRIP_REPS,
        "idle join_ref minus in-process submit_cached, same probe",
    );
    let stats0 = sut.server().stats();
    let phase = tcp.open_loop(&sut, RATE_LO, SERVE_PROBE_SECS, 3000, Some(tracer));
    let stats1 = sut.server().stats();
    if let Some(problem) = &phase.tally.first_problem {
        return Err(format!("serve probe: {problem}"));
    }
    let q = |s: &[f64], q: f64| quantile(s, q).unwrap_or(0.0);
    let note = format!("open loop at rate_lo = {RATE_LO} req/s for {SERVE_PROBE_SECS} s");
    report.add_noted(
        "serve.inline_p50_ms",
        q(&phase.inline_ms, 0.5),
        "ms",
        phase.inline_ms.len(),
        &note,
    );
    report.add(
        "serve.inline_p99_ms",
        q(&phase.inline_ms, 0.99),
        "ms",
        phase.inline_ms.len(),
    );
    report.add(
        "serve.ref_p50_ms",
        q(&phase.ref_ms, 0.5),
        "ms",
        phase.ref_ms.len(),
    );
    report.add(
        "serve.ref_p99_ms",
        q(&phase.ref_ms, 0.99),
        "ms",
        phase.ref_ms.len(),
    );
    let received = (stats1.requests_received - stats0.requests_received).max(1) as f64;
    let n = received as usize;
    report.add(
        "serve.shed_ratio.deadline",
        (stats1.shed_deadline - stats0.shed_deadline) as f64 / received,
        "ratio",
        n,
    );
    report.add(
        "serve.shed_ratio.quota",
        (stats1.shed_quota - stats0.shed_quota) as f64 / received,
        "ratio",
        n,
    );
    report.add(
        "serve.shed_ratio.queue_budget",
        (stats1.shed_queue_budget - stats0.shed_queue_budget) as f64 / received,
        "ratio",
        n,
    );
    report.add(
        "serve.shed_ratio.saturated",
        (stats1.shed_saturated - stats0.shed_saturated) as f64 / received,
        "ratio",
        n,
    );
    let batches = stats1.batches_dispatched - stats0.batches_dispatched;
    report.add_noted(
        "serve.batch_mean",
        (stats1.batched_requests - stats0.batched_requests) as f64 / batches.max(1) as f64,
        "requests",
        batches as usize,
        "requests per cross-connection batch",
    );
    report.add_noted(
        "loadgen.lag_p99_ms",
        phase.lag_p99(),
        "ms",
        phase.lag_ms.len(),
        &format!(
            "generator lag; a point above {} ms is invalid",
            crate::tcp_mixed::LAG_LIMIT_MS
        ),
    );
    TcpMixed::release(sut)
}
