//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, checks every result
//! against the reference join, and prints one line per metric followed by
//! a JSON result object as the last line of standard output.  With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs
//! the workload untraced and traced, probes every layer directly, and
//! reports the per-layer metrics and span self times.
//!
//! Exits 1 on a wrong result or a leaked memory grant or spill file, 2 on a
//! usage error.

mod cached_skew;
mod common;
mod config;
mod layers;
mod native_cold;
mod report;
mod spill_half;
mod stats;
mod tcp_mixed;
mod trace;
mod workload;

use common::{nproc, peak_rss_mb, Env};
use config::{END_TO_END, PER_LAYER, SESSIONS, SETUP_REPEATS, TRACED_LAYERS, WORKLOADS};
use layers::{cache_counts, PoolCounters};
use report::Report;
use stats::{median, percentile_label, quantile, tail_percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{self_time_by_layer, write_spans, Tracer};
use workload::{Measured, Workload};

const USAGE: &str = "usage: perfbench --workload <native_cold|cached_skew|tcp_mixed|spill_half> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Result<(String, Env), String> {
    let mut workload = None;
    let mut env = Env {
        seed: config::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => env.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                env.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?;
            }
            "--trace" => {
                env.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, env))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, env) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let verdict = match name.as_str() {
        "native_cold" => run(
            &name,
            native_cold::NativeCold::prepare(env.seed),
            &env,
            start,
        ),
        "cached_skew" => run(
            &name,
            cached_skew::CachedSkew::prepare(env.seed),
            &env,
            start,
        ),
        "tcp_mixed" => run(&name, tcp_mixed::TcpMixed::prepare(env.seed), &env, start),
        "spill_half" => run(&name, spill_half::SpillHalf::prepare(env.seed), &env, start),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    if verdict {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Adds the end-to-end metrics of an untraced pass.
fn end_to_end<W: Workload>(report: &mut Report, setup_s: &[f64], m: &Measured) {
    report.add_noted(
        "setup_s",
        median(setup_s),
        "s",
        setup_s.len(),
        "median set-up: engine/server, registration, cold builds, warm-up",
    );
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    report.add_noted(
        "joins_per_s",
        m.joins_per_s,
        "1/s",
        m.tally.latencies_ms.len(),
        &m.joins_note,
    );
    let mut note = m.latency_note.clone();
    report.add_noted(
        "latency_p50_ms",
        quantile(&m.p50_samples, 0.5).unwrap_or(0.0),
        "ms",
        m.p50_samples.len(),
        &note,
    );
    let q = tail_percentile(W::TAIL, m.tail_samples.len());
    if q < W::TAIL {
        note = format!(
            "{} — only {} samples: reporting {} instead of {}",
            note,
            m.tail_samples.len(),
            percentile_label(q),
            percentile_label(W::TAIL)
        );
    }
    report.add_noted(
        "latency_tail_ms",
        quantile(&m.tail_samples, q).unwrap_or(0.0),
        "ms",
        m.tail_samples.len(),
        &format!("{} {note}", percentile_label(q)),
    );
    for e in &m.extra {
        report.add_noted(&e.name, e.value, e.unit, e.samples, &e.note);
    }
    report.add(
        "failed_ratio",
        m.tally.failed as f64 / m.tally.attempted.max(1) as f64,
        "ratio",
        m.tally.attempted as usize,
    );
}

/// Sets up, measures and tears down one workload; prints the report.
/// Returns whether every result was correct and every resource released.
fn run<W: Workload>(name: &str, w: W, env: &Env, start: Instant) -> bool {
    let mut problems: Vec<String> = Vec::new();
    let budget = Duration::from_secs_f64(env.seconds);
    // An untraced run measures in rounds, each on the next fresh set-up:
    // speed differs between engine instances (the native backend settles
    // in one of a few modes up to ~20 % apart), so a run on one instance
    // would disagree with the next run.
    let rounds = if env.trace { 0 } else { W::ROUNDS };
    assert!(rounds <= SETUP_REPEATS, "more rounds than set-ups");
    let mut setup_s = Vec::new();
    let mut passes = Vec::new();
    let mut sut = None;
    for i in 0..SETUP_REPEATS {
        // Only one system under test exists at a time.
        if let Some(previous) = sut.take() {
            problems.extend(W::release(previous).err());
        }
        let t = Instant::now();
        let fresh = match w.setup(env) {
            Ok(fresh) => fresh,
            Err(e) => {
                println!("ERROR: set-up: {e}");
                println!("{}", Report::default().json(false, 1, 1, &[]));
                return false;
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        if i + rounds >= SETUP_REPEATS {
            passes.push(w.run(&fresh, budget / rounds as u32, None));
        }
        sut = Some(fresh);
    }
    let sut = sut.expect("at least one set-up");
    println!(
        "host: nproc={} | engine worker_threads={} sessions={} | workload={name} seed={} \
         seconds={} trace={} (confirm claims with --seed {})",
        nproc(),
        W::engine(&sut).config().effective_worker_threads(),
        SESSIONS,
        env.seed,
        env.seconds,
        u8::from(env.trace),
        config::CONFIRM_SEED,
    );

    let mut report = Report::default();
    let (tally, keep) = if env.trace {
        let untraced = w.run(&sut, budget / 2, None);
        let tracer = Tracer::default();
        let engine = W::engine(&sut);
        let (pool_before, cache_before) = (
            PoolCounters::read(engine.worker_pool()),
            cache_counts(engine),
        );
        let traced = w.run(&sut, budget / 2, Some(&tracer));
        let (pool_after, cache_after) = (
            PoolCounters::read(engine.worker_pool()),
            cache_counts(engine),
        );
        let inputs = layers::Inputs {
            build: w.layer_inputs().0,
            probe: w.layer_inputs().1,
            engine,
            pool_before,
            pool_after,
            cache_before,
            cache_after,
            env,
        };
        problems.extend(layers::probe_all(&inputs, &tracer, &mut report).err());
        report.add_noted(
            "trace_overhead_pct",
            (median(&traced.p50_samples) / median(&untraced.p50_samples) - 1.0) * 100.0,
            "%",
            traced.p50_samples.len(),
            "latency_p50_ms of the traced pass vs the untraced pass",
        );
        let spans = tracer.spans();
        let by_layer = self_time_by_layer(&spans);
        for layer in TRACED_LAYERS {
            let (self_ns, count) = by_layer.get(layer).copied().unwrap_or_default();
            report.add_noted(
                &format!("{layer}.self_ms"),
                self_ns as f64 / 1e6,
                "ms",
                count as usize,
                "span self time, traced pass + layer probes",
            );
        }
        let path = env
            .out_dir
            .join(format!("spans-{name}-seed{}.jsonl", env.seed));
        match write_spans(&path, &spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => problems.push(format!("could not write spans to {}: {e}", path.display())),
        }
        let mut tally = untraced.tally;
        tally.absorb(traced.tally);
        (tally, PER_LAYER)
    } else {
        let measured = Measured::merge(passes);
        end_to_end::<W>(&mut report, &setup_s, &measured);
        (measured.tally, END_TO_END)
    };
    problems.extend(W::release(sut).err());
    if let Some(problem) = &tally.first_problem {
        println!("first failure: {problem}");
    }
    for problem in &problems {
        println!("ERROR: {problem}");
    }

    let correct = tally.wrong == 0 && problems.is_empty();
    // A failed probe stops the probes after it; otherwise every declared
    // metric must be there.
    let missing = report.missing(keep);
    assert!(
        missing.is_empty() || !correct,
        "metrics not reported with their unit: {missing:?}"
    );
    print!("{}", report.human());
    println!("wall: {:.1} s", start.elapsed().as_secs_f64());
    println!(
        "{}",
        report.json(correct, tally.attempted, tally.failed, keep)
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let (w, env) = parse_args(&args(
            "--workload tcp_mixed --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, "tcp_mixed");
        assert_eq!((env.seed, env.seconds, env.trace), (9, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload native_cold --trace 2",
            "--workload native_cold --seconds 0",
            "--workload native_cold --seed x",
            "--workload native_cold --frobnicate 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn declared_lists_cover_the_workloads_and_layers() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed: Vec<&str> = spec
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|entry| entry.split_once("\", \"why\"").map(|(name, _)| name))
            .collect();
        assert_eq!(listed.len(), 3);
        for w in listed {
            assert!(WORKLOADS.contains(&w), "{w} is not runnable");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
        for layer in TRACED_LAYERS {
            let name = format!("{layer}.self_ms");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
