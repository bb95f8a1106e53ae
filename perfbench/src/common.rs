//! Shared pieces of the workloads: engines, the closed-loop clients, result
//! checks, resource-release checks and host facts.

use crate::config::{MAX_CLIENTS, SESSIONS};
use crate::trace::{maybe_span, SpanCtx, Tracer};
use datagen::Relation;
use hj_core::{EngineConfig, JoinEngine, JoinOutcome};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Spans and spill files go here, inside the checkout.
    pub out_dir: PathBuf,
}

impl Env {
    pub fn spill_dir(&self) -> PathBuf {
        self.out_dir.join("spill")
    }
}

/// Host cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An independent seed for input stream `stream` of a run seeded `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 over the pair: nearby seeds give unrelated streams.
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Client threads (closed loop) or connections (open loop).
pub fn clients() -> usize {
    MAX_CLIENTS.min(nproc()).max(1)
}

/// A native engine admitting `build ⨝ probe`, with [`SESSIONS`] sessions
/// and one worker per core.
pub fn native_engine(build: usize, probe: usize, budget: Option<usize>) -> Arc<JoinEngine> {
    let mut config = EngineConfig::for_tuples(build, probe).sessions(SESSIONS);
    if let Some(bytes) = budget {
        config = config.memory_budget(bytes);
    }
    Arc::new(JoinEngine::native(config).expect("valid engine configuration"))
}

/// The expected result of one input: match count and, for collected pairs,
/// the order-independent checksum of the reference pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub matches: u64,
    pub checksum: Option<u64>,
}

impl Expected {
    /// Count-only reference.
    pub fn count(build: &Relation, probe: &Relation) -> Self {
        Expected {
            matches: hj_core::reference_match_count(build, probe),
            checksum: None,
        }
    }

    /// Reference with the pair checksum.
    pub fn pairs(build: &Relation, probe: &Relation) -> Self {
        let pairs = hj_core::reference_pairs(build, probe);
        Expected {
            matches: pairs.len() as u64,
            checksum: Some(crate::stats::pair_checksum(&pairs)),
        }
    }

    /// Compares a result against the reference.
    pub fn check(&self, matches: u64, pairs: Option<&[(u32, u32)]>) -> Op {
        if matches != self.matches {
            return Op::Wrong(format!("{matches} matches, expected {}", self.matches));
        }
        match (self.checksum, pairs) {
            (None, _) => Op::Ok,
            (Some(_), None) => Op::Wrong("pairs missing".to_string()),
            (Some(want), Some(p)) => {
                if p.len() as u64 != self.matches {
                    Op::Wrong(format!("{} pairs, expected {}", p.len(), self.matches))
                } else if crate::stats::pair_checksum(p) != want {
                    Op::Wrong("pair checksum differs from the reference".to_string())
                } else {
                    Op::Ok
                }
            }
        }
    }

    /// Checks an engine outcome (or its error).
    pub fn check_outcome(&self, result: Result<JoinOutcome, hj_core::JoinError>) -> Op {
        match result {
            Ok(out) => self.check(out.matches, out.pairs.as_deref()),
            Err(e) => Op::Failed(e.to_string()),
        }
    }
}

/// The verdict on one operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Ok,
    /// A result that differs from the reference.
    Wrong(String),
    /// An error, shed or timeout.
    Failed(String),
}

/// `Ok` for a correct operation, otherwise what went wrong in `what`.
///
/// # Errors
/// The operation's problem, prefixed with `what`.
pub fn expect_ok(what: &str, op: Op) -> Result<(), String> {
    match op {
        Op::Ok => Ok(()),
        Op::Wrong(why) | Op::Failed(why) => Err(format!("{what}: {why}")),
    }
}

/// Operation counts and latencies of one measured phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub latencies_ms: Vec<f64>,
    pub first_problem: Option<String>,
}

impl Tally {
    pub fn record(&mut self, op: Op, latency_ms: f64) {
        self.attempted += 1;
        match op {
            Op::Ok => self.latencies_ms.push(latency_ms),
            Op::Wrong(why) => {
                self.failed += 1;
                self.wrong += 1;
                self.first_problem
                    .get_or_insert(format!("wrong result: {why}"));
            }
            Op::Failed(why) => {
                self.failed += 1;
                self.first_problem.get_or_insert(format!("failed: {why}"));
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.latencies_ms.extend(other.latencies_ms);
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
    }
}

/// A closed-loop phase: counts, latencies and its wall time.
#[derive(Debug)]
pub struct LoopResult {
    pub tally: Tally,
    pub elapsed_s: f64,
    /// When each correct operation completed, in seconds from the start.
    pub done_at_s: Vec<f64>,
}

impl LoopResult {
    /// Median completion rate over the phase's equal windows of about one
    /// second: a burst of host noise in a few windows does not move it.
    pub fn rate(&self) -> f64 {
        let windows = (self.elapsed_s as usize).max(1);
        let window = self.elapsed_s / windows as f64;
        let mut counts = vec![0usize; windows];
        for &t in &self.done_at_s {
            counts[((t / window) as usize).min(windows - 1)] += 1;
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / window).collect();
        crate::stats::median(&rates)
    }
}

/// Runs [`clients`] closed-loop clients for `duration`.  `op(client, seq,
/// ctx)` performs one operation; `seq` numbers operations across clients.  Each
/// operation is a root `loadgen.op` span when tracing.
pub fn closed_loop<F>(duration: Duration, tracer: Option<&Tracer>, op: F) -> LoopResult
where
    F: Fn(usize, u64, SpanCtx) -> Op + Sync,
{
    let seq = AtomicU64::new(0);
    let total = Mutex::new((Tally::default(), Vec::new()));
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|scope| {
        for client in 0..clients() {
            let (seq, total, op) = (&seq, &total, &op);
            scope.spawn(move || {
                let mut tally = Tally::default();
                let mut done = Vec::new();
                while Instant::now() < deadline {
                    let n = seq.fetch_add(1, Ordering::Relaxed);
                    let root = tracer.map_or_else(SpanCtx::default, Tracer::new_request);
                    let t0 = Instant::now();
                    let verdict = maybe_span(tracer, root, "loadgen.op", |ctx| op(client, n, ctx));
                    if verdict == Op::Ok {
                        done.push(start.elapsed().as_secs_f64());
                    }
                    tally.record(verdict, t0.elapsed().as_secs_f64() * 1e3);
                }
                let mut total = total
                    .lock()
                    .expect("tally lock poisoned by a panicking client");
                total.0.absorb(tally);
                total.1.extend(done);
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let (tally, done_at_s) = total.into_inner().expect("tally lock poisoned");
    LoopResult {
        tally,
        elapsed_s,
        done_at_s,
    }
}

/// Runs `f` `n` times and returns the median wall time in seconds.
pub fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Files left in `dir` (0 when it does not exist).
pub fn files_in(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| entries.count())
}

/// Checks that a finished workload gave every resource back: no spill file
/// left in the engine's spill directory and, once the engine is dropped, no
/// byte still granted by its memory broker.
///
/// # Errors
/// A description of the first leak found.
pub fn check_released(engine: Arc<JoinEngine>) -> Result<(), String> {
    if let Some(dir) = engine.spill_dir() {
        let left = files_in(dir);
        if left > 0 {
            return Err(format!("{left} spill files left in {}", dir.display()));
        }
    }
    let broker = engine.memory_broker().clone();
    let engine = Arc::try_unwrap(engine).map_err(|_| "engine still shared after the workload")?;
    drop(engine);
    match broker.granted() {
        0 => Ok(()),
        bytes => Err(format!("{bytes} bytes still granted by the memory broker")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_the_median_window() {
        // Five completions in each one-second window but one stalled window.
        let done_at_s = (0..10)
            .filter(|&w| w != 3)
            .flat_map(|w| (0..5).map(move |k| f64::from(w) + 0.1 * f64::from(k) + 0.05))
            .collect();
        let result = LoopResult {
            tally: Tally::default(),
            elapsed_s: 10.0,
            done_at_s,
        };
        assert_eq!(result.rate(), 5.0);
    }

    #[test]
    fn checks_compare_counts_and_pair_checksums() {
        let build = Relation::from_keys(vec![1, 2, 2]);
        let probe = Relation::from_keys(vec![2, 3]);
        let expected = Expected::pairs(&build, &probe);
        assert_eq!(expected.matches, 2);
        assert_eq!(expected.check(2, Some(&[(2, 0), (1, 0)])), Op::Ok);
        assert!(matches!(expected.check(1, Some(&[(1, 0)])), Op::Wrong(_)));
        assert!(matches!(
            expected.check(2, Some(&[(1, 0), (1, 0)])),
            Op::Wrong(_)
        ));
        assert!(matches!(expected.check(2, None), Op::Wrong(_)));
        assert_eq!(Expected::count(&build, &probe).check(2, None), Op::Ok);
    }
}
