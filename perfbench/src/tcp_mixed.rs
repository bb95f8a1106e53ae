//! `tcp_mixed`: open-loop Poisson traffic over loopback TCP against an
//! in-process `JoinServer`, through two `JoinClient` connections.
//!
//! Half the requests are inline count-only 2K ⨝ 4K joins (eligible for
//! cross-connection batching), half are `join_ref` requests: a 16K Zipf(1.0)
//! probe against a registered 256K table, with pairs streamed back.  Each
//! request does little join work, so frame codec, admission, batching and
//! socket writes are a large share of its latency.
//!
//! Latency is timed from each request's scheduled send time, so a stall
//! also charges the requests queued behind it.  The generator's own lag
//! (how late it handed a request over) is reported beside it.

use crate::common::{
    check_released, clients, closed_loop, expect_ok, native_engine, sub_seed, Env, Expected, Op,
    Tally,
};
use crate::config::{
    LADDER_BASE, LADDER_RUNGS, LADDER_STEP, RATE_HI, RATE_LO, RUNG_SECS, SLO_MAX_FAILED,
    SLO_P99_MS, TCP_INLINE_BUILD, TCP_INLINE_PROBE, TCP_INPUTS, TCP_REF_PROBE, TCP_TABLE_TUPLES,
    TCP_ZIPF_EXPONENT,
};
use crate::report::Metric;
use crate::stats::{median, percentile_label, quantile, tail_percentile};
use crate::trace::{maybe_span, SpanCtx, Tracer};
use crate::workload::{Measured, Workload};
use datagen::{DataGenConfig, KeyDistribution, Relation, SmallRng};
use hj_core::server::{
    ClientError, JoinClient, RefRequestBuilder, RequestBuilder, WireRefRequest, WireRequest,
};
use hj_core::{JoinEngine, JoinRequest, JoinServer, ServerConfig};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Name of the registered table.
const TABLE: &str = "dim";
/// A read that takes this long is a failed request, never a hang.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// Generator lag (p99) past which a rate point is invalid.
pub const LAG_LIMIT_MS: f64 = 10.0;

/// The two request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Inline,
    Ref,
}

pub struct TcpMixed {
    seed: u64,
    table: Relation,
    inline: Vec<(WireRequest, Expected)>,
    refs: Vec<(WireRefRequest, Expected)>,
}

/// The system under test: engine, server and one connection per client.
pub struct Sut {
    engine: Arc<JoinEngine>,
    server: JoinServer,
    conns: Vec<Mutex<JoinClient>>,
}

impl Sut {
    pub fn server(&self) -> &JoinServer {
        &self.server
    }
}

/// One open-loop phase at a fixed offered rate.
#[derive(Debug, Default)]
pub struct Phase {
    pub rate: f64,
    pub tally: Tally,
    pub inline_ms: Vec<f64>,
    pub ref_ms: Vec<f64>,
    /// How late the generator handed each request over, in ms.
    pub lag_ms: Vec<f64>,
    /// Time from the last scheduled send to the last completion, in ms:
    /// large when a backlog built up and was still draining.
    pub drain_ms: f64,
}

impl Phase {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.tally.latencies_ms, q).unwrap_or(0.0)
    }

    pub fn lag_p99(&self) -> f64 {
        quantile(&self.lag_ms, 0.99).unwrap_or(0.0)
    }

    /// The generator kept to its schedule.
    pub fn valid(&self) -> bool {
        self.lag_p99() <= LAG_LIMIT_MS
    }

    fn failed_ratio(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    /// How far the phase is from its objective, as the largest of p99 over
    /// the SLO, failed share over its limit, end-of-phase backlog drain
    /// over the SLO, and generator lag over its limit.  At most 1 means the
    /// phase meets the objective.
    pub fn slo_excess(&self) -> f64 {
        [
            self.p(0.99) / SLO_P99_MS,
            self.failed_ratio() / SLO_MAX_FAILED,
            self.drain_ms / SLO_P99_MS,
            self.lag_p99() / LAG_LIMIT_MS,
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }
}

/// Offered rate of ladder rung `i`.
pub fn rung_rate(i: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(i as i32)
}

/// The rate between a passing rung `(rate, excess ≤ 1)` and the next,
/// failing one at which the excess crosses 1, interpolated in log-log
/// space.  Always within `[pass.0, fail.0]`.
pub fn crossing_rate(pass: (f64, f64), fail: (f64, f64)) -> f64 {
    let (lp, lf) = (pass.1.max(1e-6).ln(), fail.1.ln());
    let frac = if lf > lp {
        (-lp / (lf - lp)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (pass.0.ln() + frac * (fail.0.ln() - pass.0.ln())).exp()
}

impl TcpMixed {
    pub fn prepare(seed: u64) -> Self {
        let inline = (0..TCP_INPUTS)
            .map(|i| {
                let cfg = DataGenConfig::small(TCP_INLINE_BUILD, TCP_INLINE_PROBE)
                    .with_seed(sub_seed(seed, 100 + i as u64));
                let (build, probe) = datagen::generate_pair(&cfg);
                let expected = Expected::count(&build, &probe);
                (RequestBuilder::new(build, probe).build(), expected)
            })
            .collect();
        let cfg = DataGenConfig::small(TCP_TABLE_TUPLES, TCP_REF_PROBE * TCP_INPUTS)
            .with_distribution(KeyDistribution::zipf(TCP_ZIPF_EXPONENT))
            .with_seed(sub_seed(seed, 200));
        let (table, probes) = datagen::generate_pair(&cfg);
        let refs = (0..TCP_INPUTS)
            .map(|i| {
                let probe = probes.slice(i * TCP_REF_PROBE..(i + 1) * TCP_REF_PROBE);
                let expected = Expected::pairs(&table, &probe);
                let request = RefRequestBuilder::new(TABLE, probe)
                    .collect_pairs(true)
                    .build();
                (request, expected)
            })
            .collect();
        TcpMixed {
            seed,
            table,
            inline,
            refs,
        }
    }

    /// One request of `kind` over `client`, checked against its reference.
    fn send(
        &self,
        client: &mut JoinClient,
        kind: Kind,
        input: usize,
        ctx: SpanCtx,
        tracer: Option<&Tracer>,
    ) -> Op {
        let (result, expected) = match kind {
            Kind::Inline => {
                let (request, expected) = &self.inline[input];
                let request = request.clone();
                let out = maybe_span(tracer, ctx, "serve.join", |_| client.join(request));
                (out, expected)
            }
            Kind::Ref => {
                let (request, expected) = &self.refs[input];
                let request = request.clone();
                let out = maybe_span(tracer, ctx, "serve.join_ref", |_| client.join_ref(request));
                (out, expected)
            }
        };
        match result {
            Ok(out) => {
                let pairs = (kind == Kind::Ref).then_some(out.pairs.as_slice());
                expected.check(out.matches, pairs)
            }
            Err(ClientError::Overloaded { reason, .. }) => Op::Failed(format!("shed: {reason:?}")),
            Err(e) => Op::Failed(e.to_string()),
        }
    }

    /// Replays a Poisson schedule at `rate` requests/s for `secs` seconds.
    pub fn open_loop(
        &self,
        sut: &Sut,
        rate: f64,
        secs: f64,
        stream: u64,
        tracer: Option<&Tracer>,
    ) -> Phase {
        let mut rng = SmallRng::seed_from_u64(sub_seed(self.seed, stream));
        let mut schedule = Vec::new();
        let mut t = 0.0f64;
        loop {
            // Exponential gaps: -ln(1 - U) / rate.
            t += -(1.0 - rng.random_unit()).ln() / rate;
            if t >= secs {
                break;
            }
            let kind = if rng.random_index(2) == 0 {
                Kind::Inline
            } else {
                Kind::Ref
            };
            schedule.push((t, kind, rng.random_index(TCP_INPUTS)));
        }

        type Job = (Instant, Kind, usize);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Mutex::new(rx);
        let start = Instant::now();
        let mut phase = Phase {
            rate,
            ..Phase::default()
        };
        let results = std::thread::scope(|scope| {
            let senders: Vec<_> = sut
                .conns
                .iter()
                .map(|conn| {
                    let rx = &rx;
                    scope.spawn(move || {
                        let mut client = conn.lock().expect("connection lock poisoned");
                        let mut done: Vec<(Kind, Op, f64)> = Vec::new();
                        let mut last_done = start;
                        loop {
                            let job = rx.lock().expect("job queue poisoned").recv();
                            let Ok((scheduled, kind, input)) = job else {
                                break;
                            };
                            let root = tracer.map_or_else(SpanCtx::default, Tracer::new_request);
                            let op = maybe_span(tracer, root, "loadgen.request", |ctx| {
                                self.send(&mut client, kind, input, ctx, tracer)
                            });
                            if matches!(op, Op::Failed(_)) {
                                // One broken exchange must not poison the rest.
                                if let Ok(fresh) = connect(sut.server.local_addr()) {
                                    *client = fresh;
                                }
                            }
                            last_done = Instant::now();
                            done.push((kind, op, (last_done - scheduled).as_secs_f64() * 1e3));
                        }
                        (done, last_done)
                    })
                })
                .collect();

            for &(offset, kind, input) in &schedule {
                let scheduled = start + Duration::from_secs_f64(offset);
                if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                phase.lag_ms.push(scheduled.elapsed().as_secs_f64() * 1e3);
                tx.send((scheduled, kind, input))
                    .expect("senders alive while the generator runs");
            }
            drop(tx);
            senders
                .into_iter()
                .map(|s| s.join().expect("sender thread panicked"))
                .collect::<Vec<_>>()
        });

        let last_scheduled = start + Duration::from_secs_f64(schedule.last().map_or(0.0, |s| s.0));
        for (done, last_done) in results {
            phase.drain_ms = phase.drain_ms.max(
                last_done
                    .saturating_duration_since(last_scheduled)
                    .as_secs_f64()
                    * 1e3,
            );
            for (kind, op, ms) in done {
                if op == Op::Ok {
                    match kind {
                        Kind::Inline => phase.inline_ms.push(ms),
                        Kind::Ref => phase.ref_ms.push(ms),
                    }
                }
                phase.tally.record(op, ms);
            }
        }
        phase
    }

    /// Median ns of `reps` idle `join_ref` round trips and of the same probe
    /// submitted in process against the same cached table.
    ///
    /// # Errors
    /// A wrong result on either path.
    pub fn roundtrip(&self, sut: &Sut, reps: usize, tracer: &Tracer) -> Result<(f64, f64), String> {
        let (request, expected) = &self.refs[0];
        let handle = sut.engine.table(TABLE).ok_or("registered table missing")?;
        let local = JoinRequest::builder()
            .collect_results(true)
            .build()
            .expect("valid collecting request");
        let mut client = sut.conns[0].lock().expect("connection lock poisoned");
        let (mut wire_ns, mut local_ns) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let t = Instant::now();
            let op = tracer.span(tracer.new_request(), "loadgen.request", |ctx| {
                self.send(&mut client, Kind::Ref, 0, ctx, Some(tracer))
            });
            wire_ns.push(t.elapsed().as_nanos() as f64);
            if op != Op::Ok {
                return Err(format!("join_ref round trip: {op:?}"));
            }
            let t = Instant::now();
            let out = tracer.span(tracer.new_request(), "cache.submit_cached", |_| {
                sut.engine.submit_cached(&local, &handle, &request.probe)
            });
            local_ns.push(t.elapsed().as_nanos() as f64);
            if expected.check_outcome(out) != Op::Ok {
                return Err("in-process submit_cached differs from the reference".to_string());
            }
        }
        Ok((median(&wire_ns), median(&local_ns)))
    }

    /// Walks the ladder from the highest rung at or below `start_rate` —
    /// up while rungs meet the objective, down while they miss it — until
    /// the verdict flips or `budget_secs` is spent.  Returns the rate where
    /// the excess crosses 1 between the highest passing rung and the next
    /// missing one, how it was found, and every rung run.
    fn ladder(
        &self,
        sut: &Sut,
        start_rate: f64,
        budget_secs: f64,
        tracer: Option<&Tracer>,
    ) -> (f64, &'static str, Vec<Phase>) {
        let mut i = (0..LADDER_RUNGS)
            .rev()
            .find(|&i| rung_rate(i) <= start_rate)
            .unwrap_or(0);
        let mut rungs: Vec<Phase> = Vec::new();
        let mut spent = 0.0;
        while spent + RUNG_SECS <= budget_secs + 1e-9 {
            let phase = self.open_loop(sut, rung_rate(i), RUNG_SECS, 1000 + i as u64, tracer);
            spent += RUNG_SECS;
            let pass = phase.slo_excess() <= 1.0;
            let flipped = rungs
                .last()
                .is_some_and(|p| (p.slo_excess() <= 1.0) != pass);
            rungs.push(phase);
            match (flipped, pass) {
                (true, _) => break,
                (false, true) if i + 1 < LADDER_RUNGS => i += 1,
                (false, false) if i > 0 => i -= 1,
                _ => break,
            }
        }
        let point = |p: &Phase| (p.rate, p.slo_excess());
        let best = rungs
            .iter()
            .filter(|p| p.slo_excess() <= 1.0)
            .map(point)
            .max_by(|a, b| a.0.total_cmp(&b.0));
        let above = best.and_then(|(rate, _)| {
            rungs
                .iter()
                .filter(|p| p.slo_excess() > 1.0 && p.rate > rate)
                .map(point)
                .min_by(|a, b| a.0.total_cmp(&b.0))
        });
        let (rate, how) = match (best, above) {
            (Some(pass), Some(miss)) => (crossing_rate(pass, miss), "interpolated"),
            (Some(pass), None) => (pass.0, "LOWER BOUND: no rung above missed"),
            (None, _) => (rung_rate(i), "NO RUNG PASSED: lowest rung run reported"),
        };
        (rate, how, rungs)
    }
}

fn connect(addr: SocketAddr) -> Result<JoinClient, ClientError> {
    JoinClient::connect_timeout(addr, CLIENT_TIMEOUT)
}

fn latency_metric(name: &str, phase: &Phase, q: f64) -> Metric {
    let mut note = format!(
        "at {} req/s, generator lag p99 {:.3} ms",
        phase.rate,
        phase.lag_p99()
    );
    if !phase.valid() {
        note.push_str(" — INVALID: the generator fell behind");
    }
    let n = phase.tally.latencies_ms.len();
    let supported = tail_percentile(q, n);
    if supported < q {
        note.push_str(&format!(
            " — only {n} samples: this is the {}",
            percentile_label(supported)
        ));
    }
    Metric {
        name: name.to_string(),
        value: phase.p(supported),
        unit: "ms",
        samples: phase.tally.latencies_ms.len(),
        note,
    }
}

impl Workload for TcpMixed {
    type Sut = Sut;
    const TAIL: f64 = 0.99;
    // The open-loop phases and the ladder need the whole budget in one piece.
    const ROUNDS: usize = 1;

    fn setup(&self, _env: &Env) -> Result<Sut, String> {
        let engine = native_engine(TCP_TABLE_TUPLES, TCP_TABLE_TUPLES, None);
        let server = JoinServer::start(Arc::clone(&engine), ServerConfig::default())
            .expect("server starts on loopback");
        let addr = server.local_addr();
        let conns: Vec<JoinClient> = (0..clients())
            .map(|_| connect(addr).expect("client connects"))
            .collect();
        let mut conns: Vec<Mutex<JoinClient>> = conns.into_iter().map(Mutex::new).collect();
        {
            let client = conns[0].get_mut().expect("fresh lock");
            client
                .register_table(TABLE, self.table.clone())
                .expect("table registers over the wire");
        }
        let sut = Sut {
            engine,
            server,
            conns,
        };
        // Warm-up: the table's cold build, then every input once per kind.
        for conn in &sut.conns {
            let mut client = conn.lock().expect("connection lock poisoned");
            for input in 0..TCP_INPUTS {
                for kind in [Kind::Inline, Kind::Ref] {
                    let op = self.send(&mut client, kind, input, SpanCtx::default(), None);
                    expect_ok("warm-up request", op)?;
                }
            }
        }
        Ok(sut)
    }

    fn run(&self, sut: &Sut, budget: Duration, tracer: Option<&Tracer>) -> Measured {
        let secs = budget.as_secs_f64();
        let closed = closed_loop(
            Duration::from_secs_f64(0.35 * secs),
            tracer,
            |client, n, ctx| {
                let pick = sub_seed(self.seed, n);
                let kind = if pick & 1 == 0 {
                    Kind::Inline
                } else {
                    Kind::Ref
                };
                let mut conn = sut.conns[client].lock().expect("connection lock poisoned");
                self.send(
                    &mut conn,
                    kind,
                    (pick >> 8) as usize % TCP_INPUTS,
                    ctx,
                    tracer,
                )
            },
        );
        let lo = self.open_loop(sut, RATE_LO, 0.3 * secs, 1, tracer);
        let hi = self.open_loop(sut, RATE_HI, 0.12 * secs, 2, tracer);
        let (max_rps, how, rungs) = self.ladder(sut, 0.9 * closed.rate(), 0.23 * secs, tracer);

        let walked: Vec<String> = rungs
            .iter()
            .map(|r| format!("{:.0}:{:.2}", r.rate, r.slo_excess()))
            .collect();
        let extra = vec![
            latency_metric("latency_p50_ms.rate_lo", &lo, 0.5),
            latency_metric("latency_p99_ms.rate_lo", &lo, 0.99),
            latency_metric("latency_p50_ms.rate_hi", &hi, 0.5),
            latency_metric("latency_p99_ms.rate_hi", &hi, 0.99),
            Metric {
                name: "max_rps_under_slo".to_string(),
                value: max_rps,
                unit: "1/s",
                samples: rungs.len(),
                note: format!(
                    "{how}: highest rate with p99 <= {SLO_P99_MS} ms, failed <= {}%, no growing \
                     backlog or generator lag; rung rate:excess {}",
                    SLO_MAX_FAILED * 100.0,
                    walked.join(" ")
                ),
            },
            Metric {
                name: "failed_ratio.rate_lo".to_string(),
                value: lo.failed_ratio(),
                unit: "ratio",
                samples: lo.tally.attempted as usize,
                note: String::new(),
            },
            Metric {
                name: "loadgen.lag_p99_ms.rate_hi".to_string(),
                value: hi.lag_p99(),
                unit: "ms",
                samples: hi.lag_ms.len(),
                note: String::new(),
            },
        ];
        let mut measured = Measured::closed(closed);
        measured.joins_note = "closed loop over both connections".to_string();
        measured.latency_note = "closed loop".to_string();
        measured.extra = extra;
        measured.tally.absorb(lo.tally);
        measured.tally.absorb(hi.tally);
        for rung in rungs {
            measured.tally.absorb(rung.tally);
        }
        measured
    }

    fn engine(sut: &Sut) -> &Arc<JoinEngine> {
        &sut.engine
    }

    fn release(sut: Sut) -> Result<(), String> {
        let Sut {
            engine,
            mut server,
            conns,
        } = sut;
        drop(conns);
        server.shutdown();
        let live = server.stats().live_handlers;
        drop(server);
        if live != 0 {
            return Err(format!(
                "{live} connection handlers still live after shutdown"
            ));
        }
        check_released(engine)
    }

    fn layer_inputs(&self) -> (&Relation, &Relation) {
        (&self.table, &self.refs[0].0.probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_is_interpolated_in_log_log_space() {
        let rate = crossing_rate((100.0, 0.5), (200.0, 2.0));
        assert!((rate - (100.0f64 * 200.0).sqrt()).abs() < 1e-9);
        // A passing rung exactly at the objective is the crossing.
        assert!((crossing_rate((100.0, 1.0), (200.0, 5.0)) - 100.0).abs() < 1e-9);
        // Never outside the bracketing rungs, even for a zero excess.
        let rate = crossing_rate((100.0, 0.0), (200.0, 1.5));
        assert!((100.0..=200.0).contains(&rate), "{rate}");
    }

    #[test]
    fn ladder_steps_stay_under_ten_percent() {
        for i in 1..LADDER_RUNGS {
            let step = rung_rate(i) / rung_rate(i - 1);
            assert!(step > 1.0 && step < 1.1, "rung {i}: {step}");
        }
    }
}
