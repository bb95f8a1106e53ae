//! `cached_skew`: two closed-loop clients probe registered high-skew tables
//! through the hash-table cache, while every 50th request re-registers one.
//!
//! Hits (cache lookup, probe, pair materialisation) dominate, so
//! `latency_p50_ms` reads the hit path; the ~2 % of requests that
//! re-register and rebuild sit above the 99th percentile's base, so
//! `latency_tail_ms` (p99) reads the rebuild path.  A change that speeds
//! hits but slows invalidation or rebuilds shows here.

use crate::common::{
    check_released, closed_loop, expect_ok, native_engine, sub_seed, Env, Expected, Op,
};
use crate::config::{
    CACHED_BATCH, CACHED_BATCHES, CACHED_REREGISTER_EVERY, CACHED_TABLES, CACHED_TABLE_TUPLES,
};
use crate::trace::{maybe_span, Tracer};
use crate::workload::{Measured, Workload};
use datagen::{DataGenConfig, KeyDistribution, Relation};
use hj_core::{JoinEngine, JoinRequest, TableHandle};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Versions pre-generated per table; re-registration alternates them.
const VERSIONS: usize = 2;

pub struct CachedSkew {
    /// `tables[t][v]`: version `v` of table `t`.
    tables: Vec<Vec<Relation>>,
    /// `batches[t][b]`: probe batch `b` against table `t` (valid for both
    /// versions: they share the key domain).
    batches: Vec<Vec<Relation>>,
    /// `expected[t][v][b]`.
    expected: Vec<Vec<Vec<Expected>>>,
    request: JoinRequest,
}

fn table_name(t: usize) -> String {
    format!("skew{t}")
}

impl CachedSkew {
    pub fn prepare(seed: u64) -> Self {
        let gen = |stream: u64, probe: usize| {
            let cfg = DataGenConfig::small(CACHED_TABLE_TUPLES, probe)
                .with_distribution(KeyDistribution::high_skew())
                .with_seed(sub_seed(seed, stream));
            datagen::generate_pair(&cfg)
        };
        let mut tables = Vec::new();
        let mut batches = Vec::new();
        for t in 0..CACHED_TABLES {
            let (v0, probe) = gen((t * VERSIONS) as u64, CACHED_BATCH * CACHED_BATCHES);
            let mut versions = vec![v0];
            for v in 1..VERSIONS {
                versions.push(gen((t * VERSIONS + v) as u64, 1).0);
            }
            tables.push(versions);
            batches.push(
                (0..CACHED_BATCHES)
                    .map(|b| probe.slice(b * CACHED_BATCH..(b + 1) * CACHED_BATCH))
                    .collect::<Vec<_>>(),
            );
        }
        let expected = tables
            .iter()
            .zip(&batches)
            .map(|(versions, probes)| {
                versions
                    .iter()
                    .map(|build| probes.iter().map(|p| Expected::pairs(build, p)).collect())
                    .collect()
            })
            .collect();
        CachedSkew {
            tables,
            batches,
            expected,
            request: JoinRequest::builder()
                .collect_results(true)
                .build()
                .expect("valid collecting request"),
        }
    }

    fn probe(&self, engine: &JoinEngine, handle: &TableHandle, t: usize, v: usize, b: usize) -> Op {
        let out = engine.submit_cached(&self.request, handle, &self.batches[t][b]);
        self.expected[t][v][b].check_outcome(out)
    }
}

/// The system under test: the engine and the live handle (with its
/// version index) of every registered table.
pub struct Sut {
    engine: Arc<JoinEngine>,
    handles: Mutex<Vec<(TableHandle, usize)>>,
}

impl Workload for CachedSkew {
    type Sut = Sut;
    const TAIL: f64 = 0.99;

    fn setup(&self, _env: &Env) -> Result<Sut, String> {
        let engine = native_engine(CACHED_TABLE_TUPLES, CACHED_BATCH, None);
        let mut handles = Vec::new();
        for t in 0..CACHED_TABLES {
            let handle = engine.register_table(&table_name(t), self.tables[t][0].clone());
            // The initial cold build of each table, then one hit.
            for _ in 0..2 {
                expect_ok("warm-up join", self.probe(&engine, &handle, t, 0, 0))?;
            }
            handles.push((handle, 0));
        }
        Ok(Sut {
            engine,
            handles: Mutex::new(handles),
        })
    }

    fn run(&self, sut: &Sut, budget: Duration, tracer: Option<&Tracer>) -> Measured {
        let result = closed_loop(budget, tracer, |_, n, ctx| {
            let pick = sub_seed(n, 0xc0ffee);
            let b = (pick >> 32) as usize % CACHED_BATCHES;
            let rebuild = (n + 1) % CACHED_REREGISTER_EVERY == 0;
            let t = if rebuild {
                (n / CACHED_REREGISTER_EVERY) as usize % CACHED_TABLES
            } else {
                pick as usize % CACHED_TABLES
            };
            let (handle, v) = if rebuild {
                let mut handles = sut.handles.lock().expect("handle table poisoned");
                let v = (handles[t].1 + 1) % VERSIONS;
                let tuples = self.tables[t][v].clone();
                let handle = maybe_span(tracer, ctx, "cache.register_table", |_| {
                    sut.engine.register_table(&table_name(t), tuples)
                });
                handles[t] = (handle.clone(), v);
                (handle, v)
            } else {
                sut.handles.lock().expect("handle table poisoned")[t].clone()
            };
            let out = maybe_span(tracer, ctx, "cache.submit_cached", |_| {
                sut.engine
                    .submit_cached(&self.request, &handle, &self.batches[t][b])
            });
            self.expected[t][v][b].check_outcome(out)
        });
        Measured::closed(result)
    }

    fn engine(sut: &Sut) -> &Arc<JoinEngine> {
        &sut.engine
    }

    fn release(sut: Sut) -> Result<(), String> {
        drop(sut.handles);
        check_released(sut.engine)
    }

    fn layer_inputs(&self) -> (&Relation, &Relation) {
        (&self.tables[0][0], &self.batches[0][0])
    }
}
