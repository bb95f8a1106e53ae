//! `spill_half`: two closed-loop clients submit spilling joins under a
//! shared memory budget of half the inputs' resident footprint.
//!
//! It covers run-file I/O, broker grants and fair-share reclaim, plus many
//! partition-sized joins through the native path; no other workload
//! measures the spill layer.

use crate::common::{check_released, closed_loop, expect_ok, native_engine, Env, Expected};
use crate::config::{SPILL_BUDGET_SHARE, SPILL_BUILD, SPILL_PROBE};
use crate::trace::{maybe_span, Tracer};
use crate::workload::{Measured, Workload};
use datagen::{DataGenConfig, KeyDistribution, Relation};
use hj_core::spill::SpillConfig;
use hj_core::{JoinEngine, JoinRequest};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub struct SpillHalf {
    build: Relation,
    probe: Relation,
    expected: Expected,
}

/// The spill budget for `build ⨝ probe`: a share of their resident bytes.
pub fn half_budget(build: &Relation, probe: &Relation) -> usize {
    let footprint = (build.len() + probe.len()) * datagen::TUPLE_BYTES;
    ((footprint as f64 * SPILL_BUDGET_SHARE) as usize).max(1)
}

/// A count-only spilling request writing its runs under `dir`.
pub fn spill_request(dir: &Path) -> JoinRequest {
    JoinRequest::builder()
        .collect_results(false)
        .spill(SpillConfig::default().spill_dir(dir))
        .build()
        .expect("valid spill request")
}

/// The system under test: the budgeted engine and its spilling request.
pub struct Sut {
    engine: Arc<JoinEngine>,
    request: JoinRequest,
}

impl SpillHalf {
    pub fn prepare(seed: u64) -> Self {
        let cfg = DataGenConfig::small(SPILL_BUILD, SPILL_PROBE)
            .with_distribution(KeyDistribution::Uniform)
            .with_seed(seed);
        let (build, probe) = datagen::generate_pair(&cfg);
        let expected = Expected::count(&build, &probe);
        SpillHalf {
            build,
            probe,
            expected,
        }
    }
}

impl Workload for SpillHalf {
    type Sut = Sut;
    const TAIL: f64 = 0.95;

    fn setup(&self, env: &Env) -> Result<Sut, String> {
        let budget = half_budget(&self.build, &self.probe);
        let engine = native_engine(SPILL_BUILD, SPILL_PROBE, Some(budget));
        let request = spill_request(&env.spill_dir());
        for _ in 0..2 {
            let out = engine.submit(&request, &self.build, &self.probe);
            expect_ok("warm-up join", self.expected.check_outcome(out))?;
        }
        Ok(Sut { engine, request })
    }

    fn run(&self, sut: &Sut, budget: Duration, tracer: Option<&Tracer>) -> Measured {
        let result = closed_loop(budget, tracer, |_, _, ctx| {
            let out = maybe_span(tracer, ctx, "spill.submit", |_| {
                sut.engine.submit(&sut.request, &self.build, &self.probe)
            });
            self.expected.check_outcome(out)
        });
        Measured::closed(result)
    }

    fn engine(sut: &Sut) -> &Arc<JoinEngine> {
        &sut.engine
    }

    fn release(sut: Sut) -> Result<(), String> {
        check_released(sut.engine)
    }

    fn layer_inputs(&self) -> (&Relation, &Relation) {
        (&self.build, &self.probe)
    }
}
