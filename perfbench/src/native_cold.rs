//! `native_cold`: two closed-loop clients submit uncached count-only joins.
//!
//! The native build and probe do nearly all the work; cache, spill and wire
//! are bypassed, so a build-path change shows here and a serving change
//! should not.

use crate::common::{check_released, closed_loop, expect_ok, native_engine, Env, Expected};
use crate::config::{NATIVE_BUILD, NATIVE_PROBE};
use crate::trace::{maybe_span, Tracer};
use crate::workload::{Measured, Workload};
use datagen::{DataGenConfig, KeyDistribution, Relation};
use hj_core::{JoinEngine, JoinRequest};
use std::sync::Arc;
use std::time::Duration;

pub struct NativeCold {
    build: Relation,
    probe: Relation,
    expected: Expected,
    request: JoinRequest,
}

impl NativeCold {
    pub fn prepare(seed: u64) -> Self {
        let cfg = DataGenConfig::small(NATIVE_BUILD, NATIVE_PROBE)
            .with_distribution(KeyDistribution::Uniform)
            .with_seed(seed);
        let (build, probe) = datagen::generate_pair(&cfg);
        let expected = Expected::count(&build, &probe);
        NativeCold {
            build,
            probe,
            expected,
            request: count_only(),
        }
    }
}

/// A count-only request with the engine's defaults otherwise.
pub fn count_only() -> JoinRequest {
    JoinRequest::builder()
        .collect_results(false)
        .build()
        .expect("valid count-only request")
}

impl Workload for NativeCold {
    type Sut = Arc<JoinEngine>;
    const TAIL: f64 = 0.95;

    fn setup(&self, _env: &Env) -> Result<Self::Sut, String> {
        let engine = native_engine(NATIVE_BUILD, NATIVE_PROBE, None);
        for _ in 0..2 {
            let out = engine.submit(&self.request, &self.build, &self.probe);
            expect_ok("warm-up join", self.expected.check_outcome(out))?;
        }
        Ok(engine)
    }

    fn run(&self, engine: &Self::Sut, budget: Duration, tracer: Option<&Tracer>) -> Measured {
        let result = closed_loop(budget, tracer, |_, _, ctx| {
            let out = maybe_span(tracer, ctx, "engine.submit", |_| {
                engine.submit(&self.request, &self.build, &self.probe)
            });
            self.expected.check_outcome(out)
        });
        Measured::closed(result)
    }

    fn engine(sut: &Self::Sut) -> &Arc<JoinEngine> {
        sut
    }

    fn release(sut: Self::Sut) -> Result<(), String> {
        check_released(sut)
    }

    fn layer_inputs(&self) -> (&Relation, &Relation) {
        (&self.build, &self.probe)
    }
}
