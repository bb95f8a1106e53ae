//! What every workload provides to `main.rs`.

use crate::common::{Env, LoopResult, Tally};
use crate::report::Metric;
use crate::trace::Tracer;
use datagen::Relation;
use hj_core::JoinEngine;
use std::sync::Arc;
use std::time::Duration;

/// The result of one measured pass of a workload.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every operation of the pass.
    pub tally: Tally,
    /// `joins_per_s`, and what it is on this workload.
    pub joins_per_s: f64,
    pub joins_note: String,
    /// Samples behind `latency_p50_ms` and `latency_tail_ms`.
    pub p50_samples: Vec<f64>,
    pub tail_samples: Vec<f64>,
    /// What the two latencies are on this workload, when not the whole pass.
    pub latency_note: String,
    /// Further end-to-end figures printed in the report (not in the result
    /// object).
    pub extra: Vec<Metric>,
}

impl Measured {
    /// A closed-loop pass: the median completion rate of its one-second
    /// windows, and latencies over every completed operation.
    pub fn closed(result: LoopResult) -> Self {
        let lat = result.tally.latencies_ms.clone();
        Measured {
            joins_per_s: result.rate(),
            p50_samples: lat.clone(),
            tail_samples: lat,
            tally: result.tally,
            ..Measured::default()
        }
    }
}

impl Measured {
    /// Rounds on fresh set-ups as one pass: pooled operations and latency
    /// samples, and the mean of the rounds' rates.
    pub fn merge(rounds: Vec<Measured>) -> Self {
        let n = rounds.len();
        let mut out = Measured::default();
        for round in rounds {
            out.joins_per_s += round.joins_per_s / n as f64;
            out.tally.absorb(round.tally);
            out.p50_samples.extend(round.p50_samples);
            out.tail_samples.extend(round.tail_samples);
            out.extra.extend(round.extra);
            out.joins_note = round.joins_note;
            out.latency_note = round.latency_note;
        }
        if n > 1 {
            out.joins_note = format!("mean over {n} rounds, each on a fresh set-up");
        }
        out
    }
}

/// One benchmark workload: generated inputs with their reference results,
/// and the system under test it sets up over them.
pub trait Workload: Sync {
    /// The engine (and server, tables, …) the workload measures.
    type Sut;

    /// The tail percentile `latency_tail_ms` reports.
    const TAIL: f64;

    /// Rounds an untraced run is measured in, each on a fresh set-up.
    const ROUNDS: usize = crate::config::SETUP_REPEATS;

    /// Builds the system under test and warms it up; timed as `setup_s`.
    ///
    /// # Errors
    /// A warm-up result that differs from the reference, or a failed one.
    fn setup(&self, env: &Env) -> Result<Self::Sut, String>;

    /// Measures the workload for `budget`, recording spans when `tracer`
    /// is given.
    fn run(&self, sut: &Self::Sut, budget: Duration, tracer: Option<&Tracer>) -> Measured;

    /// The engine behind the system under test.
    fn engine(sut: &Self::Sut) -> &Arc<JoinEngine>;

    /// Tears the system down and checks that it released every resource.
    ///
    /// # Errors
    /// A description of the first leak found.
    fn release(sut: Self::Sut) -> Result<(), String>;

    /// The build and probe inputs the per-layer probes time directly.
    fn layer_inputs(&self) -> (&Relation, &Relation);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_pools_samples_and_averages_rates() {
        let round = |rate: f64, ms: f64| Measured {
            joins_per_s: rate,
            p50_samples: vec![ms],
            tail_samples: vec![ms],
            ..Measured::default()
        };
        let merged = Measured::merge(vec![round(10.0, 1.0), round(20.0, 2.0)]);
        assert_eq!(merged.joins_per_s, 15.0);
        assert_eq!(merged.p50_samples, vec![1.0, 2.0]);
        assert_eq!(merged.tail_samples, vec![1.0, 2.0]);
    }
}
