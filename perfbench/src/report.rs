//! The metric report: a human-readable line per metric, then one JSON object
//! as the last line of standard output.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (operations, runs or spans).
    pub samples: usize,
    /// What the value is on this workload, when the name alone does not say.
    pub note: String,
}

/// True when `name` is a valid metric name: a letter or digit first, then at
/// most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.add_noted(name, value, unit, samples, "");
    }

    pub fn add_noted(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: note.to_string(),
        });
    }

    /// One line per metric: name, value, unit and sample count.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "metric {:<36} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            ));
            if !m.note.is_empty() {
                out.push_str(&format!("  ({})", m.note));
            }
            out.push('\n');
        }
        out
    }

    /// The declared `(name, unit)` pairs that were not reported with that
    /// unit.
    pub fn missing<'a>(&self, declared: &[(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
        declared
            .iter()
            .copied()
            .filter(|&(name, unit)| {
                !self
                    .metrics
                    .iter()
                    .any(|m| m.name == name && m.unit == unit)
            })
            .collect()
    }

    /// The result object: `correct`, `attempted`, `failed` and every metric
    /// named in `keep`, with value and unit.
    pub fn json(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        keep: &[(&str, &str)],
    ) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| keep.iter().any(|(name, _)| m.name == *name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (never expected) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "latency_p50_ms",
            "native.build_ns_per_tuple",
            "serve.shed_ratio.queue_budget",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "p99/ms",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_metric_name_is_valid() {
        for (name, _) in crate::config::END_TO_END
            .iter()
            .chain(crate::config::PER_LAYER)
        {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = crate::config::END_TO_END
            .iter()
            .chain(crate::config::PER_LAYER);
        for (name, unit) in declared.clone() {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(spec.matches("\"unit\":").count(), declared.count());
    }

    #[test]
    fn missing_checks_names_and_units() {
        let mut r = Report::default();
        r.add("setup_s", 1.0, "s", 3);
        r.add("latency_p50_ms", 1.0, "us", 3);
        assert_eq!(
            r.missing(&[("setup_s", "s"), ("latency_p50_ms", "ms"), ("x", "s")]),
            vec![("latency_p50_ms", "ms"), ("x", "s")]
        );
    }

    #[test]
    fn json_keeps_only_the_requested_metrics() {
        let mut r = Report::default();
        r.add("latency_p50_ms", 1.25, "ms", 10);
        r.add("native.self_ms", 3.0, "ms", 5);
        let json = r.json(true, 10, 0, &[("latency_p50_ms", "ms")]);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_refused() {
        Report::default().add("bad name", 1.0, "ms", 1);
    }
}
