//! Quantiles and the result line.

use crate::gen::Workload;

/// Linear-interpolated quantile of sorted `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) report as 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// The run's result.
pub struct Report {
    /// Every reply matched and every per-run claim held.
    pub correct: bool,
    /// Jobs sent in the measured window.
    pub attempted: usize,
    /// Jobs whose reply was wrong, an error, busy or lost.
    pub failed: usize,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {:?}, \"unit\": {}}}",
                    json_str(m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A readable table on standard error; per-layer rows name the
    /// end-to-end metric each should move.
    pub fn print_table(&self, workload: Workload, traced: bool) {
        eprintln!(
            "perfbench: {} — {} of {} jobs correct",
            workload.name(),
            self.attempted - self.failed,
            self.attempted
        );
        for m in &self.metrics {
            let moves = if traced {
                crate::trace::LAYERS
                    .iter()
                    .find(|l| l.name == m.name)
                    .map(|l| format!("  moves: {}  | flat on: {}", l.moves, l.flat_on))
                    .unwrap_or_default()
            } else {
                String::new()
            };
            eprintln!("  {:<30} {:>16.6} {:<6}{moves}", m.name, m.value, m.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("x_ms", 1.25, "ms")],
        };
        assert_eq!(
            r.json(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"x_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
    }
}
