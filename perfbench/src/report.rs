//! What one workload run produces, and how it is printed.

use crate::span::Tracer;
use crate::stats::median;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured time per run.
    pub seconds: f64,
    /// Record spans around the calls into each crate.
    pub trace: bool,
    /// Pool cap: the host's available parallelism.
    pub threads: usize,
}

/// Outcome of one workload run.
pub struct Report {
    /// Operations whose outputs the oracles judged.
    pub attempted: u64,
    /// Operations the oracles rejected.
    pub failed: u64,
    /// One line per rejected output (first few kept).
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (filled in traced runs).
    pub layers: Vec<Metric>,
    /// Input sizes and thread counts, printed with the results.
    pub info: Vec<(&'static str, String)>,
    /// Spans recorded in a traced run.
    pub tracer: Tracer,
}

impl Report {
    /// An empty report whose spans use `tracer`.
    pub fn new(tracer: Tracer) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            e2e: Vec::new(),
            layers: Vec::new(),
            info: Vec::new(),
            tracer,
        }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Reports `latency_p50_us` and `latency_p90_us` from per-block
    /// `[p50, p90]` pairs (see [`crate::stats::block_tail`]; `to_us`
    /// converts to µs): the median over blocks of each quantile, so a
    /// stall confined to one block barely moves it.
    pub fn latencies(&mut self, blocks: &[[f64; 2]], to_us: f64) {
        let names = ["latency_p50_us", "latency_p90_us"];
        for (i, name) in names.into_iter().enumerate() {
            let mut col: Vec<f64> = blocks.iter().map(|b| b[i] * to_us).collect();
            self.e2e(name, median(&mut col), "us");
        }
    }

    /// Records an input size or thread count.
    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Counts `n` failed operations, keeping the message.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// The metric named `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The closing JSON line: `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted,
        failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let m = vec![Metric {
            name: "setup_s".into(),
            value: 0.25,
            unit: "s",
        }];
        assert_eq!(
            json_line(3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(json_line(3, 1, &m).starts_with("{\"correct\": false"));
    }
}
