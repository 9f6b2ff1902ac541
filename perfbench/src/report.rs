//! The benchmark's result: the metric catalog, the correctness tally and
//! the one-line JSON the last line of standard output carries.

use raco::driver::json::Json;

/// Which side of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One catalog entry: what every run of the matching mode reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics (`--trace 0`), reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("throughput_loops_per_s", "loops/s", Higher),
    def("latency_p50_us", "us", Lower),
    def("latency_p99_us", "us", Lower),
    def("ok_ratio", "ratio", Higher),
    def("address_cost_total", "updates/iter", Lower),
    def("code_words_total", "words", Lower),
    def("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics (`--trace 1`), reported by every workload on its
/// own inputs.
pub const PER_LAYER: &[MetricDef] = &[
    def("ir.parse.p50_us", "us", Lower),
    def("ir.lower.p50_us", "us", Lower),
    def("ir.canonical.p50_us", "us", Lower),
    def("ir.trace.p50_us", "us", Lower),
    def("graph.distance.p50_us", "us", Lower),
    def("core.phase1.p50_us", "us", Lower),
    def("core.phase1.nodes", "count", Lower),
    def("core.phase2.merges", "count", Lower),
    def("core.cost_curve.total_ms", "ms", Lower),
    def("core.allocate.total_ms", "ms", Lower),
    def("core.allocate_loop.total_ms", "ms", Lower),
    def("core.partition.p50_us", "us", Lower),
    def("agu.codegen.p50_us", "us", Lower),
    def("agu.sim.p50_us", "us", Lower),
    def("agu.sim.accesses", "count", Lower),
    def("check.p50_us", "us", Lower),
    def("check.invariants", "count", Higher),
    def("driver.compile.p50_us", "us", Lower),
    def("driver.residual_ratio", "ratio", Lower),
    def("driver.cache.hit_ratio", "ratio", Higher),
    def("driver.cache.lookups_per_loop", "count", Lower),
    def("driver.cache.cold_over_uncached", "ratio", Lower),
    def("driver.cache.entries", "count", Lower),
    def("driver.persist.save_ms", "ms", Lower),
    def("driver.persist.load_ms", "ms", Lower),
    def("driver.persist.bytes", "bytes", Lower),
    def("driver.persist.rejected", "count", Lower),
    def("driver.persist.warm_boot_ratio", "ratio", Lower),
    def("serve.protocol.parse.p50_us", "us", Lower),
    def("serve.protocol.render.p50_us", "us", Lower),
    def("serve.handle.p50_us", "us", Lower),
    def("serve.wire.p50_us", "us", Lower),
    def("serve.server.compile.p50_us", "us", Lower),
    def("serve.server.compile.p99_us", "us", Lower),
    def("serve.shed", "count", Lower),
    def("serve.deadline_misses", "count", Lower),
    def("serve.shard.hit_ratio", "ratio", Higher),
    def("serve.shard.imbalance", "ratio", Lower),
    def("bench.generator_lag.p99_us", "us", Lower),
    def("bench.trace_overhead_ratio", "ratio", Lower),
];

/// Operations attempted and failed, plus the first few failure
/// messages. Every correctness check is one attempted operation.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Failure messages kept for the report; the count is exact regardless.
const KEPT_ERRORS: usize = 8;

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.fail(message);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(message);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for message in other.errors {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(message);
            }
        }
        self.failed += other.failed;
    }

    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// A finished run: the tally and one value per catalog metric.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    values: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn new(tally: Tally) -> Self {
        Outcome {
            tally,
            values: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the human-readable table and the final JSON line against
    /// `catalog`.
    ///
    /// # Errors
    ///
    /// Names a catalog metric the run did not set, or set to a value
    /// that is not a finite number — a bug in the benchmark, never a
    /// result.
    pub fn render(&self, catalog: &[MetricDef]) -> Result<(String, String), String> {
        let mut table = String::new();
        let mut metrics = Vec::with_capacity(catalog.len());
        for metric in catalog {
            let value = self
                .value(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", metric.name));
            }
            let better = match metric.better {
                Better::Lower => "lower is better",
                Better::Higher => "higher is better",
            };
            table.push_str(&format!(
                "{:<34} {:>16.4} {:<12} ({better})\n",
                metric.name, value, metric.unit
            ));
            metrics.push((
                metric.name.to_owned(),
                Json::Obj(vec![
                    ("value".to_owned(), Json::Num(value)),
                    ("unit".to_owned(), Json::str(metric.unit)),
                ]),
            ));
        }
        let correct = self.tally.failed == 0 && self.tally.attempted > 0;
        let line = Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(correct)),
            ("attempted".to_owned(), Json::UInt(self.tally.attempted)),
            ("failed".to_owned(), Json::UInt(self.tally.failed)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
        .render();
        Ok((table, line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root lists the same metrics, with
    /// the same units and directions, as the catalog the runs report.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(listed)) = json.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            assert_eq!(listed.len(), catalog.len(), "{key}");
            for (entry, metric) in listed.iter().zip(catalog) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
                let better = match metric.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            }
        }
    }

    #[test]
    fn render_requires_every_metric() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        let mut outcome = Outcome::new(tally);
        for metric in END_TO_END {
            outcome.set(metric.name, 1.5);
        }
        let (table, line) = outcome.render(END_TO_END).unwrap();
        assert_eq!(table.lines().count(), END_TO_END.len());
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert!(outcome.render(PER_LAYER).is_err());
    }

    #[test]
    fn tally_counts_failures_and_keeps_a_few_messages() {
        let mut tally = Tally::default();
        for i in 0..20 {
            tally.record(if i % 2 == 0 {
                Ok(())
            } else {
                Err(format!("e{i}"))
            });
        }
        assert_eq!((tally.attempted, tally.failed), (20, 10));
        assert_eq!(tally.errors.len(), KEPT_ERRORS);
        assert_eq!(tally.ok_ratio(), 0.5);
    }
}
