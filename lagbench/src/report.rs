//! What a workload hands back, and how it becomes the metrics line.

use std::collections::BTreeMap;

use crate::calib::Calibration;
use crate::host::process_cpu_s;
use crate::layers::LayerTimes;
use crate::stats::{geomean, median};

/// Timed operations of one kind (a program under one config, one kind of
/// build, or the served requests): wall and CPU milliseconds per op, and
/// the CPU milliseconds at nominal host speed (see [`crate::calib`]).
#[derive(Default)]
pub struct Sample {
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    pub norm_ms: Vec<f64>,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, printed before the metrics line.
    pub failures: Vec<String>,
    pub samples: Vec<Sample>,
    /// CPU seconds of each set-up repetition, at nominal host speed.
    pub setup_s: Vec<f64>,
    pub layers: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Records the front-end attribution of a [`crate::layers`] probe.
    pub fn frontend(&mut self, l: &LayerTimes) {
        self.layer("syntax.read_ms", l.read_ms);
        self.layer(
            "syntax.read_mb_s",
            if l.read_ms > 0.0 {
                l.read_bytes / 1e6 / (l.read_ms / 1e3)
            } else {
                0.0
            },
        );
        self.layer("core.expand_ms", l.expand_ms);
        self.layer("typed.check_ms", l.check_ms);
        self.layer("optimizer.self_ms", l.optimize_ms);
        self.layer("optimizer.rewrites", l.rewrites);
        self.layer("optimizer.near_misses", l.near_misses);
        self.layer("vm.compile_ms", l.vm_compile_ms);
        self.layer("vm.peephole_fused", l.peephole_fused);
        self.layer("core.store.encode_ms", l.encode_ms);
        self.layer("core.store.decode_ms", l.decode_ms);
        self.layers
            .entry("core.store.bytes".to_string())
            .or_insert(l.store_bytes);
    }

    /// Geometric mean over sample kinds of each kind's median CPU time
    /// at nominal host speed.
    pub fn op_ms(&self) -> Option<f64> {
        kind_geomean(&self.samples, |s| &s.norm_ms)
    }

    /// Times one set-up repetition in CPU seconds at nominal host speed.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let mut cal = Calibration::default();
        cal.sample(10);
        let start = process_cpu_s();
        let out = f();
        let cpu = process_cpu_s() - start;
        cal.sample(10);
        self.setup_s.push(cpu * cal.take_scale());
        out
    }

    pub fn sample_count(&self) -> usize {
        self.samples.iter().map(|s| s.wall_ms.len()).sum()
    }
}

/// Geometric mean over sample kinds of each kind's median of `field`.
pub fn kind_geomean<'a>(
    samples: impl IntoIterator<Item = &'a Sample>,
    field: fn(&Sample) -> &Vec<f64>,
) -> Option<f64> {
    let medians: Vec<f64> = samples
        .into_iter()
        .filter_map(|s| median(field(s)))
        .collect();
    geomean(&medians)
}

/// Renders the metrics line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn metrics_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cpu_is_the_geomean_of_kind_medians() {
        let mut o = Outcome::default();
        for ms in [vec![1.0, 2.0, 9.0], vec![8.0]] {
            o.samples.push(Sample {
                wall_ms: ms.clone(),
                norm_ms: ms,
                ..Sample::default()
            });
        }
        assert!((o.op_ms().expect("two kinds") - 4.0).abs() < 1e-12);
        assert_eq!(o.sample_count(), 4);
    }

    #[test]
    fn metrics_line_keeps_every_digit() {
        let line = metrics_line(true, 3, 0, &[("a_ms".to_string(), 1.2345678901, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.2345678901, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_number(2.0), "2.0");
    }
}
