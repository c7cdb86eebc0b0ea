//! Median-of-samples timing and the `BENCH.json` trajectory writer.
//!
//! Every perf-sensitive PR appends one labelled entry to `BENCH.json` (an
//! array of `{label, metrics}` objects) so the repo carries its own
//! performance trajectory: each future optimisation has a recorded number
//! to beat, measured by the same harness on the same workloads. The format
//! is deliberately tiny and hand-rolled — the offline serde shim does not
//! serialize, and the schema is three levels deep:
//!
//! ```json
//! [
//!   { "label": "pr2-pre",
//!     "metrics": {
//!       "world_rbc_n16_random": { "ns_per_op": 1234567, "messages_sent": 512, "steps": 800 }
//!     } }
//! ]
//! ```

use mediator_core::report::json_escape;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One named measurement: median ns/op plus workload counters
/// (message/step counts that make the ns interpretable).
#[derive(Debug, Clone)]
pub struct Metric {
    /// Stable metric name (the BENCH.json key).
    pub name: String,
    /// Median nanoseconds per operation.
    pub ns_per_op: u128,
    /// Workload counters: `(name, value)` pairs riding along the timing.
    pub counters: Vec<(&'static str, u64)>,
}

impl Metric {
    /// A counter-free metric.
    pub fn new(name: impl Into<String>, ns_per_op: u128) -> Self {
        Metric {
            name: name.into(),
            ns_per_op,
            counters: Vec::new(),
        }
    }

    /// Attaches a workload counter.
    pub fn with(mut self, name: &'static str, value: u64) -> Self {
        self.counters.push((name, value));
        self
    }
}

/// Times `op` and returns the **median** ns per call over `samples` timed
/// batches of `iters` calls each (one untimed warm-up call first). The
/// median resists scheduler noise far better than the mean, which is what
/// makes entries comparable across PRs.
pub fn median_ns_per_op<T>(samples: usize, iters: u32, mut op: impl FnMut() -> T) -> u128 {
    assert!(samples > 0 && iters > 0);
    let _ = std::hint::black_box(op());
    let mut per_op: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                let _ = std::hint::black_box(op());
            }
            start.elapsed().as_nanos() / u128::from(iters)
        })
        .collect();
    per_op.sort_unstable();
    per_op[per_op.len() / 2]
}

/// Times `op` and returns the **minimum** ns per call over `samples` timed
/// batches — the noise-free cost floor, useful for perf attribution on
/// loaded machines (the trajectory itself records medians).
pub fn min_ns_per_op<T>(samples: usize, iters: u32, mut op: impl FnMut() -> T) -> u128 {
    assert!(samples > 0 && iters > 0);
    let _ = std::hint::black_box(op());
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                let _ = std::hint::black_box(op());
            }
            start.elapsed().as_nanos() / u128::from(iters)
        })
        .min()
        .expect("samples > 0")
}

/// Renders one trajectory entry as a JSON object.
pub fn render_entry(label: &str, metrics: &[Metric]) -> String {
    let mut out = String::new();
    out.push_str(&format!("  {{ \"label\": \"{}\",\n", json_escape(label)));
    out.push_str("    \"metrics\": {\n");
    for (i, m) in metrics.iter().enumerate() {
        out.push_str(&format!(
            "      \"{}\": {{ \"ns_per_op\": {}",
            json_escape(&m.name),
            m.ns_per_op
        ));
        for (k, v) in &m.counters {
            out.push_str(&format!(", \"{}\": {}", json_escape(k), v));
        }
        out.push_str(if i + 1 == metrics.len() {
            " }\n"
        } else {
            " },\n"
        });
    }
    out.push_str("    } }");
    out
}

/// Appends one `{label, metrics}` entry to the `BENCH.json` array at
/// `path`, creating the file (as a one-entry array) if absent or empty.
///
/// # Errors
///
/// Propagates filesystem errors; a malformed existing file (no closing
/// `]`) is reported as [`std::io::ErrorKind::InvalidData`].
pub fn append_bench_json(path: &Path, label: &str, metrics: &[Metric]) -> std::io::Result<()> {
    let entry = render_entry(label, metrics);
    let existing = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let trimmed = existing.trim();
    let body = if trimmed.is_empty() || trimmed == "[]" {
        format!("[\n{entry}\n]\n")
    } else {
        let close = trimmed.rfind(']').ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "BENCH.json is not a JSON array",
            )
        })?;
        let head = trimmed[..close].trim_end();
        format!("{head},\n{entry}\n]\n")
    };
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_reported_in_ns() {
        let ns = median_ns_per_op(3, 10, || std::hint::black_box(41u64) + 1);
        // A single add is far below a microsecond even with timer overhead.
        assert!(ns < 10_000, "{ns}");
    }

    #[test]
    fn entry_renders_counters() {
        let m = vec![Metric::new("x", 5).with("messages", 7)];
        let s = render_entry("lbl", &m);
        assert!(s.contains("\"x\": { \"ns_per_op\": 5, \"messages\": 7 }"));
    }

    #[test]
    fn append_creates_then_extends_array() {
        let dir = std::env::temp_dir().join(format!("benchjson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH.json");
        let _ = std::fs::remove_file(&path);
        append_bench_json(&path, "a", &[Metric::new("m", 1)]).unwrap();
        append_bench_json(&path, "b", &[Metric::new("m", 2)]).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.trim_start().starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        assert_eq!(s.matches("\"label\"").count(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
