//! Metric names, the result a run prints, the host fingerprint it is
//! stamped with, and the check that no metric went missing.

use crate::stats::{blocked_tail, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics, reported with tracing off, and their units. Each
/// means the same on every workload; an operation is a served session, a
/// fast atlas grid or one replay.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, reported by the traced run, and their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.frontier.cell_ms.robust", "ms"),
    ("core.frontier.cell_ms.eps", "ms"),
    ("core.frontier.cell_ms.eps_wills", "ms"),
    ("core.frontier.cell_ms.companion", "ms"),
    ("sim.world.run_ms.n9_robust", "ms"),
    ("sim.world.messages.n9_robust", "count"),
    ("field.rs_decode_ns", "ns"),
    ("field.interpolate_ns", "ns"),
    ("vss.avss_deal_ns", "ns"),
    ("vss.oec_ns", "ns"),
    ("bcast.rbc_ns", "ns"),
    ("mpc.run_ms.n9_robust", "ms"),
    ("sim.world.run_ms.n5", "ms"),
    ("sim.world.messages.n5", "count"),
    ("sim.world.steps.n5", "count"),
    ("sim.session.pump_ms", "ms"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.wire.bytes_per_frame", "bytes"),
    ("net.wire.frames_per_session", "count"),
    ("net.auth.seal_ns", "ns"),
    ("net.auth.verify_ns", "ns"),
    ("net.service.solo_mem_ms", "ms"),
    ("net.transport.solo_tcp_ms", "ms"),
    ("net.service.attach_wait_ms", "ms"),
    ("net.service.host_us", "us"),
    ("net.transport.reads_per_session", "count"),
    ("net.transport.bytes_per_read", "bytes"),
    ("store.record_us", "us"),
    ("store.bytes_per_session", "bytes"),
    ("store.open_ms", "ms"),
    ("store.load_us", "us"),
    ("store.replay_ms", "ms"),
    ("bench.gen_late_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("layer.field.self_ms", "ms"),
    ("layer.vss.self_ms", "ms"),
    ("layer.bcast.self_ms", "ms"),
    ("layer.mpc.self_ms", "ms"),
    ("layer.sim.self_ms", "ms"),
    ("layer.core.self_ms", "ms"),
    ("layer.net.self_ms", "ms"),
    ("layer.store.self_ms", "ms"),
];

/// The workspace modules spans are attributed to.
pub const LAYERS: [&str; 8] = [
    "field", "vss", "bcast", "mpc", "sim", "core", "net", "store",
];

/// One metric: its reported value (a median unless `note` says which
/// statistic it is), quartiles and sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub p25: f64,
    pub p75: f64,
    pub note: String,
}

impl Metric {
    /// The median of `samples` scaled by `scale`; `None` without samples.
    pub fn median(samples: &[f64], scale: f64, unit: &'static str) -> Option<Metric> {
        Summary::of(samples).map(|s| Metric {
            value: s.p50 * scale,
            unit,
            n: s.n,
            p25: s.p25 * scale,
            p75: s.p75 * scale,
            note: String::new(),
        })
    }

    /// The tail of `samples`, taken in order, by `stats::blocked_tail`.
    pub fn tail(samples: &[f64], scale: f64, unit: &'static str) -> Option<Metric> {
        let (tail, pct) = blocked_tail(samples)?;
        Summary::of(samples).map(|s| Metric {
            value: tail * scale,
            unit,
            n: s.n,
            p25: s.p25 * scale,
            p75: s.p75 * scale,
            note: format!("p{pct}"),
        })
    }

    /// A single measured quantity (a count or a ratio of totals) over
    /// `n` underlying samples.
    pub fn total(value: f64, n: usize, unit: &'static str) -> Metric {
        Metric {
            value,
            unit,
            n,
            p25: value,
            p75: value,
            note: "total".to_string(),
        }
    }
}

/// The host fingerprint: everything that must match before two results
/// may be compared. The compiler version was captured when the benchmark
/// was built.
pub fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |k| k.trim().to_string());
    format!(
        "nproc={} cpu={cpu} kernel={kernel} rustc={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
    )
}

/// What was measured: the git revision the benchmark was built from
/// (`none` outside a git checkout). Printed with every result, but
/// results of different revisions are compared; that is what a change's
/// benchmark is for.
pub fn provenance() -> String {
    format!("git={}", env!("PERFBENCH_GIT"))
}

/// CPU time the hypervisor has stolen from this host since boot, in
/// seconds (`steal` in `/proc/stat`, at 100 ticks a second); `None` where
/// the kernel does not report it. A run whose steal grew by much was
/// measured on a contended host.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks as f64 / 100.0)
}

/// A run's result.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub fingerprint: String,
    pub provenance: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    /// Metrics deliberately not measured, with the reason.
    pub skipped: Vec<(String, String)>,
    /// Lines kept for the detail file only (traced end-to-end numbers,
    /// notes on what the seed does).
    pub notes: Vec<String>,
}

impl Report {
    /// The metrics this run must report.
    pub fn expected(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records `metric` unless a metric of that name is already present;
    /// a metric without samples stays missing, which
    /// [`Report::check_complete`] turns into an error.
    pub fn put(&mut self, name: &str, metric: Option<Metric>) {
        if let Some(m) = metric {
            self.metrics.entry(name.to_string()).or_insert(m);
        }
    }

    /// Every expected metric is present with its unit or skipped with a
    /// reason, and every value is a finite number.
    pub fn check_complete(&self) -> Result<(), String> {
        let problems = missing(self.expected(), &self.metrics, &self.skipped);
        if problems.is_empty() {
            Ok(())
        } else {
            Err(format!("incomplete result: {}", problems.join("; ")))
        }
    }

    /// The one-line JSON result, printed last.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        let mut sep = "";
        for (name, _) in self.expected() {
            if let Some(m) = self.metrics.get(*name) {
                let _ = write!(
                    out,
                    "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                );
                sep = ", ";
            }
        }
        out.push_str("}}");
        out
    }

    /// The human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload={} seed={} trace={}",
            self.workload, self.seed, self.trace as u8
        );
        let _ = writeln!(out, "host {}", self.fingerprint);
        let _ = writeln!(out, "provenance {}", self.provenance);
        let _ = writeln!(
            out,
            "operations attempted={} failed={}",
            self.attempted, self.failed
        );
        for (name, m) in &self.metrics {
            let _ = writeln!(
                out,
                "metric {name:<34} {:>14.6} {:<6} n={:<6} p25={:.6} p75={:.6} {}",
                m.value, m.unit, m.n, m.p25, m.p75, m.note
            );
        }
        for (name, why) in &self.skipped {
            let _ = writeln!(out, "skipped {name}: {why}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "note {note}");
        }
        out
    }

    /// Writes the table to `dir` as this run's detail file.
    pub fn write_detail(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "{}-seed{}-trace{}.txt",
            self.workload, self.seed, self.trace as u8
        ));
        std::fs::write(&path, self.table())?;
        Ok(path)
    }
}

/// The expected metrics that are neither reported (with the expected
/// unit and a finite value) nor skipped with a reason.
pub fn missing(
    expected: &[(&str, &str)],
    got: &BTreeMap<String, Metric>,
    skipped: &[(String, String)],
) -> Vec<String> {
    expected
        .iter()
        .filter_map(|&(name, unit)| match got.get(name) {
            Some(m) if m.unit != unit => Some(format!("{name} has unit {} not {unit}", m.unit)),
            Some(m) if !m.value.is_finite() => Some(format!("{name} is {}", m.value)),
            Some(_) => None,
            None if skipped.iter().any(|(s, why)| s == name && !why.is_empty()) => None,
            None => Some(format!("{name} is missing")),
        })
        .collect()
}

/// Compares two detail files metric by metric, refusing when they were
/// measured on different hosts (their `host` lines differ) or on
/// different workloads. Their revisions and seeds may differ.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let line = |text: &str, key: &str| {
        text.lines()
            .find(|l| l.starts_with(key))
            .map(str::to_string)
    };
    let (ha, hb) = (line(a, "host "), line(b, "host "));
    if ha.is_none() || ha != hb {
        return Err(format!(
            "host fingerprints differ, results are not comparable:\n  {}\n  {}",
            ha.unwrap_or_default(),
            hb.unwrap_or_default()
        ));
    }
    let workload = |text: &str| {
        line(text, "workload=").and_then(|l| l.split_whitespace().next().map(str::to_string))
    };
    if workload(a) != workload(b) {
        return Err(format!(
            "different workloads: {} and {}",
            workload(a).unwrap_or_default(),
            workload(b).unwrap_or_default()
        ));
    }
    let mut out = String::new();
    for text in [a, b] {
        let _ = writeln!(
            out,
            "{}  {}",
            line(text, "workload=").unwrap_or_default(),
            line(text, "provenance ").unwrap_or_default()
        );
    }
    let values = |text: &str| -> BTreeMap<String, (f64, String)> {
        text.lines()
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                (f.next()? == "metric").then_some(())?;
                let name = f.next()?.to_string();
                let value = f.next()?.parse().ok()?;
                Some((name, (value, f.next()?.to_string())))
            })
            .collect()
    };
    let (va, vb) = (values(a), values(b));
    for (name, (x, unit)) in &va {
        match vb.get(name) {
            Some((y, _)) => {
                let _ = writeln!(
                    out,
                    "{name:<34} {x:>14.6} {y:>14.6} {unit:<6} x{:.4}",
                    y / x
                );
            }
            None => {
                let _ = writeln!(out, "{name:<34} {x:>14.6} {:>14} {unit}", "missing");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(trace: bool) -> Report {
        Report {
            workload: "atlas".to_string(),
            seed: 3,
            trace,
            fingerprint: host_fingerprint(),
            provenance: provenance(),
            attempted: 4,
            failed: 0,
            metrics: BTreeMap::new(),
            skipped: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn full(trace: bool) -> Report {
        let mut r = report(trace);
        for (name, unit) in r.expected() {
            r.metrics
                .insert(name.to_string(), Metric::total(1.5, 1, unit));
        }
        r
    }

    #[test]
    fn a_missing_metric_is_an_error_unless_skipped_with_a_reason() {
        let mut r = full(false);
        assert!(r.check_complete().is_ok());
        r.metrics.remove("op_tail_ms");
        let err = r.check_complete().expect_err("op_tail_ms missing");
        assert!(err.contains("op_tail_ms is missing"), "{err}");
        r.skipped.push(("op_tail_ms".to_string(), String::new()));
        assert!(r.check_complete().is_err(), "a skip needs a reason");
        r.skipped[0].1 = "not measurable here".to_string();
        assert!(r.check_complete().is_ok());
    }

    #[test]
    fn wrong_units_and_non_finite_values_are_errors() {
        let mut r = full(true);
        r.metrics.get_mut("store.open_ms").expect("present").unit = "s";
        r.metrics.get_mut("vss.oec_ns").expect("present").value = f64::NAN;
        let problems = missing(r.expected(), &r.metrics, &r.skipped);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn json_lists_exactly_the_expected_metrics() {
        let mut r = full(false);
        r.metrics
            .insert("extra".to_string(), Metric::total(9.0, 1, "ms"));
        let json = r.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        for (name, _) in END_TO_END {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": 1.5")),
                "{json}"
            );
        }
        assert!(!json.contains("extra"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = manifest
                .split(&format!("\"{section}\""))
                .nth(1)
                .and_then(|s| s.split(']').next())
                .expect("section present");
            let names: Vec<&str> = body
                .split("\"name\": \"")
                .skip(1)
                .filter_map(|s| s.split('"').next())
                .collect();
            let units: Vec<&str> = body
                .split("\"unit\": \"")
                .skip(1)
                .filter_map(|s| s.split('"').next())
                .collect();
            let ours: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            let our_units: Vec<&str> = list.iter().map(|(_, u)| *u).collect();
            assert_eq!(names, ours, "{section} names");
            assert_eq!(units, our_units, "{section} units");
        }
    }

    #[test]
    fn results_from_other_hosts_are_not_compared() {
        let a = full(false).table();
        let same = full(false).table();
        assert!(compare(&a, &same).expect("same host").contains("x1.0000"));
        let other = a.replace("nproc=", "nproc=9");
        assert!(compare(&a, &other).is_err());
        let workload = a.replace("workload=atlas", "workload=replay_audit");
        assert!(compare(&a, &workload).is_err());
    }

    #[test]
    fn results_of_other_revisions_and_seeds_are_compared() {
        let a = full(false).table();
        let mut b = full(false);
        b.provenance = "git=0123456789ab".to_string();
        b.seed = 4;
        let table = compare(&a, &b.table()).expect("same host");
        assert!(table.contains("git=0123456789ab"), "{table}");
        assert!(table.contains("x1.0000"), "{table}");
    }
}
