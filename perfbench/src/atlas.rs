//! The `atlas` workload: the fast frontier grid, back to back.
//!
//! Each grid must render byte-identical to `goldens/FRONTIER.fast.json`
//! and pass `FrontierAtlas::check`. The grid's seeds are part of that
//! golden, so the workload seed does not change what runs.

use crate::common::{Pass, Tally};
use crate::report::Metric;
use crate::spans;
use mediator_core::frontier::{
    cell_result, cell_skipped, certification, prepare_cell, run_frontier_local, CellExperiment,
    CellResult, FrontierAtlas, FrontierCell, FrontierSpec,
};
use std::path::Path;
use std::time::Instant;

/// Engine labels of the fast grid, with the metric each one's cell time
/// is reported under.
pub const ENGINES: [(&str, &str); 4] = [
    ("cheap-talk:robust", "core.frontier.cell_ms.robust"),
    ("cheap-talk:eps", "core.frontier.cell_ms.eps"),
    ("cheap-talk:eps+wills", "core.frontier.cell_ms.eps_wills"),
    ("companion", "core.frontier.cell_ms.companion"),
];

pub struct Atlas {
    spec: FrontierSpec,
    golden: String,
}

impl Atlas {
    /// Reads the golden, builds every cell's experiment, and runs the
    /// cheap companion cells once (each must come back violated), so the
    /// construction and sweep paths are warm before anything is timed.
    pub fn setup(root: &Path, tally: &mut Tally) -> Result<Atlas, String> {
        let path = root.join("goldens/FRONTIER.fast.json");
        let golden =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let spec = FrontierSpec::fast();
        for (i, cell) in spec.cells().iter().enumerate() {
            if engine_of(cell, &spec) != "companion" {
                std::hint::black_box(prepare_cell(cell, &spec));
                continue;
            }
            let result = run_cell(i as u64, cell, &spec, &mut Vec::new());
            if result.class.name() == "violated" {
                tally.ok();
            } else {
                tally.fail(format!(
                    "warm-up cell {}: {}",
                    cell.key(),
                    result.class.name()
                ));
            }
        }
        Ok(Atlas { spec, golden })
    }

    /// Runs grids until `secs` would be exceeded by one more (at least
    /// one grid). Untraced grids go through `run_frontier_local`; traced
    /// ones replicate it cell by cell with spans and per-engine timings.
    pub fn pass(&self, secs: f64, tally: &mut Tally) -> Pass {
        let start = Instant::now();
        let mut pass = Pass::default();
        let mut cells: Vec<(&'static str, f64)> = Vec::new();
        let mut last = 0.0;
        while pass.latencies_ms.is_empty() || start.elapsed().as_secs_f64() + last <= secs {
            let t = Instant::now();
            let atlas = if spans::enabled() {
                let results = self
                    .spec
                    .cells()
                    .iter()
                    .enumerate()
                    .map(|(i, cell)| run_cell(i as u64, cell, &self.spec, &mut cells))
                    .collect();
                FrontierAtlas {
                    spec: self.spec.clone(),
                    results,
                }
            } else {
                run_frontier_local(&self.spec)
            };
            last = t.elapsed().as_secs_f64();
            match grid_failure(&atlas, &self.golden) {
                None => {
                    tally.ok();
                    pass.record(last * 1e3, start.elapsed().as_secs_f64());
                }
                Some(why) => tally.fail(why),
            }
        }
        pass.layer.extend(cell_metrics(&cells));
        pass
    }
}

/// Why a grid is wrong, if it is: it fails the machine check or differs
/// from the golden.
pub fn grid_failure(atlas: &FrontierAtlas, golden: &str) -> Option<String> {
    if let Err(problems) = atlas.check() {
        return Some(format!("atlas check failed: {}", problems.join("; ")));
    }
    let json = atlas.to_json();
    (json != golden).then(|| {
        let at = json
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(json.len().min(golden.len()));
        format!("atlas differs from the golden at byte {at}")
    })
}

/// One cell as `run_frontier_local` runs it, timed from `prepare_cell`
/// through its conformance sweep; the time is filed under its engine.
pub fn run_cell(
    index: u64,
    cell: &FrontierCell,
    spec: &FrontierSpec,
    times: &mut Vec<(&'static str, f64)>,
) -> CellResult {
    let t = Instant::now();
    let prepared = spans::span("core.frontier.prepare_cell", index, || {
        prepare_cell(cell, spec)
    });
    let (label, result) = match prepared.experiment {
        CellExperiment::CheapTalk {
            plan,
            label,
            game,
            types,
            conf,
        } => {
            let report = spans::span("core.frontier.conformance", index, || {
                plan.conformance(&game, &types, &conf)
            });
            (
                label,
                cell_result(prepared.cell, prepared.evidence, label, &report),
            )
        }
        CellExperiment::Companion {
            plan,
            game,
            types,
            conf,
        } => {
            let report = spans::span("core.frontier.conformance", index, || {
                plan.conformance(&game, &types, &conf)
            });
            let label = "companion";
            (
                label,
                cell_result(prepared.cell, prepared.evidence, label, &report),
            )
        }
        CellExperiment::Undecidable { reason } => (
            "undecidable",
            cell_skipped(prepared.cell, prepared.evidence, reason),
        ),
    };
    times.push((label, t.elapsed().as_secs_f64() * 1e3));
    result
}

/// The engine label a cell runs under, without running it.
pub fn engine_of(cell: &FrontierCell, spec: &FrontierSpec) -> &'static str {
    if cell.admits() {
        certification(cell, spec).1
    } else {
        "companion"
    }
}

/// `core.frontier.cell_ms.<engine>`: the median cell time per engine.
pub fn cell_metrics(times: &[(&'static str, f64)]) -> Vec<(&'static str, Option<Metric>)> {
    ENGINES
        .iter()
        .map(|&(label, name)| {
            let ms: Vec<f64> = times
                .iter()
                .filter(|(l, _)| *l == label)
                .map(|&(_, ms)| ms)
                .collect();
            (name, Metric::median(&ms, 1.0, "ms"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_grid_is_failed_when_its_golden_is_wrong() {
        let spec = FrontierSpec::tiny();
        let mut times = Vec::new();
        let results = spec
            .cells()
            .iter()
            .enumerate()
            .map(|(i, cell)| run_cell(i as u64, cell, &spec, &mut times))
            .collect();
        let atlas = FrontierAtlas {
            spec: spec.clone(),
            results,
        };
        let golden = run_frontier_local(&spec).to_json();
        assert_eq!(grid_failure(&atlas, &golden), None, "cell-by-cell == local");
        let wrong = golden.replacen("\"violated\"", "\"resilient\"", 1);
        let why = grid_failure(&atlas, &wrong).expect("a wrong golden is a failure");
        assert!(why.contains("differs from the golden"), "{why}");
        assert_eq!(times.len(), 3);
        let metrics = cell_metrics(&times);
        assert!(metrics[3].1.is_some(), "companion cells ran");
    }
}
