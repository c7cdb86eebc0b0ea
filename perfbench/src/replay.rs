//! The `replay_audit` workload: stored runs reopened and replayed.
//!
//! Set-up records `RUNS` in-process runs of the served game to a
//! file-backed store. The timed part reopens the log (CRC scan and index
//! rebuild), then loads and replays every run under the Replay scheduler;
//! `replay_plan` demands a byte-identical trace and an equal outcome.

use crate::common::{serving_plan, Pass, Tally, PLAYERS};
use crate::report::Metric;
use crate::spans;
use crate::stats::session_seed;
use mediator_core::scenario::CheapTalkPlan;
use mediator_sim::{RunMeta, SchedulerKind, TraceSink};
use mediator_store::{replay_plan, HeaderTemplate, PlanKind, StoreSink, TraceStore};
use std::path::PathBuf;
use std::time::Instant;

/// Runs recorded by set-up.
pub const RUNS: u64 = 128;

pub struct Audit {
    plan: CheapTalkPlan,
    path: PathBuf,
    runs: u64,
}

impl Audit {
    /// Records `runs` runs, seeded from the workload seed, to a fresh
    /// store at `path`.
    pub fn record(path: PathBuf, seed: u64, runs: u64) -> Result<Audit, String> {
        let plan = serving_plan();
        let store = TraceStore::create(&path).map_err(|e| format!("create store: {e}"))?;
        let sink = StoreSink::with_template(
            store,
            HeaderTemplate {
                plan: Some(PlanKind::CheapTalk),
                n: PLAYERS as u64,
                k: 1,
                ..HeaderTemplate::default()
            },
        );
        for i in 0..runs {
            let run_seed = session_seed(seed, i);
            let outcome = plan.run_with(&SchedulerKind::Random, run_seed);
            sink.record(&RunMeta::cell(i, SchedulerKind::Random, run_seed), &outcome);
        }
        if let Some(e) = sink.take_error() {
            return Err(format!("recording failed: {e}"));
        }
        Ok(Audit { plan, path, runs })
    }

    /// Reopens and replays the log until `secs` have passed (at least one
    /// replay). Each replay is one operation, timed from its load.
    pub fn pass(&self, secs: f64, tally: &mut Tally) -> Result<Pass, String> {
        let start = Instant::now();
        let mut pass = Pass::default();
        let (mut open_ms, mut load_us, mut replay_ms) = (Vec::new(), Vec::new(), Vec::new());
        'passes: while start.elapsed().as_secs_f64() < secs || pass.latencies_ms.is_empty() {
            let t = Instant::now();
            let store = spans::span("store.open", 0, || TraceStore::open(&self.path))
                .map_err(|e| format!("reopen store: {e}"))?;
            open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if store.len() as u64 != self.runs {
                tally.fail(format!(
                    "reopened store holds {} runs, {} were recorded",
                    store.len(),
                    self.runs
                ));
                break;
            }
            for id in store.ids() {
                if start.elapsed().as_secs_f64() >= secs && !pass.latencies_ms.is_empty() {
                    break 'passes;
                }
                let t = Instant::now();
                let run = spans::span("store.load", id as u64, || store.load(id));
                let loaded = Instant::now();
                let replayed = run.map_err(|e| e.to_string()).and_then(|run| {
                    spans::span("store.replay_plan", id as u64, || {
                        replay_plan(&self.plan, &run).map_err(|e| e.to_string())
                    })
                });
                let done = Instant::now();
                load_us.push((loaded - t).as_secs_f64() * 1e6);
                replay_ms.push((done - loaded).as_secs_f64() * 1e3);
                match replayed {
                    Ok(_) => {
                        tally.ok();
                        pass.record((done - t).as_secs_f64() * 1e3, (done - start).as_secs_f64());
                    }
                    Err(e) => tally.fail(format!("replay of run {id}: {e}")),
                }
            }
        }
        pass.layer.extend([
            ("store.open_ms", Metric::median(&open_ms, 1.0, "ms")),
            ("store.load_us", Metric::median(&load_us, 1.0, "us")),
            ("store.replay_ms", Metric::median(&replay_ms, 1.0, "ms")),
        ]);
        Ok(pass)
    }

    pub fn finish(self) -> Result<(), String> {
        std::fs::remove_file(&self.path).map_err(|e| format!("remove store: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_runs_replay_and_a_wrong_run_count_is_counted_as_failed() {
        let dir = crate::common::work_dir().join(format!("test-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("work dir");
        let audit = Audit::record(dir.join("audit.mtrc"), 3, 4).expect("record");
        let mut tally = Tally::default();
        let pass = audit.pass(0.0, &mut tally).expect("pass");
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "{:?}",
            tally.reasons
        );
        assert_eq!(pass.latencies_ms.len(), 1);

        // Expect more runs than the log holds: the reopen check fails.
        let wrong = Audit { runs: 5, ..audit };
        let mut tally = Tally::default();
        wrong.pass(0.0, &mut tally).expect("pass");
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        wrong.finish().expect("cleanup");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
