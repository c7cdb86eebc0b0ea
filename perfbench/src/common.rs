//! What every workload shares: the served game, its expected outcome,
//! the failure tally, and the per-pass sample record.

use crate::report::Metric;
use crate::stats::Summary;
use mediator_circuits::catalog;
use mediator_core::scenario::{CheapTalkPlan, Scenario};
use mediator_field::Fp;
use mediator_net::AuthKey;
use mediator_sim::TerminationKind;
use std::path::PathBuf;

/// Players of the served game.
pub const PLAYERS: usize = 5;

/// The move every player makes: the majority of all-ones inputs.
pub const EXPECTED_MOVE: u64 = 1;

/// The served game: Theorem 4.1 majority, n = 5, k = 1, t = 0, all-ones
/// inputs.
pub fn serving_plan() -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(PLAYERS))
        .players(PLAYERS)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; PLAYERS])
        .build()
        .expect("n = 5 > 4k admits Theorem 4.1")
}

/// The service's MAC master key for a workload seed.
pub fn auth_key(workload_seed: u64) -> AuthKey {
    AuthKey::from_seed(crate::stats::splitmix64(workload_seed ^ 0xa17e))
}

/// Where runs keep their files: stores, detail results and span dumps.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// A run of the majority game is correct when it ran to quiescence and
/// each of its `players` moved `expect`.
pub fn outcome_ok(
    termination: TerminationKind,
    moves: &[Option<u64>],
    players: usize,
    expect: u64,
) -> bool {
    termination == TerminationKind::Quiescent
        && moves.len() == players
        && moves.iter().all(|m| *m == Some(expect))
}

/// Operations attempted and failed over a whole run, with the first few
/// failure reasons for the log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.fail_attempted(reason);
    }

    /// Marks an already counted operation as failed.
    pub fn fail_attempted(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }
}

/// Completions per block of [`Pass::rate`].
pub const RATE_BLOCK: usize = 1000;

/// The samples one timed pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of each correct operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// When each correct operation completed, in seconds from the pass's
    /// start.
    pub done_s: Vec<f64>,
    /// Per-layer metrics the pass measured along the way.
    pub layer: Vec<(&'static str, Option<Metric>)>,
}

impl Pass {
    pub fn record(&mut self, latency_ms: f64, done_s: f64) {
        self.latencies_ms.push(latency_ms);
        self.done_s.push(done_s);
    }

    /// Completed operations per second. With at least four blocks of
    /// [`RATE_BLOCK`] completions it is the median, over the blocks, of a
    /// block's completions over the time they took, so a pause in one
    /// part of the pass does not decide it. Otherwise it is every
    /// completion over the time from the pass's start to the last one.
    pub fn rate(&self) -> Option<Metric> {
        let mut done = self.done_s.clone();
        done.sort_by(f64::total_cmp);
        let last = *done.last()?;
        let mut bounds = vec![0.0];
        bounds.extend(done.iter().skip(RATE_BLOCK - 1).step_by(RATE_BLOCK));
        let rates: Vec<f64> = bounds
            .windows(2)
            .filter(|w| w[1] > w[0])
            .map(|w| RATE_BLOCK as f64 / (w[1] - w[0]))
            .collect();
        if rates.len() >= 4 {
            let mut m = Metric::median(&rates, 1.0, "1/s")?;
            m.note = format!("median of {} blocks of {RATE_BLOCK}", rates.len());
            return Some(m);
        }
        if last <= 0.0 {
            return None;
        }
        let per_op: Vec<f64> = self.latencies_ms.iter().map(|ms| 1000.0 / ms).collect();
        let spread = Summary::of(&per_op)?;
        Some(Metric {
            value: done.len() as f64 / last,
            unit: "1/s",
            n: done.len(),
            p25: spread.p25,
            p75: spread.p75,
            note: format!("over {last:.3} s"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_expectations_fail_the_session_check() {
        let ones = vec![Some(1); PLAYERS];
        assert!(outcome_ok(TerminationKind::Quiescent, &ones, PLAYERS, 1));
        assert!(!outcome_ok(TerminationKind::Quiescent, &ones, PLAYERS, 0));
        assert!(!outcome_ok(TerminationKind::Deadlock, &ones, PLAYERS, 1));
        assert!(!outcome_ok(
            TerminationKind::Quiescent,
            &ones[..4],
            PLAYERS,
            1
        ));
        let mut one_silent = ones.clone();
        one_silent[2] = None;
        assert!(!outcome_ok(
            TerminationKind::Quiescent,
            &one_silent,
            PLAYERS,
            1
        ));
    }

    #[test]
    fn rate_is_the_median_block_rate_so_one_pause_does_not_decide_it() {
        let mut pass = Pass::default();
        for i in 1..=5 * RATE_BLOCK {
            // 100 a second, with a one-second pause in the third block.
            let pause = if i > 2 * RATE_BLOCK + 10 { 1.0 } else { 0.0 };
            pass.record(3.0, i as f64 * 0.01 + pause);
        }
        let m = pass.rate().expect("completions");
        assert!((m.value - 100.0).abs() < 1e-6, "{m:?}");
        assert_eq!(m.n, 5);
        // Over the whole pass it would be 5000 / 51.

        // Too few completions for four blocks: all of them over the time
        // to the last, quartiles from each one's reciprocal latency.
        let mut slow = Pass::default();
        slow.record(4000.0, 4.0);
        slow.record(2000.0, 6.0);
        let m = slow.rate().expect("completions");
        assert_eq!(m.value, 2.0 / 6.0);
        assert_eq!((m.p25, m.p75), (0.3125, 0.4375));
        assert_eq!(Pass::default().rate(), None);
    }
}
