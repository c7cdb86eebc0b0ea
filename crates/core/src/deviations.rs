//! The deviation library and empirical robustness reports.
//!
//! Solution concepts over *extended* games quantify over all strategies —
//! an infinite space. The paper's lower-bound companion exhibits specific
//! attacks; experiments here do the analogous thing: batteries of
//! parameterized deviations applied to the honest machinery, measuring the
//! utility consequences for deviators (resilience) and bystanders
//! (immunity). [`Behavior`] deviations plug into
//! [`CheapTalkPlayer`](crate::cheap_talk::CheapTalkPlayer); they are built
//! by the [`adversary`](crate::adversary) plane's combinator DSL
//! ([`Deviation`]), which also generates the
//! coalition-strategy batteries the conformance harness sweeps. The §6.4
//! colluders are mediator-game processes
//! ([`GossipColluder`] in general;
//! [`CounterexampleColluder`] is the paper's specific point in that space).

use crate::adversary::{CollusionRule, Deviation, GossipColluder, Scheduled};
use crate::mediator::MedMsg;
use mediator_field::Fp;
use mediator_games::{library, BayesianGame};
use mediator_sim::{Action, Ctx, Process, ProcessId};

/// Parameterized deviations applied to the honest cheap-talk player:
/// player-level switches plus the message-level tactic schedule compiled
/// from the [`adversary`](crate::adversary) DSL.
#[derive(Debug, Clone, Default)]
pub struct Behavior {
    /// Never participate at all (crash at start).
    pub silent: bool,
    /// Crash (stop sending) after this many messages.
    pub crash_after_sends: Option<u64>,
    /// Substitute this input for the real one.
    pub input_override: Option<Vec<Fp>>,
    /// Corrupt every opening/output point sent.
    pub lie_in_opens: bool,
    /// Decode the action but never move (force wills/deadlock).
    pub refuse_to_move: bool,
    /// Write this will instead of the honest one.
    pub will_override: Option<Action>,
    /// Message-level tactics (drop/delay/equivocate/silence/abort windows),
    /// applied in the player's send path.
    pub tactics: Vec<Scheduled>,
}

impl Behavior {
    /// The honest behaviour.
    pub fn honest() -> Self {
        Behavior::default()
    }

    /// The classic named battery of single-player deviations, built from
    /// the combinator DSL (the conformance harness sweeps the larger
    /// [`generated_battery`](crate::adversary::generated_battery), which
    /// extends this list with windowed message-level strategies).
    pub fn battery() -> Vec<(&'static str, Behavior)> {
        let named = [
            ("silent", Deviation::named("silent").silent()),
            ("crash-mid", Deviation::named("crash-mid").crash_after(60)),
            (
                "lie-input",
                Deviation::named("lie-input").lie_about_input(vec![Fp::ONE]),
            ),
            ("lie-opens", Deviation::named("lie-opens").lie_in_opens()),
            (
                "refuse-move",
                Deviation::named("refuse-move").refuse_to_move(),
            ),
        ];
        named
            .into_iter()
            .map(|(name, d)| (name, d.build().1))
            .collect()
    }
}

/// A process that never does anything (generic silent deviator).
pub struct SilentProcess;

impl<M> Process<M> for SilentProcess {
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        ctx.halt();
    }
    fn on_message(&mut self, _src: ProcessId, _msg: M, _ctx: &mut Ctx<M>) {}
}

/// The §6.4 rational colluder (mediator game): paired players of opposite
/// parity who XOR their round-1 leaks to learn `b` early, then deadlock the
/// naive mediator when `b = 0` (preferring the 1.1 punishment payoff to the
/// 1.0 all-zeros payoff) and cooperate when `b = 1` (payoff 2).
///
/// One specific point of the generalized coalition space: a
/// [`GossipColluder`] pair under
/// `CollusionRule::DeadlockOnBit { trigger: 0, will: ⊥ }`. The conformance
/// harness *generates* this strategy (among others) rather than requiring
/// it to be hand-built.
pub struct CounterexampleColluder {
    inner: GossipColluder,
}

impl CounterexampleColluder {
    /// Creates a colluder whose gossip partner is `partner`.
    pub fn new(n: usize, partner: ProcessId) -> Self {
        let bottom = library::BOTTOM as Action;
        CounterexampleColluder {
            inner: GossipColluder::new(
                n,
                [partner],
                CollusionRule::DeadlockOnBit {
                    trigger: 0,
                    will: bottom,
                },
                bottom,
            ),
        }
    }
}

impl Process<MedMsg> for CounterexampleColluder {
    fn on_start(&mut self, ctx: &mut Ctx<MedMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, src: ProcessId, msg: MedMsg, ctx: &mut Ctx<MedMsg>) {
        self.inner.on_message(src, msg, ctx);
    }
}

/// One row of a robustness report.
#[derive(Debug, Clone)]
pub struct DeviationRow {
    /// Deviation name.
    pub name: String,
    /// Who deviated.
    pub deviators: Vec<usize>,
    /// Mean deviator utility under the deviation.
    pub deviator_utility: f64,
    /// Mean deviator utility under honest play.
    pub deviator_baseline: f64,
    /// Worst honest player's utility under the deviation.
    pub honest_worst: f64,
    /// That player's utility under honest play.
    pub honest_baseline: f64,
    /// Samples used.
    pub samples: usize,
}

impl DeviationRow {
    /// The deviator's gain (positive = resilience violated by this attack).
    pub fn gain(&self) -> f64 {
        self.deviator_utility - self.deviator_baseline
    }

    /// The harm inflicted on honest players (positive = immunity violated).
    pub fn harm(&self) -> f64 {
        self.honest_baseline - self.honest_worst
    }
}

/// An empirical (ε-)(k,t)-robustness report over a deviation battery.
#[derive(Debug, Clone, Default)]
pub struct RobustnessReport {
    /// One row per deviation tried.
    pub rows: Vec<DeviationRow>,
}

impl RobustnessReport {
    /// The largest deviator gain across the battery.
    pub fn max_gain(&self) -> f64 {
        self.rows.iter().map(DeviationRow::gain).fold(0.0, f64::max)
    }

    /// The largest honest harm across the battery.
    pub fn max_harm(&self) -> f64 {
        self.rows.iter().map(DeviationRow::harm).fold(0.0, f64::max)
    }

    /// Whether the battery found no ε-violating attack.
    pub fn is_eps_robust(&self, eps: f64) -> bool {
        self.max_gain() < eps + 1e-9 && self.max_harm() < eps + 1e-9
    }
}

/// Builds an empirical robustness report for a cheap-talk plan: runs the
/// honest baseline and every battery deviation (applied to `deviator`) as
/// seed sweeps `0..samples` of the plan, converts outcomes to game utilities
/// under the fixed `types` draw, and tabulates gains and harms.
///
/// Moves are resolved with the AH semantics when the plan carries a
/// punishment (wills) and with its default actions otherwise. Actions
/// outside the game's range are passed through to the utility function —
/// the library games treat them as "something else" (zero matches), which is
/// the natural reading of an off-menu move.
pub fn cheap_talk_robustness_report(
    plan: &crate::scenario::CheapTalkPlan,
    game: &BayesianGame,
    types: &[usize],
    deviator: usize,
    samples: usize,
) -> RobustnessReport {
    let n = plan.spec().n;
    // The baseline and every battery deviation are seed-sweep batches of
    // the one plan (fanned across worker threads by run_batch).
    let runs_for = |plan: crate::scenario::CheapTalkPlan| -> Vec<(Vec<usize>, Vec<usize>)> {
        let set = plan.seeds(0..samples as u64).run_batch();
        set.outcomes()
            .map(|out| (types.to_vec(), set.profile(out)))
            .collect()
    };
    let base_u = empirical_utilities(game, &runs_for(plan.clone()));

    let mut report = RobustnessReport::default();
    for (name, behavior) in Behavior::battery() {
        let dev_runs = runs_for(plan.clone().with_deviant(deviator, behavior));
        let dev_u = empirical_utilities(game, &dev_runs);
        let honest_worst = (0..n)
            .filter(|&p| p != deviator)
            .map(|p| dev_u[p])
            .fold(f64::INFINITY, f64::min);
        let honest_baseline = (0..n)
            .filter(|&p| p != deviator)
            .map(|p| base_u[p])
            .fold(f64::INFINITY, f64::min);
        report.rows.push(DeviationRow {
            name: name.to_string(),
            deviators: vec![deviator],
            deviator_utility: dev_u[deviator],
            deviator_baseline: base_u[deviator],
            honest_worst,
            honest_baseline,
            samples,
        });
    }
    report
}

/// Per-player expected utilities of a batch [`RunSet`](crate::scenario::RunSet)
/// under `game` with the fixed `types` draw, as confidence intervals at
/// critical value `z` — the interval-carrying replacement for feeding
/// [`empirical_utilities`] point estimates into ε comparisons.
pub fn run_set_utilities_ci(
    set: &crate::scenario::RunSet,
    game: &BayesianGame,
    types: &[usize],
    z: f64,
) -> Vec<mediator_games::ConfidenceInterval> {
    mediator_games::stats::utilities_ci(game, &run_set_samples(set, types), z)
}

/// Materializes a [`RunSet`](crate::scenario::RunSet) into the
/// `(types, actions)` sample pairs the `mediator-games` statistics layer
/// consumes, in grid (kind-major, seed-minor) order — the one
/// RunSet→samples bridge both the conformance harness and
/// [`run_set_utilities_ci`] go through.
pub fn run_set_samples(
    set: &crate::scenario::RunSet,
    types: &[usize],
) -> Vec<(Vec<usize>, Vec<usize>)> {
    set.outcomes()
        .map(|out| (types.to_vec(), set.profile(out)))
        .collect()
}

/// Mean per-player utilities over `(types, actions)` samples.
pub fn empirical_utilities(game: &BayesianGame, runs: &[(Vec<usize>, Vec<usize>)]) -> Vec<f64> {
    assert!(!runs.is_empty());
    let mut acc = vec![0.0; game.n()];
    for (types, actions) in runs {
        let us = game.utilities(types, actions);
        for i in 0..game.n() {
            acc[i] += us[i];
        }
    }
    for a in &mut acc {
        *a /= runs.len() as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_circuits::catalog;

    #[test]
    fn robustness_report_on_byzantine_agreement_game() {
        // n=5, k=1, t=0 robust cheap talk playing the BA game. The honest
        // profile pays 1 to everyone; the battery should show (a) bounded
        // gains for the deviator and (b) the harms each attack causes
        // (silent/crash deviations DO harm in the BA game: unanimity breaks
        // when the deviator does not move — that is a property of the game,
        // not a protocol failure; the protocol's job per Theorem 4.1 is to
        // match what the *mediator game* would yield under the same
        // deviation, which also breaks unanimity).
        let n = 5;
        let game = mediator_games::library::byzantine_agreement_game(n);
        let plan = crate::scenario::Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .build()
            .expect("5 > 4");
        let types = vec![1usize; n];
        let report = cheap_talk_robustness_report(&plan, &game, &types, 2, 4);
        assert_eq!(report.rows.len(), Behavior::battery().len());
        // The lie-opens attack must not profit: outputs are corrected.
        let lie = report.rows.iter().find(|r| r.name == "lie-opens").unwrap();
        assert!(lie.gain() <= 1e-9, "lying in openings gains {}", lie.gain());
        assert!(lie.harm() <= 1e-9, "lying in openings harms {}", lie.harm());
        // The lie-input attack flips the deviator's vote — with unanimous
        // honest inputs the majority is unchanged: no gain, no harm.
        let li = report.rows.iter().find(|r| r.name == "lie-input").unwrap();
        assert!(li.gain().abs() <= 1e-9 && li.harm() <= 1e-9);
    }

    #[test]
    fn run_set_utilities_carry_intervals() {
        // A mediator-game batch with unanimous votes: every run pays 1 to
        // everyone in the BA game, so the intervals are exact points.
        let n = 4;
        let game = mediator_games::library::byzantine_agreement_game(n);
        let set = crate::scenario::Scenario::mediator(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .build()
            .expect("n − k − t ≥ 1")
            .seeds(0..3)
            .run_batch();
        let cis = run_set_utilities_ci(&set, &game, &vec![1; n], 1.96);
        assert_eq!(cis.len(), n);
        for ci in &cis {
            assert!((ci.mean - 1.0).abs() < 1e-12);
            assert_eq!(ci.samples, 3);
            assert!(ci.hi - ci.lo < 1e-12);
        }
        assert_eq!(run_set_samples(&set, &vec![1; n]).len(), set.len());
    }

    #[test]
    fn battery_has_distinct_names() {
        let b = Behavior::battery();
        let names: std::collections::BTreeSet<&str> = b.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), b.len());
    }

    #[test]
    fn row_gain_and_harm() {
        let row = DeviationRow {
            name: "x".into(),
            deviators: vec![0],
            deviator_utility: 1.55,
            deviator_baseline: 1.5,
            honest_worst: 1.1,
            honest_baseline: 1.5,
            samples: 100,
        };
        assert!((row.gain() - 0.05).abs() < 1e-12);
        assert!((row.harm() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empirical_utilities_average() {
        let (game, _) = mediator_games::library::prisoners_dilemma();
        let runs = vec![
            (vec![0, 0], vec![0, 0]), // (3,3)
            (vec![0, 0], vec![1, 1]), // (1,1)
        ];
        let us = empirical_utilities(&game, &runs);
        assert_eq!(us, vec![2.0, 2.0]);
    }

    #[test]
    fn report_robustness_threshold() {
        let mut rep = RobustnessReport::default();
        rep.rows.push(DeviationRow {
            name: "a".into(),
            deviators: vec![1],
            deviator_utility: 1.0,
            deviator_baseline: 1.0,
            honest_worst: 0.95,
            honest_baseline: 1.0,
            samples: 10,
        });
        assert!(rep.is_eps_robust(0.1));
        assert!(!rep.is_eps_robust(0.01));
    }
}
