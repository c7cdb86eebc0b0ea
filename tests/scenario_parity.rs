//! Parity suite: the `Scenario` builder reproduces, **byte for byte**, the
//! `Outcome`s of the positional run API it replaced, for fixed
//! `(scheduler, seed)` pairs across the battery — pinned through
//! `Outcome::fingerprint()`, which hashes the full message pattern, moves,
//! wills, halted flags, counters and termination.
//!
//! The `*_wrapper_matches_builder*` tests compare against fingerprints
//! recorded from that API — the free-function cheap-talk, mediator-game
//! and relaxed mediator-game runners over the positional spec
//! constructors — at the parent of the commit that deleted it. Each table
//! lists one fingerprint per `(scheduler, seed)` cell in battery-major,
//! seed-minor order.
//!
//! Also pins: session-vs-closed-loop parity, batch-vs-individual parity,
//! thread-count invariance of `run_batch`, and the `run_machines` wrapper
//! against the `Machines` builder.

use mediator_talk::core::deviations::SilentProcess;
use mediator_talk::prelude::*;

const N: usize = 5;
const SEEDS: std::ops::Range<u64> = 0..3;

fn ct_plan(behaviors: &[(usize, Behavior)]) -> CheapTalkPlan {
    let mut b = Scenario::cheap_talk(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(
            [1u64, 0, 1, 1, 0]
                .iter()
                .map(|&v| vec![Fp::new(v)])
                .collect(),
        )
        .max_steps(2_000_000);
    for (p, beh) in behaviors {
        b = b.deviant(*p, beh.clone());
    }
    b.build().expect("5 > 4")
}

/// Asserts that `run(kind, seed)` reproduces `recorded`, one fingerprint per
/// `kinds × SEEDS` cell.
fn assert_pinned(
    kinds: &[SchedulerKind],
    recorded: &[u64],
    run: impl Fn(&SchedulerKind, u64) -> Outcome,
) {
    assert_eq!(recorded.len(), kinds.len() * SEEDS.count());
    let cells = kinds
        .iter()
        .flat_map(|kind| SEEDS.map(move |seed| (kind, seed)));
    for ((kind, seed), &fingerprint) in cells.zip(recorded) {
        assert_eq!(
            run(kind, seed).fingerprint(),
            fingerprint,
            "{kind:?} seed {seed}"
        );
    }
}

/// Recorded at the parent from the free-function cheap-talk runner over the
/// positional Theorem 4.1 spec `(n, k, t) = (5, 1, 0)`, majority circuit,
/// zero defaults and zero default actions, with inputs `(1, 0, 1, 1, 0)`,
/// no deviants and a 2 000 000-step budget, across
/// `SchedulerKind::battery(5)`.
const CT_BATTERY: [u64; 21] = [
    0x1daf4807e55f576e,
    0x1e8c45bb31849795,
    0x3d35059afd2ed2e6,
    0x25283d1e6f3e45f1,
    0x25283d1e6f3e45f1,
    0x25283d1e6f3e45f1,
    0x5aa1d9392e749350,
    0x5aa1d9392e749350,
    0x5aa1d9392e749350,
    0x89b004a72b60c802,
    0xbfe7ef1bcac0a464,
    0xabd3b930ebf29fe4,
    0x6a76262d38c0be74,
    0x1d1bb45c371174d7,
    0x65b9e518bbfbc5a9,
    0xb6ab3c8c192f858e,
    0x9a7d9b07f10493e9,
    0x3d6479cc8f6491da,
    0x318e416e16e86d42,
    0xb973dfc25efd852f,
    0x224104d1a5bf25a6,
];

#[test]
fn cheap_talk_wrapper_matches_builder_across_battery() {
    let plan = ct_plan(&[]);
    assert_pinned(&SchedulerKind::battery(N), &CT_BATTERY, |kind, seed| {
        plan.run_with(kind, seed)
    });
}

/// Recorded at the parent from the same run as [`CT_BATTERY`] with player 2
/// lying in its openings, under Random then LIFO.
const CT_DEVIANT: [u64; 6] = [
    0x487c1926fdcc8dc2,
    0xae28ff55c1c9d4f7,
    0xf815bdfa44f6fdcf,
    0x195f5513c42cc4db,
    0x195f5513c42cc4db,
    0x195f5513c42cc4db,
];

#[test]
fn cheap_talk_wrapper_matches_builder_with_deviants() {
    let deviation = Behavior {
        lie_in_opens: true,
        ..Behavior::default()
    };
    let plan = ct_plan(&[(2, deviation)]);
    let kinds = [SchedulerKind::Random, SchedulerKind::Lifo];
    assert_pinned(&kinds, &CT_DEVIANT, |kind, seed| plan.run_with(kind, seed));
}

fn med_plan() -> MediatorPlan {
    Scenario::mediator(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; N])
        .max_steps(100_000)
        .build()
        .expect("n − k − t ≥ 1")
}

/// Recorded at the parent from the free-function mediator-game runner over
/// the positional standard spec `(n, k, t) = (5, 1, 0)`, majority circuit
/// and zero defaults, with all-ones inputs, no deviants and a 100 000-step
/// budget, across `SchedulerKind::battery(5)`.
const MED_BATTERY: [u64; 21] = [
    0x1123caef5943333c,
    0x0b0e42d590a963ef,
    0xec33c58c97716975,
    0xf794d43ddac4a2b4,
    0xf794d43ddac4a2b4,
    0xf794d43ddac4a2b4,
    0x2e4e7421c69dafa7,
    0x2e4e7421c69dafa7,
    0x2e4e7421c69dafa7,
    0x08cb7880108afdb8,
    0x0a45a9cd916c3329,
    0xa4564b8ceca06e43,
    0xf6abc7a18a1acd69,
    0x37b3c6380da3c358,
    0xb6a48f0d9e71922a,
    0x1457e6e8178cc768,
    0x25159d8eba83a153,
    0x5fc56f8bf7191693,
    0x96a2a405e9ddd945,
    0x15c4b3eba1e6e7c9,
    0x1dec17253c45acab,
];

#[test]
fn mediator_wrapper_matches_builder_across_battery() {
    let plan = med_plan();
    assert_pinned(&SchedulerKind::battery(N), &MED_BATTERY, |kind, seed| {
        plan.run_with(kind, seed)
    });
}

/// Recorded at the parent from the same run as [`MED_BATTERY`] with player 2
/// replaced by a boxed `SilentProcess`, under Random.
const MED_DEVIANT: [u64; 3] = [0xecfecf162e8521fd, 0xd1cd542c27f9ec7f, 0xf82a317a5e676dbd];

#[test]
fn mediator_wrapper_matches_builder_with_deviant_process() {
    let plan = med_plan().with_deviant(2, || Box::new(SilentProcess));
    assert_pinned(&[SchedulerKind::Random], &MED_DEVIANT, |kind, seed| {
        plan.run_with(kind, seed)
    });
}

/// Recorded at the parent from the free-function relaxed mediator-game
/// runner over the [`MED_BATTERY`] spec with wills `7` for every player,
/// dropping the mediator's traffic after `N + 1` deliveries.
const RELAXED: [u64; 3] = [0xc6af7f8bddb6d556, 0xfe7bcc8aea972281, 0xd6c6ee0c06377ffd];

#[test]
fn relaxed_wrapper_matches_builder() {
    let plan = Scenario::mediator(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; N])
        .wills(vec![7; N])
        .max_steps(100_000)
        .build()
        .expect("n − k − t ≥ 1");
    for (seed, &fingerprint) in SEEDS.zip(&RELAXED) {
        let built = plan.run_relaxed(N as u64 + 1, seed);
        assert_eq!(built.fingerprint(), fingerprint, "seed {seed}");
    }
}

#[test]
fn session_matches_closed_loop_for_both_game_kinds() {
    let plan = ct_plan(&[]);
    for kind in [SchedulerKind::Random, SchedulerKind::Fifo] {
        let closed = plan.run_with(&kind, 1);
        let open = plan.session_with(&kind, 1).finish();
        assert_eq!(
            open.fingerprint(),
            closed.fingerprint(),
            "cheap talk {kind:?}"
        );
    }
    let plan = med_plan();
    for kind in [SchedulerKind::Random, SchedulerKind::Lifo] {
        let closed = plan.run_with(&kind, 1);
        let open = plan.session_with(&kind, 1).finish();
        assert_eq!(
            open.fingerprint(),
            closed.fingerprint(),
            "mediator {kind:?}"
        );
    }
}

#[test]
fn batch_matches_individual_runs_and_is_thread_invariant() {
    let plan = ct_plan(&[]);
    let kinds = vec![SchedulerKind::Random, SchedulerKind::Lifo];
    let sequential = plan
        .battery(kinds.clone())
        .seeds(SEEDS)
        .threads(1)
        .run_batch();
    let parallel = plan
        .battery(kinds.clone())
        .seeds(SEEDS)
        .threads(4)
        .run_batch();
    assert_eq!(sequential.len(), kinds.len() * SEEDS.count());
    for (s, p) in sequential.runs().iter().zip(parallel.runs()) {
        assert_eq!(s.kind, p.kind);
        assert_eq!(s.seed, p.seed);
        assert_eq!(
            s.outcome.fingerprint(),
            p.outcome.fingerprint(),
            "{:?} seed {}",
            s.kind,
            s.seed
        );
        let individual = plan.run_with(&s.kind, s.seed);
        assert_eq!(
            s.outcome.fingerprint(),
            individual.fingerprint(),
            "batch cell must equal a lone run ({:?} seed {})",
            s.kind,
            s.seed
        );
    }
}

#[test]
fn run_machines_wrapper_matches_machines_builder() {
    use mediator_talk::bcast::RbcPeer;
    use mediator_talk::sim::{run_machines, Machines};
    let mk = || -> Vec<RbcPeer<u64>> {
        (0..4)
            .map(|me| RbcPeer::new(4, 1, 0, me, (me == 0).then_some(42)))
            .collect()
    };
    for seed in SEEDS {
        let (legacy, legacy_out) = run_machines(
            mk(),
            Vec::new(),
            SchedulerKind::Random.build().as_mut(),
            seed,
            100_000,
        );
        let (built, built_out) =
            Machines::new(mk()).run(SchedulerKind::Random.build().as_mut(), seed, 100_000);
        assert_eq!(legacy.fingerprint(), built.fingerprint(), "seed {seed}");
        assert_eq!(legacy_out, built_out);
        // And the steppable variant drains to the same outcome.
        let (session, outputs) =
            Machines::new(mk()).session(SchedulerKind::Random.build(), seed, 100_000);
        let stepped = session.finish();
        assert_eq!(legacy.fingerprint(), stepped.fingerprint(), "seed {seed}");
        assert_eq!(outputs.take(), legacy_out);
    }
}
