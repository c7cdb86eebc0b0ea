//! Asynchronous verifiable secret sharing (`t < n/4`) from symmetric
//! bivariate polynomials, shipping vectors of secrets per instance.
//!
//! The dealer samples, per secret, a random symmetric bivariate polynomial
//! `S(x, y)` of degree `f` in each variable with `S(0,0) = secret`, and
//! sends player `i` its *row* `f_i(y) = S(x_i, y)`. Players cross-check by
//! echoing evaluation points (`f_i(x_j) = f_j(x_i)` by symmetry), confirm
//! their row once `2f+1` echoes agree with it, recover a missing or
//! corrupted row by online error correction over the echoes addressed to
//! them, and run Bracha-style READY amplification to terminate. The final
//! share is `f_i(0)`, a point on the degree-`f` polynomial `S(x, 0)`.
//!
//! Properties exercised by the tests (for `n > 4f`):
//!
//! * honest dealer → every honest player completes with consistent shares;
//! * a withheld row is recovered from echoes;
//! * a corrupted row is overridden by the echo consensus;
//! * a dealer that shares to too few players completes nowhere (so the ACS
//!   excludes it from the input core).
//!
//! Cost: an MPC input phase shares a whole vector per instance (162
//! secrets at the robust cell's `n = 9`), so the per-coordinate algebra is
//! the bill. Dealing and echoing evaluate on the share grid with one
//! reduction per value ([`grid::eval_grid`]); a player keeps the echo
//! vector it sent and confirms its row by comparing the echoes it receives
//! against it; recovery tries every coordinate first against the same
//! first `2f+1` echo senders — one cached interpolation matrix — and runs
//! the full online error correction only for a coordinate that fails
//! there. The `spec_parity` tests pin all of this, value for value, to the
//! implementation it replaced.

use crate::reconstruct::OecState;
use crate::shamir::Share;
use mediator_field::{grid, rs, Fp, Poly};
use mediator_sim::sansio::Payload;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// AVSS wire messages (vector-valued: one entry per shared secret).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AvssMsg {
    /// Dealer → player: the player's row polynomial coefficients, one
    /// coefficient vector per secret. [`Payload`]-shared so re-routing or
    /// buffering a dealing never deep-copies the coefficient matrix.
    Rows(Payload<Vec<Vec<Fp>>>),
    /// Player `i` → player `j`: the evaluations `f_i(x_j)`, one per secret.
    Echo(Vec<Fp>),
    /// Bracha-style completion vote.
    Ready,
}

/// Outgoing message with explicit destination (AVSS rows are per-recipient,
/// so the generic broadcast-only plumbing does not fit).
pub type AvssOut = (AvssDest, AvssMsg);

/// Destination selector for [`AvssOut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AvssDest {
    /// To one player.
    One(usize),
    /// To all players (including self).
    All,
}

/// Dealer-side sharing: builds the per-player row messages.
///
/// Returns one `Rows` message per player.
pub fn deal<R: Rng + ?Sized>(secrets: &[Fp], n: usize, f: usize, rng: &mut R) -> Vec<AvssMsg> {
    let w = f + 1;
    // One vector per player (`vec![v; n]` would clone away the capacity).
    let mut rows: Vec<Vec<Vec<Fp>>> = (0..n).map(|_| Vec::with_capacity(secrets.len())).collect();
    // One symmetric bivariate polynomial per secret,
    // S(x,y) = Σ_{a,b} m[a][b] x^a y^b with m symmetric and m[0][0] = s.
    // The upper triangle is drawn row by row: that order fixes the RNG
    // stream, and with it every dealt row.
    let mut m = vec![Fp::ZERO; w * w];
    // evals[b * n + i]: coefficient b of player i's row.
    let mut evals = vec![Fp::ZERO; w * n];
    for &s in secrets {
        for a in 0..w {
            for b in a..w {
                let c = if a == 0 && b == 0 { s } else { Fp::random(rng) };
                m[a * w + b] = c;
                m[b * w + a] = c;
            }
        }
        // f_i(y) = Σ_b (Σ_a m[a][b] x_i^a) y^b, and by symmetry the inner
        // sum is row b of m evaluated at x_i.
        for (m_b, out) in m.chunks_exact(w).zip(evals.chunks_exact_mut(n)) {
            grid::eval_grid(m_b, out);
        }
        for (i, row) in rows.iter_mut().enumerate() {
            row.push((0..w).map(|b| evals[b * n + i]).collect());
        }
    }
    rows.into_iter()
        .map(|r| AvssMsg::Rows(Payload::new(r)))
        .collect()
}

/// One player's state in one AVSS instance.
#[derive(Debug, Clone)]
pub struct AvssState {
    n: usize,
    f: usize,
    me: usize,
    num_secrets: Option<usize>,
    /// The dealt rows, until confirmation moves them into
    /// `confirmed_rows`.
    own_rows: Option<Vec<Poly>>,
    confirmed_rows: Option<Vec<Poly>>,
    echoes: BTreeMap<usize, Vec<Fp>>,
    /// The echoes this player sent, `sent[j][c] = f_me,c(x_j)`: own-row
    /// agreement is counted against them.
    sent: Option<Vec<Vec<Fp>>>,
    ready_sent: bool,
    ready_recv: BTreeSet<usize>,
    completed: bool,
}

impl AvssState {
    /// Creates the receiving-side state for one instance.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 4f` (the AVSS threshold) and `me < n`.
    pub fn new(n: usize, f: usize, me: usize) -> Self {
        assert!(n > 4 * f, "AVSS requires n > 4f (n={n}, f={f})");
        assert!(me < n);
        AvssState {
            n,
            f,
            me,
            num_secrets: None,
            own_rows: None,
            confirmed_rows: None,
            echoes: BTreeMap::new(),
            sent: None,
            ready_sent: false,
            ready_recv: BTreeSet::new(),
            completed: false,
        }
    }

    /// Whether the instance completed (shares available).
    pub fn is_completed(&self) -> bool {
        self.completed
    }

    /// The share vector `f_me(0)` once completed.
    pub fn shares(&self) -> Option<Vec<Share>> {
        if !self.completed {
            return None;
        }
        let rows = self.confirmed_rows.as_ref()?;
        Some(
            rows.iter()
                .map(|r| Share {
                    index: self.me,
                    value: r.eval(Fp::ZERO),
                })
                .collect(),
        )
    }

    /// Processes a message from `from` (the dealer for `Rows`, peers for the
    /// rest). Returns outgoing messages and `true` when the instance
    /// completes now.
    pub fn on_message(&mut self, from: usize, msg: AvssMsg) -> (Vec<AvssOut>, bool) {
        let mut out = Vec::new();
        if self.completed {
            return (out, false);
        }
        match msg {
            AvssMsg::Rows(rows) => {
                // Rows count until echoes have been sent, from dealt rows
                // or from recovered ones.
                if self.sent.is_none() && self.valid_rows(&rows) {
                    self.num_secrets = Some(rows.len());
                    // Point-to-point dealing: this is normally the last
                    // reference, so taking ownership is copy-free.
                    let rows: Vec<Poly> = rows
                        .into_inner()
                        .into_iter()
                        .map(Poly::from_coeffs)
                        .collect();
                    self.sent = Some(echo(self.n, &rows, &mut out));
                    self.own_rows = Some(rows);
                }
                let _ = from;
            }
            AvssMsg::Echo(vals) => {
                if let Some(k) = self.num_secrets {
                    if vals.len() != k {
                        return (out, false); // malformed echo: drop
                    }
                } else {
                    self.num_secrets = Some(vals.len());
                }
                self.echoes.entry(from).or_insert(vals);
            }
            AvssMsg::Ready => {
                self.ready_recv.insert(from);
            }
        }
        self.progress(&mut out);
        let done = self.completed;
        (out, done)
    }

    fn valid_rows(&self, rows: &[Vec<Fp>]) -> bool {
        !rows.is_empty() && rows.iter().all(|r| r.len() <= self.f + 1)
    }

    /// Attempts confirmation, READY, amplification, recovery, completion.
    fn progress(&mut self, out: &mut Vec<AvssOut>) {
        self.try_confirm();
        // Late recovery may enable our echoes (helping others finish).
        if self.sent.is_none() {
            if let Some(rows) = &self.confirmed_rows {
                self.sent = Some(echo(self.n, rows, out));
            }
        }
        if self.confirmed_rows.is_some() && !self.ready_sent {
            // Direct READY once confirmed, or amplified READY at f+1 votes.
            let amplify = self.ready_recv.len() > self.f;
            let direct = true; // confirmation alone suffices to vote
            if direct || amplify {
                self.ready_sent = true;
                out.push((AvssDest::All, AvssMsg::Ready));
            }
        }
        if self.confirmed_rows.is_some() && self.ready_recv.len() > 2 * self.f && !self.completed {
            self.completed = true;
        }
    }

    /// Confirms rows coordinate-wise: own row if ≥ 2f+1 echoes agree, else
    /// the OEC-recovered row from the echoes addressed to us. Confirmation
    /// is all or nothing: it stops at the first coordinate that neither
    /// path confirms yet.
    fn try_confirm(&mut self) {
        if self.confirmed_rows.is_some() {
            return;
        }
        let Some(k) = self.num_secrets else { return };
        // Well-formed echoes in sorted sender order (the OEC input order),
        // and, once rows are known, each paired with the value we echoed
        // to its sender: by symmetry an honest echo equals it.
        let echoes: Vec<(usize, &[Fp])> = self
            .echoes
            .iter()
            .filter(|(_, vals)| vals.len() == k)
            .map(|(&j, vals)| (j, vals.as_slice()))
            .collect();
        let pairs: Vec<(&[Fp], &[Fp])> = match &self.sent {
            Some(sent) => echoes
                .iter()
                .filter_map(|&(j, vals)| sent.get(j).map(|mine| (mine.as_slice(), vals)))
                .collect(),
            None => Vec::new(),
        };
        let mut recovery = Recovery::new(self.f, &echoes);
        let mut recovered: Vec<(usize, Poly)> = Vec::new();
        for c in 0..k {
            let agree = pairs
                .iter()
                .filter(|(mine, vals)| mine[c] == vals[c])
                .count();
            if agree > 2 * self.f {
                continue;
            }
            match recovery.coordinate(c) {
                Some(p) => recovered.push((c, p)),
                None => return, // coordinate not confirmable yet
            }
        }
        // Without own rows every coordinate was recovered, in order.
        let rows = match self.own_rows.take() {
            Some(mut rows) => {
                for (c, p) in recovered {
                    rows[c] = p;
                }
                rows
            }
            None => recovered.into_iter().map(|(_, p)| p).collect(),
        };
        self.confirmed_rows = Some(rows);
    }
}

/// Emits the echoes of `rows` — `f_c(x_j)` for every coordinate `c`, one
/// vector per player `j` — and returns them, indexed by `j`.
fn echo(n: usize, rows: &[Poly], out: &mut Vec<AvssOut>) -> Vec<Vec<Fp>> {
    let mut sent: Vec<Vec<Fp>> = (0..n).map(|_| Vec::with_capacity(rows.len())).collect();
    let mut evals = vec![Fp::ZERO; n];
    for r in rows {
        grid::eval_grid(r.coeffs(), &mut evals);
        for (vals, &v) in sent.iter_mut().zip(&evals) {
            vals.push(v);
        }
    }
    for (j, vals) in sent.iter().enumerate() {
        out.push((AvssDest::One(j), AvssMsg::Echo(vals.clone())));
    }
    sent
}

/// Echo-consensus recovery of single coordinates: the echoes sent to me
/// are points of my row (symmetry); online error correction over them, in
/// sorted sender order, accepts a coordinate at the first prefix that
/// decodes with ≤ f corruptions and 2f+1 agreement.
///
/// OEC's first attempt is at the first 2f+1 senders, and there it can only
/// accept a degree-`f` polynomial through all of them. That attempt is
/// shared by every coordinate, so it runs here directly, over one index
/// set; only a coordinate it rejects replays the full OEC.
struct Recovery<'a> {
    f: usize,
    echoes: &'a [(usize, &'a [Fp])],
    /// The first 2f+1 senders, and scratch for their values.
    first: Vec<usize>,
    ys: Vec<Fp>,
}

impl<'a> Recovery<'a> {
    fn new(f: usize, echoes: &'a [(usize, &'a [Fp])]) -> Self {
        let first: Vec<usize> = echoes.iter().take(2 * f + 1).map(|&(j, _)| j).collect();
        Recovery {
            f,
            echoes,
            ys: Vec::with_capacity(first.len()),
            first,
        }
    }

    fn coordinate(&mut self, c: usize) -> Option<Poly> {
        if self.first.len() <= 2 * self.f {
            return None; // OEC cannot accept below 2f+1 points
        }
        self.ys.clear();
        self.ys.extend(
            self.echoes
                .iter()
                .take(self.first.len())
                .map(|(_, vals)| vals[c]),
        );
        if let Ok(p) = rs::interpolate_exact_indices(&self.first, &self.ys, self.f) {
            return Some(p);
        }
        let mut oec = OecState::new(self.f, self.f);
        for &(j, vals) in self.echoes {
            if oec.add_share(j, vals[c]).is_some() {
                return oec.polynomial().cloned();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_field::rs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimal driver: routes AvssOut messages among `n` states; `drop_row`
    /// suppresses the dealer's Rows to those players; `corrupt_row` hands
    /// those players a garbage row instead.
    fn run(
        n: usize,
        f: usize,
        dealer: usize,
        secrets: &[Fp],
        drop_rows: &[usize],
        corrupt_rows: &[usize],
        seed: u64,
    ) -> Vec<AvssState> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut states: Vec<AvssState> = (0..n).map(|i| AvssState::new(n, f, i)).collect();
        let rows = deal(secrets, n, f, &mut rng);
        let mut queue: Vec<(usize, usize, AvssMsg)> = Vec::new();
        for (i, msg) in rows.into_iter().enumerate() {
            if drop_rows.contains(&i) {
                continue;
            }
            let msg = if corrupt_rows.contains(&i) {
                AvssMsg::Rows(Payload::new(
                    secrets
                        .iter()
                        .map(|_| vec![Fp::random(&mut rng); f + 1])
                        .collect(),
                ))
            } else {
                msg
            };
            queue.push((dealer, i, msg));
        }
        use rand::Rng;
        let mut guard = 0u64;
        while !queue.is_empty() {
            guard += 1;
            assert!(guard < 1_000_000, "AVSS test livelock");
            let i = rng.gen_range(0..queue.len());
            let (from, to, msg) = queue.swap_remove(i);
            let (out, _) = states[to].on_message(from, msg);
            for (dest, m) in out {
                match dest {
                    AvssDest::One(d) => queue.push((to, d, m)),
                    AvssDest::All => {
                        for d in 0..n {
                            queue.push((to, d, m.clone()));
                        }
                    }
                }
            }
        }
        states
    }

    fn check_consistent_shares(states: &[AvssState], f: usize, secrets: &[Fp]) {
        for (c, &secret) in secrets.iter().enumerate() {
            let pts: Vec<(Fp, Fp)> = states
                .iter()
                .filter(|s| s.is_completed())
                .map(|s| s.shares().unwrap()[c].point())
                .collect();
            assert!(pts.len() > f, "not enough completed players");
            let p = rs::interpolate_exact(&pts, f).expect("shares must be f-consistent");
            assert_eq!(p.eval(Fp::ZERO), secret, "coordinate {c}");
        }
    }

    #[test]
    fn honest_dealer_all_complete_consistently() {
        let secrets = [Fp::new(11), Fp::new(22), Fp::new(33)];
        for seed in 0..3 {
            let states = run(5, 1, 0, &secrets, &[], &[], seed);
            assert!(states.iter().all(|s| s.is_completed()), "seed {seed}");
            check_consistent_shares(&states, 1, &secrets);
        }
    }

    #[test]
    fn withheld_row_is_recovered_from_echoes() {
        let secrets = [Fp::new(5)];
        for seed in 0..3 {
            let states = run(5, 1, 0, &secrets, &[3], &[], seed);
            assert!(
                states[3].is_completed(),
                "player 3 must recover, seed {seed}"
            );
            check_consistent_shares(&states, 1, &secrets);
        }
    }

    #[test]
    fn corrupted_row_is_overridden_by_echo_consensus() {
        let secrets = [Fp::new(1234)];
        for seed in 0..3 {
            let states = run(5, 1, 0, &secrets, &[], &[2], seed);
            assert!(states[2].is_completed(), "seed {seed}");
            // Crucially the corrupted player's share lies on the same
            // polynomial as everyone else's.
            check_consistent_shares(&states, 1, &secrets);
        }
    }

    #[test]
    fn dealer_sharing_to_too_few_completes_nowhere() {
        let secrets = [Fp::new(9)];
        // Rows reach only 2 of 5 players: 2f+1 = 3 echo confirmations are
        // unreachable, so nobody confirms, nobody votes READY.
        let states = run(5, 1, 0, &secrets, &[2, 3, 4], &[], 0);
        assert!(states.iter().all(|s| !s.is_completed()));
    }

    #[test]
    fn larger_instance_with_two_faults() {
        let secrets = [Fp::new(7), Fp::new(8)];
        let states = run(9, 2, 4, &secrets, &[0], &[1], 11);
        assert!(states.iter().all(|s| s.is_completed()));
        check_consistent_shares(&states, 2, &secrets);
    }

    #[test]
    #[should_panic(expected = "n > 4f")]
    fn rejects_insufficient_n() {
        let _ = AvssState::new(8, 2, 0);
    }

    #[test]
    fn shares_unavailable_before_completion() {
        let s = AvssState::new(5, 1, 0);
        assert!(!s.is_completed());
        assert!(s.shares().is_none());
    }
}

/// Differential suite: the grid-evaluated dealing and the echo-vector
/// confirmation versus an executable copy of the implementation they
/// replaced ("spec AVSS"), which deals by per-coefficient accumulation,
/// re-evaluates its own row for every stored echo on every message, and
/// recovers rows through a point-form OEC on `rs::decode_robust` (so the
/// grid kernel is checked against `Poly::interpolate` as well). Each
/// player runs both machines in lockstep under the `World`: every message
/// goes to both, and their outgoing messages, completion flags and share
/// vectors must be equal after every delivery — so the completion step is
/// equal too. The instance has the robust cell's shape (n = 9, f = 2, a
/// 162-secret vector) and one fault per suite, across the scheduler
/// battery × 16 seeds. The trace goldens in `tests/trace_golden.rs` hash
/// message patterns only; this suite compares every field element.
#[cfg(test)]
mod spec_parity {
    use super::*;
    use crate::reconstruct::OecState;
    use mediator_field::rs;
    use mediator_sim::sansio::{run_machines, Outgoing, SansIo};
    use mediator_sim::SchedulerKind;
    use rand::rngs::StdRng;

    /// The replaced online error correction: a point map, a fresh point
    /// vector per attempt, and point-form interpolation for `e = 0` — an
    /// oracle for the grid kernel on the recovery path.
    struct SpecOec {
        deg: usize,
        f: usize,
        points: BTreeMap<usize, Fp>,
        decoded: Option<Poly>,
    }

    impl SpecOec {
        fn new(deg: usize, f: usize) -> Self {
            SpecOec {
                deg,
                f,
                points: BTreeMap::new(),
                decoded: None,
            }
        }

        fn polynomial(&self) -> Option<&Poly> {
            self.decoded.as_ref()
        }

        fn add_share(&mut self, index: usize, value: Fp) -> Option<Fp> {
            if self.decoded.is_some() {
                return None;
            }
            self.points.entry(index).or_insert(value);
            let m = self.points.len();
            if m < self.deg + self.f + 1 {
                return None;
            }
            let pts: Vec<(Fp, Fp)> = self
                .points
                .iter()
                .map(|(&i, &y)| (Fp::new(i as u64 + 1), y))
                .collect();
            let max_e = ((m.saturating_sub(self.deg + 1)) / 2).min(self.f);
            for e in 0..=max_e {
                if let Ok((poly, bad)) = rs::decode_robust(&pts, self.deg, e) {
                    if m - bad.len() > self.deg + self.f {
                        let s = poly.eval(Fp::ZERO);
                        self.decoded = Some(poly);
                        return Some(s);
                    }
                }
            }
            None
        }
    }

    /// The replaced dealing: per-player Horner-style coefficient sums.
    #[allow(clippy::needless_range_loop)] // symmetric matrix fill writes m[a][b] and m[b][a]
    fn spec_deal<R: Rng + ?Sized>(secrets: &[Fp], n: usize, f: usize, rng: &mut R) -> Vec<AvssMsg> {
        // One symmetric bivariate polynomial per secret:
        // S(x,y) = Σ_{a≤b} c_{ab} (x^a y^b + x^b y^a excess handled below).
        // We store the full (f+1)×(f+1) symmetric coefficient matrix.
        let per_secret: Vec<Vec<Vec<Fp>>> = secrets
            .iter()
            .map(|&s| {
                let mut m = vec![vec![Fp::ZERO; f + 1]; f + 1];
                for a in 0..=f {
                    for b in a..=f {
                        let c = if a == 0 && b == 0 { s } else { Fp::random(rng) };
                        m[a][b] = c;
                        m[b][a] = c;
                    }
                }
                m
            })
            .collect();
        (0..n)
            .map(|i| {
                let xi = Fp::new(i as u64 + 1);
                let rows: Vec<Vec<Fp>> = per_secret
                    .iter()
                    .map(|m| {
                        // f_i(y) = Σ_b (Σ_a m[a][b] x_i^a) y^b
                        (0..=f)
                            .map(|b| {
                                let mut acc = Fp::ZERO;
                                let mut xp = Fp::ONE;
                                for row in m.iter().take(f + 1) {
                                    acc += row[b] * xp;
                                    xp *= xi;
                                }
                                acc
                            })
                            .collect()
                    })
                    .collect();
                AvssMsg::Rows(Payload::new(rows))
            })
            .collect()
    }

    /// The replaced state machine: re-evaluates its own row at `x_j` for
    struct SpecAvss {
        n: usize,
        f: usize,
        me: usize,
        num_secrets: Option<usize>,
        own_rows: Option<Vec<Poly>>,
        confirmed_rows: Option<Vec<Poly>>,
        echoes: BTreeMap<usize, Vec<Fp>>,
        echo_sent: bool,
        ready_sent: bool,
        ready_recv: BTreeSet<usize>,
        completed: bool,
    }

    impl SpecAvss {
        fn new(n: usize, f: usize, me: usize) -> Self {
            assert!(n > 4 * f, "AVSS requires n > 4f (n={n}, f={f})");
            assert!(me < n);
            SpecAvss {
                n,
                f,
                me,
                num_secrets: None,
                own_rows: None,
                confirmed_rows: None,
                echoes: BTreeMap::new(),
                echo_sent: false,
                ready_sent: false,
                ready_recv: BTreeSet::new(),
                completed: false,
            }
        }

        fn shares(&self) -> Option<Vec<Share>> {
            if !self.completed {
                return None;
            }
            let rows = self.confirmed_rows.as_ref()?;
            Some(
                rows.iter()
                    .map(|r| Share {
                        index: self.me,
                        value: r.eval(Fp::ZERO),
                    })
                    .collect(),
            )
        }

        fn on_message(&mut self, from: usize, msg: AvssMsg) -> (Vec<AvssOut>, bool) {
            let mut out = Vec::new();
            if self.completed {
                return (out, false);
            }
            match msg {
                AvssMsg::Rows(rows) => {
                    if self.own_rows.is_none() && self.valid_rows(&rows) {
                        self.num_secrets = Some(rows.len());
                        // Point-to-point dealing: this is normally the last
                        // reference, so taking ownership is copy-free.
                        self.own_rows = Some(
                            rows.into_inner()
                                .into_iter()
                                .map(Poly::from_coeffs)
                                .collect(),
                        );
                        self.send_echoes(&mut out);
                    }
                    let _ = from;
                }
                AvssMsg::Echo(vals) => {
                    if let Some(k) = self.num_secrets {
                        if vals.len() != k {
                            return (out, false); // malformed echo: drop
                        }
                    } else {
                        self.num_secrets = Some(vals.len());
                    }
                    self.echoes.entry(from).or_insert(vals);
                }
                AvssMsg::Ready => {
                    self.ready_recv.insert(from);
                }
            }
            self.progress(&mut out);
            let done = self.completed;
            (out, done)
        }

        fn valid_rows(&self, rows: &[Vec<Fp>]) -> bool {
            !rows.is_empty() && rows.iter().all(|r| r.len() <= self.f + 1)
        }

        fn send_echoes(&mut self, out: &mut Vec<AvssOut>) {
            if self.echo_sent {
                return;
            }
            if let Some(rows) = &self.own_rows {
                self.echo_sent = true;
                for j in 0..self.n {
                    let xj = Fp::new(j as u64 + 1);
                    let vals: Vec<Fp> = rows.iter().map(|r| r.eval(xj)).collect();
                    out.push((AvssDest::One(j), AvssMsg::Echo(vals)));
                }
            }
        }

        fn progress(&mut self, out: &mut Vec<AvssOut>) {
            self.try_confirm();
            // Late recovery may enable our echoes (helping others finish).
            if self.own_rows.is_none() && self.confirmed_rows.is_some() {
                self.own_rows = self.confirmed_rows.clone();
                self.send_echoes(out);
            }
            if self.confirmed_rows.is_some() && !self.ready_sent {
                // Direct READY once confirmed, or amplified READY at f+1 votes.
                let amplify = self.ready_recv.len() > self.f;
                let direct = true; // confirmation alone suffices to vote
                if direct || amplify {
                    self.ready_sent = true;
                    out.push((AvssDest::All, AvssMsg::Ready));
                }
            }
            if self.confirmed_rows.is_some()
                && self.ready_recv.len() > 2 * self.f
                && !self.completed
            {
                self.completed = true;
            }
        }

        fn try_confirm(&mut self) {
            if self.confirmed_rows.is_some() {
                return;
            }
            let Some(k) = self.num_secrets else { return };
            let mut confirmed: Vec<Poly> = Vec::with_capacity(k);
            for c in 0..k {
                // Own-row confirmation.
                if let Some(rows) = &self.own_rows {
                    let row = &rows[c];
                    let agree = self
                        .echoes
                        .iter()
                        .filter(|(&j, vals)| {
                            vals.len() == k && vals[c] == row.eval(Fp::new(j as u64 + 1))
                        })
                        .count();
                    if agree > 2 * self.f {
                        confirmed.push(row.clone());
                        continue;
                    }
                }
                // Echo-consensus recovery: the echoes sent to me are points of
                // my row (symmetry), decode with ≤ f corruptions, accept at
                // 2f+1 agreement.
                let mut oec = SpecOec::new(self.f, self.f);
                let mut rec = None;
                for (&j, vals) in &self.echoes {
                    if vals.len() != k {
                        continue;
                    }
                    if oec.add_share(j, vals[c]).is_some() {
                        rec = oec.polynomial().cloned();
                        break;
                    }
                }
                match rec {
                    Some(p) => confirmed.push(p),
                    None => return, // coordinate not confirmable yet
                }
            }
            self.confirmed_rows = Some(confirmed);
        }
    }

    const N: usize = 9;
    const F: usize = 2;
    const SECRETS: u64 = 162;
    const DEALER: usize = 0;
    /// The player the fault is aimed at (or that commits it).
    const TARGET: usize = 5;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fault {
        /// The dealer never sends the target its row.
        WithheldRow,
        /// The dealer sends the target a row off the dealt polynomial.
        CorruptedRow,
        /// The target echoes wrong values on every third coordinate.
        LyingEchoer,
        /// The dealer sends the target its row only after the dealer's
        /// first READY arrives, so echoes reach the target first.
        LateRow,
    }

    /// One player running the implementation and the spec in lockstep.
    struct Twin {
        me: usize,
        fault: Fault,
        secrets: Option<Vec<Fp>>,
        real: AvssState,
        spec: SpecAvss,
        held_row: Option<AvssMsg>,
    }

    impl Twin {
        fn new(me: usize, fault: Fault) -> Self {
            let secrets = (me == DEALER).then(|| {
                (0..SECRETS)
                    .map(|c| Fp::new(c * 7919 + 1))
                    .collect::<Vec<_>>()
            });
            Twin {
                me,
                fault,
                secrets,
                real: AvssState::new(N, F, me),
                spec: SpecAvss::new(N, F, me),
                held_row: None,
            }
        }

        fn outgoing(&self, batch: Vec<AvssOut>) -> Vec<Outgoing<AvssMsg>> {
            batch
                .into_iter()
                .map(|(dest, msg)| {
                    let msg = match (msg, dest) {
                        (AvssMsg::Echo(mut vals), AvssDest::One(j))
                            if self.fault == Fault::LyingEchoer && self.me == TARGET =>
                        {
                            for v in vals.iter_mut().step_by(3) {
                                *v += Fp::new(j as u64 + 1);
                            }
                            AvssMsg::Echo(vals)
                        }
                        (msg, _) => msg,
                    };
                    Outgoing {
                        dest: dest.into(),
                        msg,
                    }
                })
                .collect()
        }
    }

    impl SansIo for Twin {
        type Msg = AvssMsg;
        type Output = Vec<Share>;

        fn on_start(&mut self, rng: &mut StdRng) -> Vec<Outgoing<AvssMsg>> {
            let Some(secrets) = self.secrets.take() else {
                return Vec::new();
            };
            let mut spec_rng = rng.clone();
            let rows = deal(&secrets, N, F, rng);
            assert_eq!(rows, spec_deal(&secrets, N, F, &mut spec_rng), "dealt rows");
            assert_eq!(*rng, spec_rng, "dealing drew a different RNG stream");
            let mut out = Vec::new();
            for (i, row) in rows.into_iter().enumerate() {
                let row = match self.fault {
                    _ if i != TARGET => row,
                    Fault::WithheldRow => continue,
                    Fault::CorruptedRow => AvssMsg::Rows(Payload::new(
                        (0..SECRETS)
                            .map(|c| (0..=F as u64).map(|b| Fp::new(c * 31 + b + 5)).collect())
                            .collect(),
                    )),
                    Fault::LateRow => {
                        self.held_row = Some(row);
                        continue;
                    }
                    Fault::LyingEchoer => row,
                };
                out.push(Outgoing::to(i, row));
            }
            out
        }

        fn on_message(
            &mut self,
            from: usize,
            msg: AvssMsg,
            _rng: &mut StdRng,
        ) -> (Vec<Outgoing<AvssMsg>>, Option<Vec<Share>>) {
            let is_ready = msg == AvssMsg::Ready;
            let (real_out, real_done) = self.real.on_message(from, msg.clone());
            let (spec_out, spec_done) = self.spec.on_message(from, msg);
            let me = self.me;
            assert_eq!(real_out, spec_out, "player {me}: outgoing messages");
            assert_eq!(real_done, spec_done, "player {me}: completion step");
            assert_eq!(
                self.real.shares(),
                self.spec.shares(),
                "player {me}: shares"
            );
            let mut out = self.outgoing(real_out);
            if is_ready {
                if let Some(row) = self.held_row.take() {
                    out.push(Outgoing::to(TARGET, row));
                }
            }
            (out, if real_done { self.real.shares() } else { None })
        }

        fn is_done(&self) -> bool {
            self.real.is_completed()
        }
    }

    fn check_battery(fault: Fault) {
        for kind in SchedulerKind::battery(N) {
            for seed in 0..16 {
                let twins = (0..N).map(|me| Twin::new(me, fault)).collect();
                let (_, outputs) =
                    run_machines(twins, Vec::new(), kind.build().as_mut(), seed, 2_000_000);
                // Every honest player completes (the target too, unless it
                // is the liar), and the shares reconstruct the secrets.
                for (i, o) in outputs.iter().enumerate() {
                    let honest = !(fault == Fault::LyingEchoer && i == TARGET);
                    assert!(
                        !honest || o.is_some(),
                        "{fault:?}/{kind:?}/{seed}: player {i} did not complete"
                    );
                }
                for c in [0usize, 1, 161] {
                    let mut oec = OecState::new(F, F);
                    for shares in outputs.iter().flatten() {
                        oec.add_share(shares[c].index, shares[c].value);
                    }
                    assert_eq!(
                        oec.secret(),
                        Some(Fp::new(c as u64 * 7919 + 1)),
                        "{fault:?}/{kind:?}/{seed}: secret {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn withheld_row_matches_spec() {
        check_battery(Fault::WithheldRow);
    }

    #[test]
    fn corrupted_row_matches_spec() {
        check_battery(Fault::CorruptedRow);
    }

    #[test]
    fn lying_echoer_matches_spec() {
        check_battery(Fault::LyingEchoer);
    }

    #[test]
    fn late_row_matches_spec() {
        check_battery(Fault::LateRow);
    }
}
