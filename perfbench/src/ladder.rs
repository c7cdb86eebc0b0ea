//! The layer ladder of the traced run: calls into each crate's public
//! functions, timed from outside, from the field kernels up to a session
//! served over TCP with recording on.
//!
//! Metrics a workload's own traced pass already produced are kept; the
//! probes here fill in the rest, so every traced run reports every layer.

use crate::atlas::{cell_metrics, engine_of, run_cell, ENGINES};
use crate::common::{auth_key, outcome_ok, serving_plan, work_dir, Tally, EXPECTED_MOVE, PLAYERS};
use crate::replay::Audit;
use crate::report::{Metric, Report};
use crate::serve::{Server, Transport};
use crate::spans::span;
use crate::stats::session_seed;
use mediator_bcast::RbcPeer;
use mediator_circuits::catalog;
use mediator_core::cheap_talk::CtMsg;
use mediator_core::frontier::{FrontierCell, FrontierSpec};
use mediator_core::scenario::{CheapTalkPlan, Scenario, SessionPlan};
use mediator_field::{rs, Fp, Poly};
use mediator_mpc::{MpcConfig, MpcDriver, MpcEvent};
use mediator_net::{run_over_mem, run_over_tcp, AuthTag, Frame, ServiceConfig};
use mediator_sim::sansio::run_machines;
use mediator_sim::{Outcome, SchedulerKind};
use mediator_vss::{avss, OecState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The robust cell's shape: n = 9 players tolerating f = k + t = 2.
const N9: usize = 9;
const F2: usize = 2;

/// Runs every probe whose metrics `report` still lacks.
pub fn run(report: &mut Report, seed: u64, tally: &mut Tally) -> Result<(), String> {
    kernels(report);
    machines(report, tally);
    let plan = serving_plan();
    world_and_session(report, &plan, seed, tally);
    wire_and_auth(report, &plan, seed, tally);
    solo(report, &plan, seed, tally);
    if !report.metrics.contains_key("core.frontier.cell_ms.robust") {
        cells(report, tally);
    }
    if !report.metrics.contains_key("store.open_ms") {
        let audit = Audit::record(probe_path("replay"), seed, 16)?;
        let pass = audit.pass(0.5, tally)?;
        audit.finish()?;
        put_all(report, pass.layer);
    }
    if !report.metrics.contains_key("store.record_us") {
        let mut server = Server::start(
            Transport::Tcp,
            Some(probe_path("serve")),
            seed,
            EXPECTED_MOVE,
            tally,
        )?;
        let pass = server.drive(crate::CLOSED_LOAD, 1.0, None, tally)?;
        server.finish(tally)?;
        put_all(report, pass.layer);
    }
    Ok(())
}

pub fn put_all(report: &mut Report, metrics: Vec<(&'static str, Option<Metric>)>) {
    for (name, m) in metrics {
        report.put(name, m);
    }
}

fn probe_path(what: &str) -> std::path::PathBuf {
    work_dir().join(format!("probe-{what}-{}.mtrc", std::process::id()))
}

/// `samples` timings of `per` back-to-back calls, in ns per call, each
/// sample recorded as one span.
fn per_call_ns<T>(
    name: &'static str,
    samples: usize,
    per: usize,
    mut op: impl FnMut() -> T,
) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            span(name, 0, || {
                let t = Instant::now();
                for _ in 0..per {
                    black_box(op());
                }
                t.elapsed().as_nanos() as f64 / per as f64
            })
        })
        .collect()
}

/// Field and VSS kernels at the robust cell's shapes.
fn kernels(report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(9);
    // The degree-2f product opening with f corrupt shares.
    let p = Poly::random_with_secret(Fp::new(5), 2 * F2, &mut rng);
    let mut pts: Vec<(Fp, Fp)> = (1..=N9 as u64)
        .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
        .collect();
    for pt in pts.iter_mut().take(F2) {
        pt.1 += Fp::new(99);
    }
    let ns = per_call_ns("field.rs_decode", 21, 200, || {
        rs::decode_robust(&pts, 2 * F2, F2).expect("decodes")
    });
    report.put("field.rs_decode_ns", Metric::median(&ns, 1.0, "ns"));

    let q = Poly::random_with_secret(Fp::new(7), F2, &mut rng);
    let exact: Vec<(Fp, Fp)> = (1..=N9 as u64)
        .map(|i| (Fp::new(i), q.eval(Fp::new(i))))
        .collect();
    let ns = per_call_ns("field.interpolate", 21, 500, || Poly::interpolate(&exact));
    report.put("field.interpolate_ns", Metric::median(&ns, 1.0, "ns"));

    let ns = per_call_ns("vss.avss_deal", 21, 20, || {
        let mut rng = StdRng::seed_from_u64(3);
        let secrets: Vec<Fp> = (0..8).map(|_| Fp::random(&mut rng)).collect();
        avss::deal(&secrets, N9, F2, &mut rng)
    });
    report.put("vss.avss_deal_ns", Metric::median(&ns, 1.0, "ns"));

    let shares: Vec<Fp> = (1..=N9 as u64).map(|i| q.eval(Fp::new(i))).collect();
    let ns = per_call_ns("vss.oec", 21, 100, || {
        let mut oec = OecState::new(F2, F2);
        for (i, &v) in shares.iter().enumerate() {
            let v = if i < F2 { v + Fp::new(13) } else { v };
            if oec.add_share(i, v).is_some() {
                break;
            }
        }
        oec.secret().expect("reconstructs")
    });
    report.put("vss.oec_ns", Metric::median(&ns, 1.0, "ns"));
}

/// Protocol machines alone under the World: reliable broadcast and the
/// MPC engine at n = 9, f = 2.
fn machines(report: &mut Report, tally: &mut Tally) {
    let mut rbc_ns = Vec::new();
    for seed in 0..30 {
        let peers: Vec<RbcPeer<u64>> = (0..N9)
            .map(|me| RbcPeer::new(N9, F2, 0, me, (me == 0).then_some(42)))
            .collect();
        let t = Instant::now();
        let (_, outputs) = span("bcast.rbc_run", seed, || {
            run_machines(
                peers,
                Vec::new(),
                SchedulerKind::Random.build().as_mut(),
                seed,
                2_000_000,
            )
        });
        rbc_ns.push(t.elapsed().as_nanos() as f64);
        check(tally, outputs.iter().all(|o| *o == Some(42)), || {
            format!("rbc seed {seed}: {outputs:?}")
        });
    }
    report.put("bcast.rbc_ns", Metric::median(&rbc_ns, 1.0, "ns"));

    let cfg = Arc::new(MpcConfig::robust(N9, F2, 3, vec![vec![Fp::ZERO]; N9]));
    let circuit = Arc::new(catalog::majority_circuit(N9));
    let mut mpc_ms = Vec::new();
    for seed in 0..3 {
        let drivers: Vec<MpcDriver> = (0..N9)
            .map(|me| MpcDriver::new(Arc::clone(&cfg), Arc::clone(&circuit), me, vec![Fp::ONE]))
            .collect();
        let t = Instant::now();
        let (_, outputs) = span("mpc.run", seed, || {
            run_machines(
                drivers,
                Vec::new(),
                SchedulerKind::Random.build().as_mut(),
                seed,
                8_000_000,
            )
        });
        mpc_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let ok = outputs
            .iter()
            .all(|o| matches!(o, Some(MpcEvent::Done(v)) if v.first() == Some(&Fp::ONE)));
        check(tally, ok, || format!("mpc seed {seed}: {outputs:?}"));
    }
    report.put("mpc.run_ms.n9_robust", Metric::median(&mpc_ms, 1.0, "ms"));
}

/// The World and the Session pump in process: the robust cell's plan at
/// n = 9, and the served game on the workload's own session seeds.
fn world_and_session(report: &mut Report, plan: &CheapTalkPlan, seed: u64, tally: &mut Tally) {
    let robust = Scenario::cheap_talk(catalog::majority_circuit(N9))
        .players(N9)
        .tolerance(F2, 0)
        .inputs(vec![vec![Fp::ONE]; N9])
        .build()
        .expect("n = 9 > 4k admits Theorem 4.1");
    let (mut ms, mut messages) = (Vec::new(), Vec::new());
    for i in 0..3 {
        let t = Instant::now();
        let out = span("sim.world.run", i, || {
            robust.run_with(&SchedulerKind::Random, session_seed(seed, i))
        });
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        messages.push(out.messages_sent as f64);
        check_outcome(tally, &out, N9, "n9 robust run");
    }
    report.put("sim.world.run_ms.n9_robust", Metric::median(&ms, 1.0, "ms"));
    report.put(
        "sim.world.messages.n9_robust",
        Metric::median(&messages, 1.0, "count"),
    );

    let (mut ms, mut messages, mut steps, mut pump_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..20 {
        let s = session_seed(seed, i);
        let t = Instant::now();
        let out = span("sim.world.run", i, || {
            plan.run_with(&SchedulerKind::Random, s)
        });
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        messages.push(out.messages_sent as f64);
        steps.push(out.steps as f64);
        check_outcome(tally, &out, PLAYERS, "n5 run");

        let t = Instant::now();
        let termination = span("sim.session.pump", i, || {
            plan.open_session(&SchedulerKind::Random, s)
                .run_to_completion()
        });
        pump_ms.push(t.elapsed().as_secs_f64() * 1e3);
        check(tally, termination == out.termination, || {
            format!(
                "session pump ended {termination:?}, the world {:?}",
                out.termination
            )
        });
    }
    report.put("sim.world.run_ms.n5", Metric::median(&ms, 1.0, "ms"));
    report.put(
        "sim.world.messages.n5",
        Metric::median(&messages, 1.0, "count"),
    );
    report.put("sim.world.steps.n5", Metric::median(&steps, 1.0, "count"));
    report.put("sim.session.pump_ms", Metric::median(&pump_ms, 1.0, "ms"));
}

/// A Session pumped by hand through the authenticated wire path, the
/// way the service pumps it: each step's emissions are drained onto a
/// FIFO wire, and each frame is sealed, encoded, decoded, verified and
/// injected, then delivered before the next frame leaves the wire.
fn wire_and_auth(report: &mut Report, plan: &CheapTalkPlan, seed: u64, tally: &mut Tally) {
    let key = auth_key(seed);
    let (mut seal, mut encode, mut decode, mut verify) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut frames, mut bytes) = (Vec::new(), 0usize);
    let mut body = Vec::with_capacity(256);
    for i in 0..5u64 {
        let mut session = plan.open_session(&SchedulerKind::Random, session_seed(seed, i));
        let mut wire = std::collections::VecDeque::new();
        let (mut seq, mut ok) = (0u64, true);
        span("net.wire.session", i, || loop {
            while session.pump_ready() {
                wire.extend(session.drain_outbox());
            }
            let Some(env) = wire.pop_front() else {
                break;
            };
            seq += 1;
            let mut frame = Frame::Msg {
                session: i,
                src: env.src,
                dst: env.dst,
                msg: env.msg,
                auth: Some(AuthTag { seq, mac: [0; 8] }),
            };
            let t0 = Instant::now();
            frame.seal(&key);
            let t1 = Instant::now();
            body.clear();
            frame.encode_body(&mut body);
            let t2 = Instant::now();
            let back = Frame::<CtMsg>::decode_body(&body);
            let t3 = Instant::now();
            let Ok(Frame::Msg {
                session: sid,
                src,
                dst,
                msg,
                auth: Some(tag),
            }) = back
            else {
                ok = false;
                continue;
            };
            let mac_at = body.len() - tag.mac.len();
            let verdict = key.verify_msg(sid, src, dst, &body[..mac_at], tag.mac);
            let t4 = Instant::now();
            ok &= verdict.is_authentic();
            seal.push((t1 - t0).as_nanos() as f64);
            encode.push((t2 - t1).as_nanos() as f64);
            decode.push((t3 - t2).as_nanos() as f64);
            verify.push((t4 - t3).as_nanos() as f64);
            bytes += body.len() + 4;
            let _ = session.inject(src, dst, msg);
        });
        frames.push(seq as f64);
        let out = session.finish();
        check(tally, ok, || {
            format!("wire session {i}: a frame failed to round-trip")
        });
        check_outcome(tally, &out, PLAYERS, "hand-pumped session");
    }
    let total: f64 = frames.iter().sum();
    report.put("net.wire.encode_ns", Metric::median(&encode, 1.0, "ns"));
    report.put("net.wire.decode_ns", Metric::median(&decode, 1.0, "ns"));
    report.put("net.auth.seal_ns", Metric::median(&seal, 1.0, "ns"));
    report.put("net.auth.verify_ns", Metric::median(&verify, 1.0, "ns"));
    report.put(
        "net.wire.bytes_per_frame",
        Some(Metric::total(
            bytes as f64 / total.max(1.0),
            total as usize,
            "bytes",
        )),
    );
    report.put(
        "net.wire.frames_per_session",
        Metric::median(&frames, 1.0, "count"),
    );
}

/// One session alone over each transport, auth on.
fn solo(report: &mut Report, plan: &CheapTalkPlan, seed: u64, tally: &mut Tally) {
    let cfg = ServiceConfig::default().with_auth(auth_key(seed));
    let (mut mem_ms, mut tcp_ms) = (Vec::new(), Vec::new());
    for i in 0..5 {
        let s = session_seed(seed, i);
        let t = Instant::now();
        let mem = span("net.service.run_over_mem", i, || {
            run_over_mem(plan, &SchedulerKind::Random, s, cfg.clone())
        });
        mem_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let tcp = span("net.transport.run_over_tcp", i, || {
            run_over_tcp(plan, &SchedulerKind::Random, s, cfg.clone())
        });
        tcp_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for (what, out) in [("mem", mem), ("tcp", tcp)] {
            match out {
                Ok(out) => check_outcome(tally, &out, PLAYERS, what),
                Err(e) => tally.fail(format!("solo session over {what}: {e}")),
            }
        }
    }
    report.put(
        "net.service.solo_mem_ms",
        Metric::median(&mem_ms, 1.0, "ms"),
    );
    report.put(
        "net.transport.solo_tcp_ms",
        Metric::median(&tcp_ms, 1.0, "ms"),
    );
}

/// One fast-grid cell of each engine, run as the atlas runs it.
fn cells(report: &mut Report, tally: &mut Tally) {
    let spec = FrontierSpec::fast();
    let grid = spec.cells();
    let mut times = Vec::new();
    for (label, _) in ENGINES {
        let Some((i, cell)) = grid
            .iter()
            .enumerate()
            .find(|(_, c)| engine_of(c, &spec) == label)
        else {
            tally.fail(format!("the fast grid has no {label} cell"));
            continue;
        };
        let result = run_cell(i as u64, cell, &spec, &mut times);
        check(tally, result.class.name() == cell_class(cell), || {
            format!("cell {}: class {}", cell.key(), result.class.name())
        });
    }
    put_all(report, cell_metrics(&times));
}

/// The class the theorem predicts: resilient above the bound, violated
/// below it.
fn cell_class(cell: &FrontierCell) -> &'static str {
    if cell.admits() {
        "resilient"
    } else {
        "violated"
    }
}

fn check(tally: &mut Tally, ok: bool, why: impl FnOnce() -> String) {
    if ok {
        tally.ok();
    } else {
        tally.fail(why());
    }
}

/// An in-process run of the majority game over all-ones inputs ends
/// quiescent with every player moving 1.
fn check_outcome(tally: &mut Tally, out: &Outcome, players: usize, what: &str) {
    let ok = outcome_ok(out.termination, &out.moves, players, EXPECTED_MOVE);
    check(tally, ok, || {
        format!("{what}: {:?} moves {:?}", out.termination, out.moves)
    });
}
