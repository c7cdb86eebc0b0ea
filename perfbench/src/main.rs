//! The repository benchmark: end-to-end numbers with tracing off, and a
//! traced run that times each layer from outside. See README.md in this
//! directory for the workloads, the metrics and how they interact.
//!
//! ```text
//! perfbench --workload <atlas|serve_mem_open|serve_tcp_closed|replay_audit>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <detail file> <detail file>
//! ```
//!
//! The last line of standard output is the JSON result. The same table,
//! stamped with the host fingerprint, is written to
//! `work/results/<workload>-seed<n>-trace<t>.txt`.

mod atlas;
mod common;
mod ladder;
mod pin;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;

use common::{work_dir, Pass, Tally, EXPECTED_MOVE};
use report::{host_fingerprint, provenance, Metric, Report, LAYERS};
use serve::{Load, Server, Transport};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Offered rate of the open loop, in sessions per second.
const OPEN_RATE: f64 = 200.0;

/// The closed loop: 256 sessions in flight, the first ones hosted over
/// about one session latency.
const CLOSED_LOAD: Load = Load::Closed {
    depth: 256,
    ramp_s: 0.7,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] => flags.insert(flag, value),
            _ => return Err(format!("{} needs a value", pair[0])),
        };
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let workload = take("--workload")?.to_string();
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let trace = match take("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One workload behind a common shape: set up (several times, to time
/// it), run timed passes, then check and tear down.
trait Workload {
    type State;
    fn setup(&self, tally: &mut Tally) -> Result<Self::State, String>;
    fn pass(&self, state: &mut Self::State, secs: f64, tally: &mut Tally) -> Result<Pass, String>;
    fn finish(&self, state: Self::State, tally: &mut Tally) -> Result<(), String>;
}

struct AtlasWorkload;

impl Workload for AtlasWorkload {
    type State = atlas::Atlas;
    fn setup(&self, tally: &mut Tally) -> Result<atlas::Atlas, String> {
        atlas::Atlas::setup(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."), tally)
    }
    fn pass(&self, state: &mut atlas::Atlas, secs: f64, tally: &mut Tally) -> Result<Pass, String> {
        Ok(state.pass(secs, tally))
    }
    fn finish(&self, _: atlas::Atlas, _: &mut Tally) -> Result<(), String> {
        Ok(())
    }
}

struct ServeWorkload {
    transport: Transport,
    load: Load,
    record: bool,
    seed: u64,
}

impl Workload for ServeWorkload {
    type State = Server;
    fn setup(&self, tally: &mut Tally) -> Result<Server, String> {
        let record = self
            .record
            .then(|| work_dir().join(format!("serve-{}.mtrc", std::process::id())));
        Server::start(self.transport, record, self.seed, EXPECTED_MOVE, tally)
    }
    fn pass(&self, server: &mut Server, secs: f64, tally: &mut Tally) -> Result<Pass, String> {
        server.drive(self.load, secs, None, tally)
    }
    fn finish(&self, server: Server, tally: &mut Tally) -> Result<(), String> {
        server.finish(tally)
    }
}

struct ReplayWorkload {
    seed: u64,
}

impl Workload for ReplayWorkload {
    type State = replay::Audit;
    fn setup(&self, _: &mut Tally) -> Result<replay::Audit, String> {
        let path = work_dir().join(format!("audit-{}.mtrc", std::process::id()));
        replay::Audit::record(path, self.seed, replay::RUNS)
    }
    fn pass(
        &self,
        audit: &mut replay::Audit,
        secs: f64,
        tally: &mut Tally,
    ) -> Result<Pass, String> {
        audit.pass(secs, tally)
    }
    fn finish(&self, audit: replay::Audit, _: &mut Tally) -> Result<(), String> {
        audit.finish()
    }
}

/// Timed set-ups per run: at least [`SETUPS_MIN`], and more until they
/// have taken [`SETUP_BUDGET_S`], up to [`SETUPS_MAX`]. `setup_s` is their
/// median. One untimed set-up comes first and takes the process's
/// first-touch costs (page faults, the allocator's growth), which are not
/// the set-up's own work and vary most from run to run. All of them run
/// on one CPU (see `pin`).
const SETUPS_MIN: usize = 5;
const SETUP_BUDGET_S: f64 = 1.5;
const SETUPS_MAX: usize = 400;

/// About how long the ladder's probes take; a traced run gives the rest
/// of its time to the two passes, so it lasts about as long as an
/// untraced one.
const LADDER_S: f64 = 8.0;

fn measure<W: Workload>(w: &W, args: &Args, report: &mut Report) -> Result<(), String> {
    let mut tally = Tally::default();
    let pin = pin::Pinned::one_cpu();
    let t = Instant::now();
    let mut state = w.setup(&mut tally)?;
    let first_s = t.elapsed().as_secs_f64();
    let mut setup_s: Vec<f64> = Vec::new();
    while setup_s.len() < SETUPS_MIN
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < SETUPS_MAX)
    {
        w.finish(state, &mut tally)?;
        let t = Instant::now();
        state = w.setup(&mut tally)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    drop(pin);

    if args.trace {
        traced(w, state, args, report, &mut tally)?;
    } else {
        let pass = w.pass(&mut state, args.seconds, &mut tally)?;
        w.finish(state, &mut tally)?;
        report.put("setup_s", Metric::median(&setup_s, 1.0, "s"));
        report.put("op_p50_ms", Metric::median(&pass.latencies_ms, 1.0, "ms"));
        report.put("op_tail_ms", Metric::tail(&pass.latencies_ms, 1.0, "ms"));
        report.put("ops_per_s", pass.rate());
        let attempted = tally.attempted.max(1);
        report.put(
            "ok_share",
            Some(Metric::total(
                (attempted - tally.failed.min(attempted)) as f64 / attempted as f64,
                attempted as usize,
                "ratio",
            )),
        );
    }
    let setups = stats::Summary::of(&setup_s).expect("timed set-ups");
    report.notes.push(format!(
        "setup_s: first (untimed) {first_s:.4}; {} timed, p25 {:.4} p50 {:.4} p75 {:.4}",
        setups.n, setups.p25, setups.p50, setups.p75
    ));
    report
        .notes
        .extend(tally.reasons.iter().map(|r| format!("failure: {r}")));
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    Ok(())
}

/// The traced run: an untraced and a traced pass of the workload, then
/// the ladder, with spans recorded from the traced pass on.
fn traced<W: Workload>(
    w: &W,
    mut state: W::State,
    args: &Args,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let half = (args.seconds - LADDER_S).max(2.0) / 2.0;
    let plain = w.pass(&mut state, half, tally)?;
    spans::set_enabled(true);
    let traced = w.pass(&mut state, half, tally)?;
    let p50 = |p: &Pass| stats::Summary::of(&p.latencies_ms).map(|s| s.p50);
    if let (Some(a), Some(b)) = (p50(&plain), p50(&traced)) {
        let n = traced.latencies_ms.len();
        report.put(
            "bench.trace_overhead",
            Some(Metric::total(b / a, n, "ratio")),
        );
    }
    report.notes.push(format!(
        "traced pass (not gated): {}",
        end_to_end_line(&traced)
    ));
    report
        .notes
        .push(format!("untraced pass: {}", end_to_end_line(&plain)));
    ladder::put_all(report, traced.layer);
    ladder::run(report, args.seed, tally)?;
    spans::set_enabled(false);
    let spans = spans::take();
    let layer_ns = spans::layer_self_ns(&spans);
    for layer in LAYERS {
        let ms = layer_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
        let name = format!("layer.{layer}.self_ms");
        report.put(
            &name,
            (ms > 0.0).then(|| Metric::total(ms, spans.len(), "ms")),
        );
    }
    let dump = work_dir()
        .join("results")
        .join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
    spans::write_jsonl(&dump, &spans).map_err(|e| format!("{}: {e}", dump.display()))?;
    w.finish(state, tally)
}

fn end_to_end_line(pass: &Pass) -> String {
    let m = |x: Option<Metric>| x.map_or("-".to_string(), |m| format!("{:.4}", m.value));
    format!(
        "op_p50_ms={} op_tail_ms={} ops_per_s={} ops={}",
        m(Metric::median(&pass.latencies_ms, 1.0, "ms")),
        m(Metric::tail(&pass.latencies_ms, 1.0, "ms")),
        m(pass.rate()),
        pass.latencies_ms.len()
    )
}

fn run(args: &Args) -> Result<Report, String> {
    let started = Instant::now();
    let steal_before = report::steal_s();
    std::fs::create_dir_all(work_dir().join("results")).map_err(|e| e.to_string())?;
    let mut report = Report {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        fingerprint: host_fingerprint(),
        provenance: provenance(),
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        skipped: Vec::new(),
        notes: Vec::new(),
    };
    let serve = |transport, load, record| ServeWorkload {
        transport,
        load,
        record,
        seed: args.seed,
    };
    match args.workload.as_str() {
        "atlas" => {
            report
                .notes
                .push("the atlas runs the golden's own seeds; --seed does not apply".to_string());
            measure(&AtlasWorkload, args, &mut report)?
        }
        "serve_mem_open" => measure(
            &serve(Transport::Mem, Load::Open { rate: OPEN_RATE }, false),
            args,
            &mut report,
        )?,
        "serve_tcp_closed" => {
            measure(&serve(Transport::Tcp, CLOSED_LOAD, true), args, &mut report)?
        }
        "replay_audit" => measure(&ReplayWorkload { seed: args.seed }, args, &mut report)?,
        other => return Err(format!("unknown workload {other}")),
    }
    let steal = steal_before
        .zip(report::steal_s())
        .map_or("unknown".to_string(), |(a, b)| format!("{:.2}", b - a));
    report.notes.push(format!(
        "wall_s={:.3} steal_s={steal}",
        started.elapsed().as_secs_f64()
    ));
    Ok(report)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let read = |i: usize| {
            let path = args.get(i).map(String::as_str).unwrap_or_default();
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("perfbench: {path}: {e}");
                std::process::exit(2)
            })
        };
        match report::compare(&read(1), &read(2)) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let result = parse(&args).and_then(|a| run(&a)).and_then(|report| {
        report.check_complete()?;
        let detail = report
            .write_detail(&work_dir().join("results"))
            .map_err(|e| format!("detail file: {e}"))?;
        print!("{}", report.table());
        println!("detail {}", detail.display());
        println!("{}", report.json());
        Ok(())
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
