//! The served-session workloads: one `Service` with auth on, driven by a
//! single generator thread that hosts sessions and relays every player of
//! every session over one connection, content-blind, as `bulk_relay`
//! does.
//!
//! The generator never spins. Over the in-memory transport it parks on a
//! `Poller` that the pipe's readiness watcher wakes, with a timeout set to
//! the next arrival; over TCP it blocks in `read` with a socket timeout.

use crate::common::{auth_key, outcome_ok, serving_plan, Pass, Tally, PLAYERS};
use crate::report::Metric;
use crate::spans;
use crate::stats::{arrival_offset, session_seed};
use mediator_core::cheap_talk::CtMsg;
use mediator_core::scenario::CheapTalkPlan;
use mediator_net::readiness::Event;
use mediator_net::wire::Reader;
use mediator_net::{
    Frame, MemTransport, OutcomeSummary, PipeReader, PipeWriter, Poller, RejectReason, Service,
    ServiceConfig, SessionHandle, TcpTransport, TryRead, Wire, MAX_FRAME_LEN,
};
use mediator_sim::{Outcome, RunMeta, SchedulerKind, TraceSink};
use mediator_store::{HeaderTemplate, PlanKind, StoreSink, TraceStore};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Give up on in-flight sessions after this long without a byte.
const STALL: Duration = Duration::from_secs(30);

/// Pipe watcher token of the generator's connection.
const CONN_TOKEN: usize = 1;

/// Sessions the warm-up runs before anything is timed.
pub const WARMUP_SESSIONS: u64 = 32;

/// How sessions arrive.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Evenly spaced arrivals at `rate` per second, whatever the service
    /// does; each session is timed from when it was due.
    Open { rate: f64 },
    /// `depth` sessions in flight; a new one is hosted as soon as one
    /// completes and is timed from that completion. The first `depth`
    /// are spread evenly over `ramp_s` seconds, so that completions do not
    /// arrive in waves of `depth`.
    Closed { depth: usize, ramp_s: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Mem,
    Tcp,
}

/// A `StoreSink` that times its own `record` calls.
pub struct TimedSink {
    pub inner: StoreSink,
    record_ns: Mutex<Vec<f64>>,
}

impl TraceSink for TimedSink {
    fn record(&self, meta: &RunMeta, outcome: &Outcome) {
        let t = Instant::now();
        spans::span("store.record", meta.session, || {
            self.inner.record(meta, outcome)
        });
        let ns = t.elapsed().as_nanos() as f64;
        self.record_ns
            .lock()
            .expect("sink timings poisoned")
            .push(ns);
    }
}

/// The generator's one connection.
enum Conn {
    Mem {
        tx: PipeWriter,
        rx: PipeReader,
        poller: Poller,
    },
    Tcp(TcpStream),
}

impl Conn {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Conn::Mem { tx, .. } => tx.write_all(buf),
            Conn::Tcp(stream) => stream.write_all(buf),
        }
    }

    /// Reads what has arrived, blocking until bytes come or `deadline`
    /// passes (then `Ok(0)`; TCP wakes at least once a second).
    fn read(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> io::Result<usize> {
        match self {
            Conn::Mem { rx, poller, .. } => {
                let (mut events, mut notified): (Vec<Event>, Vec<usize>) = (Vec::new(), Vec::new());
                loop {
                    match spans::span("net.transport.try_read", 0, || rx.try_read(buf)) {
                        TryRead::Data(n) => return Ok(n),
                        TryRead::Eof => return Err(io::ErrorKind::UnexpectedEof.into()),
                        TryRead::Err(e) => return Err(io::Error::other(e.to_string())),
                        TryRead::WouldBlock => {}
                    }
                    let timeout = match deadline {
                        Some(d) => match d.checked_duration_since(Instant::now()) {
                            Some(left) if !left.is_zero() => Some(left),
                            _ => return Ok(0),
                        },
                        None => None,
                    };
                    spans::span("wait.poll", 0, || {
                        poller.wait(&[], timeout, &mut events, &mut notified)
                    });
                }
            }
            Conn::Tcp(stream) => match spans::span("wait.tcp_read", 0, || stream.read(buf)) {
                Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => Ok(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    Ok(0)
                }
                Err(e) => Err(e),
            },
        }
    }
}

/// A session in flight.
struct Live {
    due: Instant,
    attached: Option<Instant>,
    first_msg: Option<Instant>,
    handle: SessionHandle,
}

/// A running service with the generator's connection to it.
pub struct Server {
    service: Service<CtMsg>,
    conn: Conn,
    sink: Option<Arc<TimedSink>>,
    store_path: Option<PathBuf>,
    plan: CheapTalkPlan,
    seed: u64,
    expect: u64,
    /// Next session index (session id and seed derive from it).
    next: u64,
    /// Sessions that reached an `Outcome` frame: the sink records exactly
    /// these.
    outcomes: u64,
}

impl Server {
    /// Starts a service over `transport`, recording to a file-backed
    /// store at `record` when given, connects the generator and runs the
    /// warm-up sessions.
    pub fn start(
        transport: Transport,
        record: Option<PathBuf>,
        seed: u64,
        expect: u64,
        tally: &mut Tally,
    ) -> Result<Server, String> {
        let mut cfg = ServiceConfig::default().with_auth(auth_key(seed));
        let sink = match &record {
            Some(path) => {
                let store = TraceStore::create(path).map_err(|e| format!("create store: {e}"))?;
                let sink = Arc::new(TimedSink {
                    inner: StoreSink::with_template(
                        store,
                        HeaderTemplate {
                            plan: Some(PlanKind::CheapTalk),
                            n: PLAYERS as u64,
                            k: 1,
                            networked: true,
                            ..HeaderTemplate::default()
                        },
                    ),
                    record_ns: Mutex::new(Vec::new()),
                });
                cfg = cfg.with_sink(sink.clone());
                Some(sink)
            }
            None => None,
        };
        let (service, conn) = match transport {
            Transport::Mem => {
                let hub = MemTransport::new();
                let service = Service::with_config(Box::new(hub.listener()), cfg);
                let (tx, rx) = hub.connect_raw();
                let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
                rx.watch(poller.waker(), CONN_TOKEN);
                (service, Conn::Mem { tx, rx, poller })
            }
            Transport::Tcp => {
                let listener = TcpTransport::bind_loopback().map_err(|e| format!("bind: {e}"))?;
                let addr = listener.addr();
                let service = Service::with_config(Box::new(listener), cfg);
                let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(1)))
                    .map_err(|e| e.to_string())?;
                (service, Conn::Tcp(stream))
            }
        };
        let mut server = Server {
            service,
            conn,
            sink,
            store_path: record,
            plan: serving_plan(),
            seed,
            expect,
            next: 0,
            outcomes: 0,
        };
        server.drive(
            Load::Closed {
                depth: 8,
                ramp_s: 0.0,
            },
            f64::INFINITY,
            Some(WARMUP_SESSIONS),
            tally,
        )?;
        Ok(server)
    }

    /// Hosts and relays sessions under `load` for `secs` seconds (and at
    /// most `max` sessions), then waits for those in flight. Every
    /// session is one operation in `tally`.
    pub fn drive(
        &mut self,
        load: Load,
        secs: f64,
        max: Option<u64>,
        tally: &mut Tally,
    ) -> Result<Pass, String> {
        let start = Instant::now();
        let end = start.checked_add(Duration::from_secs_f64(secs.min(1e6)));
        let open_total = match load {
            Load::Open { rate } => {
                Some(((rate * secs).round() as u64).min(max.unwrap_or(u64::MAX)))
            }
            Load::Closed { .. } => None,
        };
        let mut pass = Pass::default();
        let mut live: HashMap<u64, Live> = HashMap::new();
        let mut freed: VecDeque<Instant> = VecDeque::new();
        let mut attaching: Vec<u64> = Vec::new();
        let (mut hosted, mut reads, mut read_bytes) = (0u64, 0u64, 0u64);
        // Closed loop: sessions hosted into a slot no completion freed.
        let mut ramped = 0u64;
        let (mut late_ms, mut host_us, mut attach_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (recorded_before, bytes_before) = self.store_totals();
        let mut rbuf: Vec<u8> = Vec::with_capacity(256 * 1024);
        let mut chunk = vec![0u8; 256 * 1024];
        let mut wbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
        let mut last_byte = Instant::now();

        loop {
            // Host every session that is due.
            let now = Instant::now();
            let hosting_over = match (load, open_total) {
                (Load::Open { .. }, Some(total)) => hosted >= total,
                _ => end.is_some_and(|e| now >= e) || max.is_some_and(|m| hosted >= m),
            };
            if !hosting_over {
                loop {
                    let due = match load {
                        Load::Open { rate } => {
                            if hosted >= open_total.unwrap_or(0) {
                                break;
                            }
                            let due = start + arrival_offset(rate, hosted);
                            if due > now {
                                break;
                            }
                            due
                        }
                        Load::Closed { depth, ramp_s } => {
                            if live.len() >= depth || max.is_some_and(|m| hosted >= m) {
                                break;
                            }
                            match freed.pop_front() {
                                Some(due) => due,
                                None => {
                                    let due = start + ramp_offset(ramp_s, depth, ramped);
                                    if due > now {
                                        break;
                                    }
                                    ramped += 1;
                                    due
                                }
                            }
                        }
                    };
                    let sid = self.next;
                    self.next += 1;
                    hosted += 1;
                    let seed = session_seed(self.seed, sid);
                    let t = Instant::now();
                    late_ms.push(ms(t.saturating_duration_since(due)));
                    let handle = spans::span("net.service.host_plan", sid, || {
                        self.service
                            .host_plan(sid, &self.plan, SchedulerKind::Random, seed)
                    });
                    host_us.push(t.elapsed().as_secs_f64() * 1e6);
                    for player in 0..PLAYERS {
                        put_frame(
                            &mut wbuf,
                            &Frame::<CtMsg>::Attach {
                                session: sid,
                                player,
                            },
                        );
                    }
                    attaching.push(sid);
                    live.insert(
                        sid,
                        Live {
                            due,
                            attached: None,
                            first_msg: None,
                            handle,
                        },
                    );
                }
            }
            if !wbuf.is_empty() {
                let conn = &mut self.conn;
                spans::span("net.transport.write", 0, || conn.write_all(&wbuf))
                    .map_err(|e| format!("write: {e}"))?;
                wbuf.clear();
                let written = Instant::now();
                for sid in attaching.drain(..) {
                    if let Some(l) = live.get_mut(&sid) {
                        l.attached = Some(written);
                    }
                }
            }
            let hosting_over = match (load, open_total) {
                (Load::Open { .. }, Some(total)) => hosted >= total,
                _ => end.is_some_and(|e| Instant::now() >= e) || max.is_some_and(|m| hosted >= m),
            };
            if hosting_over && live.is_empty() {
                break;
            }

            // Wait for bytes, or for the next arrival to fall due.
            let deadline = match (load, open_total) {
                (Load::Open { rate }, Some(total)) if hosted < total => {
                    Some(start + arrival_offset(rate, hosted))
                }
                (Load::Closed { depth, ramp_s }, _) if live.len() < depth && !hosting_over => {
                    Some(start + ramp_offset(ramp_s, depth, ramped))
                }
                _ => Some(last_byte + STALL),
            };
            let conn = &mut self.conn;
            let n = conn
                .read(&mut chunk, deadline)
                .map_err(|e| format!("read: {e}"))?;
            let now = Instant::now();
            if n == 0 {
                if now.duration_since(last_byte) >= STALL && !live.is_empty() {
                    for (sid, _) in live.drain() {
                        tally.fail(format!("session {sid}: no progress for {STALL:?}"));
                    }
                }
                continue;
            }
            reads += 1;
            read_bytes += n as u64;
            last_byte = now;
            rbuf.extend_from_slice(&chunk[..n]);

            // Echo every Msg frame verbatim; settle finished sessions.
            let mut off = 0usize;
            while rbuf.len() - off >= 4 {
                let len = u32::from_le_bytes(rbuf[off..off + 4].try_into().expect("4 bytes"));
                if !(2..=MAX_FRAME_LEN).contains(&len) {
                    return Err(format!("bad frame length {len}"));
                }
                let total = 4 + len as usize;
                if rbuf.len() - off < total {
                    break;
                }
                let body = &rbuf[off + 4..off + total];
                let mut r = Reader::new(&body[2..]);
                let sid = r.varint().map_err(|e| format!("frame session: {e}"))?;
                match body[1] {
                    1 => {
                        if let Some(l) = live.get_mut(&sid) {
                            l.first_msg.get_or_insert(now);
                        }
                        wbuf.extend_from_slice(&rbuf[off..off + total]);
                    }
                    2 => {
                        let summary =
                            OutcomeSummary::decode(&mut r).map_err(|e| format!("outcome: {e}"))?;
                        if let Some(l) = live.remove(&sid) {
                            self.outcomes += 1;
                            if let (Some(a), Some(f)) = (l.attached, l.first_msg) {
                                attach_ms.push(ms(f.saturating_duration_since(a)));
                            }
                            let served = l.handle.outcome();
                            let ok = outcome_ok(
                                summary.termination,
                                &summary.moves,
                                PLAYERS,
                                self.expect,
                            ) && served.as_ref().is_ok_and(|o| {
                                outcome_ok(o.termination, &o.moves, PLAYERS, self.expect)
                            });
                            if ok {
                                tally.ok();
                                pass.record(
                                    ms(now.saturating_duration_since(l.due)),
                                    now.duration_since(start).as_secs_f64(),
                                );
                            } else {
                                tally.fail(format!(
                                    "session {sid}: {:?} moves {:?} ({:?})",
                                    summary.termination,
                                    summary.moves,
                                    served.err()
                                ));
                            }
                            freed.push_back(now);
                        }
                    }
                    3 | 4 => {
                        let why = if body[1] == 3 {
                            format!("rejected: {:?}", RejectReason::decode(&mut r).ok())
                        } else {
                            "aborted".to_string()
                        };
                        if live.remove(&sid).is_some() {
                            tally.fail(format!("session {sid}: {why}"));
                            freed.push_back(now);
                        }
                    }
                    kind => return Err(format!("unexpected frame kind {kind}")),
                }
                off += total;
            }
            rbuf.drain(..off);
        }

        let sessions = pass.latencies_ms.len().max(1);
        pass.layer.extend([
            ("bench.gen_late_ms", Metric::tail(&late_ms, 1.0, "ms")),
            ("net.service.host_us", Metric::median(&host_us, 1.0, "us")),
            (
                "net.service.attach_wait_ms",
                Metric::median(&attach_ms, 1.0, "ms"),
            ),
            (
                "net.transport.reads_per_session",
                Some(Metric::total(
                    reads as f64 / sessions as f64,
                    sessions,
                    "count",
                )),
            ),
            (
                "net.transport.bytes_per_read",
                Some(Metric::total(
                    read_bytes as f64 / reads.max(1) as f64,
                    reads as usize,
                    "bytes",
                )),
            ),
        ]);
        if let Some(sink) = &self.sink {
            let record_ns = std::mem::take(&mut *sink.record_ns.lock().expect("sink poisoned"));
            let (recorded, bytes) = self.store_totals();
            let per = (bytes - bytes_before) as f64 / (recorded - recorded_before).max(1) as f64;
            pass.layer.extend([
                ("store.record_us", Metric::median(&record_ns, 1e-3, "us")),
                (
                    "store.bytes_per_session",
                    Some(Metric::total(
                        per,
                        (recorded - recorded_before) as usize,
                        "bytes",
                    )),
                ),
            ]);
        }
        Ok(pass)
    }

    /// Runs stored and bytes written so far.
    fn store_totals(&self) -> (u64, u64) {
        self.sink.as_ref().map_or((0, 0), |s| {
            s.inner.with_store(|st| (st.len() as u64, st.bytes()))
        })
    }

    /// Hangs up, drains the service, and checks the store: no latched
    /// error, and one stored run per session that reached an outcome.
    pub fn finish(self, tally: &mut Tally) -> Result<(), String> {
        let Server {
            service,
            conn,
            sink,
            store_path,
            outcomes,
            ..
        } = self;
        drop(conn);
        service.shutdown();
        if let (Some(sink), Some(path)) = (sink, store_path) {
            if let Some(e) = sink.inner.take_error() {
                tally.fail_attempted(format!("store sink latched an error: {e}"));
            }
            drop(sink);
            let stored = TraceStore::open(&path)
                .map(|s| s.len() as u64)
                .map_err(|e| format!("reopen store: {e}"))?;
            if stored != outcomes {
                tally.fail_attempted(format!(
                    "reopened store holds {stored} runs, {outcomes} sessions were served"
                ));
            }
            std::fs::remove_file(&path).map_err(|e| format!("remove store: {e}"))?;
        }
        Ok(())
    }
}

/// When the closed loop's initial session `index` is due.
fn ramp_offset(ramp_s: f64, depth: usize, index: u64) -> Duration {
    Duration::from_secs_f64(ramp_s * index as f64 / depth as f64)
}

/// Appends `frame` with its length prefix.
fn put_frame(out: &mut Vec<u8>, frame: &Frame<CtMsg>) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    frame.encode_body(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_move_counts_every_session_as_failed() {
        let mut tally = Tally::default();
        let mut server =
            Server::start(Transport::Mem, None, 11, 0, &mut tally).expect("service starts");
        assert_eq!(tally.attempted, WARMUP_SESSIONS);
        assert_eq!(tally.failed, WARMUP_SESSIONS, "{:?}", tally.reasons);
        let pass = server
            .drive(Load::Open { rate: 100.0 }, 0.1, None, &mut tally)
            .expect("drive");
        assert_eq!(tally.attempted, WARMUP_SESSIONS + 10);
        assert_eq!(tally.failed, tally.attempted);
        assert!(
            pass.latencies_ms.is_empty(),
            "failed sessions have no latency"
        );
        server.finish(&mut tally).expect("finish");
    }

    #[test]
    fn served_sessions_are_recorded_once_each() {
        let dir = crate::common::work_dir().join(format!("test-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut tally = Tally::default();
        let server = Server::start(
            Transport::Tcp,
            Some(dir.join("serve.mtrc")),
            5,
            crate::common::EXPECTED_MOVE,
            &mut tally,
        )
        .expect("service starts");
        server.finish(&mut tally).expect("finish");
        assert_eq!(tally.attempted, WARMUP_SESSIONS);
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
