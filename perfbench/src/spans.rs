//! In-memory span recording for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a crate's
//! public functions: its name (`<layer>.<what>`, the layer being the
//! workspace module), start, end, the span that caused it (the innermost
//! open span on the same thread) and the session it belongs to. Spans stay
//! in memory until [`take`] and are written out by [`write_jsonl`]. With
//! recording off, [`span`] costs one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the process's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same recording) of the span that caused this one.
    pub parent: Option<usize>,
    /// Session or run the span belongs to (0 when it belongs to none).
    pub session: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off. Only a statistic is published, so relaxed
/// ordering suffices: a span racing the switch is merely kept or missed.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`, recorded when tracing is on.
pub fn span<R>(name: &'static str, session: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start_ns = now_ns();
    let id = {
        let mut spans = SPANS.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            session,
        });
        spans.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(id));
    let out = f();
    OPEN.with(|open| open.borrow_mut().pop());
    let end_ns = now_ns();
    SPANS.lock().expect("span log poisoned")[id].end_ns = end_ns;
    out
}

/// Removes and returns every recorded span. Call only while no span is
/// open, since parents are indices into the recording.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned"))
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Self time summed per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{}}}",
            s.name, s.start_ns, s.end_ns, s.session
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            session: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            sp("core.root", 0, 100, None),
            sp("sim.a", 10, 30, Some(0)),
            sp("sim.b", 20, 50, Some(0)), // overlaps a: [10, 50] covered once
            sp("net.c", 90, 120, Some(0)), // clipped to the parent's end
            sp("store.d", 12, 18, Some(1)), // a grandchild is a's, not root's
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 30, 6]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["core"], 50);
        assert_eq!(layers["sim"], 44);
        assert_eq!(layers["store"], 6);
    }

    #[test]
    fn childless_span_is_all_self() {
        let spans = vec![sp("field.x", 5, 9, None)];
        assert_eq!(self_times_ns(&spans), vec![4]);
    }
}
