//! The [`TraceSink`] adapter: plugs a [`TraceStore`] into anything that
//! emits `(RunMeta, Outcome)` pairs — the networked service, the
//! conformance sweep, a bench harness.
//!
//! The sink is `Sync` (a service records from its reactor thread while
//! the caller holds the same sink), so the store sits behind a mutex; the sink's
//! [`TraceSink::record`] contract is infallible, so a backend failure is
//! latched instead of propagated — callers check
//! [`StoreSink::take_error`] after the runs they care about.

use crate::codec::{PlanKind, RunHeader, StoreError};
use crate::store::TraceStore;
use mediator_sim::{Outcome, RunMeta, TraceSink};
use std::sync::Mutex;

/// The header fields a [`RunMeta`] cannot supply: the scenario family,
/// its thresholds, whether the run was networked, and any recipe
/// metadata. One template serves every run the sink records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeaderTemplate {
    /// The scenario family recorded runs belong to.
    pub plan: Option<PlanKind>,
    /// Game players (0 when unknown; the outcome's process count still
    /// identifies the world size).
    pub n: u64,
    /// Coalition-size tolerance `k`.
    pub k: u64,
    /// Malicious tolerance `t`.
    pub t: u64,
    /// Whether recorded runs went through a transport (drives the
    /// networked replay path).
    pub networked: bool,
    /// Recipe metadata stamped onto every recorded header.
    pub meta: Vec<(String, String)>,
}

/// A [`TraceStore`] wearing the [`TraceSink`] interface.
pub struct StoreSink {
    store: Mutex<TraceStore>,
    template: HeaderTemplate,
    error: Mutex<Option<StoreError>>,
}

impl StoreSink {
    /// Wraps `store`; headers are filled from [`RunMeta`] alone.
    pub fn new(store: TraceStore) -> Self {
        StoreSink::with_template(store, HeaderTemplate::default())
    }

    /// Wraps `store`, stamping every recorded header from `template`.
    pub fn with_template(store: TraceStore, template: HeaderTemplate) -> Self {
        StoreSink {
            store: Mutex::new(store),
            template,
            error: Mutex::new(None),
        }
    }

    /// Runs `f` against the underlying store (inspection, compaction,
    /// loading runs for replay).
    pub fn with_store<R>(&self, f: impl FnOnce(&mut TraceStore) -> R) -> R {
        f(&mut self.store.lock().expect("store poisoned"))
    }

    /// The first backend failure since the last call, if any (recording
    /// is infallible by contract, so errors latch here).
    pub fn take_error(&self) -> Option<StoreError> {
        self.error.lock().expect("error poisoned").take()
    }

    /// Unwraps the sink back into its store.
    pub fn into_store(self) -> TraceStore {
        self.store.into_inner().expect("store poisoned")
    }

    fn header_for(&self, meta: &RunMeta) -> RunHeader {
        RunHeader {
            session: meta.session,
            seed: meta.seed.unwrap_or(0),
            kind: meta.kind.clone(),
            plan: self.template.plan.unwrap_or(PlanKind::Other),
            n: self.template.n,
            k: self.template.k,
            t: self.template.t,
            partial: false, // derived from the trace by `record`
            networked: self.template.networked,
            meta: self.template.meta.clone(),
        }
    }
}

impl TraceSink for StoreSink {
    fn record(&self, meta: &RunMeta, outcome: &Outcome) {
        let header = self.header_for(meta);
        let result = self
            .store
            .lock()
            .expect("store poisoned")
            .record(header, outcome);
        if let Err(e) = result {
            let mut slot = self.error.lock().expect("error poisoned");
            if slot.is_none() {
                *slot = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_sim::{Ctx, Process, ProcessId, SchedulerKind, World};

    struct Ping;
    impl Process<u64> for Ping {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            if ctx.me() == 0 {
                ctx.send(1, 7);
            }
        }
        fn on_message(&mut self, _src: ProcessId, msg: u64, ctx: &mut Ctx<u64>) {
            ctx.make_move(msg);
            ctx.halt();
        }
    }

    #[test]
    fn sink_records_runs_with_template_fields() {
        let template = HeaderTemplate {
            plan: Some(PlanKind::Other),
            n: 2,
            networked: true,
            meta: vec![("entry".into(), "ping".into())],
            ..HeaderTemplate::default()
        };
        let sink = StoreSink::with_template(TraceStore::in_memory(), template);
        let procs: Vec<Box<dyn Process<u64>>> = vec![Box::new(Ping), Box::new(Ping)];
        let outcome = World::new(procs, 4).run(SchedulerKind::Fifo.build().as_mut(), 1_000);
        let meta = RunMeta::cell(9, SchedulerKind::Fifo, 4);
        sink.record(&meta, &outcome);
        assert!(sink.take_error().is_none());
        let store = sink.into_store();
        let id = store.find(9, 4).expect("recorded run is indexed");
        let h = store.header(id);
        assert_eq!(h.kind, Some(SchedulerKind::Fifo));
        assert!(h.networked);
        assert_eq!(h.meta_value("entry"), Some("ping"));
        assert_eq!(store.load(id).unwrap().events, outcome.trace.events());
    }
}
