//! Operational telemetry for the exchange: where time goes between
//! submit, dispatch, course training, quote rounds, settlement, epoch
//! clearing, journal appends, and recovery.
//!
//! An [`ExchangeTelemetry`] bundles a [`Registry`] of per-stage latency
//! histograms and depth gauges, a [`Clock`] (real or virtual), and a
//! [`TraceRing`] of spans keyed by session/demand/epoch id. Attach one
//! with [`crate::Exchange::with_telemetry`]; every layer then records
//! into it. Scrape through [`crate::Exchange::scrape`] (Prometheus text)
//! or [`crate::Exchange::scrape_json`].
//!
//! ## The observe-only invariant
//!
//! Telemetry is strictly write-only from the exchange's point of view:
//!
//! * **Never branched on.** No exchange path reads a histogram, gauge,
//!   or trace span to make a decision; the only reads are the scrape
//!   calls the operator makes. An exchange with telemetry drains
//!   bit-identically to one without (proven by the drain-equivalence
//!   tier test).
//! * **Never journaled.** Timing lives only in memory; journal frames
//!   carry no clock readings, so replay determinism and the pinned wire
//!   format are untouched.
//! * **Lock order unchanged.** Recording is lock-free (relaxed atomics)
//!   except the trace ring's own private mutex, which is a leaf: it may
//!   be taken under the exchange's state lock, and nothing is acquired
//!   under it.
//!
//! ## Stage histograms
//!
//! All stages share one labeled family, `vfl_exchange_stage_ns{stage=…}`:
//!
//! | stage | what is timed |
//! |---|---|
//! | `dispatch_wait` | submit (or settlement wake) → the slice that picks the session up |
//! | `course_train` | a shared-cache miss: the real model training behind a ΔG |
//! | `course_cache_hit` | a shared-cache hit: the lookup under the held state lock |
//! | `quote_round` | per-round protocol stepping (slice time minus course serves, amortized over the slice's completed rounds) |
//! | `settlement` | one demand's settlement: decision record + wake/cancel side-effects |
//! | `epoch_clear` | one clearing epoch: decision, record, every member settlement |
//! | `journal_append` | one event's serialize + append (+ flush policy) |
//! | `recovery_restore` | recovery's parse + checkpoint-restore phase |
//! | `recovery_replay` | recovery's suffix-replay phase |
//!
//! `quote_round` is deliberately amortized — the per-round cost is
//! reported as (slice protocol time ÷ rounds in the slice), recorded
//! once per round — so the hot bargaining loop pays two clock reads per
//! *slice*, not two per round.

use std::sync::Arc;

use crate::metrics::MetricsSnapshot;
use vfl_telemetry::{
    Clock, Counter, Gauge, Histogram, HistogramSnapshot, MonotonicClock, Registry, TraceKey,
    TraceRing, TraceSpan,
};

/// Exported name of the per-stage latency histogram family.
pub const STAGE_FAMILY: &str = "vfl_exchange_stage_ns";
/// Exported name of the pending-queue depth gauge.
pub const QUEUE_DEPTH: &str = "vfl_exchange_queue_depth";
/// Exported name of the course-waitlist depth gauge.
pub const WAITLIST_DEPTH: &str = "vfl_exchange_waitlist_depth";

/// Every stage label the exchange records, in pipeline order.
pub const STAGES: &[&str] = &[
    "dispatch_wait",
    "course_train",
    "course_cache_hit",
    "quote_round",
    "settlement",
    "epoch_clear",
    "journal_append",
    "recovery_restore",
    "recovery_replay",
];

/// Per-stage histogram handles (all series of the [`STAGE_FAMILY`]).
#[derive(Debug)]
pub(crate) struct Stages {
    pub(crate) dispatch_wait: Histogram,
    pub(crate) course_train: Histogram,
    pub(crate) course_cache_hit: Histogram,
    pub(crate) quote_round: Histogram,
    pub(crate) settlement: Histogram,
    pub(crate) epoch_clear: Histogram,
    pub(crate) journal_append: Histogram,
    pub(crate) recovery_restore: Histogram,
    pub(crate) recovery_replay: Histogram,
}

/// The telemetry sink an [`crate::Exchange`] records into. See the
/// module docs for the stage table and the observe-only invariant.
#[derive(Debug)]
pub struct ExchangeTelemetry {
    clock: Arc<dyn Clock>,
    registry: Registry,
    /// Registry-bridged mirrors of [`MetricsSnapshot::COUNTERS`], in
    /// table order; synced by [`Self::render_with`] at scrape time.
    counters: Vec<Counter>,
    pub(crate) queue_depth: Gauge,
    pub(crate) waitlist_depth: Gauge,
    pub(crate) stages: Stages,
    trace: TraceRing,
}

impl ExchangeTelemetry {
    /// Default trace-ring capacity (spans kept for postmortems).
    pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

    /// Telemetry on the real monotonic clock with the default trace
    /// capacity.
    pub fn new() -> Arc<Self> {
        Self::with_clock(
            Arc::new(MonotonicClock::new()),
            Self::DEFAULT_TRACE_CAPACITY,
        )
    }

    /// Telemetry on an explicit clock (tests pass a
    /// [`vfl_telemetry::VirtualClock`] for exact timing assertions) and
    /// trace-ring capacity.
    pub fn with_clock(clock: Arc<dyn Clock>, trace_capacity: usize) -> Arc<Self> {
        let registry = Registry::new();
        let counters = MetricsSnapshot::COUNTERS
            .iter()
            .map(|&(name, help)| registry.counter(name, help))
            .collect();
        let queue_depth = registry.gauge(
            QUEUE_DEPTH,
            "Sessions submitted but not yet dispatched (pending queue + dispatcher overflow).",
        );
        let waitlist_depth = registry.gauge(
            WAITLIST_DEPTH,
            "Sessions parked on the course waitlist behind another session's outstanding course.",
        );
        let stage_help = "Per-stage exchange latency in nanoseconds (see the stage label).";
        let stage =
            |name: &str| registry.histogram_with(STAGE_FAMILY, stage_help, &[("stage", name)]);
        let stages = Stages {
            dispatch_wait: stage("dispatch_wait"),
            course_train: stage("course_train"),
            course_cache_hit: stage("course_cache_hit"),
            quote_round: stage("quote_round"),
            settlement: stage("settlement"),
            epoch_clear: stage("epoch_clear"),
            journal_append: stage("journal_append"),
            recovery_restore: stage("recovery_restore"),
            recovery_replay: stage("recovery_replay"),
        };
        Arc::new(ExchangeTelemetry {
            clock,
            registry,
            counters,
            queue_depth,
            waitlist_depth,
            stages,
            trace: TraceRing::new(trace_capacity),
        })
    }

    /// Current clock reading.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Records one trace span.
    pub(crate) fn span(&self, key: TraceKey, stage: &'static str, start_ns: u64, end_ns: u64) {
        self.trace.record(TraceSpan {
            key,
            stage,
            start_ns,
            end_ns,
        });
    }

    /// The span ring, for postmortem timelines
    /// ([`TraceRing::timeline`]).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The underlying registry — callers may hang extra metrics off it;
    /// they render alongside the exchange's own families.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Point-in-time copy of one stage histogram (`None` for a name not
    /// in [`STAGES`]).
    pub fn stage_snapshot(&self, stage: &str) -> Option<HistogramSnapshot> {
        let s = &self.stages;
        let h = match stage {
            "dispatch_wait" => &s.dispatch_wait,
            "course_train" => &s.course_train,
            "course_cache_hit" => &s.course_cache_hit,
            "quote_round" => &s.quote_round,
            "settlement" => &s.settlement,
            "epoch_clear" => &s.epoch_clear,
            "journal_append" => &s.journal_append,
            "recovery_restore" => &s.recovery_restore,
            "recovery_replay" => &s.recovery_replay,
            _ => return None,
        };
        Some(h.snapshot())
    }

    /// Bridges `snapshot`'s counters into the registry and renders the
    /// Prometheus text exposition. [`crate::Exchange::scrape`] is the
    /// usual entry point; this exists so a snapshot taken earlier (or a
    /// detached registry) can be rendered too.
    pub fn render_with(&self, snapshot: &MetricsSnapshot) -> String {
        self.sync_counters(snapshot);
        self.registry.render()
    }

    /// JSON twin of [`Self::render_with`].
    pub fn render_json_with(&self, snapshot: &MetricsSnapshot) -> String {
        self.sync_counters(snapshot);
        self.registry.render_json()
    }

    fn sync_counters(&self, snapshot: &MetricsSnapshot) {
        let mut idx = 0;
        snapshot.for_each_counter(|name, value| {
            debug_assert_eq!(
                name,
                MetricsSnapshot::COUNTERS[idx].0,
                "counter table and visitor must agree on order"
            );
            self.counters[idx].store(value);
            idx += 1;
        });
    }
}

/// Per-slice timing state for `run_slice`: created at slice start,
/// finished at every slice exit. Measures the whole slice with two clock
/// reads and attributes it as `quote_round = (slice − course serves) ÷
/// rounds`, recorded once per completed round — the amortization that
/// keeps the bargaining loop's telemetry cost independent of round
/// count.
#[derive(Debug)]
pub(crate) struct SliceTimer {
    start_ns: u64,
    /// Course-serve time (hits + trainings) already attributed to its
    /// own stages, excluded from `quote_round`.
    serve_ns: u64,
    rounds0: usize,
}

impl SliceTimer {
    pub(crate) fn start(t: &ExchangeTelemetry, rounds0: usize) -> Self {
        SliceTimer {
            start_ns: t.now_ns(),
            serve_ns: 0,
            rounds0,
        }
    }

    pub(crate) fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Excludes an already-timed course serve from the protocol share.
    pub(crate) fn note_serve(&mut self, ns: u64) {
        self.serve_ns = self.serve_ns.saturating_add(ns);
    }

    /// Ends the slice: records the amortized per-round protocol cost.
    pub(crate) fn finish(self, t: &ExchangeTelemetry, rounds_end: usize) {
        let rounds = rounds_end.saturating_sub(self.rounds0) as u64;
        if rounds == 0 {
            return;
        }
        let total = t.now_ns().saturating_sub(self.start_ns);
        let protocol = total.saturating_sub(self.serve_ns);
        t.stages.quote_round.record_n(protocol / rounds, rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfl_telemetry::VirtualClock;

    #[test]
    fn every_stage_is_registered_and_snapshot_reachable() {
        let t = ExchangeTelemetry::new();
        for stage in STAGES {
            let snap = t
                .stage_snapshot(stage)
                .unwrap_or_else(|| panic!("stage {stage} missing from the telemetry registry"));
            assert_eq!(snap.count, 0);
        }
        assert!(t.stage_snapshot("no_such_stage").is_none());
    }

    #[test]
    fn render_bridges_every_exchange_counter() {
        let t = ExchangeTelemetry::new();
        let snap = MetricsSnapshot {
            sessions_opened: 3,
            cache_hits: 8,
            ..MetricsSnapshot::default()
        };
        let text = t.render_with(&snap);
        for (name, _) in MetricsSnapshot::COUNTERS {
            assert!(text.contains(name), "{name} missing from render:\n{text}");
        }
        assert!(text.contains("vfl_exchange_sessions_opened 3"), "{text}");
        assert!(text.contains("vfl_exchange_cache_hits 8"), "{text}");
        assert!(text.contains(QUEUE_DEPTH), "{text}");
        assert!(text.contains(WAITLIST_DEPTH), "{text}");
    }

    #[test]
    fn slice_timer_amortizes_protocol_time_over_rounds() {
        let clock = Arc::new(VirtualClock::new());
        let t = ExchangeTelemetry::with_clock(clock.clone(), 16);
        let mut timer = SliceTimer::start(&t, 2);
        clock.advance(1_000);
        timer.note_serve(400); // a timed course serve inside the slice
        timer.finish(&t, 5); // 3 rounds completed this slice
        let snap = t.stage_snapshot("quote_round").unwrap();
        assert_eq!(snap.count, 3);
        // (1000 - 400) / 3 = 200 per round.
        assert_eq!(snap.sum, 600);
        assert_eq!(snap.min, 200);
    }

    #[test]
    fn slice_timer_with_no_rounds_records_nothing() {
        let clock = Arc::new(VirtualClock::new());
        let t = ExchangeTelemetry::with_clock(clock.clone(), 16);
        let timer = SliceTimer::start(&t, 4);
        clock.advance(500);
        timer.finish(&t, 4);
        assert_eq!(t.stage_snapshot("quote_round").unwrap().count, 0);
    }

    #[test]
    fn spans_land_in_the_trace_ring() {
        let t = ExchangeTelemetry::with_clock(Arc::new(VirtualClock::new()), 8);
        t.span(TraceKey::Demand(4), "settlement", 10, 30);
        let line = t.trace().timeline(TraceKey::Demand(4));
        assert_eq!(line.len(), 1);
        assert_eq!(line[0].duration_ns(), 20);
    }
}
