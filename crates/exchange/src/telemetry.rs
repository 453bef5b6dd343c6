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
//! * **Lock order unchanged.** Stage samples and trace spans are plain
//!   data under the exchange's state lock (below); publishing the samples
//!   and recording gauges is lock-free (relaxed atomics). The trace
//!   ring's own private mutex is a leaf: publishing the spans takes it
//!   once, under the state lock, and nothing is acquired under it.
//!
//! ## Stage histograms
//!
//! All stages share one labeled family, `vfl_exchange_stage_ns{stage=…}`:
//!
//! | stage | what is timed |
//! |---|---|
//! | `dispatch_wait` | submit (or settlement wake) → the slice that picks the session up |
//! | `course_train` | a shared-cache miss: the real model training behind a ΔG |
//! | `course_cache_hit` | a shared-cache hit: the lookup under the held state lock (sampled) |
//! | `quote_round` | per-round protocol stepping (slice time amortized over the slice's completed rounds) |
//! | `settlement` | one demand's settlement: decision record + wake/cancel side-effects |
//! | `epoch_clear` | one clearing epoch: decision, record, every member settlement |
//! | `journal_append` | one event's serialize + append (+ flush policy) (sampled) |
//! | `recovery_restore` | recovery's parse + checkpoint-restore phase |
//! | `recovery_replay` | recovery's suffix-replay phase |
//!
//! ## What a sample costs, and when it is visible
//!
//! Every stage sample and trace span is router data: the exchange's
//! state keeps one plain [`HistogramTally`] per stage and a buffer of
//! spans, written under the state lock the recording path already
//! holds. The shared, wait-free histograms of the registry and the
//! [`TraceRing`] are written only when the exchange *publishes*, which
//! it does at three points: when a drain ends, at every
//! [`crate::Exchange::scrape`] / [`crate::Exchange::scrape_json`], and
//! when recovery ends. So [`ExchangeTelemetry::stage_snapshot`] sees a
//! sample, and [`ExchangeTelemetry::trace`] a span, only after one of
//! those publish points; a drain in progress shows the samples and
//! spans of earlier drains. The span buffer holds at most the ring's
//! capacity, dropping its oldest span first as the ring would.
//!
//! The clock is read sparingly:
//!
//! * `quote_round` is amortized — (slice time ÷ rounds in the slice),
//!   recorded with weight = rounds — so the bargaining loop pays two
//!   clock reads per *slice*, not two per round. The cache hits inside
//!   the slice are part of its time, not subtracted from it.
//! * `course_cache_hit` and `journal_append` are *sampled*: the first
//!   event and every [`SAMPLE_STRIDE`]-th after it is timed and recorded
//!   with weight [`SAMPLE_STRIDE`], so each stage's count runs at most
//!   `SAMPLE_STRIDE − 1` ahead of the events it stands for, and a round
//!   pays the hit's two reads only once in [`SAMPLE_STRIDE`] hits.
//! * A demand's whole fan-out is stamped for `dispatch_wait` with one
//!   reading. A `quote_recorded` trace point reuses the closing reading
//!   of the slice that reported it, and the settlement that report
//!   decides is timed from that same reading; an epoch's member
//!   settlements are timed back to back from the epoch's opening
//!   reading. A settlement's wake reuses its opening reading.
//! * `course_train`, `dispatch_wait`, `settlement`, `epoch_clear` and the
//!   two recovery stages keep one sample per event.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::metrics::MetricsSnapshot;
use vfl_telemetry::{
    Clock, Counter, Gauge, Histogram, HistogramSnapshot, HistogramTally, MonotonicClock, Registry,
    TraceKey, TraceRing, TraceSpan,
};

/// Exported name of the per-stage latency histogram family.
pub const STAGE_FAMILY: &str = "vfl_exchange_stage_ns";
/// Exported name of the pending-queue depth gauge.
pub const QUEUE_DEPTH: &str = "vfl_exchange_queue_depth";
/// Exported name of the course-waitlist depth gauge.
pub const WAITLIST_DEPTH: &str = "vfl_exchange_waitlist_depth";

/// Every stage label the exchange records, in pipeline order (the order
/// of the crate-private `Stage`).
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

/// One stage of [`STAGES`]; its discriminant is its index there.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    DispatchWait,
    CourseTrain,
    CourseCacheHit,
    QuoteRound,
    Settlement,
    EpochClear,
    JournalAppend,
    RecoveryRestore,
    RecoveryReplay,
}

/// Events per timed sample on the sampled stages (`course_cache_hit`,
/// `journal_append`); each sample is recorded with this weight.
pub const SAMPLE_STRIDE: u64 = 16;

/// The exchange's own per-stage samples and trace spans: one plain tally
/// per stage and a span buffer in its state, written under the state lock
/// and published into the shared histograms and the trace ring by
/// [`ExchangeTelemetry::publish`].
#[derive(Debug, Default)]
pub(crate) struct StageTallies {
    tallies: [HistogramTally; STAGES.len()],
    /// Spans not yet published, oldest first; at most the trace ring's
    /// capacity.
    spans: VecDeque<TraceSpan>,
    /// Cache hits seen, timed one in [`SAMPLE_STRIDE`].
    pub(crate) hit_sampler: Sampler,
    /// Journal appends seen, timed one in [`SAMPLE_STRIDE`].
    pub(crate) append_sampler: Sampler,
}

impl StageTallies {
    /// Records one event of `stage` that took `ns`.
    pub(crate) fn record(&mut self, stage: Stage, ns: u64) {
        self.tallies[stage as usize].record(ns);
    }

    /// Records `n` events of `stage` that took `ns` each.
    pub(crate) fn record_n(&mut self, stage: Stage, ns: u64, n: u64) {
        self.tallies[stage as usize].record_n(ns, n);
    }

    /// Buffers one trace span for `t`'s ring, dropping the oldest
    /// buffered span when the buffer already holds the ring's capacity.
    pub(crate) fn span(
        &mut self,
        t: &ExchangeTelemetry,
        key: TraceKey,
        stage: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.spans.len() >= t.trace.capacity() {
            self.spans.pop_front();
        }
        self.spans.push_back(TraceSpan {
            key,
            stage,
            start_ns,
            end_ns,
        });
    }
}

/// Picks which events of a sampled stage are timed: the first and every
/// [`SAMPLE_STRIDE`]-th after it.
#[derive(Debug, Default)]
pub(crate) struct Sampler {
    seen: u64,
}

impl Sampler {
    /// True when the next event is one to time.
    pub(crate) fn due(&self) -> bool {
        self.seen.is_multiple_of(SAMPLE_STRIDE)
    }

    /// Counts one event; true when it is one to time.
    pub(crate) fn tick(&mut self) -> bool {
        let due = self.due();
        self.seen += 1;
        due
    }
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
    /// The [`STAGE_FAMILY`] series, one per [`STAGES`] entry, in order.
    stages: Vec<Histogram>,
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
        let stages = STAGES
            .iter()
            .map(|&name| registry.histogram_with(STAGE_FAMILY, stage_help, &[("stage", name)]))
            .collect();
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

    /// Records one trace span straight into the ring (the exchange itself
    /// buffers its spans in its state; see the module doc).
    #[cfg(test)]
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
    /// in [`STAGES`]). It holds the samples of the last publish point (see
    /// the module doc), not those an exchange has tallied since.
    pub fn stage_snapshot(&self, stage: &str) -> Option<HistogramSnapshot> {
        let i = STAGES.iter().position(|&s| s == stage)?;
        Some(self.stages[i].snapshot())
    }

    /// Folds every stage tally into the shared histograms and every
    /// buffered span into the trace ring, and empties them (see the module
    /// doc for the publish points).
    pub(crate) fn publish(&self, tallies: &mut StageTallies) {
        for (tally, histogram) in tallies.tallies.iter_mut().zip(&self.stages) {
            tally.publish(histogram);
        }
        if !tallies.spans.is_empty() {
            self.trace.record_all(tallies.spans.drain(..));
        }
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
/// reads and attributes it as `quote_round = slice ÷ rounds`, recorded
/// with weight = rounds — the amortization that keeps the bargaining
/// loop's telemetry cost independent of round count.
#[derive(Debug)]
pub(crate) struct SliceTimer {
    start_ns: u64,
    rounds0: usize,
}

impl SliceTimer {
    pub(crate) fn start(t: &ExchangeTelemetry, rounds0: usize) -> Self {
        SliceTimer {
            start_ns: t.now_ns(),
            rounds0,
        }
    }

    pub(crate) fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Ends the slice: records the amortized per-round protocol cost and
    /// returns the closing reading. A slice that completed no round
    /// records nothing and reads no clock.
    pub(crate) fn finish(
        self,
        t: &ExchangeTelemetry,
        tallies: &mut StageTallies,
        rounds_end: usize,
    ) -> Option<u64> {
        let rounds = rounds_end.saturating_sub(self.rounds0) as u64;
        if rounds == 0 {
            return None;
        }
        let now = t.now_ns();
        let total = now.saturating_sub(self.start_ns);
        tallies.record_n(Stage::QuoteRound, total / rounds, rounds);
        Some(now)
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
    fn stage_discriminants_index_their_labels() {
        let cases = [
            (Stage::DispatchWait, "dispatch_wait"),
            (Stage::CourseTrain, "course_train"),
            (Stage::CourseCacheHit, "course_cache_hit"),
            (Stage::QuoteRound, "quote_round"),
            (Stage::Settlement, "settlement"),
            (Stage::EpochClear, "epoch_clear"),
            (Stage::JournalAppend, "journal_append"),
            (Stage::RecoveryRestore, "recovery_restore"),
            (Stage::RecoveryReplay, "recovery_replay"),
        ];
        assert_eq!(cases.len(), STAGES.len());
        let t = ExchangeTelemetry::new();
        let mut tallies = StageTallies::default();
        for (i, &(stage, _)) in cases.iter().enumerate() {
            tallies.record_n(stage, 10, i as u64 + 1);
        }
        t.publish(&mut tallies);
        for (i, &(_, name)) in cases.iter().enumerate() {
            assert_eq!(STAGES[i], name);
            assert_eq!(
                t.stage_snapshot(name).unwrap().count,
                i as u64 + 1,
                "{name}"
            );
        }
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
        let mut tallies = StageTallies::default();
        let timer = SliceTimer::start(&t, 2);
        clock.advance(600);
        // 3 rounds completed this slice; the closing reading comes back.
        assert_eq!(timer.finish(&t, &mut tallies, 5), Some(600));
        assert_eq!(
            t.stage_snapshot("quote_round").unwrap().count,
            0,
            "nothing is visible before a publish"
        );
        t.publish(&mut tallies);
        let snap = t.stage_snapshot("quote_round").unwrap();
        assert_eq!(snap.count, 3);
        // 600 / 3 = 200 per round.
        assert_eq!(snap.sum, 600);
        assert_eq!(snap.min, 200);
    }

    #[test]
    fn slice_timer_with_no_rounds_records_nothing() {
        let clock = Arc::new(VirtualClock::new());
        let t = ExchangeTelemetry::with_clock(clock.clone(), 16);
        let mut tallies = StageTallies::default();
        let timer = SliceTimer::start(&t, 4);
        clock.advance(500);
        assert_eq!(timer.finish(&t, &mut tallies, 4), None);
        t.publish(&mut tallies);
        assert_eq!(t.stage_snapshot("quote_round").unwrap().count, 0);
    }

    #[test]
    fn sampler_times_the_first_event_and_every_stride_after() {
        let mut sampler = Sampler::default();
        let due: Vec<u64> = (0..40).filter(|_| sampler.tick()).collect();
        assert_eq!(due, vec![0, SAMPLE_STRIDE, 2 * SAMPLE_STRIDE]);
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
