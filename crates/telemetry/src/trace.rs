//! Bounded ring of trace spans for postmortem timelines.
//!
//! A [`TraceSpan`] is one timed stage of one entity's life — "session 3
//! spent 40µs in course training starting at t=1200ns". The ring keeps
//! the most recent `capacity` spans: writers never block on a full ring,
//! old spans are simply evicted. The ring is guarded by a mutex — spans
//! are recorded once per *stage*, not per atomic operation, so the lock
//! is cold compared to every other cost on the path; the metric
//! primitives stay lock-free and this is the one deliberate exception.

use crate::lock;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Which entity a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKey {
    /// A bilateral negotiation session, by session id.
    Session(u64),
    /// A fanned-out demand, by demand id.
    Demand(u64),
    /// A clearing epoch, by epoch number.
    Epoch(u64),
}

/// One timed stage: `[start_ns, end_ns]` on the owning clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Entity the span belongs to.
    pub key: TraceKey,
    /// Stage name (static so recording never allocates).
    pub stage: &'static str,
    /// Clock reading when the stage began.
    pub start_ns: u64,
    /// Clock reading when the stage ended.
    pub end_ns: u64,
}

impl TraceSpan {
    /// Stage duration (saturating, so a clock hiccup reads as 0).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Fixed-capacity most-recent-spans ring.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    spans: Mutex<VecDeque<TraceSpan>>,
}

impl TraceRing {
    /// A ring holding at most `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            spans: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Append a span, evicting the oldest if the ring is full.
    pub fn record(&self, span: TraceSpan) {
        let mut spans = lock(&self.spans);
        if spans.len() == self.capacity {
            spans.pop_front();
        }
        spans.push_back(span);
    }

    /// Appends spans in order under one lock, evicting the oldest as
    /// [`Self::record`] does.
    pub fn record_all(&self, batch: impl IntoIterator<Item = TraceSpan>) {
        let mut spans = lock(&self.spans);
        for span in batch {
            if spans.len() == self.capacity {
                spans.pop_front();
            }
            spans.push_back(span);
        }
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        lock(&self.spans).len()
    }

    /// True when no span has been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        lock(&self.spans).is_empty()
    }

    /// Maximum spans held before eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Copy of every held span, oldest first.
    pub fn snapshot(&self) -> Vec<TraceSpan> {
        lock(&self.spans).iter().copied().collect()
    }

    /// Every held span for one entity, ordered by start time — the
    /// postmortem timeline readout.
    pub fn timeline(&self, key: TraceKey) -> Vec<TraceSpan> {
        let mut spans: Vec<TraceSpan> = lock(&self.spans)
            .iter()
            .filter(|s| s.key == key)
            .copied()
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        spans
    }

    /// Drop every held span.
    pub fn clear(&self) {
        lock(&self.spans).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(key: TraceKey, stage: &'static str, start: u64, end: u64) -> TraceSpan {
        TraceSpan {
            key,
            stage,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let ring = TraceRing::new(2);
        ring.record(span(TraceKey::Session(1), "a", 0, 1));
        ring.record(span(TraceKey::Session(2), "b", 1, 2));
        ring.record(span(TraceKey::Session(3), "c", 2, 3));
        assert_eq!(ring.len(), 2);
        let held = ring.snapshot();
        assert_eq!(held[0].key, TraceKey::Session(2));
        assert_eq!(held[1].key, TraceKey::Session(3));
    }

    #[test]
    fn timeline_filters_by_key_and_sorts_by_start() {
        let ring = TraceRing::new(16);
        ring.record(span(TraceKey::Demand(7), "settle", 500, 600));
        ring.record(span(TraceKey::Session(1), "train", 100, 400));
        ring.record(span(TraceKey::Demand(7), "dispatch", 10, 20));
        let line = ring.timeline(TraceKey::Demand(7));
        assert_eq!(line.len(), 2);
        assert_eq!(line[0].stage, "dispatch");
        assert_eq!(line[1].stage, "settle");
        assert!(ring.timeline(TraceKey::Epoch(0)).is_empty());
    }

    #[test]
    fn duration_saturates() {
        assert_eq!(span(TraceKey::Epoch(0), "x", 10, 25).duration_ns(), 15);
        assert_eq!(span(TraceKey::Epoch(0), "x", 25, 10).duration_ns(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(span(TraceKey::Session(1), "a", 0, 1));
        ring.record(span(TraceKey::Session(2), "b", 1, 2));
        assert_eq!(ring.len(), 1);
        assert!(!ring.is_empty());
        ring.clear();
        assert!(ring.is_empty());
    }
}
