//! Per-exchange operational counters. The counters are plain data in the
//! exchange's state, bumped under the state lock in the critical section
//! that does what they count (the shared gain cache counts nothing: the
//! router counts its hits and misses), and [`crate::Exchange::metrics`]
//! reads them in one critical section, so a [`MetricsSnapshot`] is a
//! consistent point-in-time read: every relation the exchange keeps
//! between its counters holds in every snapshot. The exchange never
//! branches on a counter; invariants that matter for correctness
//! (settlement once per demand, wake once per waiter) are enforced by the
//! matching book and the cache's claims, not here.
//!
//! The counter list is declared exactly once, in the
//! `declare_exchange_metrics!` invocation below. The macro generates the
//! [`MetricsSnapshot`] struct (with `Default`, so the exchange starts from
//! zero and test fixtures set only the fields they assert on) and
//! [`MetricsSnapshot::COUNTERS`] — the exported-name table the telemetry
//! scrape and the export-completeness test both walk. Adding a counter is
//! one new line here; no fixture, export, or test list needs editing.

/// Declares the full exchange counter set in one place. Each entry is
/// `field_name: "help text",`; the exported Prometheus name is
/// `vfl_exchange_<field_name>`.
macro_rules! declare_exchange_metrics {
    ($($field:ident : $help:literal,)+) => {
        /// Point-in-time view of an exchange's counters. `Default` is
        /// all-zero, so fixtures write only the fields under test.
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct MetricsSnapshot {
            $( #[doc = $help] pub $field: u64, )+
        }

        impl MetricsSnapshot {
            /// Exported name and help text of every counter in the
            /// snapshot, in declaration order — the single source of
            /// truth for the telemetry scrape and the
            /// export-completeness test.
            pub const COUNTERS: &'static [(&'static str, &'static str)] = &[
                $( (concat!("vfl_exchange_", stringify!($field)), $help), )+
            ];

            /// Visit `(exported name, value)` for every counter, in
            /// [`Self::COUNTERS`] order.
            pub fn for_each_counter(&self, mut visit: impl FnMut(&'static str, u64)) {
                $( visit(concat!("vfl_exchange_", stringify!($field)), self.$field); )+
            }
        }
    };
}

declare_exchange_metrics! {
    sessions_opened:
        "Sessions accepted by submit (or fanned out by submit_demand).",
    sessions_closed:
        "Sessions that reached a negotiated outcome (success or negotiated failure - both are orderly closures of the protocol).",
    sessions_failed:
        "Sessions that died on a hard error (strategy/config/course error).",
    sessions_cancelled:
        "Sessions terminated by the platform: losing candidates of a settled demand. Disjoint from sessions_closed and sessions_failed.",
    deals_struck:
        "Negotiations that closed successfully (subset of sessions_closed).",
    courses_requested:
        "VFL course evaluations requested by sessions (cache hits + misses; a Busy wait is not a request - it is retried after the wake).",
    course_waits:
        "Times a session parked on the course waitlist because another session's course for the same (evaluation key, bundle) was outstanding.",
    rounds_completed:
        "Bargaining rounds completed across all sessions.",
    demands_submitted:
        "Demands accepted by submit_demand.",
    demands_settled:
        "Demands whose settlement has run (every candidate reported).",
    demands_matched:
        "Settled demands where the policy selected a winner (subset of demands_settled).",
    courses_preloaded:
        "Gain courses refilled into the cache by journal recovery - trainings paid for by a previous life of this exchange, never re-run here.",
    epochs_cleared:
        "Clearing epochs the window has run (batch settlements).",
    demands_rolled:
        "Demand-epochs spent rolling: one count each time a demand lost its seller slot to capacity and stayed queued for the next epoch.",
    demands_expired:
        "Epoch demands that settled unmatched because they were rolled past the window's max_rolls (contention starvation made visible).",
    demands_shed:
        "Demands refused at submit_demand by the attached admission policy (load shedding under dispatcher backlog; journaled and recovered like any other terminal).",
    cache_hits:
        "Shared-cache hits.",
    cache_misses:
        "Shared-cache misses (each one paid a real course).",
}

impl MetricsSnapshot {
    /// Fraction of course requests served from the shared cache; 0 when no
    /// request has been made yet.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Sessions that are still open (submitted but not yet closed, failed,
    /// or cancelled). (Per-drain throughput lives on
    /// [`crate::DrainReport::sessions_per_sec`], which owns the wall-clock.)
    pub fn sessions_in_flight(&self) -> u64 {
        self.sessions_opened
            .saturating_sub(self.sessions_closed + self.sessions_failed + self.sessions_cancelled)
    }

    /// Fraction of settled demands that found a winner; 0 before any
    /// demand settled.
    pub fn match_rate(&self) -> f64 {
        if self.demands_settled == 0 {
            0.0
        } else {
            self.demands_matched as f64 / self.demands_settled as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> MetricsSnapshot {
        MetricsSnapshot {
            sessions_opened: 12,
            sessions_closed: 6,
            sessions_failed: 1,
            sessions_cancelled: 2,
            deals_struck: 5,
            demands_settled: 4,
            demands_matched: 3,
            cache_hits: 30,
            cache_misses: 10,
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn hit_rate_in_flight_and_match_rate() {
        let snap = snap();
        assert!((snap.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(snap.sessions_in_flight(), 3);
        assert!((snap.match_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_defined() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.cache_hit_rate(), 0.0);
        assert_eq!(snap.sessions_in_flight(), 0);
        assert_eq!(snap.match_rate(), 0.0);
    }

    #[test]
    fn live_counters_snapshot_through_the_generated_path() {
        let exchange = crate::Exchange::new(crate::ExchangeConfig::default());
        {
            let mut core = crate::lock(&exchange.state);
            core.counters.sessions_opened += 2;
            core.counters.rounds_completed += 1;
            core.counters.cache_hits += 4;
            core.counters.cache_misses += 1;
        }
        let snap = exchange.metrics();
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.rounds_completed, 1);
        assert_eq!(snap.cache_hits, 4);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.sessions_closed, 0);
    }

    #[test]
    fn counter_table_and_visitor_agree_and_cover_every_field() {
        let snap = MetricsSnapshot {
            sessions_opened: 7,
            cache_misses: 9,
            ..MetricsSnapshot::default()
        };
        let mut visited = Vec::new();
        snap.for_each_counter(|name, value| visited.push((name, value)));
        assert_eq!(visited.len(), MetricsSnapshot::COUNTERS.len());
        for ((visited_name, _), (table_name, help)) in visited.iter().zip(MetricsSnapshot::COUNTERS)
        {
            assert_eq!(visited_name, table_name);
            assert!(!help.is_empty(), "{table_name} needs help text");
        }
        assert!(visited.contains(&("vfl_exchange_sessions_opened", 7)));
        assert!(visited.contains(&("vfl_exchange_cache_misses", 9)));
        // 16 exchange counters and the 2 cache counters, declared last.
        assert_eq!(MetricsSnapshot::COUNTERS.len(), 18);
        assert_eq!(
            &MetricsSnapshot::COUNTERS[16..],
            &[
                ("vfl_exchange_cache_hits", "Shared-cache hits."),
                (
                    "vfl_exchange_cache_misses",
                    "Shared-cache misses (each one paid a real course)."
                ),
            ]
        );
    }
}
