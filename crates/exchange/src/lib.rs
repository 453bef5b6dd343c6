//! # vfl-exchange
//!
//! The concurrent multi-session marketplace engine on top of `vfl-market`.
//!
//! The paper specifies its bargaining mechanism for one task party and one
//! data party, but its own deployment framing (§3.4's trading-platform
//! third party, §3.6's direct-deployment note) implies a platform mediating
//! *many* concurrent negotiations. This crate is that platform tier:
//!
//! * [`Exchange`] — registered markets (any dataset × base-model mix in one
//!   exchange), a `submit`/`poll`/`drain` API, and a single-owner router
//!   that drives thousands of interleaved
//!   [`vfl_market::session::NegotiationSession`]s to completion;
//! * [`SharedGainCache`] — the exchange-wide ΔG memo: identical
//!   (scenario, model, bundle) course queries across sessions hit the
//!   cache, and overlapping misses on one key train it once while the
//!   other requesters wait on the key's claim;
//! * [`SessionStore`](store) — the session registry; the router checks
//!   sessions out, drives them, and checks them back in within one slice.
//!   It, the cache, the pending queue, the demand book, and the clearing
//!   window are plain data behind the exchange's single state lock, each
//!   the one owner of its facts, so external callers poll and take
//!   between the router's slices;
//! * [`matching`] — the multi-seller tier: a task party posts a [`Demand`],
//!   the exchange fans it out to every registered seller whose catalog
//!   overlaps, probes the candidates concurrently, and settles by a
//!   pluggable [`MatchPolicy`] (losing candidates are cancelled, the winner
//!   runs to the paper's Cases 1–6 conclusion);
//! * [`clearing`] — the batch tier above it: demands submitted with
//!   [`SettleMode::Epoch`] park after their probes and are crossed
//!   *together* against the seller pool in deterministic epochs by a
//!   double-auction [`ClearPolicy`] ([`UniformPriceClearing`] ships),
//!   capacity-aware and journaled as one atomic batch per epoch;
//! * [`MetricsSnapshot`] — sessions opened/closed/failed/cancelled, rounds,
//!   course requests and waits, demand/match counts, epochs cleared and
//!   rolls, cache hit rate;
//! * [`telemetry`] — the optional operational-telemetry attachment
//!   ([`ExchangeTelemetry`]): per-stage latency histograms, queue-depth
//!   gauges, and ring-buffered trace spans, exported as a Prometheus text
//!   scrape via [`Exchange::scrape`]. Strictly observe-only — attaching it
//!   never changes a negotiation outcome, a journal byte, or a schedule
//!   decision;
//! * [`journal`] — the durable append-only event journal (versioned,
//!   checksummed frames) and [`Exchange::recover`]: a crashed drain is
//!   rebuilt from the journal's valid prefix and resumes without
//!   re-training any course it already paid for (epoch clearings
//!   included — the recorded epochs are re-derived and audited);
//! * [`executor`] — the router behind [`Exchange::drain`]: one thread runs
//!   every slice and journals every frame, while every uncached course is
//!   a future resolved off-slot on N course tasks through a
//!   [`CourseResolver`] ([`Exchange::set_course_resolver`]) — journals
//!   are byte-identical for any task count and course latency (bench
//!   E14).
//!
//! ```no_run
//! use std::sync::Arc;
//! use vfl_exchange::{Exchange, ExchangeConfig, MarketSpec, SessionOrder};
//! use vfl_market::{MarketConfig, StrategicData, StrategicTask, TableGainProvider};
//!
//! # fn listings() -> Vec<vfl_market::Listing> { vec![] }
//! let exchange = Exchange::new(ExchangeConfig::default());
//! let market = exchange
//!     .register_market(MarketSpec {
//!         provider: Arc::new(TableGainProvider::new([])),
//!         listings: Arc::new(listings()),
//!         evaluation_key: None,
//!         name: "titanic/forest".into(),
//!     })
//!     .unwrap();
//! let sid = exchange
//!     .submit(
//!         market,
//!         SessionOrder {
//!             cfg: MarketConfig::default(),
//!             task: Box::new(StrategicTask::new(0.3, 6.0, 0.9).unwrap()),
//!             data: Box::new(StrategicData::with_gains(vec![0.3])),
//!         },
//!     )
//!     .unwrap();
//! let report = exchange.drain(4);
//! println!("{} sessions/s", report.sessions_per_sec());
//! let outcome = exchange.take(sid).unwrap().unwrap();
//! # let _ = outcome;
//! ```
//!
//! Multi-seller matching rides on the same drain: register sellers instead
//! of bare markets, post a [`Demand`], drain, and read the settled quote
//! table.
//!
//! ```no_run
//! use std::sync::Arc;
//! use vfl_exchange::{
//!     BestResponse, Demand, Exchange, ExchangeConfig, MarketSpec, SellerSpec, SettleMode,
//! };
//! use vfl_market::{MarketConfig, StrategicData, StrategicTask, TableGainProvider};
//! use vfl_sim::BundleMask;
//!
//! # fn listings() -> Vec<vfl_market::Listing> { vec![] }
//! # fn gain_for(l: &vfl_market::Listing) -> f64 { let _ = l; 0.0 }
//! let exchange = Exchange::new(ExchangeConfig::default());
//! exchange
//!     .register_seller(SellerSpec {
//!         market: MarketSpec {
//!             provider: Arc::new(TableGainProvider::new([])),
//!             listings: Arc::new(listings()),
//!             evaluation_key: Some(42),
//!             name: "acme-data".into(),
//!         },
//!         // The factory sees the listing table the candidate will
//!         // negotiate over (the demand-scoped subset of the catalog).
//!         quoting: Arc::new(|table| {
//!             Box::new(StrategicData::with_gains(table.iter().map(gain_for).collect()))
//!         }),
//!     })
//!     .unwrap();
//! let demand = exchange
//!     .submit_demand(Demand {
//!         wanted: BundleMask::all(8),
//!         scenario: Some(42),
//!         cfg: MarketConfig::default(),
//!         task: Arc::new(|| Box::new(StrategicTask::new(0.3, 6.0, 0.9).unwrap())),
//!         probe_rounds: 2,
//!         settle: SettleMode::Immediate(Arc::new(BestResponse)),
//!     })
//!     .unwrap();
//! exchange.drain(4);
//! let report = exchange.take_demand(demand).unwrap();
//! println!("winner: {:?}", report.winning_quote().map(|q| &q.seller_name));
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod clearing;
pub mod exchange;
pub mod executor;
pub mod journal;
pub mod matching;
pub mod metrics;
pub mod session;
pub mod store;
pub mod telemetry;
pub mod traffic;

pub use cache::SharedGainCache;
pub use clearing::{
    uniform_prices, Assignment, ClearPolicy, ClearingSpec, ClearingWindow, EpochBatch,
    EpochDecision, EpochDemand, EpochEntry, EpochEntryKind, EpochRecord, PerDemand,
    UniformPriceClearing,
};
pub use exchange::{CheckpointStats, DrainReport, Exchange, ExchangeConfig, MarketId, MarketSpec};
pub use executor::{
    CourseFuture, CourseOrder, CourseResolver, LocalResolver, SimulatedRemoteResolver,
};
pub use journal::{
    check_journal_version, frame_boundaries, listing_table_digest, read_events, CheckpointMarket,
    CheckpointState, CompactError, CompactStats, CrashHook, CrashPoint, ExchangeEvent, Journal,
    MemorySink, QuoteKind, RecordedConclusion, RecordedSettlement, RecoverError, ReplayReport,
    ReplaySpec,
};
pub use matching::{
    BestResponse, CandidateQuote, Demand, DemandId, DemandReport, DemandStatus, MatchPolicy,
    QuoteState, QuotingFactory, SellerId, SellerSpec, SettleMode, TaskFactory,
};
pub use metrics::MetricsSnapshot;
pub use session::SessionOrder;
pub use store::{SessionId, SessionStatus};
pub use telemetry::{
    ExchangeTelemetry, QUEUE_DEPTH, SAMPLE_STRIDE, STAGES, STAGE_FAMILY, WAITLIST_DEPTH,
};
pub use traffic::{
    named_scenarios, AdmissionDecision, AdmissionLoad, AdmissionPolicy, Adversary, ArrivalProcess,
    CostWeightedAdmission, EpochTraffic, Hysteresis, QueueDepthAdmission, QuotaAdmission,
    RetryPolicy, ScenarioDriver, ScenarioOutcome, ScenarioSpec, TokenBucketAdmission,
};

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A `HashMap` keyed by the exchange's own ids (session and demand ids,
/// `(evaluation key, bundle)` pairs), hashed with [`IdHasher`] instead of
/// SipHash. The keys are issued or registered by the exchange, not chosen
/// by an adversary, and no output depends on iteration order: every
/// snapshot of these maps sorts.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hash of a sequence of `u64` words: one rotate, xor and
/// multiply per word.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// Locks `mutex`, recovering the guard if a holder panicked: the crate's
/// one lock convention. A panic under a lock (say, a strategy or policy
/// that panics under the state lock) propagates out of its own call;
/// later calls see the data as that holder left it instead of panicking
/// on the poison. A drain that panicked leaves the exchange failed (see
/// [`Exchange::drain`]); the recovered guard lets callers still read it.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vfl_market::{
        run_bargaining, Listing, MarketConfig, Outcome, ReservedPrice, StrategicData,
        StrategicTask, TableGainProvider,
    };
    use vfl_sim::BundleMask;

    #[test]
    fn lock_returns_guard_directly() {
        let m = Mutex::new(1u32);
        *lock(&m) += 41;
        assert_eq!(*lock(&m), 42);
        // A holder that panics poisons the mutex; the helper still hands
        // out the guard, with the data as the holder left it.
        let poisoned = std::panic::catch_unwind(|| {
            let mut guard = lock(&m);
            *guard += 1;
            panic!("holder dies with the lock held");
        });
        assert!(poisoned.is_err() && m.is_poisoned());
        assert_eq!(*lock(&m), 43);
        *lock(&m) += 1;
        assert_eq!(m.into_inner().unwrap_or_else(PoisonError::into_inner), 44);
    }

    fn table_market() -> (TableGainProvider, Arc<Vec<Listing>>, Vec<f64>) {
        let gains = vec![0.05, 0.12, 0.20, 0.30];
        let listings: Vec<Listing> = [(5.0, 0.8), (7.0, 1.0), (9.0, 1.2), (11.0, 1.5)]
            .iter()
            .enumerate()
            .map(|(i, &(rate, base))| Listing {
                bundle: BundleMask::singleton(i),
                reserved: ReservedPrice::new(rate, base).unwrap(),
            })
            .collect();
        let provider =
            TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
        (provider, Arc::new(listings), gains)
    }

    fn cfg(seed: u64) -> MarketConfig {
        MarketConfig {
            utility_rate: 1000.0,
            budget: 12.0,
            rate_cap: 20.0,
            seed,
            ..MarketConfig::default()
        }
    }

    fn order(gains: &[f64], seed: u64) -> SessionOrder {
        SessionOrder {
            cfg: cfg(seed),
            task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap()),
            data: Box::new(StrategicData::with_gains(gains.to_vec())),
        }
    }

    fn exchange_with_market() -> (Exchange, MarketId, TableGainProvider, Vec<f64>) {
        let (provider, listings, gains) = table_market();
        let exchange = Exchange::new(ExchangeConfig::default());
        let market = exchange
            .register_market(MarketSpec {
                provider: Arc::new(provider.clone()),
                listings,
                evaluation_key: Some(42),
                name: "table".into(),
            })
            .unwrap();
        (exchange, market, provider, gains)
    }

    #[test]
    fn single_session_matches_run_bargaining() {
        let (exchange, market, provider, gains) = exchange_with_market();
        let (_, listings, _) = table_market();
        let sid = exchange.submit(market, order(&gains, 7)).unwrap();
        assert!(matches!(
            exchange.poll(sid),
            Some(SessionStatus::Queued { rounds: 0 })
        ));
        let report = exchange.drain(2);
        assert_eq!(report.closed, 1);
        assert_eq!(report.failed, 0);

        let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
        let mut data = StrategicData::with_gains(gains.clone());
        let reference: Outcome =
            run_bargaining(&provider, &listings[..], &mut task, &mut data, &cfg(7)).unwrap();
        let via_exchange = exchange.take(sid).unwrap().unwrap();
        assert_eq!(*via_exchange, reference);
        assert!(
            exchange.take(sid).is_none(),
            "outcome is taken exactly once"
        );
    }

    #[test]
    fn many_sessions_interleave_and_all_close() {
        let (exchange, market, _, gains) = exchange_with_market();
        let ids: Vec<SessionId> = (0..100)
            .map(|seed| exchange.submit(market, order(&gains, seed)).unwrap())
            .collect();
        let report = exchange.drain(4);
        assert_eq!(report.closed + report.failed, 100);
        assert_eq!(report.failed, 0);
        let snap = exchange.metrics();
        assert_eq!(snap.sessions_opened, 100);
        assert_eq!(snap.sessions_closed, 100);
        assert!(snap.deals_struck > 0);
        assert!(snap.rounds_completed >= 100);
        assert_eq!(snap.courses_requested, snap.cache_hits + snap.cache_misses);
        // 4 listings under one evaluation key: essentially everything after
        // the first few courses is a hit.
        assert!(snap.cache_misses <= 16, "misses {}", snap.cache_misses);
        for id in ids {
            assert!(matches!(exchange.poll(id), Some(SessionStatus::Done(_))));
        }
    }

    #[test]
    fn markets_with_shared_keys_share_the_cache() {
        let (provider, listings, gains) = table_market();
        let exchange = Exchange::new(ExchangeConfig::default());
        let spec = |name: &str| MarketSpec {
            provider: Arc::new(provider.clone()),
            listings: listings.clone(),
            evaluation_key: Some(99),
            name: name.into(),
        };
        let m1 = exchange.register_market(spec("a")).unwrap();
        let m2 = exchange.register_market(spec("b")).unwrap();
        for seed in 0..20 {
            exchange.submit(m1, order(&gains, seed)).unwrap();
            exchange.submit(m2, order(&gains, seed)).unwrap();
        }
        exchange.drain(3);
        let snap = exchange.metrics();
        assert!(
            snap.cache_misses <= 12,
            "both markets must share entries, misses {}",
            snap.cache_misses
        );
    }

    #[test]
    fn private_cache_spaces_do_not_collide() {
        let (provider, listings, gains) = table_market();
        let exchange = Exchange::new(ExchangeConfig::default());
        let spec = || MarketSpec {
            provider: Arc::new(provider.clone()),
            listings: listings.clone(),
            evaluation_key: None,
            name: "private".into(),
        };
        let m1 = exchange.register_market(spec()).unwrap();
        let m2 = exchange.register_market(spec()).unwrap();
        exchange.submit(m1, order(&gains, 1)).unwrap();
        exchange.submit(m2, order(&gains, 1)).unwrap();
        exchange.drain(2);
        let snap = exchange.metrics();
        // Same bundles, distinct keys: each market pays its own misses.
        assert!(snap.cache_misses >= 2);
    }

    #[test]
    fn bad_submissions_are_rejected_or_fail_cleanly() {
        let (exchange, market, _, gains) = exchange_with_market();
        // Unknown market.
        assert!(exchange.submit(MarketId(999), order(&gains, 1)).is_err());
        // Invalid config is caught at submit time.
        let bad = SessionOrder {
            cfg: MarketConfig {
                budget: -3.0,
                ..MarketConfig::default()
            },
            task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap()),
            data: Box::new(StrategicData::with_gains(gains.clone())),
        };
        assert!(exchange.submit(market, bad).is_err());
        // A provider hole (bundle without a gain) fails the session, not
        // the exchange.
        let (_, listings, _) = table_market();
        let holey = exchange
            .register_market(MarketSpec {
                provider: Arc::new(TableGainProvider::new([(BundleMask::singleton(0), 0.05)])),
                listings,
                evaluation_key: None,
                name: "holey".into(),
            })
            .unwrap();
        let sid = exchange.submit(holey, order(&gains, 3)).unwrap();
        let report = exchange.drain(1);
        assert_eq!(report.failed, 1);
        assert!(matches!(exchange.poll(sid), Some(SessionStatus::Failed(_))));
        assert!(exchange.take(sid).unwrap().is_err());
        assert_eq!(exchange.metrics().sessions_failed, 1);
    }

    #[test]
    fn empty_drain_returns_immediately() {
        let exchange = Exchange::new(ExchangeConfig::default());
        let report = exchange.drain(2);
        assert_eq!(report.closed + report.failed, 0);
    }

    /// A seller over `table_market` whose per-bundle gains are scaled by
    /// `scale` (same listings, same reserves — only the landscape differs).
    fn scaled_seller(name: &str, scale: f64, eval_key: Option<u64>) -> SellerSpec {
        let (_, listings, gains) = table_market();
        let gains: Vec<f64> = gains.iter().map(|g| g * scale).collect();
        let provider =
            TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
        let by_bundle: std::collections::HashMap<u64, f64> = listings
            .iter()
            .zip(&gains)
            .map(|(l, &g)| (l.bundle.0, g))
            .collect();
        SellerSpec {
            market: MarketSpec {
                provider: Arc::new(provider),
                listings,
                evaluation_key: eval_key,
                name: name.into(),
            },
            quoting: Arc::new(move |table| {
                Box::new(StrategicData::with_gains(
                    table.iter().map(|l| by_bundle[&l.bundle.0]).collect(),
                ))
            }),
        }
    }

    fn demand(seed: u64, probe_rounds: u32) -> Demand {
        Demand {
            wanted: vfl_sim::BundleMask::all(4),
            scenario: None,
            cfg: cfg(seed),
            task: Arc::new(|| Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap())),
            probe_rounds,
            settle: SettleMode::Immediate(Arc::new(BestResponse)),
        }
    }

    #[test]
    fn matching_settles_and_picks_the_richer_landscape() {
        let exchange = Exchange::new(ExchangeConfig::default());
        let weak = exchange
            .register_seller(scaled_seller("weak", 0.1, None))
            .unwrap();
        let strong = exchange
            .register_seller(scaled_seller("strong", 1.0, None))
            .unwrap();
        let did = exchange.submit_demand(demand(7, 1)).unwrap();
        assert!(matches!(
            exchange.demand_status(did),
            Some(DemandStatus::Matching {
                reported: 0,
                total: 2
            })
        ));
        let report = exchange.drain(2);
        assert_eq!(report.failed, 0);

        let settled = exchange
            .take_demand(did)
            .expect("demand settles in one drain");
        assert_eq!(settled.quotes.len(), 2);
        let winner = settled.winning_quote().expect("a winner exists");
        // Ten-fold gains at equal reserves: the strong landscape's standing
        // net profit dominates at any probe horizon.
        assert_eq!(winner.seller, strong);
        assert_eq!(winner.seller_name, "strong");
        let _ = weak;

        // The winner ran to a protocol conclusion past its probe horizon.
        let wsid = settled.winning_session().unwrap();
        let outcome = exchange.take(wsid).unwrap().unwrap();
        assert!(
            !matches!(
                outcome.status,
                vfl_market::OutcomeStatus::Failed {
                    reason: vfl_market::FailureReason::Cancelled
                }
            ),
            "the winner is never cancelled"
        );
        assert_eq!(outcome.transcript.seller(), Some("strong"));

        // The losing candidate was cancelled or closed on its own; either
        // way it is terminal and carries its seller identity.
        let loser = settled
            .quotes
            .iter()
            .find(|q| q.seller != winner.seller)
            .unwrap();
        let loser_outcome = exchange.take(loser.session).unwrap().unwrap();
        assert_eq!(loser_outcome.transcript.seller(), Some("weak"));
        if matches!(loser.state, QuoteState::Standing(_)) {
            assert_eq!(
                loser_outcome.status,
                vfl_market::OutcomeStatus::Failed {
                    reason: vfl_market::FailureReason::Cancelled
                },
                "parked losers are cancelled at settlement"
            );
        }

        let snap = exchange.metrics();
        assert_eq!(snap.demands_submitted, 1);
        assert_eq!(snap.demands_settled, 1);
        assert_eq!(snap.demands_matched, 1);
        assert_eq!(
            report.cancelled as u64, snap.sessions_cancelled,
            "a single drain owns every cancellation it performed"
        );
        assert_eq!(
            snap.sessions_closed + snap.sessions_failed + snap.sessions_cancelled,
            snap.sessions_opened
        );
    }

    #[test]
    fn single_seller_demand_matches_run_bargaining_modulo_seller_tag() {
        let (provider, listings, gains) = table_market();
        for (seed, probe) in [(1u64, 1u32), (3, 2), (5, 4), (9, 64)] {
            let exchange = Exchange::new(ExchangeConfig::default());
            exchange
                .register_seller(scaled_seller("solo", 1.0, None))
                .unwrap();
            let did = exchange.submit_demand(demand(seed, probe)).unwrap();
            exchange.drain(2);
            let settled = exchange.take_demand(did).unwrap();
            let sid = settled.quotes[0].session;
            let via_matching = exchange.take(sid).unwrap().unwrap();

            let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
            let mut data = StrategicData::with_gains(gains.clone());
            let mut reference =
                run_bargaining(&provider, &listings[..], &mut task, &mut data, &cfg(seed)).unwrap();
            reference.transcript.set_seller("solo");
            assert_eq!(*via_matching, reference, "seed {seed} probe {probe}");
            // A lone candidate wins iff its negotiation can still close.
            match settled.winner {
                Some(0) => {}
                None => assert!(!reference.is_success(), "seed {seed} probe {probe}"),
                other => panic!("impossible winner {other:?}"),
            }
        }
    }

    #[test]
    fn demand_scopes_every_candidate_to_the_wanted_features() {
        // Sellers list features 0..4; the buyer wants only features 0–1.
        // Every listing on a candidate's table must deliver at least one
        // wanted feature (bundle granularity is the seller's: a listing
        // that mixes wanted and unwanted features stays tradable, so the
        // enforced invariant is intersection, not subset).
        let exchange = Exchange::new(ExchangeConfig::default());
        exchange
            .register_seller(scaled_seller("a", 1.0, None))
            .unwrap();
        exchange
            .register_seller(scaled_seller("b", 0.5, None))
            .unwrap();
        let wanted = vfl_sim::BundleMask::from_features(&[0, 1]);
        let mut d = demand(4, 2);
        d.wanted = wanted;
        let did = exchange.submit_demand(d).unwrap();
        exchange.drain(2);
        let settled = exchange.take_demand(did).expect("demand settles");
        assert!(settled.winner.is_some());
        for quote in &settled.quotes {
            let outcome = exchange.take(quote.session).unwrap().unwrap();
            for rec in &outcome.rounds {
                assert!(
                    rec.bundle.intersects(wanted),
                    "candidate traded bundle {} with no wanted feature",
                    rec.bundle
                );
            }
        }
    }

    #[test]
    fn demands_with_no_eligible_seller_are_rejected() {
        let exchange = Exchange::new(ExchangeConfig::default());
        // No sellers at all.
        assert!(exchange.submit_demand(demand(1, 1)).is_err());
        exchange
            .register_seller(scaled_seller("a", 1.0, Some(5)))
            .unwrap();
        // Catalog overlap but the scenario fingerprint differs.
        let mut d = demand(1, 1);
        d.scenario = Some(6);
        assert!(exchange.submit_demand(d).is_err());
        // No catalog overlap (the seller lists features 0..4).
        let mut d = demand(1, 1);
        d.wanted = vfl_sim::BundleMask::singleton(17);
        assert!(exchange.submit_demand(d).is_err());
        // Degenerate knobs.
        let mut d = demand(1, 0);
        d.probe_rounds = 0;
        assert!(exchange.submit_demand(d).is_err());
        let mut d = demand(1, 1);
        d.wanted = vfl_sim::BundleMask::EMPTY;
        assert!(exchange.submit_demand(d).is_err());
        // Nothing leaked into the stores.
        assert_eq!(exchange.session_count(), 0);
        assert_eq!(exchange.demand_count(), 0);
        assert_eq!(exchange.metrics().sessions_opened, 0);
    }

    #[test]
    fn matching_is_deterministic_across_worker_counts() {
        let run = |workers: usize| {
            let exchange = Exchange::new(ExchangeConfig::default());
            exchange
                .register_seller(scaled_seller("a", 0.4, None))
                .unwrap();
            exchange
                .register_seller(scaled_seller("b", 1.0, None))
                .unwrap();
            exchange
                .register_seller(scaled_seller("c", 0.7, None))
                .unwrap();
            let dids: Vec<DemandId> = (0..12)
                .map(|seed| exchange.submit_demand(demand(seed, 2)).unwrap())
                .collect();
            exchange.drain(workers);
            dids.iter()
                .map(|&did| {
                    let report = exchange.take_demand(did).unwrap();
                    let winner = report.winning_quote().map(|q| q.seller);
                    let outcomes: Vec<Outcome> = report
                        .quotes
                        .iter()
                        .map(|q| *exchange.take(q.session).unwrap().unwrap())
                        .collect();
                    (winner, outcomes)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    /// A provider that sleeps on every training, wide enough for another
    /// session to hit the outstanding claim and park on the course
    /// waitlist.
    #[derive(Clone)]
    struct SlowProvider {
        inner: TableGainProvider,
        delay: std::time::Duration,
    }

    impl vfl_market::GainProvider for SlowProvider {
        fn gain(&self, bundle: BundleMask) -> vfl_market::Result<f64> {
            std::thread::sleep(self.delay);
            self.inner.gain(bundle)
        }
    }

    #[test]
    fn busy_sessions_park_on_the_waitlist_and_are_woken_on_insert() {
        let (provider, listings, gains) = table_market();
        let exchange = Exchange::new(ExchangeConfig::default());
        let market = exchange
            .register_market(MarketSpec {
                provider: Arc::new(SlowProvider {
                    inner: provider,
                    delay: std::time::Duration::from_millis(100),
                }),
                listings,
                evaluation_key: Some(7),
                name: "slow".into(),
            })
            .unwrap();
        // Identical seeds: every session wants the same cold course first,
        // so all but the trainer must wait out the 100 ms training.
        let ids: Vec<SessionId> = (0..6)
            .map(|_| exchange.submit(market, order(&gains, 11)).unwrap())
            .collect();
        let report = exchange.drain(3);
        assert_eq!(report.closed, 6);
        assert_eq!(report.failed, 0);
        let snap = exchange.metrics();
        assert!(
            snap.course_waits >= 1,
            "with identical sessions on one cold course, someone must have waited \
             (waits {})",
            snap.course_waits
        );
        // Identical sessions: every course is trained exactly once.
        assert!(snap.cache_misses <= 4, "misses {}", snap.cache_misses);
        for id in ids {
            assert!(matches!(exchange.poll(id), Some(SessionStatus::Done(_))));
        }
    }

    #[test]
    fn waitlist_waking_survives_provider_errors() {
        // A provider with a hole: the first course trains fine (slowly),
        // but a later bundle errors. Waiters parked on the erroring key
        // must be woken (to fail on their own) instead of hanging the
        // drain forever — this test not deadlocking IS the assertion.
        let (_, listings, gains) = table_market();
        let holey = TableGainProvider::new([(BundleMask::singleton(0), 0.05)]);
        let exchange = Exchange::new(ExchangeConfig::default());
        let market = exchange
            .register_market(MarketSpec {
                provider: Arc::new(SlowProvider {
                    inner: holey,
                    delay: std::time::Duration::from_millis(50),
                }),
                listings,
                evaluation_key: Some(8),
                name: "holey-slow".into(),
            })
            .unwrap();
        for _ in 0..4 {
            exchange.submit(market, order(&gains, 2)).unwrap();
        }
        let report = exchange.drain(3);
        assert_eq!(report.closed + report.failed, 4, "no session may hang");
        assert!(report.failed >= 1, "the provider hole must surface");
    }

    /// A provider that counts trainings (each call is one paid course).
    #[derive(Clone)]
    struct CountingProvider {
        inner: TableGainProvider,
        trained: Arc<std::sync::atomic::AtomicU64>,
    }

    impl vfl_market::GainProvider for CountingProvider {
        fn gain(&self, bundle: BundleMask) -> vfl_market::Result<f64> {
            self.trained
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.gain(bundle)
        }
    }

    /// One journaled world: a plain market with two sessions plus a
    /// two-seller demand, all behind counting providers. Returns the
    /// pieces a recovery needs.
    struct JournaledWorld {
        exchange: Exchange,
        sink: MemorySink,
        sids: Vec<SessionId>,
        did: DemandId,
        trained: Arc<std::sync::atomic::AtomicU64>,
    }

    fn journaled_world() -> JournaledWorld {
        let trained = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (journal, sink) = Journal::in_memory();
        let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
        let (market, sids, did) = populate_world(&exchange, &trained);
        let _ = market;
        JournaledWorld {
            exchange,
            sink,
            sids,
            did,
            trained,
        }
    }

    /// Registers the fixed world on `exchange` (identical each call — the
    /// recovery spec re-creates it) and submits its sessions/demand.
    fn populate_world(
        exchange: &Exchange,
        trained: &Arc<std::sync::atomic::AtomicU64>,
    ) -> (MarketId, Vec<SessionId>, DemandId) {
        let (provider, listings, gains) = table_market();
        let market = exchange
            .register_market(MarketSpec {
                provider: Arc::new(CountingProvider {
                    inner: provider,
                    trained: trained.clone(),
                }),
                listings,
                evaluation_key: Some(42),
                name: "plain".into(),
            })
            .unwrap();
        let seller = |name: &str, scale: f64| {
            let (_, listings, gains) = table_market();
            let gains: Vec<f64> = gains.iter().map(|g| g * scale).collect();
            let inner =
                TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
            let by_bundle: std::collections::HashMap<u64, f64> = listings
                .iter()
                .zip(&gains)
                .map(|(l, &g)| (l.bundle.0, g))
                .collect();
            exchange
                .register_seller(SellerSpec {
                    market: MarketSpec {
                        provider: Arc::new(CountingProvider {
                            inner,
                            trained: trained.clone(),
                        }),
                        listings,
                        evaluation_key: None,
                        name: name.into(),
                    },
                    quoting: Arc::new(move |table: &[vfl_market::Listing]| {
                        Box::new(StrategicData::with_gains(
                            table.iter().map(|l| by_bundle[&l.bundle.0]).collect(),
                        )) as Box<dyn vfl_market::DataStrategy + Send>
                    }),
                })
                .unwrap()
        };
        seller("alpha", 0.4);
        seller("beta", 1.0);
        let sids: Vec<SessionId> = (0..2)
            .map(|seed| exchange.submit(market, order(&gains, seed)).unwrap())
            .collect();
        let did = exchange.submit_demand(demand(9, 2)).unwrap();
        (market, sids, did)
    }

    /// The recovery spec matching [`populate_world`]'s registrations.
    fn world_spec(trained: &Arc<std::sync::atomic::AtomicU64>) -> ReplaySpec {
        let (provider, listings, _) = table_market();
        let market_spec = MarketSpec {
            provider: Arc::new(CountingProvider {
                inner: provider,
                trained: trained.clone(),
            }),
            listings,
            evaluation_key: Some(42),
            name: "plain".into(),
        };
        let seller_spec = |name: &str, scale: f64| {
            let (_, listings, gains) = table_market();
            let gains: Vec<f64> = gains.iter().map(|g| g * scale).collect();
            let inner =
                TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
            let by_bundle: std::collections::HashMap<u64, f64> = listings
                .iter()
                .zip(&gains)
                .map(|(l, &g)| (l.bundle.0, g))
                .collect();
            SellerSpec {
                market: MarketSpec {
                    provider: Arc::new(CountingProvider {
                        inner,
                        trained: trained.clone(),
                    }),
                    listings,
                    evaluation_key: None,
                    name: name.into(),
                },
                quoting: Arc::new(move |table: &[vfl_market::Listing]| {
                    Box::new(StrategicData::with_gains(
                        table.iter().map(|l| by_bundle[&l.bundle.0]).collect(),
                    )) as Box<dyn vfl_market::DataStrategy + Send>
                }),
            }
        };
        ReplaySpec {
            markets: vec![market_spec],
            sellers: vec![seller_spec("alpha", 0.4), seller_spec("beta", 1.0)],
            orders: Box::new(move |sid| order(&table_market().2, sid.0)),
            demands: Box::new(|_| demand(9, 2)),
            clearing: None,
        }
    }

    #[test]
    fn recovery_from_a_full_journal_is_bit_identical_and_trains_nothing() {
        let world = journaled_world();
        world.exchange.drain(2);
        let reference: Vec<Outcome> = world
            .sids
            .iter()
            .map(|&sid| (*world.exchange.take(sid).unwrap().unwrap()).clone())
            .collect();
        let ref_report = world.exchange.take_demand(world.did).unwrap();
        let trained_before = world.trained.load(std::sync::atomic::Ordering::SeqCst);
        assert!(trained_before > 0, "the reference run trains courses");

        let retrained = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (recovered, report) = Exchange::recover(
            ExchangeConfig::default(),
            &world.sink.bytes(),
            world_spec(&retrained),
            None,
        )
        .expect("full journal recovers");
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(report.markets, 1);
        assert_eq!(report.sellers, 2);
        assert_eq!(report.sessions, 2);
        assert_eq!(report.demands, 1);
        assert_eq!(report.courses_preloaded as u64, trained_before);
        assert_eq!(
            recovered.metrics().courses_preloaded,
            trained_before,
            "every paid course is preloaded"
        );

        recovered.drain(2);
        assert_eq!(
            retrained.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "a full journal leaves nothing to re-train"
        );
        // The recorded-conclusion/settlement audit (a real recovery's
        // divergence detector) passes: every journaled conclusion is
        // re-reached and the demand re-settles to the recorded winner.
        let audited = recovered.audit_replay(&report).unwrap();
        assert_eq!(audited, report.conclusions.len() + report.settlements.len());
        assert!(audited >= 3, "conclusions + the settlement were audited");
        for (&sid, reference) in world.sids.iter().zip(&reference) {
            let outcome = recovered.take(sid).unwrap().unwrap();
            assert_eq!(*outcome, *reference, "plain session {sid}");
        }
        let replayed = recovered.take_demand(world.did).unwrap();
        assert_eq!(replayed.winner, ref_report.winner);
        for (a, b) in replayed.quotes.iter().zip(&ref_report.quotes) {
            assert_eq!(a.seller, b.seller);
            assert_eq!(a.state, b.state);
            assert_eq!(a.history, b.history);
            let ra = recovered.take(a.session).unwrap().unwrap();
            let rb = world.exchange.take(b.session).unwrap().unwrap();
            assert_eq!(ra, rb, "candidate {}", a.seller_name);
        }
    }

    #[test]
    fn recovery_rejects_a_drifted_spec() {
        let world = journaled_world();
        world.exchange.drain(1);
        let bytes = world.sink.bytes();
        let fresh = Arc::new(std::sync::atomic::AtomicU64::new(0));

        // Wrong market name.
        let mut spec = world_spec(&fresh);
        spec.markets[0].name = "renamed".into();
        assert!(matches!(
            Exchange::recover(ExchangeConfig::default(), &bytes, spec, None),
            Err(RecoverError::SpecMismatch(_))
        ));
        // Wrong evaluation key.
        let mut spec = world_spec(&fresh);
        spec.markets[0].evaluation_key = Some(43);
        assert!(matches!(
            Exchange::recover(ExchangeConfig::default(), &bytes, spec, None),
            Err(RecoverError::SpecMismatch(_))
        ));
        // Same catalog and listing count, but an edited reserved price:
        // the full-table digest catches what the coarse fingerprints
        // cannot (recovering it would silently re-negotiate different
        // reserves).
        let mut spec = world_spec(&fresh);
        let mut listings = (*spec.markets[0].listings).clone();
        listings[0].reserved = ReservedPrice::new(99.0, 9.9).unwrap();
        spec.markets[0].listings = Arc::new(listings);
        assert!(matches!(
            Exchange::recover(ExchangeConfig::default(), &bytes, spec, None),
            Err(RecoverError::SpecMismatch(_))
        ));
        // Missing seller.
        let mut spec = world_spec(&fresh);
        spec.sellers.pop();
        assert!(matches!(
            Exchange::recover(ExchangeConfig::default(), &bytes, spec, None),
            Err(RecoverError::SpecMismatch(_))
        ));
        // Wrong session config (digest mismatch).
        let mut spec = world_spec(&fresh);
        spec.orders = Box::new(|sid| order(&table_market().2, sid.0 + 100));
        assert!(matches!(
            Exchange::recover(ExchangeConfig::default(), &bytes, spec, None),
            Err(RecoverError::SpecMismatch(_))
        ));
        // Wrong demand shape.
        let mut spec = world_spec(&fresh);
        spec.demands = Box::new(|_| demand(9, 3));
        assert!(matches!(
            Exchange::recover(ExchangeConfig::default(), &bytes, spec, None),
            Err(RecoverError::SpecMismatch(_))
        ));
        // The pristine spec still recovers.
        assert!(
            Exchange::recover(ExchangeConfig::default(), &bytes, world_spec(&fresh), None).is_ok()
        );
    }

    #[test]
    fn crash_hook_seals_the_journal_inside_the_course_critical_section() {
        let world = journaled_world();
        // Observe the FIRST trained course, before its CourseServed record
        // lands — the lost-receipt window.
        let armed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let sink = world.sink.clone();
        let records_at_seal = Arc::new(std::sync::atomic::AtomicU64::new(0));
        {
            let armed = armed.clone();
            let sink = sink.clone();
            let records_at_seal = records_at_seal.clone();
            world
                .exchange
                .set_crash_hook(Some(Arc::new(move |point: &CrashPoint| {
                    if matches!(point, CrashPoint::CourseTrained { .. })
                        && armed.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0
                    {
                        records_at_seal
                            .store(sink.len() as u64, std::sync::atomic::Ordering::SeqCst);
                    }
                })));
        }
        world.exchange.drain(1);
        assert!(
            armed.load(std::sync::atomic::Ordering::SeqCst) >= 1,
            "the hook must fire inside the course critical section"
        );
        // The hook observed the sink length BEFORE the CourseServed record
        // was appended: the journal grew afterwards.
        assert!(
            (records_at_seal.load(std::sync::atomic::Ordering::SeqCst) as usize) < sink.len(),
            "CourseTrained fires before the course record lands"
        );
        world.exchange.set_crash_hook(None);
    }

    #[test]
    fn epoch_demands_clear_through_the_window_end_to_end() {
        let exchange = Exchange::new(ExchangeConfig::default());
        let weak = exchange
            .register_seller(scaled_seller("weak", 0.1, None))
            .unwrap();
        let strong = exchange
            .register_seller(scaled_seller("strong", 1.0, None))
            .unwrap();
        exchange
            .open_clearing(ClearingSpec {
                epoch_size: 2,
                capacity: 1,
                max_rolls: u32::MAX,
                policy: Arc::new(UniformPriceClearing::default()),
            })
            .unwrap();
        let mut d0 = demand(7, 1);
        d0.settle = SettleMode::Epoch;
        let mut d1 = demand(8, 1);
        d1.settle = SettleMode::Epoch;
        let dids = [
            exchange.submit_demand(d0).unwrap(),
            exchange.submit_demand(d1).unwrap(),
        ];
        let report = exchange.drain(2);
        assert_eq!(report.failed, 0);

        // Both demands settled through the window; with one seat per
        // seller per epoch, the two demands share the pool instead of
        // both claiming the strong seller.
        let snap = exchange.metrics();
        assert_eq!(snap.demands_settled, 2);
        let history = exchange.epoch_history();
        assert!(!history.is_empty(), "at least one epoch cleared");
        assert_eq!(snap.epochs_cleared as usize, history.len());
        let mut winners = Vec::new();
        for did in dids {
            let settled = exchange.take_demand(did).expect("settled in the drain");
            let epoch = settled.epoch.expect("epoch-mode reports carry their epoch");
            assert!(history.iter().any(|r| r.epoch == epoch));
            if let Some(q) = settled.winning_quote() {
                assert!(
                    settled.clearing_price.is_some(),
                    "matched epoch demands carry their market's uniform price"
                );
                winners.push(q.seller);
                // The winner ran to a real conclusion after its release.
                let outcome = exchange.take(settled.winning_session().unwrap()).unwrap();
                assert!(outcome.is_ok());
            }
        }
        assert!(winners.contains(&strong), "the strong landscape clears");
        if winners.len() == 2 {
            assert!(
                winners.contains(&weak),
                "capacity 1: the second demand crossed to the other seller"
            );
        }
        // Epoch dispositions cover exactly the two demands.
        let entries: usize = history.iter().map(|r| r.entries.len()).sum();
        assert!(entries >= 2);
    }

    #[test]
    fn epoch_demands_require_an_open_window_and_it_opens_once() {
        let exchange = Exchange::new(ExchangeConfig::default());
        exchange
            .register_seller(scaled_seller("solo", 1.0, None))
            .unwrap();
        let mut d = demand(3, 1);
        d.settle = SettleMode::Epoch;
        assert!(
            exchange.submit_demand(d).is_err(),
            "epoch demands need open_clearing first"
        );
        exchange.open_clearing(ClearingSpec::uniform()).unwrap();
        assert!(
            exchange.open_clearing(ClearingSpec::uniform()).is_err(),
            "one window per exchange"
        );
        let mut d = demand(3, 1);
        d.settle = SettleMode::Epoch;
        let did = exchange.submit_demand(d).unwrap();
        exchange.drain(1);
        let settled = exchange.take_demand(did).expect("flush settles it");
        assert_eq!(settled.epoch, Some(0));
    }

    #[test]
    fn clearing_is_deterministic_across_worker_counts() {
        let run = |workers: usize| {
            let exchange = Exchange::new(ExchangeConfig::default());
            exchange
                .register_seller(scaled_seller("a", 0.4, None))
                .unwrap();
            exchange
                .register_seller(scaled_seller("b", 1.0, None))
                .unwrap();
            exchange
                .open_clearing(ClearingSpec {
                    epoch_size: 3,
                    capacity: 1,
                    max_rolls: u32::MAX,
                    policy: Arc::new(UniformPriceClearing::default()),
                })
                .unwrap();
            let dids: Vec<DemandId> = (0..9)
                .map(|seed| {
                    let mut d = demand(seed, 2);
                    d.settle = SettleMode::Epoch;
                    exchange.submit_demand(d).unwrap()
                })
                .collect();
            exchange.drain(workers);
            let reports: Vec<(Option<usize>, Option<u64>, Option<f64>)> = dids
                .iter()
                .map(|&did| {
                    let r = exchange.take_demand(did).unwrap();
                    (r.winner, r.epoch, r.clearing_price)
                })
                .collect();
            (reports, exchange.epoch_history())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn deterministic_across_worker_counts() {
        // Concurrency must never change a negotiation's result: outcomes
        // depend only on (cfg, strategies, provider), not on scheduling.
        let run = |workers: usize| -> Vec<Outcome> {
            let (exchange, market, _, gains) = exchange_with_market();
            let ids: Vec<SessionId> = (0..24)
                .map(|seed| exchange.submit(market, order(&gains, seed)).unwrap())
                .collect();
            exchange.drain(workers);
            ids.iter()
                .map(|&id| *exchange.take(id).unwrap().unwrap())
                .collect()
        };
        assert_eq!(run(1), run(4));
    }
}
