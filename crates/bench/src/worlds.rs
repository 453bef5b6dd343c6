//! The replay-equivalence world generator: `REPLAY_WORLDS` deterministic
//! marketplace worlds (heterogeneous sellers, plain sessions, immediate
//! and epoch-mode demands, a clearing window) that are pure functions of
//! the world index, so a recovery spec — or a second drain of the same
//! world — can rebuild byte-identical strategies from the same index.
//!
//! Hoisted out of `tests/replay_equivalence.rs` so the replay, executor
//! (`backend_equivalence`), and telemetry tiers share one apparatus
//! instead of drifting: `build_world` constructs a journaled world,
//! [`snapshot`]/[`snapshot_with`] drain it and capture the reference
//! (outcomes, demand reports, epoch ledger, trained-course set), and
//! [`check_equivalence`] proves a journal prefix recovers bit-identically
//! to that reference with zero re-trained courses.

use crate::exchange_setup::{CountingGainProvider, TrainingRecorder};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use vfl_exchange::{
    read_events, BestResponse, Demand, DemandId, DemandReport, Exchange, ExchangeConfig,
    ExchangeEvent, Journal, MarketSpec, MemorySink, ReplaySpec, SellerSpec, SessionId,
    SessionOrder, SettleMode,
};
use vfl_market::{
    DataStrategy, Listing, MarketConfig, Outcome, RandomBundleData, ReservedPrice, StrategicData,
    StrategicTask, TableGainProvider,
};
use vfl_sim::BundleMask;

/// Feature-space width shared by every world.
pub const FEATURES: usize = 6;
/// Plain (non-matching) sessions per world.
pub const N_PLAIN: usize = 2;
/// Immediate-mode demands per world.
pub const N_DEMANDS: usize = 2;
/// Epoch-mode (clearing-window) demands per world.
pub const N_EPOCH_DEMANDS: usize = 2;

/// Evaluation key of the world's plain market.
pub fn plain_eval_key(world: usize) -> u64 {
    9_000 + (world as u64) * 64
}

/// Evaluation key of one of the world's sellers.
pub fn seller_eval_key(world: usize, seller: usize) -> u64 {
    9_001 + (world as u64) * 64 + seller as u64
}

/// Sellers registered in this world.
pub fn n_sellers(world: usize) -> usize {
    2 + world % 2
}

/// The plain market's listing table and oracle gains.
pub fn plain_listings_gains(world: usize) -> (Vec<Listing>, Vec<f64>) {
    let listings = (0..4)
        .map(|i| Listing {
            bundle: BundleMask::singleton(i),
            reserved: ReservedPrice::new(5.0 + i as f64 * 2.0, 0.8 + i as f64 * 0.2)
                .expect("valid reserve"),
        })
        .collect();
    let gains = (0..4)
        .map(|i| 0.05 + 0.08 * i as f64 + 0.01 * (world % 5) as f64)
        .collect();
    (listings, gains)
}

/// The feature set a seller lists (sorted, deduped).
pub fn seller_features(world: usize, seller: usize) -> Vec<usize> {
    let width = 3 + (world + seller) % 2;
    let mut features: Vec<usize> = (0..width)
        .map(|i| (seller * 2 + i + world) % FEATURES)
        .collect();
    features.sort_unstable();
    features.dedup();
    features
}

/// One seller's listing table and oracle gains.
pub fn seller_listings_gains(world: usize, seller: usize) -> (Vec<Listing>, Vec<f64>) {
    let features = seller_features(world, seller);
    let listings = features
        .iter()
        .enumerate()
        .map(|(i, &f)| Listing {
            bundle: BundleMask::singleton(f),
            reserved: ReservedPrice::new(3.0 + i as f64 * 1.5, 0.5 + i as f64 * 0.15)
                .expect("valid reserve"),
        })
        .collect();
    let gains = features
        .iter()
        .enumerate()
        .map(|(i, _)| 0.04 + 0.30 * ((world * 7 + seller * 11 + i * 5) % 13) as f64 / 12.0)
        .collect();
    (listings, gains)
}

/// The world's plain market, its provider wrapped in a
/// [`CountingGainProvider`] recording into `recorder`.
pub fn plain_market_spec(world: usize, recorder: &TrainingRecorder) -> MarketSpec {
    let (listings, gains) = plain_listings_gains(world);
    let inner = TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
    MarketSpec {
        provider: Arc::new(CountingGainProvider::new(
            inner,
            plain_eval_key(world),
            recorder,
        )),
        listings: Arc::new(listings),
        evaluation_key: Some(plain_eval_key(world)),
        name: format!("plain-{world}"),
    }
}

/// One of the world's sellers (every third (world, seller) pair quotes
/// randomly — seeded — instead of strategically, for strategy-mix
/// coverage).
pub fn seller_spec(world: usize, seller: usize, recorder: &TrainingRecorder) -> SellerSpec {
    let (listings, gains) = seller_listings_gains(world, seller);
    let inner = TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
    let by_bundle: HashMap<u64, f64> = listings
        .iter()
        .zip(&gains)
        .map(|(l, &g)| (l.bundle.0, g))
        .collect();
    let random_quoting = (world + seller) % 3 == 2;
    SellerSpec {
        market: MarketSpec {
            provider: Arc::new(CountingGainProvider::new(
                inner,
                seller_eval_key(world, seller),
                recorder,
            )),
            listings: Arc::new(listings),
            evaluation_key: Some(seller_eval_key(world, seller)),
            name: format!("seller-{world}-{seller}"),
        },
        quoting: Arc::new(move |table: &[Listing]| {
            let gains: Vec<f64> = table.iter().map(|l| by_bundle[&l.bundle.0]).collect();
            if random_quoting {
                Box::new(RandomBundleData::with_gains(gains)) as Box<dyn DataStrategy + Send>
            } else {
                Box::new(StrategicData::with_gains(gains)) as Box<dyn DataStrategy + Send>
            }
        }),
    }
}

/// Config of the `k`-th plain session.
pub fn plain_cfg(world: usize, k: usize) -> MarketConfig {
    MarketConfig {
        utility_rate: 700.0 + 150.0 * ((world + k) % 4) as f64,
        budget: 10.0 + (world % 3) as f64,
        rate_cap: 20.0,
        seed: (world * 31 + k) as u64,
        ..MarketConfig::default()
    }
}

/// The `k`-th plain session's order (rebuilt byte-identically by the
/// recovery spec).
pub fn plain_order(world: usize, k: usize) -> SessionOrder {
    let (_, gains) = plain_listings_gains(world);
    SessionOrder {
        cfg: plain_cfg(world, k),
        task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening")),
        data: Box::new(StrategicData::with_gains(gains)),
    }
}

/// The `d`-th demand; the last [`N_EPOCH_DEMANDS`] settle through the
/// clearing window, the rest immediately.
pub fn demand_for(world: usize, d: usize) -> Demand {
    let wanted = BundleMask::from_features(&[
        (world + d) % FEATURES,
        (world + d + 2) % FEATURES,
        (world + d + 4) % FEATURES,
    ]);
    Demand {
        wanted,
        scenario: None,
        cfg: MarketConfig {
            utility_rate: 600.0 + 100.0 * ((world + d) % 5) as f64,
            budget: 9.0 + (d % 4) as f64,
            rate_cap: 18.0,
            seed: (world * 97 + d * 13) as u64,
            ..MarketConfig::default()
        },
        task: Arc::new(|| Box::new(StrategicTask::new(0.28, 6.0, 0.9).expect("valid opening"))),
        probe_rounds: 1 + ((world + d) % 3) as u32,
        // The last N_EPOCH_DEMANDS of every world settle through the
        // clearing window; the journal tags their submissions, and the
        // spec's factory must agree.
        settle: if d >= N_DEMANDS {
            SettleMode::Epoch
        } else {
            SettleMode::Immediate(Arc::new(BestResponse))
        },
    }
}

/// The world's clearing window (identical in [`build_world`] and the
/// recovery spec; epoch size varies with the world for trigger-path
/// coverage — full count-trigger epochs and partial flush epochs both
/// appear across the sweep).
pub fn clearing_for(world: usize) -> vfl_exchange::ClearingSpec {
    vfl_exchange::ClearingSpec {
        epoch_size: 1 + world % 3,
        capacity: 1,
        max_rolls: u32::MAX,
        policy: Arc::new(vfl_exchange::UniformPriceClearing::default()),
    }
}

/// One built (undrained) world: the journaled exchange plus the maps that
/// key its sessions and demands back to world-generator indices.
pub struct World {
    /// The journaled exchange, submissions in place, not yet drained.
    pub exchange: Exchange,
    /// The journal's in-memory sink (`sink.bytes()` is the journal).
    pub sink: MemorySink,
    /// The journal handle (crash tests seal it mid-drain).
    pub journal: Arc<Journal>,
    /// Records every `(eval_key, bundle)` the providers actually trained.
    pub recorder: TrainingRecorder,
    /// Plain session id → generator index `k`.
    pub plain_map: HashMap<SessionId, usize>,
    /// Demand id → generator index `d`.
    pub demand_map: HashMap<DemandId, usize>,
}

/// Builds world `world`: journaled exchange, plain market + sellers
/// registered, clearing window open, [`N_PLAIN`] sessions and
/// [`N_DEMANDS`] + [`N_EPOCH_DEMANDS`] demands submitted.
pub fn build_world(world: usize) -> World {
    let recorder = TrainingRecorder::default();
    let (journal, sink) = Journal::in_memory();
    let exchange = Exchange::with_journal(ExchangeConfig::default(), journal.clone());
    let market = exchange
        .register_market(plain_market_spec(world, &recorder))
        .expect("register plain market");
    for s in 0..n_sellers(world) {
        exchange
            .register_seller(seller_spec(world, s, &recorder))
            .expect("register seller");
    }
    exchange
        .open_clearing(clearing_for(world))
        .expect("open the clearing window");
    let mut plain_map = HashMap::new();
    for k in 0..N_PLAIN {
        let sid = exchange
            .submit(market, plain_order(world, k))
            .expect("submit plain session");
        plain_map.insert(sid, k);
    }
    let mut demand_map = HashMap::new();
    for d in 0..N_DEMANDS + N_EPOCH_DEMANDS {
        let did = exchange
            .submit_demand(demand_for(world, d))
            .expect("submit demand");
        demand_map.insert(did, d);
    }
    World {
        exchange,
        sink,
        journal,
        recorder,
        plain_map,
        demand_map,
    }
}

/// The recovery spec for world `world` (same pure generators as
/// [`build_world`]).
pub fn spec_for(
    world: usize,
    recorder: &TrainingRecorder,
    plain_map: &HashMap<SessionId, usize>,
    demand_map: &HashMap<DemandId, usize>,
) -> ReplaySpec {
    let plain_map = plain_map.clone();
    let demand_map = demand_map.clone();
    ReplaySpec {
        markets: vec![plain_market_spec(world, recorder)],
        sellers: (0..n_sellers(world))
            .map(|s| seller_spec(world, s, recorder))
            .collect(),
        orders: Box::new(move |sid| {
            let k = *plain_map
                .get(&sid)
                .unwrap_or_else(|| panic!("journal records unknown plain session {sid}"));
            plain_order(world, k)
        }),
        demands: Box::new(move |did| {
            let d = *demand_map
                .get(&did)
                .unwrap_or_else(|| panic!("journal records unknown demand {did}"));
            demand_for(world, d)
        }),
        clearing: Some(clearing_for(world)),
    }
}

/// Everything the uncrashed run produced, keyed for later comparison.
pub struct Reference {
    /// Terminal outcome (or error string) per session.
    pub outcomes: HashMap<SessionId, Result<Outcome, String>>,
    /// Settled report per demand.
    pub reports: HashMap<DemandId, DemandReport>,
    /// The cleared-epoch history, in epoch order.
    pub epochs: Vec<vfl_exchange::EpochRecord>,
    /// Every `(eval_key, bundle)` the run actually trained.
    pub trained: HashSet<(u64, u64)>,
}

/// [`snapshot_with`] under a default two-course-task drain.
pub fn snapshot(world: &World) -> Reference {
    snapshot_with(world, |exchange| {
        exchange.drain(2);
    })
}

/// Drains `world.exchange` through `drain` (any resolver/task count)
/// and snapshots every outcome, report, and the cleared-epoch history.
pub fn snapshot_with(world: &World, drain: impl FnOnce(&Exchange)) -> Reference {
    drain(&world.exchange);
    let mut reports = HashMap::new();
    let mut sids: Vec<SessionId> = world.plain_map.keys().copied().collect();
    for &did in world.demand_map.keys() {
        let report = world
            .exchange
            .take_demand(did)
            .expect("every demand settles in the drain");
        sids.extend(report.quotes.iter().map(|q| q.session));
        reports.insert(did, report);
    }
    let mut outcomes = HashMap::new();
    for sid in sids {
        let result = world
            .exchange
            .take(sid)
            .expect("every session is terminal after the drain")
            .map(|b| *b)
            .map_err(|e| e.to_string());
        outcomes.insert(sid, result);
    }
    Reference {
        outcomes,
        reports,
        epochs: world.exchange.epoch_history(),
        trained: world.recorder.set(),
    }
}

/// Recovers `prefix`, resumes it, and asserts full equivalence with the
/// reference for every entity the prefix records — plus the zero-retrain
/// guarantee. Returns the number of courses the resumed run trained.
pub fn check_equivalence(
    world: usize,
    reference: &Reference,
    prefix: &[u8],
    plain_map: &HashMap<SessionId, usize>,
    demand_map: &HashMap<DemandId, usize>,
    ctx: &str,
) -> usize {
    let (events, _) = read_events(prefix);
    let mut recorded_sessions: Vec<SessionId> = Vec::new();
    let mut recorded_demands: Vec<DemandId> = Vec::new();
    let mut epoch_sessions: HashSet<SessionId> = HashSet::new();
    let mut epoch_demands: Vec<DemandId> = Vec::new();
    let mut prefix_courses: HashSet<(u64, u64)> = HashSet::new();
    for event in &events {
        match event {
            ExchangeEvent::SessionSubmitted { session, .. } => recorded_sessions.push(*session),
            ExchangeEvent::DemandSubmitted {
                demand,
                epoch_mode,
                candidates,
                ..
            } => {
                recorded_demands.push(*demand);
                recorded_sessions.extend(candidates.iter().map(|&(_, sid)| sid));
                if *epoch_mode {
                    epoch_demands.push(*demand);
                    epoch_sessions.extend(candidates.iter().map(|&(_, sid)| sid));
                }
            }
            ExchangeEvent::CourseServed {
                eval_key, bundle, ..
            } => {
                prefix_courses.insert((*eval_key, bundle.0));
            }
            _ => {}
        }
    }
    // Epoch membership is a function of the recorded submission set: a
    // prefix that lost the TAIL of epoch-demand submissions legitimately
    // re-batches the survivors (the lost demands were never durably
    // accepted, so the recovered world simply does not contain them).
    // Full bit-equivalence for epoch demands therefore applies exactly
    // when every epoch submission is in the prefix; with a partial set,
    // the probe phase is still bit-identical (quote tables compare
    // below) but the assignment — and the winners' continuations — may
    // differ from a reference run that batched more demands. All of the
    // journal's own audits still apply unconditionally: a prefix cut
    // mid-submission contains no epoch records to contradict.
    let total_epoch_demands = demand_map.values().filter(|&&d| d >= N_DEMANDS).count();
    let epochs_complete = epoch_demands.len() == total_epoch_demands;

    let recorder = TrainingRecorder::default();
    let spec = spec_for(world, &recorder, plain_map, demand_map);
    let (recovered, report) = Exchange::recover(ExchangeConfig::default(), prefix, spec, None)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    assert_eq!(report.courses_preloaded, prefix_courses.len(), "{ctx}");
    recovered.drain(2);

    // The journal's own divergence audit must pass: every conclusion the
    // prefix recorded is re-reached with the exact digest and every
    // recorded settlement re-settles to the recorded winner (this is the
    // check a REAL recovery relies on, having no reference run).
    let audited = recovered
        .audit_replay(&report)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(
        audited,
        report.conclusions.len() + report.settlements.len() + report.epochs.len(),
        "{ctx}"
    );

    // Zero re-training: the resumed run trains exactly the complement of
    // the prefix's acknowledged courses — never a course the journal
    // already paid for.
    let retrained = recorder.set();
    assert!(
        retrained.is_disjoint(&prefix_courses),
        "{ctx}: re-trained a journaled course: {:?}",
        retrained.intersection(&prefix_courses).collect::<Vec<_>>()
    );
    if epochs_complete {
        // With the full batch membership recorded, the resumed epochs
        // assign identically, so resumed winners continue exactly the
        // reference's negotiations — no training outside its set.
        assert!(
            retrained.is_subset(&reference.trained),
            "{ctx}: resume must never invent a training the reference run did not pay"
        );
    }
    // Once the prefix records every submission (always true for any cut
    // taken during or after the drain — courses are journaled after
    // submissions), the resumed run trains *exactly* the complement of
    // the journaled courses.
    if recorded_sessions.len() == reference.outcomes.len() {
        let expected: HashSet<(u64, u64)> = reference
            .trained
            .difference(&prefix_courses)
            .copied()
            .collect();
        assert_eq!(
            retrained, expected,
            "{ctx}: resumed trainings must be exactly the unjournaled courses"
        );
    }

    // Bit-identical outcomes and transcripts for every recovered session
    // (epoch-demand candidates only once their batch membership is whole
    // — see above; their probe phases are still compared via the quote
    // tables below).
    for sid in &recorded_sessions {
        let replayed = recovered
            .take(*sid)
            .unwrap_or_else(|| panic!("{ctx}: recovered session {sid} not terminal"))
            .map(|b| *b)
            .map_err(|e| e.to_string());
        if epochs_complete || !epoch_sessions.contains(sid) {
            assert_eq!(
                &replayed, &reference.outcomes[sid],
                "{ctx}: session {sid} diverged"
            );
        }
    }
    // The resumed run re-derives the FULL epoch sequence from scratch
    // (clearing state is never persisted — only re-cleared), so once the
    // membership is whole the recovered epoch history must equal the
    // reference's bit for bit: membership, dispositions, winners, and
    // uniform prices.
    if epochs_complete {
        assert_eq!(
            recovered.epoch_history(),
            reference.epochs,
            "{ctx}: epoch history diverged"
        );
    }
    // Identical settlement winners and quote tables (histories included —
    // the probe-spend audit must survive recovery too), plus the clearing
    // stamps on epoch-mode reports.
    for did in &recorded_demands {
        let replayed = recovered
            .take_demand(*did)
            .unwrap_or_else(|| panic!("{ctx}: recovered demand {did} not settled"));
        let reference = &reference.reports[did];
        if epochs_complete || !epoch_demands.contains(did) {
            assert_eq!(replayed.winner, reference.winner, "{ctx}: demand {did}");
            assert_eq!(replayed.epoch, reference.epoch, "{ctx}: demand {did}");
            assert_eq!(
                replayed.clearing_price, reference.clearing_price,
                "{ctx}: demand {did}"
            );
        }
        assert_eq!(replayed.quotes.len(), reference.quotes.len(), "{ctx}");
        for (a, b) in replayed.quotes.iter().zip(&reference.quotes) {
            assert_eq!(a.seller, b.seller, "{ctx}");
            assert_eq!(a.seller_name, b.seller_name, "{ctx}");
            assert_eq!(a.session, b.session, "{ctx}");
            assert_eq!(a.state, b.state, "{ctx}: demand {did} quote state");
            assert_eq!(a.history, b.history, "{ctx}: demand {did} probe history");
        }
        // Probe spend per slot is identical either way (asserted via the
        // histories above); the loser-side SUM depends on who won, so it
        // shares the winner assertions' epoch-membership gate.
        if epochs_complete || !epoch_demands.contains(did) {
            assert_eq!(
                replayed.loser_probe_spend(),
                reference.loser_probe_spend(),
                "{ctx}"
            );
        }
    }
    retrained.len()
}

/// World count for sweep tests (`REPLAY_WORLDS`, default 64).
pub fn n_worlds() -> usize {
    std::env::var("REPLAY_WORLDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}
