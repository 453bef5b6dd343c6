//! Checkpoint-equivalence tier: bounded-cost recovery must change *cost*,
//! never *results*.
//!
//! The checkpoint contract (see `vfl_exchange::journal`'s "Checkpoints and
//! compaction" section) adds three moving parts to the journal — the
//! quiescent-point `Checkpoint` frame, the recovery seek that restores it
//! wholesale and replays only the suffix, and `Journal::compact`'s
//! `[Checkpoint, suffix…]` generation rewrite. This suite pins all three:
//!
//! * **Phase-boundary equivalence** — `REPLAY_WORLDS` random marketplace
//!   worlds run in phases (submit → drain → checkpoint); recovery from the
//!   checkpointed journal, recovery from the same journal with every
//!   checkpoint frame stripped (from-genesis replay), and the
//!   uninterrupted run itself must agree bit for bit, and the
//!   checkpointed recovery must re-train **zero** courses (counting
//!   provider).
//! * **Suffix-only replay** — recovery restores every pre-checkpoint
//!   session without draining and skips exactly the pre-checkpoint events.
//! * **Compaction** — a compacted journal recovers identically, survives
//!   truncation at every remaining boundary, and chains: a second
//!   checkpoint taken in generation two compacts into generation three.
//! * **Crash points** — injected crashes inside the checkpoint append and
//!   the compaction rewrite (torn new generation) never lose a journaled
//!   event; a checkpoint frame torn by truncation falls back to the
//!   previous checkpoint or genesis.
//! * **Decoder fuzz + pinned bytes** — random single-byte mutations and
//!   truncations over a journal holding every tag but `DemandShed` always
//!   yield a clean prefix of the original events, never a misparse or
//!   panic; a checked-in byte fixture pins the v2 `DemandSubmitted` wire
//!   format against accidental drift.
//! * **Long strings** — a hard error message longer than any `u16` length
//!   survives `checkpoint` → `recover` verbatim.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use vfl_bench::exchange_setup::{CountingGainProvider, TrainingRecorder};
use vfl_exchange::{
    check_journal_version, read_events, BestResponse, CrashPoint, Demand, DemandId, DemandReport,
    Exchange, ExchangeConfig, ExchangeEvent, Journal, MarketId, MarketSpec, MemorySink,
    RecoverError, ReplaySpec, SellerSpec, SessionId, SessionOrder, SettleMode,
};
use vfl_market::{
    DataStrategy, GainProvider, Listing, MarketConfig, MarketError, Outcome, ReservedPrice,
    StrategicData, StrategicTask, TableGainProvider,
};
use vfl_sim::BundleMask;

const FEATURES: usize = 6;
const N_PHASES: usize = 3;
const PLAIN_PER_PHASE: usize = 1;
const DEMANDS_PER_PHASE: usize = 2; // one immediate, one epoch per phase

// ---------------------------------------------------------------------------
// World generation (pure functions of the world index, as in
// replay_equivalence.rs — the recovery spec rebuilds byte-identical
// strategies from the same index)
// ---------------------------------------------------------------------------

fn plain_eval_key(world: usize) -> u64 {
    70_000 + (world as u64) * 64
}

fn seller_eval_key(world: usize, seller: usize) -> u64 {
    70_001 + (world as u64) * 64 + seller as u64
}

fn n_sellers(world: usize) -> usize {
    2 + world % 2
}

fn plain_listings_gains(world: usize) -> (Vec<Listing>, Vec<f64>) {
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

fn seller_features(world: usize, seller: usize) -> Vec<usize> {
    let width = 3 + (world + seller) % 2;
    let mut features: Vec<usize> = (0..width)
        .map(|i| (seller * 2 + i + world) % FEATURES)
        .collect();
    features.sort_unstable();
    features.dedup();
    features
}

fn seller_listings_gains(world: usize, seller: usize) -> (Vec<Listing>, Vec<f64>) {
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

fn plain_market_spec(world: usize, recorder: &TrainingRecorder) -> MarketSpec {
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

fn seller_spec(world: usize, seller: usize, recorder: &TrainingRecorder) -> SellerSpec {
    let (listings, gains) = seller_listings_gains(world, seller);
    let inner = TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
    let by_bundle: HashMap<u64, f64> = listings
        .iter()
        .zip(&gains)
        .map(|(l, &g)| (l.bundle.0, g))
        .collect();
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
            Box::new(StrategicData::with_gains(gains)) as Box<dyn DataStrategy + Send>
        }),
    }
}

fn plain_order(world: usize, k: usize) -> SessionOrder {
    let (_, gains) = plain_listings_gains(world);
    SessionOrder {
        cfg: MarketConfig {
            utility_rate: 700.0 + 150.0 * ((world + k) % 4) as f64,
            budget: 10.0 + (world % 3) as f64,
            rate_cap: 20.0,
            seed: (world * 31 + k) as u64,
            ..MarketConfig::default()
        },
        task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening")),
        data: Box::new(StrategicData::with_gains(gains)),
    }
}

fn demand_for(world: usize, d: usize) -> Demand {
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
        // Odd demand indices settle through the clearing window. The tier
        // pins `epoch_size: 1`, so every epoch demand clears in its own
        // single-demand epoch — batch membership can never couple results
        // across a truncation cut (replay_equivalence.rs covers the
        // multi-demand batching interactions).
        settle: if d % 2 == 1 {
            SettleMode::Epoch
        } else {
            SettleMode::Immediate(Arc::new(BestResponse))
        },
    }
}

fn clearing_for() -> vfl_exchange::ClearingSpec {
    vfl_exchange::ClearingSpec {
        epoch_size: 1,
        capacity: 1,
        max_rolls: u32::MAX,
        policy: Arc::new(vfl_exchange::UniformPriceClearing::default()),
    }
}

// ---------------------------------------------------------------------------
// Phased worlds
// ---------------------------------------------------------------------------

/// Which phase boundaries take a checkpoint.
#[derive(Clone, Copy, PartialEq)]
enum Checkpoints {
    /// No checkpoints at all (the uninterrupted comparator).
    None,
    /// After every phase except the last (leaves a live suffix).
    Interior,
    /// After every phase including the last (quiescent end state).
    All,
}

struct World {
    exchange: Exchange,
    sink: MemorySink,
    journal: Arc<Journal>,
    recorder: TrainingRecorder,
    market: MarketId,
    plain_map: HashMap<SessionId, usize>,
    demand_map: HashMap<DemandId, usize>,
}

impl World {
    fn submit_phase(&mut self, world: usize, phase: usize) {
        for i in 0..PLAIN_PER_PHASE {
            let k = phase * PLAIN_PER_PHASE + i;
            let sid = self
                .exchange
                .submit(self.market, plain_order(world, k))
                .expect("submit plain session");
            self.plain_map.insert(sid, k);
        }
        for j in 0..DEMANDS_PER_PHASE {
            let d = phase * DEMANDS_PER_PHASE + j;
            let did = self
                .exchange
                .submit_demand(demand_for(world, d))
                .expect("submit demand");
            self.demand_map.insert(did, d);
        }
    }
}

/// Runs all phases: submit → drain (→ checkpoint per `mode`).
fn build_world(world: usize, mode: Checkpoints) -> World {
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
    exchange.open_clearing(clearing_for()).expect("open window");
    let mut w = World {
        exchange,
        sink,
        journal,
        recorder,
        market,
        plain_map: HashMap::new(),
        demand_map: HashMap::new(),
    };
    for phase in 0..N_PHASES {
        w.submit_phase(world, phase);
        w.exchange.drain(2);
        let boundary = match mode {
            Checkpoints::None => false,
            Checkpoints::Interior => phase + 1 < N_PHASES,
            Checkpoints::All => true,
        };
        if boundary {
            let stats = w.exchange.checkpoint().expect("drain-idle checkpoint");
            assert_eq!(stats.markets, 1 + n_sellers(world));
            // Plain sessions plus every fanned-out candidate session are
            // all terminal at a phase boundary.
            assert_eq!(stats.sessions, w.plain_map.len() + candidate_sessions(&w));
            assert_eq!(stats.demands, w.demand_map.len());
        }
    }
    w
}

/// Candidate sessions fanned out so far (terminal once their demand
/// settles) — plain sessions are counted separately.
fn candidate_sessions(w: &World) -> usize {
    let (events, _) = read_events(&w.sink.bytes());
    events
        .iter()
        .filter_map(|e| match e {
            ExchangeEvent::DemandSubmitted { candidates, .. } => Some(candidates.len()),
            _ => None,
        })
        .sum()
}

fn spec_for(
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
        clearing: Some(clearing_for()),
    }
}

/// Everything a finished run produced, keyed for comparison.
#[derive(PartialEq, Debug)]
struct Reference {
    outcomes: HashMap<SessionId, Result<Outcome, String>>,
    reports: HashMap<DemandId, DemandReport>,
    epochs: Vec<vfl_exchange::EpochRecord>,
}

fn collect(world: &World) -> Reference {
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
    }
}

/// Recovers `prefix`, drains, runs the journal's own divergence audit, and
/// asserts every recorded entity matches the reference bit for bit, plus
/// the zero-retrain guarantee. Returns (courses trained, report).
fn check_equivalence(
    world: usize,
    reference: &Reference,
    prefix: &[u8],
    plain_map: &HashMap<SessionId, usize>,
    demand_map: &HashMap<DemandId, usize>,
    ctx: &str,
) -> (usize, vfl_exchange::ReplayReport) {
    let (events, _) = read_events(prefix);
    let mut recorded_sessions: Vec<SessionId> = Vec::new();
    let mut recorded_demands: Vec<DemandId> = Vec::new();
    let mut prefix_courses: HashSet<(u64, u64)> = HashSet::new();
    let mut has_checkpoint = false;
    for event in &events {
        match event {
            ExchangeEvent::SessionSubmitted { session, .. } => recorded_sessions.push(*session),
            ExchangeEvent::DemandSubmitted {
                demand, candidates, ..
            } => {
                recorded_demands.push(*demand);
                recorded_sessions.extend(candidates.iter().map(|&(_, sid)| sid));
            }
            ExchangeEvent::CourseServed {
                eval_key, bundle, ..
            } => {
                prefix_courses.insert((*eval_key, bundle.0));
            }
            ExchangeEvent::Checkpoint { state } => {
                has_checkpoint = true;
                // Checkpoint-covered entities are recorded entities too
                // (generation ≥ 2 journals have no submission events for
                // them).
                recorded_sessions.extend(state.sessions.iter().map(|(sid, _)| *sid));
                recorded_demands.extend(state.demands.iter().map(|r| r.demand));
                prefix_courses.extend(state.courses.iter().map(|&(key, _)| key));
            }
            _ => {}
        }
    }
    recorded_sessions.sort_unstable_by_key(|s| s.0);
    recorded_sessions.dedup();
    recorded_demands.sort_unstable_by_key(|d| d.0);
    recorded_demands.dedup();

    let recorder = TrainingRecorder::default();
    let spec = spec_for(world, &recorder, plain_map, demand_map);
    let (recovered, report) = Exchange::recover(ExchangeConfig::default(), prefix, spec, None)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    assert_eq!(report.checkpoint_restored, has_checkpoint, "{ctx}");
    recovered.drain(2);

    let audited = recovered
        .audit_replay(&report)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(
        audited,
        report.conclusions.len() + report.settlements.len() + report.epochs.len(),
        "{ctx}"
    );

    // Zero re-training of anything the journal acknowledged — whether it
    // arrived as a CourseServed frame or inside a checkpoint's course set.
    let retrained = recorder.set();
    assert!(
        retrained.is_disjoint(&prefix_courses),
        "{ctx}: re-trained a journaled course: {:?}",
        retrained.intersection(&prefix_courses).collect::<Vec<_>>()
    );

    for sid in &recorded_sessions {
        let replayed = recovered
            .take(*sid)
            .unwrap_or_else(|| panic!("{ctx}: recovered session {sid} not terminal"))
            .map(|b| *b)
            .map_err(|e| e.to_string());
        assert_eq!(
            &replayed, &reference.outcomes[sid],
            "{ctx}: session {sid} diverged"
        );
    }
    for did in &recorded_demands {
        let replayed = recovered
            .take_demand(*did)
            .unwrap_or_else(|| panic!("{ctx}: recovered demand {did} not settled"));
        let reference = &reference.reports[did];
        assert_eq!(replayed.winner, reference.winner, "{ctx}: demand {did}");
        assert_eq!(replayed.epoch, reference.epoch, "{ctx}: demand {did}");
        assert_eq!(
            replayed.clearing_price, reference.clearing_price,
            "{ctx}: demand {did}"
        );
        assert_eq!(replayed.quotes.len(), reference.quotes.len(), "{ctx}");
        for (a, b) in replayed.quotes.iter().zip(&reference.quotes) {
            assert_eq!(a.seller, b.seller, "{ctx}");
            assert_eq!(a.session, b.session, "{ctx}");
            assert_eq!(a.state, b.state, "{ctx}: demand {did} quote state");
            assert_eq!(a.history, b.history, "{ctx}: demand {did} probe history");
        }
    }
    // Epoch records the prefix replays must match the reference run's
    // (single-demand epochs: each recorded demand's epoch is independent).
    let recovered_epochs = recovered.epoch_history();
    for epoch in &recovered_epochs {
        let matching = reference.epochs.iter().find(|e| e.epoch == epoch.epoch);
        assert_eq!(matching, Some(epoch), "{ctx}: epoch {}", epoch.epoch);
    }
    (retrained.len(), report)
}

fn n_worlds() -> usize {
    std::env::var("REPLAY_WORLDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
        .max(4)
        / 2
}

/// Number of events before the last checkpoint frame, and the total.
fn checkpoint_split(bytes: &[u8]) -> (usize, usize) {
    let (events, _) = read_events(bytes);
    let at = events
        .iter()
        .rposition(|e| matches!(e, ExchangeEvent::Checkpoint { .. }))
        .expect("journal holds a checkpoint");
    (at, events.len())
}

/// Re-encodes `bytes` with every checkpoint frame stripped — the
/// from-genesis comparator.
fn strip_checkpoints(bytes: &[u8]) -> Vec<u8> {
    let (events, dropped) = read_events(bytes);
    assert_eq!(dropped, 0);
    let mut out = Vec::new();
    for e in events {
        if !matches!(e, ExchangeEvent::Checkpoint { .. }) {
            out.extend_from_slice(&e.encode_frame());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The tier
// ---------------------------------------------------------------------------

/// The headline property: the uninterrupted run, recovery from the
/// checkpointed journal, and recovery from the same journal with every
/// checkpoint stripped (from-genesis replay) all agree bit for bit — and
/// the checkpointed recovery re-trains nothing.
#[test]
fn checkpointed_recovery_matches_genesis_replay_and_the_uninterrupted_run() {
    for world in 0..n_worlds() {
        // The uninterrupted comparator: the identical run, no checkpoints.
        let plain = build_world(world, Checkpoints::None);
        let reference = collect(&plain);

        let w = build_world(world, Checkpoints::Interior);
        let bytes = w.sink.bytes();
        let (at, total) = checkpoint_split(&bytes);
        assert!(
            at > 0 && total > at + 1,
            "world {world}: need a live suffix"
        );

        // Checkpointing must be behavior-neutral: the checkpointed world's
        // own results equal the plain run's.
        let checkpointed = collect(&w);
        assert_eq!(
            checkpointed, reference,
            "world {world}: checkpoint changed results"
        );
        assert_eq!(
            w.recorder.set(),
            plain.recorder.set(),
            "world {world}: checkpointing trained extra courses"
        );

        // Recovery from the checkpointed journal: bit-identical, restores
        // the pre-checkpoint phases wholesale, re-trains zero courses.
        let (trained, report) = check_equivalence(
            world,
            &reference,
            &bytes,
            &w.plain_map,
            &w.demand_map,
            &format!("world {world} checkpointed"),
        );
        assert_eq!(
            trained, 0,
            "world {world}: a complete journal re-trains nothing"
        );
        assert!(report.checkpoint_restored);
        assert_eq!(report.events_skipped, at, "world {world}");
        assert!(report.sessions_restored > 0, "world {world}");
        assert!(report.demands_restored > 0, "world {world}");

        // From-genesis comparator: same journal, checkpoints stripped.
        let (trained, report) = check_equivalence(
            world,
            &reference,
            &strip_checkpoints(&bytes),
            &w.plain_map,
            &w.demand_map,
            &format!("world {world} genesis"),
        );
        assert_eq!(trained, 0, "world {world}");
        assert!(!report.checkpoint_restored);
        assert_eq!(report.events_skipped, 0);
    }
}

/// Recovery from a checkpoint replays ONLY the suffix: every
/// pre-checkpoint session is terminal *before* any drain, and the skipped
/// prefix is exactly the pre-checkpoint event count.
#[test]
fn recovery_restores_checkpointed_phases_without_replay() {
    let world = 1usize;
    let w = build_world(world, Checkpoints::Interior);
    let reference = collect(&w);
    let bytes = w.sink.bytes();
    let (at, _) = checkpoint_split(&bytes);

    let recorder = TrainingRecorder::default();
    let spec = spec_for(world, &recorder, &w.plain_map, &w.demand_map);
    let (recovered, report) =
        Exchange::recover(ExchangeConfig::default(), &bytes, spec, None).expect("recover");
    assert_eq!(report.events_skipped, at);
    // Before ANY drain: every checkpoint-covered session already has its
    // terminal outcome — nothing about those phases re-runs.
    let first_two_phases = 2 * PLAIN_PER_PHASE + 2 * DEMANDS_PER_PHASE;
    assert!(report.sessions_restored >= first_two_phases);
    assert_eq!(report.demands_restored, 2 * DEMANDS_PER_PHASE);
    let mut checked = 0;
    for (&sid, &k) in &w.plain_map {
        if k < 2 * PLAIN_PER_PHASE {
            let outcome = recovered
                .take(sid)
                .expect("restored without a drain")
                .map(|b| *b)
                .map_err(|e| e.to_string());
            assert_eq!(&outcome, &reference.outcomes[&sid], "session {sid}");
            checked += 1;
        }
    }
    assert_eq!(checked, 2 * PLAIN_PER_PHASE);
    assert!(
        recorder.set().is_empty(),
        "restoring a checkpoint must train nothing"
    );
    // The suffix (phase 3) then drains with zero re-trainings — its
    // courses are all journaled.
    recovered.drain(2);
    assert!(recorder.set().is_empty());
}

/// Truncating anywhere at/after the first checkpoint recovers every
/// recorded entity bit-identically (the boundary sweep of this tier;
/// replay_equivalence.rs sweeps the pre-checkpoint cuts).
#[test]
fn truncation_after_a_checkpoint_recovers_bit_identically() {
    let mut cuts_checked = 0usize;
    for world in 0..n_worlds().min(8) {
        let plain = build_world(world, Checkpoints::None);
        let reference = collect(&plain);
        let w = build_world(world, Checkpoints::Interior);
        let bytes = w.sink.bytes();
        let boundaries = vfl_exchange::frame_boundaries(&bytes);
        let (events, _) = read_events(&bytes);
        let first_checkpoint = events
            .iter()
            .position(|e| matches!(e, ExchangeEvent::Checkpoint { .. }))
            .expect("interior checkpoints");
        for (i, &cut) in boundaries.iter().enumerate() {
            if i < first_checkpoint {
                continue;
            }
            check_equivalence(
                world,
                &reference,
                &bytes[..cut],
                &w.plain_map,
                &w.demand_map,
                &format!("world {world} cut {cut}/{}", bytes.len()),
            );
            cuts_checked += 1;
        }
    }
    assert!(cuts_checked > 16);
}

/// A checkpoint frame torn by truncation (crash mid-append) falls off the
/// valid prefix: recovery falls back to the previous checkpoint or
/// genesis and loses NO journaled event.
#[test]
fn torn_checkpoint_frames_fall_back_without_losing_events() {
    let world = 2usize;
    let plain = build_world(world, Checkpoints::None);
    let reference = collect(&plain);
    let w = build_world(world, Checkpoints::Interior);
    let bytes = w.sink.bytes();
    let boundaries = vfl_exchange::frame_boundaries(&bytes);
    let (events, _) = read_events(&bytes);
    let checkpoints: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, ExchangeEvent::Checkpoint { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(
        checkpoints.len() >= 2,
        "interior checkpoints at 2 boundaries"
    );
    for (n, &frame) in checkpoints.iter().enumerate() {
        let start = if frame == 0 { 0 } else { boundaries[frame - 1] };
        let end = boundaries[frame];
        // Tear the checkpoint frame at several depths: header-only,
        // mid-payload, one byte short of whole.
        for cut in [start + 3, start + (end - start) / 2, end - 1] {
            let (prefix_events, dropped) = read_events(&bytes[..cut]);
            assert_eq!(
                prefix_events.len(),
                frame,
                "the torn frame is dropped whole"
            );
            assert_eq!(dropped, cut - start);
            let (_, report) = check_equivalence(
                world,
                &reference,
                &bytes[..cut],
                &w.plain_map,
                &w.demand_map,
                &format!("torn checkpoint #{n} cut {cut}"),
            );
            // Falls back to the PREVIOUS checkpoint (genesis for the
            // first one).
            assert_eq!(report.checkpoint_restored, n > 0, "torn checkpoint #{n}");
        }
    }
}

/// Compaction: the compacted generation recovers identically, survives
/// truncation, and chains through a second-generation checkpoint into a
/// third generation that still reproduces everything with zero training.
#[test]
fn compacted_generations_recover_and_chain() {
    let world = 3usize;
    let plain = build_world(world, Checkpoints::None);
    let reference = collect(&plain);
    let w = build_world(world, Checkpoints::Interior);
    let bytes = w.sink.bytes();
    let (at, total) = checkpoint_split(&bytes);

    // Generation 2: [Checkpoint, phase-3 suffix].
    let gen2_sink = MemorySink::default();
    let (_gen2, stats) = w
        .journal
        .compact(&bytes, Box::new(gen2_sink.clone()))
        .expect("compact");
    assert_eq!(stats.events_before, total);
    assert_eq!(stats.dropped, at);
    let gen2_bytes = gen2_sink.bytes();
    let (gen2_events, _) = read_events(&gen2_bytes);
    assert!(matches!(gen2_events[0], ExchangeEvent::Checkpoint { .. }));
    assert_eq!(gen2_events.len(), total - at);
    let (trained, _) = check_equivalence(
        world,
        &reference,
        &gen2_bytes,
        &w.plain_map,
        &w.demand_map,
        "generation 2",
    );
    assert_eq!(trained, 0, "compaction preserves every paid course");

    // Compacted-then-truncated: every boundary of generation 2 recovers.
    let gen2_boundaries = vfl_exchange::frame_boundaries(&gen2_bytes);
    for &cut in &gen2_boundaries {
        check_equivalence(
            world,
            &reference,
            &gen2_bytes[..cut],
            &w.plain_map,
            &w.demand_map,
            &format!("generation 2 cut {cut}"),
        );
    }

    // Chain: recover generation 2 into a fresh journal, take a SECOND
    // checkpoint at the now-quiescent end state, compact again.
    let recorder = TrainingRecorder::default();
    let (journal3, sink3) = Journal::in_memory();
    let (recovered, _) = Exchange::recover(
        ExchangeConfig::default(),
        &gen2_bytes,
        spec_for(world, &recorder, &w.plain_map, &w.demand_map),
        Some(journal3.clone()),
    )
    .expect("recover generation 2");
    recovered.drain(2);
    recovered
        .checkpoint()
        .expect("second-generation checkpoint");
    let gen3_sink = MemorySink::default();
    let (_, stats) = journal3
        .compact(&sink3.bytes(), Box::new(gen3_sink.clone()))
        .expect("compact generation 3");
    assert_eq!(
        stats.events_after, 1,
        "a final checkpoint compacts to itself"
    );
    let (trained, report) = check_equivalence(
        world,
        &reference,
        &gen3_sink.bytes(),
        &w.plain_map,
        &w.demand_map,
        "generation 3",
    );
    assert_eq!(trained, 0, "generation 3 re-trains nothing");
    assert!(report.checkpoint_restored);
    assert_eq!(report.events_skipped, 0, "nothing precedes the checkpoint");
}

/// A quiescent end-state checkpoint (`Checkpoints::All`) compacts the
/// whole journal down to one frame that still recovers everything.
#[test]
fn final_checkpoint_compacts_to_a_single_frame() {
    let world = 4usize;
    let plain = build_world(world, Checkpoints::None);
    let reference = collect(&plain);
    let w = build_world(world, Checkpoints::All);
    let gen2_sink = MemorySink::default();
    let (_, stats) = w
        .journal
        .compact(&w.sink.bytes(), Box::new(gen2_sink.clone()))
        .expect("compact");
    assert_eq!(stats.events_after, 1);
    let (trained, _) = check_equivalence(
        world,
        &reference,
        &gen2_sink.bytes(),
        &w.plain_map,
        &w.demand_map,
        "single-frame generation",
    );
    assert_eq!(trained, 0);
}

/// Checkpoint quiescence: a checkpoint with work in flight is refused.
#[test]
fn checkpoint_refuses_non_quiescent_exchanges() {
    let world = 0usize;
    let recorder = TrainingRecorder::default();
    let (journal, _sink) = Journal::in_memory();
    let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
    let market = exchange
        .register_market(plain_market_spec(world, &recorder))
        .expect("register");
    exchange
        .submit(market, plain_order(world, 0))
        .expect("submit");
    let err = exchange.checkpoint().expect_err("pending work refuses");
    assert!(err.to_string().contains("drain first"), "{err}");
    exchange.drain(2);
    exchange.checkpoint().expect("quiescent after the drain");
    // And a bare (journal-less) exchange refuses outright.
    let bare = Exchange::new(ExchangeConfig::default());
    assert!(bare.checkpoint().is_err());
}

/// A provider whose every course fails with a message longer than any
/// `u16` length prefix could carry.
struct LongErrorProvider;

impl GainProvider for LongErrorProvider {
    fn gain(&self, _bundle: BundleMask) -> vfl_market::Result<f64> {
        Err(MarketError::Gain("x".repeat(70_000)))
    }
}

/// A session failed by a 70,000-byte gain error checkpoints, and recovery
/// from that checkpoint returns the message verbatim.
#[test]
fn long_error_messages_survive_checkpoint_and_recovery() {
    let world = 0usize;
    let market_spec = || {
        let (listings, _) = plain_listings_gains(world);
        MarketSpec {
            provider: Arc::new(LongErrorProvider),
            listings: Arc::new(listings),
            evaluation_key: Some(plain_eval_key(world)),
            name: "long-errors".into(),
        }
    };
    let (journal, sink) = Journal::in_memory();
    let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
    let market = exchange.register_market(market_spec()).expect("register");
    let id = exchange
        .submit(market, plain_order(world, 0))
        .expect("submit");
    exchange.drain(1);
    exchange.checkpoint().expect("quiescent after the drain");
    let spec = ReplaySpec {
        markets: vec![market_spec()],
        ..ReplaySpec::default()
    };
    let (recovered, report) =
        Exchange::recover(ExchangeConfig::default(), &sink.bytes(), spec, None).expect("recovery");
    assert!(report.checkpoint_restored);
    match recovered.take(id) {
        Some(Err(MarketError::Gain(msg))) => assert!(msg == "x".repeat(70_000), "message mangled"),
        other => panic!(
            "expected the gain error back, got {:?}",
            other.map(|r| r.is_ok())
        ),
    }
}

// ---------------------------------------------------------------------------
// Crash points inside the checkpoint append and the compaction rewrite
// ---------------------------------------------------------------------------

/// Seals the journal at a checkpoint crash point and proves the sealed
/// journal still recovers every event it holds.
fn crash_at_checkpoint(point: CrashPoint, expect_frame: bool) {
    let world = 5usize;
    let plain = build_world(world, Checkpoints::None);
    let reference = collect(&plain);

    // Re-run the same world, crashing at the FIRST phase boundary's
    // checkpoint: the hook seals the journal exactly where a real crash
    // would cut it, while the in-memory run carries on as the reference.
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
    exchange.open_clearing(clearing_for()).expect("open window");
    let fired = Arc::new(AtomicUsize::new(0));
    {
        let journal = journal.clone();
        let fired = fired.clone();
        let wanted = point;
        exchange.set_crash_hook(Some(Arc::new(move |p: &CrashPoint| {
            if *p == wanted && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                journal.seal();
            }
        })));
    }
    let mut w = World {
        exchange,
        sink,
        journal,
        recorder,
        market,
        plain_map: HashMap::new(),
        demand_map: HashMap::new(),
    };
    for phase in 0..N_PHASES {
        w.submit_phase(world, phase);
        w.exchange.drain(2);
        if phase + 1 < N_PHASES {
            // The sealed journal drops the append silently — exactly a
            // crashed process's view; the in-memory run continues.
            let _ = w.exchange.checkpoint();
        }
    }
    assert!(fired.load(Ordering::SeqCst) > 0, "crash point must fire");
    assert!(w.journal.is_sealed());
    let bytes = w.sink.bytes();
    let (events, _) = read_events(&bytes);
    let has_frame = events
        .iter()
        .any(|e| matches!(e, ExchangeEvent::Checkpoint { .. }));
    assert_eq!(has_frame, expect_frame);
    // Either way: every event journaled before the crash recovers.
    let (_, report) = check_equivalence(
        world,
        &reference,
        &bytes,
        &w.plain_map,
        &w.demand_map,
        &format!("crash at {point:?}"),
    );
    assert_eq!(report.checkpoint_restored, expect_frame);
}

/// Crash between the quiescence snapshot and the append: no checkpoint
/// frame lands, recovery replays from genesis — nothing lost.
#[test]
fn crash_before_the_checkpoint_append_loses_nothing() {
    crash_at_checkpoint(CrashPoint::CheckpointSnapshotted, false);
}

/// Crash right after the append: the frame is durable and recovery seeks
/// to it.
#[test]
fn crash_after_the_checkpoint_append_keeps_the_frame() {
    crash_at_checkpoint(CrashPoint::CheckpointRecorded, true);
}

/// A sink that starts failing when the shared flag flips — the compaction
/// rewrite's "disk died mid-generation" fault.
struct DyingSink {
    inner: MemorySink,
    dead: Arc<AtomicBool>,
}

impl std::io::Write for DyingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("disk died mid-compaction"));
        }
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A compaction rewrite torn between the checkpoint frame and the suffix:
/// the new generation is partial (an error tells the operator so), and
/// the untouched old generation still recovers everything.
#[test]
fn torn_compaction_rewrite_never_loses_journaled_events() {
    let world = 6usize;
    let plain = build_world(world, Checkpoints::None);
    let reference = collect(&plain);
    let w = build_world(world, Checkpoints::Interior);
    let bytes = w.sink.bytes();

    let dead = Arc::new(AtomicBool::new(false));
    let gen2_sink = MemorySink::default();
    let sink = DyingSink {
        inner: gen2_sink.clone(),
        dead: dead.clone(),
    };
    let hook: vfl_exchange::CrashHook = {
        let dead = dead.clone();
        Arc::new(move |p: &CrashPoint| {
            if matches!(p, CrashPoint::CompactionRewrite) {
                dead.store(true, Ordering::SeqCst);
            }
        })
    };
    let err = w
        .journal
        .compact_observed(&bytes, Box::new(sink), Some(&hook))
        .expect_err("the dying sink must surface as an error");
    assert!(matches!(err, vfl_exchange::CompactError::Io(_)), "{err}");

    // The torn new generation holds just the checkpoint frame — itself a
    // valid (if shorter) journal…
    let (gen2_events, _) = read_events(&gen2_sink.bytes());
    assert_eq!(gen2_events.len(), 1);
    assert!(matches!(gen2_events[0], ExchangeEvent::Checkpoint { .. }));
    check_equivalence(
        world,
        &reference,
        &gen2_sink.bytes(),
        &w.plain_map,
        &w.demand_map,
        "torn generation 2",
    );
    // …and the old generation is byte-for-byte intact and recovers in
    // full: a failed compaction can never lose a journaled event.
    assert_eq!(w.sink.bytes(), bytes);
    let (trained, _) = check_equivalence(
        world,
        &reference,
        &bytes,
        &w.plain_map,
        &w.demand_map,
        "old generation after torn compaction",
    );
    assert_eq!(trained, 0);
}

// ---------------------------------------------------------------------------
// Decoder fuzz (satellite: never misparse, never panic) + pinned bytes
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// A journal containing every frame tag but `DemandShed`, built once: a
/// phased world with interior checkpoints exercises the vocabulary.
fn all_tags_journal() -> &'static (Vec<u8>, Vec<ExchangeEvent>) {
    static JOURNAL: OnceLock<(Vec<u8>, Vec<ExchangeEvent>)> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let w = build_world(0, Checkpoints::Interior);
        let bytes = w.sink.bytes();
        let (events, dropped) = read_events(&bytes);
        assert_eq!(dropped, 0);
        let tags: HashSet<std::mem::Discriminant<ExchangeEvent>> =
            events.iter().map(std::mem::discriminant).collect();
        // Every variant but `DemandShed` (tag 15): world 0 runs no
        // admission policy, so it never sheds.
        assert_eq!(
            tags.len(),
            11,
            "the fuzz source must exercise every variant world 0 produces"
        );
        (bytes, events)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any single-byte XOR anywhere in the journal decodes to a clean
    /// prefix of the original event stream — never a misparse, never a
    /// panic. (An XOR can only invalidate, not forge: the frame checksum
    /// would have to collide.)
    #[test]
    fn mutated_journals_decode_to_a_clean_prefix(pos_frac in 0.0f64..1.0, mask in 1u8..=255) {
        let (bytes, events) = all_tags_journal();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let mut mutated = bytes.clone();
        mutated[pos] ^= mask;
        let (decoded, _) = read_events(&mutated);
        prop_assert!(decoded.len() <= events.len());
        prop_assert_eq!(&decoded[..], &events[..decoded.len()]);
    }

    /// Any truncation point decodes to exactly the whole frames that fit.
    #[test]
    fn truncated_journals_decode_to_whole_frames(cut_frac in 0.0f64..=1.0) {
        let (bytes, events) = all_tags_journal();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let boundaries = vfl_exchange::frame_boundaries(&bytes[..cut]);
        let (decoded, dropped) = read_events(&bytes[..cut]);
        prop_assert_eq!(decoded.len(), boundaries.len());
        prop_assert_eq!(&decoded[..], &events[..decoded.len()]);
        let last = boundaries.last().copied().unwrap_or(0);
        prop_assert_eq!(dropped, cut - last);
    }

    /// XOR + truncation together (a torn AND corrupted tail).
    #[test]
    fn mutated_truncated_journals_never_misparse(
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
        cut_frac in 0.1f64..=1.0,
    ) {
        let (bytes, events) = all_tags_journal();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let mut mutated = bytes[..cut].to_vec();
        if !mutated.is_empty() {
            let pos = ((mutated.len() - 1) as f64 * pos_frac) as usize;
            mutated[pos] ^= mask;
        }
        let (decoded, _) = read_events(&mutated);
        prop_assert!(decoded.len() <= events.len());
        prop_assert_eq!(&decoded[..], &events[..decoded.len()]);
    }
}

/// Checked-in wire-format fixture: the exact v4 bytes of an
/// immediate-mode and an epoch-mode `DemandSubmitted` frame (one tag, the
/// mode is a field). If this test fails, the change broke decoding of
/// every v4 journal already on disk; bump `VERSION` instead. The v1, v2
/// and v3 bytes of the first frame must no longer decode at all (the v2
/// and v3 bytes are the v4 ones with their own version byte and their
/// byte-wise FNV-1a checksum), and a journal starting with them is
/// refused by recovery.
#[test]
fn pinned_frame_bytes_stay_decodable() {
    let immediate = ExchangeEvent::DemandSubmitted {
        demand: DemandId(3),
        wanted: BundleMask(0b101),
        probe_rounds: 2,
        cfg_digest: 0xfeed_f00d,
        epoch_mode: false,
        candidates: vec![
            (vfl_exchange::SellerId(0), SessionId(8)),
            (vfl_exchange::SellerId(2), SessionId(9)),
        ],
    };
    let epoch = ExchangeEvent::DemandSubmitted {
        demand: DemandId(5),
        wanted: BundleMask(0b110),
        probe_rounds: 1,
        cfg_digest: 0x0dd_ba11,
        epoch_mode: true,
        candidates: vec![(vfl_exchange::SellerId(1), SessionId(12))],
    };
    let immediate_bytes: &[u8] = &[
        234, 4, 66, 0, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 13,
        240, 237, 254, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 173, 203, 198, 253, 230, 220, 217, 178,
    ];
    let epoch_bytes: &[u8] = &[
        234, 4, 50, 0, 0, 0, 4, 5, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 17,
        186, 221, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0,
        203, 223, 207, 225, 205, 14, 232, 252,
    ];
    assert_eq!(
        immediate.encode_frame(),
        immediate_bytes,
        "immediate-mode bytes drifted"
    );
    assert_eq!(
        epoch.encode_frame(),
        epoch_bytes,
        "epoch-mode bytes drifted"
    );
    let mut journal = immediate_bytes.to_vec();
    journal.extend_from_slice(epoch_bytes);
    assert_eq!(read_events(&journal), (vec![immediate, epoch], 0));
    let v1_tag4_bytes: &[u8] = &[
        234, 1, 57, 0, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 13,
        240, 237, 254, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 9,
        0, 0, 0, 0, 0, 0, 0, 248, 185, 109, 105, 22, 153, 147, 6,
    ];
    assert_eq!(
        read_events(v1_tag4_bytes),
        (vec![], v1_tag4_bytes.len()),
        "v1 frames are dropped whole"
    );
    let v2_tag4_bytes: &[u8] = &[
        234, 2, 66, 0, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 13,
        240, 237, 254, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 40, 246, 229, 96, 82, 29, 219, 242,
    ];
    assert_eq!(
        read_events(v2_tag4_bytes),
        (vec![], v2_tag4_bytes.len()),
        "v2 frames are dropped whole"
    );
    let v3_tag4_bytes: &[u8] = &[
        234, 3, 66, 0, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 13,
        240, 237, 254, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 7, 25, 50, 105, 74, 8, 225, 234,
    ];
    assert_eq!(
        read_events(v3_tag4_bytes),
        (vec![], v3_tag4_bytes.len()),
        "v3 frames are dropped whole"
    );
    for (version, old) in [(2, v2_tag4_bytes), (3, v3_tag4_bytes)] {
        let body = old.len() - 8;
        let mut v4_body = immediate_bytes[..body].to_vec();
        v4_body[1] = version;
        assert_eq!(old[..body], v4_body, "v{version} body is v4's");
        assert_eq!(
            old[body..],
            vfl_market::session::wire::fnv64(&old[..body]).to_le_bytes(),
            "v{version} trailer is byte-wise FNV-1a"
        );
    }
    for old in [v1_tag4_bytes, v2_tag4_bytes, v3_tag4_bytes] {
        assert!(
            matches!(
                check_journal_version(old),
                Err(RecoverError::InconsistentJournal(_))
            ),
            "version {} is refused",
            old[1]
        );
    }
    assert_eq!(check_journal_version(&journal), Ok(()));
}
