//! Scenario tier — the open-world live-traffic regression suite.
//!
//! Every named scenario ([`vfl_exchange::named_scenarios`]) runs on its
//! pinned seed and must conserve demands exactly: every submission is
//! admitted, shed, or rejected, every admitted demand settles by the
//! final drain (termination under churn, market shifts, and adversarial
//! traffic), and without an attached policy nothing is ever shed. On top
//! of that:
//!
//! - **admission invisibility** — an attached-but-never-triggered
//!   [`AdmissionPolicy`] must be behaviorally invisible: bit-identical
//!   outcomes, settlements, counters, and journal event multisets vs a
//!   detached exchange (the load-shedding analogue of the telemetry
//!   tier's observe-only proof);
//! - **overload shedding** — a tight queue-depth bound under a
//!   no-mid-run-drain schedule must shed, keep every shed demand
//!   terminal from birth, and still conserve;
//! - **shed recovery** — a journal with `demand-shed` frames recovers
//!   bit-identically: shed demands come back [`DemandStatus::Shed`]
//!   without consulting the demand spec, and the replay audit counts
//!   them;
//! - **arrival-process laws** (proptest) — bit-determinism per seed,
//!   empirical Poisson rates within tolerance, exact diurnal
//!   periodicity.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vfl_exchange::{
    frame_boundaries, named_scenarios, read_events, AdmissionDecision, AdmissionLoad,
    AdmissionPolicy, ArrivalProcess, BestResponse, CostWeightedAdmission, Demand, DemandId,
    DemandStatus, Exchange, ExchangeConfig, ExchangeEvent, Hysteresis, Journal, MarketSpec,
    MetricsSnapshot, QueueDepthAdmission, QuotaAdmission, ReplaySpec, ScenarioDriver, ScenarioSpec,
    SellerSpec, SessionOrder, SettleMode, TokenBucketAdmission,
};
use vfl_market::{
    DataStrategy, Listing, MarketConfig, ReservedPrice, StrategicData, StrategicTask,
    TableGainProvider,
};
use vfl_sim::BundleMask;

fn scenario(name: &str) -> ScenarioSpec {
    named_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown scenario {name}"))
}

// ---------------------------------------------------------------------------
// Conservation and termination across the named scenarios
// ---------------------------------------------------------------------------

#[test]
fn every_named_scenario_conserves_on_its_pinned_seed() {
    for spec in named_scenarios() {
        let name = spec.name.clone();
        let exchange = Exchange::new(ExchangeConfig::default());
        let driver = ScenarioDriver::new(spec);
        let outcome = driver.run(&exchange);
        outcome.conservation().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            outcome.attempts > 0,
            "{name}: scenario generated no traffic"
        );
        assert_eq!(outcome.rejected, 0, "{name}: well-formed traffic rejected");
        // No policy attached ⇒ nothing sheds, and the per-id statuses
        // cross-check the metrics deltas exactly.
        assert_eq!(outcome.shed, 0, "{name}: shed without a policy");
        let (settled, shed) = driver.count_statuses(&exchange, &outcome.demand_ids);
        assert_eq!(settled as u64, outcome.settled, "{name}");
        assert_eq!(shed, 0, "{name}");
    }
}

#[test]
fn churn_and_shift_scenarios_terminate_every_admitted_demand() {
    // The three scenarios that mutate the seller pool mid-run (churn,
    // market shift, adversarial churn): the final drain must leave every
    // submitted demand terminal — a demand routed to a group that later
    // "closed" still settles against the sessions it fanned out to.
    for name in ["diurnal-churn", "bursty-open", "stale-estimator-storm"] {
        let exchange = Exchange::new(ExchangeConfig::default());
        let driver = ScenarioDriver::new(scenario(name));
        let outcome = driver.run(&exchange);
        outcome.conservation().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            outcome.sellers_registered > driver.spec().initial_sellers,
            "{name}: no churn actually happened"
        );
        for &did in &outcome.demand_ids {
            assert!(
                matches!(exchange.demand_status(did), Some(DemandStatus::Settled(_))),
                "{name}: demand {did} not terminal after the final drain"
            );
        }
    }
}

#[test]
fn scenario_runs_are_deterministic_per_seed() {
    for name in ["steady-poisson", "bursty-open", "probe-storm"] {
        let run = || {
            let exchange = Exchange::new(ExchangeConfig::default());
            let o = ScenarioDriver::new(scenario(name)).run(&exchange);
            (
                o.attempts, o.admitted, o.settled, o.matched, o.expired, o.deals,
            )
        };
        assert_eq!(run(), run(), "{name}: same seed diverged");
    }
}

// ---------------------------------------------------------------------------
// Adversarial shapes
// ---------------------------------------------------------------------------

#[test]
fn probe_storm_extracts_quotes_but_closes_no_deal() {
    let exchange = Exchange::new(ExchangeConfig::default());
    let outcome = ScenarioDriver::new(scenario("probe-storm")).run(&exchange);
    outcome.conservation().unwrap_or_else(|e| panic!("{e}"));
    // The probers lowball every reserve but ride the exploration window:
    // the pool absorbs real quote rounds and serves real courses, yet no
    // deal ever closes — and every prober session ends in an *orderly*
    // seller withdrawal, not an error.
    assert!(outcome.metrics.rounds_completed > 0, "probers never probed");
    assert!(
        outcome.metrics.courses_requested > 0,
        "no course was extracted"
    );
    assert_eq!(
        outcome.metrics.sessions_failed, 0,
        "a prober session errored"
    );
    assert_eq!(outcome.deals, 0, "a prober closed a deal");
}

#[test]
fn collusion_ring_depresses_deal_flow_vs_the_honest_book() {
    let colluded = scenario("collusion-ring");
    let mut honest = colluded.clone();
    honest.adversary = None;
    honest.name = "collusion-ring-honest".into();
    // Identical seed and arrival stream; the only difference is the ring's
    // jointly inflated, identical reserves.
    let run = |spec: ScenarioSpec| {
        let exchange = Exchange::new(ExchangeConfig::default());
        let o = ScenarioDriver::new(spec).run(&exchange);
        o.conservation().unwrap_or_else(|e| panic!("{e}"));
        o
    };
    let honest_out = run(honest);
    let colluded_out = run(colluded);
    assert_eq!(honest_out.attempts, colluded_out.attempts);
    assert!(honest_out.deals > 0, "the honest book must trade");
    assert!(
        colluded_out.deals <= honest_out.deals,
        "the ring ({}) out-traded the honest book ({})",
        colluded_out.deals,
        honest_out.deals
    );
}

// ---------------------------------------------------------------------------
// Admission control: light load, overload, and recovery of shed frames
// ---------------------------------------------------------------------------

#[test]
fn light_load_never_sheds_under_a_sane_bound() {
    let exchange = Exchange::new(ExchangeConfig::default());
    exchange.set_admission(Some(Arc::new(QueueDepthAdmission {
        max_queue_depth: 10_000,
    })));
    let outcome = ScenarioDriver::new(scenario("steady-poisson")).run(&exchange);
    outcome.conservation().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(outcome.shed, 0, "light load shed under a generous bound");
    assert!(outcome.admitted > 0);
}

#[test]
fn overload_sheds_terminally_and_still_conserves() {
    // No mid-run drains: the pending queue genuinely backs up, and a
    // tight bound must shed part of the stream.
    let mut spec = scenario("bursty-open");
    spec.drain_every = spec.ticks + 1;
    spec.epoch = None; // pure immediate traffic; the backlog is the point
    let exchange = Exchange::new(ExchangeConfig::default());
    exchange.set_admission(Some(Arc::new(QueueDepthAdmission { max_queue_depth: 4 })));
    let driver = ScenarioDriver::new(spec);
    let outcome = driver.run(&exchange);
    outcome.conservation().unwrap_or_else(|e| panic!("{e}"));
    assert!(
        outcome.shed > 0,
        "overload never shed under a depth-4 bound"
    );
    assert!(outcome.admitted > 0, "the bound shed everything");
    let (settled, shed) = driver.count_statuses(&exchange, &outcome.demand_ids);
    assert_eq!(settled as u64, outcome.settled);
    assert_eq!(shed as u64, outcome.shed);
    // Shed reports are the one shape an admitted demand can never settle
    // to: winnerless and quote-free.
    let shed_id = outcome
        .demand_ids
        .iter()
        .copied()
        .find(|&id| matches!(exchange.demand_status(id), Some(DemandStatus::Shed { .. })))
        .expect("a shed id");
    let report = exchange.take_demand(shed_id).expect("shed report");
    assert_eq!(report.winner, None);
    assert!(report.quotes.is_empty());
}

// Fixed-workload fixtures (the telemetry tier's book: two sellers, one
// immediate + two epoch demands through a clearing window) — used by the
// invisibility proof and the shed-recovery test, where the demand stream
// must be reconstructible by id.

fn fixture_seller(name: &str, scale: f64) -> SellerSpec {
    let listings: Vec<Listing> = (0..4)
        .map(|i| Listing {
            bundle: BundleMask::singleton(i),
            reserved: ReservedPrice::new(5.0 + i as f64 * 2.0, 0.8 + i as f64 * 0.2)
                .expect("valid reserve"),
        })
        .collect();
    let gains: Vec<f64> = (0..4).map(|i| scale * (0.06 + 0.08 * i as f64)).collect();
    let by_bundle: HashMap<u64, f64> = listings
        .iter()
        .zip(&gains)
        .map(|(l, &g)| (l.bundle.0, g))
        .collect();
    SellerSpec {
        market: MarketSpec {
            provider: Arc::new(TableGainProvider::new(
                listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)),
            )),
            listings: Arc::new(listings),
            evaluation_key: None,
            name: name.into(),
        },
        quoting: Arc::new(move |table: &[Listing]| {
            Box::new(StrategicData::with_gains(
                table.iter().map(|l| by_bundle[&l.bundle.0]).collect(),
            )) as Box<dyn DataStrategy + Send>
        }),
    }
}

fn fixture_demand(seed: u64, settle: SettleMode) -> Demand {
    Demand {
        wanted: BundleMask::all(4),
        scenario: None,
        cfg: MarketConfig {
            utility_rate: 900.0 - 50.0 * seed as f64,
            budget: 12.0,
            rate_cap: 20.0,
            seed,
            ..MarketConfig::default()
        },
        task: Arc::new(|| Box::new(StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening"))),
        probe_rounds: 2,
        settle,
    }
}

/// A policy wrapper that records every [`AdmissionLoad`] it was shown and
/// delegates the verdict — proving the seam is consulted exactly once per
/// submission with a real load snapshot, while staying never-triggered.
struct RecordingAdmission {
    inner: QueueDepthAdmission,
    calls: AtomicUsize,
    loads: Mutex<Vec<AdmissionLoad>>,
}

impl AdmissionPolicy for RecordingAdmission {
    fn admit(&self, load: &AdmissionLoad) -> AdmissionDecision {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.loads.lock().unwrap().push(*load);
        self.inner.admit(load)
    }
}

struct FixtureRun {
    winners: Vec<(Option<usize>, Option<u64>)>,
    metrics: MetricsSnapshot,
    journal_bytes: Vec<u8>,
}

fn run_fixture(policy: Option<Arc<dyn AdmissionPolicy>>) -> FixtureRun {
    let (journal, sink) = Journal::in_memory();
    let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
    exchange.set_admission(policy);
    exchange
        .register_seller(fixture_seller("weak", 0.4))
        .unwrap();
    exchange
        .register_seller(fixture_seller("strong", 1.0))
        .unwrap();
    exchange
        .open_clearing(vfl_exchange::ClearingSpec {
            epoch_size: 2,
            capacity: 1,
            max_rolls: u32::MAX,
            policy: Arc::new(vfl_exchange::UniformPriceClearing::default()),
        })
        .unwrap();
    let dids: Vec<DemandId> = vec![
        exchange
            .submit_demand(fixture_demand(
                0,
                SettleMode::Immediate(Arc::new(BestResponse)),
            ))
            .unwrap(),
        exchange
            .submit_demand(fixture_demand(1, SettleMode::Epoch))
            .unwrap(),
        exchange
            .submit_demand(fixture_demand(2, SettleMode::Epoch))
            .unwrap(),
    ];
    let report = exchange.drain(1);
    assert_eq!(report.failed, 0);
    let winners = dids
        .iter()
        .map(|&did| {
            let settled = exchange.take_demand(did).expect("settled");
            (settled.winner, settled.epoch)
        })
        .collect();
    FixtureRun {
        winners,
        metrics: exchange.metrics(),
        journal_bytes: sink.bytes(),
    }
}

#[test]
fn never_triggered_admission_is_behaviorally_invisible() {
    let detached = run_fixture(None);
    let recorder = Arc::new(RecordingAdmission {
        inner: QueueDepthAdmission {
            max_queue_depth: usize::MAX,
        },
        calls: AtomicUsize::new(0),
        loads: Mutex::new(Vec::new()),
    });
    let attached = run_fixture(Some(recorder.clone()));

    // The seam WAS consulted — once per submission, with real loads…
    assert_eq!(recorder.calls.load(Ordering::Relaxed), 3);
    let loads = recorder.loads.lock().unwrap();
    assert!(loads.iter().all(|l| l.fan_out == 2), "{loads:?}");
    assert!(
        loads
            .windows(2)
            .all(|w| w[1].queue_depth >= w[0].queue_depth),
        "undrained submissions must back the queue up: {loads:?}"
    );

    // …and changed nothing: settlements, counters, and the journal bytes
    // are identical.
    assert_eq!(detached.winners, attached.winners);
    assert_eq!(detached.metrics, attached.metrics);
    assert_eq!(
        detached.journal_bytes, attached.journal_bytes,
        "a never-triggered admission policy leaked into the journal"
    );
}

#[test]
fn never_triggered_invisibility_holds_for_the_whole_policy_family() {
    // Every policy this PR ships, parameterized so it can never refuse:
    // each must be behaviorally invisible — same winners, same counters,
    // same journal bytes as a detached exchange.
    let detached = run_fixture(None);
    let generous: Vec<(&str, Arc<dyn AdmissionPolicy>)> = vec![
        (
            "token-bucket",
            Arc::new(TokenBucketAdmission::new(u64::MAX, 1)),
        ),
        (
            "cost-weighted",
            Arc::new(CostWeightedAdmission::new(u64::MAX, 1)),
        ),
        ("quota", Arc::new(QuotaAdmission::new(u64::MAX, u64::MAX))),
        (
            "hysteresis",
            Arc::new(Hysteresis::new(
                QueueDepthAdmission {
                    max_queue_depth: usize::MAX,
                },
                0,
            )),
        ),
    ];
    for (name, policy) in generous {
        let attached = run_fixture(Some(policy));
        assert_eq!(detached.winners, attached.winners, "{name}: winners moved");
        assert_eq!(detached.metrics, attached.metrics, "{name}: counters moved");
        assert_eq!(
            detached.journal_bytes, attached.journal_bytes,
            "{name}: a never-triggered policy leaked into the journal"
        );
    }
}

#[test]
fn shed_frames_recover_bit_identically_without_the_demand_spec() {
    // Zero-depth bound, no drain between submissions: demand 0 is admitted
    // (empty queue), 1 and 2 shed; after the drain the queue is empty
    // again, so 3 is admitted and 4 sheds.
    let (journal, sink) = Journal::in_memory();
    let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
    exchange
        .register_seller(fixture_seller("solo", 1.0))
        .unwrap();
    exchange.set_admission(Some(Arc::new(QueueDepthAdmission { max_queue_depth: 0 })));
    let immediate = || SettleMode::Immediate(Arc::new(BestResponse));
    let ids: Vec<DemandId> = (0..3)
        .map(|seed| {
            exchange
                .submit_demand(fixture_demand(seed, immediate()))
                .unwrap()
        })
        .collect();
    exchange.drain(1);
    let late: Vec<DemandId> = (3..5)
        .map(|seed| {
            exchange
                .submit_demand(fixture_demand(seed, immediate()))
                .unwrap()
        })
        .collect();
    exchange.drain(1);
    let reference: Vec<Option<DemandStatus>> = ids
        .iter()
        .chain(&late)
        .map(|&id| exchange.demand_status(id))
        .collect();
    let bytes = sink.bytes();

    let spec = ReplaySpec {
        markets: vec![],
        sellers: vec![fixture_seller("solo", 1.0)],
        orders: Box::new(|_sid| SessionOrder {
            cfg: MarketConfig::default(),
            task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap()),
            data: Box::new(StrategicData::with_gains(vec![0.0; 4])),
        }),
        demands: {
            // The property in the test name: replay re-creates shed
            // terminals from the tag-15 frame alone, so the spec closure
            // must never even be *asked* about a shed id.
            let shed_ids: Vec<u64> = vec![ids[1].0, ids[2].0, late[1].0];
            Box::new(move |did| {
                assert!(
                    !shed_ids.contains(&did.0),
                    "recovery consulted shed demand {did}'s spec"
                );
                fixture_demand(did.0, SettleMode::Immediate(Arc::new(BestResponse)))
            })
        },
        clearing: None,
    };
    let (recovered, report) =
        Exchange::recover(ExchangeConfig::default(), &bytes, spec, None).expect("recovery");
    assert_eq!(report.demands_shed, 3);
    assert_eq!(report.sheds, vec![ids[1], ids[2], late[1]]);
    recovered.drain(1);
    let audited = recovered.audit_replay(&report).expect("replay audit");
    assert_eq!(
        audited,
        report.conclusions.len()
            + report.settlements.len()
            + report.epochs.len()
            + report.sheds.len(),
        "the audit must cover the shed terminals too"
    );
    let replayed: Vec<Option<DemandStatus>> = ids
        .iter()
        .chain(&late)
        .map(|&id| recovered.demand_status(id))
        .collect();
    for (i, (want, got)) in reference.iter().zip(&replayed).enumerate() {
        match (want, got) {
            (
                Some(DemandStatus::Shed { retry_after: w }),
                Some(DemandStatus::Shed { retry_after: g }),
            ) => {
                assert_eq!(w, g, "demand {i}: retry hint diverged across recovery")
            }
            (Some(DemandStatus::Settled(w)), Some(DemandStatus::Settled(g))) => {
                assert_eq!(w, g, "demand {i}: settlement diverged")
            }
            other => panic!("demand {i}: status diverged: {other:?}"),
        }
    }
    assert_eq!(recovered.metrics().demands_shed, 3);
}

#[test]
fn hinted_shed_frames_survive_truncation_and_recover_bit_identically() {
    // One token, glacial refill: demand 0 drains the bucket, 1 and 2 shed
    // with a computable logical-time hint riding the tag-15 frame.
    let (journal, sink) = Journal::in_memory();
    let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
    exchange
        .register_seller(fixture_seller("solo", 1.0))
        .unwrap();
    exchange.set_admission(Some(Arc::new(TokenBucketAdmission::new(1, 1_000))));
    let ids: Vec<DemandId> = (0..3)
        .map(|seed| {
            exchange
                .submit_demand(fixture_demand(
                    seed,
                    SettleMode::Immediate(Arc::new(BestResponse)),
                ))
                .unwrap()
        })
        .collect();
    exchange.drain(1);
    let reference: Vec<Option<DemandStatus>> =
        ids.iter().map(|&id| exchange.demand_status(id)).collect();
    for &shed in &ids[1..] {
        match exchange.demand_status(shed) {
            Some(DemandStatus::Shed {
                retry_after: Some(wait),
            }) => assert!(wait >= 1, "degenerate hint"),
            other => panic!("demand {shed} should be shed with a hint, got {other:?}"),
        }
    }
    let bytes = sink.bytes();

    // Truncating at every frame boundary keeps the surviving tag-15
    // frames bit-identical: each prefix decodes cleanly and its shed
    // events are exactly a prefix of the full journal's shed events,
    // hints included.
    let (full_events, _) = read_events(&bytes);
    let full_sheds: Vec<&ExchangeEvent> = full_events
        .iter()
        .filter(|e| matches!(e, ExchangeEvent::DemandShed { .. }))
        .collect();
    assert_eq!(full_sheds.len(), 2);
    for &end in &frame_boundaries(&bytes) {
        let (events, dropped) = read_events(&bytes[..end]);
        assert_eq!(dropped, 0, "boundary-aligned prefix dropped bytes");
        let sheds: Vec<&ExchangeEvent> = events
            .iter()
            .filter(|e| matches!(e, ExchangeEvent::DemandShed { .. }))
            .collect();
        assert_eq!(
            sheds,
            full_sheds[..sheds.len()].to_vec(),
            "a truncated journal re-decoded a shed frame differently"
        );
    }

    // Full recovery rebuilds the shed terminals — hints included — from
    // the frames alone, never consulting the demand spec for a shed id.
    let shed_ids: Vec<u64> = vec![ids[1].0, ids[2].0];
    let spec = ReplaySpec {
        markets: vec![],
        sellers: vec![fixture_seller("solo", 1.0)],
        orders: Box::new(|_sid| SessionOrder {
            cfg: MarketConfig::default(),
            task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap()),
            data: Box::new(StrategicData::with_gains(vec![0.0; 4])),
        }),
        demands: Box::new(move |did| {
            assert!(
                !shed_ids.contains(&did.0),
                "recovery consulted shed demand {did}'s spec"
            );
            fixture_demand(did.0, SettleMode::Immediate(Arc::new(BestResponse)))
        }),
        clearing: None,
    };
    let (recovered, report) =
        Exchange::recover(ExchangeConfig::default(), &bytes, spec, None).expect("recovery");
    assert_eq!(report.sheds, vec![ids[1], ids[2]]);
    recovered.drain(1);
    let replayed: Vec<Option<DemandStatus>> =
        ids.iter().map(|&id| recovered.demand_status(id)).collect();
    assert_eq!(
        reference, replayed,
        "recovery must preserve the retry hint bit-identically"
    );
}

// ---------------------------------------------------------------------------
// Policy laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Token-bucket conservation: over any submission schedule, the number
    /// of admissions never exceeds the tokens ever issued — the initial
    /// burst capacity plus one per elapsed refill interval.
    #[test]
    fn token_bucket_never_admits_more_than_it_issued(
        capacity in 1u64..16,
        refill in 1u64..8,
        gaps in prop::collection::vec(0u64..5, 1..64),
    ) {
        let policy = TokenBucketAdmission::new(capacity, refill);
        let mut clock = 0u64;
        let mut admitted = 0u64;
        for gap in gaps {
            clock += gap;
            let load = AdmissionLoad { submission: clock, ..Default::default() };
            if policy.admit(&load).is_admit() {
                admitted += 1;
            }
        }
        let issued = capacity + clock / refill;
        prop_assert!(
            admitted <= issued,
            "admitted {} > issued {} (capacity {}, refill {}, clock {})",
            admitted, issued, capacity, refill, clock
        );
    }

    /// Hysteresis never flaps inside the band: for consecutive loads whose
    /// depths both lie strictly inside (exit, enter], the verdict cannot
    /// change — it is pinned to whichever side last crossed a boundary.
    #[test]
    fn hysteresis_never_flaps_within_the_band(
        exit in 0usize..8,
        width in 1usize..8,
        depths in prop::collection::vec(0usize..24, 2..64),
    ) {
        let enter = exit + width;
        let policy = Hysteresis::new(
            QueueDepthAdmission { max_queue_depth: enter },
            exit,
        );
        let in_band = |d: usize| d > exit && d <= enter;
        let mut last: Option<(usize, bool)> = None;
        for depth in depths {
            let verdict = policy
                .admit(&AdmissionLoad { queue_depth: depth, ..Default::default() })
                .is_admit();
            if let Some((prev_depth, prev_verdict)) = last {
                if in_band(prev_depth) && in_band(depth) {
                    prop_assert_eq!(
                        verdict, prev_verdict,
                        "flapped inside the band ({}, {}] at depth {}",
                        exit, enter, depth
                    );
                }
            }
            last = Some((depth, verdict));
        }
    }

    /// Cost-weighted admission is monotone in fan-out: if a fresh bucket
    /// admits a demand of fan-out f, it admits every narrower demand too —
    /// wide demands always shed first.
    #[test]
    fn cost_weighted_sheds_wide_demands_first(
        capacity in 1u64..32,
        refill in 1u64..8,
        fan in 1usize..64,
    ) {
        let verdict = |fan_out: usize| {
            CostWeightedAdmission::new(capacity, refill)
                .admit(&AdmissionLoad { fan_out, ..Default::default() })
                .is_admit()
        };
        if verdict(fan) {
            for narrower in 1..fan {
                prop_assert!(verdict(narrower), "admitted {fan} but shed {narrower}");
            }
        } else {
            for wider in fan..fan + 4 {
                prop_assert!(!verdict(wider), "shed {fan} but admitted {wider}");
            }
        }
    }

    /// The chunk-split sampler's empirical mean tracks λ far above the old
    /// `(-λ).exp()` underflow cliff (λ ≳ 745), at every target rate the
    /// issue names.
    #[test]
    fn high_rate_poisson_mean_tracks_lambda(seed in 0u64..10_000, pick in 0usize..3) {
        let lambda = [500.0, 1_000.0, 5_000.0][pick];
        let process = ArrivalProcess::Poisson { rate: lambda };
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 200u32;
        let total: u64 = (0..n).map(|t| process.arrivals(t, &mut rng) as u64).sum();
        let mean = total as f64 / n as f64;
        // 6 standard errors of the mean: tight enough to catch the old
        // corrupted counts (which undershot by orders of magnitude), loose
        // enough to never flake.
        let tolerance = 6.0 * (lambda / n as f64).sqrt();
        prop_assert!(
            (mean - lambda).abs() < tolerance,
            "λ {}: empirical mean {} (tolerance {})", lambda, mean, tolerance
        );
    }
}

// ---------------------------------------------------------------------------
// Arrival-process laws
// ---------------------------------------------------------------------------

fn process_of(pick: u32) -> ArrivalProcess {
    match pick % 3 {
        0 => ArrivalProcess::Poisson { rate: 2.5 },
        1 => ArrivalProcess::Bursty {
            base: 0.4,
            burst: 6.0,
            period: 7,
            burst_len: 2,
        },
        _ => ArrivalProcess::Diurnal {
            mean: 2.0,
            amplitude: 1.8,
            period: 9,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed ⇒ bit-identical arrival stream, for every process shape.
    #[test]
    fn arrival_streams_are_deterministic_per_seed(seed in 0u64..10_000, pick in 0u32..3) {
        let process = process_of(pick);
        let sample = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..48).map(|t| process.arrivals(t, &mut rng)).collect::<Vec<_>>()
        };
        prop_assert_eq!(sample(seed), sample(seed));
    }

    /// The empirical mean of a homogeneous Poisson stream tracks λ within
    /// a few standard errors of the mean.
    #[test]
    fn poisson_empirical_rate_tracks_lambda(seed in 0u64..10_000, rate_x10 in 1u32..60) {
        let lambda = rate_x10 as f64 / 10.0;
        let process = ArrivalProcess::Poisson { rate: lambda };
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 2_000u32;
        let total: u64 = (0..n).map(|t| process.arrivals(t, &mut rng) as u64).sum();
        let mean = total as f64 / n as f64;
        // SEM is sqrt(λ/n) ≤ 0.055 here; 6 SEMs plus slack stays tight
        // enough to catch a broken sampler and loose enough to never flake.
        let tolerance = 6.0 * (lambda / n as f64).sqrt() + 0.05;
        prop_assert!(
            (mean - lambda).abs() < tolerance,
            "λ {}: empirical mean {} (tolerance {})", lambda, mean, tolerance
        );
    }

    /// The diurnal expected rate is exactly periodic (bitwise) and never
    /// negative, even when the amplitude clips the sinusoid below zero.
    #[test]
    fn diurnal_rates_are_periodic_and_clamped(
        mean_x10 in 0u32..40,
        amp_x10 in 0u32..60,
        period in 1u32..48,
        tick in 0u32..10_000,
    ) {
        let p = ArrivalProcess::Diurnal {
            mean: mean_x10 as f64 / 10.0,
            amplitude: amp_x10 as f64 / 10.0,
            period,
        };
        let rate = p.expected_rate(tick);
        prop_assert!(rate >= 0.0);
        prop_assert_eq!(rate.to_bits(), p.expected_rate(tick + period).to_bits());
        prop_assert_eq!(rate.to_bits(), p.expected_rate(tick % period).to_bits());
    }

    /// Bursty rates take exactly two values, switching on the phase.
    #[test]
    fn bursty_rates_are_two_valued(period in 1u32..32, burst_len in 0u32..32, tick in 0u32..10_000) {
        let p = ArrivalProcess::Bursty { base: 0.5, burst: 4.0, period, burst_len };
        let want = if tick % period < burst_len { 4.0 } else { 0.5 };
        prop_assert_eq!(p.expected_rate(tick), want);
    }
}
