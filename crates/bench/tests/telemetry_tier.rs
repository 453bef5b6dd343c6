//! Telemetry tier — the observe-only proof and the export contract.
//!
//! The tentpole invariant: attaching an [`ExchangeTelemetry`] must be
//! invisible to everything the exchange *does* — same negotiation
//! outcomes, same settlement winners, same epoch ledger, and a
//! byte-identical journal, since timing is never journaled and the router
//! appends every frame in an order that does not depend on timing. The
//! export side: the Prometheus scrape must carry every
//! exchange counter and the per-stage latency histograms with ordered
//! quantiles, the depth gauges must return to zero at drain-idle, and
//! recovery must time its two phases. The cost side: a warm demand drain
//! stays within its clock-read budget.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vfl_exchange::{
    BestResponse, ClearingSpec, Demand, DemandId, Exchange, ExchangeConfig, ExchangeTelemetry,
    Journal, MarketSpec, MetricsSnapshot, ReplaySpec, SellerSpec, SessionId, SessionOrder,
    SettleMode, UniformPriceClearing, SAMPLE_STRIDE, STAGES, STAGE_FAMILY,
};
use vfl_market::{
    DataStrategy, Listing, MarketConfig, Outcome, ReservedPrice, StrategicData, StrategicTask,
    TableGainProvider,
};
use vfl_sim::BundleMask;
use vfl_telemetry::{Clock, MonotonicClock, TraceKey};

fn listings_and_gains(scale: f64) -> (Vec<Listing>, Vec<f64>) {
    let listings: Vec<Listing> = (0..4)
        .map(|i| Listing {
            bundle: BundleMask::singleton(i),
            reserved: ReservedPrice::new(5.0 + i as f64 * 2.0, 0.8 + i as f64 * 0.2)
                .expect("valid reserve"),
        })
        .collect();
    let gains = (0..4).map(|i| scale * (0.06 + 0.08 * i as f64)).collect();
    (listings, gains)
}

fn order(gains: &[f64], seed: u64) -> SessionOrder {
    SessionOrder {
        cfg: MarketConfig {
            utility_rate: 900.0,
            budget: 12.0,
            rate_cap: 20.0,
            seed,
            ..MarketConfig::default()
        },
        task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening")),
        data: Box::new(StrategicData::with_gains(gains.to_vec())),
    }
}

fn seller(name: &str, scale: f64) -> SellerSpec {
    let (listings, gains) = listings_and_gains(scale);
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

fn demand(seed: u64, settle: SettleMode) -> Demand {
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

/// Everything one drain of the fixed mixed workload (plain sessions, an
/// immediate demand, two epoch demands through a clearing window)
/// produced, plus the journal bytes it wrote.
struct RunResult {
    outcomes: Vec<Outcome>,
    winners: Vec<(Option<usize>, Option<u64>)>,
    epochs: usize,
    metrics: MetricsSnapshot,
    journal_bytes: Vec<u8>,
    sids: Vec<SessionId>,
    dids: Vec<DemandId>,
}

/// Runs the workload on a journaled exchange, with or without telemetry.
fn run(telemetry: Option<Arc<ExchangeTelemetry>>) -> (RunResult, Option<Arc<ExchangeTelemetry>>) {
    let (journal, sink) = Journal::in_memory();
    let exchange = match &telemetry {
        Some(t) => {
            Exchange::with_journal_and_telemetry(ExchangeConfig::default(), journal, t.clone())
        }
        None => Exchange::with_journal(ExchangeConfig::default(), journal),
    };
    let (listings, gains) = listings_and_gains(1.0);
    let market = exchange
        .register_market(MarketSpec {
            provider: Arc::new(TableGainProvider::new(
                listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)),
            )),
            listings: Arc::new(listings),
            evaluation_key: Some(42),
            name: "plain".into(),
        })
        .expect("register market");
    exchange.register_seller(seller("weak", 0.4)).unwrap();
    exchange.register_seller(seller("strong", 1.0)).unwrap();
    exchange
        .open_clearing(ClearingSpec {
            epoch_size: 2,
            capacity: 1,
            max_rolls: u32::MAX,
            policy: Arc::new(UniformPriceClearing::default()),
        })
        .unwrap();
    let sids: Vec<SessionId> = (0..6)
        .map(|seed| exchange.submit(market, order(&gains, seed)).unwrap())
        .collect();
    let dids = vec![
        exchange
            .submit_demand(demand(0, SettleMode::Immediate(Arc::new(BestResponse))))
            .unwrap(),
        exchange
            .submit_demand(demand(1, SettleMode::Epoch))
            .unwrap(),
        exchange
            .submit_demand(demand(2, SettleMode::Epoch))
            .unwrap(),
    ];
    // The stages this lights up (dispatch_wait, train, hit, quote,
    // settlement, epoch_clear, journal_append) don't need contention.
    let report = exchange.drain(1);
    assert_eq!(report.failed, 0, "the tier workload must stay clean");

    let outcomes = sids
        .iter()
        .map(|&sid| *exchange.take(sid).expect("terminal").expect("no error"))
        .collect();
    let winners = dids
        .iter()
        .map(|&did| {
            let settled = exchange.take_demand(did).expect("settled");
            (settled.winner, settled.epoch)
        })
        .collect();
    let result = RunResult {
        outcomes,
        winners,
        epochs: exchange.epoch_history().len(),
        metrics: exchange.metrics(),
        journal_bytes: sink.bytes(),
        sids,
        dids,
    };
    let tele = exchange.telemetry().cloned();
    drop(exchange);
    (result, tele)
}

#[test]
fn telemetry_is_invisible_to_drains_and_journals() {
    let (off, none) = run(None);
    assert!(none.is_none());
    let (on, _) = run(Some(ExchangeTelemetry::new()));

    assert_eq!(off.outcomes, on.outcomes, "outcomes must be bit-identical");
    assert_eq!(off.winners, on.winners, "settlements must be identical");
    assert_eq!(off.epochs, on.epochs, "the epoch ledger must be identical");
    assert_eq!(off.metrics, on.metrics, "counters must be identical");

    assert_eq!(
        off.journal_bytes, on.journal_bytes,
        "telemetry leaked into the journal"
    );
}

#[test]
fn scrape_exports_every_counter_and_the_stage_histograms() {
    let (_, tele) = run(Some(ExchangeTelemetry::new()));
    let tele = tele.expect("telemetry attached");

    // The workload drove real histogram samples into at least 4 stages…
    let live: Vec<&str> = STAGES
        .iter()
        .copied()
        .filter(|s| tele.stage_snapshot(s).expect("registered").count > 0)
        .collect();
    assert!(live.len() >= 4, "only {live:?} stages saw samples");
    for stage in &live {
        let snap = tele.stage_snapshot(stage).unwrap();
        let (p50, p95, p99) = (snap.p50(), snap.p95(), snap.p99());
        assert!(p50 <= p95 && p95 <= p99, "{stage}: {p50} {p95} {p99}");
        assert!(p99 <= snap.max, "{stage}: p99 {p99} above max {}", snap.max);
    }

    // …and the rendered scrape carries every counter family, the stage
    // histogram series, and the depth gauges (drain-idle ⇒ both zero).
    // Scraping goes through a live exchange because the counter bridge
    // mirrors the exchange's atomics at scrape time.
    let (journal, _sink) = Journal::in_memory();
    let exchange =
        Exchange::with_journal_and_telemetry(ExchangeConfig::default(), journal, tele.clone());
    let scrape = exchange.scrape().expect("telemetry attached");
    for (name, help) in MetricsSnapshot::COUNTERS {
        assert!(scrape.contains(name), "{name} missing from scrape");
        assert!(
            scrape.contains(&format!("# HELP {name} {help}")),
            "{name} help line missing"
        );
    }
    for stage in &live {
        let series = format!("{STAGE_FAMILY}_bucket{{stage=\"{stage}\"");
        assert!(scrape.contains(&series), "{series} missing:\n{scrape}");
    }
    assert!(scrape.contains("vfl_exchange_queue_depth 0"), "{scrape}");
    assert!(scrape.contains("vfl_exchange_waitlist_depth 0"), "{scrape}");
    let json = exchange.scrape_json().expect("telemetry attached");
    assert!(json.contains(STAGE_FAMILY), "{json}");
    assert!(json.contains("vfl_exchange_sessions_opened"), "{json}");
}

#[test]
fn trace_spans_key_sessions_and_demands() {
    let (result, tele) = run(Some(ExchangeTelemetry::new()));
    let tele = tele.expect("telemetry attached");
    let session_line = tele.trace().timeline(TraceKey::Session(result.sids[0].0));
    assert!(
        session_line.iter().any(|s| s.stage == "dispatch_wait"),
        "session timeline lacks dispatch_wait: {session_line:?}"
    );
    let demand_line = tele.trace().timeline(TraceKey::Demand(result.dids[0].0));
    assert!(
        demand_line.iter().any(|s| s.stage == "settlement"),
        "demand timeline lacks settlement: {demand_line:?}"
    );
    for pair in session_line.windows(2) {
        assert!(pair[0].start_ns <= pair[1].start_ns, "timeline unsorted");
    }
}

#[test]
fn recovery_phases_are_timed() {
    let (reference, _) = run(None);
    let tele = ExchangeTelemetry::new();
    let spec = ReplaySpec {
        markets: vec![{
            let (listings, gains) = listings_and_gains(1.0);
            MarketSpec {
                provider: Arc::new(TableGainProvider::new(
                    listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)),
                )),
                listings: Arc::new(listings),
                evaluation_key: Some(42),
                name: "plain".into(),
            }
        }],
        sellers: vec![seller("weak", 0.4), seller("strong", 1.0)],
        orders: Box::new(|sid| order(&listings_and_gains(1.0).1, sid.0)),
        demands: Box::new(|did| {
            demand(
                did.0,
                if did.0 == 0 {
                    SettleMode::Immediate(Arc::new(BestResponse))
                } else {
                    SettleMode::Epoch
                },
            )
        }),
        clearing: Some(ClearingSpec {
            epoch_size: 2,
            capacity: 1,
            max_rolls: u32::MAX,
            policy: Arc::new(UniformPriceClearing::default()),
        }),
    };
    let (recovered, _report) = Exchange::recover_with_telemetry(
        ExchangeConfig::default(),
        &reference.journal_bytes,
        spec,
        None,
        Some(tele.clone()),
    )
    .expect("recovery");
    for stage in ["recovery_restore", "recovery_replay"] {
        let snap = tele.stage_snapshot(stage).expect("registered");
        assert_eq!(snap.count, 1, "{stage} must be timed exactly once");
    }
    // The instrumented recovery still recovers: the resumed drain
    // reproduces the reference outcomes.
    recovered.drain(2);
    for (&sid, want) in reference.sids.iter().zip(&reference.outcomes) {
        let got = recovered.take(sid).expect("terminal").expect("no error");
        assert_eq!(*got, *want, "session {sid:?} diverged under telemetry");
    }
}

/// A real clock that counts its readings.
#[derive(Debug, Default)]
struct CountingClock {
    inner: MonotonicClock,
    reads: AtomicU64,
}

impl Clock for CountingClock {
    fn now_ns(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.now_ns()
    }
}

/// The clock-read budget of the demand path: telemetry on a warm
/// demand workload (the tier's two sellers and clearing window, both
/// settle modes) may read the clock at most 16 times per admitted demand,
/// and the sampled stages' counts stand for their events within one
/// stride.
#[test]
fn demand_drain_stays_within_its_clock_read_budget() {
    const WARMUP: u64 = 8;
    const DEMANDS: u64 = 48;
    let clock = Arc::new(CountingClock::default());
    let tele = ExchangeTelemetry::with_clock(clock.clone(), 64);
    let (journal, _sink) = Journal::in_memory();
    let exchange = Exchange::with_journal_and_telemetry(
        ExchangeConfig::default(),
        journal.clone(),
        tele.clone(),
    );
    exchange.register_seller(seller("weak", 0.4)).unwrap();
    exchange.register_seller(seller("strong", 1.0)).unwrap();
    exchange
        .open_clearing(ClearingSpec {
            epoch_size: 2,
            capacity: 1,
            max_rolls: u32::MAX,
            policy: Arc::new(UniformPriceClearing::default()),
        })
        .unwrap();
    let submit = |n: u64| {
        for i in 0..n {
            let settle = if i % 2 == 0 {
                SettleMode::Immediate(Arc::new(BestResponse))
            } else {
                SettleMode::Epoch
            };
            exchange.submit_demand(demand(i % 4, settle)).unwrap();
        }
        let report = exchange.drain(1);
        assert_eq!(report.failed, 0, "the budget workload must stay clean");
    };
    // A cold cache parks every candidate behind the few trainings, one
    // wake per course; warm it first, as a demand stream runs warm.
    submit(WARMUP);
    let trainings = exchange.metrics().cache_misses;
    clock.reads.store(0, Ordering::Relaxed);
    submit(DEMANDS);
    assert_eq!(
        exchange.metrics().cache_misses,
        trainings,
        "the measured drain must run warm"
    );

    let metrics = exchange.metrics();
    assert_eq!(metrics.demands_submitted, WARMUP + DEMANDS);
    assert_eq!(metrics.demands_settled, WARMUP + DEMANDS);
    let reads = clock.reads.load(Ordering::Relaxed);
    let per_demand = reads as f64 / DEMANDS as f64;
    eprintln!("clock reads: {reads} for {DEMANDS} demands ({per_demand:.2} per demand)");
    assert!(
        reads <= 16 * DEMANDS,
        "{reads} clock reads for {DEMANDS} admitted demands ({per_demand:.2} each) break the \
         budget of 16 per demand"
    );

    let within_one_stride = |stage: &str, events: u64| {
        let count = tele.stage_snapshot(stage).expect("registered").count;
        assert!(
            (events..events + SAMPLE_STRIDE).contains(&count),
            "{stage}: {count} samples stand for {events} events"
        );
    };
    assert!(metrics.cache_hits > 0, "the workload must hit the cache");
    within_one_stride("course_cache_hit", metrics.cache_hits);
    within_one_stride("journal_append", journal.records());
}
