//! Executor tier — the proof burden of the single-owner router.
//!
//! `Exchange::drain` runs one router (see `vfl_exchange::executor`): a
//! single thread owns every dispatch decision and journal frame, and N
//! course tasks resolve trainings concurrently through a
//! [`CourseResolver`]. The router's contract is that it is *pure
//! mechanism*: no outcome, settlement, epoch record, counter, or journal
//! byte may depend on the course-task count or on course latency, and the
//! router must reproduce what the async backend produced before the
//! thread pool was deleted. This tier proves that contract:
//!
//! - **pinned parent** — every replay world and all six named open-world
//!   scenarios ([`vfl_exchange::named_scenarios`]) reproduce the journal
//!   bytes and the reference digest (outcomes, demand reports, epoch
//!   ledger, trained-course set, full counter snapshot) pinned in
//!   `tests/fixtures/router_parent.txt`, generated on the async backend
//!   of the commit that still had both executors;
//! - **determinism** — the journal is *byte* identical across course-task
//!   counts and simulated latencies (the router journals everything
//!   itself, applying completions in strict request order);
//! - **drain guard** — concurrent `drain` calls on one exchange run one
//!   after another and leave exactly the journal one drain leaves;
//! - **live API** — `submit`, `submit_demand`, `poll`, `take`, and
//!   `metrics` return while a drain waits on an outstanding course (the
//!   router never holds the state lock across that wait), and sessions
//!   submitted from several threads while drains loop each get a unique
//!   id, terminate exactly once, and are journaled before their
//!   conclusion; every `metrics` snapshot taken mid-drain is consistent;
//! - **fault injection** — a resolver that fails mid-drain fails exactly
//!   the paying session (waitlisted rivals are woken once, retry, and
//!   close normally; nothing is stranded, nothing re-trains), and so
//!   does a course future dropped before it resolves; a course that
//!   panics makes `drain` panic instead of hanging; crashes sealed
//!   *inside* the course path and truncations of router journals recover
//!   bit-identically;
//! - **observe-only telemetry** — an attached telemetry changes no
//!   journal byte, while the `course_train` histogram spans dispatch →
//!   applied (≥ the simulated latency) and `dispatch_wait` still
//!   populates off-slot.

use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};
use vfl_bench::exchange_setup::TrainingRecorder;
use vfl_bench::worlds::{
    build_world, check_equivalence, clearing_for, demand_for, n_sellers, n_worlds,
    plain_market_spec, plain_order, seller_spec, snapshot, snapshot_with, Reference, World,
    N_DEMANDS, N_EPOCH_DEMANDS, N_PLAIN,
};
use vfl_exchange::{
    frame_boundaries, named_scenarios, read_events, BestResponse, CourseFuture, CourseOrder,
    CourseResolver, CrashPoint, Demand, DemandStatus, DrainReport, Exchange, ExchangeConfig,
    ExchangeEvent, ExchangeTelemetry, Journal, LocalResolver, MarketSpec, MetricsSnapshot,
    ScenarioDriver, ScenarioSpec, SellerSpec, SessionId, SessionOrder, SessionStatus, SettleMode,
    SimulatedRemoteResolver,
};
use vfl_market::session::wire::fnv64;
use vfl_market::{
    GainProvider, Listing, MarketConfig, MarketError, Outcome, ReservedPrice, StrategicData,
    StrategicTask, TableGainProvider,
};
use vfl_sim::BundleMask;

/// Drains a world with `resolver` on `course_tasks` course tasks and
/// snapshots it.
fn snapshot_on(world: &World, course_tasks: usize, resolver: Arc<dyn CourseResolver>) -> Reference {
    snapshot_with(world, |exchange| {
        exchange.set_course_resolver(resolver);
        exchange.drain(course_tasks);
    })
}

// ---------------------------------------------------------------------------
// Pinned parent fixtures
// ---------------------------------------------------------------------------

/// The pinned `(journal fnv64, reference digest)` per `"world <i>"` and
/// `"scenario <name>"` key.
fn pinned() -> HashMap<String, (u64, u64)> {
    include_str!("fixtures/router_parent.txt")
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("hex digest");
            (
                format!("{} {}", fields[0], fields[1]),
                (hex(fields[2]), hex(fields[3])),
            )
        })
        .collect()
}

fn sorted<K: Copy, V>(map: &HashMap<K, V>, id: impl Fn(K) -> u64) -> Vec<(K, &V)> {
    let mut entries: Vec<(K, &V)> = map.iter().map(|(k, v)| (*k, v)).collect();
    entries.sort_unstable_by_key(|&(k, _)| id(k));
    entries
}

/// fnv64 over a canonical rendering of everything a drain decided:
/// outcomes and demand reports in id order, the epoch ledger, the sorted
/// trained-course set, and the full counter snapshot.
fn reference_digest(r: &Reference, metrics: &MetricsSnapshot) -> u64 {
    let mut text = String::new();
    for (sid, outcome) in sorted(&r.outcomes, |s| s.0) {
        writeln!(text, "{sid} {outcome:?}").unwrap();
    }
    for (did, report) in sorted(&r.reports, |d| d.0) {
        writeln!(text, "{did} {report:?}").unwrap();
    }
    let mut trained: Vec<_> = r.trained.iter().copied().collect();
    trained.sort_unstable();
    writeln!(text, "{:?}\n{trained:?}\n{metrics:?}", r.epochs).unwrap();
    fnv64(text.as_bytes())
}

/// Runs a named scenario on a journaled exchange and returns its
/// `(journal fnv64, reference digest)`; the digest also folds in the
/// scenario's conservation counts and demand ids.
fn scenario_digests(spec: ScenarioSpec) -> (u64, u64) {
    let (journal, sink) = Journal::in_memory();
    let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
    let outcome = ScenarioDriver::new(spec).run(&exchange);
    outcome.conservation().expect("scenario conserves demands");
    let mut reference = Reference {
        outcomes: HashMap::new(),
        reports: HashMap::new(),
        epochs: exchange.epoch_history(),
        trained: Default::default(),
    };
    for &did in &outcome.demand_ids {
        if let Some(report) = exchange.take_demand(did) {
            for q in &report.quotes {
                let result = exchange
                    .take(q.session)
                    .expect("terminal")
                    .map(|b| *b)
                    .map_err(|e| e.to_string());
                reference.outcomes.insert(q.session, result);
            }
            reference.reports.insert(did, report);
        }
    }
    let counts = format!(
        "{} {} {} {} {} {} {} {} {} {} {} {:?}",
        outcome.attempts,
        outcome.admitted,
        outcome.shed,
        outcome.rejected,
        outcome.settled,
        outcome.matched,
        outcome.expired,
        outcome.deals,
        outcome.retries,
        outcome.recovered,
        outcome.sellers_registered,
        outcome.demand_ids
    );
    let digest =
        reference_digest(&reference, &exchange.metrics()) ^ fnv64(counts.as_bytes()).rotate_left(1);
    (fnv64(&sink.bytes()), digest)
}

/// The headline property: every replay world drained by the router
/// reproduces the pinned parent journal byte for byte, and the same
/// outcomes, settlements, epochs, trainings, and counters.
#[test]
fn router_matches_pinned_parent_over_every_replay_world() {
    let pinned = pinned();
    for world in 0..n_worlds() {
        let w = build_world(world);
        let reference = snapshot(&w);
        let got = (
            fnv64(&w.sink.bytes()),
            reference_digest(&reference, &w.exchange.metrics()),
        );
        let want = pinned[&format!("world {world}")];
        assert_eq!(got.0, want.0, "world {world}: journal bytes diverged");
        assert_eq!(got.1, want.1, "world {world}: reference diverged");
    }
}

/// All six named open-world scenarios (churn, adversaries, epochs,
/// bursts) reproduce their pinned journals, conservation counts,
/// winners, epoch histories, and counters.
#[test]
fn named_scenarios_match_pinned_parent() {
    let pinned = pinned();
    let specs = named_scenarios();
    assert_eq!(specs.len(), 6);
    for spec in specs {
        let name = spec.name.clone();
        let got = scenario_digests(spec);
        let want = pinned[&format!("scenario {name}")];
        assert_eq!(got.0, want.0, "{name}: journal bytes diverged");
        assert_eq!(got.1, want.1, "{name}: reference diverged");
    }
}

/// The router is deterministic *per seed* in the strongest sense: the
/// journal it produces is byte-identical for any course-task count and
/// any simulated course latency, because the router journals every frame
/// itself and applies completions in strict request order.
#[test]
fn async_journals_are_byte_identical_across_task_counts_and_latencies() {
    let world = 5usize;
    let run = |tasks: usize, resolver: Arc<dyn CourseResolver>| {
        let w = build_world(world);
        let reference = snapshot_on(&w, tasks, resolver);
        (w.sink.bytes(), w.exchange.metrics(), reference)
    };
    let (base_bytes, base_metrics, base_ref) = run(1, Arc::new(LocalResolver));
    for tasks in [1, 4, 8] {
        for latency_us in [0u64, 300, 1000] {
            let resolver: Arc<dyn CourseResolver> = if latency_us == 0 {
                Arc::new(LocalResolver)
            } else {
                Arc::new(SimulatedRemoteResolver::new(Duration::from_micros(
                    latency_us,
                )))
            };
            let name = format!("{tasks} tasks, {latency_us}us");
            let (bytes, metrics, reference) = run(tasks, resolver);
            assert_eq!(bytes, base_bytes, "{name}: journal bytes diverged");
            assert_eq!(metrics, base_metrics, "{name}: counters diverged");
            assert_eq!(
                reference_digest(&reference, &metrics),
                reference_digest(&base_ref, &base_metrics),
                "{name}: reference diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Drain guard
// ---------------------------------------------------------------------------

/// Two threads draining one exchange that holds a demand book (plain
/// sessions, immediate and epoch-mode demands under a clearing window):
/// the drain mutex runs them one after another, both return, every
/// session ends terminal, nothing stays parked, and the journal is byte
/// for byte the one a single drain writes.
#[test]
fn concurrent_drains_serialize_to_the_single_drain_journal() {
    for world in [1usize, 4, 7] {
        let single = build_world(world);
        let single_ref = snapshot(&single);

        let double = build_world(world);
        let double_ref = snapshot_with(&double, |exchange| {
            let start = Barrier::new(2);
            let drain = || {
                start.wait();
                exchange.drain(2)
            };
            let reports = std::thread::scope(|scope| {
                let a = scope.spawn(drain);
                let b = scope.spawn(drain);
                [a.join().expect("drain a"), b.join().expect("drain b")]
            });
            let terminal: usize = reports
                .iter()
                .map(|r| r.closed + r.failed + r.cancelled)
                .sum();
            assert_eq!(
                terminal as u64,
                exchange.metrics().sessions_opened,
                "world {world}: the two drains together terminate every session once"
            );
        });
        // `snapshot_with` took every session and demand, each terminal.
        assert_eq!(double.exchange.session_count(), 0, "world {world}");
        assert_eq!(double.exchange.demand_count(), 0, "world {world}");
        let state = format!("{:?}", double.exchange);
        assert!(
            state.contains("course_waiters: 0"),
            "world {world}: nothing parked ({state})"
        );
        assert_eq!(
            double.sink.bytes(),
            single.sink.bytes(),
            "world {world}: journal diverged from a single drain's"
        );
        assert_eq!(
            reference_digest(&double_ref, &double.exchange.metrics()),
            reference_digest(&single_ref, &single.exchange.metrics()),
            "world {world}"
        );
    }
}

// ---------------------------------------------------------------------------
// A live API while a drain runs
// ---------------------------------------------------------------------------

/// Evaluation key shared by the liveness fixture's market and seller, so
/// every session and candidate there waits on the same single course.
const LIVE_KEY: u64 = 0x1_17e;
const LIVE_GAIN: f64 = 0.3;

/// A one-listing market: every negotiation on it needs exactly the one
/// course `(LIVE_KEY, {0})`.
fn live_market(name: &str) -> MarketSpec {
    let bundle = BundleMask::singleton(0);
    MarketSpec {
        provider: Arc::new(TableGainProvider::new([(bundle, LIVE_GAIN)])),
        listings: Arc::new(vec![Listing {
            bundle,
            reserved: ReservedPrice::new(5.0, 0.8).expect("valid reserve"),
        }]),
        evaluation_key: Some(LIVE_KEY),
        name: name.into(),
    }
}

fn live_cfg() -> MarketConfig {
    MarketConfig {
        utility_rate: 900.0,
        budget: 12.0,
        rate_cap: 20.0,
        ..MarketConfig::default()
    }
}

fn live_order() -> SessionOrder {
    SessionOrder {
        cfg: live_cfg(),
        task: Box::new(StrategicTask::new(0.3, 6.0, 0.9).expect("valid opening")),
        data: Box::new(StrategicData::with_gains(vec![LIVE_GAIN])),
    }
}

/// `submit`, `submit_demand`, `poll`, `take`, and `metrics` return while
/// a drain waits on a course. A 2 s simulated-remote course is
/// outstanding on a drain thread while the test thread makes each call;
/// when they have all returned the course must not have landed yet (no
/// cache miss counted) and the drain must still be running. The session
/// and demand submitted meanwhile wait on that same course and are
/// terminal when the same drain returns. A state lock held across the
/// router's wait for the completion makes every call wait out the course
/// instead, and the landed miss fails the test; the `recv_timeout`
/// watchdog turns a hung drain into a failure.
#[test]
fn api_calls_return_while_a_drain_waits_on_a_course() {
    let exchange = Arc::new(Exchange::new(ExchangeConfig::default()));
    let market = exchange
        .register_market(live_market("live"))
        .expect("register market");
    exchange
        .register_seller(SellerSpec {
            market: live_market("live-seller"),
            quoting: Arc::new(|_| Box::new(StrategicData::with_gains(vec![LIVE_GAIN]))),
        })
        .expect("register seller");
    exchange.set_course_resolver(Arc::new(SimulatedRemoteResolver::new(Duration::from_secs(
        2,
    ))));
    let first = exchange.submit(market, live_order()).expect("submit");

    let (tx, rx) = mpsc::channel();
    let drainer = {
        let exchange = exchange.clone();
        std::thread::spawn(move || {
            let _ = tx.send(exchange.drain(2));
        })
    };
    // The course is outstanding once the router has claimed it. The pause
    // after that lets the router reach its wait for the completion: a
    // router holding the state lock across the wait then blocks the calls
    // below, instead of the calls all finishing before it gets there. A
    // correct exchange passes with or without the pause.
    let waited = Instant::now();
    while exchange.metrics().courses_requested == 0 {
        assert!(
            waited.elapsed() < Duration::from_secs(30),
            "the drain never requested its course"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(100));

    assert!(
        matches!(exchange.poll(first), Some(SessionStatus::Queued { .. })),
        "a session suspended on its course polls as queued"
    );
    assert!(
        exchange.take(first).is_none(),
        "a session suspended on its course is still live"
    );
    let second = exchange
        .submit(market, live_order())
        .expect("submit during the drain");
    let demand = exchange
        .submit_demand(Demand {
            wanted: BundleMask::singleton(0),
            scenario: Some(LIVE_KEY),
            cfg: live_cfg(),
            task: Arc::new(|| Box::new(StrategicTask::new(0.3, 6.0, 0.9).expect("valid opening"))),
            probe_rounds: 1,
            settle: SettleMode::Immediate(Arc::new(BestResponse)),
        })
        .expect("submit_demand during the drain");
    let metrics = exchange.metrics();
    assert_eq!(
        metrics.cache_misses, 0,
        "every call returned while the course was still outstanding"
    );
    assert!(
        matches!(rx.try_recv(), Err(mpsc::TryRecvError::Empty)),
        "the drain is still waiting on its course"
    );

    let report = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the drain hung");
    drainer.join().expect("drain thread");
    for (id, what) in [(first, "first"), (second, "second")] {
        assert!(
            exchange.poll(id).is_some_and(|s| s.is_terminal()),
            "the {what} session is terminal when the drain returns"
        );
    }
    assert!(
        matches!(
            exchange.demand_status(demand),
            Some(DemandStatus::Settled(_))
        ),
        "the demand submitted mid-drain settled in the same drain"
    );
    assert_eq!(
        report.closed + report.failed + report.cancelled,
        3,
        "both sessions and the demand's one candidate terminated in this drain"
    );
    let metrics = exchange.metrics();
    assert_eq!(metrics.cache_misses, 1, "one course served everyone");
}

/// Four threads submit and poll while another thread loops drains on the
/// same exchange. After a final drain every id is unique and terminal,
/// `take` hands each outcome out exactly once, the store is empty, and
/// the journal records each session's submission before its conclusion
/// and concludes it exactly once.
#[test]
fn concurrent_submitters_and_drains_keep_ids_and_journal_order() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 30;
    let (journal, sink) = Journal::in_memory();
    let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
    let recorder = TrainingRecorder::default();
    let market = exchange
        .register_market(plain_market_spec(3, &recorder))
        .expect("register market");
    let submitting = AtomicBool::new(true);
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            let mut drains = 0usize;
            while submitting.load(Ordering::SeqCst) {
                exchange.drain(2);
                drains += 1;
                std::thread::yield_now();
            }
            drains
        });
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let exchange = &exchange;
                scope.spawn(move || {
                    (0..PER_SUBMITTER)
                        .map(|k| {
                            let id = exchange
                                .submit(market, plain_order(3, t * PER_SUBMITTER + k))
                                .expect("submit");
                            assert!(exchange.poll(id).is_some(), "{id} polls after submit");
                            id.0
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let ids = submitters
            .into_iter()
            .flat_map(|h| h.join().expect("submitter"))
            .collect();
        submitting.store(false, Ordering::SeqCst);
        assert!(drainer.join().expect("drainer") >= 1);
        ids
    });
    exchange.drain(2);

    let total = SUBMITTERS * PER_SUBMITTER;
    let unique: HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), total, "every submission got its own id");
    for &id in &ids {
        let id = SessionId(id);
        assert!(
            exchange.poll(id).is_some_and(|s| s.is_terminal()),
            "{id} is terminal after the final drain"
        );
        assert!(exchange.take(id).is_some(), "{id} is taken once");
        assert!(exchange.take(id).is_none(), "{id} is never taken twice");
    }
    assert_eq!(exchange.session_count(), 0, "take emptied the store");

    let (events, dropped) = read_events(&sink.bytes());
    assert_eq!(dropped, 0, "the journal is whole");
    let mut submitted: HashSet<u64> = HashSet::new();
    let mut concluded: HashMap<u64, usize> = HashMap::new();
    for event in &events {
        match event {
            ExchangeEvent::SessionSubmitted { session, .. } => {
                assert!(submitted.insert(session.0), "{session} submitted twice");
            }
            ExchangeEvent::SessionConcluded { session, .. } => {
                assert!(
                    submitted.contains(&session.0),
                    "{session} concluded before its submission was journaled"
                );
                *concluded.entry(session.0).or_default() += 1;
            }
            _ => {}
        }
    }
    assert_eq!(submitted, unique, "the journal records every submission");
    assert!(
        unique.iter().all(|id| concluded.get(id) == Some(&1)),
        "every session concluded exactly once"
    );
}

/// Every `metrics()` snapshot is one critical section's view: a reader
/// polls it while a drain loop runs, a submitter adds plain sessions and
/// demands (immediate and epoch), and courses resolve on a simulated
/// remote, and no snapshot breaks a relation the exchange keeps between
/// its counters. Counters read one at a time can pair an early value with
/// a later one and break these.
#[test]
fn metrics_snapshots_are_consistent_mid_drain() {
    const WORLD: usize = 1;
    const PLAIN: usize = 24;
    const DEMANDS: usize = 8;
    let recorder = TrainingRecorder::default();
    let exchange = Exchange::new(ExchangeConfig::default());
    let market = exchange
        .register_market(plain_market_spec(WORLD, &recorder))
        .expect("register market");
    for s in 0..n_sellers(WORLD) {
        exchange
            .register_seller(seller_spec(WORLD, s, &recorder))
            .expect("register seller");
    }
    exchange
        .open_clearing(clearing_for(WORLD))
        .expect("open the clearing window");
    exchange.set_course_resolver(Arc::new(SimulatedRemoteResolver::new(
        Duration::from_micros(300),
    )));

    let check = |m: &MetricsSnapshot| {
        assert!(
            m.sessions_closed + m.sessions_failed + m.sessions_cancelled <= m.sessions_opened,
            "more sessions ended than opened: {m:?}"
        );
        assert!(
            m.deals_struck <= m.sessions_closed,
            "more deals than closed sessions: {m:?}"
        );
        assert!(
            m.demands_matched <= m.demands_settled && m.demands_settled <= m.demands_submitted,
            "demand counters out of order: {m:?}"
        );
        assert!(
            m.cache_hits + m.cache_misses <= m.courses_requested,
            "more cache answers than course requests: {m:?}"
        );
    };
    let running = AtomicBool::new(true);
    let submitting = AtomicBool::new(true);
    let snapshots = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut snapshots = 0usize;
            while running.load(Ordering::SeqCst) {
                check(&exchange.metrics());
                snapshots += 1;
            }
            snapshots
        });
        let drainer = scope.spawn(|| {
            while submitting.load(Ordering::SeqCst) {
                exchange.drain(2);
                std::thread::yield_now();
            }
        });
        for k in 0..PLAIN {
            exchange
                .submit(market, plain_order(WORLD, k))
                .expect("submit");
            if k % (PLAIN / DEMANDS) == 0 {
                exchange
                    .submit_demand(demand_for(WORLD, k / (PLAIN / DEMANDS)))
                    .expect("submit demand");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        submitting.store(false, Ordering::SeqCst);
        drainer.join().expect("drainer");
        exchange.drain(2);
        running.store(false, Ordering::SeqCst);
        reader.join().expect("reader")
    });
    assert!(snapshots > 0, "the reader took snapshots mid-drain");

    let last = exchange.metrics();
    check(&last);
    assert_eq!(last.demands_submitted, DEMANDS as u64);
    assert_eq!(last.demands_settled, DEMANDS as u64, "every demand settled");
    assert_eq!(
        last.sessions_in_flight(),
        0,
        "every session ended after the final drain: {last:?}"
    );
}

// ---------------------------------------------------------------------------
// Fault injection in the course path
// ---------------------------------------------------------------------------

/// A resolver that fails the first `fail_first` course resolutions with a
/// gain error and then behaves like [`LocalResolver`] — the remote-course
/// failure model.
#[derive(Debug)]
struct FlakyResolver {
    fail_first: usize,
    seen: AtomicUsize,
}

impl CourseResolver for FlakyResolver {
    fn resolve(&self, order: &CourseOrder) -> CourseFuture {
        if self.seen.fetch_add(1, Ordering::SeqCst) < self.fail_first {
            Box::pin(std::future::ready(Err(MarketError::Gain(
                "injected remote course failure".into(),
            ))))
        } else {
            LocalResolver.resolve(order)
        }
    }
}

/// Drains [`IDENTICAL_ORDERS`] identical orders (same seed) on one plain
/// market through `resolver` on two course tasks, and returns the drain
/// report, every session's outcome (errors as strings), and what the
/// providers trained. Identical orders close identically on a clean run,
/// so one faulted payer's rivals can be checked against any of them.
fn drain_identical_orders(
    resolver: Arc<dyn CourseResolver>,
) -> (
    DrainReport,
    Vec<Result<Outcome, String>>,
    TrainingRecorder,
    MetricsSnapshot,
) {
    let recorder = TrainingRecorder::default();
    let exchange = Exchange::new(ExchangeConfig::default());
    let market = exchange
        .register_market(plain_market_spec(0, &recorder))
        .expect("register market");
    let sids: Vec<_> = (0..IDENTICAL_ORDERS)
        .map(|_| exchange.submit(market, plain_order(0, 0)).expect("submit"))
        .collect();
    exchange.set_course_resolver(resolver);
    let report = exchange.drain(2);
    let outcomes = sids
        .iter()
        .map(|&sid| {
            exchange
                .take(sid)
                .expect("terminal after drain")
                .map(|b| *b)
                .map_err(|e| e.to_string())
        })
        .collect();
    (report, outcomes, recorder, exchange.metrics())
}

/// Sessions [`drain_identical_orders`] submits: all on the same first
/// course, so every one but the payer waits on its claim.
const IDENTICAL_ORDERS: usize = 4;

/// A failed course resolution fails exactly the paying session; every
/// rival waiting on the course's claim is woken exactly once, retries the
/// claim, and closes normally (one of them becoming the new payer). No
/// session is stranded — the drain terminates with all sessions terminal
/// — no course is trained twice, and the failed course counts no cache
/// miss.
#[test]
fn a_failed_course_resolution_fails_only_the_paying_session() {
    let (clean_report, clean_outcomes, clean_recorder, clean_metrics) =
        drain_identical_orders(Arc::new(LocalResolver));
    assert_eq!(clean_report.failed, 0);
    let clean_outcome = clean_outcomes[0].clone();
    for outcome in &clean_outcomes {
        assert_eq!(
            outcome, &clean_outcome,
            "identical orders close identically"
        );
    }

    let (report, outcomes, recorder, metrics) = drain_identical_orders(Arc::new(FlakyResolver {
        fail_first: 1,
        seen: AtomicUsize::new(0),
    }));
    assert_eq!(report.failed, 1, "exactly the paying session fails");
    assert_eq!(
        report.closed + report.failed,
        IDENTICAL_ORDERS,
        "no session stranded"
    );
    let (failed, closed): (Vec<_>, Vec<_>) = outcomes.iter().partition(|o| o.is_err());
    assert_eq!(failed.len(), 1);
    assert!(
        failed[0]
            .as_ref()
            .unwrap_err()
            .contains("injected remote course failure"),
        "the payer carries the resolver's error: {failed:?}"
    );
    for outcome in closed {
        assert_eq!(
            outcome, &clean_outcome,
            "woken rivals close exactly like a clean run"
        );
    }
    // The aborted claim released the key: a rival re-claimed and trained
    // each course exactly once (no double-training, no retrain).
    assert_eq!(
        recorder.count(),
        recorder.set().len(),
        "every course trained at most once"
    );
    assert_eq!(
        recorder.set(),
        clean_recorder.set(),
        "the retry pays exactly the clean run's courses"
    );
    assert_eq!(
        metrics.cache_misses, clean_metrics.cache_misses,
        "only successful trainings are misses"
    );
}

/// A gain provider whose every training panics.
struct PanickingProvider;

impl GainProvider for PanickingProvider {
    fn gain(&self, _bundle: BundleMask) -> vfl_market::Result<f64> {
        panic!("provider exploded mid-course");
    }
}

/// A course that panics makes `drain` panic with the provider's message
/// instead of waiting forever for a completion that never comes. Each
/// drain runs on a watchdog thread, so a regression fails by timeout
/// rather than hanging the suite.
#[test]
fn a_panicking_course_propagates_out_of_drain() {
    let arms: Vec<(usize, Arc<dyn CourseResolver>)> = vec![
        (1, Arc::new(LocalResolver)),
        (2, Arc::new(LocalResolver)),
        (
            2,
            Arc::new(SimulatedRemoteResolver::new(Duration::from_micros(200))),
        ),
    ];
    for (tasks, resolver) in arms {
        let (tx, rx) = mpsc::channel();
        let watched = std::thread::spawn(move || {
            let exchange = Exchange::new(ExchangeConfig::default());
            let (listings, _) = vfl_bench::worlds::plain_listings_gains(0);
            let market = exchange
                .register_market(MarketSpec {
                    provider: Arc::new(PanickingProvider),
                    listings: Arc::new(listings),
                    evaluation_key: None,
                    name: "panicky".into(),
                })
                .expect("register market");
            for k in 0..3 {
                exchange.submit(market, plain_order(0, k)).expect("submit");
            }
            exchange.set_course_resolver(resolver);
            let drained =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exchange.drain(tasks)));
            let message = drained.map(|_| ()).map_err(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        let drained = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{tasks} course tasks: drain hung on a panicking course"));
        watched
            .join()
            .expect("the watched thread caught the drain's panic");
        let message = drained.expect_err("a panicking course must panic the drain");
        assert!(
            message.contains("provider exploded mid-course"),
            "{tasks} course tasks: drain panicked with {message:?}"
        );
    }
}

/// A resolver whose first course future returns `Pending` without keeping
/// its waker, so no wake can ever reach it and the course task drops it
/// unresolved; every later course trains like [`LocalResolver`].
#[derive(Debug, Default)]
struct ForgetfulResolver {
    seen: AtomicUsize,
}

impl CourseResolver for ForgetfulResolver {
    fn resolve(&self, order: &CourseOrder) -> CourseFuture {
        if self.seen.fetch_add(1, Ordering::SeqCst) == 0 {
            Box::pin(std::future::pending())
        } else {
            LocalResolver.resolve(order)
        }
    }
}

/// A course future dropped before it resolves fails its paying session
/// instead of hanging the drain: the payer's error names the dropped
/// future, the claim is aborted, its waiting rivals wake, one of them
/// pays the course again, and they all close exactly like a clean run.
/// The drain runs on a watchdog thread, so a regression fails by timeout
/// rather than hanging the suite.
#[test]
fn a_dropped_course_future_fails_its_session_not_the_drain() {
    let (tx, rx) = mpsc::channel();
    let watched = std::thread::spawn(move || {
        let _ = tx.send(drain_identical_orders(Arc::new(
            ForgetfulResolver::default(),
        )));
    });
    let (report, outcomes, recorder, _) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the drain hung on a dropped course future");
    watched.join().expect("the watched drain thread");

    let (_, clean_outcomes, clean_recorder, _) = drain_identical_orders(Arc::new(LocalResolver));
    assert_eq!(report.failed, 1, "exactly the paying session fails");
    assert_eq!(
        report.closed + report.failed,
        IDENTICAL_ORDERS,
        "no session stranded"
    );
    let (failed, closed): (Vec<_>, Vec<_>) = outcomes.iter().partition(|o| o.is_err());
    assert_eq!(failed.len(), 1);
    let message = failed[0].as_ref().unwrap_err();
    assert!(
        message.contains("course future") && message.contains("dropped before it resolved"),
        "the payer's error names the dropped future: {message}"
    );
    for outcome in closed {
        assert_eq!(
            outcome, &clean_outcomes[0],
            "woken rivals close exactly like a clean run"
        );
    }
    assert_eq!(
        recorder.set(),
        clean_recorder.set(),
        "the retry pays exactly the clean run's courses"
    );
}

/// Counts course-task exits: a thread that trained a course through a
/// [`ThreadRecorder`] bumps the counter when the thread ends (its
/// thread-locals drop before a join of it returns).
struct ExitCount(Arc<AtomicUsize>);

impl Drop for ExitCount {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

thread_local! {
    static COURSE_TASK_EXIT: std::cell::RefCell<Option<ExitCount>> =
        const { std::cell::RefCell::new(None) };
}

/// A provider that records the thread of every training and arms that
/// thread's [`ExitCount`]; with `panics` set, every training then panics.
#[derive(Default)]
struct ThreadRecorder {
    threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    exits: Arc<AtomicUsize>,
    panics: bool,
}

impl ThreadRecorder {
    fn threads(&self) -> Vec<std::thread::ThreadId> {
        self.threads.lock().unwrap().clone()
    }
}

impl GainProvider for ThreadRecorder {
    fn gain(&self, _bundle: BundleMask) -> vfl_market::Result<f64> {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        COURSE_TASK_EXIT.with(|exit| {
            exit.borrow_mut()
                .get_or_insert_with(|| ExitCount(self.exits.clone()));
        });
        assert!(!self.panics, "recorded course panicked");
        Ok(LIVE_GAIN)
    }
}

/// A one-listing market like [`live_market`] whose one course, under
/// `key`, trains on `provider`.
fn recorded_market(
    exchange: &Exchange,
    provider: &Arc<ThreadRecorder>,
    key: u64,
) -> vfl_exchange::MarketId {
    exchange
        .register_market(MarketSpec {
            provider: provider.clone(),
            evaluation_key: Some(key),
            ..live_market(&format!("recorded-{key}"))
        })
        .expect("register market")
}

/// The course tasks outlive a drain: two drains that train on one course
/// task each run their course on the same thread (the second spawns
/// none), a drain asking for another task count gets a fresh pool and
/// joins the old one, and dropping the exchange joins the pool. A pool
/// that leaks leaves its threads asleep and the exit count short.
#[test]
fn course_tasks_outlive_a_drain_and_join_when_the_exchange_drops() {
    let provider = Arc::new(ThreadRecorder::default());
    let exits = provider.exits.clone();
    let exchange = Exchange::new(ExchangeConfig::default());
    let drain_on_fresh_market = |key: u64, tasks: usize| {
        let market = recorded_market(&exchange, &provider, key);
        exchange.submit(market, live_order()).expect("submit");
        let before = provider.threads().len();
        let report = exchange.drain(tasks);
        assert_eq!(report.closed, 1, "key {key:#x}");
        let threads = provider.threads();
        assert_eq!(threads.len(), before + 1, "key {key:#x} trained once");
        threads[before]
    };
    let first = drain_on_fresh_market(1, 1);
    let second = drain_on_fresh_market(2, 1);
    assert_eq!(first, second, "the second drain reused the first's task");
    assert_eq!(exits.load(Ordering::SeqCst), 0, "the pool outlives drains");
    // A cache-served drain touches no thread.
    let market = recorded_market(&exchange, &provider, 2);
    exchange.submit(market, live_order()).expect("submit");
    assert_eq!(exchange.drain(1).closed, 1);
    assert_eq!(provider.threads().len(), 2, "served from the cache");
    // Another task count: the one-task pool is joined, a fresh one runs.
    let third = drain_on_fresh_market(3, 2);
    assert_ne!(third, first, "a fresh pool for another task count");
    assert_eq!(exits.load(Ordering::SeqCst), 1, "the old pool was joined");
    drop(exchange);
    assert_eq!(
        exits.load(Ordering::SeqCst),
        2,
        "dropping the exchange joined its pool"
    );
}

/// A course panic that unwinds out of `drain` closes and joins the
/// pool on its way, before the exchange itself is dropped.
#[test]
fn a_panicking_course_joins_the_course_tasks() {
    let provider = Arc::new(ThreadRecorder {
        panics: true,
        ..ThreadRecorder::default()
    });
    let exchange = Exchange::new(ExchangeConfig::default());
    let market = recorded_market(&exchange, &provider, 1);
    exchange.submit(market, live_order()).expect("submit");
    let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exchange.drain(1)));
    assert!(drained.is_err(), "the course panic propagated");
    assert_eq!(provider.threads().len(), 1);
    assert_eq!(
        provider.exits.load(Ordering::SeqCst),
        1,
        "the unwind joined the course task"
    );
}

/// Seals the journal at the `nth` crash point matching `pred` while the
/// router drains, then proves the sealed journal recovers bit-identically
/// — crash recovery inside the course path.
fn async_crash_and_check(
    world: usize,
    nth: usize,
    pred: impl Fn(&CrashPoint) -> bool + Send + Sync + 'static,
    ctx: &str,
) -> bool {
    let w = build_world(world);
    let fired = Arc::new(AtomicUsize::new(0));
    {
        let journal = w.journal.clone();
        let fired = fired.clone();
        w.exchange
            .set_crash_hook(Some(Arc::new(move |point: &CrashPoint| {
                if pred(point) && fired.fetch_add(1, Ordering::SeqCst) == nth {
                    journal.seal();
                }
            })));
    }
    let reference = snapshot_on(&w, 3, Arc::new(LocalResolver));
    let hit = fired.load(Ordering::SeqCst) > nth;
    if hit {
        assert!(w.journal.is_sealed(), "{ctx}: the crash must have sealed");
    }
    check_equivalence(
        world,
        &reference,
        &w.sink.bytes(),
        &w.plain_map,
        &w.demand_map,
        ctx,
    );
    hit
}

/// Crashes landing inside the course path — after the router applied a
/// training but before/after its journal record — recover
/// bit-identically (the never-acknowledged course is legitimately
/// re-trained; an acknowledged one never is).
#[test]
fn async_crashes_inside_the_course_path_recover_bit_identically() {
    for world in 2..6 {
        assert!(
            async_crash_and_check(
                world,
                0,
                |p| matches!(p, CrashPoint::CourseTrained { .. }),
                &format!("world {world}: crash after training, before its record"),
            ),
            "course crash point must fire"
        );
        assert!(
            async_crash_and_check(
                world,
                0,
                |p| matches!(p, CrashPoint::CourseRecorded { .. }),
                &format!("world {world}: crash after the course record"),
            ),
            "course-recorded crash point must fire"
        );
        assert!(
            async_crash_and_check(
                world,
                1,
                |p| matches!(p, CrashPoint::Dispatched(_)),
                &format!("world {world}: crash at dispatch"),
            ),
            "dispatch crash point must fire"
        );
    }
}

/// A router journal, truncated at every event boundary, recovers and
/// resumes to the uninterrupted run's exact reference.
#[test]
fn truncated_async_journals_replay_bit_identically() {
    let world = 4usize;
    let w = build_world(world);
    let reference = snapshot_on(&w, 4, Arc::new(LocalResolver));
    let bytes = w.sink.bytes();
    let boundaries = frame_boundaries(&bytes);
    assert!(boundaries.len() > 8, "a real event stream");
    for &cut in std::iter::once(&0usize).chain(boundaries.iter()) {
        check_equivalence(
            world,
            &reference,
            &bytes[..cut],
            &w.plain_map,
            &w.demand_map,
            &format!("async world {world} cut {cut}/{}", bytes.len()),
        );
    }
}

// ---------------------------------------------------------------------------
// Telemetry under the router
// ---------------------------------------------------------------------------

/// A journaled world-shaped fixture assembled from the shared generators,
/// with an optional telemetry attachment (the one piece [`build_world`]
/// does not parameterize).
fn drained_async_fixture(
    world: usize,
    telemetry: Option<Arc<ExchangeTelemetry>>,
    resolver: Arc<dyn CourseResolver>,
) -> (Vec<u8>, MetricsSnapshot, TrainingRecorder) {
    let recorder = TrainingRecorder::default();
    let (journal, sink) = Journal::in_memory();
    let exchange = match telemetry {
        Some(t) => Exchange::with_journal_and_telemetry(ExchangeConfig::default(), journal, t),
        None => Exchange::with_journal(ExchangeConfig::default(), journal),
    };
    let market = exchange
        .register_market(plain_market_spec(world, &recorder))
        .expect("register market");
    for s in 0..n_sellers(world) {
        exchange
            .register_seller(seller_spec(world, s, &recorder))
            .expect("register seller");
    }
    exchange
        .open_clearing(clearing_for(world))
        .expect("open clearing");
    for k in 0..N_PLAIN {
        exchange
            .submit(market, plain_order(world, k))
            .expect("submit");
    }
    for d in 0..N_DEMANDS + N_EPOCH_DEMANDS {
        exchange
            .submit_demand(demand_for(world, d))
            .expect("demand");
    }
    exchange.set_course_resolver(resolver);
    exchange.drain(3);
    (sink.bytes(), exchange.metrics(), recorder)
}

/// The observe-only invariant, re-proven with courses resolved off-slot:
/// the router is the only journaling thread, so telemetry-on and
/// telemetry-off drains must produce BYTE-identical journals.
#[test]
fn telemetry_is_observe_only_under_the_async_backend() {
    let world = 6usize;
    let (off_bytes, off_metrics, _) = drained_async_fixture(world, None, Arc::new(LocalResolver));
    let telemetry = ExchangeTelemetry::new();
    let (on_bytes, on_metrics, _) =
        drained_async_fixture(world, Some(telemetry.clone()), Arc::new(LocalResolver));
    assert_eq!(off_metrics, on_metrics, "telemetry moved a counter");
    assert_eq!(
        off_bytes, on_bytes,
        "telemetry leaked into the async journal"
    );
}

/// The stage histograms stay sane when courses resolve off-slot: every
/// paid course lands one `course_train` sample spanning dispatch →
/// applied (so its p50 is at least the simulated remote latency), the
/// quantiles are ordered, and `dispatch_wait` still populates.
#[test]
fn async_stage_histograms_span_the_off_slot_course() {
    let world = 6usize;
    let latency = Duration::from_micros(500);
    let telemetry = ExchangeTelemetry::new();
    let (_, metrics, recorder) = drained_async_fixture(
        world,
        Some(telemetry.clone()),
        Arc::new(SimulatedRemoteResolver::new(latency)),
    );
    let train = telemetry
        .stage_snapshot("course_train")
        .expect("registered stage");
    assert_eq!(
        train.count, metrics.cache_misses,
        "one course_train sample per paid course"
    );
    assert!(train.count >= recorder.set().len() as u64);
    let (p50, p95, p99) = (train.p50(), train.p95(), train.p99());
    assert!(
        p50 >= latency.as_nanos() as u64,
        "a dispatch→applied span covers the remote latency: p50 {p50}ns < {latency:?}"
    );
    assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    assert!(p99 <= train.max);
    let wait = telemetry
        .stage_snapshot("dispatch_wait")
        .expect("registered stage");
    assert!(
        wait.count > 0,
        "queued sessions still settle dispatch_wait samples off-slot"
    );
}
