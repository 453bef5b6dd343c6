//! E8 — journal overhead and crash recovery: drains the same demand book
//! twice (journaling off vs on, in-memory sink), records demands/sec for
//! both plus the journal's size, then truncates the journal mid-stream,
//! recovers, and resumes — asserting the resumed outcomes match and that
//! only unjournaled courses are re-trained. Results accrue to
//! `results/BENCH_replay.json`.
//!
//! E10 — bounded-cost recovery: re-runs the same book checkpointing every
//! `interval` demands, then measures what the checkpoints buy — events
//! skipped at recovery, recover/resume wall time, and the compacted
//! generation's size — and asserts the checkpointed run's winners are
//! identical to the plain run's (checkpointing is pure observation).
//!
//! Custom harness (no criterion): the unit of measurement is a whole
//! drain, and the off/on pair must run the *identical* workload (same
//! sellers, same demands, same seeds) for the overhead ratio to mean
//! anything. Sellers are synthetic table markets, so the numbers isolate
//! journaling cost — every event append, none of the model-training time
//! that would dwarf it in production (i.e. this is the worst case for
//! relative overhead).
//!
//! `REPLAY_BENCH_DEMANDS` overrides the demand count (dev loops).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vfl_bench::exchange_setup::{CountingGainProvider, TrainingRecorder};
use vfl_bench::report::write_bench_json;
use vfl_exchange::{
    read_events, BestResponse, Demand, DemandId, Exchange, ExchangeConfig, ExchangeEvent, Journal,
    MarketSpec, ReplaySpec, SellerSpec, SettleMode,
};
use vfl_market::{
    DataStrategy, Listing, MarketConfig, Outcome, ReservedPrice, StrategicData, StrategicTask,
    TableGainProvider,
};
use vfl_sim::BundleMask;

const FEATURES: usize = 8;
const N_SELLERS: usize = 8;

fn seller_features(s: usize) -> Vec<usize> {
    let width = 3 + s % 4;
    let mut features: Vec<usize> = (0..width).map(|i| (s * 3 + i * 2) % FEATURES).collect();
    features.sort_unstable();
    features.dedup();
    features
}

fn seller_listings_gains(s: usize) -> (Vec<Listing>, Vec<f64>) {
    let features = seller_features(s);
    let listings = features
        .iter()
        .enumerate()
        .map(|(i, &f)| Listing {
            bundle: BundleMask::singleton(f),
            reserved: ReservedPrice::new(3.0 + i as f64 * 1.2, 0.4 + i as f64 * 0.12)
                .expect("valid reserve"),
        })
        .collect();
    let gains = features
        .iter()
        .enumerate()
        .map(|(i, _)| 0.04 + 0.32 * ((s * 7 + i * 11) % 13) as f64 / 12.0)
        .collect();
    (listings, gains)
}

fn seller_spec(s: usize, recorder: &TrainingRecorder) -> SellerSpec {
    let (listings, gains) = seller_listings_gains(s);
    let inner = TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
    let by_bundle: HashMap<u64, f64> = listings
        .iter()
        .zip(&gains)
        .map(|(l, &g)| (l.bundle.0, g))
        .collect();
    SellerSpec {
        market: MarketSpec {
            provider: Arc::new(CountingGainProvider::new(inner, 7_000 + s as u64, recorder)),
            listings: Arc::new(listings),
            evaluation_key: Some(7_000 + s as u64),
            name: format!("seller-{s}"),
        },
        quoting: Arc::new(move |table: &[Listing]| {
            Box::new(StrategicData::with_gains(
                table.iter().map(|l| by_bundle[&l.bundle.0]).collect(),
            )) as Box<dyn DataStrategy + Send>
        }),
    }
}

fn buyer_demand(d: usize) -> Demand {
    let wanted = BundleMask::from_features(&[d % FEATURES, (d + 2) % FEATURES, (d + 5) % FEATURES]);
    Demand {
        wanted,
        scenario: None,
        cfg: MarketConfig {
            utility_rate: 600.0 + 200.0 * (d % 5) as f64,
            budget: 10.0 + (d % 4) as f64,
            rate_cap: 20.0,
            seed: d as u64,
            ..MarketConfig::default()
        },
        task: Arc::new(|| Box::new(StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening"))),
        probe_rounds: 2,
        settle: SettleMode::Immediate(Arc::new(BestResponse)),
    }
}

struct Arm {
    label: &'static str,
    elapsed: Duration,
    demands_per_sec: f64,
    journal_bytes: usize,
    journal_records: u64,
    /// Winner (seller index) and winning outcome per demand, for the
    /// journaling-must-not-change-results assertion.
    winners: Vec<(Option<usize>, Option<Outcome>)>,
    demand_map: HashMap<DemandId, usize>,
}

fn run_arm(n_demands: usize, journal: Option<(Arc<Journal>, &vfl_exchange::MemorySink)>) -> Arm {
    let recorder = TrainingRecorder::default();
    let (label, exchange) = match &journal {
        Some((j, _)) => (
            "on",
            Exchange::with_journal(ExchangeConfig::default(), j.clone()),
        ),
        None => ("off", Exchange::new(ExchangeConfig::default())),
    };
    for s in 0..N_SELLERS {
        exchange
            .register_seller(seller_spec(s, &recorder))
            .expect("register seller");
    }
    let mut demand_map = HashMap::new();
    let demands: Vec<DemandId> = (0..n_demands)
        .map(|d| {
            let did = exchange
                .submit_demand(buyer_demand(d))
                .expect("submit demand");
            demand_map.insert(did, d);
            did
        })
        .collect();
    let start = Instant::now();
    let report = exchange.drain(4);
    let elapsed = start.elapsed();
    assert_eq!(report.failed, 0, "hard failures in the replay bench");
    let winners = demands
        .iter()
        .map(|&did| {
            let settled = exchange.take_demand(did).expect("settled");
            let outcome = settled
                .winning_session()
                .map(|sid| *exchange.take(sid).expect("terminal").expect("no error"));
            (settled.winner, outcome)
        })
        .collect();
    let (journal_bytes, journal_records) = match &journal {
        Some((j, sink)) => (sink.len(), j.records()),
        None => (0, 0),
    };
    Arm {
        label,
        elapsed,
        demands_per_sec: n_demands as f64 / elapsed.as_secs_f64().max(1e-9),
        journal_bytes,
        journal_records,
        winners,
        demand_map,
    }
}

fn main() {
    let n_demands: usize = std::env::var("REPLAY_BENCH_DEMANDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);

    eprintln!("draining {n_demands} demands, journaling off…");
    let off = run_arm(n_demands, None);
    eprintln!("draining {n_demands} demands, journaling on…");
    let (journal, sink) = Journal::in_memory();
    let on = run_arm(n_demands, Some((journal, &sink)));

    // Journaling must be pure observation: identical winners and outcomes.
    assert_eq!(off.winners.len(), on.winners.len());
    for (d, (a, b)) in off.winners.iter().zip(&on.winners).enumerate() {
        assert_eq!(a.0, b.0, "demand {d}: journaling changed the winner");
        assert_eq!(a.1, b.1, "demand {d}: journaling changed the outcome");
    }

    let overhead = on.elapsed.as_secs_f64() / off.elapsed.as_secs_f64().max(1e-9);
    println!("\n== E8 journal overhead ({n_demands} demands, {N_SELLERS} sellers, 4 workers) ==");
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>14}",
        "journal", "elapsed_s", "demands/s", "journal_bytes", "records"
    );
    for arm in [&off, &on] {
        println!(
            "{:>8} {:>10.4} {:>12.1} {:>14} {:>14}",
            arm.label,
            arm.elapsed.as_secs_f64(),
            arm.demands_per_sec,
            arm.journal_bytes,
            arm.journal_records,
        );
    }
    println!("journaling-on elapsed ratio: {overhead:.3}x");

    // Crash recovery arm: truncate the journal at ~60% of its frames,
    // recover, resume, and prove the zero-retrain guarantee end to end.
    let bytes = sink.bytes();
    let boundaries = vfl_exchange::frame_boundaries(&bytes);
    let cut = boundaries[boundaries.len() * 6 / 10];
    let prefix = &bytes[..cut];
    let (events, _) = read_events(prefix);
    let prefix_courses: HashSet<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            ExchangeEvent::CourseServed {
                eval_key, bundle, ..
            } => Some((*eval_key, bundle.0)),
            _ => None,
        })
        .collect();

    let recorder = TrainingRecorder::default();
    let demand_map = on.demand_map.clone();
    let spec = ReplaySpec {
        markets: Vec::new(),
        sellers: (0..N_SELLERS).map(|s| seller_spec(s, &recorder)).collect(),
        orders: Box::new(|sid| panic!("no plain sessions in this bench ({sid})")),
        demands: Box::new(move |did| buyer_demand(demand_map[&did])),
        clearing: None,
    };
    let recover_start = Instant::now();
    let (recovered, report) = Exchange::recover(ExchangeConfig::default(), prefix, spec, None)
        .expect("recovery from the truncated journal");
    let recover_elapsed = recover_start.elapsed();
    let resume_start = Instant::now();
    recovered.drain(4);
    let resume_elapsed = resume_start.elapsed();

    let retrained = recorder.set();
    assert!(
        retrained.is_disjoint(&prefix_courses),
        "recovery re-trained a journaled course"
    );
    let mut resumed_identical = 0usize;
    for (did, &d) in &on.demand_map {
        let Some(settled) = recovered.take_demand(*did) else {
            continue; // demand past the truncation point
        };
        let (ref_winner, ref_outcome) = &on.winners[d];
        assert_eq!(settled.winner, *ref_winner, "demand {d}: winner diverged");
        let outcome = settled
            .winning_session()
            .map(|sid| *recovered.take(sid).expect("terminal").expect("no error"));
        assert_eq!(&outcome, ref_outcome, "demand {d}: outcome diverged");
        resumed_identical += 1;
    }
    println!(
        "recovery: {} events ({} courses preloaded) in {:.2} ms, resume {:.2} ms, \
         {} demands re-settled identically, {} courses re-trained (unjournaled only)",
        report.events,
        report.courses_preloaded,
        recover_elapsed.as_secs_f64() * 1e3,
        resume_elapsed.as_secs_f64() * 1e3,
        resumed_identical,
        retrained.len(),
    );
    assert!(
        resumed_identical > 0,
        "the cut must leave demands to resume"
    );

    let json = format!(
        "{{\n  \"bench\": \"replay\",\n  \"profile\": \"fast\",\n  \"demands\": {n_demands},\n  \
         \"sellers\": {N_SELLERS},\n  \"workers\": 4,\n  \"runs\": [\n    \
         {{\"journal\": \"off\", \"elapsed_s\": {:.6}, \"demands_per_sec\": {:.3}}},\n    \
         {{\"journal\": \"on\", \"elapsed_s\": {:.6}, \"demands_per_sec\": {:.3}, \
         \"journal_bytes\": {}, \"journal_records\": {}}}\n  ],\n  \
         \"overhead_ratio\": {:.6},\n  \"recovery\": {{\n    \"cut_fraction\": 0.6,\n    \
         \"events_replayed\": {},\n    \"courses_preloaded\": {},\n    \
         \"courses_retrained\": {},\n    \"recover_ms\": {:.3},\n    \"resume_ms\": {:.3},\n    \
         \"demands_resettled_identically\": {}\n  }}\n}}\n",
        off.elapsed.as_secs_f64(),
        off.demands_per_sec,
        on.elapsed.as_secs_f64(),
        on.demands_per_sec,
        on.journal_bytes,
        on.journal_records,
        overhead,
        report.events,
        report.courses_preloaded,
        retrained.len(),
        recover_elapsed.as_secs_f64() * 1e3,
        resume_elapsed.as_secs_f64() * 1e3,
        resumed_identical,
    );
    // ---- E10: checkpoint interval sweep ------------------------------------
    // Checkpoint every `interval` demands and measure what that buys at
    // recovery time: skipped events, recover/resume wall time, and the
    // compacted generation's size. Results must stay bit-identical.
    println!("\n== E10 checkpoint sweep ({n_demands} demands, {N_SELLERS} sellers, 4 workers) ==");
    println!(
        "{:>9} {:>12} {:>14} {:>14} {:>14} {:>11} {:>10}",
        "interval",
        "checkpoints",
        "journal_bytes",
        "compact_bytes",
        "events_skipped",
        "recover_ms",
        "resume_ms"
    );
    let mut sweep_rows = Vec::new();
    for interval in [n_demands, n_demands.div_ceil(2), n_demands.div_ceil(8)] {
        let (ckpt_journal, ckpt_sink) = Journal::in_memory();
        let recorder = TrainingRecorder::default();
        let exchange = Exchange::with_journal(ExchangeConfig::default(), ckpt_journal.clone());
        for s in 0..N_SELLERS {
            exchange
                .register_seller(seller_spec(s, &recorder))
                .expect("register seller");
        }
        let mut demand_map = HashMap::new();
        let mut checkpoints = 0usize;
        let mut submitted = 0usize;
        while submitted < n_demands {
            let batch = interval.min(n_demands - submitted);
            for d in submitted..submitted + batch {
                let did = exchange
                    .submit_demand(buyer_demand(d))
                    .expect("submit demand");
                demand_map.insert(did, d);
            }
            submitted += batch;
            exchange.drain(4);
            exchange.checkpoint().expect("drain-idle checkpoint");
            checkpoints += 1;
        }
        // Checkpointing is pure observation: identical winners/outcomes.
        for (did, &d) in &demand_map {
            let settled = exchange.take_demand(*did).expect("settled");
            let (ref_winner, ref_outcome) = &on.winners[d];
            assert_eq!(settled.winner, *ref_winner, "demand {d}: winner diverged");
            let outcome = settled
                .winning_session()
                .map(|sid| *exchange.take(sid).expect("terminal").expect("no error"));
            assert_eq!(&outcome, ref_outcome, "demand {d}: outcome diverged");
        }
        let bytes = ckpt_sink.bytes();

        let recorder = TrainingRecorder::default();
        let map = demand_map.clone();
        let spec = ReplaySpec {
            markets: Vec::new(),
            sellers: (0..N_SELLERS).map(|s| seller_spec(s, &recorder)).collect(),
            orders: Box::new(|sid| panic!("no plain sessions in this bench ({sid})")),
            demands: Box::new(move |did| buyer_demand(map[&did])),
            clearing: None,
        };
        let recover_start = Instant::now();
        let (recovered, report) = Exchange::recover(ExchangeConfig::default(), &bytes, spec, None)
            .expect("recovery from the checkpointed journal");
        let recover_ms = recover_start.elapsed().as_secs_f64() * 1e3;
        let resume_start = Instant::now();
        recovered.drain(4);
        let resume_ms = resume_start.elapsed().as_secs_f64() * 1e3;
        assert!(report.checkpoint_restored);
        assert!(
            recorder.set().is_empty(),
            "a complete checkpointed journal re-trains nothing"
        );

        let gen2_sink = vfl_exchange::MemorySink::default();
        let (_, cstats) = ckpt_journal
            .compact(&bytes, Box::new(gen2_sink.clone()))
            .expect("compact");
        let compact_bytes = gen2_sink.bytes().len();
        assert_eq!(
            cstats.events_after, 1,
            "final checkpoint compacts to itself"
        );

        println!(
            "{:>9} {:>12} {:>14} {:>14} {:>14} {:>11.3} {:>10.3}",
            interval,
            checkpoints,
            bytes.len(),
            compact_bytes,
            report.events_skipped,
            recover_ms,
            resume_ms,
        );
        sweep_rows.push(format!(
            "    {{\"interval\": {interval}, \"checkpoints\": {checkpoints}, \
             \"journal_bytes\": {}, \"compact_bytes\": {compact_bytes}, \
             \"events_skipped\": {}, \"recover_ms\": {recover_ms:.3}, \
             \"resume_ms\": {resume_ms:.3}}}",
            bytes.len(),
            report.events_skipped,
        ));
    }

    let json = format!(
        "{},\n  \"checkpoint_sweep\": [\n{}\n  ]\n}}\n",
        json.trim_end().trim_end_matches('}').trim_end(),
        sweep_rows.join(",\n")
    );
    write_bench_json("replay", &json);
}
