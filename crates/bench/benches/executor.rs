//! E14 — executor latency tolerance: one session book drained by the
//! router with courses resolved off-slot through a
//! [`vfl_exchange::SimulatedRemoteResolver`], swept across simulated
//! course latencies from µs to 100 ms.
//!
//! The shape this measures: with `S` sessions on private-key markets
//! (every course is paid, nothing collapses into cache hits), `C` courses
//! per session, and course latency `L`, an executor that holds a thread
//! per in-flight course drains in ≈ `S·C·L / threads`. The router keeps
//! every session's course in flight at once (an in-flight course is a
//! timer entry, not a thread), so its wall is ≈ `C·L` — the pipeline
//! depth of ONE session. The gate is the **course overlap**, trained
//! courses × latency ÷ drain wall: the average number of courses in
//! flight. At 10 ms and 100 ms it must be ≥ 12, three times what a
//! 4-thread executor could reach (a 4-worker pool overlaps at most 4
//! courses). Outcomes are asserted identical across latencies — the
//! overlap only means something because latency changes no result.
//!
//! Custom harness (no criterion): the unit is a whole drain. Results land
//! in `results/BENCH_executor.json`. `EXECUTOR_BENCH_SESSIONS` overrides
//! the book size (default 48).

use std::sync::Arc;
use std::time::{Duration, Instant};
use vfl_bench::report::write_bench_json;
use vfl_exchange::{Exchange, ExchangeConfig, MarketSpec, SessionOrder, SimulatedRemoteResolver};
use vfl_market::{
    Listing, MarketConfig, Outcome, ReservedPrice, StrategicData, StrategicTask, TableGainProvider,
};
use vfl_sim::BundleMask;

const COURSE_TASKS: usize = 4;
const LATENCIES: &[Duration] = &[
    Duration::from_micros(10),
    Duration::from_micros(100),
    Duration::from_millis(1),
    Duration::from_millis(10),
    Duration::from_millis(100),
];
/// Minimum course overlap at the gated latencies (3× a 4-worker pool).
const MIN_OVERLAP: f64 = 12.0;

fn sessions() -> usize {
    std::env::var("EXECUTOR_BENCH_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn listings_and_gains(m: usize) -> (Vec<Listing>, Vec<f64>) {
    let listings: Vec<Listing> = (0..4)
        .map(|i| Listing {
            bundle: BundleMask::singleton(i),
            reserved: ReservedPrice::new(4.0 + i as f64 * 1.5, 0.6 + i as f64 * 0.15)
                .expect("valid reserve"),
        })
        .collect();
    let gains = (0..4)
        .map(|i| 0.05 + 0.30 * ((m * 5 + i * 7) % 11) as f64 / 10.0)
        .collect();
    (listings, gains)
}

fn order(gains: &[f64], seed: u64) -> SessionOrder {
    SessionOrder {
        cfg: MarketConfig {
            utility_rate: 700.0 + 150.0 * (seed % 4) as f64,
            budget: 11.0,
            rate_cap: 20.0,
            seed,
            ..MarketConfig::default()
        },
        task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening")),
        data: Box::new(StrategicData::with_gains(gains.to_vec())),
    }
}

/// One full drain of `n` sessions over private-key markets, every course
/// resolved by a [`SimulatedRemoteResolver`] after `latency`. Returns the
/// wall time, the trained-course count, and every outcome.
fn run_once(n: usize, latency: Duration) -> (Duration, u64, Vec<Outcome>) {
    let exchange = Exchange::new(ExchangeConfig::default());
    let sids: Vec<_> = (0..n)
        .map(|m| {
            let (listings, gains) = listings_and_gains(m);
            let table =
                TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
            let market = exchange
                .register_market(MarketSpec {
                    provider: Arc::new(table),
                    listings: Arc::new(listings),
                    evaluation_key: None, // private cache: every course is paid
                    name: format!("m{m}"),
                })
                .expect("register market");
            exchange
                .submit(market, order(&gains, m as u64))
                .expect("submit session")
        })
        .collect();
    exchange.set_course_resolver(Arc::new(SimulatedRemoteResolver::new(latency)));
    let start = Instant::now();
    let report = exchange.drain(COURSE_TASKS);
    let wall = start.elapsed();
    assert_eq!(report.failed, 0, "benchmark sessions must not fail");
    assert_eq!(report.closed, n, "every session closes");
    let outcomes = sids
        .iter()
        .map(|&sid| {
            *exchange
                .take(sid)
                .expect("terminal")
                .expect("closed outcome")
        })
        .collect();
    (wall, exchange.metrics().cache_misses, outcomes)
}

fn main() {
    let n = sessions();
    println!("E14 executor latency tolerance: {n} sessions, {COURSE_TASKS} course tasks");
    println!();
    println!("latency      wall_ms      sess_s   courses  overlap");

    let mut rows = Vec::new();
    let mut reference: Option<Vec<Outcome>> = None;
    let mut gated = Vec::new();
    for &latency in LATENCIES {
        let (wall, courses, outcomes) = run_once(n, latency);
        match &reference {
            None => reference = Some(outcomes),
            Some(reference) => assert_eq!(
                &outcomes, reference,
                "{latency:?}: course latency must not change any outcome"
            ),
        }
        let throughput = n as f64 / wall.as_secs_f64();
        let overlap = courses as f64 * latency.as_secs_f64() / wall.as_secs_f64();
        println!(
            "latency {:>8} {:>10.2} {:>10.0} {:>8}  overlap {:.1}",
            format!("{latency:?}"),
            wall.as_secs_f64() * 1e3,
            throughput,
            courses,
            overlap
        );
        if latency >= Duration::from_millis(10) {
            gated.push((latency, overlap));
        }
        rows.push(format!(
            "    {{ \"latency_us\": {}, \"wall_ms\": {:.3}, \"sessions_per_sec\": {:.1}, \
             \"courses\": {courses}, \"overlap\": {:.3} }}",
            latency.as_micros(),
            wall.as_secs_f64() * 1e3,
            throughput,
            overlap
        ));
    }
    for &(latency, overlap) in &gated {
        assert!(
            overlap >= MIN_OVERLAP,
            "course overlap at {latency:?} must be >= {MIN_OVERLAP} (3x a 4-worker pool), \
             got {overlap:.1}"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"executor\",\n  \"experiment\": \"E14\",\n  \
         \"sessions\": {n},\n  \"course_tasks\": {COURSE_TASKS},\n  \
         \"min_overlap\": {MIN_OVERLAP:.1},\n  \
         \"sweep\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    write_bench_json("executor", &json);
}
