//! The router under remote-course latency: one session book drained with
//! every course resolved off-slot by a `SimulatedRemoteResolver`
//! (`Exchange::set_course_resolver`), across ms-scale course latencies.
//!
//! The printed table is the whole story: an in-flight course is a timer
//! entry, not a thread, so a handful of course tasks keep every session's
//! training in flight at once. The `overlap` column — trained courses ×
//! latency ÷ drain wall — is the average number of courses in flight; a
//! thread-per-course executor with 4 threads could not exceed 4. The
//! outcomes stay identical at every latency. Run with
//! `cargo run --example async_exchange --release`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vfl_exchange::{Exchange, ExchangeConfig, MarketSpec, SessionOrder, SimulatedRemoteResolver};
use vfl_market::{
    Listing, MarketConfig, Outcome, ReservedPrice, StrategicData, StrategicTask, TableGainProvider,
};
use vfl_sim::BundleMask;

const SESSIONS: usize = 12;
const COURSE_TASKS: usize = 4;

fn market(m: usize) -> (Vec<Listing>, Vec<f64>) {
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

/// Drains the book once with every course taking `latency`. Returns the
/// wall time, the trained-course count, and every outcome.
fn drain(latency: Duration) -> (Duration, u64, Vec<Outcome>) {
    let exchange = Exchange::new(ExchangeConfig::default());
    let sids: Vec<_> = (0..SESSIONS)
        .map(|m| {
            let (listings, gains) = market(m);
            let table =
                TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
            let id = exchange
                .register_market(MarketSpec {
                    provider: Arc::new(table),
                    listings: Arc::new(listings),
                    evaluation_key: None,
                    name: format!("m{m}"),
                })
                .expect("register market");
            exchange
                .submit(
                    id,
                    SessionOrder {
                        cfg: MarketConfig {
                            utility_rate: 700.0 + 150.0 * (m % 4) as f64,
                            budget: 11.0,
                            rate_cap: 20.0,
                            seed: m as u64,
                            ..MarketConfig::default()
                        },
                        task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening")),
                        data: Box::new(StrategicData::with_gains(gains)),
                    },
                )
                .expect("submit")
        })
        .collect();
    exchange.set_course_resolver(Arc::new(SimulatedRemoteResolver::new(latency)));
    let start = Instant::now();
    let report = exchange.drain(COURSE_TASKS);
    let wall = start.elapsed();
    assert_eq!(report.failed, 0);
    let outcomes = sids
        .iter()
        .map(|&sid| *exchange.take(sid).expect("terminal").expect("closed"))
        .collect();
    (wall, exchange.metrics().cache_misses, outcomes)
}

fn main() {
    println!("async exchange: {SESSIONS} sessions on private markets, {COURSE_TASKS} course tasks");
    println!();
    let mut reference: Option<Vec<Outcome>> = None;
    for latency in [
        Duration::from_millis(1),
        Duration::from_millis(5),
        Duration::from_millis(20),
    ] {
        let (wall, courses, outcomes) = drain(latency);
        match &reference {
            None => reference = Some(outcomes),
            Some(reference) => assert_eq!(
                &outcomes, reference,
                "course latency must not change any outcome"
            ),
        }
        let overlap = courses as f64 * latency.as_secs_f64() / wall.as_secs_f64();
        println!(
            "latency {:>6} | wall {:>8.1} ms | {courses} courses | overlap {overlap:.1} (outcomes identical)",
            format!("{latency:?}"),
            wall.as_secs_f64() * 1e3,
        );
    }
    println!();
    println!(
        "the router keeps all {SESSIONS} sessions' courses in flight with \
         {COURSE_TASKS} course tasks"
    );
}
