//! E11 — telemetry overhead: drains the identical session book twice
//! (telemetry off vs on) and gates the attachment's cost at <5% of drain
//! wall time on the *realistic* arm, where each training spins for a
//! couple hundred µs — the paper's framing (training dominates a course
//! evaluation) scaled down so the bench stays fast; production trainings
//! are milliseconds-to-minutes, making the real relative overhead far
//! smaller than what is measured (and gated) here.
//!
//! A second, ungated arm repeats the measurement with pure table-lookup
//! providers — the adversarial extreme where a "training" is a hash-map
//! read and the telemetry's clock reads are as large as they will ever be
//! relative to the work. Both ratios land in
//! `results/BENCH_telemetry.json`, together with the on-arm's per-stage
//! quantiles (the numbers an operator would actually scrape).
//!
//! Custom harness (no criterion): the unit is a whole drain, the off/on
//! pair must run the identical workload, and each arm is repeated
//! `REPS` times taking the minimum (the least-noise estimate of the true
//! cost on a shared machine). Outcomes are asserted bit-identical across
//! arms — the overhead number is only meaningful if the telemetry
//! changed nothing. `TELEMETRY_BENCH_SESSIONS` overrides the book size.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vfl_bench::exchange_setup::SpinGainProvider;
use vfl_bench::report::write_bench_json;
use vfl_exchange::{Exchange, ExchangeConfig, ExchangeTelemetry, MarketSpec, SessionOrder, STAGES};
use vfl_market::{
    GainProvider, Listing, MarketConfig, Outcome, ReservedPrice, StrategicData, StrategicTask,
    TableGainProvider,
};
use vfl_sim::BundleMask;

const REPS: usize = 5;
const WORKERS: usize = 4;
const SPIN: Duration = Duration::from_micros(200);

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

/// One drain of `n_sessions` over private-key markets (`spin` picks the
/// provider), telemetry optionally attached. Returns the wall time and
/// every outcome in submit order.
fn run_once(
    n_sessions: usize,
    spin: bool,
    telemetry: Option<Arc<ExchangeTelemetry>>,
) -> (Duration, Vec<Outcome>) {
    let exchange = match telemetry {
        Some(t) => Exchange::with_telemetry(ExchangeConfig::default(), t),
        None => Exchange::new(ExchangeConfig::default()),
    };
    // One private-key market per session: every session pays its own
    // trainings, so training cost scales with the book instead of
    // collapsing into cache hits.
    let sids: Vec<_> = (0..n_sessions)
        .map(|m| {
            let (listings, gains) = listings_and_gains(m);
            let table =
                TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
            let provider: Arc<dyn GainProvider + Send + Sync> = if spin {
                Arc::new(SpinGainProvider::new(table, SPIN))
            } else {
                Arc::new(table)
            };
            let market = exchange
                .register_market(MarketSpec {
                    provider,
                    listings: Arc::new(listings),
                    evaluation_key: None,
                    name: format!("m{m}"),
                })
                .expect("register market");
            exchange
                .submit(market, order(&gains, m as u64))
                .expect("submit")
        })
        .collect();
    let start = Instant::now();
    let report = exchange.drain(WORKERS);
    let elapsed = start.elapsed();
    assert_eq!(report.failed, 0, "telemetry bench sessions must not fail");
    let outcomes = sids
        .iter()
        .map(|&sid| *exchange.take(sid).expect("terminal").expect("no error"))
        .collect();
    (elapsed, outcomes)
}

/// Min-of-`REPS` drain time for one arm; outcomes from the first rep.
fn run_arm(
    n_sessions: usize,
    spin: bool,
    telemetry: impl Fn() -> Option<Arc<ExchangeTelemetry>>,
) -> (Duration, Vec<Outcome>, Option<Arc<ExchangeTelemetry>>) {
    let mut best = Duration::MAX;
    let mut outcomes = Vec::new();
    let mut last_tele = None;
    for rep in 0..REPS {
        let t = telemetry();
        let (elapsed, out) = run_once(n_sessions, spin, t.clone());
        if rep == 0 {
            outcomes = out;
        }
        best = best.min(elapsed);
        last_tele = t;
    }
    (best, outcomes, last_tele)
}

fn measure(n_sessions: usize, spin: bool) -> (f64, f64, f64, Option<Arc<ExchangeTelemetry>>) {
    let (off, off_out, _) = run_arm(n_sessions, spin, || None);
    let (on, on_out, tele) = run_arm(n_sessions, spin, || Some(ExchangeTelemetry::new()));
    assert_eq!(
        off_out, on_out,
        "telemetry changed a negotiation outcome (observe-only violated)"
    );
    let ratio = on.as_secs_f64() / off.as_secs_f64().max(1e-9);
    (off.as_secs_f64(), on.as_secs_f64(), ratio, tele)
}

fn main() {
    let n_sessions: usize = std::env::var("TELEMETRY_BENCH_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150);

    println!(
        "== E11 telemetry overhead ({n_sessions} sessions, {WORKERS} workers, min of {REPS}) =="
    );
    eprintln!("realistic arm ({}µs spin per training)…", SPIN.as_micros());
    let (real_off, real_on, real_ratio, tele) = measure(n_sessions, true);
    eprintln!("table-lookup arm (zero-cost trainings)…");
    let (tbl_off, tbl_on, tbl_ratio, _) = measure(n_sessions, false);

    println!(
        "{:>14} {:>12} {:>12} {:>9}",
        "arm", "off_s", "on_s", "ratio"
    );
    println!(
        "{:>14} {real_off:>12.4} {real_on:>12.4} {real_ratio:>9.3}",
        "realistic"
    );
    println!(
        "{:>14} {tbl_off:>12.4} {tbl_on:>12.4} {tbl_ratio:>9.3}",
        "table-lookup"
    );

    // The headline gate: on the realistic arm, attaching telemetry costs
    // under 5% of drain wall time.
    assert!(
        real_ratio < 1.05,
        "telemetry overhead {:.1}% breaches the 5% budget",
        (real_ratio - 1.0) * 100.0
    );

    // Per-stage quantiles from the realistic on-arm — what the scrape
    // would show an operator.
    let tele = tele.expect("on-arm telemetry");
    let mut stage_rows = Vec::new();
    println!(
        "\n{:>18} {:>8} {:>10} {:>10} {:>10}",
        "stage", "count", "p50_ns", "p95_ns", "p99_ns"
    );
    for stage in STAGES {
        let snap = tele.stage_snapshot(stage).expect("registered stage");
        if snap.count == 0 {
            continue;
        }
        println!(
            "{:>18} {:>8} {:>10} {:>10} {:>10}",
            stage,
            snap.count,
            snap.p50(),
            snap.p95(),
            snap.p99()
        );
        stage_rows.push(format!(
            "    {{\"stage\": \"{stage}\", \"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"p99_ns\": {}}}",
            snap.count,
            snap.p50(),
            snap.p95(),
            snap.p99()
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"experiment\": \"E11\",\n  \
         \"sessions\": {n_sessions},\n  \"workers\": {WORKERS},\n  \"reps\": {REPS},\n  \
         \"spin_us\": {},\n  \"runs\": [\n    \
         {{\"arm\": \"realistic\", \"off_s\": {real_off:.6}, \"on_s\": {real_on:.6}, \
         \"overhead_ratio\": {real_ratio:.6}}},\n    \
         {{\"arm\": \"table_lookup\", \"off_s\": {tbl_off:.6}, \"on_s\": {tbl_on:.6}, \
         \"overhead_ratio\": {tbl_ratio:.6}}}\n  ],\n  \
         \"gate\": {{\"arm\": \"realistic\", \"max_overhead_ratio\": 1.05, \"passed\": true}},\n  \
         \"stages\": [\n{}\n  ]\n}}\n",
        SPIN.as_micros(),
        stage_rows.join(",\n")
    );
    write_bench_json("telemetry", &json);
}
