//! E12 — live traffic: drives every named open-world scenario
//! ([`vfl_exchange::named_scenarios`]) against a telemetered exchange
//! under a queue-depth admission bound, and reports what an operator
//! would size capacity from: sustained demands/sec (admitted demands per
//! drain-second) and the p99 settle latency (the telemetry layer's
//! `settlement` stage histogram) per scenario, plus the shed count the
//! bound produced.
//!
//! Custom harness (no criterion): the unit is a whole scenario run — a
//! seeded, deterministic workload of arrivals, churn, market shifts, and
//! adversarial shapes — not an iterated closure. Each scenario asserts
//! the tier's conservation invariant before it is allowed to report a
//! number; a throughput figure over a workload that lost demands would
//! be fiction. Results land in `results/BENCH_traffic.json`.
//!
//! `TRAFFIC_BENCH_SCALE` multiplies every scenario's tick count (default
//! 4); `TRAFFIC_BENCH_MAX_QUEUE` sets the admission bound (default 32).

use std::sync::Arc;
use vfl_bench::report::write_bench_json;
use vfl_exchange::{
    Exchange, ExchangeConfig, ExchangeTelemetry, QueueDepthAdmission, ScenarioDriver,
};

fn main() {
    let scale: u32 = std::env::var("TRAFFIC_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let max_queue: usize = std::env::var("TRAFFIC_BENCH_MAX_QUEUE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);

    println!("== E12 live traffic (ticks ×{scale}, admission bound: queue depth ≤ {max_queue}) ==");
    println!(
        "{:<22} {:>9} {:>9} {:>6} {:>8} {:>6} {:>12} {:>15}",
        "scenario",
        "attempts",
        "admitted",
        "shed",
        "settled",
        "deals",
        "demands/s",
        "p99_settle_µs"
    );

    let mut rows = Vec::new();
    for mut spec in vfl_exchange::named_scenarios() {
        spec.ticks *= scale;
        let telemetry = ExchangeTelemetry::new();
        let exchange = Exchange::with_telemetry(ExchangeConfig::default(), telemetry.clone());
        exchange.set_admission(Some(Arc::new(QueueDepthAdmission {
            max_queue_depth: max_queue,
        })));
        let driver = ScenarioDriver::new(spec);
        let outcome = driver.run(&exchange);
        // A throughput number over a leaky workload is fiction: every
        // scenario must conserve before it reports.
        outcome
            .conservation()
            .unwrap_or_else(|e| panic!("conservation violated: {e}"));
        let settle = telemetry
            .stage_snapshot("settlement")
            .expect("settlement stage registered");
        assert!(
            settle.count >= outcome.settled,
            "{}: settlement histogram missed settlements",
            outcome.name
        );
        let p99_ns = settle.p99();
        println!(
            "{:<22} {:>9} {:>9} {:>6} {:>8} {:>6} {:>12.1} {:>15.1}",
            outcome.name,
            outcome.attempts,
            outcome.admitted,
            outcome.shed,
            outcome.settled,
            outcome.deals,
            outcome.demands_per_sec,
            p99_ns as f64 / 1e3
        );
        rows.push(format!(
            "    {{\"scenario\": \"{}\", \"attempts\": {}, \"admitted\": {}, \"shed\": {}, \
             \"settled\": {}, \"deals\": {}, \"demands_per_sec\": {:.3}, \"p99_settle_ns\": {}}}",
            outcome.name,
            outcome.attempts,
            outcome.admitted,
            outcome.shed,
            outcome.settled,
            outcome.deals,
            outcome.demands_per_sec,
            p99_ns
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"traffic\",\n  \"experiment\": \"E12\",\n  \
         \"tick_scale\": {scale},\n  \"max_queue_depth\": {max_queue},\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    write_bench_json("traffic", &json);
}
