//! E13 — admission-policy comparison: the same six named open-world
//! scenarios ([`vfl_exchange::named_scenarios`]) under every admission
//! policy the exchange ships, reporting what a load-control evaluation
//! needs: shed rate, goodput (admitted demands per drain-second), and
//! p99 settle latency per scenario × policy.
//!
//! The headline comparison is run at a **matched operating point**: the
//! hysteresis wrapper sheds the exact same demands as the bare threshold
//! by construction (the driver's queue depth is monotone between drains,
//! so the band never re-admits mid-overload), and the token bucket is
//! *tuned per scenario* — a closed-form replay of the bucket against the
//! scenario's submission count finds `(capacity, refill)` whose shed
//! count equals the threshold's — so their p99 columns are compared at
//! equal shed rate, not across different loss levels. Cost-weighted and
//! quota run at fixed representative parameters (their shed patterns are
//! the point, not their rates).
//!
//! Custom harness (no criterion): the unit is a whole scenario run. Each
//! cell asserts the tier's conservation invariant before it reports, runs
//! `ADMISSION_BENCH_REPS` times (outcome counts must be bit-identical —
//! determinism is load-bearing here), and reports the minimum p99 across
//! reps to damp scheduler noise. Results land in
//! `results/BENCH_admission.json`.
//!
//! `ADMISSION_BENCH_SCALE` multiplies every scenario's tick count
//! (default 4); `ADMISSION_BENCH_MAX_QUEUE` sets the threshold bound
//! (default 32); `ADMISSION_BENCH_REPS` sets the repetitions (default 3).

use std::sync::Arc;
use vfl_bench::report::write_bench_json;
use vfl_exchange::{
    AdmissionPolicy, CostWeightedAdmission, Exchange, ExchangeConfig, ExchangeTelemetry,
    Hysteresis, QueueDepthAdmission, QuotaAdmission, ScenarioDriver, ScenarioSpec,
    TokenBucketAdmission,
};

struct Cell {
    policy: &'static str,
    params: String,
    attempts: usize,
    admitted: u64,
    shed: u64,
    settled: u64,
    deals: u64,
    goodput: f64,
    p99_ns: u64,
}

/// Runs one scenario × policy cell `reps` times (fresh exchange, fresh
/// telemetry, fresh policy state each rep — stateful policies must not
/// carry tokens across runs), asserts conservation and cross-rep
/// determinism, and reports the minimum p99 settle latency.
fn run_cell(
    spec: &ScenarioSpec,
    policy: &'static str,
    params: String,
    make_policy: &dyn Fn() -> Arc<dyn AdmissionPolicy>,
    reps: u32,
) -> Cell {
    let mut counts: Option<(usize, u64, u64, u64, u64)> = None;
    let mut best_p99 = u64::MAX;
    let mut goodput = 0.0f64;
    for _ in 0..reps.max(1) {
        let telemetry = ExchangeTelemetry::new();
        let exchange = Exchange::with_telemetry(ExchangeConfig::default(), telemetry.clone());
        exchange.set_admission(Some(make_policy()));
        let driver = ScenarioDriver::new(spec.clone());
        let outcome = driver.run(&exchange);
        outcome
            .conservation()
            .unwrap_or_else(|e| panic!("conservation violated: {e}"));
        let rep_counts = (
            outcome.attempts,
            outcome.admitted,
            outcome.shed,
            outcome.settled,
            outcome.deals,
        );
        match counts {
            None => counts = Some(rep_counts),
            Some(first) => assert_eq!(
                first, rep_counts,
                "{}/{policy}: outcome counts diverged across reps",
                spec.name
            ),
        }
        let settle = telemetry
            .stage_snapshot("settlement")
            .expect("settlement stage registered");
        assert!(
            settle.count >= outcome.settled,
            "{}/{policy}: settlement histogram missed settlements",
            spec.name
        );
        best_p99 = best_p99.min(settle.p99());
        goodput = goodput.max(outcome.demands_per_sec);
    }
    let (attempts, admitted, shed, settled, deals) = counts.expect("at least one rep");
    Cell {
        policy,
        params,
        attempts,
        admitted,
        shed,
        settled,
        deals,
        goodput,
        p99_ns: best_p99,
    }
}

/// Closed-form replay of [`TokenBucketAdmission`] against `n` back-to-back
/// consultations (admission clock 0..n): returns the shed count. Mirrors
/// the policy's refill arithmetic exactly — the bench asserts the real run
/// agrees.
fn simulate_bucket(capacity: u64, refill: u64, n: u64) -> u64 {
    let (capacity, refill) = (capacity.max(1), refill.max(1));
    let mut tokens = capacity;
    let mut credited_at = 0u64;
    let mut shed = 0u64;
    for t in 0..n {
        let earned = t.saturating_sub(credited_at) / refill;
        if earned > 0 {
            tokens = tokens.saturating_add(earned).min(capacity);
            credited_at += earned * refill;
        }
        if tokens > 0 {
            tokens -= 1;
        } else {
            shed += 1;
        }
    }
    shed
}

/// Finds `(capacity, refill)` whose simulated shed count over `n`
/// submissions equals `target` — the threshold's operating point. For a
/// fixed refill interval, raising capacity by one admits exactly one more
/// demand until saturation, so walking capacity up from 1 under the first
/// refill that sheds enough lands on the target exactly (with a
/// nearest-miss fallback that the summary then excludes as unmatched).
fn tune_bucket(n: u64, target: u64) -> (u64, u64) {
    if target == 0 {
        return (n.max(1), 1);
    }
    let mut best = (1u64, 2u64, u64::MAX);
    for refill in 2..=(4 * n).max(2) {
        if simulate_bucket(1, refill, n) < target {
            continue;
        }
        for capacity in 1..=n.max(1) {
            let shed = simulate_bucket(capacity, refill, n);
            let diff = shed.abs_diff(target);
            if diff < best.2 {
                best = (capacity, refill, diff);
            }
            if shed == target {
                return (capacity, refill);
            }
            if shed < target {
                break;
            }
        }
    }
    (best.0, best.1)
}

fn main() {
    let scale: u32 = std::env::var("ADMISSION_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let max_queue: usize = std::env::var("ADMISSION_BENCH_MAX_QUEUE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let reps: u32 = std::env::var("ADMISSION_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    println!(
        "== E13 admission policies (ticks ×{scale}, threshold bound {max_queue}, \
         min-p99 over {reps} reps) =="
    );
    println!(
        "{:<22} {:<14} {:>9} {:>9} {:>6} {:>9} {:>12} {:>15}",
        "scenario",
        "policy",
        "attempts",
        "admitted",
        "shed",
        "shed_rate",
        "goodput/s",
        "p99_settle_µs"
    );

    let mut rows = Vec::new();
    let mut hysteresis_wins = Vec::new();
    let mut bucket_wins = Vec::new();
    for mut spec in vfl_exchange::named_scenarios() {
        spec.ticks *= scale;
        let scenario = spec.name.clone();

        // The bare threshold sets the operating point for the matched
        // comparison; every other policy runs the identical workload.
        let threshold = run_cell(
            &spec,
            "threshold",
            format!("max_queue={max_queue}"),
            &|| {
                Arc::new(QueueDepthAdmission {
                    max_queue_depth: max_queue,
                })
            },
            reps,
        );
        let (cap, refill) = tune_bucket(threshold.attempts as u64, threshold.shed);
        let cells = vec![
            threshold,
            run_cell(
                &spec,
                "hysteresis",
                format!("enter={max_queue},exit={}", max_queue / 2),
                &|| {
                    Arc::new(Hysteresis::new(
                        QueueDepthAdmission {
                            max_queue_depth: max_queue,
                        },
                        max_queue / 2,
                    ))
                },
                reps,
            ),
            run_cell(
                &spec,
                "token-bucket",
                format!("capacity={cap},refill={refill}"),
                &|| Arc::new(TokenBucketAdmission::new(cap, refill)),
                reps,
            ),
            run_cell(
                &spec,
                "cost-weighted",
                "capacity=64,refill=1".into(),
                &|| Arc::new(CostWeightedAdmission::new(64, 1)),
                reps,
            ),
            run_cell(
                &spec,
                "quota",
                "window=8,quota=4".into(),
                &|| Arc::new(QuotaAdmission::new(8, 4)),
                reps,
            ),
        ];

        // Matched-operating-point comparison: a policy "wins" a scenario
        // when it shed exactly as much as the threshold and settled
        // strictly faster at the tail.
        let (t_shed, t_p99) = (cells[0].shed, cells[0].p99_ns);
        if cells[1].shed == t_shed && cells[1].p99_ns < t_p99 {
            hysteresis_wins.push(scenario.clone());
        }
        if cells[2].shed == t_shed && cells[2].p99_ns < t_p99 {
            bucket_wins.push(scenario.clone());
        }

        for cell in cells {
            let shed_rate = cell.shed as f64 / cell.attempts.max(1) as f64;
            println!(
                "{:<22} {:<14} {:>9} {:>9} {:>6} {:>9.3} {:>12.1} {:>15.1}",
                scenario,
                cell.policy,
                cell.attempts,
                cell.admitted,
                cell.shed,
                shed_rate,
                cell.goodput,
                cell.p99_ns as f64 / 1e3
            );
            rows.push(format!(
                "    {{\"scenario\": \"{}\", \"policy\": \"{}\", \"params\": \"{}\", \
                 \"attempts\": {}, \"admitted\": {}, \"shed\": {}, \"shed_rate\": {:.4}, \
                 \"settled\": {}, \"deals\": {}, \"goodput_per_sec\": {:.3}, \
                 \"p99_settle_ns\": {}}}",
                scenario,
                cell.policy,
                cell.params,
                cell.attempts,
                cell.admitted,
                cell.shed,
                shed_rate,
                cell.settled,
                cell.deals,
                cell.goodput,
                cell.p99_ns
            ));
        }
    }

    let quote_list = |names: &[String]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("\nequal-shed p99 wins vs the bare threshold:");
    println!("  hysteresis:   {}", hysteresis_wins.join(", "));
    println!("  token-bucket: {}", bucket_wins.join(", "));

    let json = format!(
        "{{\n  \"bench\": \"admission\",\n  \"experiment\": \"E13\",\n  \
         \"tick_scale\": {scale},\n  \"max_queue_depth\": {max_queue},\n  \
         \"reps\": {reps},\n  \
         \"beats_threshold_at_equal_shed\": {{\n    \
         \"hysteresis\": [{}],\n    \"token_bucket\": [{}]\n  }},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        quote_list(&hysteresis_wins),
        quote_list(&bucket_wins),
        rows.join(",\n")
    );
    write_bench_json("admission", &json);
}
