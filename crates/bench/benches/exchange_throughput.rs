//! E6 — exchange throughput: drives ≥ 1,000 concurrent heterogeneous
//! sessions (all three datasets, both base models) to completion through
//! `vfl-exchange` on the fast profile, at 1 / 4 / all-cores course tasks
//! (the drain's concurrent course resolutions; one router runs every
//! slice), and records sessions/sec plus cache statistics to
//! `results/BENCH_exchange.json` so the perf trajectory accrues over PRs.
//!
//! Custom harness (no criterion): the unit of measurement is a whole drain
//! of the exchange, not a micro-iteration. Every course-task count gets a
//! fresh exchange with freshly *cold* oracles, so each run pays the same
//! real Step-3 course work and the comparison is fair.
//!
//! `EXCHANGE_BENCH_SESSIONS` overrides the session count (dev loops).

use std::time::Duration;
use vfl_bench::exchange_setup::{register_cell, strategic_order};
use vfl_bench::report::write_bench_json;
use vfl_bench::{BaseModelKind, PreparedMarket, RunProfile};
use vfl_exchange::{Exchange, ExchangeConfig, MetricsSnapshot};
use vfl_tabular::DatasetId;

struct Run {
    workers: usize,
    closed: usize,
    failed: usize,
    elapsed: Duration,
    sessions_per_sec: f64,
    snapshot: MetricsSnapshot,
}

fn run_drain(
    markets: &[PreparedMarket],
    profile: &RunProfile,
    sessions: usize,
    workers: usize,
) -> Run {
    let exchange = Exchange::new(ExchangeConfig::default());
    let ids: Vec<_> = markets
        .iter()
        .map(|m| register_cell(&exchange, m, profile).expect("register"))
        .collect();
    for s in 0..sessions {
        let cell = s % markets.len();
        exchange
            .submit(
                ids[cell],
                strategic_order(&markets[cell], profile, (s / markets.len()) as u64),
            )
            .expect("submit");
    }
    let report = exchange.drain(workers);
    assert_eq!(
        report.closed + report.failed,
        sessions,
        "every session must terminate"
    );
    assert_eq!(report.failed, 0, "hard failures in the throughput bench");
    Run {
        workers: report.workers,
        closed: report.closed,
        failed: report.failed,
        elapsed: report.elapsed,
        sessions_per_sec: report.sessions_per_sec(),
        snapshot: exchange.metrics(),
    }
}

fn main() {
    let profile = RunProfile::fast();
    let sessions: usize = std::env::var("EXCHANGE_BENCH_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1200);

    // Heterogeneous cells: every dataset, both base models.
    let cells = [
        (DatasetId::Titanic, BaseModelKind::Forest),
        (DatasetId::Credit, BaseModelKind::Forest),
        (DatasetId::Adult, BaseModelKind::Forest),
        (DatasetId::Titanic, BaseModelKind::Mlp),
    ];
    eprintln!("building {} market cells (fast profile)…", cells.len());
    let markets: Vec<PreparedMarket> = cells
        .iter()
        .map(|&(id, model)| PreparedMarket::build(id, model, &profile, 1).expect("build cell"))
        .collect();

    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut worker_counts = vec![1usize, 4, hw];
    worker_counts.sort_unstable();
    worker_counts.dedup();

    let mut runs: Vec<Run> = Vec::new();
    for &workers in &worker_counts {
        eprintln!("draining {sessions} sessions on {workers} course task(s)…");
        runs.push(run_drain(&markets, &profile, sessions, workers));
    }

    println!("\n== E6 exchange throughput ({sessions} heterogeneous sessions) ==");
    println!(
        "{:>8} {:>10} {:>8} {:>12} {:>10} {:>10}",
        "tasks", "elapsed_s", "closed", "sessions/s", "hit_rate", "courses"
    );
    for run in &runs {
        println!(
            "{:>8} {:>10.3} {:>8} {:>12.1} {:>10.3} {:>10}",
            run.workers,
            run.elapsed.as_secs_f64(),
            run.closed,
            run.sessions_per_sec,
            run.snapshot.cache_hit_rate(),
            run.snapshot.courses_requested,
        );
    }
    let base = runs.first().expect("at least one run");
    if let Some(best) = runs
        .iter()
        .filter(|r| r.workers > 1)
        .max_by(|a, b| a.sessions_per_sec.total_cmp(&b.sessions_per_sec))
    {
        let speedup = best.sessions_per_sec / base.sessions_per_sec;
        println!(
            "multi-task speedup: {:.2}x ({} course tasks over 1, {hw} hardware threads)",
            speedup, best.workers
        );
        if hw > 1 {
            assert!(
                speedup > 1.0,
                "scaling regression: {} course tasks ({:.1}/s) must beat 1 ({:.1}/s) on {hw} threads",
                best.workers,
                best.sessions_per_sec,
                base.sessions_per_sec
            );
        } else {
            println!(
                "note: single hardware thread — extra course tasks only add scheduling \
                 overhead, so the >1x scaling gate is skipped on this machine"
            );
        }
    }

    // JSON record for the perf trajectory.
    let json_runs: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"course_tasks\": {}, \"elapsed_s\": {:.6}, \"closed\": {}, \"failed\": {}, \
                 \"sessions_per_sec\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \
                 \"cache_hit_rate\": {:.6}, \"courses_requested\": {}, \"rounds_completed\": {}}}",
                r.workers,
                r.elapsed.as_secs_f64(),
                r.closed,
                r.failed,
                r.sessions_per_sec,
                r.snapshot.cache_hits,
                r.snapshot.cache_misses,
                r.snapshot.cache_hit_rate(),
                r.snapshot.courses_requested,
                r.snapshot.rounds_completed,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"exchange_throughput\",\n  \"profile\": \"fast\",\n  \
         \"sessions\": {},\n  \"cells\": {},\n  \"hardware_threads\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        sessions,
        cells.len(),
        hw,
        json_runs.join(",\n")
    );
    write_bench_json("exchange", &json);
}
