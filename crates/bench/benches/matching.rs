//! E7 — matching throughput and quality: drains ≥ 300 demands over a
//! heterogeneous pool of quoting data parties (varying catalog coverage,
//! gain landscapes, and quoting strategies) through the `vfl-exchange`
//! matching tier on the fast profile, at 1 / 4 workers, and records match
//! rate, buyer surplus against the best-single-seller baseline, and
//! demands/sec to `results/BENCH_matching.json` so the matching trajectory
//! accrues over PRs.
//!
//! Custom harness (no criterion): the unit of measurement is a whole drain
//! of a demand book, not a micro-iteration. Sellers are synthetic table
//! markets — the bench measures the *matching tier* (fan-out, probe,
//! settlement, cancellation), not model training, so each run drains the
//! full demand book in milliseconds and the numbers isolate marketplace
//! overhead.
//!
//! **Quality baseline.** For every demand, the best-single-seller baseline
//! runs the direct 1×1 `run_bargaining` against *each* eligible seller and
//! keeps the best buyer surplus — what an omniscient buyer who could
//! bargain every seller to conclusion would earn. Matching settles after
//! `probe_rounds` quote rounds, so its surplus is ≤ the baseline by
//! construction (the winner is one of those pairings); the recorded ratio
//! is the price of deciding early. A ratio near 1 means the standing quote
//! at the probe horizon is an honest proxy for the final outcome.
//!
//! **Probe-horizon sweep.** Each extra probe round buys settlement-time
//! information at the price of one *served* course per losing candidate
//! (a training only when it misses the shared ΔG cache — the recorded
//! `cache_misses` column is the actually-trained subset), so the sweep
//! arm re-drains the book at `probe_rounds ∈ {1, 2, 4, 8}` and records
//! the surplus ratio against the probe spend (total loser courses, read
//! off the per-candidate histories the `DemandReport` now carries) — the
//! early-decision-cost-vs-probe-spend trade the ROADMAP asks for.
//!
//! **E9 — double-auction clearing on a contended pool.** A second, much
//! tighter pool (4 sellers for the whole demand book → every epoch
//! crosses ≥ 2 demands per seller) is drained through the clearing
//! window under a per-epoch seller capacity of 1, comparing three
//! settlement regimes at equal scarcity: uncoordinated per-demand
//! best-response (`PerDemand(BestResponse)`, no roll patience — the
//! starving baseline), `UniformPriceClearing` at the same patience (the
//! welfare-maximizing cross — the bench asserts its realized surplus
//! dominates the baseline's), and `UniformPriceClearing` with unlimited
//! rolls (full service across epochs). Immediate-mode best-response on
//! the same pool is recorded alongside as the no-capacity reference (it
//! "serves" everyone by oversubscribing the sellers). Each arm records
//! match rate, realized buyer surplus, starvation counts, epochs/rolls,
//! mean uniform clearing price, and a Jain fairness index over
//! per-demand realized surplus, all into the same
//! `results/BENCH_matching.json` under `"clearing"`.
//!
//! `MATCHING_BENCH_DEMANDS` overrides the demand count (dev loops).

use std::sync::Arc;
use std::time::Duration;
use vfl_bench::report::write_bench_json;
use vfl_exchange::{
    BestResponse, ClearPolicy, ClearingSpec, Demand, DemandId, Exchange, ExchangeConfig,
    MarketSpec, PerDemand, SellerSpec, SettleMode, UniformPriceClearing,
};
use vfl_market::{
    run_bargaining, DataStrategy, Listing, MarketConfig, RandomBundleData, ReservedPrice,
    StrategicData, StrategicTask, TableGainProvider,
};
use vfl_sim::BundleMask;

const FEATURES: usize = 8;

/// One synthetic data party: catalog subset, gain landscape, quoting kind.
#[derive(Clone)]
struct Seller {
    name: String,
    features: Vec<usize>,
    gains: Vec<f64>,
    random_quoting: bool,
}

impl Seller {
    fn catalog(&self) -> BundleMask {
        BundleMask::from_features(&self.features)
    }

    fn listings(&self) -> Vec<Listing> {
        self.features
            .iter()
            .enumerate()
            .map(|(i, &f)| Listing {
                bundle: BundleMask::singleton(f),
                reserved: ReservedPrice::new(3.0 + i as f64 * 1.2, 0.4 + i as f64 * 0.12)
                    .expect("valid reserve"),
            })
            .collect()
    }

    /// The listings/gains subset overlapping `wanted` (what a candidate
    /// session for such a demand negotiates over).
    fn scoped(&self, wanted: BundleMask) -> (Vec<Listing>, Vec<f64>) {
        self.listings()
            .into_iter()
            .zip(self.gains.iter().copied())
            .filter(|(l, _)| l.bundle.intersects(wanted))
            .unzip()
    }

    /// The quoting strategy over a scoped listing table (listings are
    /// singleton(feature), so gains map through the feature index).
    fn quoting_for(&self, table: &[Listing]) -> Box<dyn DataStrategy + Send> {
        let gains: Vec<f64> = table
            .iter()
            .map(|l| {
                let f = l.bundle.to_features()[0];
                let i = self
                    .features
                    .iter()
                    .position(|&sf| sf == f)
                    .expect("listed");
                self.gains[i]
            })
            .collect();
        if self.random_quoting {
            Box::new(RandomBundleData::with_gains(gains))
        } else {
            Box::new(StrategicData::with_gains(gains))
        }
    }
}

/// A deterministic heterogeneous pool: catalog sizes 3..=6 rotating over
/// the feature universe, gain landscapes spread over [0.04, 0.36], every
/// fourth seller quoting randomly instead of strategically.
fn seller_pool(n_sellers: usize) -> Vec<Seller> {
    (0..n_sellers)
        .map(|s| {
            let width = 3 + s % 4;
            let features: Vec<usize> = (0..width).map(|i| (s * 3 + i * 2) % FEATURES).collect();
            let mut features = features;
            features.sort_unstable();
            features.dedup();
            let gains = features
                .iter()
                .enumerate()
                .map(|(i, _)| 0.04 + 0.32 * ((s * 7 + i * 11) % 13) as f64 / 12.0)
                .collect();
            Seller {
                name: format!("seller-{s}"),
                features,
                gains,
                random_quoting: s % 4 == 3,
            }
        })
        .collect()
}

/// The demand grid: rotating wanted-masks (3 features wide) and seeds.
fn demand_cfg(d: usize) -> (BundleMask, MarketConfig) {
    let wanted = BundleMask::from_features(&[d % FEATURES, (d + 2) % FEATURES, (d + 5) % FEATURES]);
    let cfg = MarketConfig {
        utility_rate: 600.0 + 200.0 * (d % 5) as f64,
        budget: 10.0 + (d % 4) as f64,
        rate_cap: 20.0,
        seed: d as u64,
        ..MarketConfig::default()
    };
    (wanted, cfg)
}

fn buyer_demand(d: usize, probe_rounds: u32) -> Demand {
    demand_with(
        d,
        probe_rounds,
        SettleMode::Immediate(Arc::new(BestResponse)),
    )
}

fn demand_with(d: usize, probe_rounds: u32, settle: SettleMode) -> Demand {
    let (wanted, cfg) = demand_cfg(d);
    Demand {
        wanted,
        scenario: None,
        cfg,
        task: Arc::new(|| Box::new(StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening"))),
        probe_rounds,
        settle,
    }
}

struct Run {
    workers: usize,
    probe_rounds: u32,
    elapsed: Duration,
    demands_per_sec: f64,
    match_rate: f64,
    mean_surplus: f64,
    /// Total courses the losing candidates ran before settlement (summed
    /// over demands) — the information cost of deciding at this horizon.
    probe_spend: u64,
    sessions_cancelled: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn pool_exchange(sellers: &[Seller]) -> Exchange {
    let exchange = Exchange::new(ExchangeConfig::default());
    for seller in sellers {
        exchange
            .register_seller(SellerSpec {
                market: MarketSpec {
                    provider: Arc::new(TableGainProvider::new(
                        seller
                            .listings()
                            .iter()
                            .zip(&seller.gains)
                            .map(|(l, &g)| (l.bundle, g)),
                    )),
                    listings: Arc::new(seller.listings()),
                    evaluation_key: None,
                    name: seller.name.clone(),
                },
                quoting: {
                    let seller = seller.clone();
                    Arc::new(move |table| seller.quoting_for(table))
                },
            })
            .expect("register seller");
    }
    exchange
}

fn run_drain(sellers: &[Seller], n_demands: usize, workers: usize, probe_rounds: u32) -> Run {
    let exchange = pool_exchange(sellers);
    let demands: Vec<DemandId> = (0..n_demands)
        .map(|d| {
            exchange
                .submit_demand(buyer_demand(d, probe_rounds))
                .expect("submit demand")
        })
        .collect();

    let report = exchange.drain(workers);
    assert_eq!(report.failed, 0, "hard failures in the matching bench");

    let mut matched = 0usize;
    let mut surplus_total = 0.0f64;
    let mut probe_spend = 0u64;
    for &did in &demands {
        let settled = exchange.take_demand(did).expect("every demand settles");
        probe_spend += settled.loser_probe_spend() as u64;
        if let Some(sid) = settled.winning_session() {
            matched += 1;
            let outcome = exchange
                .take(sid)
                .expect("winner terminal")
                .expect("no error");
            surplus_total += outcome.task_revenue().unwrap_or(0.0);
        }
    }
    let snap = exchange.metrics();
    assert_eq!(snap.demands_settled as usize, n_demands);
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    Run {
        workers: report.workers,
        probe_rounds,
        elapsed: report.elapsed,
        demands_per_sec: n_demands as f64 / secs,
        match_rate: matched as f64 / n_demands as f64,
        mean_surplus: surplus_total / n_demands as f64,
        probe_spend,
        sessions_cancelled: snap.sessions_cancelled,
        cache_hits: snap.cache_hits,
        cache_misses: snap.cache_misses,
    }
}

/// Best-single-seller baseline: for each demand, bargain every eligible
/// seller to conclusion directly and keep the best buyer surplus.
fn baseline_mean_surplus(sellers: &[Seller], n_demands: usize) -> f64 {
    let mut total = 0.0f64;
    for d in 0..n_demands {
        let (wanted, cfg) = demand_cfg(d);
        let mut best = 0.0f64;
        for seller in sellers {
            if !seller.catalog().intersects(wanted) {
                continue;
            }
            // Same scoping the matching tier applies: the baseline buyer
            // bargains the wanted-overlap of this seller's catalog.
            let (listings, gains) = seller.scoped(wanted);
            let provider =
                TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
            let mut task = StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening");
            let mut data = seller.quoting_for(&listings);
            let outcome = run_bargaining(&provider, &listings, &mut task, data.as_mut(), &cfg)
                .expect("direct run");
            best = best.max(outcome.task_revenue().unwrap_or(0.0));
        }
        total += best;
    }
    total / n_demands as f64
}

// ---------------------------------------------------------------------------
// E9: double-auction clearing vs best-response on a contended pool
// ---------------------------------------------------------------------------

/// One E9 arm's scorecard.
struct ClearArm {
    label: &'static str,
    elapsed: Duration,
    matched: usize,
    starved: u64,
    epochs: u64,
    rolled: u64,
    /// Realized buyer surplus (winner outcomes' task revenue), summed.
    surplus: f64,
    /// Per-demand realized surplus (0 for unserved) — fairness input.
    per_demand: Vec<f64>,
    /// Mean uniform clearing price over matched epoch demands (0 when
    /// the arm clears nothing).
    mean_price: f64,
}

impl ClearArm {
    fn match_rate(&self) -> f64 {
        self.matched as f64 / self.per_demand.len() as f64
    }

    /// Jain's fairness index over per-demand realized surplus: 1 =
    /// perfectly even, 1/n = one demand takes everything.
    fn fairness(&self) -> f64 {
        let n = self.per_demand.len() as f64;
        let sum: f64 = self.per_demand.iter().sum();
        let sq: f64 = self.per_demand.iter().map(|s| s * s).sum();
        if sq <= 0.0 {
            1.0
        } else {
            sum * sum / (n * sq)
        }
    }
}

/// Drains the contended book through the clearing window under `policy`
/// (per-epoch seller capacity 1), or — with `policy = None` — in plain
/// immediate best-response mode (the no-capacity reference).
fn run_contended(
    sellers: &[Seller],
    n_demands: usize,
    workers: usize,
    label: &'static str,
    policy: Option<(Arc<dyn ClearPolicy>, u32)>,
    epoch_size: usize,
) -> ClearArm {
    let exchange = pool_exchange(sellers);
    let settle = match &policy {
        Some((policy, max_rolls)) => {
            exchange
                .open_clearing(ClearingSpec {
                    epoch_size,
                    capacity: 1,
                    max_rolls: *max_rolls,
                    policy: policy.clone(),
                })
                .expect("open clearing window");
            SettleMode::Epoch
        }
        None => SettleMode::Immediate(Arc::new(BestResponse)),
    };
    let demands: Vec<DemandId> = (0..n_demands)
        .map(|d| {
            exchange
                .submit_demand(demand_with(d, 2, settle.clone()))
                .expect("submit demand")
        })
        .collect();
    let report = exchange.drain(workers);
    assert_eq!(report.failed, 0, "hard failures in the clearing bench");

    let mut matched = 0usize;
    let mut surplus = 0.0f64;
    let mut per_demand = Vec::with_capacity(n_demands);
    let mut price_sum = 0.0f64;
    let mut price_n = 0usize;
    for &did in &demands {
        let settled = exchange.take_demand(did).expect("every demand settles");
        if let Some(p) = settled.clearing_price {
            price_sum += p;
            price_n += 1;
        }
        let realized = settled
            .winning_session()
            .map(|sid| {
                matched += 1;
                exchange
                    .take(sid)
                    .expect("winner terminal")
                    .expect("no error")
                    .task_revenue()
                    .unwrap_or(0.0)
            })
            .unwrap_or(0.0);
        surplus += realized;
        per_demand.push(realized);
    }
    let snap = exchange.metrics();
    ClearArm {
        label,
        elapsed: report.elapsed,
        matched,
        starved: snap.demands_expired,
        epochs: snap.epochs_cleared,
        rolled: snap.demands_rolled,
        surplus,
        per_demand,
        mean_price: if price_n > 0 {
            price_sum / price_n as f64
        } else {
            0.0
        },
    }
}

fn main() {
    let n_demands: usize = std::env::var("MATCHING_BENCH_DEMANDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let sellers = seller_pool(12);

    eprintln!(
        "baseline: bargaining {} demands × eligible sellers to conclusion…",
        n_demands
    );
    let baseline = baseline_mean_surplus(&sellers, n_demands);

    let mut runs: Vec<Run> = Vec::new();
    for workers in [1usize, 4] {
        eprintln!(
            "draining {n_demands} demands over {} sellers on {workers} worker(s)…",
            sellers.len()
        );
        runs.push(run_drain(&sellers, n_demands, workers, 2));
    }

    println!(
        "\n== E7 matching throughput/quality ({n_demands} demands, {} sellers) ==",
        sellers.len()
    );
    println!(
        "{:>8} {:>10} {:>12} {:>11} {:>13} {:>14} {:>10}",
        "workers", "elapsed_s", "demands/s", "match_rate", "mean_surplus", "baseline_best", "ratio"
    );
    for run in &runs {
        let ratio = if baseline > 0.0 {
            run.mean_surplus / baseline
        } else {
            1.0
        };
        println!(
            "{:>8} {:>10.4} {:>12.1} {:>11.3} {:>13.2} {:>14.2} {:>10.4}",
            run.workers,
            run.elapsed.as_secs_f64(),
            run.demands_per_sec,
            run.match_rate,
            run.mean_surplus,
            baseline,
            ratio,
        );
        // The winner is one of the baseline's pairings, so matching can
        // never beat an omniscient single-seller buyer — only tie it.
        assert!(
            run.mean_surplus <= baseline + 1e-6,
            "matching surplus {} exceeds the best-single-seller bound {}",
            run.mean_surplus,
            baseline
        );
        assert!(run.match_rate > 0.0, "the pool must match some demands");
    }

    // Probe-horizon sensitivity: how much surplus each extra probe round
    // recovers, and what it costs in loser courses.
    let mut sweep: Vec<Run> = Vec::new();
    for probe_rounds in [1u32, 2, 4, 8] {
        eprintln!("probe sweep: draining at probe_rounds = {probe_rounds}…");
        sweep.push(run_drain(&sellers, n_demands, 4, probe_rounds));
    }
    println!("\n== E7 probe-horizon sweep ({n_demands} demands, 4 workers) ==");
    println!(
        "{:>6} {:>11} {:>13} {:>10} {:>12} {:>12}",
        "probe", "match_rate", "mean_surplus", "ratio", "probe_spend", "demands/s"
    );
    for run in &sweep {
        let ratio = if baseline > 0.0 {
            run.mean_surplus / baseline
        } else {
            1.0
        };
        println!(
            "{:>6} {:>11.3} {:>13.2} {:>10.4} {:>12} {:>12.1}",
            run.probe_rounds,
            run.match_rate,
            run.mean_surplus,
            ratio,
            run.probe_spend,
            run.demands_per_sec,
        );
        assert!(
            run.mean_surplus <= baseline + 1e-6,
            "probe {} surplus {} exceeds the bound {}",
            run.probe_rounds,
            run.mean_surplus,
            baseline
        );
    }
    // Spend usually grows with the horizon, but it is NOT an invariant: a
    // longer horizon can switch the winner to the candidate with the
    // longest history, shrinking the loser-side sum. Warn, don't gate.
    for pair in sweep.windows(2) {
        if pair[1].probe_spend < pair[0].probe_spend {
            eprintln!(
                "note: probe spend fell {} -> {} between horizons {} and {} \
                 (winner switch)",
                pair[0].probe_spend,
                pair[1].probe_spend,
                pair[0].probe_rounds,
                pair[1].probe_rounds
            );
        }
    }

    // E9: a contended pool (4 sellers for the whole book — every epoch
    // crosses >= 2 demands per seller at capacity 1), three settlement
    // regimes at equal scarcity plus the no-capacity reference.
    let contended = seller_pool(4);
    let n_contended = (n_demands / 3).max(24);
    let epoch_size = 12;
    eprintln!(
        "E9: draining {n_contended} demands over {} contended sellers \
         (epoch {epoch_size}, capacity 1)…",
        contended.len()
    );
    let arms: Vec<ClearArm> = vec![
        run_contended(
            &contended,
            n_contended,
            4,
            "immediate-best-response",
            None,
            epoch_size,
        ),
        run_contended(
            &contended,
            n_contended,
            4,
            "per-demand-best-response",
            Some((Arc::new(PerDemand(BestResponse)), 0)),
            epoch_size,
        ),
        run_contended(
            &contended,
            n_contended,
            4,
            "uniform-price",
            Some((Arc::new(UniformPriceClearing::default()), 0)),
            epoch_size,
        ),
        run_contended(
            &contended,
            n_contended,
            4,
            "uniform-price-patient",
            Some((Arc::new(UniformPriceClearing::default()), u32::MAX)),
            epoch_size,
        ),
    ];
    println!(
        "\n== E9 double-auction clearing ({n_contended} demands, {} sellers, capacity 1) ==",
        contended.len()
    );
    println!(
        "{:>26} {:>8} {:>8} {:>8} {:>7} {:>12} {:>9} {:>10}",
        "arm", "matched", "starved", "epochs", "rolled", "surplus", "fairness", "mean_price"
    );
    for arm in &arms {
        println!(
            "{:>26} {:>8} {:>8} {:>8} {:>7} {:>12.2} {:>9.4} {:>10.2}",
            arm.label,
            arm.matched,
            arm.starved,
            arm.epochs,
            arm.rolled,
            arm.surplus,
            arm.fairness(),
            arm.mean_price,
        );
    }
    let best_response = &arms[1];
    let uniform = &arms[2];
    let patient = &arms[3];
    // The acceptance gate: at equal scarcity and equal patience, the
    // welfare-maximizing cross must not realize less surplus than
    // uncoordinated per-demand selection (it assigns every contended
    // seat to a top claimant instead of whoever is earliest in batch
    // order, and reroutes the rest).
    assert!(
        uniform.surplus >= best_response.surplus - 1e-6,
        "cleared surplus {} fell below the best-response baseline {}",
        uniform.surplus,
        best_response.surplus
    );
    assert!(
        uniform.matched >= best_response.matched,
        "clearing must serve at least as many demands as the baseline"
    );
    // Patience turns starvation into later epochs: full service.
    assert!(
        patient.matched >= uniform.matched,
        "unlimited rolls must not lose served demands"
    );
    assert_eq!(patient.starved, 0, "patient clearing starves nobody");

    let run_json = |r: &Run| {
        format!(
            "    {{\"workers\": {}, \"probe_rounds\": {}, \"elapsed_s\": {:.6}, \
             \"demands_per_sec\": {:.3}, \"match_rate\": {:.6}, \"mean_buyer_surplus\": {:.6}, \
             \"best_single_seller_surplus\": {:.6}, \"surplus_ratio\": {:.6}, \
             \"probe_spend\": {}, \"sessions_cancelled\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}}}",
            r.workers,
            r.probe_rounds,
            r.elapsed.as_secs_f64(),
            r.demands_per_sec,
            r.match_rate,
            r.mean_surplus,
            baseline,
            if baseline > 0.0 {
                r.mean_surplus / baseline
            } else {
                1.0
            },
            r.probe_spend,
            r.sessions_cancelled,
            r.cache_hits,
            r.cache_misses,
        )
    };
    let json_runs: Vec<String> = runs.iter().map(run_json).collect();
    let json_sweep: Vec<String> = sweep.iter().map(run_json).collect();
    let arm_json = |a: &ClearArm| {
        format!(
            "    {{\"arm\": \"{}\", \"demands\": {}, \"matched\": {}, \"match_rate\": {:.6}, \
             \"starved\": {}, \"epochs\": {}, \"rolled\": {}, \"realized_surplus\": {:.6}, \
             \"fairness_jain\": {:.6}, \"mean_clearing_price\": {:.6}, \"elapsed_s\": {:.6}}}",
            a.label,
            a.per_demand.len(),
            a.matched,
            a.match_rate(),
            a.starved,
            a.epochs,
            a.rolled,
            a.surplus,
            a.fairness(),
            a.mean_price,
            a.elapsed.as_secs_f64(),
        )
    };
    let json_arms: Vec<String> = arms.iter().map(arm_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"matching\",\n  \"profile\": \"fast\",\n  \"demands\": {},\n  \
         \"sellers\": {},\n  \"probe_rounds\": 2,\n  \"runs\": [\n{}\n  ],\n  \
         \"probe_sweep\": [\n{}\n  ],\n  \"clearing\": [\n{}\n  ]\n}}\n",
        n_demands,
        sellers.len(),
        json_runs.join(",\n"),
        json_sweep.join(",\n"),
        json_arms.join(",\n")
    );
    write_bench_json("matching", &json);
}
