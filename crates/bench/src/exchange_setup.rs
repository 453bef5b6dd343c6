//! Bridges [`PreparedMarket`] cells into a [`vfl_exchange::Exchange`]: the
//! throughput benches (E6, E7) and the exchange smoke test register
//! heterogeneous (dataset × base model) cells — as plain markets or as
//! quoting sellers on the matching tier — and submit seeded strategic
//! sessions/demands through this module, so they agree on strategy wiring.

use crate::params::RunProfile;
use crate::setup::PreparedMarket;
use std::sync::Arc;
use vfl_exchange::{
    BestResponse, Demand, Exchange, MarketId, MarketSpec, SellerId, SellerSpec, SessionOrder,
    SettleMode,
};
use vfl_market::{Result, StrategicData, StrategicTask};
use vfl_sim::BundleMask;

/// Registers one prepared market cell, serving ΔG from a *cold* twin of its
/// oracle (real Step-3 course work; the shared exchange cache is what makes
/// repeats cheap). Cells built from the same (dataset, model, seed) share
/// an evaluation key and therefore cache entries.
pub fn register_cell(
    exchange: &Exchange,
    market: &PreparedMarket,
    profile: &RunProfile,
) -> Result<MarketId> {
    let oracle = market.cold_oracle(profile)?;
    exchange.register_market(MarketSpec {
        provider: Arc::new(oracle),
        listings: Arc::new(market.listings.clone()),
        evaluation_key: Some(market.evaluation_key(profile)),
        name: format!("{}/{}", market.id, market.model_kind.name()),
    })
}

/// A strategic-vs-strategic session order on `market`, independently seeded
/// for repetition `run` (mirrors how the experiment grid seeds its arms).
pub fn strategic_order(market: &PreparedMarket, profile: &RunProfile, run: u64) -> SessionOrder {
    let cfg = market.market_config(profile).with_run_seed(run);
    SessionOrder {
        cfg,
        task: Box::new(
            StrategicTask::new(
                market.target_gain,
                market.params.init_rate,
                market.params.init_base,
            )
            .expect("prepared markets have valid openings"),
        ),
        data: Box::new(StrategicData::with_gains(market.gains.clone())),
    }
}

/// Registers a prepared market cell as a quoting data party on the matching
/// tier: same cold oracle and evaluation key as [`register_cell`], quoting
/// with the paper's strategic data party over the cell's gain landscape.
/// `listings` restricts the seller's catalog to a subset of the cell's
/// listing table (by index); `None` sells the whole catalog — two sellers
/// over different subsets of one cell model competing data parties with
/// overlapping features.
pub fn seller_cell(
    exchange: &Exchange,
    market: &PreparedMarket,
    profile: &RunProfile,
    listings: Option<&[usize]>,
) -> Result<SellerId> {
    let oracle = market.cold_oracle(profile)?;
    let table: Vec<vfl_market::Listing> = match listings {
        Some(keep) => keep.iter().map(|&i| market.listings[i]).collect(),
        None => market.listings.clone(),
    };
    let gains: Vec<f64> = match listings {
        Some(keep) => keep.iter().map(|&i| market.gains[i]).collect(),
        None => market.gains.clone(),
    };
    let suffix = listings.map_or_else(String::new, |keep| format!("#{}", keep.len()));
    let by_bundle: std::collections::HashMap<u64, f64> = table
        .iter()
        .zip(&gains)
        .map(|(l, &g)| (l.bundle.0, g))
        .collect();
    exchange.register_seller(SellerSpec {
        market: MarketSpec {
            provider: Arc::new(oracle),
            listings: Arc::new(table),
            evaluation_key: Some(market.evaluation_key(profile)),
            name: format!("{}/{}{}", market.id, market.model_kind.name(), suffix),
        },
        quoting: Arc::new(move |scoped| {
            Box::new(StrategicData::with_gains(
                scoped.iter().map(|l| by_bundle[&l.bundle.0]).collect(),
            ))
        }),
    })
}

/// Training recorder for the replay/durability proofs (the
/// replay-equivalence tier and the E8 bench): every wrapped provider call
/// is one *paid* course, tagged with its evaluation key so entries compare
/// directly against `CourseServed` journal events.
#[derive(Clone, Default)]
pub struct TrainingRecorder {
    trained: Arc<std::sync::Mutex<Vec<(u64, u64)>>>,
}

impl TrainingRecorder {
    /// The distinct `(evaluation key, bundle bits)` pairs trained so far.
    pub fn set(&self) -> std::collections::HashSet<(u64, u64)> {
        self.trained.lock().unwrap().iter().copied().collect()
    }

    /// Total trainings recorded, repeats included — the probe for "this
    /// course was paid exactly N times" assertions.
    pub fn count(&self) -> usize {
        self.trained.lock().unwrap().len()
    }
}

/// A [`vfl_market::TableGainProvider`] wrapper that records each training
/// into a shared [`TrainingRecorder`] — how the replay proofs count (and
/// then forbid) re-trained courses.
#[derive(Clone)]
pub struct CountingGainProvider {
    inner: vfl_market::TableGainProvider,
    eval_key: u64,
    recorder: TrainingRecorder,
}

impl CountingGainProvider {
    /// Wraps `inner`, tagging every training with `eval_key`.
    pub fn new(
        inner: vfl_market::TableGainProvider,
        eval_key: u64,
        recorder: &TrainingRecorder,
    ) -> Self {
        CountingGainProvider {
            inner,
            eval_key,
            recorder: recorder.clone(),
        }
    }
}

impl vfl_market::GainProvider for CountingGainProvider {
    fn gain(&self, bundle: BundleMask) -> Result<f64> {
        self.recorder
            .trained
            .lock()
            .unwrap()
            .push((self.eval_key, bundle.0));
        self.inner.gain(bundle)
    }
}

/// A training that costs a fixed wall-clock slice before the table lookup —
/// the stand-in for a real model fit in the telemetry bench (E11). It
/// busy-spins (µs-scale precision, burns the core — right for measuring
/// overhead against real CPU work).
pub struct SpinGainProvider {
    inner: vfl_market::TableGainProvider,
    latency: std::time::Duration,
}

impl SpinGainProvider {
    /// Wraps `inner`, busy-spinning `latency` of wall clock per training.
    pub fn new(inner: vfl_market::TableGainProvider, latency: std::time::Duration) -> Self {
        SpinGainProvider { inner, latency }
    }
}

impl vfl_market::GainProvider for SpinGainProvider {
    fn gain(&self, bundle: BundleMask) -> Result<f64> {
        let start = std::time::Instant::now();
        while start.elapsed() < self.latency {
            std::hint::spin_loop();
        }
        self.inner.gain(bundle)
    }
}

/// A demand mirroring [`strategic_order`]'s buyer side: same opening quote
/// and per-run seed, wanting every feature the cell lists, scoped to the
/// cell's scenario fingerprint, settled by best-response selection.
pub fn strategic_demand(
    market: &PreparedMarket,
    profile: &RunProfile,
    run: u64,
    probe_rounds: u32,
) -> Demand {
    let cfg = market.market_config(profile).with_run_seed(run);
    let (target, rate, base) = (
        market.target_gain,
        market.params.init_rate,
        market.params.init_base,
    );
    Demand {
        wanted: BundleMask::union_of(market.listings.iter().map(|l| l.bundle)),
        scenario: Some(market.evaluation_key(profile)),
        cfg,
        task: Arc::new(move || {
            Box::new(StrategicTask::new(target, rate, base).expect("valid opening"))
        }),
        probe_rounds,
        settle: SettleMode::Immediate(Arc::new(BestResponse)),
    }
}
