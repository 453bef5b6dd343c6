//! Builds the benchmark's own cells: synthetic dataset → `VflScenario` →
//! `GainOracle` (landscape precomputed) → priced listings, for one
//! (dataset × base model) pair. Everything derives from the cell seed.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use vfl_market::{
    build_listings, run_bargaining, GainProvider, Listing, MarketConfig, MarketError, Outcome,
    ReservedPricing, Result, StrategicData, StrategicTask,
};
use vfl_ml::{ForestConfig, MaxFeatures, TrainConfig};
use vfl_sim::{
    BaseModelConfig, BundleCatalog, BundleMask, CatalogStrategy, GainOracle, ScenarioConfig,
    VflScenario,
};
use vfl_tabular::synth::{self, DatasetId, SynthConfig};

use crate::stats::mix;
use crate::trace::ModelKind;

/// Compute size of a cell's courses.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub rows: usize,
    pub max_train_rows: usize,
    pub max_test_rows: usize,
    pub rf_trees: usize,
    pub rf_depth: usize,
    pub mlp_epochs: usize,
    /// Catalog size for datasets too wide to enumerate.
    pub catalog_target: usize,
}

impl Profile {
    pub const STANDARD: Profile = Profile {
        rows: 500,
        max_train_rows: 300,
        max_test_rows: 160,
        rf_trees: 12,
        rf_depth: 6,
        mlp_epochs: 10,
        catalog_target: 20,
    };

    pub const TINY: Profile = Profile {
        rows: 300,
        max_train_rows: 160,
        max_test_rows: 80,
        rf_trees: 4,
        rf_depth: 4,
        mlp_epochs: 3,
        catalog_target: 8,
    };
}

/// Per-dataset market terms (utility, budget, opening quote, reserve
/// pricing), tuned so the strategic players close on the synthetic
/// landscapes.
struct Terms {
    utility: f64,
    budget: f64,
    rate_cap: f64,
    init_rate: f64,
    init_base: f64,
    eps: f64,
    rate_per_feature: f64,
    payment_per_feature: f64,
    rate_floor: f64,
    payment_floor: f64,
}

fn terms(id: DatasetId) -> Terms {
    match id {
        DatasetId::Titanic => Terms {
            utility: 1000.0,
            budget: 6.0,
            rate_cap: 16.0,
            init_rate: 6.0,
            init_base: 0.9,
            eps: 1e-3,
            rate_per_feature: 0.9,
            payment_per_feature: 0.11,
            rate_floor: 4.5,
            payment_floor: 0.72,
        },
        DatasetId::Credit => Terms {
            utility: 1000.0,
            budget: 4.5,
            rate_cap: 16.0,
            init_rate: 6.0,
            init_base: 0.9,
            eps: 1e-4,
            rate_per_feature: 0.25,
            payment_per_feature: 0.03,
            rate_floor: 4.5,
            payment_floor: 0.72,
        },
        DatasetId::Adult => Terms {
            utility: 110.0,
            budget: 4.5,
            rate_cap: 16.0,
            init_rate: 6.0,
            init_base: 0.55,
            eps: 1e-4,
            rate_per_feature: 0.55,
            payment_per_feature: 0.12,
            rate_floor: 4.5,
            payment_floor: 0.30,
        },
    }
}

/// Wall time one cell build spent in each setup layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// Dataset synthesis, party split, and scenario build.
    pub synth_s: f64,
    /// Base-model fit, landscape precompute, and listing pricing.
    pub oracle_s: f64,
}

impl std::ops::AddAssign for BuildTimes {
    fn add_assign(&mut self, o: BuildTimes) {
        self.synth_s += o.synth_s;
        self.oracle_s += o.oracle_s;
    }
}

/// One ready-to-trade (dataset × base model) cell.
pub struct Cell {
    pub name: String,
    pub kind: ModelKind,
    /// The warm oracle: every catalog bundle's ΔG is memoized.
    pub oracle: Arc<GainOracle>,
    oracle_seed: u64,
    pub listings: Arc<Vec<Listing>>,
    /// ΔG per listing (the perfect-information table).
    pub gains: Vec<f64>,
    /// The task party's target ΔG* (the catalog maximum).
    pub target_gain: f64,
    /// Evaluation key of the warm cell's cache space.
    pub key: u64,
    /// Market configuration before the per-order run seed.
    pub cfg: MarketConfig,
    init_rate: f64,
    init_base: f64,
}

impl Cell {
    /// Builds the cell, re-deriving the seed until the landscape has a
    /// positive target gain (so every order the generator makes is valid).
    pub fn build(
        id: DatasetId,
        kind: ModelKind,
        profile: &Profile,
        seed: u64,
        times: &mut BuildTimes,
    ) -> Result<Cell> {
        for attempt in 0..16 {
            let cell_seed = mix(seed, attempt);
            if let Some(cell) = Self::try_build(id, kind, profile, cell_seed, times)? {
                return Ok(cell);
            }
        }
        Err(MarketError::InvalidConfig(format!(
            "{id}/{}: no seed gave a positive gain landscape",
            kind.name()
        )))
    }

    fn try_build(
        id: DatasetId,
        kind: ModelKind,
        profile: &Profile,
        seed: u64,
        times: &mut BuildTimes,
    ) -> Result<Option<Cell>> {
        let t0 = Instant::now();
        let invalid = |e: vfl_tabular::TabularError| MarketError::InvalidConfig(e.to_string());
        let dataset =
            synth::generate(id, SynthConfig::sized(profile.rows, seed)).map_err(invalid)?;
        let assignment = synth::party_assignment(id, &dataset).map_err(invalid)?;
        let scenario = VflScenario::build(
            &dataset,
            &assignment,
            &ScenarioConfig {
                train_frac: 0.7,
                max_train_rows: profile.max_train_rows,
                max_test_rows: profile.max_test_rows,
                seed: seed ^ 0x59117,
            },
        )?;
        let t1 = Instant::now();
        let model = match kind {
            ModelKind::Forest => BaseModelConfig::RandomForest(ForestConfig {
                n_trees: profile.rf_trees,
                max_depth: profile.rf_depth,
                min_samples_leaf: 4,
                max_features: MaxFeatures::Frac(0.7),
                bootstrap: true,
                n_threads: 1,
                seed,
            }),
            ModelKind::Mlp => BaseModelConfig::Mlp {
                hidden: [64, 32],
                train: TrainConfig {
                    epochs: profile.mlp_epochs,
                    batch_size: 128,
                    lr: 1e-2,
                    seed,
                },
            },
        };
        let n_features = scenario.n_data_features();
        let strategy = if (1usize << n_features.min(20)) - 1 <= profile.catalog_target * 2 {
            CatalogStrategy::AllSubsets
        } else {
            CatalogStrategy::Sampled {
                target: profile.catalog_target,
                seed: seed ^ 0xca7,
            }
        };
        let catalog = BundleCatalog::generate(n_features, strategy)?;
        let oracle_seed = seed ^ 0x02ac1e;
        let oracle = GainOracle::new(scenario, model, oracle_seed)?;
        oracle.precompute(&catalog, 1)?;
        let gains = oracle.gains_for(&catalog)?;
        let t = terms(id);
        let listings = build_listings(
            &catalog,
            &ReservedPricing::PerFeature {
                base_rate: t.rate_floor,
                rate_per_feature: t.rate_per_feature,
                base_payment: t.payment_floor,
                payment_per_feature: t.payment_per_feature,
                noise: 0.08,
                seed: seed ^ 0x9d1ce,
            },
        )?;
        times.synth_s += (t1 - t0).as_secs_f64();
        times.oracle_s += t1.elapsed().as_secs_f64();
        let target_gain = gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !(target_gain > 0.0 && target_gain.is_finite()) {
            return Ok(None);
        }
        Ok(Some(Cell {
            name: format!("{id}/{}", kind.name()),
            kind,
            oracle: Arc::new(oracle),
            oracle_seed,
            listings: Arc::new(listings),
            gains,
            target_gain,
            key: mix(seed, 0xce11) & !(1 << 63),
            cfg: MarketConfig {
                utility_rate: t.utility,
                budget: t.budget,
                rate_cap: t.rate_cap,
                eps_task: t.eps,
                eps_data: t.eps,
                max_rounds: 300,
                ..MarketConfig::default()
            },
            init_rate: t.init_rate,
            init_base: t.init_base,
        }))
    }

    /// The market configuration of run `run`.
    pub fn cfg_for(&self, run: u64) -> MarketConfig {
        self.cfg.with_run_seed(run)
    }

    /// The paper's strategic task party for this cell.
    pub fn task(&self) -> StrategicTask {
        StrategicTask::new(self.target_gain, self.init_rate, self.init_base)
            .expect("cells are built with a positive target gain")
    }

    /// The paper's strategic data party over this cell's full table.
    pub fn data(&self) -> StrategicData {
        StrategicData::with_gains(self.gains.clone())
    }

    /// ΔG of a listed bundle (for seller quoting tables).
    pub fn gain_of(&self, bundle: BundleMask) -> f64 {
        self.oracle
            .cached_gain(bundle)
            .expect("every listed bundle was precomputed")
    }

    /// The direct, single-session reference run of order `run`
    /// (`run_bargaining` over the warm oracle).
    pub fn reference(&self, run: u64) -> Result<Outcome> {
        run_bargaining(
            &*self.oracle,
            &self.listings,
            &mut self.task(),
            &mut self.data(),
            &self.cfg_for(run),
        )
    }

    /// A provider that realizes this cell's landscape anew: same
    /// scenario, model, and oracle seed, empty memo. Its base model is fit
    /// on the first call, inside the first course.
    pub fn cold_twin(self: &Arc<Self>) -> ColdTwin {
        ColdTwin {
            cell: self.clone(),
            oracle: OnceLock::new(),
        }
    }
}

/// The warm oracle as a shareable provider.
pub struct Warm(pub Arc<GainOracle>);

impl GainProvider for Warm {
    fn gain(&self, bundle: BundleMask) -> Result<f64> {
        GainProvider::gain(&*self.0, bundle)
    }

    fn known_gain(&self, bundle: BundleMask) -> Option<f64> {
        self.0.cached_gain(bundle)
    }
}

/// See [`Cell::cold_twin`].
pub struct ColdTwin {
    cell: Arc<Cell>,
    oracle: OnceLock<Result<GainOracle>>,
}

impl GainProvider for ColdTwin {
    fn gain(&self, bundle: BundleMask) -> Result<f64> {
        let oracle = self.oracle.get_or_init(|| {
            let base = &self.cell.oracle;
            GainOracle::new(
                base.scenario().clone(),
                *base.model(),
                self.cell.oracle_seed,
            )
            .map_err(MarketError::from)
        });
        match oracle {
            Ok(o) => GainProvider::gain(o, bundle),
            Err(e) => Err(e.clone()),
        }
    }
}
