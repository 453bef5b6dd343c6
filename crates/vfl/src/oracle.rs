//! The gain oracle: the paper's "trustworthy third party, such as a trading
//! platform, which can conduct pre-bargaining training for both parties"
//! (§3.4). It memoizes ΔG per bundle, supports parallel precomputation for
//! the perfect-information setting, and answers on-demand queries for the
//! imperfect setting (where each query corresponds to actually running the
//! VFL course of that round).
//!
//! The memo table is one `HashMap` behind one mutex. The lock covers only
//! the lookup and the insert: a miss trains outside it, so the parallel
//! precompute pass and the `vfl-exchange` course tasks — many courses
//! resolving against one oracle concurrently — serialize only on map
//! operations, never on a training.

use crate::bundle::{BundleCatalog, BundleMask};
use crate::course::{performance_gain, run_course};
use crate::error::Result;
use crate::model_cfg::BaseModelConfig;
use crate::scenario::VflScenario;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Memoizing ΔG oracle over one scenario + base model.
pub struct GainOracle {
    scenario: VflScenario,
    model: BaseModelConfig,
    base: f64,
    seed: u64,
    repeats: usize,
    cache: Mutex<HashMap<u64, f64>>,
    queries: AtomicU64,
}

impl GainOracle {
    /// Trains the isolated task-party model (M0) and wraps the scenario.
    pub fn new(scenario: VflScenario, model: BaseModelConfig, seed: u64) -> Result<Self> {
        Self::with_repeats(scenario, model, seed, 1)
    }

    /// Like [`Self::new`] but every performance measurement (including M0)
    /// averages `repeats` independently seeded trainings — the trading
    /// platform's variance-reduction knob for noisy accuracy estimates.
    pub fn with_repeats(
        scenario: VflScenario,
        model: BaseModelConfig,
        seed: u64,
        repeats: usize,
    ) -> Result<Self> {
        let repeats = repeats.max(1);
        let base = Self::measure(&scenario, &model, BundleMask::EMPTY, seed, repeats)?;
        Ok(GainOracle {
            scenario,
            model,
            base,
            seed,
            repeats,
            cache: Mutex::default(),
            queries: AtomicU64::new(0),
        })
    }

    /// Mean test accuracy over `repeats` independently seeded courses.
    fn measure(
        scenario: &VflScenario,
        model: &BaseModelConfig,
        bundle: BundleMask,
        seed: u64,
        repeats: usize,
    ) -> Result<f64> {
        let mut total = 0.0;
        for r in 0..repeats {
            total += run_course(
                scenario,
                model,
                bundle,
                seed.wrapping_add(r as u64 * 1_000_003),
            )?;
        }
        Ok(total / repeats as f64)
    }

    /// Isolated task-party performance M0 (test accuracy).
    pub fn base_performance(&self) -> f64 {
        self.base
    }

    /// The wrapped scenario.
    pub fn scenario(&self) -> &VflScenario {
        &self.scenario
    }

    /// The base-model configuration.
    pub fn model(&self) -> &BaseModelConfig {
        &self.model
    }

    /// Number of *uncached* gain computations performed so far (the paper's
    /// "query fees" accrue on these). Counted atomically, so the tally stays
    /// accurate when many threads train courses concurrently; two threads
    /// racing on the same cold bundle each pay for (and count) their own
    /// course, exactly like two simultaneous platform queries would.
    pub fn query_count(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// The memo table, recovering it if a thread panicked while holding
    /// the lock (the map is never left half-updated).
    fn memo(&self) -> MutexGuard<'_, HashMap<u64, f64>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// ΔG for a bundle, training the joint model on a cache miss. The miss
    /// path trains *outside* the memo lock, so concurrent misses on
    /// different bundles never serialize.
    pub fn gain(&self, bundle: BundleMask) -> Result<f64> {
        if let Some(g) = self.cached_gain(bundle) {
            return Ok(g);
        }
        let m = Self::measure(&self.scenario, &self.model, bundle, self.seed, self.repeats)?;
        let g = performance_gain(m, self.base);
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.memo().insert(bundle.0, g);
        Ok(g)
    }

    /// Cached ΔG if present (no training).
    pub fn cached_gain(&self, bundle: BundleMask) -> Option<f64> {
        self.memo().get(&bundle.0).copied()
    }

    /// Number of distinct bundles currently cached.
    pub fn cached_len(&self) -> usize {
        self.memo().len()
    }

    /// Precomputes ΔG for every bundle in the catalog using `n_threads`
    /// workers (0 = one per core). This is the pre-bargaining training pass
    /// the trading platform runs in the perfect-information setting.
    pub fn precompute(&self, catalog: &BundleCatalog, n_threads: usize) -> Result<()> {
        let todo: Vec<BundleMask> = catalog
            .bundles()
            .iter()
            .copied()
            .filter(|b| self.cached_gain(*b).is_none())
            .collect();
        if todo.is_empty() {
            return Ok(());
        }
        let n_threads = match n_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        }
        .clamp(1, todo.len());

        if n_threads == 1 {
            for b in todo {
                self.gain(b)?;
            }
            return Ok(());
        }
        let chunk = todo.len().div_ceil(n_threads);
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|bundles| {
                    scope.spawn(move || {
                        for &b in bundles {
                            self.gain(b)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle worker panicked"))
                .collect()
        });
        for r in results {
            r?;
        }
        Ok(())
    }

    /// Gains for every catalog bundle (after `precompute`, all cached).
    pub fn gains_for(&self, catalog: &BundleCatalog) -> Result<Vec<f64>> {
        catalog.bundles().iter().map(|&b| self.gain(b)).collect()
    }

    /// Largest ΔG across the catalog (ΔG_max of Theorem 3.1).
    pub fn max_gain(&self, catalog: &BundleCatalog) -> Result<f64> {
        Ok(self
            .gains_for(catalog)?
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max))
    }
}

impl std::fmt::Debug for GainOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GainOracle")
            .field("scenario", &self.scenario.name())
            .field("model", &self.model.name())
            .field("base", &self.base)
            .field("cached", &self.cached_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::CatalogStrategy;
    use crate::scenario::ScenarioConfig;
    use vfl_tabular::synth::{self, DatasetId, SynthConfig};

    fn oracle() -> GainOracle {
        // 400 rows: at 350 this (dataset seed, scenario seed, oracle seed)
        // triple lands on a degenerate draw where the isolated task model
        // already matches the joint model's test accuracy (full-bundle
        // ΔG = 0); 400 rows sits in a robust region of the gain landscape.
        let ds = synth::generate(DatasetId::Titanic, SynthConfig::sized(400, 1)).unwrap();
        let assignment = synth::party_assignment(DatasetId::Titanic, &ds).unwrap();
        let s = VflScenario::build(
            &ds,
            &assignment,
            &ScenarioConfig {
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        GainOracle::new(s, BaseModelConfig::forest(0), 9).unwrap()
    }

    #[test]
    fn base_is_reasonable_and_caching_works() {
        let o = oracle();
        assert!(o.base_performance() > 0.5);
        let b = BundleMask::singleton(1);
        assert!(o.cached_gain(b).is_none());
        let g1 = o.gain(b).unwrap();
        assert_eq!(o.cached_gain(b), Some(g1));
        let queries_after_first = o.query_count();
        let g2 = o.gain(b).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(
            o.query_count(),
            queries_after_first,
            "second lookup must hit cache"
        );
    }

    #[test]
    fn precompute_fills_catalog() {
        let o = oracle();
        let catalog = BundleCatalog::generate(5, CatalogStrategy::AllSubsets).unwrap();
        o.precompute(&catalog, 2).unwrap();
        for &b in catalog.bundles() {
            assert!(o.cached_gain(b).is_some(), "missing {b}");
        }
        assert_eq!(o.cached_len(), 31, "every bundle lands in the memo");
        let gains = o.gains_for(&catalog).unwrap();
        assert_eq!(gains.len(), 31);
        let max = o.max_gain(&catalog).unwrap();
        assert!(gains.iter().all(|&g| g <= max));
    }

    #[test]
    fn parallel_precompute_matches_serial() {
        let o1 = oracle();
        let o2 = oracle();
        let catalog = BundleCatalog::generate(5, CatalogStrategy::AllSubsets).unwrap();
        o1.precompute(&catalog, 1).unwrap();
        o2.precompute(&catalog, 4).unwrap();
        assert_eq!(
            o1.gains_for(&catalog).unwrap(),
            o2.gains_for(&catalog).unwrap()
        );
    }

    #[test]
    fn repeats_reduce_to_single_when_one() {
        let ds = synth::generate(DatasetId::Titanic, SynthConfig::sized(400, 1)).unwrap();
        let assignment = synth::party_assignment(DatasetId::Titanic, &ds).unwrap();
        let build = |rep| {
            let s = VflScenario::build(
                &ds,
                &assignment,
                &ScenarioConfig {
                    seed: 4,
                    ..Default::default()
                },
            )
            .unwrap();
            GainOracle::with_repeats(s, BaseModelConfig::forest(0), 9, rep).unwrap()
        };
        let one = build(1);
        let plain = oracle();
        assert_eq!(one.base_performance(), plain.base_performance());
        // Averaged oracle differs (more courses) but is still deterministic.
        let avg_a = build(3);
        let avg_b = build(3);
        assert_eq!(avg_a.base_performance(), avg_b.base_performance());
        assert_eq!(
            avg_a.gain(BundleMask::singleton(0)).unwrap(),
            avg_b.gain(BundleMask::singleton(0)).unwrap()
        );
    }

    #[test]
    fn full_bundle_has_positive_gain() {
        let o = oracle();
        let g = o.gain(BundleMask::all(5)).unwrap();
        assert!(g > 0.0, "full bundle gain {g}");
    }
}
