//! Data-party strategies under perfect performance information (§3.4.1),
//! plus the non-strategic *Random Bundle* baseline (§4.2).

use crate::config::MarketConfig;
use crate::error::{MarketError, Result};
use crate::listing::Listing;
use crate::strategy::{DataContext, DataResponse, DataStrategy};
use crate::termination::{data_success, eq6_data_accepts};
use rand::rngs::StdRng;
use rand::RngExt;

/// Cheapest listing by (base, rate) — the exploration fallback offer when
/// nothing is affordable but Case VII forbids failing.
fn cheapest_listing(listings: &[Listing]) -> usize {
    listings
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            (a.reserved.base, a.reserved.rate)
                .partial_cmp(&(b.reserved.base, b.reserved.rate))
                .expect("finite reserves")
        })
        .map(|(i, _)| i)
        .expect("non-empty listings")
}

/// What a data party answers when no listing clears the quote: Case 1,
/// relaxed to a cheapest-bundle offer during exploration (Case VII keeps
/// the game alive to generate training samples).
fn nothing_affordable(ctx: &DataContext<'_>, listings: &[Listing]) -> DataResponse {
    if ctx.exploring {
        DataResponse::Offer {
            listing: cheapest_listing(listings),
            is_final: false,
        }
    } else {
        DataResponse::Withdraw
    }
}

/// Rejects a gain table that is not aligned with the listing table.
fn check_table(gains: &[f64], listings: &[Listing]) -> Result<()> {
    if gains.len() == listings.len() {
        return Ok(());
    }
    Err(MarketError::StrategyError(format!(
        "gain table has {} entries for {} listings",
        gains.len(),
        listings.len()
    )))
}

/// §3.4.1 bundle selection over one candidate set, fed in listing order:
/// the bundle whose gain lies nearest to but not above the target; if
/// every gain exceeds it, the smallest-excess one (payment is capped at
/// `Ph` either way — Case II branch 3 mirrored into the perfect setting).
///
/// Ties follow `Iterator::max_by` / `min_by`: the **last** of equal gains
/// below the target, the **first** of equal smallest excesses.
#[derive(Default)]
struct NearestBelow {
    below: Option<(usize, f64)>,
    lowest: Option<(usize, f64)>,
}

impl NearestBelow {
    /// Offers listing `i` with `gain`; `ceiling` is the target plus the
    /// slack that keeps a bundle sitting exactly at the reconstructed
    /// target `(cap - base)/rate` "not above" it.
    fn push(&mut self, i: usize, gain: f64, ceiling: f64) {
        if gain <= ceiling && self.below.is_none_or(|(_, g)| gain >= g) {
            self.below = Some((i, gain));
        }
        if self.lowest.is_none_or(|(_, g)| gain < g) {
            self.lowest = Some((i, gain));
        }
    }

    /// The selected listing; `None` when nothing was pushed.
    fn pick(&self) -> Option<usize> {
        self.below.or(self.lowest).map(|(i, _)| i)
    }
}

/// The strategic data party with perfect performance information: it knows
/// the true ΔG of every listing (pre-bargaining training by the trading
/// platform, §3.4).
#[derive(Debug, Clone)]
pub struct StrategicData {
    gains: Vec<f64>,
    /// The best gain on offer (supply exhausted once it is offered).
    best_overall: f64,
}

impl StrategicData {
    /// Builds from per-listing true gains (aligned with the listing table).
    pub fn with_gains(gains: Vec<f64>) -> Self {
        let best_overall = gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        StrategicData {
            gains,
            best_overall,
        }
    }

    /// The gains table (for inspection).
    pub fn gains(&self) -> &[f64] {
        &self.gains
    }
}

impl DataStrategy for StrategicData {
    fn respond(
        &mut self,
        ctx: &DataContext<'_>,
        listings: &[Listing],
        cfg: &MarketConfig,
        _rng: &mut StdRng,
    ) -> Result<DataResponse> {
        check_table(&self.gains, listings)?;
        let admits = |l: &Listing| l.reserved.admits(ctx.quote);
        let Some(first) = listings.iter().position(admits) else {
            return Ok(nothing_affordable(ctx, listings));
        };
        let target = ctx.quote.target_gain();
        let ceiling = target + 1e-9;
        // §3.3 makes the objective functions mutually known, so the seller
        // knows the buyer's break-even gain P0/(u - p): offering below it
        // triggers a certain Case 4 failure, which a rational seller avoids
        // whenever a viable bundle exists.
        let break_even = ctx.quote.break_even_gain(cfg.utility_rate);
        // One pass: every affordable listing, and the viable ones among them.
        let mut affordable = NearestBelow::default();
        let mut viable = NearestBelow::default();
        for (i, (listing, &gain)) in listings.iter().zip(&self.gains).enumerate().skip(first) {
            if admits(listing) {
                affordable.push(i, gain, ceiling);
                if gain >= break_even {
                    viable.push(i, gain, ceiling);
                }
            }
        }
        let pick = viable
            .pick()
            .or(affordable.pick())
            .expect("listing `first` is affordable");
        if ctx.exploring {
            return Ok(DataResponse::Offer {
                listing: pick,
                is_final: false,
            });
        }

        let is_final = if cfg.data_cost.is_flat() {
            // Case 2 (ε_d rule), plus the supply-exhausted shortcut: when the
            // globally best bundle is already affordable and offered, no
            // escalation can improve the offer — close the deal (the perfect
            // -information mirror of Case II branch 2).
            data_success(ctx.quote, self.gains[pick], cfg.eps_data)
                || self.gains[pick] >= self.best_overall
        } else {
            // Eq. 6: compare with a conservative estimate of next round. The
            // "target bundle" is the cheapest listing whose gain reaches the
            // target; absent one, the selected bundle itself.
            let target_reserve = listings
                .iter()
                .enumerate()
                .filter(|(i, _)| self.gains[*i] >= target)
                .min_by(|(_, a), (_, b)| {
                    (a.reserved.base + a.reserved.rate)
                        .partial_cmp(&(b.reserved.base + b.reserved.rate))
                        .expect("finite reserves")
                })
                .map(|(_, l)| l.reserved)
                .unwrap_or(listings[pick].reserved);
            eq6_data_accepts(
                ctx.quote,
                self.gains[pick],
                &target_reserve,
                ctx.cost_now,
                ctx.cost_next,
                cfg.eps_data_cost,
            )
        };
        Ok(DataResponse::Offer {
            listing: pick,
            is_final,
        })
    }

    fn name(&self) -> &'static str {
        "strategic_data"
    }
}

/// The *Random Bundle* baseline (§4.2): filters by reserved price, then
/// offers a uniformly random affordable bundle. Termination conditions are
/// unchanged, so low-gain offers frequently trip the task party's Case 4.
#[derive(Debug, Clone)]
pub struct RandomBundleData {
    gains: Vec<f64>,
}

impl RandomBundleData {
    /// Builds from per-listing true gains (used only for the Case 2 check).
    pub fn with_gains(gains: Vec<f64>) -> Self {
        RandomBundleData { gains }
    }
}

impl DataStrategy for RandomBundleData {
    fn respond(
        &mut self,
        ctx: &DataContext<'_>,
        listings: &[Listing],
        cfg: &MarketConfig,
        rng: &mut StdRng,
    ) -> Result<DataResponse> {
        check_table(&self.gains, listings)?;
        let affordable = || {
            listings
                .iter()
                .enumerate()
                .filter(|(_, l)| l.reserved.admits(ctx.quote))
        };
        let n = affordable().count();
        if n == 0 {
            return Ok(nothing_affordable(ctx, listings));
        }
        // Count, draw once, then index: the same single draw as picking
        // from a collected list of the affordable indices.
        let (pick, _) = affordable()
            .nth(rng.random_range(0..n))
            .expect("the draw is below the affordable count");
        let is_final = !ctx.exploring && data_success(ctx.quote, self.gains[pick], cfg.eps_data);
        Ok(DataResponse::Offer {
            listing: pick,
            is_final,
        })
    }

    fn name(&self) -> &'static str {
        "random_bundle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::price::{QuotedPrice, ReservedPrice};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use vfl_sim::BundleMask;

    fn listings() -> Vec<Listing> {
        // Reserves grow with gain; gains: 0.05, 0.12, 0.20, 0.30.
        [
            (0.05, 5.0, 0.8),
            (0.12, 7.0, 1.0),
            (0.20, 9.0, 1.2),
            (0.30, 11.0, 1.5),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(_, rate, base))| Listing {
            bundle: BundleMask::singleton(i),
            reserved: ReservedPrice::new(rate, base).unwrap(),
        })
        .collect()
    }

    fn gains() -> Vec<f64> {
        vec![0.05, 0.12, 0.20, 0.30]
    }

    fn ctx<'a>(quote: &'a QuotedPrice, exploring: bool) -> DataContext<'a> {
        DataContext {
            round: 1,
            exploring,
            quote,
            cost_now: 0.0,
            cost_next: 0.0,
        }
    }

    #[test]
    fn withdraws_when_nothing_affordable() {
        let mut s = StrategicData::with_gains(gains());
        let quote = QuotedPrice::new(4.0, 0.5, 1.0).unwrap(); // below every reserve
        let mut rng = StdRng::seed_from_u64(1);
        let r = s.respond(
            &ctx(&quote, false),
            &listings(),
            &MarketConfig::default(),
            &mut rng,
        );
        assert_eq!(r.unwrap(), DataResponse::Withdraw);
    }

    #[test]
    fn explores_cheapest_when_nothing_affordable() {
        let mut s = StrategicData::with_gains(gains());
        let quote = QuotedPrice::new(4.0, 0.5, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let r = s
            .respond(
                &ctx(&quote, true),
                &listings(),
                &MarketConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(
            r,
            DataResponse::Offer {
                listing: 0,
                is_final: false
            }
        );
    }

    #[test]
    fn offers_nearest_below_target() {
        let mut s = StrategicData::with_gains(gains());
        // Affordable: listings 0 and 1 (rate 7.5 >= 7, base 1.05 >= 1.0).
        // Target gain: (2.25 - 1.05)/7.5 = 0.16 -> nearest below = 0.12.
        let quote = QuotedPrice::new(7.5, 1.05, 2.25).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let r = s
            .respond(
                &ctx(&quote, false),
                &listings(),
                &MarketConfig::default(),
                &mut rng,
            )
            .unwrap();
        match r {
            DataResponse::Offer { listing, is_final } => {
                assert_eq!(listing, 1);
                assert!(!is_final, "0.16 - 0.12 > eps_d");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn closes_when_target_hit() {
        let mut s = StrategicData::with_gains(gains());
        // Target gain exactly 0.12 with listing 1 affordable.
        let quote = QuotedPrice::new(7.5, 1.05, 1.05 + 7.5 * 0.12).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let r = s
            .respond(
                &ctx(&quote, false),
                &listings(),
                &MarketConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(
            r,
            DataResponse::Offer {
                listing: 1,
                is_final: true
            }
        );
    }

    #[test]
    fn closes_when_supply_exhausted() {
        // Everything affordable, target far above the best gain: the seller
        // offers its best bundle and closes (no escalation can help).
        let mut s = StrategicData::with_gains(gains());
        let quote = QuotedPrice::new(20.0, 2.0, 2.0 + 20.0 * 0.9).unwrap(); // target 0.9
        let mut rng = StdRng::seed_from_u64(1);
        let r = s
            .respond(
                &ctx(&quote, false),
                &listings(),
                &MarketConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(
            r,
            DataResponse::Offer {
                listing: 3,
                is_final: true
            }
        );
    }

    #[test]
    fn random_bundle_offers_affordable() {
        let mut s = RandomBundleData::with_gains(gains());
        let quote = QuotedPrice::new(9.5, 1.3, 3.0).unwrap(); // listings 0..=2 affordable
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..50 {
            match s
                .respond(
                    &ctx(&quote, false),
                    &listings(),
                    &MarketConfig::default(),
                    &mut rng,
                )
                .unwrap()
            {
                DataResponse::Offer { listing, .. } => {
                    assert!(listing <= 2, "must be affordable");
                    seen.insert(listing);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(seen.len() > 1, "random choice must vary");
    }

    #[test]
    fn gain_table_size_mismatch_is_error() {
        let mut s = StrategicData::with_gains(vec![0.1]);
        let quote = QuotedPrice::new(9.5, 1.3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(s
            .respond(
                &ctx(&quote, false),
                &listings(),
                &MarketConfig::default(),
                &mut rng
            )
            .is_err());
    }

    #[test]
    fn select_bundle_prefers_below_target() {
        let one_pass = |gains: &[f64], ceiling: f64| {
            let mut set = NearestBelow::default();
            for (i, &g) in gains.iter().enumerate() {
                set.push(i, g, ceiling);
            }
            set.pick().unwrap()
        };
        let gains = vec![0.05, 0.12, 0.2, 0.3];
        let all: Vec<usize> = (0..4).collect();
        // The last target lies below every gain: smallest excess.
        for (target, want) in [(0.16, 1), (0.2, 2), (0.01, 0)] {
            assert_eq!(reference::select_bundle(&all, &gains, target), want);
            assert_eq!(one_pass(&gains, target + 1e-9), want, "target {target}");
        }
        // Equal gains: the last of them below the target, the first of
        // them when every gain exceeds it.
        let tied = [0.1, 0.3, 0.1, 0.3];
        assert_eq!(one_pass(&tied, 0.2), 2);
        assert_eq!(one_pass(&tied, 0.05), 0);
    }

    /// Reference players: the same rules written with two collected
    /// index lists per quote and a per-call supply maximum. The
    /// `strategy_picks_` property test pins the live players to these,
    /// tie order included.
    mod reference {
        use super::*;

        pub fn affordable_indices(ctx: &DataContext<'_>, listings: &[Listing]) -> Vec<usize> {
            listings
                .iter()
                .enumerate()
                .filter(|(_, l)| l.reserved.admits(ctx.quote))
                .map(|(i, _)| i)
                .collect()
        }

        pub fn select_bundle(affordable: &[usize], gains: &[f64], target: f64) -> usize {
            let below = affordable
                .iter()
                .copied()
                .filter(|&i| gains[i] <= target + 1e-9)
                .max_by(|&a, &b| gains[a].partial_cmp(&gains[b]).expect("finite gains"));
            below.unwrap_or_else(|| {
                affordable
                    .iter()
                    .copied()
                    .min_by(|&a, &b| gains[a].partial_cmp(&gains[b]).expect("finite gains"))
                    .expect("non-empty affordable set")
            })
        }

        pub fn strategic(
            gains: &[f64],
            ctx: &DataContext<'_>,
            listings: &[Listing],
            cfg: &MarketConfig,
        ) -> DataResponse {
            let affordable = affordable_indices(ctx, listings);
            if affordable.is_empty() {
                return if ctx.exploring {
                    DataResponse::Offer {
                        listing: cheapest_listing(listings),
                        is_final: false,
                    }
                } else {
                    DataResponse::Withdraw
                };
            }
            let target = ctx.quote.target_gain();
            let break_even = ctx.quote.break_even_gain(cfg.utility_rate);
            let viable: Vec<usize> = affordable
                .iter()
                .copied()
                .filter(|&i| gains[i] >= break_even)
                .collect();
            let candidates = if viable.is_empty() {
                &affordable
            } else {
                &viable
            };
            let pick = select_bundle(candidates, gains, target);
            if ctx.exploring {
                return DataResponse::Offer {
                    listing: pick,
                    is_final: false,
                };
            }
            let is_final = if cfg.data_cost.is_flat() {
                let best_overall = gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                data_success(ctx.quote, gains[pick], cfg.eps_data) || gains[pick] >= best_overall
            } else {
                let target_reserve = listings
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| gains[*i] >= target)
                    .min_by(|(_, a), (_, b)| {
                        (a.reserved.base + a.reserved.rate)
                            .partial_cmp(&(b.reserved.base + b.reserved.rate))
                            .expect("finite reserves")
                    })
                    .map(|(_, l)| l.reserved)
                    .unwrap_or(listings[pick].reserved);
                eq6_data_accepts(
                    ctx.quote,
                    gains[pick],
                    &target_reserve,
                    ctx.cost_now,
                    ctx.cost_next,
                    cfg.eps_data_cost,
                )
            };
            DataResponse::Offer {
                listing: pick,
                is_final,
            }
        }

        pub fn random_bundle(
            gains: &[f64],
            ctx: &DataContext<'_>,
            listings: &[Listing],
            cfg: &MarketConfig,
            rng: &mut StdRng,
        ) -> DataResponse {
            let affordable = affordable_indices(ctx, listings);
            if affordable.is_empty() {
                return if ctx.exploring {
                    DataResponse::Offer {
                        listing: cheapest_listing(listings),
                        is_final: false,
                    }
                } else {
                    DataResponse::Withdraw
                };
            }
            let pick = affordable[rng.random_range(0..affordable.len())];
            let is_final = !ctx.exploring && data_success(ctx.quote, gains[pick], cfg.eps_data);
            DataResponse::Offer {
                listing: pick,
                is_final,
            }
        }
    }

    /// One generated quote against one listing table. Gains, reserves and
    /// quote terms come from small grids, so equal gains, equal reserves,
    /// quotes sitting exactly on a reserve and targets sitting exactly on
    /// a gain all occur often.
    #[derive(Debug)]
    struct PickCase {
        gains: Vec<f64>,
        reserves: Vec<(f64, f64)>,
        quote: (f64, f64, f64),
        round: u32,
        exploring: bool,
        rising_cost: bool,
        seed: u64,
    }

    fn pick_case() -> impl Strategy<Value = PickCase> {
        (1usize..13)
            .prop_flat_map(|n| {
                (
                    prop::collection::vec(0u8..7, n),
                    prop::collection::vec((0u8..4, 0u8..4), n),
                    (1u8..7, 0u8..6, 0u8..9),
                    (1u32..6, any::<bool>(), any::<bool>(), any::<u64>()),
                )
            })
            .prop_map(
                |(levels, reserves, (rate, base, target), (round, exploring, rising, seed))| {
                    let (rate, base) = (2.0 * rate as f64, 0.5 * base as f64);
                    PickCase {
                        gains: levels.iter().map(|&l| 0.05 * l as f64).collect(),
                        reserves: reserves
                            .iter()
                            .map(|&(r, b)| (2.0 + 2.0 * r as f64, 0.5 + 0.5 * b as f64))
                            .collect(),
                        quote: (rate, base, base + rate * 0.05 * target as f64),
                        round,
                        exploring,
                        rising_cost: rising,
                        seed,
                    }
                },
            )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Both one-pass players answer every quote exactly as the
        /// two-`Vec` reference does — the same listing (tie order
        /// included), the same finality, and for the random player the
        /// same draws from the same seeded stream.
        #[test]
        fn strategy_picks_match_the_two_vec_reference(case in pick_case()) {
            let listings: Vec<Listing> = case
                .reserves
                .iter()
                .enumerate()
                .map(|(i, &(rate, base))| Listing {
                    bundle: BundleMask::singleton(i),
                    reserved: ReservedPrice::new(rate, base).unwrap(),
                })
                .collect();
            let (rate, base, cap) = case.quote;
            let quote = QuotedPrice::new(rate, base, cap).unwrap();
            let cfg = MarketConfig {
                utility_rate: 20.0,
                data_cost: if case.rising_cost {
                    CostModel::Linear { a: 0.01 }
                } else {
                    CostModel::None
                },
                ..MarketConfig::default()
            };
            let ctx = DataContext::at_round(&cfg, case.round, case.exploring, &quote);
            let mut rng = StdRng::seed_from_u64(case.seed);

            let live = StrategicData::with_gains(case.gains.clone())
                .respond(&ctx, &listings, &cfg, &mut rng)
                .unwrap();
            let want = reference::strategic(&case.gains, &ctx, &listings, &cfg);
            prop_assert_eq!(live, want, "strategic player");

            let mut ref_rng = StdRng::seed_from_u64(case.seed);
            let mut live_rng = StdRng::seed_from_u64(case.seed);
            let mut random = RandomBundleData::with_gains(case.gains.clone());
            for draw in 0..3 {
                let live = random.respond(&ctx, &listings, &cfg, &mut live_rng).unwrap();
                let want =
                    reference::random_bundle(&case.gains, &ctx, &listings, &cfg, &mut ref_rng);
                prop_assert_eq!(live, want, "random player, draw {}", draw);
            }
            prop_assert_eq!(
                live_rng.random::<u64>(),
                ref_rng.random::<u64>(),
                "random player RNG streams diverged"
            );
        }
    }
}
