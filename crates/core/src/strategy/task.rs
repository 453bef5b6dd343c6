//! Task-party strategies: the strategic (Eq. 5-constrained) player of
//! §3.4.2 / Algorithm 1, and the non-strategic *Increase Price* baseline
//! (§4.2) that escalates arbitrarily.

use crate::config::MarketConfig;
use crate::error::{MarketError, Result};
use crate::payment::task_net_profit;
use crate::price::QuotedPrice;
use crate::strategy::{TaskContext, TaskDecision, TaskStrategy};
use crate::termination::{eq7_task_accepts, task_case, TaskCase};
use rand::rngs::StdRng;
use rand::RngExt;

/// Shared Eq. 5-conforming escalation: samples `quote_samples` coupled
/// steps `t ∈ (0, step]` with `rate' = rate (1 + t)`, `cap' = cap (1 + t)`
/// (clamped to the rate cap / budget), keeps candidates whose implied base
/// stays above `min_base`, and returns the lowest-cap one (the first of
/// equal caps). `None` when both ceilings are already binding.
///
/// Only a cap strictly below the cheapest candidate so far can win, so a
/// sample is tested on its cap first and most samples stop there. The
/// cheapest candidate is kept as plain terms under the checks
/// [`QuotedPrice::new`] makes, and only the winner becomes a
/// [`QuotedPrice`].
pub(crate) fn escalate_coupled(
    current: &QuotedPrice,
    target_gain: f64,
    min_base: f64,
    step: f64,
    cfg: &MarketConfig,
    rng: &mut StdRng,
) -> Option<QuotedPrice> {
    let rate_cap = cfg.effective_rate_cap();
    if current.rate >= rate_cap && current.cap >= cfg.budget {
        return None; // both ceilings hit: escalation impossible
    }
    let (mut best_rate, mut best_base, mut best_cap) = (0.0, 0.0, f64::INFINITY);
    for _ in 0..cfg.quote_samples {
        let t = rng.random::<f64>() * step;
        let cap = (current.cap * (1.0 + t)).min(cfg.budget);
        if cap >= best_cap {
            continue;
        }
        let rate = (current.rate * (1.0 + t)).min(rate_cap);
        if rate <= current.rate && cap <= current.cap {
            continue;
        }
        let base = cap - rate * target_gain;
        if base < min_base || base < 0.0 {
            continue;
        }
        // The rest of `QuotedPrice::new`'s checks: finite terms, a
        // positive rate, `cap >= base` (a NaN fails every comparison).
        if !(rate > 0.0 && cap >= base && rate.is_finite() && base.is_finite() && cap.is_finite()) {
            continue;
        }
        (best_rate, best_base, best_cap) = (rate, base, cap);
    }
    // A kept cap is finite, so an infinite one means no candidate passed.
    (best_cap < f64::INFINITY).then_some(QuotedPrice {
        rate: best_rate,
        base: best_base,
        cap: best_cap,
    })
}

/// The strategic task party: targets a performance gain ΔG*, opens with a
/// base quote satisfying Eq. 5, and escalates by sampling Eq. 5-conforming
/// candidates and picking the cheapest (Algorithm 1 lines 16–17).
///
/// Deviation noted in DESIGN.md: candidates are sampled relative to the
/// *current* cap (monotone escalation) rather than the initial cap, since
/// the min-cap selection would otherwise re-pick the same quote forever.
#[derive(Debug, Clone)]
pub struct StrategicTask {
    target_gain: f64,
    init: QuotedPrice,
}

impl StrategicTask {
    /// Builds the player: ΔG* plus the opening `(p0, P0^0)`; the opening cap
    /// is derived from Eq. 5 (`Ph^0 = P0^0 + p0 ΔG*`).
    pub fn new(target_gain: f64, init_rate: f64, init_base: f64) -> Result<Self> {
        if !(target_gain > 0.0 && target_gain.is_finite()) {
            return Err(MarketError::InvalidConfig(format!(
                "target gain must be > 0, got {target_gain}"
            )));
        }
        let init = QuotedPrice::new(init_rate, init_base, init_base + init_rate * target_gain)?;
        Ok(StrategicTask { target_gain, init })
    }

    /// The target performance gain ΔG*.
    pub fn target_gain(&self) -> f64 {
        self.target_gain
    }

    /// The opening quote.
    pub fn opening_quote(&self) -> &QuotedPrice {
        &self.init
    }

    /// Algorithm 1 line 16: sample candidate quotes above the current one
    /// that satisfy Eq. 5 for ΔG*, respect the budget and rate caps, and
    /// keep `P0 >= P0^0`; line 17: return the one with the lowest cap.
    ///
    /// Rate and cap are escalated along one coupled ray (a single relative
    /// step `t` applies to both): minimizing the cap then also minimizes
    /// the rate, so the terminal quote hugs the target bundle's reserved
    /// price instead of ratcheting the rate to its ceiling — the alignment
    /// the paper's Figures 2/3 (d–e) show.
    fn escalate(
        &self,
        current: &QuotedPrice,
        cfg: &MarketConfig,
        rng: &mut StdRng,
    ) -> Option<QuotedPrice> {
        escalate_coupled(
            current,
            self.target_gain,
            self.init.base,
            cfg.escalation_step,
            cfg,
            rng,
        )
    }
}

impl TaskStrategy for StrategicTask {
    fn initial_quote(&mut self, cfg: &MarketConfig, _rng: &mut StdRng) -> Result<QuotedPrice> {
        if self.init.cap > cfg.budget {
            return Err(MarketError::InvalidConfig(format!(
                "opening cap {} exceeds budget {}",
                self.init.cap, cfg.budget
            )));
        }
        if self.init.rate >= cfg.utility_rate {
            return Err(MarketError::InvalidConfig(
                "opening rate must satisfy p < u (individual rationality)".into(),
            ));
        }
        Ok(self.init)
    }

    fn decide(
        &mut self,
        ctx: &TaskContext<'_>,
        cfg: &MarketConfig,
        rng: &mut StdRng,
    ) -> Result<TaskDecision> {
        if !ctx.exploring {
            if cfg.task_cost.is_flat() {
                match task_case(cfg.utility_rate, ctx.quote, ctx.realized_gain, cfg.eps_task) {
                    TaskCase::Fail => return Ok(TaskDecision::Fail),
                    TaskCase::Success => return Ok(TaskDecision::Accept),
                    TaskCase::Proceed => {}
                }
            } else {
                // Case 4 still applies under costs; acceptance uses Eq. 7.
                if ctx.realized_gain < ctx.quote.break_even_gain(cfg.utility_rate) {
                    return Ok(TaskDecision::Fail);
                }
                if eq7_task_accepts(
                    cfg.utility_rate,
                    ctx.quote,
                    ctx.realized_gain,
                    ctx.cost_now,
                    ctx.cost_next,
                    cfg.eps_task_cost,
                ) {
                    return Ok(TaskDecision::Accept);
                }
            }
        }
        match self.escalate(ctx.quote, cfg, rng) {
            Some(quote) => Ok(TaskDecision::Requote(quote)),
            None => {
                // Budget exhausted: individual rationality — take a positive
                // profit rather than walk away with nothing.
                if task_net_profit(cfg.utility_rate, ctx.quote, ctx.realized_gain) > 0.0 {
                    Ok(TaskDecision::Accept)
                } else {
                    Ok(TaskDecision::Fail)
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "strategic"
    }
}

/// The *Increase Price* baseline: identical termination checks, but the
/// re-quote multiplies each price component by an independent random factor
/// — no Eq. 5 structure, so the implied target drifts and over-payment
/// happens (Figures 2/3, right columns).
#[derive(Debug, Clone)]
pub struct IncreasePriceTask {
    init: QuotedPrice,
}

impl IncreasePriceTask {
    /// Builds the player from the same opening state as [`StrategicTask`]
    /// (the paper keeps initial quotes identical across compared models).
    pub fn new(target_gain: f64, init_rate: f64, init_base: f64) -> Result<Self> {
        let strategic = StrategicTask::new(target_gain, init_rate, init_base)?;
        Ok(IncreasePriceTask {
            init: *strategic.opening_quote(),
        })
    }

    fn escalate(
        &self,
        current: &QuotedPrice,
        cfg: &MarketConfig,
        rng: &mut StdRng,
    ) -> Option<QuotedPrice> {
        let bump = |v: f64, rng: &mut StdRng| v * (1.0 + rng.random::<f64>() * cfg.escalation_step);
        let rate = bump(current.rate, rng).min(cfg.effective_rate_cap());
        let base = bump(current.base, rng);
        let cap = bump(current.cap, rng).min(cfg.budget).max(base);
        if cap > cfg.budget || (rate <= current.rate && cap <= current.cap && base <= current.base)
        {
            return None;
        }
        QuotedPrice::new(rate, base, cap).ok()
    }
}

impl TaskStrategy for IncreasePriceTask {
    fn initial_quote(&mut self, cfg: &MarketConfig, _rng: &mut StdRng) -> Result<QuotedPrice> {
        if self.init.cap > cfg.budget {
            return Err(MarketError::InvalidConfig(format!(
                "opening cap {} exceeds budget {}",
                self.init.cap, cfg.budget
            )));
        }
        Ok(self.init)
    }

    fn decide(
        &mut self,
        ctx: &TaskContext<'_>,
        cfg: &MarketConfig,
        rng: &mut StdRng,
    ) -> Result<TaskDecision> {
        if !ctx.exploring {
            if cfg.task_cost.is_flat() {
                match task_case(cfg.utility_rate, ctx.quote, ctx.realized_gain, cfg.eps_task) {
                    TaskCase::Fail => return Ok(TaskDecision::Fail),
                    TaskCase::Success => return Ok(TaskDecision::Accept),
                    TaskCase::Proceed => {}
                }
            } else {
                if ctx.realized_gain < ctx.quote.break_even_gain(cfg.utility_rate) {
                    return Ok(TaskDecision::Fail);
                }
                if eq7_task_accepts(
                    cfg.utility_rate,
                    ctx.quote,
                    ctx.realized_gain,
                    ctx.cost_now,
                    ctx.cost_next,
                    cfg.eps_task_cost,
                ) {
                    return Ok(TaskDecision::Accept);
                }
            }
        }
        match self.escalate(ctx.quote, cfg, rng) {
            Some(quote) => Ok(TaskDecision::Requote(quote)),
            None => {
                if task_net_profit(cfg.utility_rate, ctx.quote, ctx.realized_gain) > 0.0 {
                    Ok(TaskDecision::Accept)
                } else {
                    Ok(TaskDecision::Fail)
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "increase_price"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn cfg() -> MarketConfig {
        MarketConfig {
            utility_rate: 1000.0,
            budget: 10.0,
            rate_cap: 20.0,
            ..Default::default()
        }
    }

    #[test]
    fn opening_quote_satisfies_eq5() {
        let mut s = StrategicTask::new(0.2, 6.0, 0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let q = s.initial_quote(&cfg(), &mut rng).unwrap();
        assert!(q.satisfies_equilibrium(0.2, 1e-12));
        assert!((q.cap - (0.9 + 6.0 * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn opening_quote_respects_budget_and_rationality() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut too_big = StrategicTask::new(10.0, 6.0, 0.9).unwrap(); // cap 60.9 > 10
        assert!(too_big.initial_quote(&cfg(), &mut rng).is_err());
        let mut bad_rate = StrategicTask::new(0.01, 2000.0, 0.0).unwrap();
        assert!(bad_rate.initial_quote(&cfg(), &mut rng).is_err());
    }

    #[test]
    fn accepts_at_target_and_fails_below_break_even() {
        let mut s = StrategicTask::new(0.2, 6.0, 0.9).unwrap();
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(2);
        let q = s.initial_quote(&c, &mut rng).unwrap();
        let at_target = TaskContext {
            round: 2,
            exploring: false,
            quote: &q,
            realized_gain: 0.1999,
            cost_now: 0.0,
            cost_next: 0.0,
        };
        assert_eq!(
            s.decide(&at_target, &c, &mut rng).unwrap(),
            TaskDecision::Accept
        );
        let below_be = TaskContext {
            realized_gain: 1e-6,
            ..at_target
        };
        assert_eq!(
            s.decide(&below_be, &c, &mut rng).unwrap(),
            TaskDecision::Fail
        );
    }

    #[test]
    fn requotes_preserve_eq5_and_escalate_monotonically() {
        let mut s = StrategicTask::new(0.2, 6.0, 0.9).unwrap();
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(3);
        let mut q = s.initial_quote(&c, &mut rng).unwrap();
        for round in 2..12 {
            let ctx = TaskContext {
                round,
                exploring: false,
                quote: &q,
                realized_gain: 0.05, // always below target, above break-even
                cost_now: 0.0,
                cost_next: 0.0,
            };
            match s.decide(&ctx, &c, &mut rng).unwrap() {
                TaskDecision::Requote(next) => {
                    assert!(next.satisfies_equilibrium(0.2, 1e-9), "Eq. 5 must hold");
                    assert!(next.cap > q.cap, "cap must escalate");
                    assert!(next.cap <= c.budget);
                    assert!(next.base >= 0.9 - 1e-12, "P0 >= P0^0");
                    q = next;
                }
                other => panic!("expected requote, got {other:?}"),
            }
        }
    }

    #[test]
    fn exploration_suppresses_termination() {
        let mut s = StrategicTask::new(0.2, 6.0, 0.9).unwrap();
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(4);
        let q = s.initial_quote(&c, &mut rng).unwrap();
        // At-target gain would normally accept; exploring forces a requote.
        let ctx = TaskContext {
            round: 1,
            exploring: true,
            quote: &q,
            realized_gain: 0.2,
            cost_now: 0.0,
            cost_next: 0.0,
        };
        assert!(matches!(
            s.decide(&ctx, &c, &mut rng).unwrap(),
            TaskDecision::Requote(_)
        ));
    }

    #[test]
    fn budget_exhaustion_falls_back_rationally() {
        let mut s = StrategicTask::new(0.2, 6.0, 0.9).unwrap();
        let c = MarketConfig {
            budget: 2.1,
            ..cfg()
        }; // opening cap = 2.1: no headroom
        let mut rng = StdRng::seed_from_u64(5);
        let q = s.initial_quote(&c, &mut rng).unwrap();
        // rate is also capped to make escalation fully impossible.
        let c = MarketConfig { rate_cap: 6.0, ..c };
        let profitable = TaskContext {
            round: 2,
            exploring: false,
            quote: &q,
            realized_gain: 0.1, // profit = 100 - payment > 0
            cost_now: 0.0,
            cost_next: 0.0,
        };
        assert_eq!(
            s.decide(&profitable, &c, &mut rng).unwrap(),
            TaskDecision::Accept
        );
    }

    #[test]
    fn increase_price_drifts_off_eq5() {
        let mut s = IncreasePriceTask::new(0.2, 6.0, 0.9).unwrap();
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(6);
        let mut q = s.initial_quote(&c, &mut rng).unwrap();
        let mut drifted = false;
        for round in 2..20 {
            let ctx = TaskContext {
                round,
                exploring: false,
                quote: &q,
                realized_gain: 0.05,
                cost_now: 0.0,
                cost_next: 0.0,
            };
            match s.decide(&ctx, &c, &mut rng).unwrap() {
                TaskDecision::Requote(next) => {
                    if !next.satisfies_equilibrium(0.2, 1e-6) {
                        drifted = true;
                    }
                    q = next;
                }
                TaskDecision::Accept | TaskDecision::Fail => break,
            }
        }
        assert!(drifted, "increase-price must not preserve Eq. 5");
    }

    /// The requote as it was before candidates became plain terms: one
    /// `QuotedPrice::new` per sample. The `strategy_picks_` property test
    /// pins the live requote to it.
    fn reference_escalate_coupled(
        current: &QuotedPrice,
        target_gain: f64,
        min_base: f64,
        step: f64,
        cfg: &MarketConfig,
        rng: &mut StdRng,
    ) -> Option<QuotedPrice> {
        let rate_cap = cfg.effective_rate_cap();
        if current.rate >= rate_cap && current.cap >= cfg.budget {
            return None; // both ceilings hit: escalation impossible
        }
        let mut best: Option<QuotedPrice> = None;
        for _ in 0..cfg.quote_samples {
            let t = rng.random::<f64>() * step;
            let rate = (current.rate * (1.0 + t)).min(rate_cap);
            let cap = (current.cap * (1.0 + t)).min(cfg.budget);
            if rate <= current.rate && cap <= current.cap {
                continue;
            }
            let base = cap - rate * target_gain;
            if base < min_base || base < 0.0 {
                continue;
            }
            let Ok(candidate) = QuotedPrice::new(rate, base, cap) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| candidate.cap < b.cap) {
                best = Some(candidate);
            }
        }
        best
    }

    /// One requote: a quote on the Eq. 5 ray of `tg`, the player's
    /// target and minimum base, and ceilings at most a few percent above
    /// the quote. Terms come from small grids, so all of these occur
    /// often: a rate cap at or below the quote's rate, a budget at the
    /// quote's cap, both at once, candidates clamped to the same budget
    /// (equal caps, different rates), targets off the quote's ray, and
    /// minimum bases above the quote's base.
    #[derive(Debug)]
    struct RequoteCase {
        quote: (f64, f64, f64),
        target_gain: f64,
        min_base: f64,
        step: f64,
        rate_cap: f64,
        budget: f64,
        samples: usize,
        seed: u64,
    }

    fn requote_case() -> impl Strategy<Value = RequoteCase> {
        (
            (1u8..9, 0u8..5, 1u8..7),
            (any::<bool>(), 0u8..9, 0u8..6),
            (0usize..5, 0u8..5, 0u8..6),
            (1usize..25, any::<u64>()),
        )
            .prop_map(
                |(
                    (rate, base, tg),
                    (on_ray, target, min_base),
                    (step, rate_cap, budget),
                    (samples, seed),
                )| {
                    let (rate, base, tg) = (rate as f64, 0.5 * base as f64, 0.05 * tg as f64);
                    let cap = base + rate * tg;
                    // Ceiling factors: 0.9 (below the quote), 1 (binding),
                    // then a few percent of headroom.
                    let ceiling = |k: u8| {
                        if k == 0 {
                            0.9
                        } else {
                            1.0 + 0.03 * (k - 1) as f64
                        }
                    };
                    RequoteCase {
                        quote: (rate, base, cap),
                        target_gain: if on_ray { tg } else { 0.05 * target as f64 },
                        min_base: 0.25 * min_base as f64,
                        step: [0.05, 0.1, 0.25, 0.5, 1.0][step],
                        rate_cap: rate * ceiling(rate_cap),
                        budget: cap * ceiling(budget).max(1.0),
                        samples,
                        seed,
                    }
                },
            )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// The requote picks exactly what the per-sample `QuotedPrice`
        /// reference picks — the same terms, bit for bit, the first of
        /// equal caps — and leaves the player's RNG where the reference
        /// leaves it.
        #[test]
        fn strategy_picks_requote_matches_reference(case in requote_case()) {
            let (rate, base, cap) = case.quote;
            let current = QuotedPrice::new(rate, base, cap).unwrap();
            let cfg = MarketConfig {
                utility_rate: 1000.0,
                budget: case.budget,
                rate_cap: case.rate_cap,
                quote_samples: case.samples,
                ..Default::default()
            };
            let mut live_rng = StdRng::seed_from_u64(case.seed);
            let mut ref_rng = StdRng::seed_from_u64(case.seed);
            let bits = |q: Option<QuotedPrice>| {
                q.map(|q| [q.rate.to_bits(), q.base.to_bits(), q.cap.to_bits()])
            };
            let live = escalate_coupled(
                &current, case.target_gain, case.min_base, case.step, &cfg, &mut live_rng,
            );
            let want = reference_escalate_coupled(
                &current, case.target_gain, case.min_base, case.step, &cfg, &mut ref_rng,
            );
            prop_assert_eq!(bits(live), bits(want), "{:?}", case);
            prop_assert_eq!(live_rng.random::<u64>(), ref_rng.random::<u64>(), "{:?}", case);
        }
    }
}
