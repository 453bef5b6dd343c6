//! Open-world live-traffic harness: seeded scenario generation and
//! admission control.
//!
//! The rest of the exchange is evaluated on *static books* — a fixed set
//! of sellers, a fixed batch of demands, one drain. Production traffic is
//! nothing like that: demands arrive in processes with structure (steady,
//! bursty, diurnal), sellers churn and relist mid-run, whole markets open
//! and close, and some participants are adversarial. This module makes
//! that workload a first-class, *deterministic* object:
//!
//! - [`ArrivalProcess`] — per-tick demand arrival counts (Poisson via
//!   Knuth sampling, bursty on/off, diurnal sinusoid), bit-deterministic
//!   per seed;
//! - [`ScenarioSpec`] / [`ScenarioDriver`] — a named, seeded open-world
//!   scenario driven against any [`Exchange`]: seller pool + churn
//!   schedule, market shift (a market group "closes" for new demand and a
//!   fresh one opens mid-run), optional epoch-mode traffic through a
//!   clearing window, and optional [`Adversary`] shapes;
//! - [`AdmissionPolicy`] — the load-shedding seam
//!   [`Exchange::submit_demand`] consults when a policy is attached via
//!   [`Exchange::set_admission`]. A refused demand becomes the terminal
//!   [`crate::DemandStatus::Shed`] with its own journal frame
//!   ([`crate::ExchangeEvent::DemandShed`]), so recovery and audit stay
//!   exact under overload.
//!
//! ## Admission control vs telemetry
//!
//! The natural trigger for shedding is the dispatcher backlog PR 7's
//! `vfl_exchange_queue_depth` gauge mirrors. The policy deliberately does
//! **not** read the gauge: [`AdmissionLoad::queue_depth`] is read from
//! the exchange's own pending queue (the same quantity, at the source),
//! so telemetry stays strictly observe-only. Attaching a policy that
//! never refuses is behaviorally invisible — the scenario tier proves
//! journal event-multiset equality against a detached exchange.
//!
//! ## Determinism
//!
//! A [`ScenarioDriver`] is a single-threaded submission loop over a
//! [`rand::rngs::StdRng`] seeded from [`ScenarioSpec::seed`]: arrival
//! counts, demand configs, and churn are all drawn from that one stream,
//! so the submitted workload is bit-identical across runs. Drains run
//! with [`ScenarioSpec::workers`] course tasks; the router makes the
//! journal, outcomes, settlement winners, and every count in a
//! [`ScenarioOutcome`] independent of that number.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vfl_market::{
    DataStrategy, Listing, MarketConfig, ReservedPrice, StrategicData, StrategicTask,
    TableGainProvider,
};
use vfl_sim::BundleMask;

use crate::clearing::{ClearingSpec, UniformPriceClearing};
use crate::exchange::{Exchange, MarketSpec};
use crate::lock;
use crate::matching::{BestResponse, Demand, DemandId, DemandStatus, SellerSpec, SettleMode};
use crate::metrics::MetricsSnapshot;

/// Features in the scenario bundle universe (each seller lists singleton
/// bundles over this space, demands want subsets of it).
pub const SCENARIO_FEATURES: usize = 4;

/// Evaluation-key base for scenario market groups: group `g` registers
/// under key `SCENARIO_KEY_BASE + g`, and demands route to the active
/// group via [`Demand::scenario`].
pub const SCENARIO_KEY_BASE: u64 = 7_000;

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// The load snapshot [`Exchange::submit_demand`] hands to the attached
/// [`AdmissionPolicy`], read from the exchange's own state at the
/// admission point (never from telemetry — see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionLoad {
    /// Submitted-but-undispatched sessions in the dispatcher's pending
    /// queue — the backlog the `vfl_exchange_queue_depth` gauge mirrors,
    /// and the natural shed trigger.
    pub queue_depth: usize,
    /// Sessions currently in the store (all states).
    pub sessions: usize,
    /// Demands currently in the match book (matching or settled-not-taken).
    pub demands: usize,
    /// Candidate sessions this demand would fan out to if admitted.
    pub fan_out: usize,
    /// The exchange's logical admission clock: the 0-based index of this
    /// consultation among every consultation the exchange has made since
    /// construction. This — never a wall clock — is what rate-based
    /// policies ([`TokenBucketAdmission`], [`CostWeightedAdmission`],
    /// [`QuotaAdmission`]) refill on, so admission verdicts are a pure
    /// function of the submission sequence and recovery stays
    /// bit-identical.
    pub submission: u64,
    /// The demand's scenario routing key ([`crate::Demand::scenario`]),
    /// the buyer-class handle [`QuotaAdmission`] keys quotas on.
    pub scenario: Option<u64>,
}

/// An [`AdmissionPolicy`] verdict. Replaces the bare bool of PR 8 so a
/// refusal can carry a `Retry-After`-style hint that rides the terminal
/// [`crate::DemandStatus::Shed`] and the journal's tag-15 frame, letting
/// clients (and [`ScenarioDriver`]'s backoff model) re-submit instead of
/// treating every shed as pure loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Take the demand: fan it out as if no policy were attached.
    Admit,
    /// Refuse the demand ([`crate::DemandStatus::Shed`]).
    Shed {
        /// Suggested backoff, in logical time units (scenario ticks /
        /// admission-clock steps), before a re-submission has a chance;
        /// `None` when the policy has no estimate. A hint, not a
        /// promise — the load may have moved by the retry.
        retry_after: Option<u32>,
    },
}

impl AdmissionDecision {
    /// True for [`AdmissionDecision::Admit`].
    pub fn is_admit(&self) -> bool {
        matches!(self, AdmissionDecision::Admit)
    }

    /// The shed hint (`None` for admissions and hintless sheds).
    pub fn retry_after(&self) -> Option<u32> {
        match self {
            AdmissionDecision::Admit => None,
            AdmissionDecision::Shed { retry_after } => *retry_after,
        }
    }
}

/// The load-shedding seam: consulted once per [`Exchange::submit_demand`]
/// call when attached ([`Exchange::set_admission`]). A
/// [`AdmissionDecision::Shed`] verdict sheds the demand: it consumes a
/// demand id, lands a [`crate::ExchangeEvent::DemandShed`] journal frame
/// (carrying the verdict's `retry_after` hint), and is terminal
/// ([`crate::DemandStatus::Shed`]) — no sessions, no trainings, no
/// waitlist entries. Implementations must be cheap (the call runs on the
/// submission path), must not call back into the exchange, and must not
/// consult wall clocks — stateful policies refill on
/// [`AdmissionLoad::submission`] so replay stays bit-identical.
pub trait AdmissionPolicy: Send + Sync {
    /// The verdict for one demand under the current load.
    fn admit(&self, load: &AdmissionLoad) -> AdmissionDecision;
}

/// The PR 8 baseline policy: admit while the dispatcher backlog is at
/// most `max_queue_depth` pending sessions; shed above it, hintless (a
/// bare threshold has no rate model to estimate a retry from). With
/// `usize::MAX` it never triggers (the equivalence fixture). Wrap it in
/// [`Hysteresis`] to stop it flapping at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDepthAdmission {
    /// Largest pending-queue depth at which demands are still admitted.
    pub max_queue_depth: usize,
}

impl AdmissionPolicy for QueueDepthAdmission {
    fn admit(&self, load: &AdmissionLoad) -> AdmissionDecision {
        if load.queue_depth <= self.max_queue_depth {
            AdmissionDecision::Admit
        } else {
            AdmissionDecision::Shed { retry_after: None }
        }
    }
}

/// Shared refill ledger for the bucket-shaped policies: `tokens` grow by
/// one per `refill_every` admission-clock steps since `credited_at`, and
/// `credited_at` always advances by whole refill periods — tokens earned
/// beyond `capacity` are discarded (a bucket, not a counter), but the
/// clock never drifts.
#[derive(Debug, Clone, Copy)]
struct BucketState {
    tokens: u64,
    credited_at: u64,
}

impl BucketState {
    fn refill(&mut self, now: u64, capacity: u64, refill_every: u64) {
        let earned = now.saturating_sub(self.credited_at) / refill_every;
        if earned > 0 {
            self.tokens = self.tokens.saturating_add(earned).min(capacity);
            self.credited_at += earned * refill_every;
        }
    }
}

/// Token-bucket admission on the logical clock: the bucket starts full at
/// `capacity` tokens (the burst allowance), refills one token every
/// `refill_every` admission-clock steps, and each admitted demand spends
/// exactly one token. An empty bucket sheds with a `retry_after` hint of
/// the clock steps until the next token. Deterministic and replay-safe:
/// the verdict sequence is a pure function of the consultation sequence.
#[derive(Debug)]
pub struct TokenBucketAdmission {
    capacity: u64,
    refill_every: u64,
    state: Mutex<BucketState>,
}

impl TokenBucketAdmission {
    /// A bucket holding at most `capacity` tokens (≥ 1, the burst
    /// allowance; the bucket starts full) refilling one token every
    /// `refill_every` admission-clock steps (≥ 1).
    pub fn new(capacity: u64, refill_every: u64) -> Self {
        let capacity = capacity.max(1);
        TokenBucketAdmission {
            capacity,
            refill_every: refill_every.max(1),
            state: Mutex::new(BucketState {
                tokens: capacity,
                credited_at: 0,
            }),
        }
    }
}

impl AdmissionPolicy for TokenBucketAdmission {
    fn admit(&self, load: &AdmissionLoad) -> AdmissionDecision {
        let mut st = lock(&self.state);
        st.refill(load.submission, self.capacity, self.refill_every);
        if st.tokens > 0 {
            st.tokens -= 1;
            AdmissionDecision::Admit
        } else {
            // The next token lands one whole period past the last credit.
            let next = st.credited_at + self.refill_every;
            let wait = next.saturating_sub(load.submission).max(1);
            AdmissionDecision::Shed {
                retry_after: Some(wait.min(u32::MAX as u64) as u32),
            }
        }
    }
}

/// Cost-weighted admission: like [`TokenBucketAdmission`], but each
/// demand is charged its would-be fan-out ([`AdmissionLoad::fan_out`],
/// floored at 1) in cost units instead of a flat token — a 20-seller
/// demand spends 20× the budget of a 1-seller demand, so under pressure
/// wide demands shed first while narrow ones still clear. The `capacity`
/// bucket refills one cost unit every `refill_every` admission-clock
/// steps; a shed's `retry_after` hint covers the deficit.
#[derive(Debug)]
pub struct CostWeightedAdmission {
    capacity: u64,
    refill_every: u64,
    state: Mutex<BucketState>,
}

impl CostWeightedAdmission {
    /// A cost bucket holding at most `capacity` units (≥ 1; starts full)
    /// refilling one unit every `refill_every` admission-clock steps
    /// (≥ 1).
    pub fn new(capacity: u64, refill_every: u64) -> Self {
        let capacity = capacity.max(1);
        CostWeightedAdmission {
            capacity,
            refill_every: refill_every.max(1),
            state: Mutex::new(BucketState {
                tokens: capacity,
                credited_at: 0,
            }),
        }
    }
}

impl AdmissionPolicy for CostWeightedAdmission {
    fn admit(&self, load: &AdmissionLoad) -> AdmissionDecision {
        let cost = (load.fan_out as u64).max(1);
        let mut st = lock(&self.state);
        st.refill(load.submission, self.capacity, self.refill_every);
        if st.tokens >= cost {
            st.tokens -= cost;
            AdmissionDecision::Admit
        } else {
            let deficit = cost - st.tokens; // tokens < cost in this branch
            let wait = deficit.saturating_mul(self.refill_every).max(1);
            AdmissionDecision::Shed {
                retry_after: Some(wait.min(u32::MAX as u64) as u32),
            }
        }
    }
}

/// Windowed per-buyer-class quotas: the admission clock is cut into
/// windows of `window` steps, and each class — keyed by the demand's
/// scenario routing key ([`AdmissionLoad::scenario`]) — may admit at most
/// its quota per window ([`QuotaAdmission::with_quota`], falling back to
/// `default_quota` for unlisted classes and keyless demands). An
/// exhausted class sheds with a `retry_after` hint of the steps until its
/// window resets, so one scenario's storm cannot starve the rest.
#[derive(Debug)]
pub struct QuotaAdmission {
    window: u64,
    default_quota: u64,
    quotas: HashMap<u64, u64>,
    state: Mutex<QuotaWindow>,
}

#[derive(Debug, Default)]
struct QuotaWindow {
    index: u64,
    admitted: HashMap<Option<u64>, u64>,
}

impl QuotaAdmission {
    /// Quotas of `default_quota` admissions per class per `window`
    /// admission-clock steps (window ≥ 1).
    pub fn new(window: u64, default_quota: u64) -> Self {
        QuotaAdmission {
            window: window.max(1),
            default_quota,
            quotas: HashMap::new(),
            state: Mutex::new(QuotaWindow::default()),
        }
    }

    /// Overrides the per-window quota for one scenario key.
    pub fn with_quota(mut self, scenario: u64, quota: u64) -> Self {
        self.quotas.insert(scenario, quota);
        self
    }
}

impl AdmissionPolicy for QuotaAdmission {
    fn admit(&self, load: &AdmissionLoad) -> AdmissionDecision {
        let index = load.submission / self.window;
        let mut st = lock(&self.state);
        if st.index != index {
            st.index = index;
            st.admitted.clear();
        }
        let quota = load
            .scenario
            .and_then(|key| self.quotas.get(&key).copied())
            .unwrap_or(self.default_quota);
        let used = st.admitted.entry(load.scenario).or_insert(0);
        if *used < quota {
            *used += 1;
            AdmissionDecision::Admit
        } else {
            let reset = (index + 1) * self.window;
            let wait = reset.saturating_sub(load.submission).max(1);
            AdmissionDecision::Shed {
                retry_after: Some(wait.min(u32::MAX as u64) as u32),
            }
        }
    }
}

/// Hysteresis wrapper: once the inner policy sheds, keep shedding until
/// the dispatcher backlog falls to `exit_below` or fewer pending
/// sessions, then hand verdicts back to the inner policy. For an inner
/// [`QueueDepthAdmission`] with bound `enter`, the band is
/// `(exit_below, enter]`: a backlog oscillating inside it can no longer
/// flap the verdict sample-by-sample — admission flips only on a genuine
/// band crossing. In-band sheds hint `retry_after` with the backlog
/// excess over the exit band (the dispatches needed before re-entry).
#[derive(Debug)]
pub struct Hysteresis<P> {
    inner: P,
    exit_below: usize,
    shedding: AtomicBool,
}

impl<P: AdmissionPolicy> Hysteresis<P> {
    /// Wraps `inner`; shed mode persists until the queue depth is at most
    /// `exit_below`.
    pub fn new(inner: P, exit_below: usize) -> Self {
        Hysteresis {
            inner,
            exit_below,
            shedding: AtomicBool::new(false),
        }
    }
}

impl<P: AdmissionPolicy> AdmissionPolicy for Hysteresis<P> {
    fn admit(&self, load: &AdmissionLoad) -> AdmissionDecision {
        if self.shedding.load(Ordering::Relaxed) {
            if load.queue_depth > self.exit_below {
                let excess = load.queue_depth - self.exit_below;
                return AdmissionDecision::Shed {
                    retry_after: Some(excess.min(u32::MAX as usize) as u32),
                };
            }
            self.shedding.store(false, Ordering::Relaxed);
        }
        let decision = self.inner.admit(load);
        if !decision.is_admit() {
            self.shedding.store(true, Ordering::Relaxed);
        }
        decision
    }
}

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

/// How many demands arrive at each scenario tick. All three processes
/// sample a Poisson count around a per-tick expected rate (Knuth's
/// product-of-uniforms method over the driver's seeded RNG), so arrivals
/// are bit-deterministic per seed and the empirical mean tracks
/// [`ArrivalProcess::expected_rate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals: `rate` expected demands per tick.
    Poisson {
        /// Expected arrivals per tick.
        rate: f64,
    },
    /// On/off bursts: `burst` expected arrivals per tick for the first
    /// `burst_len` ticks of every `period`, `base` for the rest.
    Bursty {
        /// Expected arrivals per off-burst tick.
        base: f64,
        /// Expected arrivals per in-burst tick.
        burst: f64,
        /// Burst cycle length in ticks.
        period: u32,
        /// In-burst ticks at the start of each cycle (`< period`).
        burst_len: u32,
    },
    /// Diurnal sinusoid: expected rate
    /// `mean + amplitude * sin(2π * (tick % period) / period)`, clamped
    /// at zero — exactly periodic in `period` by construction.
    Diurnal {
        /// Mean expected arrivals per tick.
        mean: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Cycle length in ticks.
        period: u32,
    },
}

impl ArrivalProcess {
    /// The expected arrival count at `tick` (the Poisson λ the sampler
    /// uses). Deterministic and RNG-free.
    pub fn expected_rate(&self, tick: u32) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate.max(0.0),
            ArrivalProcess::Bursty {
                base,
                burst,
                period,
                burst_len,
            } => {
                let phase = if period == 0 { 0 } else { tick % period };
                if phase < burst_len {
                    burst.max(0.0)
                } else {
                    base.max(0.0)
                }
            }
            ArrivalProcess::Diurnal {
                mean,
                amplitude,
                period,
            } => {
                let phase = if period == 0 {
                    0.0
                } else {
                    (tick % period) as f64 / period as f64
                };
                (mean + amplitude * (std::f64::consts::TAU * phase).sin()).max(0.0)
            }
        }
    }

    /// Samples the arrival count at `tick` from `rng` (Poisson with
    /// λ = [`Self::expected_rate`], Knuth's method). Same seed + tick
    /// sequence ⇒ same counts, bit for bit.
    pub fn arrivals(&self, tick: u32, rng: &mut StdRng) -> u32 {
        poisson(self.expected_rate(tick), rng)
    }
}

/// Largest per-chunk rate [`poisson`] hands to the Knuth loop. At λ = 30,
/// e^-λ ≈ 9.4e-14 — far above the subnormal floor, so the
/// product-of-uniforms comparison is exact; the single-chunk limit e^-λ
/// underflows to `0.0` for λ ≳ 745, where the loop would exit only via
/// product underflow or the iteration cap and silently corrupt counts.
const POISSON_CHUNK_MAX: f64 = 30.0;

/// Poisson sampling via Knuth's product-of-uniforms method, chunk-split
/// for large rates: a Poisson(λ) draw is the sum of independent
/// Poisson(λ/n) draws, so λ > [`POISSON_CHUNK_MAX`] is sampled as
/// ⌈λ/30⌉ equal chunks, each inside the range where the method is exact.
/// For λ ≤ 30 — every named scenario's per-tick rate — the sampling path
/// is byte-identical to the historical single-chunk loop, so pinned-seed
/// arrival streams do not move.
fn poisson(lambda: f64, rng: &mut StdRng) -> u32 {
    if lambda <= 0.0 || !lambda.is_finite() {
        return 0;
    }
    if lambda <= POISSON_CHUNK_MAX {
        return poisson_chunk(lambda, rng);
    }
    // ceil guarantees λ/chunks ≤ 30 up to half an ulp of division
    // rounding, which the exp() below absorbs harmlessly.
    let chunks = (lambda / POISSON_CHUNK_MAX).ceil() as u64;
    let per_chunk = lambda / chunks as f64;
    let mut total = 0u64;
    for _ in 0..chunks {
        total += poisson_chunk(per_chunk, rng) as u64;
    }
    total.min(u32::MAX as u64) as u32
}

/// One Knuth chunk: multiply unit uniforms until the product drops below
/// e^-λ. Exact for λ ≤ [`POISSON_CHUNK_MAX`]; the iteration cap only
/// guards against absurd single-chunk rates.
fn poisson_chunk(lambda: f64, rng: &mut StdRng) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut count = 0u32;
    let mut product = 1.0f64;
    loop {
        product *= rng.random::<f64>();
        if product <= limit {
            return count;
        }
        count += 1;
        if count >= 10_000 {
            return count;
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario specification
// ---------------------------------------------------------------------------

/// Adversarial traffic shapes, run as named scenarios (the open-world
/// surveys' "benchmark vs production" gap made concrete).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Adversary {
    /// Buyers who lowball every listed reserve but ride the exploration
    /// window (Case VII): sellers must keep offering cheapest bundles
    /// through the probe horizon, so the probers extract quote rounds and
    /// courses from the pool, then every negotiation dies in an orderly
    /// seller withdrawal — pure information extraction, zero deals.
    QuoteProbers,
    /// Every seller in the pool lists the *same* inflated reserves
    /// (`reserve_scale` × the honest book): a price ring. Buyers face a
    /// book with no competitive quote.
    ColludingSellers {
        /// Multiplier on every reserve rate and base price.
        reserve_scale: f64,
    },
    /// Sellers quote from stale gain estimates (the scenario's gain
    /// vector *reversed*) while realized ΔG courses serve the true
    /// table — a storm of mispriced quotes against fresh measurements.
    StaleEstimatorStorm,
}

/// Epoch-mode traffic mixed into a scenario: every `every`-th demand is
/// submitted [`SettleMode::Epoch`] through a clearing window the driver
/// opens ([`UniformPriceClearing`], so contention, rolls, and expiry are
/// exercised under live traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochTraffic {
    /// Every `every`-th submitted demand is epoch-mode (≥ 2; the rest
    /// stay immediate).
    pub every: u32,
    /// Demands per clearing epoch (count trigger).
    pub epoch_size: usize,
    /// Per-epoch matched engagements per seller.
    pub capacity: u32,
    /// Rolls before a contended epoch demand expires unmatched.
    pub max_rolls: u32,
}

/// Client backoff modeled by [`ScenarioDriver`]: instead of treating a
/// shed as pure loss, the driver re-submits the identical demand after
/// the refusal's `retry_after` hint (or `default_backoff` ticks when the
/// policy offered none), up to `max_retries` times per original demand.
/// Every re-submission is a fresh attempt against the then-current load —
/// conservation still counts it exactly once as admitted, shed, or
/// rejected. Retries still pending when the scenario's tick budget runs
/// out are abandoned (their sheds are already on the ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-submissions allowed per original demand (0 = pure loss).
    pub max_retries: u32,
    /// Ticks to back off when the refusal carried no hint (floored at 1).
    pub default_backoff: u32,
}

/// One named, seeded open-world scenario. Plain data (`Clone` + `Debug`):
/// the driver derives everything else — seller pool, churn schedule,
/// demand stream — deterministically from these fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (stable: test tiers and E12 key on it).
    pub name: String,
    /// Base seed for the driver's single RNG stream.
    pub seed: u64,
    /// Scenario length in ticks.
    pub ticks: u32,
    /// Demand arrival process.
    pub arrivals: ArrivalProcess,
    /// Sellers registered before tick 0 (market group 0).
    pub initial_sellers: usize,
    /// Sellers that churn in (relist) mid-run, on an evenly spaced
    /// schedule, joining the currently active market group.
    pub churned_sellers: usize,
    /// When set, the active market *shifts* at this tick: a fresh seller
    /// group registers under a new evaluation key and all later demands
    /// route to it — group 0 is closed to new demand (the exchange keeps
    /// serving its in-flight sessions; there is deliberately no
    /// deregistration API, so "closing" is a routing fact, which is
    /// exactly how the matching tier models scenario eligibility).
    pub market_shift_at: Option<u32>,
    /// Adversarial shape, if any.
    pub adversary: Option<Adversary>,
    /// Probe horizon for every demand.
    pub probe_rounds: u32,
    /// Epoch-mode traffic mix, if any.
    pub epoch: Option<EpochTraffic>,
    /// Drain (with [`ScenarioSpec::workers`] course tasks) every this many
    /// ticks; between drains the pending queue genuinely backs up, which
    /// is what gives an attached [`AdmissionPolicy`] something to shed.
    pub drain_every: u32,
    /// Course tasks per drain.
    pub workers: usize,
    /// Client backoff model for shed demands; `None` (every named
    /// scenario) keeps PR 8's pure-loss behavior, so pinned outcomes do
    /// not move.
    pub retry: Option<RetryPolicy>,
}

/// The six named scenarios the regression tier, E12, and the
/// `live_traffic` example all run. Names are stable identifiers.
pub fn named_scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "steady-poisson".into(),
            seed: 11,
            ticks: 12,
            arrivals: ArrivalProcess::Poisson { rate: 2.0 },
            initial_sellers: 3,
            churned_sellers: 0,
            market_shift_at: None,
            adversary: None,
            probe_rounds: 2,
            epoch: None,
            drain_every: 3,
            workers: 2,
            retry: None,
        },
        ScenarioSpec {
            name: "bursty-open".into(),
            seed: 22,
            ticks: 18,
            arrivals: ArrivalProcess::Bursty {
                base: 0.5,
                burst: 6.0,
                period: 6,
                burst_len: 2,
            },
            initial_sellers: 3,
            churned_sellers: 2,
            market_shift_at: None,
            adversary: None,
            probe_rounds: 2,
            epoch: Some(EpochTraffic {
                every: 3,
                epoch_size: 2,
                capacity: 1,
                max_rolls: 2,
            }),
            drain_every: 6,
            workers: 2,
            retry: None,
        },
        ScenarioSpec {
            name: "diurnal-churn".into(),
            seed: 33,
            ticks: 24,
            arrivals: ArrivalProcess::Diurnal {
                mean: 2.0,
                amplitude: 1.5,
                period: 8,
            },
            initial_sellers: 4,
            churned_sellers: 3,
            market_shift_at: Some(12),
            adversary: None,
            probe_rounds: 2,
            epoch: None,
            drain_every: 4,
            workers: 2,
            retry: None,
        },
        ScenarioSpec {
            name: "probe-storm".into(),
            seed: 44,
            ticks: 10,
            arrivals: ArrivalProcess::Bursty {
                base: 1.0,
                burst: 8.0,
                period: 5,
                burst_len: 1,
            },
            initial_sellers: 3,
            churned_sellers: 0,
            market_shift_at: None,
            adversary: Some(Adversary::QuoteProbers),
            probe_rounds: 3,
            epoch: None,
            drain_every: 5,
            workers: 2,
            retry: None,
        },
        ScenarioSpec {
            name: "collusion-ring".into(),
            seed: 55,
            ticks: 10,
            arrivals: ArrivalProcess::Poisson { rate: 2.0 },
            initial_sellers: 4,
            churned_sellers: 0,
            market_shift_at: None,
            adversary: Some(Adversary::ColludingSellers { reserve_scale: 3.0 }),
            probe_rounds: 2,
            epoch: None,
            drain_every: 5,
            workers: 2,
            retry: None,
        },
        ScenarioSpec {
            name: "stale-estimator-storm".into(),
            seed: 66,
            ticks: 12,
            arrivals: ArrivalProcess::Bursty {
                base: 1.0,
                burst: 5.0,
                period: 4,
                burst_len: 2,
            },
            initial_sellers: 3,
            churned_sellers: 2,
            market_shift_at: None,
            adversary: Some(Adversary::StaleEstimatorStorm),
            probe_rounds: 2,
            epoch: None,
            drain_every: 4,
            workers: 2,
            retry: None,
        },
    ]
}

// ---------------------------------------------------------------------------
// Scenario outcome
// ---------------------------------------------------------------------------

/// Everything one [`ScenarioDriver::run`] produced, counted as *deltas*
/// over the exchange's metrics (so a scenario can run on an exchange that
/// already carries traffic).
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name ([`ScenarioSpec::name`]).
    pub name: String,
    /// `submit_demand` calls the driver made.
    pub attempts: usize,
    /// Demands the exchange admitted (fanned out).
    pub admitted: u64,
    /// Demands refused by the attached admission policy
    /// ([`crate::DemandStatus::Shed`]); 0 without a policy.
    pub shed: u64,
    /// Submissions rejected with an error (0 for a well-formed scenario;
    /// kept so the conservation check is total).
    pub rejected: usize,
    /// Admitted demands whose settlement ran (== `admitted` post-drain).
    pub settled: u64,
    /// Settled demands with a winner.
    pub matched: u64,
    /// Epoch demands that expired unmatched past `max_rolls`.
    pub expired: u64,
    /// Negotiations that closed successfully.
    pub deals: u64,
    /// Re-submissions of shed demands the [`RetryPolicy`] backoff model
    /// performed (each also counts in `attempts`); 0 without a policy.
    pub retries: usize,
    /// Originally-shed demands that a retry eventually got admitted.
    pub recovered: usize,
    /// Sellers the driver registered (initial + churned + shift group).
    pub sellers_registered: usize,
    /// Demand ids the driver submitted, in submission order (admitted
    /// *and* shed — interrogate with [`Exchange::demand_status`]).
    pub demand_ids: Vec<DemandId>,
    /// Total wall-clock seconds spent inside `drain` calls.
    pub drain_secs: f64,
    /// Admitted demands per drain-second (the E12 throughput number).
    pub demands_per_sec: f64,
    /// Full metrics snapshot *after* the run (not a delta).
    pub metrics: MetricsSnapshot,
}

impl ScenarioOutcome {
    /// The conservation invariant every scenario must satisfy post-drain:
    /// every attempt is accounted for exactly once
    /// (`attempts == admitted + shed + rejected`), every admitted demand
    /// settled (`settled == admitted` — drain termination under churn),
    /// and the matched/expired breakdowns stay within the settled set.
    pub fn conservation(&self) -> Result<(), String> {
        if self.attempts as u64 != self.admitted + self.shed + self.rejected as u64 {
            return Err(format!(
                "{}: attempts {} != admitted {} + shed {} + rejected {}",
                self.name, self.attempts, self.admitted, self.shed, self.rejected
            ));
        }
        if self.settled != self.admitted {
            return Err(format!(
                "{}: settled {} != admitted {} (an admitted demand never settled)",
                self.name, self.settled, self.admitted
            ));
        }
        if self.matched > self.settled {
            return Err(format!(
                "{}: matched {} exceeds settled {}",
                self.name, self.matched, self.settled
            ));
        }
        if self.expired > self.settled {
            return Err(format!(
                "{}: expired {} exceeds settled {}",
                self.name, self.expired, self.settled
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Scenario driver
// ---------------------------------------------------------------------------

/// Drives one [`ScenarioSpec`] against an [`Exchange`]: registers the
/// seller pool, then loops ticks — sample arrivals, submit demands routed
/// to the active market group, churn sellers in on schedule, drain every
/// [`ScenarioSpec::drain_every`] ticks — and finishes with a final drain
/// so every admitted demand is terminal.
///
/// The driver owns nothing on the exchange: attach a journal, telemetry,
/// or an [`AdmissionPolicy`] before calling [`ScenarioDriver::run`] and
/// the scenario exercises them. The one exchange-level setup it performs
/// is opening a clearing window when [`ScenarioSpec::epoch`] is set (the
/// exchange must not already have one).
pub struct ScenarioDriver {
    spec: ScenarioSpec,
}

impl ScenarioDriver {
    /// A driver for `spec`.
    pub fn new(spec: ScenarioSpec) -> Self {
        ScenarioDriver { spec }
    }

    /// The scenario this driver runs.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Runs the scenario to completion on `exchange` (terminal state:
    /// final drain done, every admitted demand settled or shed) and
    /// returns the counted outcome. Deterministic per
    /// [`ScenarioSpec::seed`]; see the module doc.
    pub fn run(&self, exchange: &Exchange) -> ScenarioOutcome {
        let spec = &self.spec;
        let before = exchange.metrics();
        let mut rng = StdRng::seed_from_u64(spec.seed);

        if let Some(epoch) = spec.epoch {
            exchange
                .open_clearing(ClearingSpec {
                    epoch_size: epoch.epoch_size,
                    capacity: epoch.capacity,
                    max_rolls: epoch.max_rolls,
                    policy: Arc::new(UniformPriceClearing::default()),
                })
                .expect("scenario driver opens the exchange's clearing window");
        }

        // Market group 0: the initial pool.
        let mut sellers_registered = 0usize;
        let mut active_group = 0u64;
        for i in 0..spec.initial_sellers {
            exchange
                .register_seller(self.seller(active_group, i, false))
                .expect("scenario seller registration");
            sellers_registered += 1;
        }
        // Evenly spaced churn schedule (relists join the active group).
        let churn_ticks: Vec<u32> = (0..spec.churned_sellers)
            .map(|i| (i as u32 + 1) * spec.ticks / (spec.churned_sellers as u32 + 1))
            .collect();

        let mut attempts = 0usize;
        let mut rejected = 0usize;
        let mut demand_ids = Vec::new();
        let mut drain_secs = 0.0f64;
        let mut churned = 0usize;
        let mut retries = 0usize;
        let mut recovered = 0usize;
        // Shed demands awaiting their backoff: (due tick, demand,
        // re-submissions left). FIFO within a tick; entries due past the
        // tick budget are abandoned (their sheds are already counted).
        let mut backlog: Vec<(u32, Demand, u32)> = Vec::new();
        // Submits `demand`, records the id, and — when a retry policy is
        // armed and the submission shed with retries remaining — schedules
        // the re-submission after the refusal's hint (or the default
        // backoff). Returns true when the demand was admitted.
        let submit = |demand: Demand,
                      tick: u32,
                      retries_left: u32,
                      attempts: &mut usize,
                      rejected: &mut usize,
                      demand_ids: &mut Vec<DemandId>,
                      backlog: &mut Vec<(u32, Demand, u32)>|
         -> bool {
            *attempts += 1;
            let keep = spec
                .retry
                .filter(|_| retries_left > 0)
                .map(|_| demand.clone());
            match exchange.submit_demand(demand) {
                Ok(did) => {
                    demand_ids.push(did);
                    match exchange.demand_status(did) {
                        Some(DemandStatus::Shed { retry_after }) => {
                            if let (Some(policy), Some(demand)) = (spec.retry, keep) {
                                let wait = retry_after.unwrap_or(policy.default_backoff).max(1);
                                backlog.push((tick.saturating_add(wait), demand, retries_left - 1));
                            }
                            false
                        }
                        _ => true,
                    }
                }
                Err(_) => {
                    *rejected += 1;
                    false
                }
            }
        };

        for tick in 0..spec.ticks {
            // Market shift: open the new group *before* routing to it.
            if spec.market_shift_at == Some(tick) {
                active_group += 1;
                let fresh = (spec.initial_sellers / 2).max(2);
                for i in 0..fresh {
                    exchange
                        .register_seller(self.seller(active_group, i, true))
                        .expect("scenario shift-group registration");
                    sellers_registered += 1;
                }
            }
            while churned < spec.churned_sellers && churn_ticks[churned] == tick {
                exchange
                    .register_seller(self.seller(
                        active_group,
                        spec.initial_sellers + churned,
                        true,
                    ))
                    .expect("scenario churn registration");
                sellers_registered += 1;
                churned += 1;
            }
            // Backed-off clients re-submit before this tick's fresh
            // arrivals (they are older traffic), in scheduling order.
            if spec.retry.is_some() {
                let due: Vec<(u32, Demand, u32)>;
                (due, backlog) = backlog.into_iter().partition(|(at, _, _)| *at <= tick);
                for (_, demand, left) in due {
                    retries += 1;
                    if submit(
                        demand,
                        tick,
                        left,
                        &mut attempts,
                        &mut rejected,
                        &mut demand_ids,
                        &mut backlog,
                    ) {
                        recovered += 1;
                    }
                }
            }
            let n = spec.arrivals.arrivals(tick, &mut rng);
            for _ in 0..n {
                let nth = attempts as u32 + 1;
                let demand = self.demand(active_group, nth, &mut rng);
                let max_retries = spec.retry.map_or(0, |r| r.max_retries);
                submit(
                    demand,
                    tick,
                    max_retries,
                    &mut attempts,
                    &mut rejected,
                    &mut demand_ids,
                    &mut backlog,
                );
            }
            if spec.drain_every > 0 && (tick + 1) % spec.drain_every == 0 {
                let start = Instant::now();
                exchange.drain(spec.workers);
                drain_secs += start.elapsed().as_secs_f64();
            }
        }
        // Final drain: drain-idle flush forces partial epochs to settle,
        // so post-run every admitted demand is terminal.
        let start = Instant::now();
        exchange.drain(spec.workers);
        drain_secs += start.elapsed().as_secs_f64();

        let after = exchange.metrics();
        let admitted = after.demands_submitted - before.demands_submitted;
        ScenarioOutcome {
            name: spec.name.clone(),
            attempts,
            admitted,
            shed: after.demands_shed - before.demands_shed,
            rejected,
            settled: after.demands_settled - before.demands_settled,
            matched: after.demands_matched - before.demands_matched,
            expired: after.demands_expired - before.demands_expired,
            deals: after.deals_struck - before.deals_struck,
            retries,
            recovered,
            sellers_registered,
            demand_ids,
            drain_secs,
            demands_per_sec: if drain_secs > 0.0 {
                admitted as f64 / drain_secs
            } else {
                0.0
            },
            metrics: after,
        }
    }

    /// Counts how many of this run's demands the exchange currently holds
    /// in each terminal state `(settled, shed)` — a status-level
    /// cross-check of the metrics deltas.
    pub fn count_statuses(&self, exchange: &Exchange, ids: &[DemandId]) -> (usize, usize) {
        let mut settled = 0;
        let mut shed = 0;
        for &id in ids {
            match exchange.demand_status(id) {
                Some(DemandStatus::Settled(_)) => settled += 1,
                Some(DemandStatus::Shed { .. }) => shed += 1,
                _ => {}
            }
        }
        (settled, shed)
    }

    /// The scenario's shared gain vector for market group `group` (one
    /// table per evaluation key: markets with equal keys share the ΔG
    /// cache, so their realized gains must agree).
    fn group_gains(&self, group: u64) -> Vec<f64> {
        (0..SCENARIO_FEATURES)
            .map(|i| 0.06 + 0.08 * i as f64 + 0.01 * group as f64)
            .collect()
    }

    /// Builds seller `idx` of market group `group`. `relist` marks churn
    /// arrivals (name-versioned: a seller leaving and relisting is a new
    /// registration — ids are never reused, exactly like the journal).
    fn seller(&self, group: u64, idx: usize, relist: bool) -> SellerSpec {
        let gains = self.group_gains(group);
        let (reserve_scale, per_seller_offset) = match self.spec.adversary {
            Some(Adversary::ColludingSellers { reserve_scale }) => (reserve_scale, 0.0),
            _ => (1.0, 0.3 * idx as f64),
        };
        let listings: Vec<Listing> = (0..SCENARIO_FEATURES)
            .map(|i| Listing {
                bundle: BundleMask::singleton(i),
                reserved: ReservedPrice::new(
                    (5.0 + 2.0 * i as f64 + per_seller_offset) * reserve_scale,
                    (0.8 + 0.2 * i as f64) * reserve_scale,
                )
                .expect("valid scenario reserve"),
            })
            .collect();
        let quote_gains: Vec<f64> = match self.spec.adversary {
            Some(Adversary::StaleEstimatorStorm) => gains.iter().rev().copied().collect(),
            _ => gains.clone(),
        };
        let by_bundle: HashMap<u64, f64> = listings
            .iter()
            .zip(&quote_gains)
            .map(|(l, &g)| (l.bundle.0, g))
            .collect();
        let name = if relist {
            format!("g{group}-seller{idx}-v2")
        } else {
            format!("g{group}-seller{idx}")
        };
        SellerSpec {
            market: MarketSpec {
                provider: Arc::new(TableGainProvider::new(
                    listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)),
                )),
                listings: Arc::new(listings),
                evaluation_key: Some(SCENARIO_KEY_BASE + group),
                name,
            },
            quoting: Arc::new(move |table: &[Listing]| {
                Box::new(StrategicData::with_gains(
                    table.iter().map(|l| by_bundle[&l.bundle.0]).collect(),
                )) as Box<dyn DataStrategy + Send>
            }),
        }
    }

    /// Builds the `nth` demand, routed to market group `group`. Config
    /// variation (utility rate, seed, wanted mask) is drawn from the
    /// driver's RNG stream; [`Adversary::QuoteProbers`] demands carry a
    /// budget below every listed base price, so they can probe but never
    /// afford a close.
    fn demand(&self, group: u64, nth: u32, rng: &mut StdRng) -> Demand {
        let spec = &self.spec;
        let budget = 12.0;
        // Wanted mask: mostly the full universe, sometimes the upper or
        // lower half — routing still hits every seller (full catalogs),
        // but candidate tables differ.
        let wanted = match rng.random_range(0..4u32) {
            0 => BundleMask(0b0011),
            1 => BundleMask(0b1100),
            _ => BundleMask::all(SCENARIO_FEATURES),
        };
        let settle = match spec.epoch {
            Some(e) if e.every >= 1 && nth.is_multiple_of(e.every) => SettleMode::Epoch,
            _ => SettleMode::Immediate(Arc::new(BestResponse)),
        };
        Demand {
            wanted,
            scenario: Some(SCENARIO_KEY_BASE + group),
            // Probers value the data far below every listed reserve rate,
            // and run the probe horizon as a Case VII exploration window:
            // sellers must keep offering (cheapest bundle) through it, so
            // quote rounds and courses are genuinely extracted, and the
            // first post-window response is a withdrawal — an orderly
            // zero-deal close, never an error.
            cfg: MarketConfig {
                utility_rate: match spec.adversary {
                    Some(Adversary::QuoteProbers) => 60.0,
                    _ => 850.0 + 25.0 * rng.random_range(0..5u32) as f64,
                },
                explore_rounds: match spec.adversary {
                    Some(Adversary::QuoteProbers) => spec.probe_rounds,
                    _ => 0,
                },
                budget,
                rate_cap: 20.0,
                seed: rng.random::<u64>(),
                ..MarketConfig::default()
            },
            task: match spec.adversary {
                // A prober's opening bid fits its tiny budget, so rounds
                // genuinely run instead of dying on budget validation.
                Some(Adversary::QuoteProbers) => Arc::new(|| {
                    Box::new(StrategicTask::new(0.30, 1.5, 0.9).expect("valid prober opening"))
                }),
                _ => Arc::new(|| {
                    Box::new(StrategicTask::new(0.30, 6.0, 0.9).expect("valid scenario opening"))
                }),
            },
            probe_rounds: spec.probe_rounds,
            settle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::ExchangeConfig;
    use crate::journal::{read_events, ExchangeEvent, Journal};

    #[test]
    fn arrival_streams_are_bit_deterministic_per_seed() {
        for process in [
            ArrivalProcess::Poisson { rate: 3.0 },
            ArrivalProcess::Bursty {
                base: 0.5,
                burst: 7.0,
                period: 5,
                burst_len: 2,
            },
            ArrivalProcess::Diurnal {
                mean: 2.0,
                amplitude: 1.5,
                period: 8,
            },
        ] {
            let sample = |seed: u64| {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..64)
                    .map(|t| process.arrivals(t, &mut rng))
                    .collect::<Vec<_>>()
            };
            assert_eq!(sample(9), sample(9));
            assert_ne!(
                sample(9),
                sample(10),
                "different seeds should perturb the stream"
            );
        }
    }

    #[test]
    fn diurnal_expected_rate_is_exactly_periodic_and_nonnegative() {
        let p = ArrivalProcess::Diurnal {
            mean: 1.0,
            amplitude: 2.5, // deliberately clips below zero
            period: 12,
        };
        for t in 0..120 {
            let rate = p.expected_rate(t);
            assert!(rate >= 0.0);
            assert_eq!(rate.to_bits(), p.expected_rate(t + 12).to_bits());
        }
    }

    #[test]
    fn poisson_empirical_mean_tracks_lambda() {
        let mut rng = StdRng::seed_from_u64(7);
        for lambda in [0.5, 2.0, 6.0] {
            let n = 4_000;
            let total: u64 = (0..n).map(|_| poisson(lambda, &mut rng) as u64).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < 0.15 * lambda + 0.05,
                "λ {lambda}: empirical mean {mean}"
            );
        }
    }

    #[test]
    fn queue_depth_admission_is_a_threshold() {
        let policy = QueueDepthAdmission { max_queue_depth: 4 };
        let at = |queue_depth| AdmissionLoad {
            queue_depth,
            ..AdmissionLoad::default()
        };
        assert!(policy.admit(&at(0)).is_admit());
        assert!(policy.admit(&at(4)).is_admit());
        // The bare threshold sheds hintless — it has no rate model.
        assert_eq!(
            policy.admit(&at(5)),
            AdmissionDecision::Shed { retry_after: None }
        );
    }

    #[test]
    fn shed_demands_are_terminal_journaled_and_counted() {
        let (journal, sink) = Journal::in_memory();
        let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
        let driver = ScenarioDriver::new(named_scenarios()[0].clone());
        exchange
            .register_seller(driver.seller(0, 0, false))
            .unwrap();
        // Depth 0: the first demand sees an empty queue and is admitted;
        // its fan-out then backs the queue up, so the next two shed.
        exchange.set_admission(Some(Arc::new(QueueDepthAdmission { max_queue_depth: 0 })));
        let mut rng = StdRng::seed_from_u64(1);
        let ids: Vec<DemandId> = (0..3)
            .map(|i| {
                exchange
                    .submit_demand(driver.demand(0, i + 1, &mut rng))
                    .unwrap()
            })
            .collect();
        assert!(matches!(
            exchange.demand_status(ids[0]),
            Some(DemandStatus::Matching { .. })
        ));
        for &shed in &ids[1..] {
            assert!(matches!(
                exchange.demand_status(shed),
                Some(DemandStatus::Shed { .. })
            ));
        }
        exchange.drain(1);
        let metrics = exchange.metrics();
        assert_eq!(metrics.demands_submitted, 1);
        assert_eq!(metrics.demands_shed, 2);
        assert_eq!(metrics.demands_settled, 1);
        // Shed demands stay interrogable and takeable: winnerless, empty.
        let report = exchange.take_demand(ids[1]).expect("shed report");
        assert_eq!(report.winner, None);
        assert!(report.quotes.is_empty());
        // And the journal carries one DemandShed frame per refusal.
        let (events, dropped) = read_events(&sink.bytes());
        assert_eq!(dropped, 0);
        let sheds: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                ExchangeEvent::DemandShed {
                    demand,
                    queue_depth,
                    ..
                } => Some((*demand, *queue_depth)),
                _ => None,
            })
            .collect();
        assert_eq!(sheds.len(), 2);
        assert!(sheds.iter().all(|&(_, depth)| depth > 0));
        assert_eq!(sheds[0].0, ids[1]);
        assert_eq!(sheds[1].0, ids[2]);
    }

    #[test]
    fn steady_scenario_conserves_and_never_sheds_without_a_policy() {
        let exchange = Exchange::new(ExchangeConfig::default());
        let driver = ScenarioDriver::new(named_scenarios()[0].clone());
        let outcome = driver.run(&exchange);
        outcome.conservation().expect("conservation");
        assert!(outcome.attempts > 0, "the scenario must generate traffic");
        assert_eq!(outcome.shed, 0);
        assert_eq!(outcome.rejected, 0);
        let (settled, shed) = driver.count_statuses(&exchange, &outcome.demand_ids);
        assert_eq!(settled as u64, outcome.settled);
        assert_eq!(shed, 0);
    }

    #[test]
    fn scenario_outcomes_are_deterministic_per_seed() {
        let run = || {
            let exchange = Exchange::new(ExchangeConfig::default());
            let driver = ScenarioDriver::new(named_scenarios()[0].clone());
            let o = driver.run(&exchange);
            (
                o.attempts, o.admitted, o.settled, o.matched, o.deals, o.expired,
            )
        };
        assert_eq!(run(), run());
    }

    /// The underflow regression: λ = 1e4 makes the single-chunk limit
    /// e^-λ exactly 0.0, where the historical loop exited only via
    /// product underflow or the 10k-iteration cap. Chunk splitting must
    /// return in bounded time with the empirical mean within 2% of λ.
    #[test]
    fn poisson_large_lambda_mean_within_two_percent() {
        let mut rng = StdRng::seed_from_u64(99);
        let lambda = 1e4;
        let n = 10_000u32;
        let total: u64 = (0..n).map(|_| poisson(lambda, &mut rng) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - lambda).abs() < 0.02 * lambda,
            "λ {lambda}: empirical mean {mean} off by more than 2%"
        );
        // And right at the underflow edge (λ ≳ 745) the sampler must not
        // collapse to the iteration cap.
        let at_edge = poisson(800.0, &mut rng);
        assert!(
            (400..1200).contains(&at_edge),
            "λ 800 drew {at_edge} — sampler off the rails"
        );
    }

    /// λ ≤ 30 takes the single-chunk path bit-for-bit: the chunked
    /// sampler at λ = 30 must consume the RNG exactly like one chunk.
    #[test]
    fn poisson_small_lambda_path_is_single_chunk() {
        for lambda in [0.5, 7.0, 30.0] {
            let direct = {
                let mut rng = StdRng::seed_from_u64(4242);
                (0..256)
                    .map(|_| poisson_chunk(lambda, &mut rng))
                    .collect::<Vec<_>>()
            };
            let through = {
                let mut rng = StdRng::seed_from_u64(4242);
                (0..256)
                    .map(|_| poisson(lambda, &mut rng))
                    .collect::<Vec<_>>()
            };
            assert_eq!(direct, through, "λ {lambda} left the single-chunk path");
        }
    }

    #[test]
    fn token_bucket_spends_refills_and_hints() {
        let policy = TokenBucketAdmission::new(2, 5);
        let at = |submission| AdmissionLoad {
            submission,
            ..AdmissionLoad::default()
        };
        // Burst capacity: the first two consultations spend the full
        // bucket, the third sheds with the steps until the next refill.
        assert!(policy.admit(&at(0)).is_admit());
        assert!(policy.admit(&at(1)).is_admit());
        assert_eq!(
            policy.admit(&at(2)),
            AdmissionDecision::Shed {
                retry_after: Some(3)
            }
        );
        // Clock step 5 credits one token — spent — and step 6 is dry
        // again until the step-10 refill.
        assert!(policy.admit(&at(5)).is_admit());
        assert_eq!(
            policy.admit(&at(6)),
            AdmissionDecision::Shed {
                retry_after: Some(4)
            }
        );
        // A long idle stretch refills to capacity, never beyond.
        assert!(policy.admit(&at(1_000)).is_admit());
        assert!(policy.admit(&at(1_001)).is_admit());
        assert!(!policy.admit(&at(1_002)).is_admit());
    }

    #[test]
    fn cost_weighted_sheds_wide_demands_first() {
        let policy = CostWeightedAdmission::new(4, 10);
        let at = |fan_out, submission| AdmissionLoad {
            fan_out,
            submission,
            ..AdmissionLoad::default()
        };
        // 4 cost units available: a 6-seller fan-out is refused (with the
        // deficit-covering hint) while a 3-seller fan-out still clears —
        // wide demands shed first at identical load.
        assert_eq!(
            policy.admit(&at(6, 0)),
            AdmissionDecision::Shed {
                retry_after: Some(20)
            }
        );
        assert!(policy.admit(&at(3, 1)).is_admit());
        // One unit left: even a 2-seller fan-out now sheds, a singleton
        // clears.
        assert!(!policy.admit(&at(2, 2)).is_admit());
        assert!(policy.admit(&at(1, 3)).is_admit());
    }

    #[test]
    fn quota_admission_is_per_class_and_windowed() {
        let policy = QuotaAdmission::new(10, 1).with_quota(7, 2);
        let at = |scenario, submission| AdmissionLoad {
            scenario,
            submission,
            ..AdmissionLoad::default()
        };
        // Class 7 holds a 2-per-window quota; the keyless class gets the
        // default 1 — and neither eats into the other.
        assert!(policy.admit(&at(Some(7), 0)).is_admit());
        assert!(policy.admit(&at(Some(7), 1)).is_admit());
        assert_eq!(
            policy.admit(&at(Some(7), 2)),
            AdmissionDecision::Shed {
                retry_after: Some(8)
            }
        );
        assert!(policy.admit(&at(None, 3)).is_admit());
        assert!(!policy.admit(&at(None, 4)).is_admit());
        // The next window resets every class.
        assert!(policy.admit(&at(Some(7), 10)).is_admit());
        assert!(policy.admit(&at(None, 11)).is_admit());
    }

    #[test]
    fn hysteresis_holds_shed_until_the_exit_band() {
        let policy = Hysteresis::new(QueueDepthAdmission { max_queue_depth: 8 }, 3);
        let at = |queue_depth| AdmissionLoad {
            queue_depth,
            ..AdmissionLoad::default()
        };
        // Below the enter bound: plain delegation.
        assert!(policy.admit(&at(8)).is_admit());
        // Crossing it enters shed mode…
        assert!(!policy.admit(&at(9)).is_admit());
        // …and depths inside the band (3, 8] keep shedding where the bare
        // threshold would flap back to admit, hinting the excess backlog.
        assert_eq!(
            policy.admit(&at(6)),
            AdmissionDecision::Shed {
                retry_after: Some(3)
            }
        );
        assert!(!policy.admit(&at(4)).is_admit());
        // Only the exit band re-arms admission.
        assert!(policy.admit(&at(3)).is_admit());
        assert!(policy.admit(&at(8)).is_admit());
    }

    /// The counter contract pinned: `demands_submitted` counts demands
    /// *accepted* by `submit_demand` (its help text), so a shed demand
    /// moves `demands_shed` and nothing else — no submission count, no
    /// sessions, no settlement.
    #[test]
    fn a_shed_demand_increments_only_the_shed_counter() {
        let exchange = Exchange::new(ExchangeConfig::default());
        let driver = ScenarioDriver::new(named_scenarios()[0].clone());
        exchange
            .register_seller(driver.seller(0, 0, false))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Warm-up admission so the baseline is a live book.
        exchange.set_admission(Some(Arc::new(QueueDepthAdmission {
            max_queue_depth: usize::MAX,
        })));
        exchange
            .submit_demand(driver.demand(0, 1, &mut rng))
            .unwrap();
        let before = exchange.metrics();
        exchange.set_admission(Some(Arc::new(QueueDepthAdmission { max_queue_depth: 0 })));
        let did = exchange
            .submit_demand(driver.demand(0, 2, &mut rng))
            .unwrap();
        assert!(matches!(
            exchange.demand_status(did),
            Some(DemandStatus::Shed { .. })
        ));
        let after = exchange.metrics();
        assert_eq!(after.demands_shed, before.demands_shed + 1);
        assert_eq!(
            after.demands_submitted, before.demands_submitted,
            "a shed demand was counted as accepted"
        );
        assert_eq!(
            after.sessions_opened, before.sessions_opened,
            "a shed demand opened sessions"
        );
        assert_eq!(after.demands_settled, before.demands_settled);
    }

    /// Shed verdicts ride the demand status with their hint intact.
    #[test]
    fn shed_status_carries_the_retry_hint() {
        let exchange = Exchange::new(ExchangeConfig::default());
        let driver = ScenarioDriver::new(named_scenarios()[0].clone());
        exchange
            .register_seller(driver.seller(0, 0, false))
            .unwrap();
        // A drained token bucket: every consultation sheds with a hint.
        exchange.set_admission(Some(Arc::new(TokenBucketAdmission::new(1, 4))));
        let mut rng = StdRng::seed_from_u64(5);
        let first = exchange
            .submit_demand(driver.demand(0, 1, &mut rng))
            .unwrap();
        let second = exchange
            .submit_demand(driver.demand(0, 2, &mut rng))
            .unwrap();
        assert!(matches!(
            exchange.demand_status(first),
            Some(DemandStatus::Shed { retry_after: None })
                | Some(DemandStatus::Settled(_))
                | Some(DemandStatus::Matching { .. })
        ));
        match exchange.demand_status(second) {
            Some(DemandStatus::Shed {
                retry_after: Some(wait),
            }) => assert!(wait >= 1),
            other => panic!("expected a hinted shed, got {other:?}"),
        }
        exchange.drain(1);
    }

    /// The backoff model: under a refilling bucket, shed demands re-enter
    /// and some are eventually admitted — and the ledger still conserves
    /// with retries counted as fresh attempts.
    #[test]
    fn retry_model_recovers_shed_demands_and_conserves() {
        let mut spec = named_scenarios()[0].clone();
        spec.retry = Some(RetryPolicy {
            max_retries: 3,
            default_backoff: 1,
        });
        let exchange = Exchange::new(ExchangeConfig::default());
        exchange.set_admission(Some(Arc::new(TokenBucketAdmission::new(2, 2))));
        let driver = ScenarioDriver::new(spec);
        let outcome = driver.run(&exchange);
        outcome.conservation().expect("conservation under retries");
        assert!(outcome.shed > 0, "the bucket never shed");
        assert!(outcome.retries > 0, "no shed demand was ever retried");
        assert!(outcome.recovered > 0, "no retried demand was ever admitted");
        assert!(
            outcome.attempts >= outcome.retries,
            "retries are attempts too"
        );
        // Pure loss for comparison: same seed, no retry model — strictly
        // fewer attempts, and nothing recovered.
        let mut pure = named_scenarios()[0].clone();
        pure.retry = None;
        let exchange2 = Exchange::new(ExchangeConfig::default());
        exchange2.set_admission(Some(Arc::new(TokenBucketAdmission::new(2, 2))));
        let base = ScenarioDriver::new(pure).run(&exchange2);
        base.conservation().expect("baseline conservation");
        assert_eq!(base.retries, 0);
        assert_eq!(base.recovered, 0);
        assert!(outcome.attempts > base.attempts);
    }
}
