//! The batch clearing tier: concurrent standing demands crossed against
//! the seller pool in **epochs** by a double-auction [`ClearPolicy`],
//! instead of each demand settling alone the moment its probes finish.
//!
//! The paper prices one buyer against one seller; the matching tier
//! (PR 3) already lets one buyer *choose among* sellers. What neither
//! covers is **contention**: many task parties competing for the same
//! data parties at the same time. Per-demand best-response settlement is
//! blind to the other demands — it can promise one seller to every buyer
//! at once (oversubscription) or, under a capacity bound, starve every
//! buyer that settles a moment too late. The clearing tier closes that
//! gap: demands submitted with [`SettleMode::Epoch`](crate::SettleMode)
//! park after their probes and are settled **together**, a batch at a
//! time, by a policy that sees the whole demand×seller quote matrix.
//!
//! ## Epoch lifecycle
//!
//! ```text
//! submit_demand(settle = Epoch)        (window must be open)
//!      │ fan-out + probe exactly as the matching tier (crate::matching)
//!      ▼
//! all candidates reported ──► demand is READY in the match book (its
//!      │                       id waits in the ClearingWindow's queue)
//!      ▼ trigger: the first `epoch_size` queued demands are all ready
//!        (count trigger, fired inside the completing slice), or
//!        the drain ran out of other work (idle flush, partial batch)
//!      ▼
//! epoch e: policy.clear(batch) ──► per demand: Match(slot) / Roll / NoMatch
//!      ├─ Match   → settle matched (wake standing winner, cancel losers)
//!      ├─ Roll    → stay queued for epoch e+1 (capacity contention;
//!      │            demands rolled past `max_rolls` expire unmatched)
//!      └─ NoMatch → settle unmatched (cancel every parked candidate)
//!      │
//!      ▼ one EpochCleared journal record + one DemandSettled per settled
//!        demand, all in one run on the exchange's router — the epoch
//!        is a single linearization point for every demand in it
//! ```
//!
//! Epoch membership is **deterministic**: the queue is submission order,
//! an epoch is always the first `epoch_size` entries, and the count
//! trigger only *delays* an epoch (until those exact entries are ready)
//! — it never changes which demands are in it. Wall-clock triggers are
//! deliberately not offered: a time-based epoch boundary would make
//! membership a function of scheduling, and crash-replay (plus the
//! course-task-count determinism tests) requires it to be a function of the
//! journal alone. The drain-idle flush plays the "time's up" role
//! deterministically — it fires exactly when no other work exists.
//!
//! ## Why the capacity model lives here
//!
//! A plain market ([`crate::Exchange::submit`]) or an immediate-mode
//! demand treats a seller as infinitely wide — faithful to the paper's
//! 1×1 mechanism, where a data party serves one negotiation at a time.
//! Under contention that fiction leaks: the clearing window bounds each
//! seller to `capacity` matched engagements *per epoch* and rolls the
//! demands that lose the slot into the next epoch rather than failing
//! them. A pool that one best-response wave would oversubscribe is
//! served across epochs instead — the contention-starvation test tier
//! pins exactly this (N demands on one seller settle across N epochs,
//! all matched).
//!
//! ## Where epochs run
//!
//! The window is plain data in the exchange's state, and it keeps only
//! the epoch order: each queued demand's config, quote table, readiness
//! and roll count stay in the exchange's match book, which the window
//! reads when an epoch fires. Whole epochs — decision, journal records,
//! and per-demand settlement — run only on the exchange's router under
//! its state lock, one after another, so journal order is epoch order;
//! `crates/exchange/src/exchange.rs` has the exchange-wide picture.

use std::collections::VecDeque;
use vfl_market::{MarketConfig, MarketError, Result};

use crate::matching::{CandidateQuote, DemandId, MatchBook, MatchPolicy, SellerId};

/// Batch-size cap under which [`UniformPriceClearing`] runs its exact
/// assignment search instead of the greedy (see the policy docs).
const EXACT_DEMANDS: usize = 8;
/// Crossable-pair cap for the exact search (keeps the DFS bounded).
const EXACT_PAIRS: usize = 24;

/// Configuration of an exchange's clearing window (one per exchange,
/// opened with [`crate::Exchange::open_clearing`]).
///
/// `epoch_size`, `capacity`, and `max_rolls` are journaled when the
/// window opens and verified at recovery; the policy is code and is
/// re-supplied through [`crate::ReplaySpec`]'s `clearing` field.
#[derive(Clone)]
pub struct ClearingSpec {
    /// Demands per epoch (count trigger, ≥ 1): an epoch fires as soon as
    /// the first `epoch_size` queued demands have all reported, and the
    /// drain-idle flush clears any smaller remainder.
    pub epoch_size: usize,
    /// Matched engagements one seller can serve per epoch (≥ 1). Demands
    /// that lose a slot to capacity roll into the next epoch.
    pub capacity: u32,
    /// Epochs a demand may be rolled past before it settles unmatched.
    /// `u32::MAX` = never expire by patience — with the shipped policies
    /// every demand with an assignable candidate is then eventually
    /// served; the one exception is the window's progress rule, which
    /// force-settles an epoch a (buggy) policy rolls in its entirety
    /// (see the [`ClearPolicy`] contract).
    pub max_rolls: u32,
    /// The double-auction policy that crosses each epoch's batch.
    pub policy: std::sync::Arc<dyn ClearPolicy>,
}

impl ClearingSpec {
    /// A spec with the shipped defaults: [`UniformPriceClearing`] at
    /// `k = 0.5`, 8-demand epochs, per-epoch seller capacity 1, and no
    /// roll limit.
    pub fn uniform() -> Self {
        ClearingSpec {
            epoch_size: 8,
            capacity: 1,
            max_rolls: u32::MAX,
            policy: std::sync::Arc::new(UniformPriceClearing::default()),
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.epoch_size == 0 {
            return Err(MarketError::InvalidConfig(
                "clearing epoch_size must be >= 1".into(),
            ));
        }
        if self.capacity == 0 {
            return Err(MarketError::InvalidConfig(
                "clearing seller capacity must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for ClearingSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClearingSpec")
            .field("epoch_size", &self.epoch_size)
            .field("capacity", &self.capacity)
            .field("max_rolls", &self.max_rolls)
            .finish()
    }
}

/// One demand of an epoch batch, as handed to a [`ClearPolicy`]: the
/// demand's identity, its bargaining configuration, how many epochs it
/// has already been rolled past, and its full candidate quote table
/// (slot order = seller fan-out order, exactly as in a
/// [`crate::DemandReport`]).
#[derive(Debug, Clone)]
pub struct EpochDemand {
    /// The queued demand.
    pub demand: DemandId,
    /// The demand's bargaining configuration.
    pub cfg: MarketConfig,
    /// Epochs this demand has already been rolled past.
    pub rolls: u32,
    /// Every candidate's reported quote, in slot order.
    pub quotes: Vec<CandidateQuote>,
}

/// An epoch batch: the demands to cross, plus the window context a
/// policy needs (epoch number and the per-seller capacity bound).
#[derive(Debug)]
pub struct EpochBatch<'a> {
    /// The epoch being cleared (0-based, monotone per window).
    pub epoch: u64,
    /// Matched engagements each seller can serve this epoch.
    pub capacity: u32,
    /// The batch, in submission (queue) order.
    pub demands: &'a [EpochDemand],
}

/// A policy's disposition for one demand of an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Route the demand to the candidate at this slot index (the slot's
    /// negotiation finishes exactly as a matching-tier winner would).
    Match(usize),
    /// Keep the demand queued for the next epoch (capacity contention).
    Roll,
    /// Settle the demand unmatched (no acceptable candidate).
    NoMatch,
}

/// What a [`ClearPolicy`] returns for one epoch.
#[derive(Debug, Clone)]
pub struct EpochDecision {
    /// One disposition per batch demand, in batch order. Shorter vectors
    /// are padded with [`Assignment::NoMatch`]; extra entries are
    /// ignored.
    pub assignments: Vec<Assignment>,
    /// The uniform clearing price per seller *market* this epoch, for
    /// every seller with at least one match (see [`uniform_prices`]).
    /// Purely informational: the matched negotiations still settle at
    /// their own bargained payments — the cleared price is the auction's
    /// price signal, recorded in the epoch journal and on each settled
    /// [`crate::DemandReport`]. The policy computes it over its *own*
    /// assignment; if the window's capacity enforcement then demotes
    /// matches, prices for sellers left with no resolved match are
    /// dropped from the record, and a price whose interval included a
    /// demoted claimant stands as announced (the demotion is the
    /// window's admission control, not the auction's — the shipped
    /// [`UniformPriceClearing`] does its own capacity accounting, so its
    /// prices are never post-edited).
    pub prices: Vec<(SellerId, f64)>,
}

/// A double-auction clearing policy: crosses one epoch's demand×seller
/// quote matrix into an assignment.
///
/// ## Contract
///
/// * Called exactly once per epoch, on the router under the exchange's
///   state lock. Implementations must be **pure over the batch** — same
///   batch, same decision (crash-replay re-derives every epoch and the
///   journal audit rejects divergence) — and must not call back into the
///   exchange (that would deadlock the drain).
/// * [`Assignment::Match`] must name an in-range slot whose candidate is
///   selectable ([`CandidateQuote::buyer_surplus`] is `Some`); the
///   window demotes anything else to `NoMatch`.
/// * The window enforces the capacity bound (excess matches on one
///   seller demote to `Roll`, batch order keeping the earliest), expires
///   rolls past `max_rolls`, and forces an all-`Roll` epoch to settle
///   unmatched — an epoch always retires at least one demand, which is
///   what makes the drain-idle flush terminate.
///
/// ```
/// use vfl_exchange::{Assignment, ClearPolicy, EpochBatch, EpochDecision};
///
/// /// Routes every demand to its first selectable candidate —
/// /// first-come-first-served, no price logic at all.
/// struct FirstEligible;
///
/// impl ClearPolicy for FirstEligible {
///     fn clear(&self, batch: &EpochBatch<'_>) -> EpochDecision {
///         let assignments = batch
///             .demands
///             .iter()
///             .map(|d| {
///                 d.quotes
///                     .iter()
///                     .position(|q| q.buyer_surplus().is_some())
///                     .map_or(Assignment::NoMatch, Assignment::Match)
///             })
///             .collect();
///         EpochDecision { assignments, prices: Vec::new() }
///     }
/// }
///
/// let batch = EpochBatch { epoch: 0, capacity: 1, demands: &[] };
/// assert!(FirstEligible.clear(&batch).assignments.is_empty());
/// ```
pub trait ClearPolicy: Send + Sync {
    /// Crosses `batch` into per-demand dispositions and clearing prices.
    fn clear(&self, batch: &EpochBatch<'_>) -> EpochDecision;
}

/// The shipped double-auction policy: a welfare-maximizing assignment of
/// demands to sellers under the epoch capacity bound, cleared at one
/// uniform price per seller market.
///
/// Each selectable candidate quote is read as a crossed **bid/ask**
/// pair: the ask is the seller's standing implied payment, the bid is
/// the buyer's reservation value net of bargaining cost
/// ([`CandidateQuote::bid_ask`]), and `bid − ask` is exactly the
/// standing buyer surplus the matching tier already ranks by. The
/// assignment maximizes total crossed surplus:
///
/// 1. **Non-negative pairs** (`bid ≥ ask`) are assigned by an exact
///    search when the batch is small (≤ 8 demands and ≤ 24 such pairs;
///    DFS over per-demand choices with capacity and upper-bound pruning,
///    deterministic lexicographic tie-break) and by a greedy pass
///    otherwise (pairs sorted by surplus descending, ties toward the
///    earlier demand and lower slot). Either way each seller ends up
///    serving high-surplus claimants instead of whoever settled first —
///    the gap E9 measures against uncoordinated best-response.
/// 2. **Left-over demands** are routed best-available, in batch order: a
///    demand whose best remaining candidate has non-negative surplus (or
///    *is* its overall best-response choice — a standing negotiation is
///    worth finishing even at a currently negative surplus, exactly the
///    [`crate::BestResponse`] semantics) is matched; one that would have
///    to settle for a worse-than-best-response negative candidate rolls
///    to the next epoch instead.
///
/// A single-demand epoch therefore degenerates to [`crate::BestResponse`]
/// selection exactly — the clearing-tier proptest pins bit-identical
/// settlement — and the per-seller uniform price is
/// `ask_max + k·(bid_min − ask_max)` over the seller's matched pairs
/// ([`uniform_prices`]).
#[derive(Debug, Clone, Copy)]
pub struct UniformPriceClearing {
    /// Position of the uniform price inside the crossed bid/ask interval
    /// (`0` = sellers' side, `1` = buyers' side, `0.5` = split the
    /// surplus — the classic k-double-auction knob).
    pub k: f64,
}

impl Default for UniformPriceClearing {
    fn default() -> Self {
        UniformPriceClearing { k: 0.5 }
    }
}

/// One crossable pair of an epoch: batch demand index, candidate slot,
/// dense seller index, standing surplus.
#[derive(Debug, Clone, Copy)]
struct Pair {
    demand: usize,
    slot: usize,
    seller: usize,
    surplus: f64,
}

/// Exact assignment search state (see [`UniformPriceClearing`] step 1).
struct ExactSearch<'a> {
    /// Every candidate pair, demand-major with slots ascending.
    pairs: &'a [Pair],
    /// Demands in the batch.
    demands: usize,
    /// Suffix sums of each demand's best surplus (upper-bound pruning).
    suffix_best: Vec<f64>,
    /// Remaining per-seller capacity (dense index); every branch puts
    /// back what it took.
    capacity: &'a mut [u32],
    /// The incumbent: (total surplus, per-demand slot choice).
    best: (f64, Vec<Option<usize>>),
    current: Vec<Option<usize>>,
}

impl<'a> ExactSearch<'a> {
    /// The best slot choice per demand; `capacity` ends as it started.
    fn run(pairs: &'a [Pair], demands: usize, capacity: &'a mut [u32]) -> Vec<Option<usize>> {
        let mut suffix_best = vec![0.0; demands + 1];
        for i in (0..demands).rev() {
            let top = Self::options(pairs, i)
                .iter()
                .map(|p| p.surplus)
                .fold(0.0f64, f64::max);
            suffix_best[i] = suffix_best[i + 1] + top;
        }
        let mut search = ExactSearch {
            pairs,
            demands,
            suffix_best,
            capacity,
            best: (f64::NEG_INFINITY, Vec::new()),
            current: vec![None; demands],
        };
        search.dfs(0, 0.0);
        search.best.1
    }

    /// Demand `demand`'s pairs, slots ascending.
    fn options(pairs: &[Pair], demand: usize) -> &[Pair] {
        let lo = pairs.partition_point(|p| p.demand < demand);
        let hi = pairs.partition_point(|p| p.demand <= demand);
        &pairs[lo..hi]
    }

    fn dfs(&mut self, demand: usize, total: f64) {
        if demand == self.demands {
            // Strictly-better-only replacement: with options tried slots
            // ascending and "skip" last, equal-surplus solutions resolve
            // to the first one found — the lexicographically smallest,
            // match-preferring assignment (deterministic, and identical
            // to BestResponse's lowest-slot tie-break on one demand).
            if total > self.best.0 {
                self.best.0 = total;
                self.best.1.clone_from(&self.current);
            }
            return;
        }
        // Upper-bound prune: even taking every remaining demand's best
        // pair cannot strictly beat the incumbent. (Equal-total branches
        // are safe to prune: they come later in traversal order and
        // would lose the tie anyway.)
        if !self.best.1.is_empty() && total + self.suffix_best[demand] <= self.best.0 {
            return;
        }
        for &p in Self::options(self.pairs, demand) {
            if self.capacity[p.seller] == 0 {
                continue;
            }
            self.capacity[p.seller] -= 1;
            self.current[demand] = Some(p.slot);
            self.dfs(demand + 1, total + p.surplus);
            self.current[demand] = None;
            self.capacity[p.seller] += 1;
        }
        self.dfs(demand + 1, total); // skip this demand
    }
}

/// The position of `seller` in `sellers`, the distinct sellers of one
/// batch: a linear scan, since an epoch involves a handful of sellers.
fn seller_index(sellers: &[SellerId], seller: SellerId) -> Option<usize> {
    sellers.iter().position(|&s| s == seller)
}

impl ClearPolicy for UniformPriceClearing {
    fn clear(&self, batch: &EpochBatch<'_>) -> EpochDecision {
        let demands = batch.demands;
        // Dense seller index over the batch (seller ids may be sparse), in
        // first-seen order.
        let mut sellers: Vec<SellerId> = Vec::new();
        for q in demands.iter().flat_map(|d| &d.quotes) {
            if seller_index(&sellers, q.seller).is_none() {
                sellers.push(q.seller);
            }
        }
        let dense = |seller: SellerId| seller_index(&sellers, seller).expect("indexed above");
        let mut capacity = vec![batch.capacity; sellers.len()];
        // Every demand starts unassigned (anything but a match); step 1
        // writes its matches, step 2 decides the rest.
        let mut assignments = vec![Assignment::NoMatch; demands.len()];

        // Step 1: welfare-maximizing assignment of the non-negative
        // crossed pairs (bid ≥ ask) under capacity.
        // Demand-major, slots ascending.
        let mut pairs: Vec<Pair> = Vec::new();
        for (di, d) in demands.iter().enumerate() {
            for (slot, q) in d.quotes.iter().enumerate() {
                if let Some(surplus) = q.buyer_surplus() {
                    if surplus >= 0.0 {
                        pairs.push(Pair {
                            demand: di,
                            slot,
                            seller: dense(q.seller),
                            surplus,
                        });
                    }
                }
            }
        }
        if demands.len() <= EXACT_DEMANDS && pairs.len() <= EXACT_PAIRS {
            let choice = ExactSearch::run(&pairs, demands.len(), &mut capacity);
            for (di, slot) in choice.iter().enumerate() {
                if let Some(slot) = slot {
                    assignments[di] = Assignment::Match(*slot);
                    capacity[dense(demands[di].quotes[*slot].seller)] -= 1;
                }
            }
        } else {
            pairs.sort_by(|a, b| {
                b.surplus
                    .total_cmp(&a.surplus)
                    .then(a.demand.cmp(&b.demand))
                    .then(a.slot.cmp(&b.slot))
            });
            for p in &pairs {
                if !matches!(assignments[p.demand], Assignment::Match(_)) && capacity[p.seller] > 0
                {
                    assignments[p.demand] = Assignment::Match(p.slot);
                    capacity[p.seller] -= 1;
                }
            }
        }

        // Step 2: best-available routing of the left-overs, batch order.
        for (d, assignment) in demands.iter().zip(assignments.iter_mut()) {
            if matches!(assignment, Assignment::Match(_)) {
                continue;
            }
            // The demand's overall best-response slot (any sign), and its
            // best candidate among sellers with remaining capacity.
            let best_overall = d
                .quotes
                .iter()
                .enumerate()
                .filter_map(|(s, q)| q.buyer_surplus().map(|v| (s, v)))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
            let Some((best_slot, _)) = best_overall else {
                continue; // nothing selectable: stays NoMatch
            };
            let available = d
                .quotes
                .iter()
                .enumerate()
                .filter_map(|(s, q)| q.buyer_surplus().map(|v| (s, v, q.seller)))
                .filter(|&(_, _, seller)| capacity[dense(seller)] > 0)
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
            *assignment = match available {
                Some((slot, surplus, seller)) if surplus >= 0.0 || slot == best_slot => {
                    capacity[dense(seller)] -= 1;
                    Assignment::Match(slot)
                }
                // Every open candidate is a worse-than-best-response
                // negative cross, or every candidate seller is full:
                // wait for the next epoch instead of a bad trade.
                _ => Assignment::Roll,
            };
        }

        let prices = uniform_prices(self.k, demands, &assignments);
        EpochDecision {
            assignments,
            prices,
        }
    }
}

/// Applies a [`MatchPolicy`] to every batch demand independently — the
/// bridge proving [`ClearPolicy`] generalizes the per-demand seam:
/// `PerDemand(BestResponse)` through the window is exactly the matching
/// tier's settlement rule, just batched (and therefore subject to the
/// window's capacity enforcement, which demotes colliding matches to
/// rolls in batch order — the uncoordinated baseline the E9 bench and
/// the starvation tier score [`UniformPriceClearing`] against).
///
/// Prices are still computed with [`uniform_prices`] over whatever the
/// per-demand selections matched, so the epoch journal stays uniform
/// across policies.
#[derive(Debug, Clone, Copy)]
pub struct PerDemand<P>(pub P);

impl<P: MatchPolicy> ClearPolicy for PerDemand<P> {
    fn clear(&self, batch: &EpochBatch<'_>) -> EpochDecision {
        let assignments: Vec<Assignment> = batch
            .demands
            .iter()
            .map(|d| {
                self.0
                    .select(&d.cfg, &d.quotes)
                    .filter(|&slot| slot < d.quotes.len())
                    .map_or(Assignment::NoMatch, Assignment::Match)
            })
            .collect();
        let prices = uniform_prices(0.5, batch.demands, &assignments);
        EpochDecision {
            assignments,
            prices,
        }
    }
}

/// The uniform clearing price per seller market implied by an epoch
/// assignment: over each seller's matched pairs, `lo` = highest ask,
/// `hi` = lowest bid, price = `lo + k·(hi − lo)` when the interval
/// crosses (`hi ≥ lo`), else the midpoint of the two (a routed
/// negative-surplus pair has no crossing interval; the negotiation
/// itself decides Cases 4–6 after release). Sellers are listed in id
/// order; sellers with no match this epoch are absent.
pub fn uniform_prices(
    k: f64,
    demands: &[EpochDemand],
    assignments: &[Assignment],
) -> Vec<(SellerId, f64)> {
    // (seller, lowest bid, highest ask), one entry per matched seller.
    let mut by_seller: Vec<(SellerId, f64, f64)> = Vec::new();
    for (d, a) in demands.iter().zip(assignments) {
        let Assignment::Match(slot) = *a else {
            continue;
        };
        let Some(q) = d.quotes.get(slot) else {
            continue;
        };
        let Some((bid, ask)) = q.bid_ask() else {
            continue;
        };
        match by_seller.iter_mut().find(|(s, _, _)| *s == q.seller) {
            Some((_, hi, lo)) => {
                *hi = hi.min(bid);
                *lo = lo.max(ask);
            }
            None => by_seller.push((q.seller, bid, ask)),
        }
    }
    let mut prices: Vec<(SellerId, f64)> = by_seller
        .into_iter()
        .map(|(seller, hi, lo)| {
            let price = if hi >= lo {
                lo + k.clamp(0.0, 1.0) * (hi - lo)
            } else {
                0.5 * (lo + hi)
            };
            (seller, price)
        })
        .collect();
    prices.sort_by_key(|&(seller, _)| seller.0);
    prices
}

// ---------------------------------------------------------------------------
// Epoch records (audit history)
// ---------------------------------------------------------------------------

/// How one demand left (or stayed in) an epoch, as recorded in the
/// epoch's [`EpochRecord`] and journaled in the `EpochCleared` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochEntryKind {
    /// Routed to a winning candidate; the demand settled matched.
    Matched,
    /// No acceptable candidate; the demand settled unmatched.
    Unmatched,
    /// Rolled past `max_rolls`; the demand settled unmatched.
    Expired,
    /// Lost its slot to capacity; the demand stayed queued.
    Rolled,
}

/// One demand's disposition in a cleared epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochEntry {
    /// The demand.
    pub demand: DemandId,
    /// How it left (or stayed in) the epoch.
    pub kind: EpochEntryKind,
    /// The winning slot index for [`EpochEntryKind::Matched`] entries.
    pub winner: Option<u32>,
}

/// The audit record of one cleared epoch: every batch demand's
/// disposition (batch order) and the uniform clearing price per seller
/// market. [`crate::Exchange::epoch_history`] returns these in epoch
/// order; the journal's `EpochCleared` events carry exactly this record,
/// and `audit_replay` re-checks a recovered exchange against them.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// The epoch number (0-based, monotone per window).
    pub epoch: u64,
    /// Per-demand dispositions, in batch order.
    pub entries: Vec<EpochEntry>,
    /// Uniform clearing price per seller market (id order).
    pub prices: Vec<(SellerId, f64)>,
}

// ---------------------------------------------------------------------------
// The window
// ---------------------------------------------------------------------------

/// One settled demand of an epoch, for the exchange to apply.
pub(crate) struct SettledDemand {
    pub(crate) demand: DemandId,
    /// `Some(slot)` = matched; `None` = unmatched (incl. expired).
    pub(crate) winner: Option<usize>,
    /// The winning seller's uniform price this epoch.
    pub(crate) price: Option<f64>,
}

/// What one cleared epoch produced (exchange-internal; the public audit
/// view is the [`EpochRecord`]).
pub(crate) struct EpochOutcome {
    pub(crate) record: EpochRecord,
    pub(crate) settled: Vec<SettledDemand>,
    pub(crate) rolled: Vec<DemandId>,
    pub(crate) expired: usize,
}

/// The epoch scheduler of the clearing tier: an ordered queue of
/// epoch-mode demand ids, batched into deterministic epochs and crossed by
/// the window's [`ClearPolicy`].
///
/// The window keeps only the epoch order. Everything else about a queued
/// demand — its config, its quote table, whether every candidate has
/// reported, and how often it was rolled — is the exchange's match
/// book's, and each epoch's [`EpochDemand`]s are built from the book when
/// the epoch fires.
///
/// Owned by an [`crate::Exchange`]'s state (one window per exchange,
/// opened with [`crate::Exchange::open_clearing`] before any epoch-mode
/// demand is submitted); its cleared epochs are read back through
/// [`crate::Exchange::epoch_history`].
///
/// ```
/// use std::sync::Arc;
/// use vfl_exchange::{
///     ClearingSpec, Demand, Exchange, ExchangeConfig, MarketSpec, SellerSpec, SettleMode,
///     UniformPriceClearing,
/// };
/// use vfl_market::{
///     Listing, MarketConfig, ReservedPrice, StrategicData, StrategicTask, TableGainProvider,
/// };
/// use vfl_sim::BundleMask;
///
/// let exchange = Exchange::new(ExchangeConfig::default());
/// let listings = vec![Listing {
///     bundle: BundleMask::singleton(0),
///     reserved: ReservedPrice::new(5.0, 0.8).unwrap(),
/// }];
/// exchange
///     .register_seller(SellerSpec {
///         market: MarketSpec {
///             provider: Arc::new(TableGainProvider::new([(BundleMask::singleton(0), 0.3)])),
///             listings: Arc::new(listings),
///             evaluation_key: None,
///             name: "acme-data".into(),
///         },
///         quoting: Arc::new(|_| Box::new(StrategicData::with_gains(vec![0.3]))),
///     })
///     .unwrap();
/// // Open the window, then submit demands in epoch mode: they park
/// // after probing and settle in batches at the window's epochs.
/// exchange
///     .open_clearing(ClearingSpec {
///         epoch_size: 2,
///         capacity: 1,
///         max_rolls: u32::MAX,
///         policy: Arc::new(UniformPriceClearing::default()),
///     })
///     .unwrap();
/// let demand = exchange
///     .submit_demand(Demand {
///         wanted: BundleMask::singleton(0),
///         scenario: None,
///         cfg: MarketConfig {
///             utility_rate: 900.0,
///             budget: 12.0,
///             rate_cap: 20.0,
///             ..MarketConfig::default()
///         },
///         task: Arc::new(|| Box::new(StrategicTask::new(0.3, 6.0, 0.9).unwrap())),
///         probe_rounds: 1,
///         settle: SettleMode::Epoch,
///     })
///     .unwrap();
/// exchange.drain(2);
/// let report = exchange.take_demand(demand).unwrap();
/// assert_eq!(report.epoch, Some(0), "settled by the first epoch");
/// assert_eq!(exchange.epoch_history().len(), 1);
/// ```
#[derive(Debug)]
pub struct ClearingWindow {
    spec: ClearingSpec,
    /// Queued demands, in submission (= epoch-membership) order.
    queue: VecDeque<DemandId>,
    next_epoch: u64,
}

impl ClearingWindow {
    pub(crate) fn new(spec: ClearingSpec) -> Result<Self> {
        spec.validate()?;
        Ok(ClearingWindow {
            spec,
            queue: VecDeque::new(),
            next_epoch: 0,
        })
    }

    /// The spec the window was opened with.
    pub fn spec(&self) -> &ClearingSpec {
        &self.spec
    }

    /// Demands currently queued (ready or still probing).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Epochs cleared so far.
    pub fn epochs(&self) -> u64 {
        self.next_epoch
    }

    /// Fast-forwards the epoch counter to `epoch` — the checkpoint
    /// recovery path, which restores the epoch *history* from the frame
    /// instead of re-clearing it. Only moves forward, and only makes
    /// sense on an empty queue (recovery restores before any replayed
    /// submission can enqueue).
    pub(crate) fn skip_to_epoch(&mut self, epoch: u64) {
        debug_assert!(self.queue.is_empty(), "skip on a non-empty window");
        self.next_epoch = self.next_epoch.max(epoch);
    }

    /// Queues a freshly submitted epoch-mode demand, already open in the
    /// match book (submission order is epoch-membership order; called
    /// before any candidate can report).
    pub(crate) fn enqueue(&mut self, id: DemandId) {
        self.queue.push_back(id);
    }

    /// Clears the next epoch if one is due: the first `epoch_size`
    /// queued demands when all are ready in `book` (count trigger), or —
    /// with `flush` — any non-empty all-ready remainder (the drain-idle
    /// trigger). Returns `None` when no epoch is due.
    ///
    /// The caller ([`crate::Exchange`]) runs it on the router under its
    /// state lock and journals each outcome before applying it; this
    /// method decides, updates the queue, and counts each rolled demand's
    /// roll in `book`. The policy it consults must not call back into the
    /// exchange.
    pub(crate) fn clear_next(&mut self, book: &mut MatchBook, flush: bool) -> Option<EpochOutcome> {
        let take = self.spec.epoch_size.min(self.queue.len());
        if take == 0 || (!flush && self.queue.len() < self.spec.epoch_size) {
            return None;
        }
        if !self.queue.iter().take(take).all(|&id| book.ready(id)) {
            return None;
        }
        let epoch = self.next_epoch;
        // The batch borrows each member's quote table from the book and
        // hands it back below, before the exchange settles anything.
        let batch: Vec<EpochDemand> = self
            .queue
            .iter()
            .take(take)
            .map(|&id| book.lend_epoch_demand(id).expect("checked ready"))
            .collect();
        let decision = self.spec.policy.clear(&EpochBatch {
            epoch,
            capacity: self.spec.capacity,
            demands: &batch,
        });

        // Enforce the window invariants on the policy's output: pad to
        // batch length, demote unselectable matches to NoMatch, demote
        // over-capacity matches to Roll (batch order keeps the
        // earliest), and expire rolls past max_rolls.
        let mut assignments = decision.assignments;
        assignments.resize(batch.len(), Assignment::NoMatch);
        // Seats taken per seller this epoch.
        let mut used: Vec<(SellerId, u32)> = Vec::new();
        let mut entries: Vec<EpochEntry> = Vec::with_capacity(batch.len());
        let mut settled: Vec<SettledDemand> = Vec::new();
        let mut rolled: Vec<DemandId> = Vec::new();
        let mut expired = 0usize;
        for (d, assignment) in batch.iter().zip(assignments.iter()) {
            let resolved = match *assignment {
                Assignment::Match(slot) => match d.quotes.get(slot) {
                    Some(q) if q.buyer_surplus().is_some() => {
                        let at = match used.iter().position(|&(s, _)| s == q.seller) {
                            Some(at) => at,
                            None => {
                                used.push((q.seller, 0));
                                used.len() - 1
                            }
                        };
                        let seats = &mut used[at].1;
                        if *seats < self.spec.capacity {
                            *seats += 1;
                            Assignment::Match(slot)
                        } else {
                            Assignment::Roll
                        }
                    }
                    _ => Assignment::NoMatch,
                },
                other => other,
            };
            match resolved {
                Assignment::Match(slot) => {
                    let seller = d.quotes[slot].seller;
                    let price = decision
                        .prices
                        .iter()
                        .find(|&&(s, _)| s == seller)
                        .map(|&(_, p)| p);
                    entries.push(EpochEntry {
                        demand: d.demand,
                        kind: EpochEntryKind::Matched,
                        winner: Some(slot as u32),
                    });
                    settled.push(SettledDemand {
                        demand: d.demand,
                        winner: Some(slot),
                        price,
                    });
                }
                Assignment::Roll if d.rolls >= self.spec.max_rolls => {
                    entries.push(EpochEntry {
                        demand: d.demand,
                        kind: EpochEntryKind::Expired,
                        winner: None,
                    });
                    settled.push(SettledDemand {
                        demand: d.demand,
                        winner: None,
                        price: None,
                    });
                    expired += 1;
                }
                Assignment::Roll => {
                    entries.push(EpochEntry {
                        demand: d.demand,
                        kind: EpochEntryKind::Rolled,
                        winner: None,
                    });
                    rolled.push(d.demand);
                }
                Assignment::NoMatch => {
                    entries.push(EpochEntry {
                        demand: d.demand,
                        kind: EpochEntryKind::Unmatched,
                        winner: None,
                    });
                    settled.push(SettledDemand {
                        demand: d.demand,
                        winner: None,
                        price: None,
                    });
                }
            }
        }
        // Progress guarantee: an epoch that settles nothing (all rolls)
        // would refire with the identical batch forever. Force the rolls
        // to expire instead — a policy that wants a demand served later
        // must leave it room inside max_rolls, not stall the window.
        if settled.is_empty() {
            for entry in &mut entries {
                entry.kind = EpochEntryKind::Expired;
            }
            for id in rolled.drain(..) {
                settled.push(SettledDemand {
                    demand: id,
                    winner: None,
                    price: None,
                });
                expired += 1;
            }
        }

        // Update the queue: settled demands leave, rolled demands (batch
        // order, like the queue) keep their front positions with the roll
        // counted.
        self.queue.drain(..take);
        for &id in rolled.iter().rev() {
            book.note_roll(id);
            self.queue.push_front(id);
        }
        self.next_epoch += 1;

        // Keep the ledger internally consistent: a seller whose matches
        // were all demoted by enforcement has no business carrying a
        // clearing price in this epoch's record.
        let matched = |seller: SellerId| {
            batch.iter().zip(entries.iter()).any(|(d, entry)| {
                entry.kind == EpochEntryKind::Matched
                    && entry
                        .winner
                        .and_then(|slot| d.quotes.get(slot as usize))
                        .is_some_and(|q| q.seller == seller)
            })
        };
        let prices: Vec<(SellerId, f64)> = decision
            .prices
            .into_iter()
            .filter(|&(seller, _)| matched(seller))
            .collect();
        for d in batch {
            book.return_table(d);
        }
        let record = EpochRecord {
            epoch,
            entries,
            prices,
        };
        Some(EpochOutcome {
            record,
            settled,
            rolled,
            expired,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{BestResponse, DemandState, QuoteState, SellerId, SettleMode};
    use crate::store::SessionId;
    use std::sync::Arc;
    use vfl_market::{QuotedPrice, RoundRecord};
    use vfl_sim::BundleMask;

    fn rec(net_profit: f64, cost_task: f64, payment: f64) -> RoundRecord {
        RoundRecord {
            round: 1,
            quote: QuotedPrice {
                rate: 5.0,
                base: 1.0,
                cap: 10.0,
            },
            listing: 0,
            bundle: BundleMask::singleton(0),
            gain: 0.2,
            payment,
            net_profit,
            cost_task,
            cost_data: 0.0,
            final_offer: false,
        }
    }

    fn quote(seller: usize, surplus: f64) -> CandidateQuote {
        // net_profit - cost_task = surplus, payment fixed at 2.0.
        CandidateQuote {
            seller: SellerId(seller),
            seller_name: format!("s{seller}"),
            session: SessionId(seller as u64),
            state: QuoteState::Standing(rec(surplus + 1.0, 1.0, 2.0)),
            history: vec![rec(surplus + 1.0, 1.0, 2.0)],
        }
    }

    fn epoch_demand(id: u64, quotes: Vec<CandidateQuote>) -> EpochDemand {
        EpochDemand {
            demand: DemandId(id),
            cfg: MarketConfig::default(),
            rolls: 0,
            quotes,
        }
    }

    fn clear(capacity: u32, demands: &[EpochDemand]) -> EpochDecision {
        UniformPriceClearing::default().clear(&EpochBatch {
            epoch: 0,
            capacity,
            demands,
        })
    }

    #[test]
    fn single_demand_degenerates_to_best_response() {
        // Positive surpluses: pick the max, ties to the lower slot.
        let d = epoch_demand(0, vec![quote(0, 5.0), quote(1, 9.0), quote(2, 9.0)]);
        let decision = clear(1, std::slice::from_ref(&d));
        assert_eq!(decision.assignments, vec![Assignment::Match(1)]);
        assert_eq!(
            BestResponse.select(&d.cfg, &d.quotes),
            Some(1),
            "same selection as the per-demand policy"
        );
        // All-negative surpluses: still routed (BestResponse semantics).
        let d = epoch_demand(0, vec![quote(0, -5.0), quote(1, -2.0)]);
        let decision = clear(1, std::slice::from_ref(&d));
        assert_eq!(decision.assignments, vec![Assignment::Match(1)]);
        assert_eq!(BestResponse.select(&d.cfg, &d.quotes), Some(1));
        // Nothing selectable: unmatched.
        let d = epoch_demand(
            0,
            vec![CandidateQuote {
                state: QuoteState::Error("boom".into()),
                history: Vec::new(),
                ..quote(0, 0.0)
            }],
        );
        let decision = clear(1, std::slice::from_ref(&d));
        assert_eq!(decision.assignments, vec![Assignment::NoMatch]);
    }

    #[test]
    fn contended_seller_goes_to_the_highest_surplus_and_rest_reroute_or_roll() {
        // d0 and d1 both prefer seller 0; d1's cross is stronger. With
        // capacity 1, d1 takes seller 0 and d0 reroutes to its positive
        // second-best; d2's only candidate is the full seller, so it
        // rolls.
        let demands = vec![
            epoch_demand(0, vec![quote(0, 8.0), quote(1, 3.0)]),
            epoch_demand(1, vec![quote(0, 9.0)]),
            epoch_demand(2, vec![quote(0, 1.0)]),
        ];
        let decision = clear(1, &demands);
        assert_eq!(
            decision.assignments,
            vec![Assignment::Match(1), Assignment::Match(0), Assignment::Roll]
        );
    }

    #[test]
    fn exact_search_beats_per_demand_argmax_on_a_blocking_cross() {
        // Both demands' argmax is seller 0 (cap 1). Per-demand argmax +
        // first-wins clipping yields 8 + roll; the exact assignment
        // reroutes d0 to seller 1 for 7 + 9 = 16 total.
        let demands = vec![
            epoch_demand(0, vec![quote(0, 8.0), quote(1, 7.0)]),
            epoch_demand(1, vec![quote(0, 9.0)]),
        ];
        let decision = clear(1, &demands);
        assert_eq!(
            decision.assignments,
            vec![Assignment::Match(1), Assignment::Match(0)]
        );
    }

    #[test]
    fn negative_second_best_rolls_instead_of_crossing() {
        // d1 loses seller 0 to d0; its only alternative is a negative
        // cross that is NOT its best-response choice — roll, don't burn
        // the negotiation on a bad trade.
        let demands = vec![
            epoch_demand(0, vec![quote(0, 9.0)]),
            epoch_demand(1, vec![quote(0, 8.0), quote(1, -3.0)]),
        ];
        let decision = clear(1, &demands);
        assert_eq!(
            decision.assignments,
            vec![Assignment::Match(0), Assignment::Roll]
        );
    }

    #[test]
    fn uniform_price_sits_inside_the_crossed_interval() {
        let demands = vec![epoch_demand(0, vec![quote(0, 6.0)])];
        let assignments = vec![Assignment::Match(0)];
        // bid = surplus + payment = 8.0, ask = payment = 2.0.
        let prices = uniform_prices(0.5, &demands, &assignments);
        assert_eq!(prices.len(), 1);
        assert_eq!(prices[0].0, SellerId(0));
        assert!((prices[0].1 - 5.0).abs() < 1e-12, "midpoint of [2, 8]");
        let seller_side = uniform_prices(0.0, &demands, &assignments);
        assert!((seller_side[0].1 - 2.0).abs() < 1e-12);
        let buyer_side = uniform_prices(1.0, &demands, &assignments);
        assert!((buyer_side[0].1 - 8.0).abs() < 1e-12);
    }

    #[test]
    fn per_demand_adapter_matches_best_response_choices() {
        let demands = vec![
            epoch_demand(0, vec![quote(0, 8.0), quote(1, 3.0)]),
            epoch_demand(1, vec![quote(0, 9.0)]),
        ];
        let decision = PerDemand(BestResponse).clear(&EpochBatch {
            epoch: 0,
            capacity: 1,
            demands: &demands,
        });
        // Both pick their argmax (seller 0); the WINDOW (not the
        // policy) demotes the capacity collision at enforcement time.
        assert_eq!(
            decision.assignments,
            vec![Assignment::Match(0), Assignment::Match(0)]
        );
    }

    // -- window mechanics -------------------------------------------------

    fn window(epoch_size: usize, capacity: u32, max_rolls: u32) -> ClearingWindow {
        ClearingWindow::new(ClearingSpec {
            epoch_size,
            capacity,
            max_rolls,
            policy: Arc::new(UniformPriceClearing::default()),
        })
        .unwrap()
    }

    /// Opens epoch demand `id` in `book`, one candidate slot per quote,
    /// and queues it in `w`, as `Exchange::submit_demand` does.
    fn submit(book: &mut MatchBook, w: &mut ClearingWindow, id: u64, quotes: &[CandidateQuote]) {
        let slots = quotes
            .iter()
            .map(|q| (q.seller, q.seller_name.clone(), q.session))
            .collect();
        book.open_at(
            DemandId(id),
            DemandState::new(MarketConfig::default(), SettleMode::Epoch, slots),
        );
        w.enqueue(DemandId(id));
    }

    /// Reports every candidate of demand `id`, which makes it ready.
    fn report_all(book: &mut MatchBook, id: u64, quotes: Vec<CandidateQuote>) {
        for (slot, q) in quotes.into_iter().enumerate() {
            book.report(DemandId(id), slot, q.state, q.history);
        }
    }

    /// [`submit`] and [`report_all`] at once: a demand that is ready the
    /// moment it is queued.
    fn submit_ready(
        book: &mut MatchBook,
        w: &mut ClearingWindow,
        id: u64,
        quotes: Vec<CandidateQuote>,
    ) {
        submit(book, w, id, &quotes);
        report_all(book, id, quotes);
    }

    #[test]
    fn epochs_fire_only_when_the_leading_batch_is_ready() {
        let (mut book, mut w) = (MatchBook::default(), window(2, 1, u32::MAX));
        let (d0, d1) = (vec![quote(1, 5.0)], vec![quote(0, 3.0)]);
        submit(&mut book, &mut w, 0, &d0);
        submit(&mut book, &mut w, 1, &d1);
        assert!(
            w.clear_next(&mut book, false).is_none(),
            "nothing ready yet"
        );
        // The SECOND demand readying first must not fire the epoch: the
        // batch is the first two queued demands, and d0 is not ready.
        report_all(&mut book, 1, d1);
        assert!(w.clear_next(&mut book, false).is_none());
        report_all(&mut book, 0, d0);
        let outcome = w
            .clear_next(&mut book, false)
            .expect("both ready fires the epoch");
        assert_eq!(outcome.record.epoch, 0);
        assert_eq!(outcome.settled.len(), 2, "distinct sellers: both match");
        assert_eq!(w.pending(), 0);
        assert!(w.clear_next(&mut book, true).is_none(), "queue drained");
    }

    #[test]
    fn partial_batches_fire_only_on_flush() {
        let (mut book, mut w) = (MatchBook::default(), window(4, 1, u32::MAX));
        submit_ready(&mut book, &mut w, 0, vec![quote(0, 3.0)]);
        assert!(
            w.clear_next(&mut book, false).is_none(),
            "under-full epochs wait for the flush"
        );
        let outcome = w
            .clear_next(&mut book, true)
            .expect("flush clears the remainder");
        assert_eq!(outcome.settled.len(), 1);
    }

    #[test]
    fn contention_rolls_then_serves_across_epochs() {
        // Three demands, one seller, capacity 1: each flush epoch serves
        // exactly one and rolls the rest, in deterministic order.
        let (mut book, mut w) = (MatchBook::default(), window(3, 1, u32::MAX));
        for (i, s) in [(0u64, 2.0), (1, 9.0), (2, 5.0)] {
            submit_ready(&mut book, &mut w, i, vec![quote(0, s)]);
        }
        let first = w.clear_next(&mut book, true).expect("epoch 0");
        assert_eq!(first.settled.len(), 1);
        assert_eq!(first.settled[0].demand, DemandId(1), "highest cross first");
        assert_eq!(first.rolled, vec![DemandId(0), DemandId(2)]);
        let second = w.clear_next(&mut book, true).expect("epoch 1");
        assert_eq!(second.settled[0].demand, DemandId(2));
        assert_eq!(second.rolled, vec![DemandId(0)]);
        let third = w.clear_next(&mut book, true).expect("epoch 2");
        assert_eq!(third.settled[0].demand, DemandId(0));
        assert!(third.rolled.is_empty());
        assert!(w.clear_next(&mut book, true).is_none());
        assert_eq!(w.epochs(), 3);
        // The audit record kept batch order, not settlement order.
        assert_eq!(first.record.entries[0].kind, EpochEntryKind::Rolled);
        assert_eq!(first.record.entries[1].kind, EpochEntryKind::Matched);
        assert_eq!(first.record.entries[1].winner, Some(0));
        // Each roll was counted in the book, once per epoch rolled past.
        assert_eq!(book.epoch_demand(DemandId(0)).unwrap().rolls, 2);
        assert_eq!(book.epoch_demand(DemandId(2)).unwrap().rolls, 1);
    }

    #[test]
    fn max_rolls_expires_contended_demands() {
        let (mut book, mut w) = (MatchBook::default(), window(2, 1, 0));
        submit_ready(&mut book, &mut w, 0, vec![quote(0, 2.0)]);
        submit_ready(&mut book, &mut w, 1, vec![quote(0, 9.0)]);
        let outcome = w.clear_next(&mut book, false).expect("epoch fires");
        // d1 wins the only seat; d0 would roll but has no patience left.
        assert_eq!(outcome.settled.len(), 2);
        assert_eq!(outcome.expired, 1);
        let starved = outcome
            .settled
            .iter()
            .find(|s| s.demand == DemandId(0))
            .unwrap();
        assert_eq!(starved.winner, None);
        assert_eq!(
            outcome.record.entries[0].kind,
            EpochEntryKind::Expired,
            "no-patience rolls settle unmatched"
        );
    }

    #[test]
    fn capacity_enforcement_demotes_policy_overcommits() {
        // PerDemand(BestResponse) matches both demands to seller 0; the
        // window keeps the earlier one and rolls the other.
        let mut book = MatchBook::default();
        let mut w = ClearingWindow::new(ClearingSpec {
            epoch_size: 2,
            capacity: 1,
            max_rolls: u32::MAX,
            policy: Arc::new(PerDemand(BestResponse)),
        })
        .unwrap();
        submit_ready(&mut book, &mut w, 0, vec![quote(0, 2.0)]);
        submit_ready(&mut book, &mut w, 1, vec![quote(0, 9.0)]);
        let outcome = w.clear_next(&mut book, false).expect("epoch fires");
        assert_eq!(outcome.settled.len(), 1);
        assert_eq!(
            outcome.settled[0].demand,
            DemandId(0),
            "batch order keeps the earliest overcommit"
        );
        assert_eq!(outcome.rolled, vec![DemandId(1)]);
    }

    #[test]
    fn all_roll_epochs_are_forced_to_settle() {
        /// A policy that rolls everything — the livelock shape the
        /// window's progress rule must defuse.
        struct AlwaysRoll;
        impl ClearPolicy for AlwaysRoll {
            fn clear(&self, batch: &EpochBatch<'_>) -> EpochDecision {
                EpochDecision {
                    assignments: vec![Assignment::Roll; batch.demands.len()],
                    prices: Vec::new(),
                }
            }
        }
        let mut book = MatchBook::default();
        let mut w = ClearingWindow::new(ClearingSpec {
            epoch_size: 1,
            capacity: 1,
            max_rolls: u32::MAX,
            policy: Arc::new(AlwaysRoll),
        })
        .unwrap();
        submit_ready(&mut book, &mut w, 0, vec![quote(0, 5.0)]);
        let outcome = w.clear_next(&mut book, false).expect("epoch fires");
        assert_eq!(outcome.settled.len(), 1, "forced settlement");
        assert_eq!(outcome.settled[0].winner, None);
        assert_eq!(outcome.record.entries[0].kind, EpochEntryKind::Expired);
        assert!(
            w.clear_next(&mut book, true).is_none(),
            "the window drained"
        );
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        assert!(ClearingWindow::new(ClearingSpec {
            epoch_size: 0,
            ..ClearingSpec::uniform()
        })
        .is_err());
        assert!(ClearingWindow::new(ClearingSpec {
            capacity: 0,
            ..ClearingSpec::uniform()
        })
        .is_err());
    }
}
