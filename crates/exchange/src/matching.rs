//! The multi-seller matching tier: one task party's demand fanned out to
//! every registered data party whose catalog overlaps it, probed
//! concurrently, and settled by a pluggable [`MatchPolicy`].
//!
//! The paper prices a single buyer/seller trade; its trading-platform
//! framing (§3.4) implies a task party *choosing among* data parties with
//! overlapping feature catalogs. This module is that choice mechanism:
//!
//! 1. **Fan-out.** [`crate::Exchange::submit_demand`] opens one candidate
//!    negotiation per eligible seller (catalog ∩ demand ≠ ∅, optional
//!    scenario filter), scoped to the wanted-overlapping subset of that
//!    seller's listings, sharing the demand's config and seed, each
//!    stamped with the seller's identity in its transcript.
//! 2. **Probe.** Candidates run through the ordinary drain and shared
//!    ΔG cache until they either reach a protocol conclusion (Cases 1–6) or
//!    complete `probe_rounds` quote rounds, at which point they *park* and
//!    report their standing quote.
//! 3. **Settle.** When the last candidate reports, the demand's
//!    [`MatchPolicy`] picks a winner. The winner (if parked) is released to
//!    run to its Cases 1–6 conclusion with no further horizon; parked losers
//!    are cancelled (`FailureReason::Cancelled`) and never train another
//!    model.
//!
//! ## Linearizability of settlement
//!
//! The `MatchBook` is plain data in the exchange's state, and every
//! report and settlement runs on the router under the exchange's one
//! state lock. Reports are therefore totally ordered, the report that
//! completes the candidate set performs selection in the same step, and
//! `reported == total` can be true for exactly one reporter — so
//! settlement runs exactly once per demand. The side-effects of
//! settlement (waking the winner, cancelling losers) are returned as
//! `SettleAction`s and applied by the exchange right after: they only
//! touch sessions that are parked-for-settlement, and a parked session is
//! reachable by nothing but the settlement that parked it — no queue
//! holds it, no slice owns it.
//!
//! ## Policy seam — and the clearing tier above it
//!
//! [`BestResponse`] (pick the candidate with the highest standing buyer
//! surplus) is the shipped per-demand policy; the [`MatchPolicy`] trait is
//! the seam for richer per-demand mechanisms. Step 3 above describes
//! [`SettleMode::Immediate`] — settle alone, the moment the last candidate
//! reports. A demand submitted with [`SettleMode::Epoch`] instead *parks*
//! at that point and is settled in batch by the exchange's clearing window
//! ([`crate::clearing`]): a [`crate::ClearPolicy`] crosses every parked
//! demand's quotes against the seller pool at once (double auction,
//! capacity-aware), which is exactly what a per-demand policy cannot see.
//! The probe machinery, the wake/cancel fan-in, and everything below this
//! module are identical in both modes — only *who decides, when* differs.

use std::sync::Arc;
use vfl_market::{DataStrategy, Listing, MarketConfig, OutcomeStatus, RoundRecord, TaskStrategy};
use vfl_sim::BundleMask;

use crate::clearing::EpochDemand;
use crate::exchange::MarketSpec;
use crate::store::SessionId;
use crate::IdMap;

/// Opaque data-party handle returned by [`crate::Exchange::register_seller`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SellerId(pub usize);

impl std::fmt::Display for SellerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Opaque demand handle returned by [`crate::Exchange::submit_demand`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemandId(pub u64);

impl std::fmt::Display for DemandId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Builds one fresh task-party strategy per fan-out session (candidates
/// must not share mutable strategy state). Runs under the exchange's
/// state lock (see [`Demand::task`]).
pub type TaskFactory = Arc<dyn Fn() -> Box<dyn TaskStrategy + Send> + Send + Sync>;

/// Builds the seller's quoting strategy for each demand fanned out to it.
/// The argument is the listing table the candidate session will negotiate
/// over — the wanted-overlapping subset of the seller's catalog, in
/// catalog order — so per-listing strategy state (e.g. a gain vector)
/// must be built against *that* table, not the full catalog. Runs under
/// the exchange's state lock (see [`SellerSpec::quoting`]).
pub type QuotingFactory = Arc<dyn Fn(&[Listing]) -> Box<dyn DataStrategy + Send> + Send + Sync>;

/// How a demand is settled once every candidate has reported.
#[derive(Clone)]
pub enum SettleMode {
    /// Settle this demand alone, the moment its last candidate reports,
    /// by the given per-demand policy (the matching tier's original
    /// behaviour — [`BestResponse`] is the shipped policy).
    Immediate(Arc<dyn MatchPolicy>),
    /// Park the reported demand in the exchange's clearing window and
    /// settle it in a batch epoch, crossed against every other parked
    /// demand by the window's [`crate::ClearPolicy`] (requires
    /// [`crate::Exchange::open_clearing`] before submission).
    Epoch,
}

impl std::fmt::Debug for SettleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SettleMode::Immediate(_) => f.write_str("Immediate"),
            SettleMode::Epoch => f.write_str("Epoch"),
        }
    }
}

impl SettleMode {
    /// True for [`SettleMode::Epoch`].
    pub fn is_epoch(&self) -> bool {
        matches!(self, SettleMode::Epoch)
    }
}

/// A data party on the matching tier: a tradable market plus the quoting
/// strategy the seller answers demands with.
pub struct SellerSpec {
    /// The seller's market: gain provider, listing catalog, cache identity
    /// (`evaluation_key` doubles as the scenario fingerprint demands can
    /// filter on), and display name.
    pub market: MarketSpec,
    /// Produces the seller's quoting strategy, fresh per candidate session.
    /// [`crate::Exchange::submit_demand`] (and its recovery replay) runs it
    /// under the exchange's state lock, so it must not call back into the
    /// exchange — the same contract as [`crate::ClearPolicy`].
    pub quoting: QuotingFactory,
}

/// A task party's posted demand: what it wants, on which scenario, under
/// which bargaining configuration, and how the match is settled.
/// `Clone` is cheap (masks, config, and `Arc` factories) so a client that
/// was shed with a retry hint can re-submit the identical demand — the
/// scenario driver's backoff model does exactly that.
#[derive(Clone)]
pub struct Demand {
    /// Features of interest. A seller is eligible when the union of its
    /// listed bundles intersects this mask, and each candidate session
    /// negotiates over exactly the overlapping subset of the seller's
    /// catalog — listings with no wanted feature are not on the table, so
    /// every tradable bundle delivers at least one requested feature.
    /// Bundle granularity stays the seller's: a listing that mixes wanted
    /// and unwanted features remains tradable whole. An empty mask is
    /// rejected.
    pub wanted: BundleMask,
    /// Restricts eligibility to sellers registered with this evaluation
    /// key (same dataset × base model × oracle seed). `None` matches any
    /// seller whose catalog overlaps — use it only when every registered
    /// seller serves the same scenario.
    pub scenario: Option<u64>,
    /// Bargaining configuration (budget, utility rate, seed, …) applied to
    /// every candidate session. Sharing the seed across candidates keeps
    /// the fan-out deterministic: each pairing negotiates exactly as a
    /// direct 1×1 run with this config would.
    pub cfg: MarketConfig,
    /// Task-party strategy factory; invoked once per candidate seller.
    /// [`crate::Exchange::submit_demand`] (and its recovery replay) runs it
    /// under the exchange's state lock, so it must not call back into the
    /// exchange — the same contract as [`crate::ClearPolicy`].
    pub task: TaskFactory,
    /// Quote rounds each candidate completes before settlement (≥ 1).
    /// Candidates that reach a protocol conclusion earlier report that
    /// conclusion instead; the rest park at this horizon with a standing
    /// quote.
    pub probe_rounds: u32,
    /// How the reported demand is settled: alone by a per-demand
    /// [`MatchPolicy`], or in batch by the exchange's clearing window
    /// (see [`SettleMode`]).
    pub settle: SettleMode,
}

/// A candidate's reported state at settlement time.
#[derive(Debug, Clone, PartialEq)]
pub enum QuoteState {
    /// Parked at the probe horizon mid-negotiation; the record is the last
    /// completed quote round (quote, offered bundle, realized ΔG, implied
    /// payment).
    Standing(RoundRecord),
    /// Reached a protocol conclusion (Cases 1–6) before the horizon.
    Closed {
        /// How the negotiation closed.
        status: OutcomeStatus,
        /// The terminal round's record, when any course ran.
        last: Option<RoundRecord>,
    },
    /// Died on a hard error (strategy/config/course failure).
    Error(String),
}

/// One candidate's identity and reported quote, as handed to the
/// [`MatchPolicy`] and recorded in the [`DemandReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateQuote {
    /// The quoting data party.
    pub seller: SellerId,
    /// The seller's display name (from its market registration).
    pub seller_name: String,
    /// The candidate negotiation's session id.
    pub session: SessionId,
    /// The candidate's state at settlement.
    pub state: QuoteState,
    /// Every completed round at report time, in order (for `Standing`
    /// candidates the last entry *is* the standing quote). Losing
    /// candidates are cancelled at settlement, so this history is the
    /// surviving record of what their probes asked for — each entry is
    /// one *served* course (under the shared ΔG cache usually a hit; the
    /// exchange's cache misses are the subset that actually trained) —
    /// and what they finally quoted; replay audits and the E7
    /// probe-horizon sweep account per-seller probe spend from it.
    pub history: Vec<RoundRecord>,
}

impl CandidateQuote {
    /// Courses this candidate ran before reporting (its probe spend).
    pub fn probe_courses(&self) -> usize {
        self.history.len()
    }

    /// The buyer's surplus under this quote: net profit minus the task
    /// party's bargaining cost at the quoted round. `None` when the
    /// candidate cannot be selected (failed conclusion, hard error, or a
    /// withdrawal before any course ran).
    pub fn buyer_surplus(&self) -> Option<f64> {
        self.last_record().map(|rec| rec.net_profit - rec.cost_task)
    }

    /// The quote read as a crossed double-auction pair `(bid, ask)`: the
    /// ask is the seller's standing implied payment at the quoted round,
    /// the bid is the buyer's reservation value net of its bargaining
    /// cost — so `bid − ask` is exactly [`Self::buyer_surplus`]. The
    /// clearing tier ([`crate::clearing`]) crosses these; `None` exactly
    /// when the candidate is unselectable.
    pub fn bid_ask(&self) -> Option<(f64, f64)> {
        self.last_record()
            .map(|rec| (rec.net_profit - rec.cost_task + rec.payment, rec.payment))
    }

    /// The record behind a selectable quote (standing, or closed as a
    /// success).
    fn last_record(&self) -> Option<&RoundRecord> {
        match &self.state {
            QuoteState::Standing(rec) => Some(rec),
            QuoteState::Closed {
                status: OutcomeStatus::Success { .. },
                last: Some(rec),
            } => Some(rec),
            _ => None,
        }
    }
}

/// Settlement policy: picks the winning candidate of a demand.
///
/// ## Contract
///
/// * Called **exactly once** per demand, after every candidate has
///   reported, on the router under the exchange's state lock —
///   implementations must be pure over their inputs and must **not**
///   call back into the exchange (that would deadlock the settlement).
/// * The return value is an index into `quotes`, or `None` for "no
///   acceptable candidate" (all parked candidates are then cancelled).
///   Out-of-range indices are treated as `None`.
/// * Selecting a `Standing` candidate resumes its negotiation to a
///   Cases 1–6 conclusion; the final outcome may still fail (e.g. Case 4)
///   — selection is a *routing* decision, not a guarantee of trade.
pub trait MatchPolicy: Send + Sync {
    /// Picks the winner among `quotes` for a demand configured by `cfg`.
    fn select(&self, cfg: &MarketConfig, quotes: &[CandidateQuote]) -> Option<usize>;
}

/// The shipped policy: select the candidate with the highest standing
/// buyer surplus ([`CandidateQuote::buyer_surplus`]); candidates without a
/// surplus (failed or errored) are ineligible, and ties break toward the
/// lowest candidate index (registration order) for determinism.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestResponse;

impl MatchPolicy for BestResponse {
    fn select(&self, _cfg: &MarketConfig, quotes: &[CandidateQuote]) -> Option<usize> {
        quotes
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.buyer_surplus().map(|s| (i, s)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }
}

/// Point-in-time state of a demand (what
/// [`crate::Exchange::demand_status`] returns).
#[derive(Debug, Clone, PartialEq)]
pub enum DemandStatus {
    /// Candidates are still probing.
    Matching {
        /// Candidates that have reported a quote so far.
        reported: usize,
        /// Total fan-out size.
        total: usize,
    },
    /// Every candidate reported; the demand is parked in the clearing
    /// window awaiting its batch epoch ([`SettleMode::Epoch`] only).
    Clearing {
        /// Epochs this demand has been rolled past so far (capacity
        /// contention — see [`crate::clearing`]).
        rolls: u32,
    },
    /// Settlement ran; the report names the winner (if any). The winning
    /// session may still be live (running past its probe horizon) — poll it
    /// via [`crate::Exchange::poll`], or read it after
    /// [`crate::Exchange::drain`] returns, which guarantees every session
    /// is terminal. The report is the exchange's own, shared: reading a
    /// status copies nothing.
    Settled(Arc<DemandReport>),
    /// Refused at [`crate::Exchange::submit_demand`] by the attached
    /// [`crate::traffic::AdmissionPolicy`] (load shedding — the dispatcher
    /// was backed up). Terminal from birth: no candidate sessions were
    /// fanned out, no models trained, and the demand's (winnerless, empty)
    /// report is journaled so recovery and audit stay exact.
    Shed {
        /// The refusal's `Retry-After`-style hint, in logical time units
        /// (see [`crate::traffic::AdmissionDecision::Shed`]); `None` when
        /// the policy offered no estimate. Recovery from tag-15 frames
        /// preserves the hint; a checkpoint restore drops it (the hint is
        /// transient client advice, not settlement state — checkpoints
        /// re-derive shed terminals from their empty quote tables).
        retry_after: Option<u32>,
    },
}

/// The settled quote table of a demand.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandReport {
    /// The settled demand.
    pub demand: DemandId,
    /// Index into `quotes` of the winning candidate, `None` when the
    /// policy found no acceptable candidate.
    pub winner: Option<usize>,
    /// Every candidate's reported quote, in fan-out (seller registration)
    /// order.
    pub quotes: Vec<CandidateQuote>,
    /// The clearing epoch that settled this demand; `None` for
    /// immediate-mode settlements.
    pub epoch: Option<u64>,
    /// The uniform clearing price of the winning seller's market in that
    /// epoch (`None` for immediate-mode or unmatched demands). The
    /// winner's negotiation still settles at its own bargained payment —
    /// this is the auction's price signal (see
    /// [`crate::clearing::uniform_prices`]).
    pub clearing_price: Option<f64>,
}

impl DemandReport {
    /// The winning candidate's session, when a winner was selected. Its
    /// final [`vfl_market::Outcome`] is read with
    /// [`crate::Exchange::take`] once the session is terminal (guaranteed
    /// after the drain that settled the demand returns).
    pub fn winning_session(&self) -> Option<SessionId> {
        self.winner.map(|i| self.quotes[i].session)
    }

    /// The winning candidate's quote row.
    pub fn winning_quote(&self) -> Option<&CandidateQuote> {
        self.winner.map(|i| &self.quotes[i])
    }

    /// Total courses *served* to losing candidates before settlement —
    /// the demand's probe spend: rounds that bought information, not
    /// features. Counted in served courses, not trainings (with a shared
    /// ΔG cache most probe courses are hits; the exchange-level cache-miss
    /// count is the actually-trained subset).
    pub fn loser_probe_spend(&self) -> usize {
        self.quotes
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != self.winner)
            .map(|(_, q)| q.probe_courses())
            .sum()
    }
}

/// What the exchange must do after a settlement: wake the winner and/or
/// cancel parked losers. Applied by the exchange right after the book
/// records the settlement (see the module doc's linearizability
/// argument).
pub(crate) enum SettleAction {
    /// Release the parked winner past its probe horizon and requeue it.
    Wake(SessionId),
    /// Cancel a parked loser (it never trains another model).
    Cancel(SessionId),
}

/// The result of the report that completed a demand's candidate set.
pub(crate) struct Settlement {
    /// True when a winner was selected.
    pub(crate) matched: bool,
    /// The winning slot index (`matched` iff `Some`) — journaled by the
    /// exchange as the settlement record.
    pub(crate) winner: Option<usize>,
    /// Deferred side-effects for the exchange to apply.
    pub(crate) actions: Vec<SettleAction>,
}

/// What the report that completed a demand's candidate set resolved to.
pub(crate) enum ReportOutcome {
    /// [`SettleMode::Immediate`]: the per-demand policy ran inside the
    /// completing report; apply the settlement.
    Settled(Settlement),
    /// [`SettleMode::Epoch`]: the demand is ready for clearing; an epoch
    /// may now be due (the demand stays live — its report is written
    /// later by [`MatchBook::settle_epoch`]).
    EpochReady,
}

/// A live demand: its candidates, settle mode, and (after settlement)
/// report. All mutation goes through [`MatchBook`].
pub(crate) struct DemandState {
    cfg: MarketConfig,
    settle: SettleMode,
    /// The quote table, one row per candidate in slot (fan-out) order,
    /// filled in as the candidates report. A row no candidate has
    /// reported yet holds an empty `Error` state and an empty history,
    /// which nothing reads: the table leaves this state only whole, when
    /// the report that completes it (immediate mode) or the demand's
    /// epoch moves it into the settled report.
    quotes: Vec<CandidateQuote>,
    /// Rows reported so far.
    reported: usize,
    /// Epochs this demand has been rolled past (epoch mode only).
    rolls: u32,
    report: Option<Arc<DemandReport>>,
    /// True for a demand refused at admission ([`DemandStatus::Shed`]).
    /// Shed states carry a winnerless report with an *empty* quote table —
    /// the one shape an admitted demand can never settle to (submission
    /// rejects empty fan-outs) — so checkpoint restore re-derives this
    /// flag without a wire-format change.
    shed: bool,
    /// The refusal's retry hint, surfaced through
    /// [`DemandStatus::Shed`]. Only ever `Some` on shed states; dropped
    /// (not persisted) across checkpoints — see the status docs.
    retry_after: Option<u32>,
}

impl DemandState {
    /// A demand with no candidate yet and room for `fan_out` of them
    /// ([`DemandState::push_slot`] adds each).
    pub(crate) fn with_capacity(cfg: MarketConfig, settle: SettleMode, fan_out: usize) -> Self {
        DemandState {
            cfg,
            settle,
            quotes: Vec::with_capacity(fan_out),
            reported: 0,
            rolls: 0,
            report: None,
            shed: false,
            retry_after: None,
        }
    }

    /// A demand with these `(seller, name, session)` candidates, in slot
    /// order.
    #[cfg(test)]
    pub(crate) fn new(
        cfg: MarketConfig,
        settle: SettleMode,
        candidates: Vec<(SellerId, String, SessionId)>,
    ) -> Self {
        let mut state = Self::with_capacity(cfg, settle, candidates.len());
        for (seller, name, session) in candidates {
            state.push_slot(seller, name, session);
        }
        state
    }

    /// Adds the next candidate's row, unreported (fan-out time only).
    pub(crate) fn push_slot(&mut self, seller: SellerId, name: String, session: SessionId) {
        self.quotes.push(CandidateQuote {
            seller,
            seller_name: name,
            session,
            state: QuoteState::Error(String::new()),
            history: Vec::new(),
        });
    }

    /// A state restored straight into its settled report — the checkpoint
    /// recovery path. The settle mode is derived from the report (epoch
    /// stamp ⇒ epoch mode) and the config defaults: both are only
    /// consulted *before* settlement, which this state is already past.
    /// An empty quote table marks the report as shed (see the `shed`
    /// field) — admitted demands always fan out to at least one seller.
    pub(crate) fn settled(report: DemandReport) -> Self {
        let settle = if report.epoch.is_some() {
            SettleMode::Epoch
        } else {
            SettleMode::Immediate(Arc::new(BestResponse))
        };
        let shed = report.quotes.is_empty();
        DemandState {
            cfg: MarketConfig::default(),
            settle,
            quotes: Vec::new(),
            reported: 0,
            rolls: 0,
            report: Some(Arc::new(report)),
            shed,
            retry_after: None,
        }
    }

    /// A state born terminal: the demand was refused at admission. The
    /// report is winnerless with an empty quote table (no fan-out ever
    /// happened), which is also how the state round-trips through a
    /// checkpoint — see [`DemandState::settled`].
    pub(crate) fn shed(demand: DemandId, retry_after: Option<u32>) -> Self {
        DemandState {
            retry_after,
            ..Self::settled(DemandReport {
                demand,
                winner: None,
                quotes: Vec::new(),
                epoch: None,
                clearing_price: None,
            })
        }
    }

    /// The deferred wake/cancel actions a settlement with `winner`
    /// implies: only parked (`Standing`) candidates need anything —
    /// already-terminal ones keep their own outcome.
    fn actions(quotes: &[CandidateQuote], winner: Option<usize>) -> Vec<SettleAction> {
        let mut actions = Vec::new();
        for (i, q) in quotes.iter().enumerate() {
            if !matches!(q.state, QuoteState::Standing(_)) {
                continue;
            }
            if winner == Some(i) {
                actions.push(SettleAction::Wake(q.session));
            } else {
                actions.push(SettleAction::Cancel(q.session));
            }
        }
        actions
    }
}

/// The registry of live and settled demands: `DemandId -> DemandState`
/// plus the id counter. Plain data in the exchange's state.
#[derive(Default)]
pub(crate) struct MatchBook {
    demands: IdMap<u64, DemandState>,
    next: u64,
}

impl MatchBook {
    /// Allocates the next fresh demand id (the caller commits the state
    /// via [`MatchBook::open_at`]).
    pub(crate) fn allocate(&mut self) -> DemandId {
        let id = DemandId(self.next);
        self.next += 1;
        id
    }

    /// The id the next [`MatchBook::allocate`] would hand out (checkpoint
    /// stamps persist it so a restored book never re-issues an id).
    pub(crate) fn next_id(&self) -> u64 {
        self.next
    }

    /// Bumps the id counter to at least `next` (checkpoint restore:
    /// demands taken before the snapshot still occupied ids).
    pub(crate) fn bump_next(&mut self, next: u64) {
        self.next = self.next.max(next);
    }

    /// Registers a demand under an explicit id; must happen before any of
    /// its candidate sessions is queued, so every report finds the state.
    /// Recovery opens demands under their *journaled* ids, so the id
    /// counter is bumped past `id` (fresh allocations never collide with
    /// replayed ones).
    pub(crate) fn open_at(&mut self, id: DemandId, state: DemandState) {
        self.bump_next(id.0 + 1);
        let prev = self.demands.insert(id.0, state);
        debug_assert!(prev.is_none(), "demand ids are unique");
    }

    /// [`MatchBook::allocate`] + [`MatchBook::open_at`] in one step.
    #[cfg(test)]
    pub(crate) fn open(&mut self, state: DemandState) -> DemandId {
        let id = self.allocate();
        self.open_at(id, state);
        id
    }

    /// Point-in-time status (`None` for unknown/taken ids).
    pub(crate) fn status(&self, id: DemandId) -> Option<DemandStatus> {
        let st = self.demands.get(&id.0)?;
        Some(match &st.report {
            Some(_) if st.shed => DemandStatus::Shed {
                retry_after: st.retry_after,
            },
            Some(report) => DemandStatus::Settled(Arc::clone(report)),
            None if st.settle.is_epoch() && st.reported == st.quotes.len() => {
                DemandStatus::Clearing { rolls: st.rolls }
            }
            None => DemandStatus::Matching {
                reported: st.reported,
                total: st.quotes.len(),
            },
        })
    }

    /// True when `id` is stored (live, or settled and not yet taken).
    pub(crate) fn contains(&self, id: DemandId) -> bool {
        self.demands.contains_key(&id.0)
    }

    /// Removes a *settled* demand and returns its report; `None` while the
    /// demand is still matching (live demands cannot be evicted).
    pub(crate) fn take(&mut self, id: DemandId) -> Option<Arc<DemandReport>> {
        self.demands.get(&id.0)?.report.as_ref()?;
        self.demands.remove(&id.0)?.report
    }

    /// Number of demands currently stored (matching or settled-not-taken).
    pub(crate) fn len(&self) -> usize {
        self.demands.len()
    }

    /// Demand `id`'s `(seller, session)` fan-out, in slot order, while its
    /// quote table is in the book (what its `DemandSubmitted` journal
    /// frame records); empty for unknown ids and once the table has moved
    /// into the report.
    pub(crate) fn candidates(&self, id: DemandId) -> Vec<(SellerId, SessionId)> {
        self.demands.get(&id.0).map_or_else(Vec::new, |st| {
            st.quotes.iter().map(|q| (q.seller, q.session)).collect()
        })
    }

    /// A sorted snapshot of every demand's settled report, for the
    /// checkpoint path. `Err(live)` when any demand is still matching or
    /// parked for clearing — checkpoints require every demand settled.
    pub(crate) fn snapshot_settled(&self) -> Result<Vec<DemandReport>, usize> {
        let mut out: Vec<DemandReport> = Vec::with_capacity(self.demands.len());
        let mut live = 0usize;
        for st in self.demands.values() {
            match &st.report {
                Some(report) => out.push(DemandReport::clone(report)),
                None => live += 1,
            }
        }
        if live > 0 {
            return Err(live);
        }
        out.sort_unstable_by_key(|r| r.demand.0);
        Ok(out)
    }

    /// Re-registers a checkpointed settled demand under its journaled id
    /// ([`DemandState::settled`]); the id counter is bumped past it like
    /// any replayed open.
    pub(crate) fn restore_settled(&mut self, report: DemandReport) {
        let id = report.demand;
        self.open_at(id, DemandState::settled(report));
    }

    /// Registers a demand refused at admission under `id`, born terminal
    /// ([`DemandState::shed`]). Used by both the live shed path and the
    /// recovery replay of a `DemandShed` frame.
    pub(crate) fn open_shed_at(&mut self, id: DemandId, retry_after: Option<u32>) {
        self.open_at(id, DemandState::shed(id, retry_after));
    }

    /// Records candidate `slot`'s quote (plus its full round history, for
    /// probe-spend accounting) for `demand`. The report that completes
    /// the candidate set either settles it (immediate mode: the policy
    /// runs inside this call — the demand's linearization point) or
    /// yields the quote table for the clearing window (epoch mode);
    /// every other report returns `None`.
    pub(crate) fn report(
        &mut self,
        demand: DemandId,
        slot: usize,
        quote: QuoteState,
        history: Vec<RoundRecord>,
    ) -> Option<ReportOutcome> {
        let st = self.demands.get_mut(&demand.0)?;
        debug_assert!(st.report.is_none(), "report after settlement");
        let row = &mut st.quotes[slot];
        row.state = quote;
        row.history = history;
        st.reported += 1;
        debug_assert!(st.reported <= st.quotes.len(), "double report for a slot");
        if st.reported < st.quotes.len() {
            return None;
        }

        // The candidate set is complete: exactly one report can observe
        // `reported == total`. Epoch-mode demands park here — the
        // clearing window reads them back from this book when their
        // epoch fires, and that epoch is their linearization point.
        let policy = match &st.settle {
            SettleMode::Immediate(policy) => policy.clone(),
            SettleMode::Epoch => return Some(ReportOutcome::EpochReady),
        };
        let quotes = std::mem::take(&mut st.quotes);
        let winner = policy
            .select(&st.cfg, &quotes)
            .filter(|&i| i < quotes.len());
        let actions = DemandState::actions(&quotes, winner);
        st.report = Some(Arc::new(DemandReport {
            demand,
            winner,
            quotes,
            epoch: None,
            clearing_price: None,
        }));
        Some(ReportOutcome::Settled(Settlement {
            matched: winner.is_some(),
            winner,
            actions,
        }))
    }

    /// True when epoch-mode `demand` is live and every candidate has
    /// reported: the clearing window may batch it.
    pub(crate) fn ready(&self, demand: DemandId) -> bool {
        self.demands
            .get(&demand.0)
            .is_some_and(|st| st.report.is_none() && st.reported == st.quotes.len())
    }

    /// A copy of a [`Self::ready`] demand's clearing view: its config,
    /// its rolls so far, and its full quote table.
    #[cfg(test)]
    pub(crate) fn epoch_demand(&self, demand: DemandId) -> Option<EpochDemand> {
        let st = self.demands.get(&demand.0)?;
        Some(EpochDemand {
            demand,
            cfg: st.cfg,
            rolls: st.rolls,
            quotes: st.quotes.clone(),
        })
    }

    /// The clearing window's view of a [`Self::ready`] demand, with its
    /// quote table moved out of the book for the epoch's decision; the
    /// window hands the table back with [`Self::return_table`] before the
    /// epoch settles anything.
    pub(crate) fn lend_epoch_demand(&mut self, demand: DemandId) -> Option<EpochDemand> {
        let st = self.demands.get_mut(&demand.0)?;
        Some(EpochDemand {
            demand,
            cfg: st.cfg,
            rolls: st.rolls,
            quotes: std::mem::take(&mut st.quotes),
        })
    }

    /// Puts back the quote table [`Self::lend_epoch_demand`] lent out.
    pub(crate) fn return_table(&mut self, demand: EpochDemand) {
        if let Some(st) = self.demands.get_mut(&demand.demand.0) {
            st.quotes = demand.quotes;
        }
    }

    /// Counts one clearing-epoch roll against `demand`: the window's
    /// expiry test reads it back through [`Self::epoch_demand`], and
    /// [`DemandStatus::Clearing`] reports it.
    pub(crate) fn note_roll(&mut self, demand: DemandId) {
        if let Some(st) = self.demands.get_mut(&demand.0) {
            st.rolls += 1;
        }
    }

    /// Settles an epoch-mode demand with the winner its clearing epoch
    /// assigned (validated in range), stamping the epoch number and the
    /// winning market's uniform clearing price into the report. Runs on
    /// the router under the exchange's state lock, once per demand.
    pub(crate) fn settle_epoch(
        &mut self,
        demand: DemandId,
        winner: Option<usize>,
        epoch: u64,
        clearing_price: Option<f64>,
    ) -> Option<Settlement> {
        let st = self.demands.get_mut(&demand.0)?;
        debug_assert!(st.settle.is_epoch(), "immediate demands settle in report");
        debug_assert!(st.report.is_none(), "an epoch settles a demand once");
        debug_assert_eq!(st.reported, st.quotes.len(), "cleared before ready");
        if st.report.is_some() {
            return None;
        }
        let quotes = std::mem::take(&mut st.quotes);
        let winner = winner.filter(|&i| i < quotes.len());
        let actions = DemandState::actions(&quotes, winner);
        st.report = Some(Arc::new(DemandReport {
            demand,
            winner,
            quotes,
            epoch: Some(epoch),
            clearing_price: winner.and(clearing_price),
        }));
        Some(Settlement {
            matched: winner.is_some(),
            winner,
            actions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfl_market::QuotedPrice;

    fn rec(net_profit: f64, cost_task: f64) -> RoundRecord {
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
            payment: 2.0,
            net_profit,
            cost_task,
            cost_data: 0.0,
            final_offer: false,
        }
    }

    fn quote(i: usize, state: QuoteState) -> CandidateQuote {
        let history = match &state {
            QuoteState::Standing(rec) => vec![*rec],
            QuoteState::Closed {
                last: Some(rec), ..
            } => vec![*rec],
            _ => Vec::new(),
        };
        CandidateQuote {
            seller: SellerId(i),
            seller_name: format!("s{i}"),
            session: SessionId(i as u64),
            state,
            history,
        }
    }

    #[test]
    fn best_response_prefers_highest_surplus() {
        let quotes = vec![
            quote(0, QuoteState::Standing(rec(10.0, 1.0))),
            quote(1, QuoteState::Standing(rec(30.0, 2.0))),
            quote(2, QuoteState::Standing(rec(30.0, 5.0))),
        ];
        assert_eq!(
            BestResponse.select(&MarketConfig::default(), &quotes),
            Some(1)
        );
    }

    #[test]
    fn best_response_ties_break_to_registration_order() {
        let quotes = vec![
            quote(0, QuoteState::Standing(rec(30.0, 2.0))),
            quote(1, QuoteState::Standing(rec(30.0, 2.0))),
        ];
        assert_eq!(
            BestResponse.select(&MarketConfig::default(), &quotes),
            Some(0)
        );
    }

    #[test]
    fn best_response_skips_failed_and_errored_candidates() {
        let quotes = vec![
            quote(
                0,
                QuoteState::Closed {
                    status: OutcomeStatus::Failed {
                        reason: vfl_market::FailureReason::NoAffordableBundle,
                    },
                    last: None,
                },
            ),
            quote(1, QuoteState::Error("course died".into())),
            quote(2, QuoteState::Standing(rec(-5.0, 0.0))),
        ];
        // A standing negotiation is eligible even at a (currently) negative
        // surplus: the negotiation itself decides Cases 4–6 after release.
        assert_eq!(
            BestResponse.select(&MarketConfig::default(), &quotes),
            Some(2)
        );
        assert_eq!(
            BestResponse.select(&MarketConfig::default(), &quotes[..2]),
            None
        );
    }

    #[test]
    fn settlement_fires_exactly_once_and_defers_actions() {
        let mut book = MatchBook::default();
        let id = book.open(DemandState::new(
            MarketConfig::default(),
            SettleMode::Immediate(Arc::new(BestResponse)),
            vec![
                (SellerId(0), "a".into(), SessionId(10)),
                (SellerId(1), "b".into(), SessionId(11)),
            ],
        ));
        assert!(matches!(
            book.status(id),
            Some(DemandStatus::Matching {
                reported: 0,
                total: 2
            })
        ));
        assert!(book
            .report(
                id,
                0,
                QuoteState::Standing(rec(5.0, 0.5)),
                vec![rec(5.0, 0.5)]
            )
            .is_none());
        assert!(book.take(id).is_none(), "live demands cannot be evicted");
        let ReportOutcome::Settled(settlement) = book
            .report(
                id,
                1,
                QuoteState::Standing(rec(50.0, 0.5)),
                vec![rec(10.0, 0.5), rec(50.0, 0.5)],
            )
            .expect("last report settles")
        else {
            panic!("immediate demands settle in the completing report");
        };
        assert!(settlement.matched);
        assert_eq!(settlement.winner, Some(1));
        // Winner (slot 1) woken, loser (slot 0) cancelled.
        assert_eq!(settlement.actions.len(), 2);
        assert!(matches!(
            settlement.actions[0],
            SettleAction::Cancel(SessionId(10))
        ));
        assert!(matches!(
            settlement.actions[1],
            SettleAction::Wake(SessionId(11))
        ));
        match book.status(id) {
            Some(DemandStatus::Settled(report)) => {
                assert_eq!(report.winner, Some(1));
                assert_eq!(report.winning_session(), Some(SessionId(11)));
                assert_eq!(report.quotes.len(), 2);
                // Probe-spend accounting: the loser's full history (one
                // course) survives the settlement; the winner's two-course
                // history is excluded from the loser spend.
                assert_eq!(report.quotes[0].probe_courses(), 1);
                assert_eq!(report.quotes[1].probe_courses(), 2);
                assert_eq!(report.loser_probe_spend(), 1);
            }
            other => panic!("expected settled, got {other:?}"),
        }
        let report = book.take(id).expect("settled demands can be taken");
        assert_eq!(report.winner, Some(1));
        assert!(book.status(id).is_none(), "taken demands are gone");
        assert_eq!(book.len(), 0);
    }

    #[test]
    fn no_acceptable_candidate_cancels_every_parked_loser() {
        let mut book = MatchBook::default();
        let id = book.open(DemandState::new(
            MarketConfig::default(),
            SettleMode::Immediate(Arc::new(BestResponse)),
            vec![
                (SellerId(0), "a".into(), SessionId(0)),
                (SellerId(1), "b".into(), SessionId(1)),
            ],
        ));
        book.report(id, 0, QuoteState::Error("boom".into()), Vec::new());
        let ReportOutcome::Settled(settlement) = book
            .report(
                id,
                1,
                QuoteState::Closed {
                    status: OutcomeStatus::Failed {
                        reason: vfl_market::FailureReason::RoundLimit,
                    },
                    last: None,
                },
                Vec::new(),
            )
            .expect("last report settles")
        else {
            panic!("immediate demands settle in the completing report");
        };
        assert!(!settlement.matched);
        assert_eq!(settlement.winner, None);
        assert!(
            settlement.actions.is_empty(),
            "nothing parked, nothing to do"
        );
        match book.status(id) {
            Some(DemandStatus::Settled(report)) => assert_eq!(report.winner, None),
            other => panic!("expected settled, got {other:?}"),
        }
    }

    #[test]
    fn epoch_demands_park_ready_and_settle_through_the_book() {
        let mut book = MatchBook::default();
        let id = book.open(DemandState::new(
            MarketConfig::default(),
            SettleMode::Epoch,
            vec![
                (SellerId(0), "a".into(), SessionId(20)),
                (SellerId(1), "b".into(), SessionId(21)),
            ],
        ));
        book.report(
            id,
            0,
            QuoteState::Standing(rec(5.0, 0.5)),
            vec![rec(5.0, 0.5)],
        );
        assert!(!book.ready(id), "one candidate still probing");
        let Some(ReportOutcome::EpochReady) = book.report(
            id,
            1,
            QuoteState::Standing(rec(9.0, 0.5)),
            vec![rec(9.0, 0.5)],
        ) else {
            panic!("epoch demands park instead of settling");
        };
        assert!(book.ready(id));
        let view = book.epoch_demand(id).expect("ready demands have a view");
        assert_eq!((view.demand, view.rolls), (id, 0));
        assert_eq!(view.quotes.len(), 2);
        assert_eq!(view.quotes[1].session, SessionId(21));
        // Parked for clearing: visible as Clearing, not evictable yet.
        assert!(matches!(
            book.status(id),
            Some(DemandStatus::Clearing { rolls: 0 })
        ));
        assert!(book.take(id).is_none());
        book.note_roll(id);
        assert!(matches!(
            book.status(id),
            Some(DemandStatus::Clearing { rolls: 1 })
        ));
        assert_eq!(book.epoch_demand(id).unwrap().rolls, 1);

        // The epoch settles it with the winner the window assigned.
        let settlement = book
            .settle_epoch(id, Some(1), 4, Some(3.25))
            .expect("epoch settlement");
        assert!(settlement.matched);
        assert_eq!(settlement.actions.len(), 2, "wake winner, cancel loser");
        assert!(!book.ready(id), "a settled demand leaves the window");
        let report = book.take(id).expect("settled demands can be taken");
        assert_eq!(report.winner, Some(1));
        assert_eq!(report.epoch, Some(4));
        assert_eq!(report.clearing_price, Some(3.25));
    }

    #[test]
    fn bid_ask_crosses_to_the_buyer_surplus() {
        let q = quote(0, QuoteState::Standing(rec(10.0, 1.5)));
        let (bid, ask) = q.bid_ask().expect("standing quotes cross");
        assert!((ask - 2.0).abs() < 1e-12, "ask is the implied payment");
        assert!(
            (bid - ask - q.buyer_surplus().unwrap()).abs() < 1e-12,
            "bid − ask is exactly the standing buyer surplus"
        );
        let errored = quote(1, QuoteState::Error("boom".into()));
        assert!(errored.bid_ask().is_none());
    }
}
