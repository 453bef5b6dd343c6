//! The marketplace engine: registered markets and sellers, the session
//! store, the shared gain cache and its claims, the matching book, the
//! clearing window, and the drain that drives every queued session to
//! completion.
//!
//! ## Execution model
//!
//! A session's cheap work (quotes, offers, decisions, *cached* course
//! results) runs inline in a slice; its expensive work (the VFL training
//! behind an uncached ΔG) runs elsewhere. Each slice drives one session
//! until it closes, parks, or reaches one [`SharedGainCache`] miss. At a
//! miss the session suspends holding the training claim, and the course
//! resolves off-slot; when it lands, the session resumes and pays no
//! second course in the same dispatch. Cache-hot sessions therefore close
//! in one dispatch and cold sessions interleave fairly.
//!
//! [`Exchange::drain`] runs the router of [`crate::executor`] on the
//! calling thread: the router is the only thread that runs slices, so
//! every journal frame, cache mutation, course-waiter wake, and settlement
//! happens on it, in an order that is a pure function of the submission
//! sequence. `n` course tasks resolve trainings concurrently through the
//! exchange's [`CourseResolver`] ([`Exchange::set_course_resolver`]).
//! A drain mutex is held for the whole drain, so concurrent `drain`
//! calls run one after another; `submit`, `submit_demand`, `poll`,
//! `take`, and `metrics` stay callable from any thread while a drain
//! runs.
//!
//! ## Parked sessions and drain termination
//!
//! Two kinds of session leave the ready queue without terminating: course
//! waiters (parked on the [`SharedGainCache`] claim of their `(evaluation
//! key, bundle)` until its outstanding training is settled) and matching
//! candidates parked at their probe horizon (until their demand settles).
//! A course waiter's claim holder is an outstanding course the router
//! will apply, and settling that claim hands back the waiters, which the
//! router requeues before the payer resumes; a parked candidate is woken
//! or cancelled by the settlement that a later report or epoch triggers
//! on the router. So when the router sees no ready session and no
//! outstanding course, nothing parked can still be waiting on anything
//! except the clearing window, which the idle flush empties. That is the
//! drain-termination invariant.
//!
//! ## State lock
//!
//! Everything the API and the router read or write is plain data in one
//! `Core` behind one mutex, and each fact has one owner there:
//! registries, sessions, the ΔG cache (whose claims own their course
//! waiters), the pending queue, the match book (every demand's config,
//! quote table, readiness and roll count), the clearing window (only the
//! epoch order of its queued demands), the epoch log, the id and
//! admission counters, the metric counters (cache hits and misses
//! included), and the crash hook. The router takes it once per slice,
//! once per applied course, and once per idle flush, and never holds it
//! while it waits for a course or calls the resolver, so external calls
//! stay live for the whole of a drain. Each external call is one critical
//! section, hence atomic to the router: a submission's journal record
//! always precedes its first dispatch. Code that runs under the lock —
//! strategies, a demand's task and quoting factories, match, clear and
//! admission policies, the crash hook — must not call back into the
//! exchange. The
//! drain mutex is taken only by `drain`, always before the state lock.
//! Every counter is bumped in the critical section that does what it
//! counts, so a [`Exchange::metrics`] snapshot, itself one critical
//! section, never shows a counter ahead of another that it implies.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vfl_market::session::wire;
use vfl_market::{GainProvider, Listing, MarketError, Outcome, Result, RoundRecord};
use vfl_sim::BundleMask;

use crate::cache::{SharedGainCache, SoftServe};
use crate::clearing::{ClearingSpec, ClearingWindow, EpochOutcome, EpochRecord};
use crate::executor::{CourseOrder, CourseResolver, CourseTasks, LocalResolver};
use crate::journal::{
    check_market_spec, CheckpointMarket, CheckpointState, CrashHook, CrashPoint, ExchangeEvent,
    Journal, QuoteKind, RecoverError, ReplaySpec,
};
use crate::matching::{
    Demand, DemandId, DemandReport, DemandState, DemandStatus, MatchBook, QuoteState,
    QuotingFactory, ReportOutcome, SellerId, SettleAction, Settlement,
};
use crate::metrics::MetricsSnapshot;
use crate::session::{ActiveSession, Drive, MatchTag, SessionOrder};
use crate::store::{SessionId, SessionStatus, SessionStore};
use crate::telemetry::{ExchangeTelemetry, SliceTimer, Stage, StageTallies, SAMPLE_STRIDE};
use crate::traffic::{AdmissionDecision, AdmissionLoad, AdmissionPolicy};
use crate::{lock, IdMap};
use vfl_telemetry::TraceKey;

/// Opaque market handle returned by `register_market`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MarketId(pub usize);

impl std::fmt::Display for MarketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One tradable market: a gain provider over a fixed listing table.
pub struct MarketSpec {
    /// Serves Step 3 (must be shareable across course tasks).
    pub provider: Arc<dyn GainProvider + Send + Sync>,
    /// The bundles on sale.
    pub listings: Arc<Vec<Listing>>,
    /// Cache identity: two markets with equal keys share ΔG cache entries,
    /// so set it to a fingerprint of (scenario, base model, oracle seed).
    /// `None` gives the market a private cache space. The matching tier
    /// also reads it as the seller's *scenario* fingerprint (see
    /// [`Demand::scenario`]).
    pub evaluation_key: Option<u64>,
    /// Display name for dashboards/reports; the matching tier stamps it
    /// into candidate transcripts as the seller identity.
    pub name: String,
}

/// Construction options for an exchange instance. It has no fields: the
/// exchange's state is one plain-data core behind one lock, with nothing
/// to tune.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeConfig {}

/// What one `drain` call accomplished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrainReport {
    /// Sessions that ran to their own negotiated outcome during this
    /// drain (success or negotiated failure — not cancellations).
    pub closed: usize,
    /// Sessions that died on a hard error during this drain.
    pub failed: usize,
    /// Losing matching candidates cancelled by demand settlements this
    /// drain performed (terminal, Abort-settled outcomes, but terminated
    /// by the platform rather than the protocol).
    pub cancelled: usize,
    /// Course tasks used.
    pub workers: usize,
    /// Wall-clock time of the drain.
    pub elapsed: Duration,
}

impl DrainReport {
    /// Sessions brought to *any* terminal state per wall-clock second
    /// (closed + failed + cancelled).
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.closed + self.failed + self.cancelled) as f64 / secs
        }
    }
}

/// What one [`Exchange::checkpoint`] snapshot captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Registration stamps (markets, seller-owned included).
    pub markets: usize,
    /// Terminal sessions captured with their full outcomes.
    pub sessions: usize,
    /// Settled demands captured with their full reports.
    pub demands: usize,
    /// Cached ΔG courses captured — trainings recovery will never repeat.
    pub courses: usize,
    /// Cleared epochs captured (the restored window resumes after them).
    pub epochs: usize,
}

struct MarketEntry {
    provider: Arc<dyn GainProvider + Send + Sync>,
    listings: Arc<Vec<Listing>>,
    eval_key: u64,
    /// Registered without a caller-supplied evaluation key (checkpoint
    /// stamps persist this; it is not derivable from `eval_key` alone — a
    /// caller may legally supply a high-bit key).
    private: bool,
    name: String,
}

/// A registered data party: its market, quoting strategy factory, and the
/// catalog/scenario fingerprints demand eligibility is decided on.
struct SellerEntry {
    market: MarketId,
    name: String,
    /// Union of every listed bundle — the seller's feature catalog.
    catalog: BundleMask,
    /// The market's registered evaluation key (scenario fingerprint);
    /// `None` for private-cache markets, which only match scenario-less
    /// demands.
    scenario: Option<u64>,
    quoting: QuotingFactory,
    /// The candidate tables handed out so far, by wanted mask: one shared
    /// table per (seller, wanted mask) (see [`Core::table`]).
    tables: IdMap<u64, Arc<Vec<Listing>>>,
}

/// Wanted masks whose tables a seller keeps; a seller that has handed
/// out this many starts over, so a stream of ever-new masks cannot grow
/// the exchange without bound.
const TABLES_PER_SELLER: usize = 64;

/// Everything the API and the router read or write, as plain data behind
/// the exchange's one state lock (see the module doc).
#[derive(Default)]
pub(crate) struct Core {
    markets: Vec<MarketEntry>,
    sellers: Vec<SellerEntry>,
    pub(crate) store: SessionStore,
    pub(crate) cache: SharedGainCache,
    book: MatchBook,
    /// The clearing window, once [`Exchange::open_clearing`] ran (at most
    /// one per exchange; epoch-mode demands are rejected without it).
    clearing: Option<ClearingWindow>,
    /// Audit history of every cleared epoch, in epoch order (what
    /// [`Exchange::epoch_history`] returns and `audit_replay` re-checks).
    epoch_log: Vec<EpochRecord>,
    /// Submitted-but-not-yet-dispatched session ids; the router moves
    /// them onto its own run queue at every slice.
    pub(crate) pending: VecDeque<SessionId>,
    next_session: u64,
    /// Admission policy consulted by [`Exchange::submit_demand`]
    /// ([`Exchange::set_admission`]); `None` admits everything. The load
    /// it sees is read from this state (pending backlog, store, book) —
    /// never from telemetry, which stays observe-only.
    admission: Option<Arc<dyn AdmissionPolicy>>,
    /// Logical admission clock: counts policy consultations (one per
    /// gated [`Exchange::submit_demand`] call). Rate-based policies
    /// refill on this — never on wall time — so admission verdicts are a
    /// pure function of the submission sequence and replay stays
    /// bit-identical.
    admission_clock: u64,
    /// Builds the course futures of every drain
    /// ([`Exchange::set_course_resolver`]); `None` is [`LocalResolver`].
    resolver: Option<Arc<dyn CourseResolver>>,
    /// The exchange's counters, bumped in the critical section that does
    /// what they count ([`Exchange::metrics`] copies them out).
    pub(crate) counters: MetricsSnapshot,
    /// Fault-injection observer ([`Exchange::set_crash_hook`]); fires
    /// under this lock at every [`CrashPoint`].
    crash_hook: Option<CrashHook>,
    /// Stage samples not yet published into the attached telemetry's
    /// shared histograms (see [`crate::telemetry`]); empty without one.
    pub(crate) stages: StageTallies,
}

impl Core {
    /// Runs the crash hook, if one is installed, at `point`.
    pub(crate) fn crash_point(&self, point: CrashPoint) {
        if let Some(hook) = &self.crash_hook {
            hook(&point);
        }
    }

    /// The next fresh session id.
    fn allocate_session(&mut self) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        id
    }

    /// The next `n` fresh session ids.
    fn allocate_sessions(&mut self, n: usize) -> impl Iterator<Item = SessionId> {
        let first = self.next_session;
        self.next_session += n as u64;
        (first..self.next_session).map(SessionId)
    }

    /// Bumps the session-id counter past a replayed or restored `id`.
    fn bump_session(&mut self, id: SessionId) {
        self.next_session = self.next_session.max(id.0 + 1);
    }

    /// Appends one market entry; the caller journals it in the same
    /// critical section, so journal order is id order (recovery
    /// re-registers by walking the journal).
    fn push_market(&mut self, spec: MarketSpec) -> Result<(MarketId, bool)> {
        if spec.listings.is_empty() {
            return Err(MarketError::InvalidConfig(
                "market has an empty listing table".into(),
            ));
        }
        let id = MarketId(self.markets.len());
        let private = spec.evaluation_key.is_none();
        // Private cache spaces get the high bit so they can never collide
        // with caller-provided fingerprints of other markets.
        let eval_key = spec.evaluation_key.unwrap_or((1 << 63) | id.0 as u64);
        self.markets.push(MarketEntry {
            provider: spec.provider,
            listings: spec.listings,
            eval_key,
            private,
            name: spec.name,
        });
        Ok((id, private))
    }

    /// Registers a seller's market and the seller itself as one step
    /// (one `SellerRegistered` event covers both, so a journal prefix
    /// never sees a seller's market without its seller).
    fn push_seller(&mut self, spec: crate::matching::SellerSpec) -> Result<(SellerId, bool)> {
        let catalog = BundleMask::union_of(spec.market.listings.iter().map(|l| l.bundle));
        let scenario = spec.market.evaluation_key;
        let name = spec.market.name.clone();
        let (market, private) = self.push_market(spec.market)?;
        let id = SellerId(self.sellers.len());
        self.sellers.push(SellerEntry {
            market,
            name,
            catalog,
            scenario,
            quoting: spec.quoting,
            tables: IdMap::default(),
        });
        Ok((id, private))
    }

    /// Opens the clearing window (at most one per exchange).
    fn open_window(&mut self, spec: ClearingSpec) -> Result<&ClearingWindow> {
        if self.clearing.is_some() {
            return Err(MarketError::InvalidConfig(
                "the exchange's clearing window is already open".into(),
            ));
        }
        Ok(self.clearing.insert(ClearingWindow::new(spec)?))
    }

    /// Re-registers recorded market `market` — a seller's when
    /// `stamp.owner` is set — from the next entry of `spec`: the entry
    /// must match the recorded fingerprints and land on the recorded ids
    /// and evaluation key. Shared by journal replay and checkpoint restore
    /// (`from` names which record is being replayed); journals nothing.
    pub(crate) fn replay_registration(
        &mut self,
        from: &str,
        market: MarketId,
        stamp: &CheckpointMarket,
        spec: &mut ReplaySpec,
    ) -> std::result::Result<(), RecoverError> {
        let name = &stamp.name;
        let what = if stamp.owner.is_some() {
            "seller"
        } else {
            "market"
        };
        let no_entry = || {
            RecoverError::SpecMismatch(format!(
                "{from} records {what} {market} {name:?} but the spec supplies no further {what}"
            ))
        };
        let rejected = |e: MarketError| RecoverError::SpecMismatch(format!("{what} {name:?}: {e}"));
        let check = |ms: &MarketSpec| check_market_spec(what, ms, stamp);
        let assigned = match stamp.owner {
            None => {
                let ms = (!spec.markets.is_empty())
                    .then(|| spec.markets.remove(0))
                    .ok_or_else(no_entry)?;
                check(&ms)?;
                self.push_market(ms).map_err(rejected)?.0
            }
            Some(seller) => {
                let ss = (!spec.sellers.is_empty())
                    .then(|| spec.sellers.remove(0))
                    .ok_or_else(no_entry)?;
                check(&ss.market)?;
                let (id, _) = self.push_seller(ss).map_err(rejected)?;
                if id != seller {
                    return Err(RecoverError::InconsistentJournal(format!(
                        "seller {name:?} replayed as {id}, {from} records {seller}"
                    )));
                }
                self.sellers[id.0].market
            }
        };
        if assigned != market {
            return Err(RecoverError::InconsistentJournal(format!(
                "{what} {name:?} market replayed as {assigned}, {from} records {market}"
            )));
        }
        // Private keys encode the assigned id, so equality here also pins
        // the registration *order* the spec re-supplied.
        let key = self.markets[market.0].eval_key;
        if key != stamp.eval_key {
            return Err(RecoverError::InconsistentJournal(format!(
                "{what} {name:?} replayed with evaluation key {key}, {from} records {}",
                stamp.eval_key
            )));
        }
        Ok(())
    }

    /// Re-opens the recorded clearing window `(epoch_size, capacity,
    /// max_rolls)` from the spec's clearing spec, which must match it.
    /// Shared by journal replay and checkpoint restore; journals nothing.
    pub(crate) fn replay_clearing(
        &mut self,
        from: &str,
        (epoch_size, capacity, max_rolls): (u32, u32, u32),
        spec: &mut ReplaySpec,
    ) -> std::result::Result<(), RecoverError> {
        let Some(cs) = spec.clearing.take() else {
            return Err(RecoverError::SpecMismatch(format!(
                "{from} records a clearing window but the spec supplies no clearing spec"
            )));
        };
        if cs.epoch_size as u32 != epoch_size
            || cs.capacity != capacity
            || cs.max_rolls != max_rolls
        {
            return Err(RecoverError::SpecMismatch(format!(
                "clearing window: {from} records epoch_size {epoch_size} / capacity \
                 {capacity} / max_rolls {max_rolls}, spec supplies {} / {} / {}",
                cs.epoch_size, cs.capacity, cs.max_rolls
            )));
        }
        self.open_window(cs)
            .map_err(|e| RecoverError::InconsistentJournal(format!("clearing: {e}")))?;
        Ok(())
    }

    /// Demand checks that need no seller: horizon, mask, and a window
    /// for epoch mode.
    fn validate_demand(&self, demand: &Demand) -> Result<()> {
        if demand.probe_rounds == 0 {
            return Err(MarketError::InvalidConfig(
                "demand probe_rounds must be >= 1".into(),
            ));
        }
        if demand.wanted.is_empty() {
            return Err(MarketError::InvalidConfig(
                "demand wants no features (empty bundle mask)".into(),
            ));
        }
        if demand.settle.is_epoch() && self.clearing.is_none() {
            return Err(MarketError::InvalidConfig(
                "epoch-mode demand with no clearing window (call open_clearing first)".into(),
            ));
        }
        Ok(())
    }

    /// The table seller `seller` negotiates over for a demand wanting
    /// `wanted`: its listings that overlap `wanted`, in listing order
    /// (`None` for unknown ids). The table depends on nothing else, so it
    /// is built once and shared by every candidate with that (seller,
    /// wanted mask) pair.
    fn table(&mut self, seller: SellerId, wanted: BundleMask) -> Option<Arc<Vec<Listing>>> {
        let s = self.sellers.get_mut(seller.0)?;
        if let Some(table) = s.tables.get(&wanted.0) {
            return Some(table.clone());
        }
        if s.tables.len() >= TABLES_PER_SELLER {
            s.tables.clear();
        }
        let table: Arc<Vec<Listing>> = Arc::new(
            self.markets[s.market.0]
                .listings
                .iter()
                .filter(|l| l.bundle.intersects(wanted))
                .copied()
                .collect(),
        );
        s.tables.insert(wanted.0, table.clone());
        Some(table)
    }

    /// Builds registered seller `seller`'s candidate session for `demand`:
    /// its shared table, the demand's task factory, the seller's quoting
    /// factory, and the seller tag, with a log reserved for the probe
    /// horizon. Touches no other state.
    fn candidate(&mut self, seller: SellerId, demand: &Demand) -> Result<ActiveSession> {
        let table = self
            .table(seller, demand.wanted)
            .expect("candidate sellers are registered");
        if table.is_empty() {
            // Unreachable through `submit_demand` (eligibility implies
            // overlap); a journal naming a non-overlapping seller is
            // rejected here instead of failing at session start.
            return Err(MarketError::InvalidConfig(format!(
                "candidate seller {seller} has no listing overlapping the demand"
            )));
        }
        let entry = &self.sellers[seller.0];
        let order = SessionOrder {
            cfg: demand.cfg,
            task: (demand.task)(),
            data: (entry.quoting)(table.as_slice()),
        };
        let mut session = ActiveSession::new(entry.market, table, order)?;
        session.tag_seller(&entry.name);
        session.reserve_probe_log(demand.probe_rounds);
        Ok(session)
    }

    /// Queues ids for dispatch, keeping the queue-depth gauge current.
    fn enqueue(
        &mut self,
        ids: impl IntoIterator<Item = SessionId>,
        tele: Option<&ExchangeTelemetry>,
    ) {
        self.pending.extend(ids);
        if let Some(t) = tele {
            t.queue_depth.set(self.pending.len() as i64);
        }
    }
}

/// The concurrent multi-session marketplace engine.
pub struct Exchange {
    /// The one state lock (see the module doc).
    pub(crate) state: Mutex<Core>,
    /// Durable event journal, when the exchange was built with one
    /// ([`Exchange::with_journal`]); appends happen at the linearization
    /// points documented in [`crate::journal`].
    journal: Option<Arc<Journal>>,
    /// Telemetry sink, when attached ([`Exchange::with_telemetry`]).
    /// Strictly observe-only: written at the stage boundaries documented
    /// in [`crate::telemetry`], never read back by any exchange path.
    pub(crate) telemetry: Option<Arc<ExchangeTelemetry>>,
    /// Held for the whole of [`Exchange::drain`]: one router at a time.
    /// It owns the course-task pool, which later drains of the same task
    /// count reuse (see [`crate::executor`]).
    drain_lock: Mutex<Option<CourseTasks>>,
}

/// What one slice did with its session, plus how many *other* sessions
/// the slice cancelled as a side-effect of a demand settlement it
/// completed.
pub(crate) struct Notice {
    pub(crate) kind: NoticeKind,
    pub(crate) cancelled: usize,
}

pub(crate) enum NoticeKind {
    /// The session needs another slice (one course was served).
    Yielded(SessionId),
    /// The session left the ready queue without terminating: it is parked
    /// (course claim or probe horizon) and will be requeued by whoever
    /// wakes it — or the dispatched id turned out to be a spurious wake of
    /// an already-terminal session. Either way: nothing to requeue, nothing
    /// to count.
    Parked,
    /// The session reached a terminal state.
    Finished { closed: bool },
}

/// How a slice ended.
pub(crate) enum SliceEnd {
    /// The slice ran to one of the classic notices.
    Notice(Notice),
    /// The session suspended holding the training claim for this order;
    /// the router owes the cache a [`SharedGainCache::complete`] or
    /// [`SharedGainCache::abort`] and the session a resumed slice.
    NeedCourse(CourseOrder),
}

impl Exchange {
    /// A plain exchange (no journal: nothing is persisted, exactly the
    /// pre-journal behaviour).
    pub fn new(cfg: ExchangeConfig) -> Self {
        Self::build(cfg, None, None)
    }

    /// An exchange that appends every registration, submission, trained
    /// course, and conclusion to `journal`, so a crashed drain can be
    /// rebuilt with [`Exchange::recover`] (see [`crate::journal`]).
    pub fn with_journal(cfg: ExchangeConfig, journal: Arc<Journal>) -> Self {
        Self::build(cfg, Some(journal), None)
    }

    /// An exchange that records per-stage latencies, queue depths, and
    /// trace spans into `telemetry` (see [`crate::telemetry`] for the
    /// stage table and the observe-only invariant). Scrape with
    /// [`Exchange::scrape`] / [`Exchange::scrape_json`].
    pub fn with_telemetry(cfg: ExchangeConfig, telemetry: Arc<ExchangeTelemetry>) -> Self {
        Self::build(cfg, None, Some(telemetry))
    }

    /// A journaled *and* instrumented exchange
    /// ([`Exchange::with_journal`] + [`Exchange::with_telemetry`]); the
    /// journal-append stage histogram is only populated on this
    /// combination.
    pub fn with_journal_and_telemetry(
        cfg: ExchangeConfig,
        journal: Arc<Journal>,
        telemetry: Arc<ExchangeTelemetry>,
    ) -> Self {
        Self::build(cfg, Some(journal), Some(telemetry))
    }

    pub(crate) fn build(
        _cfg: ExchangeConfig,
        journal: Option<Arc<Journal>>,
        telemetry: Option<Arc<ExchangeTelemetry>>,
    ) -> Self {
        Exchange {
            state: Mutex::default(),
            journal,
            telemetry,
            drain_lock: Mutex::new(None),
        }
    }

    /// Replaces the [`CourseResolver`] every later [`Exchange::drain`]
    /// builds its course futures with. The default [`LocalResolver`]
    /// trains on the course tasks; a remote resolver ships the order out
    /// and resolves on the reply. Outcomes, settlements, and journal
    /// bytes do not depend on the resolver or its latency — only on what
    /// it returns (see [`crate::executor`]).
    pub fn set_course_resolver(&self, resolver: Arc<dyn CourseResolver>) {
        lock(&self.state).resolver = Some(resolver);
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<ExchangeTelemetry>> {
        self.telemetry.as_ref()
    }

    /// Prometheus text scrape: every exchange counter bridged into the
    /// registry plus the stage histograms and depth gauges. `None`
    /// without an attached telemetry sink.
    pub fn scrape(&self) -> Option<String> {
        let t = self.telemetry.as_deref()?;
        Some(t.render_with(&self.publish_stages(t)))
    }

    /// JSON twin of [`Exchange::scrape`] (histograms carry
    /// count/sum/min/max and p50/p95/p99).
    pub fn scrape_json(&self) -> Option<String> {
        let t = self.telemetry.as_deref()?;
        Some(t.render_json_with(&self.publish_stages(t)))
    }

    /// Publishes the stage tallies into `t` and copies the counters out,
    /// in one critical section.
    fn publish_stages(&self, t: &ExchangeTelemetry) -> MetricsSnapshot {
        let mut core = lock(&self.state);
        t.publish(&mut core.stages);
        core.counters
    }

    /// Appends to the journal, building the event (from the locked
    /// state) only when one is attached: the no-journal hot path pays
    /// one branch. With telemetry attached, the first append and every
    /// [`SAMPLE_STRIDE`]-th after it — serialize, frame, sink write — is
    /// timed into the `journal_append` stage.
    pub(crate) fn record_with(&self, core: &mut Core, make: impl FnOnce(&Core) -> ExchangeEvent) {
        let Some(journal) = &self.journal else {
            return;
        };
        match self.telemetry.as_deref() {
            Some(t) if core.stages.append_sampler.tick() => {
                let start = t.now_ns();
                journal.append(&make(core));
                let ns = t.now_ns() - start;
                core.stages
                    .record_n(Stage::JournalAppend, ns, SAMPLE_STRIDE);
            }
            _ => journal.append(&make(core)),
        }
    }

    /// Installs (or clears) the fault-injection hook. The hook fires at
    /// every [`CrashPoint`] the router passes — *inside* the course
    /// and settlement critical sections, under the state lock, so it must
    /// not call back into the exchange — and typically reacts by sealing
    /// the journal, freezing durability exactly as a crash at that
    /// instant would. Observability only: the in-memory run continues, so
    /// a test can compare it against the recovery of the sealed journal.
    pub fn set_crash_hook(&self, hook: Option<CrashHook>) {
        lock(&self.state).crash_hook = hook;
    }

    /// Installs (or clears) the admission policy consulted by
    /// [`Exchange::submit_demand`]. With a policy attached, a demand that
    /// arrives while the policy refuses the current [`AdmissionLoad`] is
    /// *shed*: it still consumes a demand id and is journaled
    /// ([`crate::ExchangeEvent::DemandShed`]), but no candidate session is
    /// fanned out and its status is the terminal
    /// [`crate::DemandStatus::Shed`]. A never-triggered policy is
    /// behaviorally invisible (the traffic tier proves journal-multiset
    /// equality against a detached exchange).
    pub fn set_admission(&self, policy: Option<Arc<dyn AdmissionPolicy>>) {
        lock(&self.state).admission = policy;
    }

    /// Registers a market; heterogeneous scenarios (any dataset × base
    /// model mix) coexist in one exchange.
    pub fn register_market(&self, spec: MarketSpec) -> Result<MarketId> {
        let mut core = lock(&self.state);
        let (id, private) = core.push_market(spec)?;
        self.record_with(&mut core, |core| {
            let entry = &core.markets[id.0];
            ExchangeEvent::MarketRegistered {
                market: id,
                eval_key: entry.eval_key,
                private,
                listings: entry.listings.len() as u32,
                catalog: BundleMask::union_of(entry.listings.iter().map(|l| l.bundle)),
                table_digest: crate::journal::listing_table_digest(&entry.listings),
                name: entry.name.clone(),
            }
        });
        Ok(id)
    }

    /// Registers a data party on the matching tier: its market (also
    /// reachable through the plain [`Self::submit`] path via the market of
    /// the returned seller) plus the quoting strategy it answers demands
    /// with. Sellers are matched against demands by catalog overlap and
    /// scenario fingerprint (see [`Demand`]).
    pub fn register_seller(&self, spec: crate::matching::SellerSpec) -> Result<SellerId> {
        let mut core = lock(&self.state);
        let (id, private) = core.push_seller(spec)?;
        self.record_with(&mut core, |core| {
            let seller = &core.sellers[id.0];
            let market = &core.markets[seller.market.0];
            ExchangeEvent::SellerRegistered {
                seller: id,
                market: seller.market,
                eval_key: market.eval_key,
                private,
                listings: market.listings.len() as u32,
                catalog: seller.catalog,
                table_digest: crate::journal::listing_table_digest(&market.listings),
                name: seller.name.clone(),
            }
        });
        Ok(id)
    }

    /// Opens the exchange's clearing window: demands submitted with
    /// [`crate::SettleMode::Epoch`] park after their probes and are settled in
    /// batch epochs by `spec.policy` (see [`crate::clearing`] for the
    /// epoch lifecycle). At most one window per exchange; open it before
    /// submitting any epoch-mode demand. The window's shape
    /// (`epoch_size`, `capacity`, `max_rolls`) is journaled so recovery
    /// can verify the re-supplied spec against it.
    pub fn open_clearing(&self, spec: ClearingSpec) -> Result<()> {
        let mut core = lock(&self.state);
        let spec = core.open_window(spec)?.spec();
        let (epoch_size, capacity, max_rolls) =
            (spec.epoch_size as u32, spec.capacity, spec.max_rolls);
        self.record_with(&mut core, |_| ExchangeEvent::ClearingOpened {
            epoch_size,
            capacity,
            max_rolls,
        });
        Ok(())
    }

    /// The audit log of every cleared epoch so far, in epoch order: which
    /// demand matched/rolled/expired in which batch, and the uniform
    /// clearing price per seller market (see [`crate::clearing`]).
    pub fn epoch_history(&self) -> Vec<EpochRecord> {
        lock(&self.state).epoch_log.clone()
    }

    /// Appends a [`ExchangeEvent::Checkpoint`] frame — a wholesale
    /// snapshot of registrations, paid ΔG courses, terminal outcomes,
    /// settled demand reports, and the cleared-epoch ledger — so the next
    /// [`Exchange::recover`] seeks to it and replays only later events
    /// (bounded-cost recovery; see [`crate::journal`]'s checkpoint
    /// section), and [`crate::Journal::compact`] can drop the history it
    /// summarizes.
    ///
    /// Checkpoints are taken at **drain-idle quiescence** only: the call
    /// errors if any session is pending or live, any demand unsettled, or
    /// the clearing window still holds queued demands (run
    /// [`Exchange::drain`] first). A mid-flight session cannot be
    /// serialized — its strategy state is code — so the quiescence check
    /// is what makes the snapshot complete rather than torn.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        let journal = self.journal.as_ref().ok_or_else(|| {
            MarketError::InvalidConfig(
                "checkpoint requires a journaled exchange (Exchange::with_journal)".into(),
            )
        })?;
        if journal.is_sealed() {
            return Err(MarketError::InvalidConfig(
                "checkpoint on a sealed journal".into(),
            ));
        }
        if let Some(e) = journal.last_error() {
            return Err(MarketError::InvalidConfig(format!(
                "checkpoint on a failed journal: {e}"
            )));
        }
        // One critical section from the quiescence gate to the appended
        // frame: no submission can land between the snapshot and the
        // checkpoint record and be lost to a recovery that seeks past it.
        let core = lock(&self.state);
        let pending = core.pending.len();
        if pending > 0 {
            return Err(MarketError::InvalidConfig(format!(
                "checkpoint on a non-quiescent exchange: {pending} sessions pending \
                 (drain first)"
            )));
        }
        if let Some(window) = &core.clearing {
            let queued = window.pending();
            if queued > 0 {
                return Err(MarketError::InvalidConfig(format!(
                    "checkpoint on a non-quiescent exchange: {queued} demands queued \
                     in the clearing window (drain first)"
                )));
            }
        }
        let sessions = core.store.snapshot_terminal().map_err(|live| {
            MarketError::InvalidConfig(format!(
                "checkpoint on a non-quiescent exchange: {live} sessions still live \
                 (drain first)"
            ))
        })?;
        let demands = core.book.snapshot_settled().map_err(|live| {
            MarketError::InvalidConfig(format!(
                "checkpoint on a non-quiescent exchange: {live} demands still \
                 matching (drain first)"
            ))
        })?;
        let mut owner: Vec<Option<SellerId>> = vec![None; core.markets.len()];
        for (i, s) in core.sellers.iter().enumerate() {
            owner[s.market.0] = Some(SellerId(i));
        }
        let markets_stamp: Vec<CheckpointMarket> = core
            .markets
            .iter()
            .enumerate()
            .map(|(i, m)| CheckpointMarket {
                owner: owner[i],
                eval_key: m.eval_key,
                private: m.private,
                listings: m.listings.len() as u32,
                catalog: BundleMask::union_of(m.listings.iter().map(|l| l.bundle)),
                table_digest: crate::journal::listing_table_digest(&m.listings),
                name: m.name.clone(),
            })
            .collect();
        let clearing = core.clearing.as_ref().map(|w| {
            let s = w.spec();
            (s.epoch_size as u32, s.capacity, s.max_rolls)
        });
        let state = CheckpointState {
            next_session: core.next_session,
            next_demand: core.book.next_id(),
            markets: markets_stamp,
            clearing,
            epochs: core.epoch_log.clone(),
            courses: core.cache.entries(),
            sessions,
            demands,
        };
        let stats = CheckpointStats {
            markets: state.markets.len(),
            sessions: state.sessions.len(),
            demands: state.demands.len(),
            courses: state.courses.len(),
            epochs: state.epochs.len(),
        };
        // Checkpoint critical section: snapshot captured but not appended,
        // then appended + flushed but success not yet observed.
        core.crash_point(CrashPoint::CheckpointSnapshotted);
        journal.append(&ExchangeEvent::Checkpoint {
            state: Box::new(state),
        });
        core.crash_point(CrashPoint::CheckpointRecorded);
        if let Some(e) = journal.last_error() {
            return Err(MarketError::InvalidConfig(format!(
                "checkpoint frame append failed: {e}"
            )));
        }
        Ok(stats)
    }

    /// Restores a [`CheckpointState`] into this (fresh) exchange:
    /// registrations re-verified against the re-supplied spec exactly as
    /// genesis replay verifies registration events, then courses, terminal
    /// outcomes, settled reports, and the epoch ledger installed wholesale
    /// — **nothing re-runs and nothing is journaled by the restore paths**.
    /// The checkpoint frame itself is re-appended to the fresh journal
    /// (before the caller replays the suffix through the ordinary
    /// journaling paths), so the new generation reads `[Checkpoint,
    /// suffix…]` and chains.
    pub(crate) fn restore_checkpoint(
        &self,
        state: CheckpointState,
        spec: &mut ReplaySpec,
    ) -> std::result::Result<(), RecoverError> {
        let mut core = lock(&self.state);
        for (idx, stamp) in state.markets.iter().enumerate() {
            core.replay_registration("checkpoint", MarketId(idx), stamp, spec)?;
        }
        if let Some(shape) = state.clearing {
            core.replay_clearing("checkpoint", shape, spec)?;
        }
        if !state.epochs.is_empty() {
            let Some(window) = core.clearing.as_mut() else {
                return Err(RecoverError::InconsistentJournal(
                    "checkpoint records cleared epochs but no clearing window".into(),
                ));
            };
            let next = state.epochs.last().expect("non-empty").epoch + 1;
            window.skip_to_epoch(next);
            core.epoch_log = state.epochs.clone();
        }
        for &((eval_key, bundle), gain) in &state.courses {
            core.cache.insert(eval_key, BundleMask(bundle), gain);
        }
        for (sid, result) in &state.sessions {
            core.bump_session(*sid);
            core.store.finish(*sid, result.clone());
        }
        for report in &state.demands {
            core.book.restore_settled(report.clone());
        }
        core.next_session = core.next_session.max(state.next_session);
        core.book.bump_next(state.next_demand);
        // Stamp the restored checkpoint into the fresh generation *after*
        // every check passed (the restore paths above journal nothing, so
        // this frame is the new journal's first — `[Checkpoint, suffix…]`).
        self.record_with(&mut core, |_| ExchangeEvent::Checkpoint {
            state: Box::new(state),
        });
        Ok(())
    }

    /// The market a registered seller trades on (`None` for unknown ids).
    pub fn seller_market(&self, id: SellerId) -> Option<MarketId> {
        lock(&self.state).sellers.get(id.0).map(|s| s.market)
    }

    /// Number of registered sellers.
    pub fn seller_count(&self) -> usize {
        lock(&self.state).sellers.len()
    }

    /// Opens a negotiation on `market`. The session is validated and queued
    /// immediately; it runs during the next [`Self::drain`].
    pub fn submit(&self, market: MarketId, order: SessionOrder) -> Result<SessionId> {
        let mut core = lock(&self.state);
        let id = core.allocate_session();
        self.open_session(&mut core, id, market, order)?;
        Ok(id)
    }

    /// Validates, stores, journals, and queues one session under an
    /// explicit id (shared by `submit` and journal recovery).
    fn open_session(
        &self,
        core: &mut Core,
        id: SessionId,
        market: MarketId,
        order: SessionOrder,
    ) -> Result<()> {
        let listings = core
            .markets
            .get(market.0)
            .ok_or_else(|| MarketError::InvalidConfig(format!("unknown market {}", market.0)))?
            .listings
            .clone();
        let cfg_digest = wire::config_digest(&order.cfg);
        let mut session = ActiveSession::new(market, listings, order)?;
        if let Some(t) = self.telemetry.as_deref() {
            session.stamp_enqueued(t.now_ns());
        }
        core.store.insert(id, session);
        self.record_with(core, |_| ExchangeEvent::SessionSubmitted {
            session: id,
            market,
            cfg_digest,
        });
        core.enqueue([id], self.telemetry.as_deref());
        core.counters.sessions_opened += 1;
        Ok(())
    }

    /// Recovery path of [`Self::submit`]: re-opens a journaled session
    /// under its recorded id and bumps the id counter past it. A duplicate
    /// recorded id is rejected (a well-formed journal never repeats one;
    /// silently overwriting would lose a submission).
    pub(crate) fn replay_session(
        &self,
        id: SessionId,
        market: MarketId,
        order: SessionOrder,
    ) -> Result<()> {
        let mut core = lock(&self.state);
        if core.store.contains(id) {
            return Err(MarketError::InvalidConfig(format!(
                "journal records session {id} twice"
            )));
        }
        core.bump_session(id);
        self.open_session(&mut core, id, market, order)
    }

    /// Refills one journaled course result into the shared ΔG cache
    /// (recovery): the training was paid for by the pre-crash run, so the
    /// resumed drain serves it as a hit and never re-trains it.
    pub(crate) fn preload_course(&self, eval_key: u64, bundle: BundleMask, gain: f64) {
        let mut core = lock(&self.state);
        core.cache.insert(eval_key, bundle, gain);
        core.counters.courses_preloaded += 1;
        self.record_with(&mut core, |_| ExchangeEvent::CourseServed {
            eval_key,
            bundle,
            gain,
        });
    }

    /// Posts a task party's demand: fans it out into one candidate
    /// negotiation per eligible seller (catalog overlap with
    /// [`Demand::wanted`], and — when [`Demand::scenario`] is set — an
    /// equal scenario fingerprint), each scoped to the wanted-overlapping
    /// subset of that seller's listings, to be probed and settled during
    /// the next [`Self::drain`] (see [`crate::matching`] for the
    /// lifecycle).
    ///
    /// Validation is all-or-nothing: an invalid config or an ineligible
    /// demand (no overlapping seller, empty `wanted`, `probe_rounds == 0`)
    /// rejects the whole demand without opening any session. The whole
    /// call is one critical section of the state lock, so the demand's
    /// [`Demand::task`] factory and each candidate seller's
    /// [`crate::SellerSpec::quoting`] factory run under it.
    pub fn submit_demand(&self, demand: Demand) -> Result<DemandId> {
        let mut guard = lock(&self.state);
        let core = &mut *guard;
        core.validate_demand(&demand)?;
        let eligible = |s: &SellerEntry| {
            s.catalog.intersects(demand.wanted)
                && demand.scenario.is_none_or(|key| s.scenario == Some(key))
        };
        let fan_out = core.sellers.iter().filter(|s| eligible(s)).count();
        if fan_out == 0 {
            return Err(MarketError::InvalidConfig(
                "no registered seller's catalog overlaps the demand".into(),
            ));
        }
        // Admission gate: after validation and eligibility (a shed
        // demand is a *valid* demand the exchange refused for load, not
        // an error), before any session id or store slot is consumed —
        // the session-id stream of admitted demands is untouched by
        // shedding.
        if let Some(policy) = core.admission.clone() {
            let load = AdmissionLoad {
                queue_depth: core.pending.len(),
                sessions: core.store.len(),
                demands: core.book.len(),
                fan_out,
                submission: core.admission_clock,
                scenario: demand.scenario,
            };
            core.admission_clock += 1;
            if let AdmissionDecision::Shed { retry_after } = policy.admit(&load) {
                let did = core.book.allocate();
                core.book.open_shed_at(did, retry_after);
                self.record_with(core, |_| ExchangeEvent::DemandShed {
                    demand: did,
                    wanted: demand.wanted,
                    cfg_digest: wire::config_digest(&demand.cfg),
                    queue_depth: load.queue_depth as u32,
                    retry_after,
                });
                core.counters.demands_shed += 1;
                return Ok(did);
            }
        }
        // Every candidate is built before anything is committed, so a
        // failing (or panicking) factory leaves no trace.
        let mut sessions = Vec::with_capacity(fan_out);
        for i in 0..core.sellers.len() {
            // Eligible sellers, in registration (= slot) order.
            if eligible(&core.sellers[i]) {
                sessions.push((SellerId(i), core.candidate(SellerId(i), &demand)?));
            }
        }
        let did = core.book.allocate();
        let ids = core.allocate_sessions(fan_out);
        self.commit_demand(core, did, &demand, sessions, ids);
        Ok(did)
    }

    /// Commits a fan-out of built candidate sessions, in slot order and
    /// under the session ids `ids`, in the caller's critical section: each
    /// candidate's match tag, dispatch-wait stamp (one reading for the
    /// whole fan-out), store slot and queue entry, then the demand state,
    /// the clearing-window queue entry for epoch demands (submission order
    /// is epoch-membership order) and the journal record — one event for
    /// the whole fan-out.
    fn commit_demand(
        &self,
        core: &mut Core,
        did: DemandId,
        demand: &Demand,
        sessions: Vec<(SellerId, ActiveSession)>,
        ids: impl IntoIterator<Item = SessionId>,
    ) {
        let mut state =
            DemandState::with_capacity(demand.cfg, demand.settle.clone(), sessions.len());
        let enqueued = self.telemetry.as_deref().map(|t| t.now_ns());
        for (slot, ((seller, mut session), sid)) in sessions.into_iter().zip(ids).enumerate() {
            session.set_match_tag(MatchTag {
                demand: did,
                slot,
                probe_rounds: demand.probe_rounds,
                released: false,
            });
            if let Some(now) = enqueued {
                session.stamp_enqueued(now);
            }
            state.push_slot(seller, core.sellers[seller.0].name.clone(), sid);
            core.store.insert(sid, session);
            core.pending.push_back(sid);
            core.counters.sessions_opened += 1;
        }
        core.book.open_at(did, state);
        if demand.settle.is_epoch() {
            core.clearing
                .as_mut()
                .expect("validated: epoch demands require an open window")
                .enqueue(did);
        }
        self.record_with(core, |core| ExchangeEvent::DemandSubmitted {
            demand: did,
            wanted: demand.wanted,
            probe_rounds: demand.probe_rounds,
            cfg_digest: wire::config_digest(&demand.cfg),
            epoch_mode: demand.settle.is_epoch(),
            candidates: core.book.candidates(did),
        });
        if let Some(t) = self.telemetry.as_deref() {
            t.queue_depth.set(core.pending.len() as i64);
        }
        core.counters.demands_submitted += 1;
    }

    /// Recovery path of [`Self::submit_demand`]: re-opens a journaled
    /// demand under its recorded ids. The fan-out is **not** re-derived
    /// from eligibility — the journal's candidate list is the truth (a
    /// seller registration that raced the original submission must not
    /// grow the replayed fan-out) — but every recorded seller must still
    /// resolve and overlap the demand.
    pub(crate) fn replay_demand(
        &self,
        did: DemandId,
        demand: Demand,
        recorded: &[(SellerId, SessionId)],
    ) -> Result<()> {
        let mut guard = lock(&self.state);
        let core = &mut *guard;
        core.validate_demand(&demand)?;
        if recorded.is_empty() {
            return Err(MarketError::InvalidConfig(
                "journaled demand has an empty fan-out".into(),
            ));
        }
        // Reject duplicate recorded ids instead of silently overwriting
        // state (the store/book uniqueness guards are debug-only).
        if core.book.contains(did) {
            return Err(MarketError::InvalidConfig(format!(
                "journal records demand {did} twice"
            )));
        }
        let mut sessions = Vec::with_capacity(recorded.len());
        for &(seller, sid) in recorded {
            if core.store.contains(sid) {
                return Err(MarketError::InvalidConfig(format!(
                    "journal records candidate session {sid} twice"
                )));
            }
            if core.sellers.get(seller.0).is_none() {
                return Err(MarketError::InvalidConfig(format!(
                    "journaled demand names unregistered seller {seller}"
                )));
            }
            sessions.push((seller, core.candidate(seller, &demand)?));
        }
        for &(_, sid) in recorded {
            core.bump_session(sid);
        }
        let ids = recorded.iter().map(|&(_, sid)| sid);
        self.commit_demand(core, did, &demand, sessions, ids);
        Ok(())
    }

    /// Recovery path of a [`crate::ExchangeEvent::DemandShed`] frame:
    /// re-opens the demand terminal-shed under its recorded id and
    /// re-records the frame into the fresh journal. Nothing is fanned out
    /// and the spec is never consulted — there is nothing to rebuild; the
    /// replay exists so the id watermark, the audit ledger, and the
    /// metrics survive recovery exactly.
    pub(crate) fn replay_shed(
        &self,
        did: DemandId,
        wanted: BundleMask,
        cfg_digest: u64,
        queue_depth: u32,
        retry_after: Option<u32>,
    ) -> Result<()> {
        let mut core = lock(&self.state);
        if core.book.contains(did) {
            return Err(MarketError::InvalidConfig(format!(
                "journal records demand {did} twice"
            )));
        }
        core.book.open_shed_at(did, retry_after);
        self.record_with(&mut core, |_| ExchangeEvent::DemandShed {
            demand: did,
            wanted,
            cfg_digest,
            queue_depth,
            retry_after,
        });
        core.counters.demands_shed += 1;
        Ok(())
    }

    /// Point-in-time status of a demand (`None` for unknown/taken ids). A
    /// settled demand's report is shared, not copied.
    pub fn demand_status(&self, id: DemandId) -> Option<DemandStatus> {
        lock(&self.state).book.status(id)
    }

    /// Removes a *settled* demand and returns its report; `None` while the
    /// demand is still matching (or for unknown ids). Candidate sessions
    /// stay in the store for [`Self::poll`]/[`Self::take`]. The report is
    /// moved out, or copied when a [`DemandStatus::Settled`] handle to it
    /// is still alive.
    pub fn take_demand(&self, id: DemandId) -> Option<DemandReport> {
        let report = lock(&self.state).book.take(id)?;
        Some(Arc::unwrap_or_clone(report))
    }

    /// Number of demands currently stored (matching, or settled and not
    /// yet taken).
    pub fn demand_count(&self) -> usize {
        lock(&self.state).book.len()
    }

    /// Point-in-time status of a session (`None` for unknown/evicted ids).
    pub fn poll(&self, id: SessionId) -> Option<SessionStatus> {
        lock(&self.state).store.status(id)
    }

    /// Removes a *terminal* session and returns its outcome; `None` while
    /// the session is still live (or for unknown ids).
    pub fn take(&self, id: SessionId) -> Option<Result<Box<Outcome>>> {
        lock(&self.state).store.take_outcome(id)
    }

    /// Live counters, read in one critical section of the state lock, so
    /// every snapshot is a state the exchange was actually in.
    pub fn metrics(&self) -> MetricsSnapshot {
        lock(&self.state).counters
    }

    /// Number of sessions currently stored (queued, parked, or terminal
    /// and not yet taken).
    pub fn session_count(&self) -> usize {
        lock(&self.state).store.len()
    }

    /// Runs every queued session to completion with `n_course_tasks`
    /// concurrent course resolutions (0 = one per core) and returns the
    /// drain statistics. Sessions submitted concurrently (from other
    /// threads) while the drain runs are picked up too; the call returns
    /// when no session is queued, parked, or awaiting a course — in
    /// particular, every demand whose candidates were all submitted before
    /// the drain returned is settled, and its winner has run to a terminal
    /// state. Concurrent `drain` calls run one after another. A panic in a
    /// gain provider or resolver propagates out of `drain`; the paying
    /// session stays suspended on its claim, so treat the exchange as
    /// failed afterwards.
    pub fn drain(&self, n_course_tasks: usize) -> DrainReport {
        let mut pool = lock(&self.drain_lock);
        let resolver = lock(&self.state).resolver.clone();
        self.route(
            &mut pool,
            n_course_tasks,
            resolver.as_deref().unwrap_or(&LocalResolver),
        )
    }

    /// Requeues the waiters a settled course claim handed back. Called by
    /// the router when it applies (or aborts) the training, before the
    /// payer resumes, so the drain-termination invariant holds.
    pub(crate) fn wake_course_waiters(&self, core: &mut Core, woken: Vec<SessionId>) {
        if !woken.is_empty() {
            let tele = self.telemetry.as_deref();
            if let Some(t) = tele {
                t.waitlist_depth.add(-(woken.len() as i64));
            }
            core.enqueue(woken, tele);
        }
    }

    /// Records a candidate quote (with its round history, for probe-spend
    /// accounting) and, when it completes the demand, either applies the
    /// settlement (immediate mode: wake the winner past its horizon,
    /// cancel parked losers) or leaves the demand ready in the book for
    /// the clearing window and drives any epoch that is now due. Runs
    /// inside the reporting slice; returns how many sessions it cancelled
    /// so the slice's notice can count them. `now` is the closing clock
    /// reading of that slice, when telemetry took one.
    fn report_quote(
        &self,
        core: &mut Core,
        demand: DemandId,
        slot: usize,
        quote: QuoteState,
        history: Vec<RoundRecord>,
        now: Option<u64>,
    ) -> usize {
        let kind = match &quote {
            QuoteState::Standing(_) => QuoteKind::Standing,
            QuoteState::Closed { .. } => QuoteKind::Closed,
            QuoteState::Error(_) => QuoteKind::Error,
        };
        let rounds = history.len() as u32;
        let outcome = core.book.report(demand, slot, quote, history);
        self.record_with(core, |_| ExchangeEvent::QuoteRecorded {
            demand,
            slot: slot as u32,
            kind,
            rounds,
        });
        let tele = self.telemetry.as_deref();
        let now = tele.map(|t| now.unwrap_or_else(|| t.now_ns()));
        if let (Some(t), Some(now)) = (tele, now) {
            // Point event on the demand's timeline: one candidate's
            // quote landed (slot index not carried — the timeline shows
            // cadence, the journal shows content).
            core.stages
                .span(t, TraceKey::Demand(demand.0), "quote_recorded", now, now);
        }
        match outcome {
            None => 0,
            // The report made the decision, so the settlement's time
            // counts from the report's reading.
            Some(ReportOutcome::Settled(settlement)) => {
                self.apply_settlement(core, demand, settlement, now).0
            }
            Some(ReportOutcome::EpochReady) => self.drive_clearing(core, false),
        }
    }

    /// Journals and applies one demand's settlement: the decision is
    /// already made (and visible in the match book) but neither recorded
    /// nor applied — the two crash points bracket exactly the windows the
    /// injectable-crash replay must survive. The settlement is timed from
    /// `start`, a clock reading the caller already holds (one is read
    /// when it holds none). Returns the sessions cancelled and, with
    /// telemetry attached, the closing reading.
    fn apply_settlement(
        &self,
        core: &mut Core,
        demand: DemandId,
        settlement: Settlement,
        start: Option<u64>,
    ) -> (usize, Option<u64>) {
        let tele = self.telemetry.as_deref();
        let start = tele.map(|t| start.unwrap_or_else(|| t.now_ns()));
        core.counters.demands_settled += 1;
        if settlement.matched {
            core.counters.demands_matched += 1;
        }
        core.crash_point(CrashPoint::SettlementDecided(demand));
        self.record_with(core, |_| ExchangeEvent::DemandSettled {
            demand,
            winner: settlement.winner.map(|w| w as u32),
        });
        core.crash_point(CrashPoint::SettlementRecorded(demand));
        let cancelled = self.apply_actions(core, settlement.actions, start);
        let end = tele.zip(start).map(|(t, start)| {
            let now = t.now_ns();
            core.stages.record(Stage::Settlement, now - start);
            core.stages
                .span(t, TraceKey::Demand(demand.0), "settlement", start, now);
            now
        });
        (cancelled, end)
    }

    /// Applies deferred wake/cancel actions to parked candidate sessions;
    /// returns how many it cancelled. A woken winner's dispatch wait is
    /// stamped with `now`, the settlement's opening clock reading.
    fn apply_actions(
        &self,
        core: &mut Core,
        actions: Vec<SettleAction>,
        now: Option<u64>,
    ) -> usize {
        let mut cancelled = 0usize;
        for action in actions {
            match action {
                SettleAction::Wake(sid) => {
                    // The winner is parked: Ready in the store, owned by
                    // nobody, reachable only through this settlement.
                    if let Some(mut session) = core.store.check_out(sid) {
                        session.release();
                        if let Some(now) = now {
                            // Re-stamp: the next dispatch-wait sample
                            // measures wake → dispatch, not submit →
                            // dispatch (the park was the demand's, not
                            // the queue's).
                            session.stamp_enqueued(now);
                        }
                        core.store.check_in(sid, session);
                        core.enqueue([sid], self.telemetry.as_deref());
                    } else {
                        debug_assert!(false, "winning candidate {sid} must be parked");
                    }
                }
                SettleAction::Cancel(sid) => {
                    if let Some(mut session) = core.store.check_out(sid) {
                        let result = session.cancel();
                        core.counters.sessions_cancelled += 1;
                        match &result {
                            Ok(outcome) => {
                                self.record_with(core, |_| ExchangeEvent::SessionConcluded {
                                    session: sid,
                                    status: wire::status_code(outcome.status),
                                    rounds: outcome.n_rounds() as u32,
                                    digest: wire::outcome_digest(outcome),
                                })
                            }
                            Err(_) => self.record_with(core, |_| ExchangeEvent::SessionConcluded {
                                session: sid,
                                status: wire::STATUS_HARD_ERROR,
                                rounds: 0,
                                digest: 0,
                            }),
                        }
                        core.store.finish(sid, result);
                        cancelled += 1;
                    } else {
                        debug_assert!(false, "losing candidate {sid} must be parked");
                    }
                }
            }
        }
        cancelled
    }

    /// Clears every epoch that is currently due — on the count trigger
    /// (`flush = false`, fired inside the slice whose report completed a
    /// batch) or the drain-idle flush (`flush = true`, partial final
    /// batches included). Each epoch runs whole on the router: decision,
    /// `EpochCleared` record, and every member demand's settlement
    /// (decision→record→side-effects, exactly the immediate path's
    /// sequence), so journaled epoch order equals real epoch order.
    /// Returns the sessions cancelled.
    pub(crate) fn drive_clearing(&self, core: &mut Core, flush: bool) -> usize {
        let tele = self.telemetry.as_deref();
        let mut cancelled = 0usize;
        while let Some(EpochOutcome {
            record,
            settled,
            rolled,
            expired,
        }) = core
            .clearing
            .as_mut()
            .and_then(|w| w.clear_next(&mut core.book, flush))
        {
            let epoch_start = tele.map(|t| t.now_ns());
            // Member settlements are timed back to back: each starts at
            // the closing reading of the one before it.
            let mut mark = epoch_start;
            let epoch = record.epoch;
            // Epoch critical section: decided but not recorded, then
            // recorded but not applied — both windows are injectable.
            core.crash_point(CrashPoint::EpochDecided(epoch));
            self.record_with(core, |_| ExchangeEvent::EpochCleared {
                record: record.clone(),
            });
            core.crash_point(CrashPoint::EpochRecorded(epoch));
            core.epoch_log.push(record);
            core.counters.epochs_cleared += 1;
            core.counters.demands_rolled += rolled.len() as u64;
            core.counters.demands_expired += expired as u64;
            for settled in &settled {
                if let Some(settlement) =
                    core.book
                        .settle_epoch(settled.demand, settled.winner, epoch, settled.price)
                {
                    let (c, end) = self.apply_settlement(core, settled.demand, settlement, mark);
                    cancelled += c;
                    mark = end;
                } else {
                    debug_assert!(false, "cleared demand {} not in the book", settled.demand);
                }
            }
            if let (Some(t), Some(start)) = (tele, epoch_start) {
                // The last member settlement's closing reading ends the
                // epoch too.
                let now = if settled.is_empty() {
                    t.now_ns()
                } else {
                    mark.unwrap_or(start)
                };
                core.stages.record(Stage::EpochClear, now - start);
                core.stages
                    .span(t, TraceKey::Epoch(epoch), "epoch_clear", start, now);
            }
        }
        cancelled
    }

    /// Ends a slice that leaves `session` live: counts the rounds it ran,
    /// closes the telemetry bracket, and checks it back into the store.
    /// Returns the bracket's closing clock reading, if it took one.
    fn park(
        &self,
        core: &mut Core,
        id: SessionId,
        session: Box<ActiveSession>,
        rounds_before: usize,
        timer: Option<SliceTimer>,
    ) -> Option<u64> {
        core.counters.rounds_completed += (session.rounds_so_far() - rounds_before) as u64;
        let closed = self.finish_slice(core, timer, session.rounds_so_far());
        core.store.check_in(id, session);
        closed
    }

    /// Closes a slice's telemetry bracket at `rounds_end` rounds (see
    /// [`SliceTimer::finish`]).
    fn finish_slice(
        &self,
        core: &mut Core,
        timer: Option<SliceTimer>,
        rounds_end: usize,
    ) -> Option<u64> {
        let (t, timer) = self.telemetry.as_deref().zip(timer)?;
        timer.finish(t, &mut core.stages, rounds_end)
    }

    /// One slice of session `id`. Cheap work (strategy steps, cached
    /// course results) runs inline; the slice ends when the session
    /// closes, parks (probe horizon or course claim), needs an uncached
    /// course ([`SliceEnd::NeedCourse`], holding the training claim), or
    /// would need a second one after resuming. `resume` carries the
    /// result of the course the session suspended on: a resumed slice is
    /// the second half of one dispatch, so it skips the dispatch crash
    /// point and starts with its course budget spent. Runs only on the
    /// router.
    pub(crate) fn run_slice(
        &self,
        core: &mut Core,
        id: SessionId,
        resume: Option<Result<f64>>,
    ) -> SliceEnd {
        let plain = |kind: NoticeKind| SliceEnd::Notice(Notice { kind, cancelled: 0 });
        let Some(mut session) = core.store.check_out(id) else {
            // Spurious wake: a course-waiter or settlement wake raced the
            // session into a terminal state (e.g. a cancelled loser that
            // was still waiting on a claim). Nothing to run, nothing to
            // count.
            return plain(NoticeKind::Parked);
        };
        let resumed = resume.is_some();
        let mut injected = resume;
        // Telemetry bracket: start the slice timer and settle the queued
        // session's dispatch-wait sample (stamped at submit or wake).
        // Everything below is observe-only — see crate::telemetry.
        let tele = self.telemetry.as_deref();
        let mut slice_timer = tele.map(|t| {
            let timer = SliceTimer::start(t, session.rounds_so_far());
            if let Some(enqueued) = session.take_enqueued_ns() {
                let now = timer.start_ns();
                core.stages
                    .record(Stage::DispatchWait, now.saturating_sub(enqueued));
                core.stages
                    .span(t, TraceKey::Session(id.0), "dispatch_wait", enqueued, now);
            }
            timer
        });
        if !resumed {
            core.crash_point(CrashPoint::Dispatched(id));
        }
        let market = session.market;
        let eval_key = core.markets[market.0].eval_key;
        let rounds_before = session.rounds_so_far();
        // The resumed payer's course budget is already spent.
        let paid_course = resumed;
        loop {
            // Matching tier: an unreleased candidate at its probe horizon
            // parks for settlement instead of training again. Check-in
            // precedes the report so that, if this report settles the
            // demand, settlement finds the session in the store.
            if session.probe_parked() {
                let tag = *session.match_tag().expect("probe_parked implies a tag");
                let standing = session
                    .standing_quote()
                    .expect("probe horizon implies a completed round");
                let history = session.round_history();
                let closed = self.park(core, id, session, rounds_before, slice_timer.take());
                let cancelled = self.report_quote(
                    core,
                    tag.demand,
                    tag.slot,
                    QuoteState::Standing(standing),
                    history,
                    closed,
                );
                return SliceEnd::Notice(Notice {
                    kind: NoticeKind::Parked,
                    cancelled,
                });
            }
            let step = if let Some(result) = injected.take() {
                // Resumed, first iteration only: the router already landed
                // (or aborted) the course and woke its waiters.
                match result {
                    Ok(g) => session.drive(Some(g)),
                    Err(e) => Err(e),
                }
            } else {
                match session.pending_bundle() {
                    Some(bundle) => {
                        if paid_course && core.cache.peek(eval_key, bundle).is_none() {
                            // A second training would blow the slice budget:
                            // park the session; the next dispatch pays it.
                            self.park(core, id, session, rounds_before, slice_timer.take());
                            return plain(NoticeKind::Yielded(id));
                        }
                        // A sampled hit is timed; the sampler counts hits only.
                        let serve_start = tele
                            .filter(|_| core.stages.hit_sampler.due())
                            .map(|t| t.now_ns());
                        match core.cache.serve_softly(eval_key, bundle, id) {
                            SoftServe::Hit(g) => {
                                core.counters.courses_requested += 1;
                                core.counters.cache_hits += 1;
                                core.stages.hit_sampler.tick();
                                if let (Some(t), Some(start)) = (tele, serve_start) {
                                    let served = t.now_ns() - start;
                                    core.stages.record_n(
                                        Stage::CourseCacheHit,
                                        served,
                                        SAMPLE_STRIDE,
                                    );
                                }
                                session.drive(Some(g))
                            }
                            SoftServe::Claimed => {
                                core.counters.courses_requested += 1;
                                // Suspend the session (checked in, off every
                                // queue, holding the training claim) and hand
                                // the order to the router. No settlement can
                                // touch it meanwhile — only candidates parked
                                // *at their probe horizon* are
                                // settlement-visible, and this one has not
                                // reported its quote yet.
                                self.park(core, id, session, rounds_before, slice_timer.take());
                                return SliceEnd::NeedCourse(CourseOrder {
                                    session: id,
                                    eval_key,
                                    bundle,
                                    provider: core.markets[market.0].provider.clone(),
                                });
                            }
                            SoftServe::Busy => {
                                // Another session's course for this exact key
                                // is outstanding, and the claim now holds us
                                // as a waiter: park; the router wakes us when
                                // it settles that claim (see the cache
                                // module's wake protocol).
                                core.counters.course_waits += 1;
                                self.park(core, id, session, rounds_before, slice_timer.take());
                                if let Some(t) = tele {
                                    t.waitlist_depth.inc();
                                }
                                return plain(NoticeKind::Parked);
                            }
                        }
                    }
                    None => session.drive(None),
                }
            };
            match step {
                Ok(Drive::NeedGain) => continue,
                Ok(Drive::Done(outcome)) => {
                    core.counters.sessions_closed += 1;
                    if outcome.is_success() {
                        core.counters.deals_struck += 1;
                    }
                    // On completion the outcome absorbs the round records,
                    // so the terminal count is read off the outcome itself.
                    core.counters.rounds_completed +=
                        outcome.n_rounds().saturating_sub(rounds_before) as u64;
                    let closed = self.finish_slice(core, slice_timer.take(), outcome.n_rounds());
                    let tag = session.match_tag().filter(|t| !t.released).copied();
                    let quote = tag.map(|_| QuoteState::Closed {
                        status: outcome.status,
                        last: outcome.final_record().copied(),
                    });
                    let history = tag.map(|_| outcome.rounds.clone());
                    core.crash_point(CrashPoint::Concluding(id));
                    self.record_with(core, |_| ExchangeEvent::SessionConcluded {
                        session: id,
                        status: wire::status_code(outcome.status),
                        rounds: outcome.n_rounds() as u32,
                        digest: wire::outcome_digest(&outcome),
                    });
                    core.store.finish(id, Ok(outcome));
                    let cancelled = match (tag, quote, history) {
                        (Some(tag), Some(quote), Some(history)) => {
                            self.report_quote(core, tag.demand, tag.slot, quote, history, closed)
                        }
                        _ => 0,
                    };
                    return SliceEnd::Notice(Notice {
                        kind: NoticeKind::Finished { closed: true },
                        cancelled,
                    });
                }
                Err(e) => {
                    core.counters.sessions_failed += 1;
                    core.counters.rounds_completed +=
                        session.rounds_so_far().saturating_sub(rounds_before) as u64;
                    let closed =
                        self.finish_slice(core, slice_timer.take(), session.rounds_so_far());
                    let tag = session.match_tag().filter(|t| !t.released).copied();
                    let history = tag.map(|_| session.round_history());
                    let msg = e.to_string();
                    core.crash_point(CrashPoint::Concluding(id));
                    self.record_with(core, |_| ExchangeEvent::SessionConcluded {
                        session: id,
                        status: wire::STATUS_HARD_ERROR,
                        rounds: session.rounds_so_far() as u32,
                        digest: 0,
                    });
                    core.store.finish(id, Err(e));
                    let cancelled = match (tag, history) {
                        (Some(tag), Some(history)) => self.report_quote(
                            core,
                            tag.demand,
                            tag.slot,
                            QuoteState::Error(msg),
                            history,
                            closed,
                        ),
                        _ => 0,
                    };
                    return SliceEnd::Notice(Notice {
                        kind: NoticeKind::Finished { closed: false },
                        cancelled,
                    });
                }
            }
        }
    }
}

impl std::fmt::Debug for Exchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = lock(&self.state);
        f.debug_struct("Exchange")
            .field("markets", &core.markets.len())
            .field("sellers", &core.sellers.len())
            .field("sessions", &core.store.len())
            .field("demands", &core.book.len())
            .field("cache_entries", &core.cache.len())
            .field("course_waiters", &core.cache.waiting())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use vfl_market::{
        DataContext, DataResponse, DataStrategy, ReservedPrice, StrategicData, StrategicTask,
        TableGainProvider,
    };

    /// A data strategy that counts every `respond` call — driving a session
    /// is observable, so a test can prove a session was *never* driven.
    struct CountingData {
        inner: StrategicData,
        calls: Arc<AtomicU64>,
    }

    impl DataStrategy for CountingData {
        fn respond(
            &mut self,
            ctx: &DataContext<'_>,
            listings: &[Listing],
            cfg: &vfl_market::MarketConfig,
            rng: &mut rand::rngs::StdRng,
        ) -> Result<DataResponse> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.inner.respond(ctx, listings, cfg, rng)
        }

        fn observe_course(&mut self, bundle: BundleMask, gain: f64) {
            self.inner.observe_course(bundle, gain);
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    fn market_fixture(exchange: &Exchange) -> (MarketId, Vec<f64>) {
        let gains = vec![0.05, 0.12, 0.20, 0.30];
        let listings: Vec<Listing> = [(5.0, 0.8), (7.0, 1.0), (9.0, 1.2), (11.0, 1.5)]
            .iter()
            .enumerate()
            .map(|(i, &(rate, base))| Listing {
                bundle: BundleMask::singleton(i),
                reserved: ReservedPrice::new(rate, base).unwrap(),
            })
            .collect();
        let provider =
            TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
        let market = exchange
            .register_market(MarketSpec {
                provider: Arc::new(provider),
                listings: Arc::new(listings),
                evaluation_key: Some(7),
                name: "race".into(),
            })
            .unwrap();
        (market, gains)
    }

    fn counted_order(gains: &[f64], calls: &Arc<AtomicU64>) -> SessionOrder {
        SessionOrder {
            cfg: vfl_market::MarketConfig {
                utility_rate: 1000.0,
                budget: 12.0,
                rate_cap: 20.0,
                seed: 3,
                ..vfl_market::MarketConfig::default()
            },
            task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap()),
            data: Box::new(CountingData {
                inner: StrategicData::with_gains(gains.to_vec()),
                calls: calls.clone(),
            }),
        }
    }

    /// A seller listing one bundle per mask of `bundles`, quoting with the
    /// strategic data player.
    fn masked_seller(name: &str, bundles: &[u64]) -> crate::matching::SellerSpec {
        let listings: Vec<Listing> = bundles
            .iter()
            .enumerate()
            .map(|(i, &b)| Listing {
                bundle: BundleMask(b),
                reserved: ReservedPrice::new(5.0 + i as f64, 0.8).unwrap(),
            })
            .collect();
        let provider = TableGainProvider::new(
            listings
                .iter()
                .map(|l| (l.bundle, 0.05 * l.bundle.0.count_ones() as f64)),
        );
        crate::matching::SellerSpec {
            market: MarketSpec {
                provider: Arc::new(provider),
                listings: Arc::new(listings),
                evaluation_key: None,
                name: name.into(),
            },
            quoting: Arc::new(|table: &[Listing]| {
                Box::new(StrategicData::with_gains(vec![0.2; table.len()]))
                    as Box<dyn vfl_market::DataStrategy + Send>
            }),
        }
    }

    fn wanting(wanted: u64, seed: u64) -> Demand {
        Demand {
            wanted: BundleMask(wanted),
            scenario: None,
            cfg: vfl_market::MarketConfig {
                utility_rate: 900.0,
                budget: 12.0,
                rate_cap: 20.0,
                seed,
                ..vfl_market::MarketConfig::default()
            },
            task: Arc::new(|| Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap())),
            probe_rounds: 2,
            settle: crate::matching::SettleMode::Immediate(Arc::new(crate::BestResponse)),
        }
    }

    /// Each candidate's seller and table, in slot order.
    type Tables = Vec<(SellerId, Arc<Vec<Listing>>)>;

    /// A demand's candidate tables, read off its stored (not yet drained)
    /// candidate sessions.
    fn candidate_tables(exchange: &Exchange, did: DemandId) -> Tables {
        let mut core = lock(&exchange.state);
        let candidates = core.book.candidates(did);
        candidates
            .into_iter()
            .map(|(seller, sid)| {
                let session = core
                    .store
                    .check_out(sid)
                    .expect("undrained candidates are ready");
                let table = session.listings().clone();
                core.store.check_in(sid, session);
                (seller, table)
            })
            .collect()
    }

    /// Checks every demand's tables against its sellers' catalogs, and
    /// that demands with one wanted mask share each seller's table.
    fn check_tables(case: usize, catalogs: &[Vec<u64>], demands: &[(u64, Tables)]) {
        for (wanted, tables) in demands {
            let overlapping: Vec<SellerId> = (0..catalogs.len())
                .filter(|&s| catalogs[s].iter().any(|&b| b & wanted != 0))
                .map(SellerId)
                .collect();
            let sellers: Vec<SellerId> = tables.iter().map(|&(s, _)| s).collect();
            assert_eq!(sellers, overlapping, "case {case}, wanted {wanted:#b}");
            for (seller, table) in tables {
                let bundles: Vec<u64> = table.iter().map(|l| l.bundle.0).collect();
                let expected: Vec<u64> = catalogs[seller.0]
                    .iter()
                    .copied()
                    .filter(|&b| b & wanted != 0)
                    .collect();
                assert_eq!(
                    bundles, expected,
                    "case {case}, {seller}, wanted {wanted:#b}"
                );
            }
        }
        for (i, (wanted, tables)) in demands.iter().enumerate() {
            for (other, other_tables) in &demands[..i] {
                if other != wanted {
                    continue;
                }
                for ((seller, table), (_, other_table)) in tables.iter().zip(other_tables) {
                    assert!(
                        Arc::ptr_eq(table, other_table),
                        "case {case}: {seller} built a second table for {wanted:#b}"
                    );
                }
            }
        }
    }

    /// Over random catalogs and wanted masks, every candidate negotiates
    /// over its seller's listings filtered by overlap, in listing order;
    /// demands with the same wanted mask share each seller's table; and
    /// recovery rebuilds the same tables, shared the same way.
    #[test]
    fn candidate_tables_are_shared_per_seller_and_wanted_mask() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for case in 0..32 {
            let catalogs: Vec<Vec<u64>> = (0..3)
                .map(|_| {
                    let mut bundles: Vec<u64> = Vec::new();
                    while bundles.len() < rng.random_range(1..=5usize) {
                        let b = rng.random_range(1u64..64);
                        if !bundles.contains(&b) {
                            bundles.push(b);
                        }
                    }
                    bundles
                })
                .collect();
            let masks: Vec<u64> = (0..3).map(|_| rng.random_range(1u64..64)).collect();
            // Every mask twice, interleaved: the repeats must reuse tables.
            let wanted: Vec<u64> = masks.iter().chain(&masks).copied().collect();

            let (journal, sink) = Journal::in_memory();
            let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
            for (i, bundles) in catalogs.iter().enumerate() {
                exchange
                    .register_seller(masked_seller(&format!("s{i}"), bundles))
                    .unwrap();
            }
            let mut submitted: Vec<(u64, u64, DemandId)> = Vec::new();
            for (seed, &w) in wanted.iter().enumerate() {
                match exchange.submit_demand(wanting(w, seed as u64)) {
                    Ok(did) => submitted.push((w, seed as u64, did)),
                    Err(_) => assert!(
                        catalogs.iter().flatten().all(|&b| b & w == 0),
                        "case {case}: a demand some seller overlaps was rejected"
                    ),
                }
            }
            let tables = |exchange: &Exchange| -> Vec<_> {
                submitted
                    .iter()
                    .map(|&(w, _, did)| (w, candidate_tables(exchange, did)))
                    .collect()
            };
            let live = tables(&exchange);
            check_tables(case, &catalogs, &live);

            let replayed: std::collections::HashMap<u64, (u64, u64)> = submitted
                .iter()
                .map(|&(w, seed, did)| (did.0, (w, seed)))
                .collect();
            let spec = ReplaySpec {
                sellers: catalogs
                    .iter()
                    .enumerate()
                    .map(|(i, bundles)| masked_seller(&format!("s{i}"), bundles))
                    .collect(),
                demands: Box::new(move |did| {
                    let (w, seed) = replayed[&did.0];
                    wanting(w, seed)
                }),
                ..ReplaySpec::default()
            };
            let (recovered, _) =
                Exchange::recover(ExchangeConfig::default(), &sink.bytes(), spec, None).unwrap();
            let rebuilt = tables(&recovered);
            check_tables(case, &catalogs, &rebuilt);
            for ((_, a), (_, b)) in live.iter().zip(&rebuilt) {
                let a: Vec<_> = a.iter().map(|(s, t)| (*s, t.as_slice())).collect();
                let b: Vec<_> = b.iter().map(|(s, t)| (*s, t.as_slice())).collect();
                assert_eq!(a, b, "case {case}: recovery built different tables");
            }
        }
    }

    /// A settled demand's status shares its report; taking the demand
    /// while such a status is still held copies the report, equal to it.
    #[test]
    fn take_demand_copies_a_report_a_status_still_holds() {
        let exchange = Exchange::new(ExchangeConfig::default());
        exchange
            .register_seller(masked_seller("low", &[0b01, 0b10]))
            .unwrap();
        exchange
            .register_seller(masked_seller("high", &[0b10, 0b11]))
            .unwrap();
        let did = exchange.submit_demand(wanting(0b11, 5)).unwrap();
        exchange.drain(1);
        let Some(DemandStatus::Settled(held)) = exchange.demand_status(did) else {
            panic!("the demand settles within one drain");
        };
        let Some(DemandStatus::Settled(again)) = exchange.demand_status(did) else {
            panic!("a settled demand stays settled until taken");
        };
        assert!(Arc::ptr_eq(&held, &again), "a status read copies nothing");
        drop(again);
        let taken = exchange
            .take_demand(did)
            .expect("settled demands can be taken");
        assert_eq!(taken, *held, "the clone fallback returns the same report");
        assert_eq!(taken.quotes.len(), 2);
        assert!(
            exchange.demand_status(did).is_none(),
            "taken demands are gone"
        );
    }

    /// A cancelled waiter is never driven: a
    /// losing candidate can wait on a course claim when its demand
    /// settles, so the settlement's `Cancel` and the course's
    /// wake-on-insert both reach it. In either order, the wake must never
    /// drive the cancelled session — the woken dispatch finds a terminal
    /// slot and drops as spurious.
    #[test]
    fn waitlist_wake_never_drives_a_cancelled_session() {
        let cancel_side = |exchange: &Exchange, sid: SessionId| {
            // Exactly what `SettleAction::Cancel` does in `report_quote`.
            let mut core = lock(&exchange.state);
            let mut session = core
                .store
                .check_out(sid)
                .expect("parked losers are checked in");
            let result = session.cancel();
            core.store.finish(sid, result);
        };
        let wake_side = |exchange: &Exchange, bundle: BundleMask| {
            // Exactly what the router does after applying the outstanding
            // course this waiter parked on.
            let mut core = lock(&exchange.state);
            let woken = core.cache.complete(7, bundle, 0.05);
            exchange.wake_course_waiters(&mut core, woken);
        };
        let run_schedule = |cancel_first: bool| {
            let exchange = Exchange::new(ExchangeConfig::default());
            let (market, gains) = market_fixture(&exchange);
            let calls = Arc::new(AtomicU64::new(0));
            let sid = exchange
                .submit(market, counted_order(&gains, &calls))
                .unwrap();
            // Park the session on a real claim as a Busy waiter would:
            // another session holds the claim on the key, and the serve
            // that answers Busy registers `sid` on it (the session stays
            // checked in — `submit` left it Ready).
            let bundle = BundleMask::singleton(0);
            {
                let mut core = lock(&exchange.state);
                assert_eq!(
                    core.cache.serve_softly(7, bundle, SessionId(99)),
                    SoftServe::Claimed
                );
                assert_eq!(core.cache.serve_softly(7, bundle, sid), SoftServe::Busy);
                // Drop the submit-time pending entry: the session's only
                // route back to the router is the claim's wake under test.
                core.pending.clear();
            }

            if cancel_first {
                cancel_side(&exchange, sid);
                wake_side(&exchange, bundle);
            } else {
                wake_side(&exchange, bundle);
                cancel_side(&exchange, sid);
            }
            let schedule = if cancel_first {
                "cancel-then-wake"
            } else {
                "wake-then-cancel"
            };

            let woken: Vec<SessionId> = lock(&exchange.state).pending.drain(..).collect();
            assert_eq!(woken, vec![sid], "schedule {schedule}: exactly one wake");
            // Dispatching the woken id must be a spurious no-op: the
            // session is terminal (cancelled), never driven.
            let end = exchange.run_slice(&mut lock(&exchange.state), sid, None);
            let SliceEnd::Notice(notice) = end else {
                panic!("schedule {schedule}: a cancelled session needs no course");
            };
            assert!(
                matches!(notice.kind, NoticeKind::Parked),
                "schedule {schedule}: woken dispatch of a cancelled session must drop"
            );
            assert_eq!(notice.cancelled, 0);
            assert_eq!(
                calls.load(Ordering::SeqCst),
                0,
                "schedule {schedule}: a cancelled session's strategies never run"
            );
            match exchange.poll(sid) {
                Some(SessionStatus::Failed(_)) => panic!("cancel is orderly, not an error"),
                Some(SessionStatus::Done(outcome)) => assert_eq!(
                    outcome.status,
                    vfl_market::OutcomeStatus::Failed {
                        reason: vfl_market::FailureReason::Cancelled
                    },
                    "schedule {schedule}"
                ),
                other => panic!("schedule {schedule}: unexpected status {other:?}"),
            }
            assert_eq!(
                lock(&exchange.state).cache.waiting(),
                0,
                "schedule {schedule}"
            );
        };
        run_schedule(true);
        run_schedule(false);
    }
}
