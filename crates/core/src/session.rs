//! The resumable negotiation state machine: one authoritative encoding of
//! the three-step bargaining round (§3.3) that can be *suspended* at its two
//! interaction points — waiting for the data party's offer (Step 2) and
//! waiting for the realized ΔG of a VFL course (Step 3) — and resumed by
//! feeding the matching [`SessionEvent`].
//!
//! [`crate::engine::run_bargaining`] and
//! [`crate::distributed::run_bargaining_distributed`] are thin drivers over
//! this machine (one in-process, one over wire channels), and the
//! `vfl-exchange` marketplace runtime drives thousands of these sessions
//! interleaved, parking each one while its course result is pending.
//!
//! ## Termination-case map (§3.4.2 / §3.5.2)
//!
//! | transition | paper case |
//! |---|---|
//! | `Offer(Withdraw)` → `Finished(Failed: NoAffordableBundle)` | Case 1 / I |
//! | `Gain` with a final offer outside exploration → `Finished(Success: DataParty)` | Case 2 / II |
//! | `Offer(Offer{..})` → `AwaitGain` (course runs) | Case 3 / III |
//! | `Gain` → task decides `Fail` (gain below break-even) → `Finished(Failed: GainBelowBreakEven)` | Case 4 / IV |
//! | `Gain` → task decides `Accept` → `Finished(Success: TaskParty)` | Case 5 / V (and the Eq. 6/7 cost rules) |
//! | `Gain` → task decides `Requote` → `AwaitOffer` of the next round | Case 6 / VI |
//! | rounds `1..=explore_rounds` (`exploring` flag): closure suppressed | Case VII |
//! | `Cancel` from any live phase → `Finished(Failed: Cancelled)` | — (driver/marketplace event) |
//!
//! Exceeding `max_rounds` fails the transaction (`RoundLimit`), and a task
//! decision of `Fail` with escalation room exhausted maps to
//! `BudgetExhausted` — exactly the taxonomy of [`crate::engine::FailureReason`].
//! `Cancelled` sits outside the paper's taxonomy: it is how a mediating
//! tier closes candidates it routed away from, in an orderly way —
//! transcript settled and all. Two marketplace paths fan into it: the
//! `vfl-exchange` matching tier cancels the losing candidates of a
//! multi-seller demand at its per-demand settlement, and the clearing
//! tier cancels whole batches of losers at each epoch (every demand a
//! double auction settles — matched or not — cancels its parked
//! non-winners through this same event). Symmetrically, a winner is
//! *released*: its probe horizon lifts and the machine simply keeps
//! stepping to its Cases 1–6 conclusion — release is exchange-side
//! bookkeeping, invisible to this state machine, which is why a routed
//! winner's outcome is bit-identical to a direct 1×1 run.

use crate::config::MarketConfig;
use crate::engine::{ClosedBy, FailureReason, Outcome, OutcomeStatus, RoundRecord};
use crate::error::{MarketError, Result};
use crate::listing::Listing;
use crate::payment::task_net_profit;
use crate::price::QuotedPrice;
use crate::strategy::{
    DataContext, DataResponse, DataStrategy, TaskContext, TaskDecision, TaskStrategy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vfl_sim::protocol::{GainReportMsg, Message, OfferMsg, QuoteMsg, SettleMsg, Transcript};
use vfl_sim::BundleMask;

/// RNG salt of the in-process engine ([`crate::engine::run_bargaining`]).
pub(crate) const LOCAL_RNG_SALT: u64 = 0xba5_9a1_4e5;

/// An input that resumes a suspended session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionEvent {
    /// Begin the negotiation (valid exactly once, on a fresh session).
    Start,
    /// The data party's response to the pending quote (Step 2).
    Offer(DataResponse),
    /// The realized ΔG of the pending VFL course (Step 3).
    Gain(f64),
    /// Terminate the negotiation from any live phase with
    /// [`FailureReason::Cancelled`]. This is a *driver* event, not a paper
    /// case: a marketplace that fans one demand out to several data parties
    /// sends it to the losing candidates once a winner is picked — whether
    /// by a per-demand settlement or by a batch clearing epoch crossing
    /// many demands at once — so a cancelled session settles its
    /// transcript (an `Abort` at the current round) instead of being
    /// dropped mid-protocol.
    Cancel,
}

/// What the driver must do next.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEffect {
    /// Deliver `quote` to the data party and feed its response back as
    /// [`SessionEvent::Offer`].
    AwaitOffer {
        quote: QuotedPrice,
        round: u32,
        /// True during the exploration window (Case VII).
        exploring: bool,
    },
    /// Run the VFL course for `bundle` and feed the realized ΔG back as
    /// [`SessionEvent::Gain`]. This is the expensive step: a marketplace
    /// runtime parks the session here and lets a worker (or a shared cache)
    /// produce the gain.
    AwaitGain {
        bundle: BundleMask,
        /// Index of the offered listing.
        listing: usize,
        round: u32,
        /// True when the data party marked the offer final (Case 2 pends on
        /// this course's result).
        final_offer: bool,
    },
    /// The negotiation closed; the outcome is yielded exactly once.
    Finished(Box<Outcome>),
}

/// Where a session currently is (coarse observability for stores/dashboards;
/// the fine-grained case taxonomy lives in [`OutcomeStatus`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Constructed, [`SessionEvent::Start`] not yet applied.
    Created,
    /// Suspended on Step 2: a quote is on the table.
    AwaitingOffer,
    /// Suspended on Step 3: a course result is pending.
    AwaitingGain,
    /// Terminal: the outcome has been produced.
    Closed,
}

/// Where [`NegotiationSession::advance`] stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum Advance {
    /// Step 3 is pending: run the VFL course for this bundle and pass its
    /// realized ΔG to the next [`NegotiationSession::advance`].
    NeedGain(BundleMask),
    /// The negotiation closed; the outcome is yielded exactly once.
    Done(Box<Outcome>),
}

/// A resumable negotiation. Owns the protocol bookkeeping (round counter,
/// transcript, per-round records, the engine RNG) but *not* the strategies
/// or the listing table — those are passed into [`Self::step`] by the
/// driver, so the same machine serves borrowed in-process strategies, the
/// task side of the distributed engine, and boxed exchange sessions.
#[derive(Debug)]
pub struct NegotiationSession {
    cfg: MarketConfig,
    rng: StdRng,
    transcript: Transcript,
    rounds: Vec<RoundRecord>,
    quote: Option<QuotedPrice>,
    round: u32,
    phase: SessionPhase,
    pending: Option<PendingCourse>,
}

/// Step-2 context carried across the course suspension.
#[derive(Debug, Clone, Copy)]
struct PendingCourse {
    listing: usize,
    is_final: bool,
}

impl NegotiationSession {
    /// A session with the in-process engine's RNG stream: step-driving it
    /// is bit-identical to [`crate::engine::run_bargaining`].
    pub fn new(cfg: MarketConfig) -> Result<Self> {
        let salt = cfg.seed ^ LOCAL_RNG_SALT;
        Self::with_rng_seed(cfg, salt)
    }

    /// A session whose RNG is seeded explicitly (the distributed engine
    /// derives per-party streams; see [`crate::distributed`]).
    pub fn with_rng_seed(cfg: MarketConfig, rng_seed: u64) -> Result<Self> {
        cfg.validate()?;
        Ok(NegotiationSession {
            cfg,
            rng: StdRng::seed_from_u64(rng_seed),
            transcript: Transcript::default(),
            rounds: Vec::new(),
            quote: None,
            round: 1,
            phase: SessionPhase::Created,
            pending: None,
        })
    }

    /// The session's market configuration.
    pub fn config(&self) -> &MarketConfig {
        &self.cfg
    }

    /// Current phase.
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }

    /// Current round `T` (1-based).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Number of rounds in which a VFL course has completed so far.
    pub fn n_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Per-round records accumulated so far. The last entry is the standing
    /// quote a mediating tier compares across sellers before settlement; on
    /// closure the records are drained into the final [`Outcome`], after
    /// which this is empty.
    pub fn rounds(&self) -> &[RoundRecord] {
        &self.rounds
    }

    /// Reserves exactly the log of a session that stops after `rounds`
    /// completed rounds (at most `max_rounds`): that many round records,
    /// and three messages per round plus the next round's quote and offer
    /// and the settlement. A session that ends there never reallocates
    /// its log; one that runs on grows it as usual.
    pub fn reserve_rounds(&mut self, rounds: u32) {
        let rounds = rounds.min(self.cfg.max_rounds) as usize;
        self.rounds
            .reserve_exact(rounds.saturating_sub(self.rounds.len()));
        let messages = 3 * rounds + 3;
        self.transcript
            .reserve_exact(messages.saturating_sub(self.transcript.len()));
    }

    /// Stamps the quoting data party's identity on the transcript (see
    /// [`Transcript::set_seller`]); multi-seller marketplaces call this at
    /// fan-out so every candidate negotiation names its counterparty.
    pub fn tag_seller(&mut self, name: impl Into<String>) {
        self.transcript.set_seller(name);
    }

    /// The engine RNG. In-process drivers route the data party's draws
    /// through this so the interleaved stream matches the classic
    /// single-loop engine draw for draw.
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// True while `round` is inside the exploration window (Case VII).
    pub fn exploring(&self) -> bool {
        self.round <= self.cfg.explore_rounds
    }

    /// The in-process protocol driver: applies [`SessionEvent::Start`]
    /// (`course = None`) or the realized ΔG of the pending course
    /// (`Some((bundle, gain))`, after `data.observe_course`), answers
    /// every [`SessionEffect::AwaitOffer`] with `data.respond` drawing
    /// from this session's RNG, and stops at the next course or at the
    /// close. [`crate::engine::run_bargaining`] serves each course from a
    /// [`crate::GainProvider`]; the `vfl-exchange` runtime suspends the
    /// session there and serves the course through its shared cache.
    pub fn advance(
        &mut self,
        course: Option<(BundleMask, f64)>,
        listings: &[Listing],
        task: &mut dyn TaskStrategy,
        data: &mut dyn DataStrategy,
    ) -> Result<Advance> {
        let mut effect = match course {
            None => self.step(SessionEvent::Start, listings, task)?,
            Some((bundle, gain)) => {
                data.observe_course(bundle, gain);
                self.step(SessionEvent::Gain(gain), listings, task)?
            }
        };
        loop {
            effect = match effect {
                SessionEffect::AwaitOffer {
                    quote,
                    round,
                    exploring,
                } => {
                    // Step 2: the data party responds.
                    let dctx = DataContext::at_round(&self.cfg, round, exploring, &quote);
                    let response = data.respond(&dctx, listings, &self.cfg, &mut self.rng)?;
                    self.step(SessionEvent::Offer(response), listings, task)?
                }
                SessionEffect::AwaitGain { bundle, .. } => return Ok(Advance::NeedGain(bundle)),
                SessionEffect::Finished(outcome) => return Ok(Advance::Done(outcome)),
            };
        }
    }

    /// Applies one event and returns the next effect. Feeding an event that
    /// does not match the current phase is a protocol violation
    /// ([`MarketError::StrategyError`]); the session stays usable only along
    /// the legal path.
    pub fn step(
        &mut self,
        event: SessionEvent,
        listings: &[Listing],
        task: &mut dyn TaskStrategy,
    ) -> Result<SessionEffect> {
        match (self.phase, event) {
            (SessionPhase::Created, SessionEvent::Start) => {
                if listings.is_empty() {
                    return Err(MarketError::InvalidConfig("empty listing table".into()));
                }
                let quote = task.initial_quote(&self.cfg, &mut self.rng)?;
                Ok(self.emit_quote(quote))
            }
            (SessionPhase::AwaitingOffer, SessionEvent::Offer(response)) => {
                self.on_offer(response, listings)
            }
            (SessionPhase::AwaitingGain, SessionEvent::Gain(gain)) => {
                self.on_gain(gain, listings, task)
            }
            (phase, SessionEvent::Cancel) if phase != SessionPhase::Closed => Ok(self.finish(
                OutcomeStatus::Failed {
                    reason: FailureReason::Cancelled,
                },
                self.round,
            )),
            (phase, event) => Err(MarketError::StrategyError(format!(
                "session protocol violation: event {event:?} in phase {phase:?}"
            ))),
        }
    }

    /// Step 1 (announcement half): puts `quote` on the wire and suspends for
    /// the data party's response.
    fn emit_quote(&mut self, quote: QuotedPrice) -> SessionEffect {
        self.transcript.push(Message::Quote(QuoteMsg {
            rate: quote.rate,
            base: quote.base,
            cap: quote.cap,
            round: self.round,
        }));
        self.quote = Some(quote);
        self.phase = SessionPhase::AwaitingOffer;
        SessionEffect::AwaitOffer {
            quote,
            round: self.round,
            exploring: self.exploring(),
        }
    }

    /// Step 2: the data party responded (withdraw = Case 1, offer = Case 3).
    fn on_offer(&mut self, response: DataResponse, listings: &[Listing]) -> Result<SessionEffect> {
        match response {
            DataResponse::Withdraw => {
                self.transcript
                    .push(Message::Offer(OfferMsg::Withdraw { round: self.round }));
                Ok(self.finish(
                    OutcomeStatus::Failed {
                        reason: FailureReason::NoAffordableBundle,
                    },
                    self.round,
                ))
            }
            DataResponse::Offer { listing, is_final } => {
                if listing >= listings.len() {
                    return Err(MarketError::StrategyError(format!(
                        "offered listing {listing} out of range ({} listings)",
                        listings.len()
                    )));
                }
                let bundle = listings[listing].bundle;
                self.transcript.push(Message::Offer(OfferMsg::Bundle {
                    bundle,
                    is_final,
                    round: self.round,
                }));
                self.pending = Some(PendingCourse { listing, is_final });
                self.phase = SessionPhase::AwaitingGain;
                Ok(SessionEffect::AwaitGain {
                    bundle,
                    listing,
                    round: self.round,
                    final_offer: is_final,
                })
            }
        }
    }

    /// Step 3 aftermath: record the course, then apply the termination
    /// cases (2/II, 4–6) and either close or open the next round.
    fn on_gain(
        &mut self,
        gain: f64,
        listings: &[Listing],
        task: &mut dyn TaskStrategy,
    ) -> Result<SessionEffect> {
        let PendingCourse { listing, is_final } =
            self.pending.take().expect("AwaitingGain holds a course");
        let quote = self.quote.expect("AwaitingGain holds a quote");
        let round = self.round;
        let exploring = self.exploring();
        self.transcript
            .push(Message::GainReport(GainReportMsg { gain, round }));
        self.rounds.push(RoundRecord {
            round,
            quote,
            listing,
            bundle: listings[listing].bundle,
            gain,
            payment: quote.payment(gain),
            net_profit: task_net_profit(self.cfg.utility_rate, &quote, gain),
            cost_task: self.cfg.task_cost.cost(round),
            cost_data: self.cfg.data_cost.cost(round),
            final_offer: is_final,
        });
        task.observe_course(&quote, listings[listing].bundle, gain);

        // Case 2 / II: data-party acceptance closes the deal.
        if is_final && !exploring {
            return Ok(self.finish(
                OutcomeStatus::Success {
                    by: ClosedBy::DataParty,
                },
                round,
            ));
        }

        // Step 1 of the next round: the task party decides (Cases 4–6).
        let cfg = self.cfg;
        let tctx = TaskContext::after_course(&cfg, round, exploring, &quote, gain);
        match task.decide(&tctx, &cfg, &mut self.rng)? {
            TaskDecision::Accept => Ok(self.finish(
                OutcomeStatus::Success {
                    by: ClosedBy::TaskParty,
                },
                round,
            )),
            TaskDecision::Fail => {
                // Distinguish break-even failure from budget exhaustion for
                // the analysis tables.
                let reason = if gain < quote.break_even_gain(self.cfg.utility_rate) {
                    FailureReason::GainBelowBreakEven
                } else {
                    FailureReason::BudgetExhausted
                };
                Ok(self.finish(OutcomeStatus::Failed { reason }, round))
            }
            TaskDecision::Requote(next) => {
                if next.cap > self.cfg.budget + 1e-12 {
                    return Err(MarketError::StrategyError(format!(
                        "requote cap {} exceeds budget {}",
                        next.cap, self.cfg.budget
                    )));
                }
                self.round += 1;
                if self.round > self.cfg.max_rounds {
                    return Ok(self.finish(
                        OutcomeStatus::Failed {
                            reason: FailureReason::RoundLimit,
                        },
                        self.cfg.max_rounds,
                    ));
                }
                Ok(self.emit_quote(next))
            }
        }
    }

    /// Settles the transcript and yields the outcome.
    fn finish(&mut self, status: OutcomeStatus, round: u32) -> SessionEffect {
        let msg = match status {
            OutcomeStatus::Success { .. } => {
                let amount = self.rounds.last().map(|r| r.payment).unwrap_or(0.0);
                Message::Settle(SettleMsg::Pay { amount, round })
            }
            OutcomeStatus::Failed { .. } => Message::Settle(SettleMsg::Abort { round }),
        };
        self.transcript.push(msg);
        self.phase = SessionPhase::Closed;
        SessionEffect::Finished(Box::new(Outcome {
            status,
            rounds: std::mem::take(&mut self.rounds),
            transcript: std::mem::take(&mut self.transcript),
        }))
    }
}

/// Compact, stable (de)serialization surface for durable event logs.
///
/// The `vfl-exchange` journal persists negotiation facts — terminal
/// statuses, configuration fingerprints, outcome digests — in a versioned
/// binary format that must stay decodable across releases and offline
/// (the serde shim provides no real serialization). This module is the
/// single authority for those encodings: a wire code per terminal status,
/// a fixed-field-order digest for [`MarketConfig`] folded one word per
/// field by the [`wire::Lanes`] folder (the fold, its lane layout and the
/// word sequence are part of the format — changing any of them breaks
/// old digests), a content digest for [`Outcome`] (status + round
/// records + transcript, seller stamp included) that lets a replayed
/// negotiation be checked against the journaled conclusion without
/// persisting the outcome itself, and the [`wire::Wire`] codec every
/// journal frame and checkpoint is written with.
///
/// Codes are append-only: a code, once assigned, is never reused or
/// renumbered (old journals must keep decoding).
pub mod wire {
    use super::*;
    use crate::cost::CostModel;

    /// Wire code for "the session died on a hard error" — an exchange-level
    /// terminal state that is not an [`OutcomeStatus`] (no outcome exists).
    pub const STATUS_HARD_ERROR: u16 = 0;

    /// Encodes a terminal status as a stable wire code (never 0; see
    /// [`STATUS_HARD_ERROR`]).
    pub fn status_code(status: OutcomeStatus) -> u16 {
        match status {
            OutcomeStatus::Success {
                by: ClosedBy::DataParty,
            } => 1,
            OutcomeStatus::Success {
                by: ClosedBy::TaskParty,
            } => 2,
            OutcomeStatus::Failed {
                reason: FailureReason::NoAffordableBundle,
            } => 10,
            OutcomeStatus::Failed {
                reason: FailureReason::GainBelowBreakEven,
            } => 11,
            OutcomeStatus::Failed {
                reason: FailureReason::BudgetExhausted,
            } => 12,
            OutcomeStatus::Failed {
                reason: FailureReason::RoundLimit,
            } => 13,
            OutcomeStatus::Failed {
                reason: FailureReason::Cancelled,
            } => 14,
        }
    }

    /// Decodes a wire code back into a status (`None` for unknown codes
    /// and for [`STATUS_HARD_ERROR`], which carries no outcome).
    pub fn status_from_code(code: u16) -> Option<OutcomeStatus> {
        Some(match code {
            1 => OutcomeStatus::Success {
                by: ClosedBy::DataParty,
            },
            2 => OutcomeStatus::Success {
                by: ClosedBy::TaskParty,
            },
            10 => OutcomeStatus::Failed {
                reason: FailureReason::NoAffordableBundle,
            },
            11 => OutcomeStatus::Failed {
                reason: FailureReason::GainBelowBreakEven,
            },
            12 => OutcomeStatus::Failed {
                reason: FailureReason::BudgetExhausted,
            },
            13 => OutcomeStatus::Failed {
                reason: FailureReason::RoundLimit,
            },
            14 => OutcomeStatus::Failed {
                reason: FailureReason::Cancelled,
            },
            _ => return None,
        })
    }

    /// FNV-1a 64 over a byte slice: a plain byte fingerprint (tests hash
    /// frames and rendered text with it). No journal byte uses it; the
    /// frame checksum is a [`Lanes::bytes`] fold.
    pub fn fnv64(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The state every content digest starts from (FNV-1a's offset basis).
    pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

    /// Folds one 64-bit word into a running digest state:
    /// `mix(h ^ word)`, where `mix` multiplies by an odd constant and then
    /// xors the high half into the low half. Both steps are bijections of
    /// `u64`, so for a fixed word the fold is a bijection of the state and
    /// for a fixed state a bijection of the word. Every [`Lanes`] lane
    /// and the lane join use it; changing it changes every journaled
    /// digest, which is a `VERSION` bump.
    pub const fn fold_word(h: u64, word: u64) -> u64 {
        let x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 32)
    }

    /// How many interleaved [`fold_word`] chains a [`Lanes`] fold keeps.
    /// A format constant, like the fold itself: changing it changes every
    /// digest and frame checksum, which is a journal `VERSION` bump.
    pub const LANES: usize = 4;

    /// The word folder behind every content digest and the journal's
    /// frame checksum (journal format v4).
    ///
    /// Word `i` of the sequence folds into lane `i % LANES` with
    /// [`fold_word`]; lane `k` starts from `fold_word(DIGEST_SEED, k)`.
    /// [`Lanes::finish`] joins them: from [`DIGEST_SEED`] it folds the
    /// word count, then lanes `0..LANES` in order. The lanes are
    /// independent multiply chains, so a CPU runs them side by side
    /// instead of waiting on one chain a word at a time; the lane layout
    /// is part of the format.
    ///
    /// Two word sequences of equal length that differ in one word always
    /// finish differently: that word's lane ends in a different state
    /// (each fold is a bijection of the word, then of the state), the
    /// join folds that lane as a word, and every later join step is a
    /// bijection of the state. Other differences collide with vanishing
    /// probability.
    #[derive(Clone, Copy, Debug)]
    pub struct Lanes {
        /// The lane states, rotated so that `next[0]` is the lane the
        /// next word folds into (the rotation is register renaming, not
        /// an indexed store).
        next: [u64; LANES],
        words: u64,
    }

    impl Default for Lanes {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Lanes {
        /// An empty fold.
        pub const fn new() -> Self {
            Lanes {
                next: [
                    fold_word(DIGEST_SEED, 0),
                    fold_word(DIGEST_SEED, 1),
                    fold_word(DIGEST_SEED, 2),
                    fold_word(DIGEST_SEED, 3),
                ],
                words: 0,
            }
        }

        /// Folds the next word of the sequence.
        #[inline(always)]
        pub fn word(&mut self, word: u64) {
            let [a, b, c, d] = self.next;
            self.next = [b, c, d, fold_word(a, word)];
            self.words += 1;
        }

        /// Folds an f64 as its IEEE bit pattern (one word).
        #[inline(always)]
        pub fn f64(&mut self, x: f64) {
            self.word(x.to_bits());
        }

        /// Folds a byte string: its length, then its bytes eight to a
        /// little-endian word, the last one zero-padded.
        pub fn bytes(&mut self, bytes: &[u8]) {
            let le = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("eight bytes"));
            self.word(bytes.len() as u64);
            let mut words = bytes.chunks_exact(8);
            for w in &mut words {
                self.word(le(w));
            }
            let tail = words.remainder().len();
            if tail == 0 {
                return;
            }
            // The tail as the top bytes of the string's last eight, shifted
            // down (no byte copy, which would stall the word's load), or
            // byte by byte when the whole string is shorter than a word.
            let n = bytes.len();
            self.word(if n >= 8 {
                le(&bytes[n - 8..]) >> (8 * (8 - tail))
            } else {
                bytes.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b))
            });
        }

        /// Joins the lanes into the digest.
        pub fn finish(self) -> u64 {
            // `next[j]` is lane `(words + j) % LANES`: rotate back to lane
            // order with moves (a slice rotate would call memmove).
            let [a, b, c, d] = self.next;
            let lanes = match self.words % LANES as u64 {
                0 => [a, b, c, d],
                1 => [d, a, b, c],
                2 => [c, d, a, b],
                _ => [b, c, d, a],
            };
            lanes
                .into_iter()
                .fold(fold_word(DIGEST_SEED, self.words), fold_word)
        }
    }

    fn fold_cost(d: &mut Lanes, cost: CostModel) {
        match cost {
            CostModel::None => d.word(0),
            CostModel::Linear { a } => {
                d.word(1);
                d.f64(a);
            }
            CostModel::Exponential { a } => {
                d.word(2);
                d.f64(a);
            }
            CostModel::ScaledExponential { a, k } => {
                d.word(3);
                d.f64(a);
                d.f64(k);
            }
            CostModel::Constant { c } => {
                d.word(4);
                d.f64(c);
            }
        }
    }

    /// Content fingerprint of a [`MarketConfig`] (bit patterns of every
    /// field, fixed order, one [`Lanes`] word each). A journaled
    /// submission stores this digest; at replay time the recovering
    /// spec's config must produce the same value, or recovery refuses to
    /// silently re-run a *different* negotiation under a recorded id.
    pub fn config_digest(cfg: &MarketConfig) -> u64 {
        let mut d = Lanes::new();
        d.f64(cfg.utility_rate);
        d.f64(cfg.budget);
        d.f64(cfg.eps_task);
        d.f64(cfg.eps_data);
        d.f64(cfg.eps_task_cost);
        d.f64(cfg.eps_data_cost);
        d.word(cfg.max_rounds as u64);
        d.word(cfg.explore_rounds as u64);
        d.word(cfg.quote_samples as u64);
        d.f64(cfg.escalation_step);
        d.f64(cfg.rate_cap);
        fold_cost(&mut d, cfg.task_cost);
        fold_cost(&mut d, cfg.data_cost);
        d.word(cfg.seed);
        d.word(cfg.channel_capacity as u64);
        d.finish()
    }

    /// A message's words: a kind code, then its fields.
    fn fold_message(d: &mut Lanes, msg: &Message) {
        match msg {
            Message::Quote(q) => {
                d.word(1);
                d.f64(q.rate);
                d.f64(q.base);
                d.f64(q.cap);
                d.word(q.round as u64);
            }
            Message::Offer(OfferMsg::Bundle {
                bundle,
                is_final,
                round,
            }) => {
                d.word(2);
                d.word(bundle.0);
                d.word(*is_final as u64);
                d.word(*round as u64);
            }
            Message::Offer(OfferMsg::Withdraw { round }) => {
                d.word(3);
                d.word(*round as u64);
            }
            Message::GainReport(g) => {
                d.word(4);
                d.word(g.round as u64);
                d.f64(g.gain);
            }
            Message::Settle(SettleMsg::Pay { amount, round }) => {
                d.word(5);
                d.word(*round as u64);
                d.f64(*amount);
            }
            Message::Settle(SettleMsg::Abort { round }) => {
                d.word(6);
                d.word(*round as u64);
            }
        }
    }

    /// Content digest of a full [`Outcome`], one [`Lanes`] word per
    /// field: the status code, the round count, every round record (all
    /// fields, bit patterns), every transcript message, and the seller
    /// stamp (its name as [`Lanes::bytes`], or `u64::MAX` when absent).
    /// The word sequence and the lane layout are journal format v4.
    /// Outcomes that differ in any single field always digest differently;
    /// other differences collide with vanishing probability. So a journal
    /// can assert "replay reproduced the recorded conclusion" in 8 bytes.
    pub fn outcome_digest(outcome: &Outcome) -> u64 {
        let mut d = Lanes::new();
        d.word(status_code(outcome.status) as u64);
        d.word(outcome.rounds.len() as u64);
        for r in &outcome.rounds {
            d.word(r.round as u64);
            d.f64(r.quote.rate);
            d.f64(r.quote.base);
            d.f64(r.quote.cap);
            d.word(r.listing as u64);
            d.word(r.bundle.0);
            d.f64(r.gain);
            d.f64(r.payment);
            d.f64(r.net_profit);
            d.f64(r.cost_task);
            d.f64(r.cost_data);
            d.word(r.final_offer as u64);
        }
        for msg in outcome.transcript.messages() {
            fold_message(&mut d, msg);
        }
        match outcome.transcript.seller() {
            Some(name) => d.bytes(name.as_bytes()),
            None => d.word(u64::MAX),
        }
        d.finish()
    }

    // -- the frame codec ----------------------------------------------------
    //
    // The digests above prove a replayed outcome matches a journaled one;
    // journal frames and checkpoints need the values *themselves*. Every
    // journaled type implements [`Wire`], so each layout is written once
    // and the encoder and decoder cannot drift apart. Layout rules (part
    // of the format): integers little-endian, `usize` as `u64`, `f64` as
    // its IEEE bit pattern, `bool` as one 0/1 byte, strings and `Vec`s as
    // a `u32` count then the items, `Option` as a 0/1 marker byte then the
    // value, tuples and `Box` as their contents in order.

    /// A value with a stable binary encoding: [`Wire::get`] reads back
    /// exactly what [`Wire::put`] wrote.
    pub trait Wire: Sized {
        /// Appends the encoding of `self` to `buf`.
        fn put(&self, buf: &mut Vec<u8>);
        /// Reads one value, `None` on truncation or a malformed field.
        fn get(r: &mut Reader<'_>) -> Option<Self>;
    }

    /// A cursor over encoded bytes.
    #[derive(Debug)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A reader at the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        /// The next `n` raw bytes (`None` past the end).
        pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            let end = self.pos.checked_add(n)?;
            let bytes = self.buf.get(self.pos..end)?;
            self.pos = end;
            Some(bytes)
        }

        /// Reads one value of type `T`.
        pub fn get<T: Wire>(&mut self) -> Option<T> {
            T::get(self)
        }

        /// True once every byte has been read.
        pub fn is_empty(&self) -> bool {
            self.pos == self.buf.len()
        }
    }

    /// Implements [`Wire`] for a struct from its field list, in wire order.
    #[macro_export]
    macro_rules! wire_struct {
        ($ty:ident { $($field:ident),* $(,)? }) => {
            impl $crate::session::wire::Wire for $ty {
                fn put(&self, buf: &mut Vec<u8>) {
                    $($crate::session::wire::Wire::put(&self.$field, buf);)*
                }
                fn get(r: &mut $crate::session::wire::Reader<'_>) -> Option<Self> {
                    Some($ty { $($field: r.get()?,)* })
                }
            }
        };
    }

    /// Writes a string or sequence length as its `u32` count.
    fn put_len(len: usize, buf: &mut Vec<u8>) {
        u32::try_from(len)
            .expect("wire lengths fit in a u32")
            .put(buf);
    }

    macro_rules! wire_int {
        ($($ty:ty),*) => {$(
            impl Wire for $ty {
                fn put(&self, buf: &mut Vec<u8>) {
                    buf.extend_from_slice(&self.to_le_bytes());
                }
                fn get(r: &mut Reader<'_>) -> Option<Self> {
                    let bytes = r.take(std::mem::size_of::<$ty>())?;
                    Some(<$ty>::from_le_bytes(bytes.try_into().ok()?))
                }
            }
        )*};
    }

    wire_int!(u8, u16, u32, u64);

    impl Wire for usize {
        fn put(&self, buf: &mut Vec<u8>) {
            (*self as u64).put(buf);
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            usize::try_from(r.get::<u64>()?).ok()
        }
    }

    impl Wire for f64 {
        fn put(&self, buf: &mut Vec<u8>) {
            self.to_bits().put(buf);
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            r.get().map(f64::from_bits)
        }
    }

    impl Wire for bool {
        fn put(&self, buf: &mut Vec<u8>) {
            (*self as u8).put(buf);
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            match r.get::<u8>()? {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            }
        }
    }

    impl Wire for String {
        fn put(&self, buf: &mut Vec<u8>) {
            put_len(self.len(), buf);
            buf.extend_from_slice(self.as_bytes());
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            let len = r.get::<u32>()? as usize;
            String::from_utf8(r.take(len)?.to_vec()).ok()
        }
    }

    impl<T: Wire> Wire for Option<T> {
        fn put(&self, buf: &mut Vec<u8>) {
            match self {
                None => 0u8.put(buf),
                Some(v) => {
                    1u8.put(buf);
                    v.put(buf);
                }
            }
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            match r.get::<u8>()? {
                0 => Some(None),
                1 => Some(Some(r.get()?)),
                _ => None,
            }
        }
    }

    impl<T: Wire> Wire for Vec<T> {
        fn put(&self, buf: &mut Vec<u8>) {
            put_len(self.len(), buf);
            for v in self {
                v.put(buf);
            }
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            let n = r.get::<u32>()? as usize;
            // Capacity is capped: a crafted count must not allocate ahead
            // of the bytes that back it.
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(r.get()?);
            }
            Some(items)
        }
    }

    impl<T: Wire> Wire for Box<T> {
        fn put(&self, buf: &mut Vec<u8>) {
            (**self).put(buf);
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            r.get().map(Box::new)
        }
    }

    macro_rules! wire_tuple {
        ($($ty:ident . $idx:tt),*) => {
            impl<$($ty: Wire),*> Wire for ($($ty,)*) {
                fn put(&self, buf: &mut Vec<u8>) {
                    $(self.$idx.put(buf);)*
                }
                fn get(r: &mut Reader<'_>) -> Option<Self> {
                    Some(($(r.get::<$ty>()?,)*))
                }
            }
        };
    }

    wire_tuple!(A.0, B.1);
    wire_tuple!(A.0, B.1, C.2);

    impl Wire for BundleMask {
        fn put(&self, buf: &mut Vec<u8>) {
            self.0.put(buf);
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            r.get().map(BundleMask)
        }
    }

    /// A terminal status travels as its [`status_code`].
    impl Wire for OutcomeStatus {
        fn put(&self, buf: &mut Vec<u8>) {
            status_code(*self).put(buf);
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            status_from_code(r.get()?)
        }
    }

    wire_struct! { QuotedPrice { rate, base, cap } }
    wire_struct! { RoundRecord {
        round, quote, listing, bundle, gain, payment, net_profit, cost_task, cost_data, final_offer
    } }
    wire_struct! { QuoteMsg { rate, base, cap, round } }
    wire_struct! { GainReportMsg { gain, round } }

    /// A code byte, then the variant's fields. Codes are append-only.
    impl Wire for Message {
        fn put(&self, buf: &mut Vec<u8>) {
            match self {
                Message::Quote(q) => {
                    0u8.put(buf);
                    q.put(buf);
                }
                Message::Offer(OfferMsg::Bundle {
                    bundle,
                    is_final,
                    round,
                }) => {
                    1u8.put(buf);
                    (*bundle, *is_final, *round).put(buf);
                }
                Message::Offer(OfferMsg::Withdraw { round }) => (2u8, *round).put(buf),
                Message::GainReport(g) => {
                    3u8.put(buf);
                    g.put(buf);
                }
                Message::Settle(SettleMsg::Pay { amount, round }) => {
                    (4u8, *amount, *round).put(buf)
                }
                Message::Settle(SettleMsg::Abort { round }) => (5u8, *round).put(buf),
            }
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            Some(match r.get::<u8>()? {
                0 => Message::Quote(r.get()?),
                1 => Message::Offer(OfferMsg::Bundle {
                    bundle: r.get()?,
                    is_final: r.get()?,
                    round: r.get()?,
                }),
                2 => Message::Offer(OfferMsg::Withdraw { round: r.get()? }),
                3 => Message::GainReport(r.get()?),
                4 => Message::Settle(SettleMsg::Pay {
                    amount: r.get()?,
                    round: r.get()?,
                }),
                5 => Message::Settle(SettleMsg::Abort { round: r.get()? }),
                _ => return None,
            })
        }
    }

    /// The messages, then the seller stamp. Decoding re-validates the
    /// [`Transcript::push`] invariant (rounds never decrease) rather than
    /// panicking on crafted bytes.
    impl Wire for Transcript {
        fn put(&self, buf: &mut Vec<u8>) {
            put_len(self.len(), buf);
            for msg in self.messages() {
                msg.put(buf);
            }
            self.seller().map(String::from).put(buf);
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            let n = r.get::<u32>()?;
            let mut transcript = Transcript::default();
            let mut last_round = 0u32;
            for _ in 0..n {
                let msg: Message = r.get()?;
                if msg.round() < last_round {
                    return None;
                }
                last_round = msg.round();
                transcript.push(msg);
            }
            if let Some(seller) = r.get::<Option<String>>()? {
                transcript.set_seller(seller);
            }
            Some(transcript)
        }
    }

    wire_struct! { Outcome { status, rounds, transcript } }

    /// A code byte per variant, then the message. Codes are append-only.
    impl Wire for MarketError {
        fn put(&self, buf: &mut Vec<u8>) {
            let (code, msg) = match self {
                MarketError::InvalidPrice(msg) => (0u8, msg),
                MarketError::InvalidConfig(msg) => (1, msg),
                MarketError::StrategyError(msg) => (2, msg),
                MarketError::Gain(msg) => (3, msg),
            };
            code.put(buf);
            msg.put(buf);
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            let code = r.get::<u8>()?;
            let msg = r.get()?;
            Some(match code {
                0 => MarketError::InvalidPrice(msg),
                1 => MarketError::InvalidConfig(msg),
                2 => MarketError::StrategyError(msg),
                3 => MarketError::Gain(msg),
                _ => return None,
            })
        }
    }

    /// A checkpointed terminal session: `0` + the outcome + its
    /// [`outcome_digest`], or `1` + the hard error. The decoder re-derives
    /// the digest from the bytes it just read, so a checkpoint whose
    /// outcome bytes were tampered with (under a refreshed frame checksum)
    /// still fails to decode.
    impl Wire for std::result::Result<Box<Outcome>, MarketError> {
        fn put(&self, buf: &mut Vec<u8>) {
            match self {
                Ok(outcome) => {
                    0u8.put(buf);
                    outcome.put(buf);
                    outcome_digest(outcome).put(buf);
                }
                Err(e) => {
                    1u8.put(buf);
                    e.put(buf);
                }
            }
        }
        fn get(r: &mut Reader<'_>) -> Option<Self> {
            match r.get::<u8>()? {
                0 => {
                    let outcome: Box<Outcome> = r.get()?;
                    let digest: u64 = r.get()?;
                    (digest == outcome_digest(&outcome)).then_some(Ok(outcome))
                }
                1 => Some(Err(r.get()?)),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::wire::{Reader, Wire};
    use super::*;
    use crate::engine::run_bargaining;
    use crate::gain::TableGainProvider;
    use crate::price::ReservedPrice;
    use crate::strategy::{DataContext, DataStrategy, StrategicData, StrategicTask};

    fn market() -> (TableGainProvider, Vec<Listing>, Vec<f64>) {
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
        (provider, listings, gains)
    }

    fn cfg(seed: u64) -> MarketConfig {
        MarketConfig {
            utility_rate: 1000.0,
            budget: 12.0,
            rate_cap: 20.0,
            seed,
            ..MarketConfig::default()
        }
    }

    /// Drives the machine by hand, mirroring the in-process driver.
    fn drive_manual(seed: u64) -> Outcome {
        use crate::gain::GainProvider;
        let (provider, listings, gains) = market();
        let cfg = cfg(seed);
        let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
        let mut data = StrategicData::with_gains(gains);
        let mut session = NegotiationSession::new(cfg).unwrap();
        let mut effect = session
            .step(SessionEvent::Start, &listings, &mut task)
            .unwrap();
        loop {
            effect = match effect {
                SessionEffect::AwaitOffer {
                    quote,
                    round,
                    exploring,
                } => {
                    let dctx = DataContext::at_round(&cfg, round, exploring, &quote);
                    let resp = data
                        .respond(&dctx, &listings, &cfg, session.rng_mut())
                        .unwrap();
                    session
                        .step(SessionEvent::Offer(resp), &listings, &mut task)
                        .unwrap()
                }
                SessionEffect::AwaitGain { bundle, .. } => {
                    let gain = provider.gain(bundle).unwrap();
                    data.observe_course(bundle, gain);
                    session
                        .step(SessionEvent::Gain(gain), &listings, &mut task)
                        .unwrap()
                }
                SessionEffect::Finished(outcome) => return *outcome,
            };
        }
    }

    #[test]
    fn manual_stepping_matches_run_bargaining() {
        let (provider, listings, gains) = market();
        for seed in 0..8 {
            let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
            let mut data = StrategicData::with_gains(gains.clone());
            let reference =
                run_bargaining(&provider, &listings, &mut task, &mut data, &cfg(seed)).unwrap();
            assert_eq!(drive_manual(seed), reference, "seed {seed}");
        }
    }

    #[test]
    fn phases_progress_and_close() {
        let (provider, listings, gains) = market();
        let cfg = cfg(3);
        let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
        let mut data = StrategicData::with_gains(gains);
        let mut session = NegotiationSession::new(cfg).unwrap();
        assert_eq!(session.phase(), SessionPhase::Created);
        let mut effect = session
            .step(SessionEvent::Start, &listings, &mut task)
            .unwrap();
        assert_eq!(session.phase(), SessionPhase::AwaitingOffer);
        let mut saw_gain_phase = false;
        loop {
            effect = match effect {
                SessionEffect::AwaitOffer {
                    quote,
                    round,
                    exploring,
                } => {
                    let dctx = DataContext::at_round(&cfg, round, exploring, &quote);
                    let resp = data
                        .respond(&dctx, &listings, &cfg, session.rng_mut())
                        .unwrap();
                    session
                        .step(SessionEvent::Offer(resp), &listings, &mut task)
                        .unwrap()
                }
                SessionEffect::AwaitGain { bundle, .. } => {
                    use crate::gain::GainProvider;
                    assert_eq!(session.phase(), SessionPhase::AwaitingGain);
                    saw_gain_phase = true;
                    let gain = provider.gain(bundle).unwrap();
                    session
                        .step(SessionEvent::Gain(gain), &listings, &mut task)
                        .unwrap()
                }
                SessionEffect::Finished(_) => break,
            };
        }
        assert!(saw_gain_phase);
        assert_eq!(session.phase(), SessionPhase::Closed);
    }

    #[test]
    fn out_of_order_events_are_protocol_violations() {
        let (_, listings, gains) = market();
        let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
        let _ = gains;
        let mut session = NegotiationSession::new(cfg(1)).unwrap();
        // Gain before Start.
        assert!(session
            .step(SessionEvent::Gain(0.1), &listings, &mut task)
            .is_err());
        // Start works once…
        session
            .step(SessionEvent::Start, &listings, &mut task)
            .unwrap();
        // …but not twice, and a gain is not expected yet.
        assert!(session
            .step(SessionEvent::Start, &listings, &mut task)
            .is_err());
        assert!(session
            .step(SessionEvent::Gain(0.1), &listings, &mut task)
            .is_err());
    }

    #[test]
    fn cancel_closes_any_live_phase() {
        let (provider, listings, gains) = market();
        let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
        let mut data = StrategicData::with_gains(gains);

        // Created.
        let mut fresh = NegotiationSession::new(cfg(2)).unwrap();
        let effect = fresh
            .step(SessionEvent::Cancel, &listings, &mut task)
            .unwrap();
        let SessionEffect::Finished(outcome) = effect else {
            panic!("cancel must finish the session");
        };
        assert_eq!(
            outcome.status,
            OutcomeStatus::Failed {
                reason: FailureReason::Cancelled
            }
        );
        assert!(matches!(
            outcome.transcript.settlement(),
            Some(vfl_sim::protocol::SettleMsg::Abort { .. })
        ));
        assert_eq!(fresh.phase(), SessionPhase::Closed);

        // AwaitingGain, mid-negotiation: records so far ride along.
        let mut session = NegotiationSession::new(cfg(2)).unwrap();
        let mut effect = session
            .step(SessionEvent::Start, &listings, &mut task)
            .unwrap();
        loop {
            match effect {
                SessionEffect::AwaitOffer {
                    quote,
                    round,
                    exploring,
                } => {
                    let dctx = DataContext::at_round(&cfg(2), round, exploring, &quote);
                    let resp = data
                        .respond(&dctx, &listings, &cfg(2), session.rng_mut())
                        .unwrap();
                    effect = session
                        .step(SessionEvent::Offer(resp), &listings, &mut task)
                        .unwrap();
                }
                SessionEffect::AwaitGain { bundle, .. } => {
                    if session.n_rounds() >= 1 {
                        break;
                    }
                    use crate::gain::GainProvider;
                    let gain = provider.gain(bundle).unwrap();
                    effect = session
                        .step(SessionEvent::Gain(gain), &listings, &mut task)
                        .unwrap();
                }
                SessionEffect::Finished(_) => panic!("market closes in > 1 round"),
            }
        }
        assert_eq!(session.rounds().len(), 1, "one standing round record");
        let effect = session
            .step(SessionEvent::Cancel, &listings, &mut task)
            .unwrap();
        let SessionEffect::Finished(outcome) = effect else {
            panic!("cancel must finish the session");
        };
        assert!(!outcome.is_success());
        assert_eq!(outcome.n_rounds(), 1, "completed rounds are preserved");

        // Closed sessions cannot be cancelled again.
        assert!(session
            .step(SessionEvent::Cancel, &listings, &mut task)
            .is_err());
    }

    #[test]
    fn seller_tag_lands_in_the_outcome_transcript() {
        let (_, listings, _) = market();
        let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
        let mut session = NegotiationSession::new(cfg(5)).unwrap();
        session.tag_seller("data-party-7");
        let effect = session
            .step(SessionEvent::Cancel, &listings, &mut task)
            .unwrap();
        let SessionEffect::Finished(outcome) = effect else {
            panic!("cancel must finish the session");
        };
        assert_eq!(outcome.transcript.seller(), Some("data-party-7"));
    }

    #[test]
    fn empty_listings_rejected_at_start() {
        let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
        let mut session = NegotiationSession::new(cfg(1)).unwrap();
        assert!(session.step(SessionEvent::Start, &[], &mut task).is_err());
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let bad = MarketConfig {
            budget: -1.0,
            ..MarketConfig::default()
        };
        assert!(NegotiationSession::new(bad).is_err());
    }

    #[test]
    fn wire_status_codes_roundtrip_and_reserve_zero() {
        use crate::engine::{ClosedBy, FailureReason};
        let all = [
            OutcomeStatus::Success {
                by: ClosedBy::DataParty,
            },
            OutcomeStatus::Success {
                by: ClosedBy::TaskParty,
            },
            OutcomeStatus::Failed {
                reason: FailureReason::NoAffordableBundle,
            },
            OutcomeStatus::Failed {
                reason: FailureReason::GainBelowBreakEven,
            },
            OutcomeStatus::Failed {
                reason: FailureReason::BudgetExhausted,
            },
            OutcomeStatus::Failed {
                reason: FailureReason::RoundLimit,
            },
            OutcomeStatus::Failed {
                reason: FailureReason::Cancelled,
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for status in all {
            let code = wire::status_code(status);
            assert_ne!(code, wire::STATUS_HARD_ERROR, "0 is reserved");
            assert!(seen.insert(code), "codes are unique");
            assert_eq!(wire::status_from_code(code), Some(status));
        }
        assert_eq!(wire::status_from_code(wire::STATUS_HARD_ERROR), None);
        assert_eq!(wire::status_from_code(999), None);
    }

    #[test]
    fn wire_config_digest_separates_configs() {
        let base = MarketConfig::default();
        let d0 = wire::config_digest(&base);
        assert_eq!(d0, wire::config_digest(&base), "deterministic");
        for other in [
            MarketConfig { seed: 1, ..base },
            MarketConfig {
                budget: 11.0,
                ..base
            },
            MarketConfig {
                task_cost: crate::cost::CostModel::Linear { a: 0.1 },
                ..base
            },
            MarketConfig {
                explore_rounds: 2,
                ..base
            },
        ] {
            assert_ne!(d0, wire::config_digest(&other), "{other:?}");
        }
    }

    #[test]
    fn wire_outcome_digest_tracks_content() {
        let a = drive_manual(3);
        let b = drive_manual(3);
        assert_eq!(wire::outcome_digest(&a), wire::outcome_digest(&b));
        let c = drive_manual(4);
        assert_ne!(
            wire::outcome_digest(&a),
            wire::outcome_digest(&c),
            "different negotiations digest differently"
        );
        // The seller stamp is a recorded fact and participates.
        let mut stamped = a.clone();
        stamped.transcript.set_seller("acme");
        assert_ne!(wire::outcome_digest(&a), wire::outcome_digest(&stamped));
    }

    /// One bit of any single recorded field — a round record's field, a
    /// field of any message variant, the status, a byte of the seller
    /// stamp — always moves the digest, in every [`wire::Lanes`] lane: the
    /// twelve fields of every round record (first to last) span all four
    /// lane positions, and each message and the stamp are tried behind
    /// filler that shifts them by 0, 1, 2 and 3 words.
    #[test]
    fn wire_outcome_digest_sees_every_field() {
        let base = drive_manual(3);
        assert!(base.rounds.len() >= 2, "several round records");
        let digest = wire::outcome_digest(&base);
        let flip = |x: f64| f64::from_bits(x.to_bits() ^ 1);
        // Round records: every field of every record.
        type RoundEdit = fn(&mut RoundRecord);
        let round_edits: [(&str, RoundEdit); 12] = [
            ("round", |r| r.round ^= 1),
            ("rate", |r| {
                r.quote.rate = f64::from_bits(r.quote.rate.to_bits() ^ 1)
            }),
            ("base", |r| {
                r.quote.base = f64::from_bits(r.quote.base.to_bits() ^ 1)
            }),
            ("cap", |r| {
                r.quote.cap = f64::from_bits(r.quote.cap.to_bits() ^ 1)
            }),
            ("listing", |r| r.listing ^= 1),
            ("bundle", |r| r.bundle = BundleMask(r.bundle.0 ^ 1)),
            ("gain", |r| r.gain = f64::from_bits(r.gain.to_bits() ^ 1)),
            ("payment", |r| {
                r.payment = f64::from_bits(r.payment.to_bits() ^ 1)
            }),
            ("net_profit", |r| {
                r.net_profit = f64::from_bits(r.net_profit.to_bits() ^ 1)
            }),
            ("cost_task", |r| {
                r.cost_task = f64::from_bits(r.cost_task.to_bits() ^ 1)
            }),
            ("cost_data", |r| {
                r.cost_data = f64::from_bits(r.cost_data.to_bits() ^ 1)
            }),
            ("final_offer", |r| r.final_offer = !r.final_offer),
        ];
        for i in 0..base.rounds.len() {
            for (field, edit) in round_edits {
                let mut edited = base.clone();
                edit(&mut edited.rounds[i]);
                assert_ne!(wire::outcome_digest(&edited), digest, "round {i} {field}");
            }
        }
        // Messages: one of each variant appended after the transcript, at
        // the next round, then the same message with one field flipped
        // (a flipped round stays at or after the last one).
        let last = base.transcript.messages().last().unwrap().round();
        let next = last + 1;
        // Filler of 0, 5, 2 and 3 words (an abort is two words, a gain
        // report three): every lane position modulo `LANES`.
        assert_eq!(wire::LANES, 4);
        let abort = Message::Settle(SettleMsg::Abort { round: last });
        let report = Message::GainReport(GainReportMsg {
            gain: 0.1,
            round: last,
        });
        let fillers: [&[Message]; 4] = [&[], &[abort, report], &[abort], &[report]];
        let with_tail = |filler: &[Message], msg: Option<Message>, seller: Option<&str>| {
            let mut outcome = base.clone();
            let mut transcript = Transcript::default();
            for &m in base.transcript.messages().iter().chain(filler).chain(&msg) {
                transcript.push(m);
            }
            if let Some(name) = seller {
                transcript.set_seller(name);
            }
            outcome.transcript = transcript;
            wire::outcome_digest(&outcome)
        };
        let quote = QuoteMsg {
            rate: 6.5,
            base: 0.9,
            cap: 2.85,
            round: next,
        };
        let bundle = (BundleMask(0b101), true, next);
        let (gain, amount) = (0.3, 2.7);
        let variants: Vec<(&str, Message, Vec<Message>)> = vec![
            (
                "quote",
                Message::Quote(quote),
                vec![
                    Message::Quote(QuoteMsg {
                        rate: flip(quote.rate),
                        ..quote
                    }),
                    Message::Quote(QuoteMsg {
                        base: flip(quote.base),
                        ..quote
                    }),
                    Message::Quote(QuoteMsg {
                        cap: flip(quote.cap),
                        ..quote
                    }),
                    Message::Quote(QuoteMsg {
                        round: next ^ 1,
                        ..quote
                    }),
                ],
            ),
            (
                "bundle offer",
                Message::Offer(OfferMsg::Bundle {
                    bundle: bundle.0,
                    is_final: bundle.1,
                    round: bundle.2,
                }),
                vec![
                    Message::Offer(OfferMsg::Bundle {
                        bundle: BundleMask(bundle.0 .0 ^ 1),
                        is_final: bundle.1,
                        round: bundle.2,
                    }),
                    Message::Offer(OfferMsg::Bundle {
                        bundle: bundle.0,
                        is_final: !bundle.1,
                        round: bundle.2,
                    }),
                    Message::Offer(OfferMsg::Bundle {
                        bundle: bundle.0,
                        is_final: bundle.1,
                        round: bundle.2 ^ 1,
                    }),
                ],
            ),
            (
                "withdraw",
                Message::Offer(OfferMsg::Withdraw { round: next }),
                vec![Message::Offer(OfferMsg::Withdraw { round: next ^ 1 })],
            ),
            (
                "gain report",
                Message::GainReport(GainReportMsg { gain, round: next }),
                vec![
                    Message::GainReport(GainReportMsg {
                        gain: flip(gain),
                        round: next,
                    }),
                    Message::GainReport(GainReportMsg {
                        gain,
                        round: next ^ 1,
                    }),
                ],
            ),
            (
                "pay",
                Message::Settle(SettleMsg::Pay {
                    amount,
                    round: next,
                }),
                vec![
                    Message::Settle(SettleMsg::Pay {
                        amount: flip(amount),
                        round: next,
                    }),
                    Message::Settle(SettleMsg::Pay {
                        amount,
                        round: next ^ 1,
                    }),
                ],
            ),
            (
                "abort",
                Message::Settle(SettleMsg::Abort { round: next }),
                vec![Message::Settle(SettleMsg::Abort { round: next ^ 1 })],
            ),
        ];
        for filler in fillers {
            for (variant, msg, flipped) in &variants {
                let d = with_tail(filler, Some(*msg), None);
                for (i, &other) in flipped.iter().enumerate() {
                    assert_ne!(
                        with_tail(filler, Some(other), None),
                        d,
                        "{variant} field {i} behind {} filler messages",
                        filler.len()
                    );
                }
            }
        }
        // The status: every other status digests differently.
        let statuses = [1, 2, 10, 11, 12, 13, 14].map(|c| wire::status_from_code(c).unwrap());
        for status in statuses.into_iter().filter(|&s| s != base.status) {
            let edited = Outcome {
                status,
                ..base.clone()
            };
            assert_ne!(wire::outcome_digest(&edited), digest, "{status:?}");
        }
        // The seller stamp: present vs absent, and one bit of every byte
        // of a name longer than one word, behind every filler.
        let name = "data-party-7-of-12";
        for filler in fillers {
            let stamped_digest = with_tail(filler, None, Some(name));
            assert_ne!(
                stamped_digest,
                with_tail(filler, None, None),
                "stamp present"
            );
            for i in 0..name.len() {
                let mut bytes = name.as_bytes().to_vec();
                bytes[i] ^= 1;
                let edited = String::from_utf8(bytes).unwrap();
                assert_ne!(
                    with_tail(filler, None, Some(&edited)),
                    stamped_digest,
                    "seller byte {i} behind {} filler messages",
                    filler.len()
                );
            }
        }
    }

    /// The v4 digests of a fixed negotiation and of the default config.
    /// A change to the fold, the lane layout or the field order fails
    /// here: that change invalidates every journaled digest, so it needs a
    /// journal `VERSION` bump, not new pins.
    #[test]
    fn wire_digests_match_the_v4_pins() {
        assert_eq!(
            wire::outcome_digest(&drive_manual(3)),
            0x6c26_31cb_5d3e_b786
        );
        assert_eq!(
            wire::config_digest(&MarketConfig::default()),
            0x87d3_8022_045a_37f4
        );
    }

    /// [`wire::Lanes`] is the documented layout: word `i` folds into lane
    /// `i % LANES` from lane seed `fold_word(DIGEST_SEED, k)`, and the
    /// join folds the word count and then the lanes in order. Checked
    /// against that plain indexed definition at every length up to 40,
    /// and `bytes` against its length-then-zero-padded-words definition.
    #[test]
    fn wire_lanes_match_the_reference_layout() {
        use rand::RngExt;
        let reference = |words: &[u64]| {
            let mut lanes: Vec<u64> = (0..wire::LANES as u64)
                .map(|k| wire::fold_word(wire::DIGEST_SEED, k))
                .collect();
            for (i, &w) in words.iter().enumerate() {
                lanes[i % wire::LANES] = wire::fold_word(lanes[i % wire::LANES], w);
            }
            let mut h = wire::fold_word(wire::DIGEST_SEED, words.len() as u64);
            for lane in lanes {
                h = wire::fold_word(h, lane);
            }
            h
        };
        let mut rng = StdRng::seed_from_u64(4);
        for len in 0..40 {
            let words: Vec<u64> = (0..len).map(|_| rng.random()).collect();
            let mut d = wire::Lanes::new();
            words.iter().for_each(|&w| d.word(w));
            assert_eq!(d.finish(), reference(&words), "{len} words");
            let bytes: Vec<u8> = (0..len).map(|_| rng.random::<u32>() as u8).collect();
            let mut padded = bytes.clone();
            padded.resize(bytes.len().div_ceil(8) * 8, 0);
            let mut expect = vec![len as u64];
            expect.extend(
                padded
                    .chunks(8)
                    .map(|w| u64::from_le_bytes(w.try_into().unwrap())),
            );
            let mut d = wire::Lanes::new();
            d.bytes(&bytes);
            assert_eq!(d.finish(), reference(&expect), "{len} bytes");
        }
    }

    /// The fold's law: two word sequences of equal length that differ in
    /// one word never finish alike, whichever lane the word lands in. Also
    /// words swapped between lanes, and sequences that differ only in
    /// trailing zero words, digest differently.
    #[test]
    fn wire_lanes_separate_single_word_edits() {
        use rand::RngExt;
        let digest = |words: &[u64]| {
            let mut d = wire::Lanes::new();
            words.iter().for_each(|&w| d.word(w));
            d.finish()
        };
        let mut rng = StdRng::seed_from_u64(5);
        for len in 1..24 {
            let words: Vec<u64> = (0..len).map(|_| rng.random()).collect();
            let d = digest(&words);
            for i in 0..len {
                for _ in 0..8 {
                    let mut edited = words.clone();
                    edited[i] ^= rng.random::<u64>().max(1);
                    assert_ne!(digest(&edited), d, "word {i} of {len}");
                }
                if i + 1 < len && words[i] != words[i + 1] {
                    let mut swapped = words.clone();
                    swapped.swap(i, i + 1);
                    assert_ne!(digest(&swapped), d, "words {i}, {} swapped", i + 1);
                }
            }
        }
        assert_ne!(digest(&[]), digest(&[0]));
        assert_ne!(digest(&[7]), digest(&[7, 0, 0, 0, 0]));
    }

    /// `fnv64` is FNV-1a 64 (published test vectors), and `fold_word` is
    /// a bijection in the state and in the word: it can be undone for
    /// either, given the other.
    #[test]
    fn wire_fnv_primitives_agree() {
        use rand::RngExt;
        assert_eq!(wire::fnv64(b""), wire::DIGEST_SEED);
        assert_eq!(wire::fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(wire::fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        // The fold multiplies by an odd constant, then xor-shifts by half
        // the width; undo both to recover `h ^ word`.
        let k = 0x9e37_79b9_7f4a_7c15u64;
        let mut k_inv = k; // Newton's iteration doubles the correct bits
        for _ in 0..6 {
            k_inv = k_inv.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(k_inv)));
        }
        assert_eq!(k.wrapping_mul(k_inv), 1);
        let unmix = |y: u64| (y ^ (y >> 32)).wrapping_mul(k_inv);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let (h, word): (u64, u64) = (rng.random(), rng.random());
            let folded = wire::fold_word(h, word);
            assert_eq!(unmix(folded) ^ word, h, "state from (digest, word)");
            assert_eq!(unmix(folded) ^ h, word, "word from (digest, state)");
        }
    }

    /// Encodes `v`, decodes it back, and checks every byte was consumed.
    fn roundtrip<T: Wire>(v: &T) -> T {
        let mut buf = Vec::new();
        v.put(&mut buf);
        let mut r = Reader::new(&buf);
        let decoded = r.get::<T>().expect("decodes");
        assert!(r.is_empty(), "consumed exactly");
        decoded
    }

    #[test]
    fn wire_outcome_roundtrips_bit_identically() {
        for seed in 0..6 {
            let mut outcome = drive_manual(seed);
            if seed % 2 == 0 {
                outcome.transcript.set_seller("acme-data");
            }
            let decoded = roundtrip(&outcome);
            assert_eq!(decoded, outcome, "seed {seed}");
            assert_eq!(
                wire::outcome_digest(&decoded),
                wire::outcome_digest(&outcome)
            );
        }
    }

    #[test]
    fn wire_outcome_decode_rejects_malformed_bytes() {
        let outcome = drive_manual(1);
        let mut buf = Vec::new();
        outcome.put(&mut buf);
        // Every truncation is a clean None, never a panic.
        for cut in 0..buf.len() {
            assert!(Reader::new(&buf[..cut]).get::<Outcome>().is_none(), "{cut}");
        }
        // An unknown status code is rejected up front.
        let mut bad = buf.clone();
        bad[0] = 0xff;
        bad[1] = 0xff;
        assert!(Reader::new(&bad).get::<Outcome>().is_none());
    }

    #[test]
    fn wire_strings_carry_u32_lengths() {
        let long = "x".repeat(70_000);
        assert_eq!(roundtrip(&long), long);
        let mut buf = Vec::new();
        "héllo".to_string().put(&mut buf);
        assert_eq!(buf[..4], 6u32.to_le_bytes(), "byte length, not chars");
        assert_eq!(&buf[4..], "héllo".as_bytes());
        // Invalid UTF-8 is malformed, not lossy.
        let bad = [2, 0, 0, 0, 0xff, 0xfe];
        assert!(Reader::new(&bad).get::<String>().is_none());
    }

    #[test]
    fn wire_containers_roundtrip_in_their_documented_layout() {
        let v: (Option<u32>, Vec<(usize, bool)>, Box<f64>) =
            (Some(7), vec![(3, true), (9, false)], Box::new(-0.5));
        assert_eq!(roundtrip(&v), v);
        let mut buf = Vec::new();
        v.put(&mut buf);
        let mut want = vec![1, 7, 0, 0, 0, 2, 0, 0, 0];
        want.extend_from_slice(&3u64.to_le_bytes());
        want.push(1);
        want.extend_from_slice(&9u64.to_le_bytes());
        want.push(0);
        want.extend_from_slice(&(-0.5f64).to_bits().to_le_bytes());
        assert_eq!(buf, want);
        // Markers and bools outside 0/1 are malformed.
        assert!(Reader::new(&[2]).get::<Option<u8>>().is_none());
        assert!(Reader::new(&[2]).get::<bool>().is_none());
        assert_eq!(Reader::new(&[0]).get::<Option<u8>>(), Some(None));
    }

    #[test]
    fn wire_checkpointed_results_verify_their_digest() {
        let ok: std::result::Result<Box<Outcome>, MarketError> = Ok(Box::new(drive_manual(2)));
        assert_eq!(roundtrip(&ok), ok);
        let err: std::result::Result<Box<Outcome>, MarketError> =
            Err(MarketError::Gain("course failed".into()));
        assert_eq!(roundtrip(&err), err);
        // Flip one bit of a round record: the stored digest no longer
        // matches the decoded outcome.
        let mut buf = Vec::new();
        ok.put(&mut buf);
        buf[12] ^= 1;
        assert!(Reader::new(&buf)
            .get::<std::result::Result<Box<Outcome>, MarketError>>()
            .is_none());
    }
}
