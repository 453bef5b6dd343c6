//! Durable append-only event journal and crash-replay recovery.
//!
//! A trading platform that crashes mid-drain must come back without
//! re-training models it already paid for and without corrupting
//! settlements. The journal makes that possible with a deliberately small
//! trust base: every *input* to the exchange (registrations, submissions)
//! and every *expensive, non-recomputable* step (a trained ΔG course) is
//! recorded at its linearization point; everything else — quotes, round
//! records, settlement decisions, final outcomes — is deterministic given
//! those inputs, so recovery **recomputes** it instead of trusting bytes
//! on disk. A few audit events are journaled too — `QuoteRecorded`
//! (probe spend), `DemandSettled`, `EpochCleared` and `SessionConcluded`
//! (status + outcome digest) — but replay only verifies against them; it
//! never short-circuits through them. Dispatches and cache-served course
//! requests are not journaled at all: re-execution re-derives them.
//!
//! ## Record layout
//!
//! Each event is one self-delimiting frame:
//!
//! ```text
//! ┌──────┬─────────┬──────────────┬──────────────────┬─────────────────┐
//! │ 0xEJ │ version │ len: u32 LE  │ payload (len B)  │ check: u64 LE   │
//! │ 1 B  │ 1 B     │ 4 B          │ tag + fields     │ over bytes 0..  │
//! └──────┴─────────┴──────────────┴──────────────────┴─────────────────┘
//! ```
//!
//! The checksum is a word-wise fold over the magic, version, length, and
//! payload bytes: their byte count first, then the bytes as 8-byte
//! little-endian words with the tail zero-padded, folded by
//! [`vfl_market::session::wire::Lanes`] (its [`bytes`] step). One byte
//! flipped is one word changed, which the fold always detects. The
//! payload is a tag byte and the variant's fields in the order the frame
//! table ([`ExchangeEvent`]'s declaration) lists them, each encoded by
//! [`vfl_market::session::wire::Wire`]: fixed-width little-endian
//! integers, f64 as IEEE bit patterns, every id and `usize` as `u64`,
//! strings as a `u32` byte length + UTF-8, options as a 0/1 marker byte.
//! Tags and codes are never reused: tags 5, 6 and 11 are retired.
//!
//! [`bytes`]: vfl_market::session::wire::Lanes::bytes
//!
//! ## Digests and versions
//!
//! Frames carry three content digests: a submission's config digest
//! ([`vfl_market::session::wire::config_digest`]), a conclusion's outcome
//! digest ([`vfl_market::session::wire::outcome_digest`]) and a
//! registration's [`listing_table_digest`]. Each folds one 64-bit word per
//! field (an f64 as its bit pattern) through the same lane folder as the
//! checksum: word `i` goes to lane `i % LANES` (four lanes), each lane is
//! a chain of [`vfl_market::session::wire::fold_word`], `h = mix(h ^
//! word)`, where `mix` is an odd multiply and a 32-bit xor-shift, and the
//! lanes are joined at the end. Both steps are bijections, so a change to
//! any single field always changes the digest, and the four chains are
//! independent, so the CPU overlaps them instead of waiting out one
//! multiply per word.
//!
//! Version 4 is current. It has version 2's and 3's frame layout and
//! payloads; only computed words moved: the digests (v3 folded one chain,
//! v2 folded every word byte by byte through FNV-1a) and the frame
//! checksum (byte-wise FNV-1a through v3). So an older journal neither
//! passes its checksums nor verifies its digests. Readers therefore
//! refuse a journal of another version outright: [`Exchange::recover`]
//! returns [`RecoverError::InconsistentJournal`] naming both versions
//! when the first frame carries the journal magic and another version
//! byte, and `vfl-audit` reports the same message and exits non-zero.
//! Within a journal, a frame of another version ends the prefix.
//!
//! ## Truncation rule
//!
//! A journal's readable content is its **longest valid prefix**: parsing
//! stops at the first frame that is incomplete (fewer bytes than the
//! header promises — the torn tail of a crashed write), has a wrong magic
//! or version byte, or fails its checksum. The invalid tail is *dropped,
//! never misparsed* — a partial final record cannot smear into a bogus
//! event — and its byte count is reported so operators can distinguish a
//! clean shutdown (0 dropped) from a torn one.
//!
//! ## Replay safety (why recovery never re-trains a paid course)
//!
//! [`Exchange::recover`] rebuilds an exchange from a journal prefix plus a
//! [`ReplaySpec`] (the operator's durable configuration: market/seller
//! specs and strategy factories — closures cannot live in a byte log):
//!
//! 1. registrations are re-applied in journal order (ids are assigned
//!    under the state lock that journals them, so journal order *is* id
//!    order) and verified against the recorded fingerprints;
//! 2. every [`ExchangeEvent::CourseServed`] refills the shared ΔG cache —
//!    these are the paid trainings;
//! 3. every recorded submission is re-opened **from round one** under its
//!    recorded id, with its config digest checked against the spec.
//!
//! The next [`Exchange::drain`] then re-drives every session through the
//! ordinary router. Because negotiations are deterministic given
//! (config, strategies, course results) — the property the session-
//! equivalence suites pin — re-driving reproduces the pre-crash run bit
//! for bit, and every course the crashed run paid for is a cache *hit*:
//! the gain provider is invoked only for courses the journal never
//! acknowledged. Waitlist and match state need no persistence at all:
//! both exist only to coordinate in-flight work, and after recovery
//! nothing is in flight — parked sessions are simply pending again, and
//! demands re-probe (from cache) and re-settle to the same winner.
//! `crates/bench/tests/replay_equivalence.rs` proves all of this by
//! truncating real journals at every event boundary.
//!
//! ## Fault injection
//!
//! [`CrashPoint`] names the instants *inside* the dispatcher's critical
//! sections (course trained but not yet journaled, settlement decided but
//! not yet recorded, …). A hook installed with
//! [`Exchange::set_crash_hook`] observes them and typically calls
//! [`Journal::seal`] — freezing the journal exactly as a crash would —
//! while the in-memory run continues as the uncrashed reference.
//!
//! ## Checkpoints and compaction (bounded-cost recovery)
//!
//! Genesis replay re-drives *every* journaled session, so recovery cost
//! grows with journal length — fine for a day, wrong for a year. A
//! [`ExchangeEvent::Checkpoint`] frame (tag 14) bounds it: a wholesale
//! snapshot of the registrations (fingerprints only — specs still come
//! from the [`ReplaySpec`]), the paid ΔG course cache, every terminal
//! session outcome, every settled [`DemandReport`], the cleared-epoch
//! ledger, and both id counters.
//!
//! **Quiescence.** [`Exchange::checkpoint`] refuses unless the exchange
//! is drain-idle: no pending or live sessions, no unsettled demands, no
//! demands queued in the clearing window. A mid-flight negotiation's
//! strategy state is code, not data — it cannot be serialized — so
//! quiescence is what makes the snapshot complete rather than torn.
//! Phase boundaries (after [`Exchange::drain`]) are exactly such points.
//!
//! **Recovery seek.** [`Exchange::recover`] seeks to the *last*
//! checkpoint in the valid prefix, restores its state wholesale (courses
//! become cache hits, outcomes and settlements are installed verbatim,
//! registrations are re-verified against the spec exactly as replay
//! verifies registration events), and replays only the suffix. A torn
//! checkpoint — the crash landed mid-append — simply falls off the valid
//! prefix per the truncation rule, and the seek lands on the previous
//! complete checkpoint or genesis: checkpointing can never lose journaled
//! events, only fail to accelerate them.
//!
//! **Compaction.** [`Journal::compact`] rewrites a snapshot of the
//! journal into a fresh sink as `[Checkpoint, suffix…]`, dropping the
//! history the checkpoint summarizes. The old generation is never
//! modified — the rewrite holds the sink lock as a fence (a sealed
//! journal refuses compaction outright), and appends racing the rewrite
//! land in the old generation, which stays authoritative until the
//! operator switches over. Generations chain: a later checkpoint in a
//! compacted journal compacts again, and if the newest generation is
//! torn or lost the previous one still recovers everything it held.
//! The offline `vfl-audit` tool verifies any generation end to end
//! (checksums, digests, checkpoint/suffix consistency) and prints the
//! settlement ledger an operator reconciles before switching.

use std::io::Write;
use std::sync::{Arc, Mutex};
use vfl_market::session::wire::{self, Reader, Wire};
use vfl_market::wire_struct;
use vfl_sim::BundleMask;

use crate::clearing::{ClearingSpec, EpochEntry, EpochEntryKind, EpochRecord};
use crate::exchange::{Exchange, ExchangeConfig, MarketId, MarketSpec};
use crate::lock;
use crate::matching::{
    CandidateQuote, Demand, DemandId, DemandReport, QuoteState, SellerId, SellerSpec,
};
use crate::session::SessionOrder;
use crate::store::SessionId;
use crate::telemetry::{ExchangeTelemetry, Stage};
use vfl_market::{MarketError, Outcome};

const MAGIC: u8 = 0xEA;
const VERSION: u8 = 4;
const HEADER: usize = 6; // magic + version + u32 length
const TRAILER: usize = 8; // frame checksum

/// The frame checksum: a [`wire::Lanes`] fold of the frame's bytes
/// (magic through payload) as [`wire::Lanes::bytes`] folds them — the
/// length, then 8-byte little-endian words with the tail zero-padded.
fn frame_checksum(frame: &[u8]) -> u64 {
    let mut d = wire::Lanes::new();
    d.bytes(frame);
    d.finish()
}

/// Content fingerprint of a full listing table: every bundle's bits and
/// both reserved-price components, folded in table order. Registration
/// events record it so recovery rejects a spec whose table drifted in any
/// way the coarser count/catalog fingerprints cannot see (edited
/// reserves, reordered listings with the same feature union).
pub fn listing_table_digest(listings: &[vfl_market::Listing]) -> u64 {
    let mut d = wire::Lanes::new();
    for l in listings {
        d.word(l.bundle.0);
        d.f64(l.reserved.rate);
        d.f64(l.reserved.base);
    }
    d.finish()
}

/// A candidate's reported shape, as journaled in
/// [`ExchangeEvent::QuoteRecorded`] (the full quote lives in the
/// recomputed [`crate::DemandReport`], not in the journal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuoteKind {
    /// Parked at the probe horizon with a standing quote.
    Standing,
    /// Reached its own protocol conclusion before the horizon.
    Closed,
    /// Died on a hard error.
    Error,
}

/// Declares [`ExchangeEvent`] from one frame table — each variant's tag,
/// stable name and fields, in wire order — and generates its codec from
/// the same table, so no field is listed twice.
macro_rules! frames {
    (
        $(#[$meta:meta])*
        pub enum ExchangeEvent {
            $(
                $(#[$vmeta:meta])*
                $tag:literal $name:literal $variant:ident {
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty,)*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum ExchangeEvent {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $ty,)* },)*
        }

        impl ExchangeEvent {
            /// The frame's stable name, as `vfl-audit` reports it.
            pub fn name(&self) -> &'static str {
                match self {
                    $(ExchangeEvent::$variant { .. } => $name,)*
                }
            }

            /// Appends the event's payload (tag byte + fields, no frame).
            fn put_payload(&self, buf: &mut Vec<u8>) {
                match self {
                    $(ExchangeEvent::$variant { $($field),* } => {
                        ($tag as u8).put(buf);
                        $($field.put(buf);)*
                    })*
                }
            }

            /// Decodes one payload. `None` for unknown or retired tags,
            /// malformed fields, or trailing bytes (the caller treats all
            /// of them as end-of-valid-prefix).
            fn decode(payload: &[u8]) -> Option<ExchangeEvent> {
                let mut r = Reader::new(payload);
                let event = match r.get::<u8>()? {
                    $($tag => ExchangeEvent::$variant { $($field: r.get()?,)* },)*
                    _ => return None,
                };
                r.is_empty().then_some(event)
            }
        }
    };
}

frames! {
    /// One journaled fact. Registrations, submissions, and served courses are
    /// load-bearing for recovery; the rest are the audit trail (see the module
    /// doc for the replay-safety argument).
    pub enum ExchangeEvent {
        /// A market registered via [`Exchange::register_market`].
        1 "market-registered" MarketRegistered {
            /// The assigned market id (journal order is id order).
            market: MarketId,
            /// The effective cache key (private markets get the high-bit key).
            eval_key: u64,
            /// True when the registrant passed no evaluation key.
            private: bool,
            /// Listing-table size (spec fingerprint for recovery).
            listings: u32,
            /// Union of all listed bundles (spec fingerprint for recovery).
            catalog: BundleMask,
            /// [`listing_table_digest`] of the full table — bundles *and*
            /// reserved prices, in order — so a spec with edited reserves or a
            /// reordered table is rejected, not silently re-negotiated.
            table_digest: u64,
            /// The market's display name.
            name: String,
        },
        /// A data party registered via [`Exchange::register_seller`] (covers
        /// the seller's market registration too — one atomic record).
        2 "seller-registered" SellerRegistered {
            /// The assigned seller id.
            seller: SellerId,
            /// The assigned id of the seller's market.
            market: MarketId,
            /// The market's effective cache key.
            eval_key: u64,
            /// True when the seller's market has a private cache space.
            private: bool,
            /// Listing-table size (spec fingerprint for recovery).
            listings: u32,
            /// The seller's feature catalog (spec fingerprint for recovery).
            catalog: BundleMask,
            /// [`listing_table_digest`] of the seller's full listing table.
            table_digest: u64,
            /// The seller's display name.
            name: String,
        },
        /// A plain negotiation accepted by [`Exchange::submit`].
        3 "session-submitted" SessionSubmitted {
            /// The assigned session id.
            session: SessionId,
            /// The market it negotiates on.
            market: MarketId,
            /// [`wire::config_digest`] of the order's config — recovery
            /// refuses a spec whose rebuilt order disagrees.
            cfg_digest: u64,
        },
        /// A demand accepted by [`Exchange::submit_demand`], with its whole
        /// candidate fan-out (one atomic record: a prefix never sees half a
        /// demand).
        4 "demand-submitted" DemandSubmitted {
            /// The assigned demand id.
            demand: DemandId,
            /// The demand's wanted-feature mask.
            wanted: BundleMask,
            /// The probe horizon.
            probe_rounds: u32,
            /// [`wire::config_digest`] of the demand config.
            cfg_digest: u64,
            /// True when the demand settles through the clearing window
            /// ([`crate::SettleMode::Epoch`]); recovery verifies the
            /// re-supplied demand's mode against it.
            epoch_mode: bool,
            /// The fan-out: `(seller, candidate session)` in slot order.
            candidates: Vec<(SellerId, SessionId)>,
        },
        /// The clearing window opened ([`Exchange::open_clearing`]) — the
        /// window's shape; its [`crate::ClearPolicy`] is code and is
        /// re-supplied (and divergence-audited) at recovery. Load-bearing:
        /// replay re-opens the window before re-submitting epoch demands.
        12 "clearing-opened" ClearingOpened {
            /// Demands per epoch (count trigger).
            epoch_size: u32,
            /// Per-epoch matched engagements per seller.
            capacity: u32,
            /// Rolls before a contended demand expires unmatched.
            max_rolls: u32,
        },
        /// A clearing epoch ran (audit trail, like [`Self::DemandSettled`]):
        /// the full batch record — every member demand's disposition and the
        /// uniform clearing price per seller market. Replay re-derives every
        /// epoch; [`Exchange::audit_replay`] re-checks the recovered epoch
        /// history against these records.
        13 "epoch-cleared" EpochCleared {
            /// The epoch's audit record.
            record: EpochRecord,
        },
        /// A course was **trained** and its ΔG is now cached — the paid,
        /// non-recomputable step recovery must never repeat. Load-bearing.
        7 "course-served" CourseServed {
            /// The course's cache space.
            eval_key: u64,
            /// The trained bundle.
            bundle: BundleMask,
            /// The realized ΔG.
            gain: f64,
        },
        /// A matching candidate reported to its demand (audit trail).
        8 "quote-recorded" QuoteRecorded {
            /// The demand reported to.
            demand: DemandId,
            /// The candidate's slot.
            slot: u32,
            /// The report's shape.
            kind: QuoteKind,
            /// Completed rounds at report time (probe spend).
            rounds: u32,
        },
        /// A demand's settlement ran (audit trail; `winner: None` records a
        /// no-match settlement — every parked candidate was cancelled).
        9 "demand-settled" DemandSettled {
            /// The settled demand.
            demand: DemandId,
            /// Winning slot index, if the policy matched.
            winner: Option<u32>,
        },
        /// A demand refused at [`Exchange::submit_demand`] by the attached
        /// [`crate::traffic::AdmissionPolicy`] (load shedding). Load-bearing:
        /// the demand consumed an id and is terminal from birth
        /// ([`crate::DemandStatus::Shed`]), so replay re-opens it shed under
        /// its recorded id — nothing is re-negotiated, but id fencing and the
        /// audit ledger stay exact.
        15 "demand-shed" DemandShed {
            /// The refused demand's id.
            demand: DemandId,
            /// The demand's wanted-feature mask (audit trail: what load was
            /// turned away).
            wanted: BundleMask,
            /// [`wire::config_digest`] of the demand config.
            cfg_digest: u64,
            /// The dispatcher backlog depth that triggered the refusal.
            queue_depth: u32,
            /// The refusal's `Retry-After` hint, in logical time units
            /// ([`crate::traffic::AdmissionDecision::Shed`]).
            retry_after: Option<u32>,
        },
        /// A session reached a terminal state (audit trail; replay re-derives
        /// the outcome and can verify it against `digest`).
        10 "session-concluded" SessionConcluded {
            /// The terminal session.
            session: SessionId,
            /// [`wire::status_code`] of the outcome, or
            /// [`wire::STATUS_HARD_ERROR`] for a hard error.
            status: u16,
            /// Rounds in the final outcome (0 for hard errors).
            rounds: u32,
            /// [`wire::outcome_digest`] of the outcome (0 for hard errors).
            digest: u64,
        },
        /// A quiescent-point snapshot of the whole exchange (see
        /// [`Exchange::checkpoint`]): recovery seeks to the **last** checkpoint
        /// in the prefix, restores its state wholesale, and replays only the
        /// events after it — bounding recovery cost by the suffix length
        /// instead of the journal's full history. [`Journal::compact`] rewrites
        /// a journal as `[Checkpoint, suffix…]` on the strength of the same
        /// frame.
        14 "checkpoint" Checkpoint {
            /// The snapshot (boxed: checkpoint frames dwarf every other
            /// variant).
            state: Box<CheckpointState>,
        },
    }
}

/// One market's registration stamp inside a [`CheckpointState`] — the same
/// fingerprints a [`ExchangeEvent::MarketRegistered`] /
/// [`ExchangeEvent::SellerRegistered`] record carries, so recovery verifies
/// the re-supplied [`ReplaySpec`] exactly as genesis replay would.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMarket {
    /// The owning seller for seller-registered markets, `None` for plain
    /// [`Exchange::register_market`] registrations. Restore consumes the
    /// matching [`ReplaySpec`] list (markets or sellers) in market-id
    /// order, exactly like genesis replay consumes registration events.
    pub owner: Option<SellerId>,
    /// The market's evaluation key (private keys carry the high bit).
    pub eval_key: u64,
    /// True when the market was registered without a caller-supplied key.
    pub private: bool,
    /// Listing count.
    pub listings: u32,
    /// Union of every listed bundle.
    pub catalog: BundleMask,
    /// [`listing_table_digest`] of the full listing table.
    pub table_digest: u64,
    /// Display name.
    pub name: String,
}

/// Everything a drain-idle exchange needs persisted to resume without
/// replaying its history: registration stamps, the clearing window's shape
/// and cleared-epoch ledger, the paid ΔG courses, and every terminal
/// session / settled demand. Strategies, providers, and policies are code
/// and still come from the [`ReplaySpec`] at restore time.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// The session-id counter at snapshot time (restore bumps past it so
    /// post-recovery submissions never collide with checkpointed ids).
    pub next_session: u64,
    /// The demand-id counter at snapshot time.
    pub next_demand: u64,
    /// Registration stamps in market-id order.
    pub markets: Vec<CheckpointMarket>,
    /// `(epoch_size, capacity, max_rolls)` when the clearing window was
    /// open at snapshot time.
    pub clearing: Option<(u32, u32, u32)>,
    /// Every cleared epoch's batch record, in epoch order (the restored
    /// window resumes at the next epoch number).
    pub epochs: Vec<EpochRecord>,
    /// Every cached `((evaluation key, bundle), ΔG)` entry, sorted by key
    /// — the paid trainings recovery must never repeat.
    pub courses: Vec<((u64, u64), f64)>,
    /// Every terminal session in id order: its full outcome (`Ok`) or hard
    /// error (`Err`). Restored directly — zero re-driven rounds.
    pub sessions: Vec<(SessionId, Result<Box<Outcome>, MarketError>)>,
    /// Every settled demand's full report in id order, quote tables
    /// included. Restored directly — zero re-probed candidates.
    pub demands: Vec<DemandReport>,
}

/// Ids travel as `u64`.
macro_rules! wire_ids {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                self.0.put(buf);
            }
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                r.get().map($ty)
            }
        }
    )*};
}

wire_ids!(MarketId, SellerId, SessionId, DemandId);

/// A fieldless enum travels as one code byte. Codes are append-only.
macro_rules! wire_codes {
    ($ty:ident { $($variant:ident = $code:literal),* $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                let code: u8 = match self {
                    $($ty::$variant => $code,)*
                };
                code.put(buf);
            }
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                match r.get::<u8>()? {
                    $($code => Some($ty::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

wire_codes! { QuoteKind { Standing = 0, Closed = 1, Error = 2 } }
wire_codes! { EpochEntryKind { Matched = 0, Unmatched = 1, Expired = 2, Rolled = 3 } }

/// A code byte (0 standing, 1 closed, 2 error), then the variant's fields.
impl Wire for QuoteState {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            QuoteState::Standing(record) => {
                0u8.put(buf);
                record.put(buf);
            }
            QuoteState::Closed { status, last } => {
                1u8.put(buf);
                status.put(buf);
                last.put(buf);
            }
            QuoteState::Error(msg) => {
                2u8.put(buf);
                msg.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.get::<u8>()? {
            0 => QuoteState::Standing(r.get()?),
            1 => QuoteState::Closed {
                status: r.get()?,
                last: r.get()?,
            },
            2 => QuoteState::Error(r.get()?),
            _ => return None,
        })
    }
}

wire_struct! { EpochEntry { demand, kind, winner } }
wire_struct! { EpochRecord { epoch, entries, prices } }
wire_struct! { CandidateQuote { seller, seller_name, session, state, history } }
wire_struct! { DemandReport { demand, winner, quotes, epoch, clearing_price } }
wire_struct! { CheckpointMarket {
    owner, eval_key, private, listings, catalog, table_digest, name
} }
wire_struct! { CheckpointState {
    next_session, next_demand, markets, clearing, epochs, courses, sessions, demands
} }

impl ExchangeEvent {
    /// A registration event's market id and fingerprints, in the shape
    /// a checkpoint stamps them (so both replay through one path).
    pub(crate) fn registration(&self) -> Option<(MarketId, CheckpointMarket)> {
        let owner = match self {
            ExchangeEvent::SellerRegistered { seller, .. } => Some(*seller),
            _ => None,
        };
        match self {
            ExchangeEvent::MarketRegistered {
                market,
                eval_key,
                private,
                listings,
                catalog,
                table_digest,
                name,
            }
            | ExchangeEvent::SellerRegistered {
                market,
                eval_key,
                private,
                listings,
                catalog,
                table_digest,
                name,
                ..
            } => Some((
                *market,
                CheckpointMarket {
                    owner,
                    eval_key: *eval_key,
                    private: *private,
                    listings: *listings,
                    catalog: *catalog,
                    table_digest: *table_digest,
                    name: name.clone(),
                },
            )),
            _ => None,
        }
    }

    /// Encodes the event as one complete frame (header + payload +
    /// checksum), exactly as [`Journal::append`] writes it.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(64);
        self.encode_frame_into(&mut frame);
        frame
    }

    /// [`ExchangeEvent::encode_frame`] into `frame`, replacing its
    /// content (the journal reuses one buffer for every append).
    fn encode_frame_into(&self, frame: &mut Vec<u8>) {
        frame.clear();
        frame.extend_from_slice(&[MAGIC, VERSION, 0, 0, 0, 0]);
        self.put_payload(frame);
        let len = u32::try_from(frame.len() - HEADER).expect("frame payloads fit in a u32");
        frame[2..HEADER].copy_from_slice(&len.to_le_bytes());
        frame_checksum(frame).put(frame);
    }
}

/// Parses one frame at `bytes[..]`: the event and the frame's length, or
/// `None` when the prefix at this offset is torn, corrupt, or from an
/// unknown version — the caller stops there (truncation rule).
fn parse_frame(bytes: &[u8]) -> Option<(ExchangeEvent, usize)> {
    let mut r = Reader::new(bytes);
    let (magic, version, len): (u8, u8, u32) = r.get()?;
    if magic != MAGIC || version != VERSION {
        return None;
    }
    let payload = r.take(len as usize)?;
    let end = HEADER + payload.len();
    if r.get::<u64>()? != frame_checksum(&bytes[..end]) {
        return None;
    }
    Some((ExchangeEvent::decode(payload)?, end + TRAILER))
}

/// Refuses a journal written in another format version: an error naming
/// both versions when the first frame carries the journal magic and a
/// version byte other than this build's. Such a journal is not torn —
/// the truncation rule would drop all of it and recovery would build an
/// empty exchange — so [`Exchange::recover`] and `vfl-audit` stop here.
pub fn check_journal_version(bytes: &[u8]) -> Result<(), RecoverError> {
    match *bytes {
        [MAGIC, version, ..] if version != VERSION => Err(RecoverError::InconsistentJournal(
            format!("journal format version {version}; this build reads version {VERSION} only"),
        )),
        _ => Ok(()),
    }
}

/// Decodes a journal's longest valid prefix. Returns the events plus the
/// number of trailing bytes dropped by the truncation rule (0 for a clean
/// journal).
pub fn read_events(bytes: &[u8]) -> (Vec<ExchangeEvent>, usize) {
    let mut events = Vec::new();
    let mut pos = 0usize;
    while let Some((event, len)) = parse_frame(&bytes[pos..]) {
        events.push(event);
        pos += len;
    }
    (events, bytes.len() - pos)
}

/// Byte offsets of every event boundary in a journal: `offsets[i]` is the
/// end of the `i`-th frame (and the start of the next), so truncating at
/// each offset exercises every possible between-events crash. The
/// equivalence suite iterates exactly this list.
pub fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = 0usize;
    while let Some((_, len)) = parse_frame(&bytes[pos..]) {
        pos += len;
        offsets.push(pos);
    }
    offsets
}

// ---------------------------------------------------------------------------
// Journal writer
// ---------------------------------------------------------------------------

/// A shared in-memory journal sink (what [`Journal::in_memory`] writes
/// into); cloneable, snapshot anytime.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemorySink {
    /// A point-in-time copy of everything appended so far.
    pub fn bytes(&self) -> Vec<u8> {
        lock(&self.buf).clone()
    }

    /// Bytes appended so far.
    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    /// True before the first append.
    pub fn is_empty(&self) -> bool {
        lock(&self.buf).is_empty()
    }
}

impl Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.buf).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Everything a journal append touches, under the one sink mutex.
struct JournalInner {
    sink: Box<dyn Write + Send>,
    error: Option<String>,
    sealed: bool,
    /// Frames successfully appended.
    records: u64,
    /// The frame being appended, reused so an append allocates nothing.
    frame: Vec<u8>,
}

/// The append-only event journal an [`Exchange`] records into.
///
/// Appends are whole frames under one mutex — concurrent writers never
/// interleave partial records — and each append is flushed through the
/// sink before the mutex drops, so the on-disk prefix always ends at a
/// frame boundary unless the *platform* (not the exchange) tears the last
/// write; the truncation rule in the module doc handles exactly that
/// case. A journal can be [`Journal::seal`]ed to simulate (or enforce)
/// crash-stop durability: sealed journals drop every further append.
pub struct Journal {
    inner: Mutex<JournalInner>,
}

impl Journal {
    /// A journal writing frames into `sink` (a file, a socket, …).
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        Journal::with_records(sink, 0)
    }

    fn with_records(sink: Box<dyn Write + Send>, records: u64) -> Self {
        Journal {
            inner: Mutex::new(JournalInner {
                sink,
                error: None,
                sealed: false,
                records,
                frame: Vec::new(),
            }),
        }
    }

    /// An in-memory journal plus the sink its frames land in (tests,
    /// benches, and the truncate-and-resume example read it back).
    pub fn in_memory() -> (Arc<Journal>, MemorySink) {
        let sink = MemorySink::default();
        let journal = Arc::new(Journal::new(Box::new(sink.clone())));
        (journal, sink)
    }

    /// Appends one event (no-op once sealed). I/O errors do not unwind
    /// into the drain; the first one is latched and readable via
    /// [`Journal::last_error`].
    pub fn append(&self, event: &ExchangeEvent) {
        // `seal` takes the same lock, so every append either completed
        // before the seal or observes it — no frame can land "after the
        // crash".
        let inner = &mut *lock(&self.inner);
        if inner.sealed || inner.error.is_some() {
            return;
        }
        event.encode_frame_into(&mut inner.frame);
        let result = inner
            .sink
            .write_all(&inner.frame)
            .and_then(|()| inner.sink.flush());
        match result {
            Ok(()) => inner.records += 1,
            Err(e) => inner.error = Some(e.to_string()),
        }
    }

    /// Freezes the journal: every subsequent append is dropped. This is
    /// the crash-simulation primitive — after `seal` returns, the sink
    /// holds exactly what a crash at this instant would have left durable
    /// (the flag sits under the sink lock, so an append either finished
    /// before the seal or sees it).
    pub fn seal(&self) {
        lock(&self.inner).sealed = true;
    }

    /// True once [`Journal::seal`] has run.
    pub fn is_sealed(&self) -> bool {
        lock(&self.inner).sealed
    }

    /// Frames successfully appended so far.
    pub fn records(&self) -> u64 {
        lock(&self.inner).records
    }

    /// The first sink error, if any append failed.
    pub fn last_error(&self) -> Option<String> {
        lock(&self.inner).error.clone()
    }

    /// Rewrites this journal's content (`bytes`, a full snapshot of its
    /// sink) into `sink` as `[last checkpoint frame, suffix…]`, chaining a
    /// new **generation**: the returned journal starts where the old one's
    /// last [`ExchangeEvent::Checkpoint`] left off, and everything before
    /// that checkpoint — already summarized by it — is dropped.
    ///
    /// The old journal's sink lock is held across the whole rewrite, so
    /// concurrent appends and seals are fenced out and `bytes` cannot go
    /// stale mid-rewrite. The old journal itself is **never modified**:
    /// appends issued after `compact` returns land in the old generation
    /// only, so the operator swaps journals (or re-creates the exchange on
    /// the new one) before continuing. A sealed journal refuses compaction
    /// — a sealed sink is crash evidence, not a live log — and a sink
    /// failure mid-rewrite leaves a torn *new* generation while the old
    /// one stays the intact recovery source (recovery's truncation rule
    /// drops the torn tail; fall back to the previous generation's bytes).
    pub fn compact(
        &self,
        bytes: &[u8],
        sink: Box<dyn Write + Send>,
    ) -> Result<(Arc<Journal>, CompactStats), CompactError> {
        self.compact_observed(bytes, sink, None)
    }

    /// [`Journal::compact`] with a fault-injection hook: fires
    /// [`CrashPoint::CompactionRewrite`] after the checkpoint frame is
    /// flushed into the new sink but before any suffix frame — the instant
    /// whose crash tears the new generation (tests make the sink die
    /// there and prove the old generation recovers in full).
    pub fn compact_observed(
        &self,
        bytes: &[u8],
        mut sink: Box<dyn Write + Send>,
        hook: Option<&CrashHook>,
    ) -> Result<(Arc<Journal>, CompactStats), CompactError> {
        // Held across the rewrite as the fence; the count is read through
        // it (`records()` would take the lock again).
        let fence = lock(&self.inner);
        if fence.sealed {
            return Err(CompactError::Sealed);
        }
        let (events, _) = read_events(bytes);
        if events.len() as u64 != fence.records {
            return Err(CompactError::StaleSnapshot {
                snapshot: events.len(),
                journal: fence.records,
            });
        }
        let Some(at) = events
            .iter()
            .rposition(|e| matches!(e, ExchangeEvent::Checkpoint { .. }))
        else {
            return Err(CompactError::NoCheckpoint);
        };
        let io = |e: std::io::Error| CompactError::Io(e.to_string());
        sink.write_all(&events[at].encode_frame())
            .and_then(|()| sink.flush())
            .map_err(io)?;
        if let Some(hook) = hook {
            hook(&CrashPoint::CompactionRewrite);
        }
        let mut written = 1u64;
        for event in &events[at + 1..] {
            sink.write_all(&event.encode_frame())
                .and_then(|()| sink.flush())
                .map_err(io)?;
            written += 1;
        }
        let journal = Arc::new(Journal::with_records(sink, written));
        Ok((
            journal,
            CompactStats {
                events_before: events.len(),
                events_after: written as usize,
                dropped: at,
            },
        ))
    }
}

/// What one [`Journal::compact`] rewrite accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Frames in the old generation.
    pub events_before: usize,
    /// Frames written to the new generation (the checkpoint + its suffix).
    pub events_after: usize,
    /// Pre-checkpoint frames dropped — history the checkpoint summarizes.
    pub dropped: usize,
}

/// Why [`Journal::compact`] refused to rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactError {
    /// The journal is sealed: its sink is crash evidence and must stay
    /// byte-identical for recovery, so compaction refuses to touch it.
    Sealed,
    /// `bytes` does not decode to exactly the frames this journal has
    /// appended — a stale snapshot, or the bytes of some other journal.
    StaleSnapshot {
        /// Frames decoded from the supplied bytes.
        snapshot: usize,
        /// Frames this journal has appended.
        journal: u64,
    },
    /// The journal holds no [`ExchangeEvent::Checkpoint`] frame;
    /// compaction needs one to anchor the new generation (run
    /// [`Exchange::checkpoint`] first).
    NoCheckpoint,
    /// The new generation's sink failed mid-rewrite. The old journal is
    /// untouched; discard the torn new generation.
    Io(String),
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactError::Sealed => write!(f, "journal is sealed"),
            CompactError::StaleSnapshot { snapshot, journal } => write!(
                f,
                "stale snapshot: {snapshot} decoded frames vs {journal} appended"
            ),
            CompactError::NoCheckpoint => write!(f, "journal holds no checkpoint frame"),
            CompactError::Io(msg) => write!(f, "new-generation sink failed: {msg}"),
        }
    }
}

impl std::error::Error for CompactError {}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("records", &self.records())
            .field("sealed", &self.is_sealed())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Crash points
// ---------------------------------------------------------------------------

/// Instants inside the dispatcher's critical sections where a fault-
/// injection hook fires — *between* a state change and its journal record
/// (or vice versa), which is exactly where between-event truncation
/// cannot land. See [`Exchange::set_crash_hook`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPoint {
    /// A slice checked the session out, before its first step. No frame
    /// records a dispatch (re-execution re-derives it), so a crash here
    /// loses nothing the journal held.
    Dispatched(SessionId),
    /// A course finished **training**, before its
    /// [`ExchangeEvent::CourseServed`] record: a crash here loses the
    /// payment receipt, so recovery legitimately re-trains this course.
    CourseTrained {
        /// The session that paid for the training.
        session: SessionId,
        /// The course's cache space.
        eval_key: u64,
        /// The trained bundle.
        bundle: BundleMask,
    },
    /// The course's [`ExchangeEvent::CourseServed`] record landed, before
    /// waiters are woken / the session resumes.
    CourseRecorded {
        /// The session that paid for the training.
        session: SessionId,
        /// The course's cache space.
        eval_key: u64,
        /// The trained bundle.
        bundle: BundleMask,
    },
    /// Settlement decided a winner in the match book, before the
    /// [`ExchangeEvent::DemandSettled`] record.
    SettlementDecided(DemandId),
    /// The settlement record landed, before its wake/cancel side-effects
    /// are applied to the candidate sessions.
    SettlementRecorded(DemandId),
    /// A clearing epoch's batch decision is made (queue already
    /// updated), before its [`ExchangeEvent::EpochCleared`] record.
    EpochDecided(u64),
    /// The epoch record landed, before any member demand was settled —
    /// the whole batch's settlements are still pending at this instant.
    EpochRecorded(u64),
    /// A session produced its terminal outcome, before the
    /// [`ExchangeEvent::SessionConcluded`] record.
    Concluding(SessionId),
    /// [`Exchange::checkpoint`] captured its quiescent snapshot, before
    /// the [`ExchangeEvent::Checkpoint`] frame is appended — a crash here
    /// leaves the journal checkpoint-free, and recovery simply replays
    /// from genesis (or the previous checkpoint), losing nothing.
    CheckpointSnapshotted,
    /// The checkpoint frame is appended and flushed, before the caller
    /// observes success — a crash here leaves a *complete* checkpoint the
    /// operator never learned about; recovery still seeks to it.
    CheckpointRecorded,
    /// [`Journal::compact_observed`] flushed the checkpoint frame into
    /// the new generation's sink, before any suffix frame — a crash here
    /// tears the new generation while the old one stays intact.
    CompactionRewrite,
}

/// A fault-injection observer (see [`Exchange::set_crash_hook`]).
pub type CrashHook = Arc<dyn Fn(&CrashPoint) + Send + Sync>;

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// The operator's durable configuration, re-supplied at recovery time.
///
/// The journal records *facts with ids*; strategies, providers, and
/// policies are code and cannot live in a byte log. A spec re-supplies
/// them in registration/submission order, and recovery verifies every
/// recorded fingerprint (catalog, listing count, name, config digest)
/// before re-running anything — a spec that drifted from what the journal
/// recorded is rejected, not silently replayed.
pub struct ReplaySpec {
    /// Market specs for every [`ExchangeEvent::MarketRegistered`], in
    /// journal order.
    pub markets: Vec<MarketSpec>,
    /// Seller specs for every [`ExchangeEvent::SellerRegistered`], in
    /// journal order.
    pub sellers: Vec<SellerSpec>,
    /// Rebuilds the [`SessionOrder`] of a journaled plain submission
    /// (called once per [`ExchangeEvent::SessionSubmitted`], with the
    /// recorded id).
    pub orders: Box<dyn FnMut(SessionId) -> SessionOrder>,
    /// Rebuilds the [`Demand`] of a journaled demand submission (called
    /// once per [`ExchangeEvent::DemandSubmitted`], with the recorded
    /// id). The rebuilt demand's settle mode must match the journaled
    /// `epoch_mode`.
    pub demands: Box<dyn FnMut(DemandId) -> Demand>,
    /// The clearing window's spec, when the journal records a
    /// [`ExchangeEvent::ClearingOpened`]: `epoch_size`/`capacity`/
    /// `max_rolls` are verified against the record, the
    /// [`crate::ClearPolicy`] is code and is trusted here — a drifted
    /// policy is what the epoch audit in [`Exchange::audit_replay`]
    /// catches after the resumed drain.
    pub clearing: Option<ClearingSpec>,
}

impl Default for ReplaySpec {
    /// A spec with no registrations and panicking submission factories —
    /// extend it field by field; the panics only fire if the journal
    /// records a submission kind the spec never supplied.
    fn default() -> Self {
        ReplaySpec {
            markets: Vec::new(),
            sellers: Vec::new(),
            orders: Box::new(|id| {
                panic!("replay spec has no order factory (journal records session {id})")
            }),
            demands: Box::new(|id| {
                panic!("replay spec has no demand factory (journal records demand {id})")
            }),
            clearing: None,
        }
    }
}

/// A journaled conclusion: which terminal state (and outcome content) a
/// session reached before the crash, re-checkable after the resumed drain
/// via [`Exchange::audit_replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedConclusion {
    /// The concluded session.
    pub session: SessionId,
    /// [`wire::status_code`] of the recorded outcome, or
    /// [`wire::STATUS_HARD_ERROR`].
    pub status: u16,
    /// [`wire::outcome_digest`] of the recorded outcome (0 for hard
    /// errors).
    pub digest: u64,
}

/// A journaled settlement: which winner (by slot) a demand settled to
/// before the crash, re-checkable after the resumed drain via
/// [`Exchange::audit_replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedSettlement {
    /// The settled demand.
    pub demand: DemandId,
    /// The recorded winning slot (`None` = no acceptable candidate).
    pub winner: Option<u32>,
}

/// What [`Exchange::recover`] rebuilt.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayReport {
    /// Valid events decoded from the journal prefix.
    pub events: usize,
    /// Bytes dropped by the truncation rule (torn/corrupt tail).
    pub dropped_bytes: usize,
    /// Markets re-registered.
    pub markets: usize,
    /// Sellers re-registered.
    pub sellers: usize,
    /// Plain sessions re-opened (they re-run from round one on the next
    /// drain, against the warmed cache).
    pub sessions: usize,
    /// Demands re-opened (full fan-out each).
    pub demands: usize,
    /// ΔG courses refilled into the shared cache — the trainings recovery
    /// will never repeat.
    pub courses_preloaded: usize,
    /// Conclusions the prefix recorded, for [`Exchange::audit_replay`]
    /// after the resumed drain: replay re-derives every outcome, and these
    /// digests are how a *real* recovery (no in-memory reference to
    /// compare against) detects divergence instead of trusting it away.
    pub conclusions: Vec<RecordedConclusion>,
    /// Settlements the prefix recorded, audited the same way: the resumed
    /// run must re-settle every recorded demand to the recorded winner.
    pub settlements: Vec<RecordedSettlement>,
    /// Clearing epochs the prefix recorded (full batch records), audited
    /// the same way: the resumed run re-derives every epoch from scratch
    /// and [`Exchange::audit_replay`] requires each recorded epoch to
    /// reappear identically — entries, winners, and uniform prices — in
    /// the recovered [`Exchange::epoch_history`].
    pub epochs: Vec<EpochRecord>,
    /// True when the prefix recorded a [`ExchangeEvent::ClearingOpened`]
    /// (and the recovered exchange re-opened its window).
    pub clearing_opened: bool,
    /// True when recovery seeked to a [`ExchangeEvent::Checkpoint`] frame
    /// and restored its state wholesale instead of replaying the full
    /// history (the fields above then describe only the post-checkpoint
    /// suffix).
    pub checkpoint_restored: bool,
    /// Pre-checkpoint events the seek skipped — the replay work a
    /// checkpoint saves.
    pub events_skipped: usize,
    /// Terminal sessions restored directly from the checkpoint (zero
    /// re-driven rounds, zero re-trained courses).
    pub sessions_restored: usize,
    /// Settled demands restored directly from the checkpoint.
    pub demands_restored: usize,
    /// Demands the prefix recorded as refused at admission
    /// ([`ExchangeEvent::DemandShed`]), re-opened terminal under their
    /// recorded ids (no fan-out, no spec consultation).
    pub demands_shed: usize,
    /// The shed demand ids, for [`Exchange::audit_replay`]: the resumed
    /// drain must leave every one of them in
    /// [`crate::DemandStatus::Shed`].
    pub sheds: Vec<DemandId>,
}

/// Why a recovery was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The spec disagrees with a recorded fingerprint (message names the
    /// event and field).
    SpecMismatch(String),
    /// The journal's event stream is internally inconsistent (e.g. a
    /// submission against a market the prefix never registered).
    InconsistentJournal(String),
    /// [`Exchange::audit_replay`] found a resumed session whose outcome
    /// does not match the conclusion the journal recorded for it.
    Divergence(String),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::SpecMismatch(msg) => write!(f, "replay spec mismatch: {msg}"),
            RecoverError::InconsistentJournal(msg) => {
                write!(f, "inconsistent journal: {msg}")
            }
            RecoverError::Divergence(msg) => write!(f, "replay divergence: {msg}"),
        }
    }
}

impl std::error::Error for RecoverError {}

fn catalog_of(spec: &MarketSpec) -> BundleMask {
    BundleMask::union_of(spec.listings.iter().map(|l| l.bundle))
}

/// Verifies a re-supplied market spec against its recorded fingerprints.
pub(crate) fn check_market_spec(
    what: &str,
    spec: &MarketSpec,
    stamp: &CheckpointMarket,
) -> Result<(), RecoverError> {
    let &CheckpointMarket {
        private,
        eval_key,
        listings,
        catalog,
        table_digest,
        ref name,
        ..
    } = stamp;
    if spec.name != *name {
        return Err(RecoverError::SpecMismatch(format!(
            "{what}: journal records name {name:?}, spec supplies {:?}",
            spec.name
        )));
    }
    if spec.listings.len() as u32 != listings {
        return Err(RecoverError::SpecMismatch(format!(
            "{what} {name:?}: journal records {listings} listings, spec supplies {}",
            spec.listings.len()
        )));
    }
    if catalog_of(spec) != catalog {
        return Err(RecoverError::SpecMismatch(format!(
            "{what} {name:?}: journal records catalog {catalog}, spec supplies {}",
            catalog_of(spec)
        )));
    }
    if listing_table_digest(&spec.listings) != table_digest {
        return Err(RecoverError::SpecMismatch(format!(
            "{what} {name:?}: the spec's listing table differs from the journaled \
             one (bundles, reserved prices, or order drifted) — recovering it \
             would silently re-run different negotiations"
        )));
    }
    match (private, spec.evaluation_key) {
        (true, None) => Ok(()),
        (false, Some(key)) if key == eval_key => Ok(()),
        _ => Err(RecoverError::SpecMismatch(format!(
            "{what} {name:?}: journal records {} evaluation key {eval_key}, \
             spec supplies {:?}",
            if private { "private" } else { "shared" },
            spec.evaluation_key
        ))),
    }
}

impl Exchange {
    /// Rebuilds an exchange from a journal's valid prefix and the
    /// operator's [`ReplaySpec`], optionally recording into a fresh
    /// `journal` (the rebuilt prefix is re-emitted into it, compacted to
    /// the load-bearing events, so journaling continues seamlessly).
    ///
    /// On success the exchange holds every recorded registration, every
    /// recorded submission re-opened **from round one** under its
    /// recorded id, and a ΔG cache warmed with every journaled course.
    /// Call [`Exchange::drain`] to resume: sessions re-drive
    /// deterministically through the warm cache, reproducing the
    /// pre-crash run bit for bit without re-training any journaled course
    /// (the module doc has the full argument; the replay-equivalence
    /// suite proves it at every truncation boundary).
    pub fn recover(
        cfg: ExchangeConfig,
        journal_bytes: &[u8],
        spec: ReplaySpec,
        journal: Option<Arc<Journal>>,
    ) -> Result<(Exchange, ReplayReport), RecoverError> {
        Self::recover_with_telemetry(cfg, journal_bytes, spec, journal, None)
    }

    /// [`Self::recover`] with an [`ExchangeTelemetry`] attached to the
    /// rebuilt exchange. The two recovery phases are timed into the
    /// `recovery_restore` (journal parse + checkpoint restore) and
    /// `recovery_replay` (post-checkpoint event replay) stage histograms;
    /// everything else is identical — recovery itself never reads the
    /// telemetry (observe-only).
    pub fn recover_with_telemetry(
        cfg: ExchangeConfig,
        journal_bytes: &[u8],
        mut spec: ReplaySpec,
        journal: Option<Arc<Journal>>,
        telemetry: Option<Arc<ExchangeTelemetry>>,
    ) -> Result<(Exchange, ReplayReport), RecoverError> {
        check_journal_version(journal_bytes)?;
        let restore_start = telemetry.as_deref().map(|t| t.now_ns());
        let (mut events, dropped_bytes) = read_events(journal_bytes);
        let exchange = Exchange::build(cfg, journal, telemetry);
        let mut report = ReplayReport {
            events: events.len(),
            dropped_bytes,
            ..ReplayReport::default()
        };
        // Checkpoint seek: restore the LAST complete checkpoint wholesale
        // and replay only the events after it. A torn checkpoint frame
        // needs no handling here — the truncation rule already dropped it,
        // so the seek lands on the previous complete one (or nowhere, and
        // recovery replays from genesis).
        if let Some(at) = events
            .iter()
            .rposition(|e| matches!(e, ExchangeEvent::Checkpoint { .. }))
        {
            let suffix = events.split_off(at + 1);
            let Some(ExchangeEvent::Checkpoint { state }) = events.pop() else {
                unreachable!("rposition found a checkpoint at index {at}");
            };
            report.checkpoint_restored = true;
            report.events_skipped = events.len();
            report.sessions_restored = state.sessions.len();
            report.demands_restored = state.demands.len();
            report.clearing_opened = state.clearing.is_some();
            exchange.restore_checkpoint(*state, &mut spec)?;
            events = suffix;
        }
        if let (Some(t), Some(start)) = (exchange.telemetry(), restore_start) {
            let ns = t.now_ns() - start;
            lock(&exchange.state)
                .stages
                .record(Stage::RecoveryRestore, ns);
        }
        let replay_start = exchange.telemetry().map(|t| t.now_ns());
        for event in events {
            match event {
                ExchangeEvent::MarketRegistered { .. } | ExchangeEvent::SellerRegistered { .. } => {
                    let (market, stamp) = event.registration().expect("a registration event");
                    let mut core = lock(&exchange.state);
                    core.replay_registration("journal", market, &stamp, &mut spec)?;
                    exchange.record_with(&mut core, |_| event.clone());
                    match stamp.owner {
                        Some(_) => report.sellers += 1,
                        None => report.markets += 1,
                    }
                }
                ExchangeEvent::SessionSubmitted {
                    session,
                    market,
                    cfg_digest,
                } => {
                    let order = (spec.orders)(session);
                    let digest = wire::config_digest(&order.cfg);
                    if digest != cfg_digest {
                        return Err(RecoverError::SpecMismatch(format!(
                            "session {session}: journal records config digest \
                             {cfg_digest:#x}, spec's order digests to {digest:#x}"
                        )));
                    }
                    exchange
                        .replay_session(session, market, order)
                        .map_err(|e| {
                            RecoverError::InconsistentJournal(format!("session {session}: {e}"))
                        })?;
                    report.sessions += 1;
                }
                ExchangeEvent::ClearingOpened {
                    epoch_size,
                    capacity,
                    max_rolls,
                } => {
                    let mut core = lock(&exchange.state);
                    core.replay_clearing("journal", (epoch_size, capacity, max_rolls), &mut spec)?;
                    exchange.record_with(&mut core, |_| event.clone());
                    report.clearing_opened = true;
                }
                ExchangeEvent::DemandSubmitted {
                    demand,
                    wanted,
                    probe_rounds,
                    cfg_digest,
                    epoch_mode,
                    candidates,
                } => {
                    let d = (spec.demands)(demand);
                    if d.settle.is_epoch() != epoch_mode {
                        return Err(RecoverError::SpecMismatch(format!(
                            "demand {demand}: journal records {} settlement, spec \
                             supplies {:?}",
                            if epoch_mode { "epoch" } else { "immediate" },
                            d.settle
                        )));
                    }
                    if d.wanted != wanted {
                        return Err(RecoverError::SpecMismatch(format!(
                            "demand {demand}: journal records wanted {wanted}, spec \
                             supplies {}",
                            d.wanted
                        )));
                    }
                    if d.probe_rounds != probe_rounds {
                        return Err(RecoverError::SpecMismatch(format!(
                            "demand {demand}: journal records probe_rounds \
                             {probe_rounds}, spec supplies {}",
                            d.probe_rounds
                        )));
                    }
                    let digest = wire::config_digest(&d.cfg);
                    if digest != cfg_digest {
                        return Err(RecoverError::SpecMismatch(format!(
                            "demand {demand}: journal records config digest \
                             {cfg_digest:#x}, spec's demand digests to {digest:#x}"
                        )));
                    }
                    exchange
                        .replay_demand(demand, d, &candidates)
                        .map_err(|e| {
                            RecoverError::InconsistentJournal(format!("demand {demand}: {e}"))
                        })?;
                    report.demands += 1;
                }
                ExchangeEvent::CourseServed {
                    eval_key,
                    bundle,
                    gain,
                } => {
                    exchange.preload_course(eval_key, bundle, gain);
                    report.courses_preloaded += 1;
                }
                // Recorded conclusions are not replayed (the resuming
                // drain recomputes every outcome), but they are kept for
                // the post-resume divergence audit.
                ExchangeEvent::SessionConcluded {
                    session,
                    status,
                    rounds: _,
                    digest,
                } => report.conclusions.push(RecordedConclusion {
                    session,
                    status,
                    digest,
                }),
                // Recorded settlements: not replayed (the resuming drain
                // re-settles), kept for the post-resume winner audit.
                ExchangeEvent::DemandSettled { demand, winner } => report
                    .settlements
                    .push(RecordedSettlement { demand, winner }),
                // Recorded epochs: not replayed (the resuming drain
                // re-clears from scratch), kept for the post-resume
                // batch audit — entries, winners, and prices must all
                // reappear.
                ExchangeEvent::EpochCleared { record } => report.epochs.push(record),
                // A shed demand never fanned out, so the spec is not
                // consulted — the demand is re-opened terminal under its
                // recorded id (id fencing + ledger exactness) and the
                // audit re-checks it stays shed after the resumed drain.
                ExchangeEvent::DemandShed {
                    demand,
                    wanted,
                    cfg_digest,
                    queue_depth,
                    retry_after,
                } => {
                    exchange
                        .replay_shed(demand, wanted, cfg_digest, queue_depth, retry_after)
                        .map_err(|e| {
                            RecoverError::InconsistentJournal(format!("demand {demand}: {e}"))
                        })?;
                    report.demands_shed += 1;
                    report.sheds.push(demand);
                }
                // Pure audit trail: recomputed by the resuming drain (see
                // the module doc's replay-safety argument).
                ExchangeEvent::QuoteRecorded { .. } => {}
                ExchangeEvent::Checkpoint { .. } => {
                    unreachable!("the seek above consumed every checkpoint up to the last one")
                }
            }
        }
        if let (Some(t), Some(start)) = (exchange.telemetry(), replay_start) {
            let ns = t.now_ns() - start;
            let mut core = lock(&exchange.state);
            core.stages.record(Stage::RecoveryReplay, ns);
            // Recovery end: a publish point (see crate::telemetry).
            t.publish(&mut core.stages);
        }
        Ok((exchange, report))
    }

    /// Verifies, after the resumed drain, that every session the journal
    /// prefix recorded as concluded re-reached *exactly* the recorded
    /// conclusion (status wire code and outcome content digest) and that
    /// every recorded settlement re-settled to the recorded winner. This
    /// is how a real recovery — which has no in-memory reference run to
    /// compare against — detects replay divergence (a drifted spec or
    /// match policy the fingerprints could not see, a nondeterministic
    /// strategy) instead of silently trusting the recomputation — and,
    /// for clearing exchanges, that every recorded epoch re-cleared to
    /// the identical batch record. Call it
    /// between the drain and any `take`; returns the number of records
    /// verified (conclusions + settlements + epochs).
    pub fn audit_replay(&self, report: &ReplayReport) -> Result<usize, RecoverError> {
        // Epoch audit: the resumed run re-derives the epoch sequence
        // from scratch, so every epoch the prefix recorded must
        // reappear at the same epoch number with the identical batch
        // record — membership, dispositions, winners, and uniform
        // prices. A drifted ClearPolicy (which the spec fingerprints
        // cannot see) surfaces here.
        let history = self.epoch_history();
        for recorded in &report.epochs {
            let replayed = history.iter().find(|r| r.epoch == recorded.epoch);
            match replayed {
                Some(replayed) if replayed == recorded => {}
                Some(replayed) => {
                    return Err(RecoverError::Divergence(format!(
                        "epoch {}: journal records {recorded:?}, replay cleared \
                         {replayed:?}",
                        recorded.epoch
                    )));
                }
                None => {
                    return Err(RecoverError::Divergence(format!(
                        "journal records epoch {} but the resumed run never cleared \
                         it",
                        recorded.epoch
                    )));
                }
            }
        }
        for rs in &report.settlements {
            match self.demand_status(rs.demand) {
                Some(crate::matching::DemandStatus::Settled(replayed)) => {
                    let winner = replayed.winner.map(|w| w as u32);
                    if winner != rs.winner {
                        return Err(RecoverError::Divergence(format!(
                            "demand {}: journal records winner slot {:?}, replay \
                             settled to {winner:?}",
                            rs.demand, rs.winner
                        )));
                    }
                }
                Some(crate::matching::DemandStatus::Shed { .. }) => {
                    return Err(RecoverError::Divergence(format!(
                        "demand {}: journal records a settlement but replay holds \
                         it shed at admission",
                        rs.demand
                    )));
                }
                Some(
                    crate::matching::DemandStatus::Matching { .. }
                    | crate::matching::DemandStatus::Clearing { .. },
                ) => {
                    return Err(RecoverError::Divergence(format!(
                        "demand {} is still matching — audit_replay must run after \
                         the resumed drain",
                        rs.demand
                    )));
                }
                None => {
                    return Err(RecoverError::Divergence(format!(
                        "journal records a settlement for demand {} but the \
                         recovered exchange no longer holds it (audit before \
                         taking reports)",
                        rs.demand
                    )));
                }
            }
        }
        // Shed demands are terminal from birth: the resumed drain must not
        // have touched them. Anything but Shed is divergence.
        for &did in &report.sheds {
            match self.demand_status(did) {
                Some(crate::matching::DemandStatus::Shed { .. }) => {}
                other => {
                    return Err(RecoverError::Divergence(format!(
                        "demand {did}: journal records an admission refusal but \
                         replay left it {other:?}"
                    )));
                }
            }
        }
        for rc in &report.conclusions {
            let status = self.poll(rc.session).ok_or_else(|| {
                RecoverError::Divergence(format!(
                    "journal records a conclusion for session {} but the recovered \
                     exchange no longer holds it (audit before taking outcomes)",
                    rc.session
                ))
            })?;
            match status {
                crate::store::SessionStatus::Done(outcome) => {
                    let code = wire::status_code(outcome.status);
                    let digest = wire::outcome_digest(&outcome);
                    if code != rc.status || digest != rc.digest {
                        return Err(RecoverError::Divergence(format!(
                            "session {}: journal records status {} / digest {:#x}, \
                             replay produced status {code} / digest {digest:#x}",
                            rc.session, rc.status, rc.digest
                        )));
                    }
                }
                crate::store::SessionStatus::Failed(msg) => {
                    if rc.status != wire::STATUS_HARD_ERROR {
                        return Err(RecoverError::Divergence(format!(
                            "session {}: journal records status {}, replay failed \
                             hard ({msg})",
                            rc.session, rc.status
                        )));
                    }
                }
                live => {
                    return Err(RecoverError::Divergence(format!(
                        "session {} is still {live:?} — audit_replay must run after \
                         the resumed drain",
                        rc.session
                    )));
                }
            }
        }
        Ok(report.conclusions.len()
            + report.settlements.len()
            + report.epochs.len()
            + report.sheds.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfl_market::{ClosedBy, OutcomeStatus, QuotedPrice, RoundRecord};
    use vfl_sim::protocol::Transcript;

    fn sample_round(round: u32) -> RoundRecord {
        RoundRecord {
            round,
            quote: QuotedPrice {
                rate: 11.5,
                base: 2.0,
                cap: 20.0,
            },
            listing: 1,
            bundle: BundleMask(0b11),
            gain: 0.25,
            payment: 4.875,
            net_profit: 220.125,
            cost_task: 0.2,
            cost_data: 0.1,
            final_offer: round > 1,
        }
    }

    fn sample_checkpoint() -> ExchangeEvent {
        let outcome = Outcome {
            status: OutcomeStatus::Success {
                by: ClosedBy::TaskParty,
            },
            rounds: vec![sample_round(1), sample_round(2)],
            transcript: Transcript::default(),
        };
        ExchangeEvent::Checkpoint {
            state: Box::new(CheckpointState {
                next_session: 31,
                next_demand: 9,
                markets: vec![
                    CheckpointMarket {
                        owner: None,
                        eval_key: 42,
                        private: false,
                        listings: 4,
                        catalog: BundleMask(0b1111),
                        table_digest: 0xaaaa_bbbb,
                        name: "table".into(),
                    },
                    CheckpointMarket {
                        owner: Some(SellerId(0)),
                        eval_key: (1 << 63) | 1,
                        private: true,
                        listings: 3,
                        catalog: BundleMask(0b0111),
                        table_digest: 0xcccc_dddd,
                        name: "acme-data".into(),
                    },
                ],
                clearing: Some((4, 1, u32::MAX)),
                epochs: vec![EpochRecord {
                    epoch: 2,
                    entries: vec![EpochEntry {
                        demand: DemandId(5),
                        kind: EpochEntryKind::Matched,
                        winner: Some(0),
                    }],
                    prices: vec![(SellerId(0), 3.75)],
                }],
                courses: vec![((42, 0b10), 0.125), (((1 << 63) | 1, 0b111), 0.5)],
                sessions: vec![
                    (SessionId(7), Ok(Box::new(outcome))),
                    (
                        SessionId(8),
                        Err(MarketError::StrategyError("probe died".into())),
                    ),
                ],
                demands: vec![DemandReport {
                    demand: DemandId(5),
                    winner: Some(0),
                    quotes: vec![
                        CandidateQuote {
                            seller: SellerId(0),
                            seller_name: "acme-data".into(),
                            session: SessionId(12),
                            state: QuoteState::Closed {
                                status: OutcomeStatus::Success {
                                    by: ClosedBy::DataParty,
                                },
                                last: Some(sample_round(3)),
                            },
                            history: vec![sample_round(2), sample_round(3)],
                        },
                        CandidateQuote {
                            seller: SellerId(1),
                            seller_name: "globex-data".into(),
                            session: SessionId(13),
                            state: QuoteState::Standing(sample_round(2)),
                            history: vec![sample_round(2)],
                        },
                        CandidateQuote {
                            seller: SellerId(2),
                            seller_name: "initech-data".into(),
                            session: SessionId(14),
                            state: QuoteState::Error("course failure".into()),
                            history: vec![],
                        },
                    ],
                    epoch: Some(2),
                    clearing_price: Some(3.75),
                }],
            }),
        }
    }

    fn sample_events() -> Vec<ExchangeEvent> {
        vec![
            ExchangeEvent::MarketRegistered {
                market: MarketId(0),
                eval_key: 42,
                private: false,
                listings: 4,
                catalog: BundleMask(0b1111),
                table_digest: 0xaaaa_bbbb,
                name: "table".into(),
            },
            ExchangeEvent::SellerRegistered {
                seller: SellerId(0),
                market: MarketId(1),
                eval_key: (1 << 63) | 1,
                private: true,
                listings: 3,
                catalog: BundleMask(0b0111),
                table_digest: 0xcccc_dddd,
                name: "acme-data".into(),
            },
            ExchangeEvent::SessionSubmitted {
                session: SessionId(7),
                market: MarketId(0),
                cfg_digest: 0xdead_beef,
            },
            ExchangeEvent::DemandSubmitted {
                demand: DemandId(3),
                wanted: BundleMask(0b101),
                probe_rounds: 2,
                cfg_digest: 0xfeed_f00d,
                epoch_mode: false,
                candidates: vec![(SellerId(0), SessionId(8)), (SellerId(2), SessionId(9))],
            },
            ExchangeEvent::ClearingOpened {
                epoch_size: 4,
                capacity: 1,
                max_rolls: u32::MAX,
            },
            ExchangeEvent::DemandSubmitted {
                demand: DemandId(5),
                wanted: BundleMask(0b110),
                probe_rounds: 1,
                cfg_digest: 0x0dd_ba11,
                epoch_mode: true,
                candidates: vec![(SellerId(1), SessionId(12))],
            },
            ExchangeEvent::EpochCleared {
                record: EpochRecord {
                    epoch: 2,
                    entries: vec![
                        EpochEntry {
                            demand: DemandId(5),
                            kind: EpochEntryKind::Matched,
                            winner: Some(0),
                        },
                        EpochEntry {
                            demand: DemandId(6),
                            kind: EpochEntryKind::Rolled,
                            winner: None,
                        },
                        EpochEntry {
                            demand: DemandId(7),
                            kind: EpochEntryKind::Expired,
                            winner: None,
                        },
                        EpochEntry {
                            demand: DemandId(8),
                            kind: EpochEntryKind::Unmatched,
                            winner: None,
                        },
                    ],
                    prices: vec![(SellerId(1), 3.75), (SellerId(4), 0.125)],
                },
            },
            sample_checkpoint(),
            ExchangeEvent::CourseServed {
                eval_key: 42,
                bundle: BundleMask(0b10),
                gain: 0.125,
            },
            ExchangeEvent::QuoteRecorded {
                demand: DemandId(3),
                slot: 1,
                kind: QuoteKind::Standing,
                rounds: 2,
            },
            ExchangeEvent::DemandSettled {
                demand: DemandId(3),
                winner: Some(1),
            },
            ExchangeEvent::DemandSettled {
                demand: DemandId(4),
                winner: None,
            },
            ExchangeEvent::DemandShed {
                demand: DemandId(10),
                wanted: BundleMask(0b11),
                cfg_digest: 0xc0ff_ee00,
                queue_depth: 6,
                retry_after: Some(250),
            },
            ExchangeEvent::DemandShed {
                demand: DemandId(11),
                wanted: BundleMask(0b1),
                cfg_digest: 0xc0ff_ee01,
                queue_depth: 7,
                retry_after: None,
            },
            ExchangeEvent::SessionConcluded {
                session: SessionId(7),
                status: 2,
                rounds: 3,
                digest: 0x1234_5678,
            },
        ]
    }

    #[test]
    fn frames_roundtrip() {
        let events = sample_events();
        let mut bytes = Vec::new();
        for e in &events {
            bytes.extend_from_slice(&e.encode_frame());
        }
        let (decoded, dropped) = read_events(&bytes);
        assert_eq!(decoded, events);
        assert_eq!(dropped, 0);
        assert_eq!(frame_boundaries(&bytes).len(), events.len());
        assert_eq!(*frame_boundaries(&bytes).last().unwrap(), bytes.len());
    }

    /// The v4 wire pins: fnv64 of every sample frame, as a fingerprint of
    /// its bytes. A codec change that moves any byte of any tag fails
    /// here; such a change needs a `VERSION` bump, not new pins.
    #[test]
    fn sample_frames_match_pinned_fnv64() {
        const PINS: [u64; 15] = [
            0xaf804cdf948285a2,
            0xb317a165ce14c40d,
            0x3ee12f1e5cda7fb9,
            0xa820db4df2a38d3a,
            0xf5429858fb1a5bcd,
            0xe3f089d1af63af1b,
            0xcdbf33999d24fd26,
            0x11b9dd8214be5ce6,
            0x7722f1d5316c261b,
            0x929d62cb78070e76,
            0x2beac596cd5eb624,
            0x40a0e6573d8d2002,
            0xb627dc8b074d196f,
            0x2acef012799390ab,
            0x9de4dcc217ded9fa,
        ];
        let events = sample_events();
        let tags: std::collections::HashSet<u8> =
            events.iter().map(|e| e.encode_frame()[HEADER]).collect();
        assert_eq!(tags.len(), 12, "every v4 tag is sampled");
        let got: Vec<u64> = events
            .iter()
            .map(|e| wire::fnv64(&e.encode_frame()))
            .collect();
        assert_eq!(got, PINS);
    }

    /// v3 and v4 changed computed words only, not the frame layout: every
    /// v4 sample frame, set back to an older version with its one
    /// fold-computed payload field (the checkpoint's embedded outcome
    /// digest) set to that version's value and its trailer recomputed as
    /// that version did (byte-wise FNV-1a), hashes to that version's pin
    /// (the fnv64 of the frame as it wrote it). So no other header or
    /// payload byte moved.
    #[test]
    fn sample_frames_differ_from_v2_only_in_version() {
        const V2_PINS: [u64; 15] = [
            0x144f044254bddc20,
            0xee46f7e91ae136f6,
            0x865d6a8acd8c1781,
            0xa4c13ad5591f0bb7,
            0xb6912643eb677a8a,
            0xeaa073fce247015e,
            0x3594469a545c8b6d,
            0x3c2b31bcdc25c6be,
            0xe40f00f93d23f408,
            0x4ab2a0f60e5533a4,
            0x4dad6158d24fe154,
            0x8e674f5d4f3df28d,
            0xeba2534a87de4cca,
            0xfefc3bb239e0f609,
            0x932328d151957a5c,
        ];
        const V3_PINS: [u64; 15] = [
            0x99f399afc952fd10,
            0x4fd6f66964db6fe4,
            0x4e30bea0c6a85198,
            0x8b6c3007372d6a8f,
            0x4aabcf33014cc133,
            0x3aae901e5cae0024,
            0xcc32e9c672ec12ff,
            0xace1903b510a1674,
            0x49d53ab7fb4b0cbf,
            0x57c87ce3717dfbd3,
            0x77a7e517362b06c4,
            0xac1288c2f72bc615,
            0xe55fec52aa782636,
            0x7d82f1bd2a06a9e7,
            0xa041cc91350dad2e,
        ];
        /// The v2 (byte-wise FNV-1a) and v3 (one `fold_word` chain)
        /// digests of the sample checkpoint's one outcome.
        const V2_OUTCOME_DIGEST: u64 = 0xd1e0_5b43_d057_68eb;
        const V3_OUTCOME_DIGEST: u64 = 0x609c_87ea_8472_c165;
        let as_version = |version: u8, outcome_digest: u64| -> Vec<u64> {
            sample_events()
                .iter()
                .map(|e| {
                    let mut frame = e.encode_frame();
                    assert_eq!(frame[1], VERSION);
                    frame[1] = version;
                    if let ExchangeEvent::Checkpoint { state } = e {
                        let [(_, Ok(outcome)), (_, Err(_))] = &state.sessions[..] else {
                            panic!("the sample checkpoint holds one outcome");
                        };
                        let v4 = wire::outcome_digest(outcome).to_le_bytes();
                        let at: Vec<usize> = (0..frame.len() - 8)
                            .filter(|&i| frame[i..i + 8] == v4)
                            .collect();
                        assert_eq!(at.len(), 1, "the digest appears once");
                        frame[at[0]..at[0] + 8].copy_from_slice(&outcome_digest.to_le_bytes());
                    }
                    let end = frame.len() - TRAILER;
                    let sum = wire::fnv64(&frame[..end]);
                    frame[end..].copy_from_slice(&sum.to_le_bytes());
                    wire::fnv64(&frame)
                })
                .collect()
        };
        assert_eq!(as_version(2, V2_OUTCOME_DIGEST), V2_PINS);
        assert_eq!(as_version(3, V3_OUTCOME_DIGEST), V3_PINS);
    }

    /// The v4 trailer catches every single-byte corruption and every
    /// truncation of every sample frame: a flipped byte of the header,
    /// payload or trailer, or a cut anywhere, never parses.
    #[test]
    fn parse_frame_rejects_every_byte_flip_and_truncation() {
        for (k, e) in sample_events().iter().enumerate() {
            let frame = e.encode_frame();
            assert_eq!(parse_frame(&frame).map(|(_, n)| n), Some(frame.len()));
            for cut in 0..frame.len() {
                assert!(parse_frame(&frame[..cut]).is_none(), "frame {k} cut {cut}");
            }
            for i in 0..frame.len() {
                for bit in [0x01, 0x80, 0xff] {
                    let mut flipped = frame.clone();
                    flipped[i] ^= bit;
                    assert!(
                        parse_frame(&flipped).is_none(),
                        "frame {k} byte {i} ^ {bit:#04x}"
                    );
                }
            }
        }
    }

    /// Recovery refuses a journal whose first frame carries another
    /// version, naming both, instead of dropping it whole as a torn tail
    /// and building an empty exchange.
    #[test]
    fn recovery_refuses_journals_of_another_version() {
        let mut bytes = Vec::new();
        for e in sample_events() {
            bytes.extend_from_slice(&e.encode_frame());
        }
        for version in [2, 3, VERSION + 1] {
            let mut other = bytes.clone();
            other[1] = version;
            let refused = check_journal_version(&other).unwrap_err();
            let RecoverError::InconsistentJournal(msg) = &refused else {
                panic!("expected InconsistentJournal, got {refused:?}");
            };
            assert!(msg.contains(&format!("version {version}")), "{msg}");
            assert!(msg.contains(&format!("version {VERSION}")), "{msg}");
            if version == 3 {
                assert_eq!(
                    msg,
                    "journal format version 3; this build reads version 4 only"
                );
            }
            match Exchange::recover(
                ExchangeConfig::default(),
                &other,
                ReplaySpec::default(),
                None,
            ) {
                Err(e) => assert_eq!(e, refused),
                Ok(_) => panic!("a version {version} journal recovered"),
            }
        }
        // This build's frames, an empty journal, and bytes that are not a
        // journal frame at all (the truncation rule handles those) pass.
        assert_eq!(check_journal_version(&bytes), Ok(()));
        assert_eq!(check_journal_version(&[]), Ok(()));
        assert_eq!(check_journal_version(&[MAGIC]), Ok(()));
        assert_eq!(check_journal_version(&[0, 2, 0, 0]), Ok(()));
        let (_, report) =
            Exchange::recover(ExchangeConfig::default(), &[], ReplaySpec::default(), None)
                .map_err(|e| e.to_string())
                .unwrap();
        assert_eq!(report.events, 0);
    }

    #[test]
    fn torn_tail_is_dropped_never_misparsed() {
        let events = sample_events();
        let mut bytes = Vec::new();
        for e in &events {
            bytes.extend_from_slice(&e.encode_frame());
        }
        let boundaries = frame_boundaries(&bytes);
        // Truncate at every byte offset: the decoded prefix must always be
        // exactly the events whose frames fit whole.
        for cut in 0..=bytes.len() {
            let (decoded, dropped) = read_events(&bytes[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count();
            assert_eq!(decoded.len(), whole, "cut {cut}");
            assert_eq!(decoded[..], events[..whole], "cut {cut}");
            let last = boundaries[..whole].last().copied().unwrap_or(0);
            assert_eq!(dropped, cut - last, "cut {cut}");
        }
    }

    #[test]
    fn corrupt_records_fail_the_checksum() {
        let events = sample_events();
        let mut bytes = Vec::new();
        for e in &events {
            bytes.extend_from_slice(&e.encode_frame());
        }
        let boundaries = frame_boundaries(&bytes);
        // Flip one byte inside the last frame: the final record must be
        // dropped, the prefix must survive untouched.
        let start_last = boundaries[boundaries.len() - 2];
        let mut corrupt = bytes.clone();
        corrupt[start_last + 8] ^= 0x40;
        let (decoded, dropped) = read_events(&corrupt);
        assert_eq!(decoded[..], events[..events.len() - 1]);
        assert_eq!(dropped, bytes.len() - start_last);
        // Flip a byte mid-journal: everything from that frame on is
        // dropped (no resync — the truncation rule is prefix-only).
        let mut corrupt = bytes.clone();
        corrupt[boundaries[2] + 3] ^= 0x01;
        let (decoded, _) = read_events(&corrupt);
        assert_eq!(decoded[..], events[..3]);
    }

    #[test]
    fn journal_appends_seals_and_counts() {
        let (journal, sink) = Journal::in_memory();
        let events = sample_events();
        journal.append(&events[0]);
        journal.append(&events[1]);
        assert_eq!(journal.records(), 2);
        assert!(!journal.is_sealed());
        journal.seal();
        journal.append(&events[2]);
        assert_eq!(journal.records(), 2, "sealed journals drop appends");
        let (decoded, dropped) = read_events(&sink.bytes());
        assert_eq!(decoded[..], events[..2]);
        assert_eq!(dropped, 0);
        assert!(journal.last_error().is_none());
    }

    #[test]
    fn journal_latches_sink_errors() {
        struct FailingSink;
        impl Write for FailingSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let journal = Journal::new(Box::new(FailingSink));
        journal.append(&sample_events()[0]);
        assert_eq!(journal.records(), 0);
        assert!(journal.last_error().unwrap().contains("disk full"));
    }

    #[test]
    fn unknown_tags_and_versions_end_the_prefix() {
        let good = sample_events()[0].encode_frame();
        // Retired tags (5 and 6 with their v1 field widths, 11 with a
        // whole demand body) and unknown ones end the prefix even under a
        // valid checksum.
        let demand = sample_events()[3].encode_frame();
        let retired = [
            [&[5][..], &[0; 8]].concat(),
            [&[6][..], &[0; 24]].concat(),
            [&[11][..], &demand[HEADER + 1..demand.len() - TRAILER]].concat(),
            vec![200],
        ];
        for payload in retired {
            let mut payload_frame = vec![MAGIC, VERSION];
            (payload.len() as u32).put(&mut payload_frame);
            payload_frame.extend_from_slice(&payload);
            let sum = frame_checksum(&payload_frame);
            sum.put(&mut payload_frame);
            let mut bytes = good.clone();
            bytes.extend_from_slice(&payload_frame);
            let (decoded, dropped) = read_events(&bytes);
            assert_eq!(decoded.len(), 1, "tag {}", payload[0]);
            assert_eq!(dropped, payload_frame.len(), "tag {}", payload[0]);
        }
        // Future version: dropped whole.
        let mut versioned = good.clone();
        versioned[1] = VERSION + 1;
        let (decoded, dropped) = read_events(&versioned);
        assert!(decoded.is_empty());
        assert_eq!(dropped, versioned.len());
    }

    /// A journal holding `events` (which must include a checkpoint for
    /// compaction to succeed), plus its sink for snapshotting.
    fn journal_of(events: &[ExchangeEvent]) -> (Arc<Journal>, MemorySink) {
        let (journal, sink) = Journal::in_memory();
        for e in events {
            journal.append(e);
        }
        (journal, sink)
    }

    #[test]
    fn sealed_journals_refuse_compaction() {
        let events = sample_events();
        let (journal, sink) = journal_of(&events);
        journal.seal();
        match journal.compact(&sink.bytes(), Box::new(MemorySink::default())) {
            Err(CompactError::Sealed) => {}
            other => panic!("expected Sealed, got {other:?}"),
        }
    }

    #[test]
    fn compaction_rejects_stale_snapshots_and_missing_checkpoints() {
        let events = sample_events();
        let (journal, sink) = journal_of(&events);
        // A snapshot missing the latest appends is stale: compacting it
        // would silently drop the tail.
        let boundaries = frame_boundaries(&sink.bytes());
        let stale = &sink.bytes()[..boundaries[boundaries.len() - 2]];
        match journal.compact(stale, Box::new(MemorySink::default())) {
            Err(CompactError::StaleSnapshot { snapshot, journal }) => {
                assert_eq!(snapshot, events.len() - 1);
                assert_eq!(journal, events.len() as u64);
            }
            other => panic!("expected StaleSnapshot, got {other:?}"),
        }
        // No checkpoint frame anywhere: nothing to compact onto.
        let plain: Vec<ExchangeEvent> = sample_events()
            .into_iter()
            .filter(|e| !matches!(e, ExchangeEvent::Checkpoint { .. }))
            .collect();
        let (journal, sink) = journal_of(&plain);
        match journal.compact(&sink.bytes(), Box::new(MemorySink::default())) {
            Err(CompactError::NoCheckpoint) => {}
            other => panic!("expected NoCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn compaction_rewrites_checkpoint_plus_suffix() {
        let events = sample_events();
        let at = events
            .iter()
            .position(|e| matches!(e, ExchangeEvent::Checkpoint { .. }))
            .unwrap();
        let (journal, sink) = journal_of(&events);
        let before = sink.bytes();
        let gen2_sink = MemorySink::default();
        let (gen2, stats) = journal
            .compact(&before, Box::new(gen2_sink.clone()))
            .unwrap();
        assert_eq!(stats.events_before, events.len());
        assert_eq!(stats.events_after, events.len() - at);
        assert_eq!(stats.dropped, at);
        assert_eq!(gen2.records(), (events.len() - at) as u64);
        // The new generation is exactly `[Checkpoint, suffix…]`.
        let (decoded, dropped) = read_events(&gen2_sink.bytes());
        assert_eq!(decoded[..], events[at..]);
        assert_eq!(dropped, 0);
        // The old generation is untouched, stays unsealed, and keeps
        // receiving appends — generation switch-over is the operator's move.
        assert_eq!(sink.bytes(), before);
        assert!(!journal.is_sealed());
        journal.append(&events[0]);
        assert_eq!(journal.records(), events.len() as u64 + 1);
        let (old, _) = read_events(&sink.bytes());
        assert_eq!(old.len(), events.len() + 1);
        let (new, _) = read_events(&gen2_sink.bytes());
        assert_eq!(new[..], events[at..], "post-compact appends never leak");
    }

    #[test]
    fn compaction_surfaces_sink_errors() {
        struct FailingSink;
        impl Write for FailingSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let events = sample_events();
        let (journal, sink) = journal_of(&events);
        match journal.compact(&sink.bytes(), Box::new(FailingSink)) {
            Err(CompactError::Io(e)) => assert!(e.contains("disk full")),
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
