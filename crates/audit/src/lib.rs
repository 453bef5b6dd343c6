//! Offline audit of an exchange journal: everything an operator wants to
//! know about a journal file *before* acting on it, computed from the
//! bytes alone — no [`vfl_exchange::ReplaySpec`], no replay, no exchange.
//!
//! [`vfl_exchange::Exchange::recover`] is the authoritative check (it
//! re-drives every suffix negotiation and verifies digests against the
//! recomputed outcomes), but it needs the operator's spec and pays the
//! replay cost. This crate is the cheap first look the `vfl-audit` binary
//! exposes:
//!
//! - **format version** — a journal whose first frame carries another
//!   format version is refused whole, with the message
//!   [`vfl_exchange::Exchange::recover`] refuses it with (its digests
//!   would not verify under this build's fold);
//! - **frame walk** — decode the longest valid prefix
//!   ([`vfl_exchange::read_events`] re-verifies every frame checksum on
//!   the way), count frames per tag, report the torn-tail byte count;
//! - **referential consistency** — ids are dense and in journal order,
//!   every conclusion/settlement refers to a recorded submission, every
//!   served course belongs to a registered market's evaluation key,
//!   winner slots stay in range, epochs increase;
//! - **digest re-verification** — a checkpoint carries full outcomes, so
//!   every earlier [`vfl_exchange::ExchangeEvent::SessionConcluded`]
//!   record is re-checked against the checkpoint's recomputed
//!   [`wire::outcome_digest`] / [`wire::status_code`] / round count;
//! - **checkpoint/suffix consistency** — the quiescence contract
//!   (everything submitted before a checkpoint is terminal inside it),
//!   registration stamps matching the journaled registrations, epoch
//!   ledgers matching the journaled clearings, id counters fencing the
//!   suffix;
//! - **settlement ledger** — per-seller wins, realized payments (where a
//!   checkpoint's demand reports pin them), and last uniform clearing
//!   prices;
//! - **recovery cost** — how many of the journal's events a recovery
//!   would actually replay given the last checkpoint.
//!
//! The audit is read-only and infallible by construction: malformed bytes
//! shrink the valid prefix (the journal's own truncation rule) rather
//! than erroring, and every inconsistency becomes a [`JournalAudit`]
//! violation string instead of a panic.

#![deny(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use vfl_exchange::{
    check_journal_version, frame_boundaries, read_events, CheckpointState, DemandReport,
    ExchangeEvent, MarketId, QuoteState, SellerId,
};
use vfl_market::session::wire;
use vfl_market::Outcome;

/// One seller market's row in the settlement ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// The seller.
    pub seller: SellerId,
    /// The seller's registered display name (`"?"` when the journal never
    /// names it — a suffix-only generation with a missing checkpoint).
    pub name: String,
    /// Demands this seller won.
    pub wins: usize,
    /// Sum of realized payments over the wins a checkpoint's demand
    /// reports cover (the winning quote's terminal round payment).
    pub settled_payment: f64,
    /// Wins whose payment the journal does not pin (settled only by a
    /// suffix [`ExchangeEvent::DemandSettled`]; replay recomputes them).
    pub unpriced_wins: usize,
    /// The seller market's uniform clearing price in the latest cleared
    /// epoch that priced it, if any.
    pub clearing_price: Option<f64>,
}

/// Everything [`audit_bytes`] extracts from one journal generation.
#[derive(Debug, Clone, Default)]
pub struct JournalAudit {
    /// Bytes in the journal.
    pub bytes: usize,
    /// Frames in the longest valid prefix (checksums verified).
    pub frames: usize,
    /// Torn-tail bytes after the valid prefix (0 for a clean shutdown).
    pub dropped_bytes: usize,
    /// Frames per tag, in tag-name order, zero-count tags omitted.
    pub tag_counts: Vec<(&'static str, usize)>,
    /// Checkpoint frames in the prefix.
    pub checkpoints: usize,
    /// Events a recovery would replay: everything after the last
    /// checkpoint (all of them when there is none).
    pub replay_events: usize,
    /// Sessions/demands/courses/epochs restored wholesale by the last
    /// checkpoint, when there is one.
    pub restored: Option<(usize, usize, usize, usize)>,
    /// Per-seller settlement ledger, seller-id order.
    pub ledger: Vec<LedgerRow>,
    /// Demands refused at admission (`demand-shed` frames). They carry no
    /// seller attribution — shedding happens before fan-out — so they get
    /// a ledger footer line instead of a row.
    pub sheds: usize,
    /// Distribution of `retry_after` hints over the shed frames: hint
    /// value → frame count. Hintless sheds (policies with no rate model)
    /// are `sheds` minus the counted total.
    pub shed_hints: BTreeMap<u32, usize>,
    /// Every inconsistency found; an empty list is a verified journal.
    pub violations: Vec<String>,
}

impl JournalAudit {
    /// True when every check passed.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// The operator-facing report the `vfl-audit` binary prints.
    pub fn render(&self, source: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "vfl-audit: {source}");
        let _ = writeln!(
            out,
            "  frames: {} in {} bytes ({} torn-tail bytes dropped)",
            self.frames, self.bytes, self.dropped_bytes
        );
        let tags = self
            .tag_counts
            .iter()
            .map(|(name, n)| format!("{name} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  tags: {tags}");
        if let Some((sessions, demands, courses, epochs)) = self.restored {
            let _ = writeln!(
                out,
                "  checkpoints: {} (last restores {sessions} sessions, {demands} demands, \
                 {courses} courses, {epochs} epochs)",
                self.checkpoints
            );
        } else {
            let _ = writeln!(out, "  checkpoints: 0");
        }
        let _ = writeln!(
            out,
            "  recovery cost: replays {} of {} events",
            self.replay_events, self.frames
        );
        let _ = writeln!(out, "  ledger:");
        for row in &self.ledger {
            let price = row
                .clearing_price
                .map(|p| format!("{p:.4}"))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "    seller {} {}: wins {}, settled payment {:.4}, unpriced wins {}, \
                 clearing price {price}",
                row.seller, row.name, row.wins, row.settled_payment, row.unpriced_wins
            );
        }
        if self.ledger.is_empty() {
            let _ = writeln!(out, "    (no sellers registered)");
        }
        if self.sheds > 0 {
            let _ = writeln!(
                out,
                "    shed at admission: {} demand(s) (refused before fan-out; \
                 no seller attribution)",
                self.sheds
            );
            let hinted: usize = self.shed_hints.values().sum();
            if hinted > 0 {
                let dist = self
                    .shed_hints
                    .iter()
                    .map(|(wait, n)| format!("wait {wait} ×{n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(
                    out,
                    "    retry hints: {dist}; hintless {}",
                    self.sheds - hinted
                );
            }
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "  OK");
        } else {
            let _ = writeln!(out, "  {} violation(s):", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "    - {v}");
            }
        }
        out
    }
}

/// One checkpoint generation's share of the journal: the event frames up
/// to (and including) one checkpoint, or the live tail after the last
/// checkpoint (what a recovery replays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationStats {
    /// Generation index, 0 = genesis through the first checkpoint.
    pub generation: usize,
    /// Event frames in the generation (closing checkpoint included).
    pub events: usize,
    /// Bytes the generation occupies in the journal.
    pub bytes: usize,
    /// True when a checkpoint seals the generation; the last row is open
    /// unless the journal happens to end exactly on a checkpoint frame.
    pub closed: bool,
}

/// The `--stats` supplement to [`JournalAudit`]: where the journal's bytes
/// went (per event tag) and how events and bytes distribute across
/// checkpoint generations — the numbers that tell an operator whether the
/// checkpoint cadence is keeping recovery cost bounded.
#[derive(Debug, Clone, Default)]
pub struct JournalStats {
    /// `(tag, frames, bytes)` per tag, tag-name order, zero-count tags
    /// omitted. Byte counts are whole frames (header + payload + checksum),
    /// so the rows sum to the valid prefix exactly.
    pub tag_bytes: Vec<(&'static str, usize, usize)>,
    /// One row per checkpoint generation, journal order.
    pub generations: Vec<GenerationStats>,
}

impl JournalStats {
    /// The operator-facing `--stats` section.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  bytes by tag:");
        for (tag, frames, bytes) in &self.tag_bytes {
            let _ = writeln!(out, "    {tag}: {bytes} bytes over {frames} frame(s)");
        }
        if self.tag_bytes.is_empty() {
            let _ = writeln!(out, "    (empty journal)");
        }
        let _ = writeln!(out, "  checkpoint generations:");
        for g in &self.generations {
            let state = if g.closed {
                "sealed by a checkpoint"
            } else {
                "open (replayed on recovery)"
            };
            let _ = writeln!(
                out,
                "    generation {}: {} event(s), {} bytes, {state}",
                g.generation, g.events, g.bytes
            );
        }
        out
    }
}

/// Computes the `--stats` breakdown from journal bytes. Same truncation
/// rule as [`audit_bytes`]: only the longest valid prefix is counted.
pub fn stats_of(bytes: &[u8]) -> JournalStats {
    let (events, _) = read_events(bytes);
    // frame_boundaries yields each frame's END offset, so frame i spans
    // [ends[i-1], ends[i]) and the per-tag byte rows sum to the prefix.
    let ends = frame_boundaries(bytes);
    debug_assert_eq!(ends.len(), events.len());
    let mut per_tag: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    let mut generations = Vec::new();
    let (mut gen_events, mut gen_bytes, mut start) = (0usize, 0usize, 0usize);
    for (event, &end) in events.iter().zip(&ends) {
        let len = end - start;
        start = end;
        let slot = per_tag.entry(event.name()).or_default();
        slot.0 += 1;
        slot.1 += len;
        gen_events += 1;
        gen_bytes += len;
        if matches!(event, ExchangeEvent::Checkpoint { .. }) {
            generations.push(GenerationStats {
                generation: generations.len(),
                events: gen_events,
                bytes: gen_bytes,
                closed: true,
            });
            (gen_events, gen_bytes) = (0, 0);
        }
    }
    if gen_events > 0 || generations.is_empty() {
        generations.push(GenerationStats {
            generation: generations.len(),
            events: gen_events,
            bytes: gen_bytes,
            closed: false,
        });
    }
    JournalStats {
        tag_bytes: per_tag.into_iter().map(|(t, (n, b))| (t, n, b)).collect(),
        generations,
    }
}

/// The digest triple [`ExchangeEvent::SessionConcluded`] records, computed
/// from a checkpoint's full result.
fn conclusion_of(result: &Result<Box<Outcome>, vfl_market::MarketError>) -> (u16, u32, u64) {
    match result {
        Ok(outcome) => (
            wire::status_code(outcome.status),
            outcome.rounds.len() as u32,
            wire::outcome_digest(outcome),
        ),
        Err(_) => (wire::STATUS_HARD_ERROR, 0, 0),
    }
}

/// The walk's registry: everything earlier frames taught us, either from
/// registration events or seeded wholesale by a checkpoint stamp.
#[derive(Default)]
struct Walk {
    /// market id → (eval_key, name, owning seller).
    markets: BTreeMap<usize, (u64, String, Option<SellerId>)>,
    /// seller id → (market id, name).
    sellers: BTreeMap<usize, (usize, String)>,
    /// session id → concluded triple, `None` while open.
    sessions: BTreeMap<u64, Option<(u16, u32, u64)>>,
    /// demand id → candidate sellers, in slot order.
    demands: BTreeMap<u64, Vec<SellerId>>,
    /// demand id → settled winner slot.
    settles: BTreeMap<u64, Option<u32>>,
    /// full epoch ledger seen so far (from events and/or checkpoints).
    epochs: Vec<vfl_exchange::EpochRecord>,
    /// demand id → checkpoint demand report (payments live here).
    reports: BTreeMap<u64, DemandReport>,
    /// demand ids refused at admission (terminal from birth: no fan-out,
    /// no quotes, no settlement). Frames referring to one are flagged;
    /// cleared once a checkpoint has covered it, like `demands`.
    shed: BTreeSet<u64>,
    clearing_open: bool,
    next_session: u64,
    next_demand: u64,
}

fn check_registration(
    walk: &mut Walk,
    violations: &mut Vec<String>,
    frame: usize,
    market: MarketId,
    owner: Option<SellerId>,
    eval_key: u64,
    name: &str,
) {
    if market.0 != walk.markets.len() {
        violations.push(format!(
            "frame {frame}: registration of {market} {name:?} out of order \
             ({} markets registered before it)",
            walk.markets.len()
        ));
    }
    if let Some(seller) = owner {
        if seller.0 != walk.sellers.len() {
            violations.push(format!(
                "frame {frame}: registration of {seller} {name:?} out of order \
                 ({} sellers registered before it)",
                walk.sellers.len()
            ));
        }
        walk.sellers.insert(seller.0, (market.0, name.to_string()));
    }
    walk.markets
        .insert(market.0, (eval_key, name.to_string(), owner));
}

/// Verifies a checkpoint frame against everything the walk saw before it,
/// then seeds the walk from its state (a compacted generation opens with a
/// checkpoint, so the stamps *are* the registry).
fn absorb_checkpoint(
    walk: &mut Walk,
    violations: &mut Vec<String>,
    frame: usize,
    state: &CheckpointState,
) {
    // Registration stamps: match what the journal registered, or seed it.
    for (idx, m) in state.markets.iter().enumerate() {
        match walk.markets.get(&idx) {
            Some((eval_key, name, owner)) => {
                if *eval_key != m.eval_key || *name != m.name || *owner != m.owner {
                    violations.push(format!(
                        "frame {frame}: checkpoint stamp for m{idx} ({:?}, key {}, \
                         owner {:?}) contradicts the journaled registration \
                         ({name:?}, key {eval_key}, owner {owner:?})",
                        m.name, m.eval_key, m.owner
                    ));
                }
            }
            None => {
                if let Some(seller) = m.owner {
                    walk.sellers.insert(seller.0, (idx, m.name.clone()));
                }
                walk.markets
                    .insert(idx, (m.eval_key, m.name.clone(), m.owner));
            }
        }
    }
    if state.markets.len() < walk.markets.len() {
        violations.push(format!(
            "frame {frame}: checkpoint stamps {} markets but the journal \
             registered {}",
            state.markets.len(),
            walk.markets.len()
        ));
    }
    // Quiescence: everything submitted before the checkpoint is terminal
    // inside it, with matching digests.
    let checkpointed: BTreeMap<u64, (u16, u32, u64)> = state
        .sessions
        .iter()
        .map(|(sid, result)| (sid.0, conclusion_of(result)))
        .collect();
    for (&sid, concluded) in &walk.sessions {
        match (checkpointed.get(&sid), concluded) {
            (None, _) => violations.push(format!(
                "frame {frame}: checkpoint omits submitted session s{sid} \
                 (quiescence requires it to be terminal and covered)"
            )),
            (Some(have), Some(want)) if have != want => violations.push(format!(
                "frame {frame}: checkpoint outcome for session s{sid} \
                 (status {}, rounds {}, digest {:#x}) contradicts its \
                 SessionConcluded record (status {}, rounds {}, digest {:#x})",
                have.0, have.1, have.2, want.0, want.1, want.2
            )),
            _ => {}
        }
    }
    walk.sessions = checkpointed
        .iter()
        .map(|(&sid, &c)| (sid, Some(c)))
        .collect();
    // Demands: every journaled demand settled and covered.
    for (&did, candidates) in &walk.demands {
        let Some(report) = state.demands.iter().find(|r| r.demand.0 == did) else {
            violations.push(format!(
                "frame {frame}: checkpoint omits submitted demand d{did} \
                 (quiescence requires it to be settled and covered)"
            ));
            continue;
        };
        if let Some(&slot) = walk.settles.get(&did).and_then(|w| w.as_ref()) {
            if report.winner != Some(slot as usize) {
                violations.push(format!(
                    "frame {frame}: checkpoint winner {:?} for demand d{did} \
                     contradicts its DemandSettled slot {slot}",
                    report.winner
                ));
            }
        }
        if candidates.len() != report.quotes.len() && !candidates.is_empty() {
            violations.push(format!(
                "frame {frame}: checkpoint reports {} quotes for demand d{did}, \
                 journal fanned out {} candidates",
                report.quotes.len(),
                candidates.len()
            ));
        }
    }
    for report in &state.demands {
        if let Some(idx) = report.winner {
            if idx >= report.quotes.len() {
                violations.push(format!(
                    "frame {frame}: checkpoint demand {} winner slot {idx} out of \
                     range ({} quotes)",
                    report.demand,
                    report.quotes.len()
                ));
            }
        }
        walk.reports.insert(report.demand.0, report.clone());
        walk.settles
            .entry(report.demand.0)
            .or_insert(report.winner.map(|w| w as u32));
    }
    // Shed demands are terminal too: quiescence covers them, as the one
    // report shape an admitted demand can never produce (winnerless and
    // quote-free — submission rejects empty fan-outs).
    for &did in &walk.shed {
        match state.demands.iter().find(|r| r.demand.0 == did) {
            None => violations.push(format!(
                "frame {frame}: checkpoint omits shed demand d{did} \
                 (quiescence requires shed terminals to be covered)"
            )),
            Some(r) if r.winner.is_some() || !r.quotes.is_empty() => violations.push(format!(
                "frame {frame}: checkpoint records quotes or a winner for shed \
                 demand d{did}"
            )),
            _ => {}
        }
    }
    walk.demands.clear();
    walk.shed.clear();
    // Epoch ledger: every journaled clearing must appear identically.
    for seen in &walk.epochs {
        match state.epochs.iter().find(|e| e.epoch == seen.epoch) {
            None => violations.push(format!(
                "frame {frame}: checkpoint omits cleared epoch {}",
                seen.epoch
            )),
            Some(have) if have != seen => violations.push(format!(
                "frame {frame}: checkpoint record for epoch {} contradicts the \
                 journaled EpochCleared record",
                seen.epoch
            )),
            _ => {}
        }
    }
    walk.epochs = state.epochs.clone();
    if state.clearing.is_some() {
        walk.clearing_open = true;
    } else if walk.clearing_open {
        violations.push(format!(
            "frame {frame}: checkpoint records no clearing window but the \
             journal opened one"
        ));
    }
    // Id counters fence the suffix.
    if state.next_session < walk.next_session {
        violations.push(format!(
            "frame {frame}: checkpoint next_session {} behind the journal's {}",
            state.next_session, walk.next_session
        ));
    }
    if state.next_demand < walk.next_demand {
        violations.push(format!(
            "frame {frame}: checkpoint next_demand {} behind the journal's {}",
            state.next_demand, walk.next_demand
        ));
    }
    walk.next_session = walk.next_session.max(state.next_session);
    walk.next_demand = walk.next_demand.max(state.next_demand);
}

/// Audits one journal generation's bytes. Read-only and total: malformed
/// bytes shrink the valid prefix, inconsistencies become violations.
pub fn audit_bytes(bytes: &[u8]) -> JournalAudit {
    // Another version's journal is not torn: refuse it whole rather than
    // report every byte as a dropped tail.
    if let Err(refused) = check_journal_version(bytes) {
        return JournalAudit {
            bytes: bytes.len(),
            violations: vec![refused.to_string()],
            ..JournalAudit::default()
        };
    }
    let (events, dropped_bytes) = read_events(bytes);
    debug_assert_eq!(frame_boundaries(bytes).len(), events.len());
    let mut audit = JournalAudit {
        bytes: bytes.len(),
        frames: events.len(),
        dropped_bytes,
        ..JournalAudit::default()
    };
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut walk = Walk::default();
    let mut last_checkpoint = None;
    for (frame, event) in events.iter().enumerate() {
        *counts.entry(event.name()).or_default() += 1;
        let v = &mut audit.violations;
        match event {
            ExchangeEvent::MarketRegistered {
                market,
                eval_key,
                name,
                ..
            } => check_registration(&mut walk, v, frame, *market, None, *eval_key, name),
            ExchangeEvent::SellerRegistered {
                seller,
                market,
                eval_key,
                name,
                ..
            } => check_registration(&mut walk, v, frame, *market, Some(*seller), *eval_key, name),
            ExchangeEvent::SessionSubmitted {
                session, market, ..
            } => {
                if session.0 < walk.next_session {
                    v.push(format!(
                        "frame {frame}: {session} reuses an id below the issued \
                         watermark {}",
                        walk.next_session
                    ));
                }
                if !walk.markets.contains_key(&market.0) {
                    v.push(format!(
                        "frame {frame}: {session} submitted against unregistered {market}"
                    ));
                }
                walk.sessions.insert(session.0, None);
                walk.next_session = walk.next_session.max(session.0 + 1);
            }
            ExchangeEvent::DemandSubmitted {
                demand,
                epoch_mode,
                candidates,
                ..
            } => {
                if demand.0 < walk.next_demand {
                    v.push(format!(
                        "frame {frame}: {demand} reuses an id below the issued \
                         watermark {}",
                        walk.next_demand
                    ));
                }
                if *epoch_mode && !walk.clearing_open {
                    v.push(format!(
                        "frame {frame}: epoch-mode {demand} with no clearing window open"
                    ));
                }
                for (seller, session) in candidates {
                    if !walk.sellers.contains_key(&seller.0) {
                        v.push(format!(
                            "frame {frame}: {demand} fans out to unregistered {seller}"
                        ));
                    }
                    walk.sessions.insert(session.0, None);
                    walk.next_session = walk.next_session.max(session.0 + 1);
                }
                walk.demands
                    .insert(demand.0, candidates.iter().map(|(s, _)| *s).collect());
                walk.next_demand = walk.next_demand.max(demand.0 + 1);
            }
            ExchangeEvent::DemandShed { demand, .. } => {
                if demand.0 < walk.next_demand {
                    v.push(format!(
                        "frame {frame}: shed {demand} reuses an id below the issued \
                         watermark {}",
                        walk.next_demand
                    ));
                }
                walk.shed.insert(demand.0);
                walk.next_demand = walk.next_demand.max(demand.0 + 1);
            }
            ExchangeEvent::ClearingOpened { .. } => {
                if walk.clearing_open {
                    v.push(format!("frame {frame}: clearing window opened twice"));
                }
                walk.clearing_open = true;
            }
            ExchangeEvent::EpochCleared { record } => {
                if !walk.clearing_open {
                    v.push(format!(
                        "frame {frame}: epoch {} cleared with no clearing window open",
                        record.epoch
                    ));
                }
                if let Some(last) = walk.epochs.last() {
                    if record.epoch <= last.epoch {
                        v.push(format!(
                            "frame {frame}: epoch {} cleared after epoch {}",
                            record.epoch, last.epoch
                        ));
                    }
                }
                for entry in &record.entries {
                    if !walk.demands.contains_key(&entry.demand.0)
                        && !walk.reports.contains_key(&entry.demand.0)
                    {
                        v.push(format!(
                            "frame {frame}: epoch {} clears unknown {}",
                            record.epoch, entry.demand
                        ));
                    }
                }
                walk.epochs.push(record.clone());
            }
            ExchangeEvent::CourseServed {
                eval_key, bundle, ..
            } => {
                if !walk.markets.values().any(|(key, ..)| key == eval_key) {
                    v.push(format!(
                        "frame {frame}: course {bundle} served for evaluation key \
                         {eval_key:#x}, which no registered market owns"
                    ));
                }
            }
            ExchangeEvent::QuoteRecorded { demand, slot, .. } => {
                if walk.shed.contains(&demand.0) {
                    v.push(format!(
                        "frame {frame}: quote recorded for shed {demand} \
                         (a shed demand never fans out)"
                    ));
                    continue;
                }
                match walk.demands.get(&demand.0) {
                    None => v.push(format!("frame {frame}: quote for unknown {demand}")),
                    Some(c) if (*slot as usize) >= c.len() && !c.is_empty() => v.push(format!(
                        "frame {frame}: quote slot {slot} out of range for {demand} \
                         ({} candidates)",
                        c.len()
                    )),
                    _ => {}
                }
            }
            ExchangeEvent::DemandSettled { demand, winner } => {
                if walk.shed.contains(&demand.0) {
                    v.push(format!(
                        "frame {frame}: settlement of shed {demand} \
                         (shed is terminal from birth)"
                    ));
                    continue;
                }
                match walk.demands.get(&demand.0) {
                    None => v.push(format!("frame {frame}: settlement of unknown {demand}")),
                    Some(c) => {
                        if let Some(slot) = winner {
                            if (*slot as usize) >= c.len() && !c.is_empty() {
                                v.push(format!(
                                    "frame {frame}: winner slot {slot} out of range for \
                                     {demand} ({} candidates)",
                                    c.len()
                                ));
                            }
                        }
                    }
                }
                if walk.settles.insert(demand.0, *winner).is_some() {
                    v.push(format!("frame {frame}: {demand} settled twice"));
                }
            }
            ExchangeEvent::SessionConcluded {
                session,
                status,
                rounds,
                digest,
            } => {
                match walk.sessions.get(&session.0) {
                    None => v.push(format!("frame {frame}: conclusion of unknown {session}")),
                    Some(Some(_)) => v.push(format!("frame {frame}: {session} concluded twice")),
                    Some(None) => {}
                }
                walk.sessions
                    .insert(session.0, Some((*status, *rounds, *digest)));
            }
            ExchangeEvent::Checkpoint { state } => {
                absorb_checkpoint(&mut walk, v, frame, state);
                last_checkpoint = Some((frame, state));
            }
        }
    }
    audit.tag_counts = counts.into_iter().collect();
    for event in &events {
        if let ExchangeEvent::DemandShed { retry_after, .. } = event {
            audit.sheds += 1;
            if let Some(wait) = retry_after {
                *audit.shed_hints.entry(*wait).or_default() += 1;
            }
        }
    }
    audit.checkpoints = events
        .iter()
        .filter(|e| matches!(e, ExchangeEvent::Checkpoint { .. }))
        .count();
    audit.replay_events = match last_checkpoint {
        Some((frame, state)) => {
            audit.restored = Some((
                state.sessions.len(),
                state.demands.len(),
                state.courses.len(),
                state.epochs.len(),
            ));
            events.len() - frame - 1
        }
        None => events.len(),
    };
    audit.ledger = ledger_of(&walk);
    audit
}

fn ledger_of(walk: &Walk) -> Vec<LedgerRow> {
    let mut rows: BTreeMap<usize, LedgerRow> = walk
        .sellers
        .iter()
        .map(|(&id, (_, name))| {
            (
                id,
                LedgerRow {
                    seller: SellerId(id),
                    name: name.clone(),
                    wins: 0,
                    settled_payment: 0.0,
                    unpriced_wins: 0,
                    clearing_price: None,
                },
            )
        })
        .collect();
    fn row(rows: &mut BTreeMap<usize, LedgerRow>, seller: SellerId) -> &mut LedgerRow {
        rows.entry(seller.0).or_insert_with(|| LedgerRow {
            seller,
            name: "?".into(),
            wins: 0,
            settled_payment: 0.0,
            unpriced_wins: 0,
            clearing_price: None,
        })
    }
    for (&did, winner) in &walk.settles {
        let Some(&slot) = winner.as_ref() else {
            continue;
        };
        if let Some(report) = walk.reports.get(&did) {
            let Some(quote) = report.quotes.get(slot as usize) else {
                continue;
            };
            let r = row(&mut rows, quote.seller);
            r.wins += 1;
            // The winner's realized payment is its terminal round's — a
            // `Standing` winner (parked at the probe horizon and picked
            // by the settle policy) pays its last completed quote round.
            let paid = match &quote.state {
                QuoteState::Closed {
                    last: Some(rec), ..
                } => Some(rec.payment),
                QuoteState::Closed { last: None, .. } => Some(0.0),
                QuoteState::Standing(rec) => Some(rec.payment),
                QuoteState::Error(_) => None,
            };
            match paid {
                Some(p) => r.settled_payment += p,
                None => r.unpriced_wins += 1,
            }
        } else if let Some(seller) = walk
            .demands
            .get(&did)
            .and_then(|c| c.get(slot as usize))
            .copied()
        {
            let r = row(&mut rows, seller);
            r.wins += 1;
            r.unpriced_wins += 1;
        }
    }
    // Latest uniform clearing price per seller market.
    for record in &walk.epochs {
        for &(seller, price) in &record.prices {
            row(&mut rows, seller).clearing_price = Some(price);
        }
    }
    rows.into_values().collect()
}

// The binary's exit-code contract lives here so the bench tier can assert
// on it without re-deriving magic numbers.
/// Exit code for a clean, consistent journal.
pub const EXIT_OK: i32 = 0;
/// Exit code when the audit found violations.
pub const EXIT_INCONSISTENT: i32 = 1;
/// Exit code for usage or I/O errors (no audit ran).
pub const EXIT_USAGE: i32 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vfl_exchange::{
        BestResponse, Demand, Exchange, ExchangeConfig, Journal, MarketSpec, QueueDepthAdmission,
        SellerSpec, SessionOrder, SettleMode, TokenBucketAdmission,
    };
    use vfl_market::{
        DataStrategy, Listing, MarketConfig, ReservedPrice, StrategicData, StrategicTask,
        TableGainProvider,
    };
    use vfl_sim::BundleMask;

    /// One journaled run with a mid-life checkpoint: 3 sessions, the
    /// checkpoint, then 2 more — so the stats see one sealed generation
    /// and one open tail.
    fn journal_with_checkpoint() -> Vec<u8> {
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
        let (journal, sink) = Journal::in_memory();
        let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
        let market = exchange
            .register_market(MarketSpec {
                provider: Arc::new(provider),
                listings: Arc::new(listings),
                evaluation_key: Some(42),
                name: "stats".into(),
            })
            .unwrap();
        let order = |seed: u64| SessionOrder {
            cfg: MarketConfig {
                utility_rate: 1000.0,
                budget: 12.0,
                rate_cap: 20.0,
                seed,
                ..MarketConfig::default()
            },
            task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap()),
            data: Box::new(StrategicData::with_gains(gains.clone())),
        };
        for seed in 0..3 {
            exchange.submit(market, order(seed)).unwrap();
        }
        exchange.drain(1);
        exchange.checkpoint().unwrap();
        for seed in 3..5 {
            exchange.submit(market, order(seed)).unwrap();
        }
        exchange.drain(1);
        sink.bytes()
    }

    /// A journaled run under a zero-depth admission policy: each drain
    /// window admits one demand (the queue is empty at its submission) and
    /// sheds the rest — shed frames land both before and after the
    /// checkpoint, so the walk and the quiescence check both see them.
    fn journal_with_sheds() -> Vec<u8> {
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
        let (journal, sink) = Journal::in_memory();
        let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
        let quote_gains = gains.clone();
        exchange
            .register_seller(SellerSpec {
                market: MarketSpec {
                    provider: Arc::new(provider),
                    listings: Arc::new(listings),
                    evaluation_key: Some(42),
                    name: "sheddable".into(),
                },
                quoting: Arc::new(move |table: &[Listing]| {
                    Box::new(StrategicData::with_gains(
                        table
                            .iter()
                            .map(|l| quote_gains[l.bundle.0.trailing_zeros() as usize])
                            .collect(),
                    )) as Box<dyn DataStrategy + Send>
                }),
            })
            .unwrap();
        exchange.set_admission(Some(Arc::new(QueueDepthAdmission { max_queue_depth: 0 })));
        let demand = |seed: u64| Demand {
            wanted: BundleMask::all(4),
            scenario: None,
            cfg: MarketConfig {
                utility_rate: 900.0,
                budget: 12.0,
                rate_cap: 20.0,
                seed,
                ..MarketConfig::default()
            },
            task: Arc::new(|| Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap())),
            probe_rounds: 2,
            settle: SettleMode::Immediate(Arc::new(BestResponse)),
        };
        for seed in 0..3 {
            exchange.submit_demand(demand(seed)).unwrap();
        }
        exchange.drain(1);
        exchange.checkpoint().unwrap();
        for seed in 3..5 {
            exchange.submit_demand(demand(seed)).unwrap();
        }
        exchange.drain(1);
        sink.bytes()
    }

    /// A journal whose first frame carries another format version is
    /// refused whole with recovery's message, not walked as an empty
    /// torn prefix; this build's own journal still audits clean.
    #[test]
    fn journals_of_another_version_are_refused() {
        let bytes = journal_with_checkpoint();
        assert!(audit_bytes(&bytes).is_consistent());
        for version in [2, 3] {
            let mut old = bytes.clone();
            old[1] = version;
            let audit = audit_bytes(&old);
            assert!(!audit.is_consistent());
            let refused = check_journal_version(&old).unwrap_err().to_string();
            assert!(
                refused.contains(&format!(
                    "journal format version {version}; this build reads version 4 only"
                )),
                "{refused}"
            );
            assert_eq!(audit.violations, vec![refused.clone()]);
            assert_eq!(
                (audit.frames, audit.dropped_bytes),
                (0, 0),
                "not a torn tail"
            );
            assert!(audit.render("old.bin").contains(&refused));
        }
    }

    #[test]
    fn hinted_shed_frames_surface_the_hint_distribution() {
        // Re-run the shed fixture under a rate policy whose refusals carry
        // retry hints: the audit must count them per hint value and the
        // footer must show the distribution.
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
        let (journal, sink) = Journal::in_memory();
        let exchange = Exchange::with_journal(ExchangeConfig::default(), journal);
        let quote_gains = gains.clone();
        exchange
            .register_seller(SellerSpec {
                market: MarketSpec {
                    provider: Arc::new(provider),
                    listings: Arc::new(listings),
                    evaluation_key: Some(42),
                    name: "rationed".into(),
                },
                quoting: Arc::new(move |table: &[Listing]| {
                    Box::new(StrategicData::with_gains(
                        table
                            .iter()
                            .map(|l| quote_gains[l.bundle.0.trailing_zeros() as usize])
                            .collect(),
                    )) as Box<dyn DataStrategy + Send>
                }),
            })
            .unwrap();
        // One token, glacial refill: the first demand drains the bucket,
        // the next two shed with distinct logical-time hints.
        exchange.set_admission(Some(Arc::new(TokenBucketAdmission::new(1, 1_000))));
        let demand = |seed: u64| Demand {
            wanted: BundleMask::all(4),
            scenario: None,
            cfg: MarketConfig {
                utility_rate: 900.0,
                budget: 12.0,
                rate_cap: 20.0,
                seed,
                ..MarketConfig::default()
            },
            task: Arc::new(|| Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap())),
            probe_rounds: 2,
            settle: SettleMode::Immediate(Arc::new(BestResponse)),
        };
        for seed in 0..3 {
            exchange.submit_demand(demand(seed)).unwrap();
        }
        exchange.drain(1);

        let audit = audit_bytes(&sink.bytes());
        assert!(audit.is_consistent(), "{:?}", audit.violations);
        assert_eq!(audit.sheds, 2);
        let hinted: usize = audit.shed_hints.values().sum();
        assert_eq!(hinted, 2, "{:?}", audit.shed_hints);
        let text = audit.render("hinted-journal");
        assert!(text.contains("shed at admission: 2 demand(s)"), "{text}");
        assert!(text.contains("retry hints: "), "{text}");
        assert!(text.contains("hintless 0"), "{text}");
        for (&wait, &n) in &audit.shed_hints {
            assert!(text.contains(&format!("wait {wait} ×{n}")), "{text}");
        }
    }

    #[test]
    fn shed_demands_audit_cleanly_and_are_accounted() {
        let bytes = journal_with_sheds();
        let audit = audit_bytes(&bytes);
        assert!(audit.is_consistent(), "{:?}", audit.violations);
        // 2 shed before the checkpoint (covered by its quiescence check as
        // winnerless, quote-free reports) + 1 after it (walked live).
        assert_eq!(audit.sheds, 3);
        assert!(
            audit
                .tag_counts
                .iter()
                .any(|&(tag, n)| tag == "demand-shed" && n == 3),
            "{:?}",
            audit.tag_counts
        );
        let text = audit.render("shed-journal");
        assert!(text.contains("shed at admission: 3 demand(s)"), "{text}");
        // The byte accounting sees the new tag as whole frames too.
        let stats = stats_of(&bytes);
        assert!(
            stats
                .tag_bytes
                .iter()
                .any(|&(tag, n, b)| tag == "demand-shed" && n == 3 && b > 0),
            "{:?}",
            stats.tag_bytes
        );
    }

    #[test]
    fn stats_partition_the_prefix_exactly() {
        let bytes = journal_with_checkpoint();
        let audit = audit_bytes(&bytes);
        assert!(audit.is_consistent(), "{:?}", audit.violations);
        let stats = stats_of(&bytes);

        // Tag rows agree with the audit's frame counts and sum to the
        // valid prefix byte-exactly.
        let total_frames: usize = stats.tag_bytes.iter().map(|&(_, n, _)| n).sum();
        let total_bytes: usize = stats.tag_bytes.iter().map(|&(_, _, b)| b).sum();
        assert_eq!(total_frames, audit.frames);
        assert_eq!(total_bytes, bytes.len() - audit.dropped_bytes);
        assert_eq!(stats.tag_bytes.len(), audit.tag_counts.len());
        for (&(tag_a, n_a), &(tag_b, n_b, b)) in audit.tag_counts.iter().zip(&stats.tag_bytes) {
            assert_eq!(tag_a, tag_b);
            assert_eq!(n_a, n_b);
            assert!(b > 0, "{tag_b} has frames but no bytes");
        }

        // Two generations: one sealed by the checkpoint, one open tail,
        // together partitioning the frames; the open tail is exactly what
        // the audit says a recovery would replay.
        assert_eq!(stats.generations.len(), 2);
        assert!(stats.generations[0].closed);
        assert!(!stats.generations[1].closed);
        let gen_events: usize = stats.generations.iter().map(|g| g.events).sum();
        let gen_bytes: usize = stats.generations.iter().map(|g| g.bytes).sum();
        assert_eq!(gen_events, audit.frames);
        assert_eq!(gen_bytes, total_bytes);
        assert_eq!(stats.generations[1].events, audit.replay_events);

        let text = stats.render();
        for &(tag, ..) in &stats.tag_bytes {
            assert!(text.contains(tag), "{tag} missing from render:\n{text}");
        }
        assert!(text.contains("generation 0"), "{text}");
        assert!(text.contains("sealed by a checkpoint"), "{text}");
        assert!(text.contains("open (replayed on recovery)"), "{text}");
    }

    #[test]
    fn served_courses_must_belong_to_a_registered_market() {
        let bytes = journal_with_checkpoint();
        let served = |eval_key| {
            let mut journal = bytes.clone();
            journal.extend_from_slice(
                &ExchangeEvent::CourseServed {
                    eval_key,
                    bundle: BundleMask(0b1),
                    gain: 0.125,
                }
                .encode_frame(),
            );
            audit_bytes(&journal)
        };
        // The journal's one market owns key 42.
        let owned = served(42);
        assert!(owned.is_consistent(), "{:?}", owned.violations);
        let stray = served(0xdead);
        assert_eq!(stray.violations.len(), 1, "{:?}", stray.violations);
        assert!(
            stray.violations[0].contains("no registered market owns"),
            "{:?}",
            stray.violations
        );
    }

    #[test]
    fn stats_of_empty_and_torn_journals_are_defined() {
        let empty = stats_of(&[]);
        assert!(empty.tag_bytes.is_empty());
        assert_eq!(empty.generations.len(), 1);
        assert_eq!(empty.generations[0].events, 0);
        assert!(!empty.generations[0].closed);

        // A torn tail shrinks the counted prefix, same rule as the audit.
        let bytes = journal_with_checkpoint();
        let torn = &bytes[..bytes.len() - 3];
        let stats = stats_of(torn);
        let total: usize = stats.tag_bytes.iter().map(|&(_, _, b)| b).sum();
        assert!(total < torn.len());
        assert_eq!(
            total,
            audit_bytes(torn).bytes - audit_bytes(torn).dropped_bytes
        );
    }
}
