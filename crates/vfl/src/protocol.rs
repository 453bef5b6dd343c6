//! Wire-format messages for the bargaining protocol (§3.3 Steps 1–3), kept
//! in the simulation crate so both the market engine and any transport can
//! speak them. All messages are serde-serializable; the `Transcript` type
//! records a full negotiation for audit/replay.
//!
//! Security note (paper §3.6): only quoted prices, bundle identifiers, and
//! the scalar performance gain cross the boundary — never raw features. HE /
//! SMC hardening of the comparisons is out of scope, as in the paper.

use crate::bundle::BundleMask;
use serde::{Deserialize, Serialize};

/// A quoted price on the wire: `(p, P0, Ph)` of Definition 2.2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuoteMsg {
    pub rate: f64,
    pub base: f64,
    pub cap: f64,
    pub round: u32,
}

/// The data party's response to a quote.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OfferMsg {
    /// A bundle offered for this round's VFL course; `is_final` marks the
    /// data party's acceptance (termination Case 2 / II).
    Bundle {
        bundle: BundleMask,
        is_final: bool,
        round: u32,
    },
    /// No affordable bundle (termination Case 1 / I).
    Withdraw { round: u32 },
}

/// The task party's report of the realized gain after the VFL course.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GainReportMsg {
    pub gain: f64,
    pub round: u32,
}

/// Final settlement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SettleMsg {
    /// Transaction succeeded with this payment.
    Pay { amount: f64, round: u32 },
    /// Transaction failed (termination Cases 1/4 or round limit).
    Abort { round: u32 },
}

/// Any protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Message {
    Quote(QuoteMsg),
    Offer(OfferMsg),
    GainReport(GainReportMsg),
    Settle(SettleMsg),
}

impl Message {
    /// The round the message belongs to.
    pub fn round(&self) -> u32 {
        match self {
            Message::Quote(m) => m.round,
            Message::Offer(OfferMsg::Bundle { round, .. }) => *round,
            Message::Offer(OfferMsg::Withdraw { round }) => *round,
            Message::GainReport(m) => m.round,
            Message::Settle(SettleMsg::Pay { round, .. }) => *round,
            Message::Settle(SettleMsg::Abort { round }) => *round,
        }
    }
}

/// An append-only log of protocol messages, optionally stamped with the
/// identity of the quoting data party.
///
/// The paper's 1×1 mechanism needs no party identity — there is exactly one
/// counterparty. A marketplace that fans one demand out to *several* data
/// parties does: each candidate negotiation's transcript must name which
/// seller quoted it, or the audit trail of a settled match is ambiguous.
/// The tag is `None` for direct engine runs and is set via
/// [`Transcript::set_seller`] by mediating tiers; it participates in
/// equality and serialization like any other recorded fact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Transcript {
    messages: Vec<Message>,
    seller: Option<String>,
}

impl Transcript {
    /// Appends a message, enforcing non-decreasing rounds.
    pub fn push(&mut self, msg: Message) {
        if let Some(last) = self.messages.last() {
            assert!(
                msg.round() >= last.round(),
                "protocol rounds must not decrease"
            );
        }
        self.messages.push(msg);
    }

    /// Reserves room for exactly `additional` more messages, so a caller
    /// that knows how long the log will grow never reallocates it.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.messages.reserve_exact(additional);
    }

    /// Messages the log holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.messages.capacity()
    }

    /// All messages in order.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// True if no messages were recorded.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Quotes in order (convenience for analysis).
    pub fn quotes(&self) -> Vec<QuoteMsg> {
        self.messages
            .iter()
            .filter_map(|m| {
                if let Message::Quote(q) = m {
                    Some(*q)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Identity of the quoting data party, when a mediating tier stamped
    /// one (`None` for direct 1×1 engine runs).
    pub fn seller(&self) -> Option<&str> {
        self.seller.as_deref()
    }

    /// Stamps the quoting data party's identity (idempotent; the last write
    /// wins — marketplaces stamp once, at fan-out time).
    pub fn set_seller(&mut self, name: impl Into<String>) {
        self.seller = Some(name.into());
    }

    /// The settlement, if the negotiation closed.
    pub fn settlement(&self) -> Option<SettleMsg> {
        self.messages.iter().rev().find_map(|m| {
            if let Message::Settle(s) = m {
                Some(*s)
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_orders_rounds() {
        let mut t = Transcript::default();
        t.push(Message::Quote(QuoteMsg {
            rate: 1.0,
            base: 0.5,
            cap: 2.0,
            round: 1,
        }));
        t.push(Message::Offer(OfferMsg::Bundle {
            bundle: BundleMask::singleton(0),
            is_final: false,
            round: 1,
        }));
        t.push(Message::GainReport(GainReportMsg {
            gain: 0.1,
            round: 1,
        }));
        t.push(Message::Settle(SettleMsg::Pay {
            amount: 1.2,
            round: 2,
        }));
        assert_eq!(t.len(), 4);
        assert_eq!(t.quotes().len(), 1);
        assert!(matches!(t.settlement(), Some(SettleMsg::Pay { .. })));
    }

    #[test]
    #[should_panic(expected = "rounds must not decrease")]
    fn transcript_rejects_rewinds() {
        let mut t = Transcript::default();
        t.push(Message::Quote(QuoteMsg {
            rate: 1.0,
            base: 0.5,
            cap: 2.0,
            round: 2,
        }));
        t.push(Message::Quote(QuoteMsg {
            rate: 1.0,
            base: 0.5,
            cap: 2.0,
            round: 1,
        }));
    }

    #[test]
    fn message_round_extraction() {
        assert_eq!(Message::Offer(OfferMsg::Withdraw { round: 7 }).round(), 7);
        assert_eq!(Message::Settle(SettleMsg::Abort { round: 3 }).round(), 3);
    }

    #[test]
    fn empty_transcript() {
        let t = Transcript::default();
        assert!(t.is_empty());
        assert!(t.settlement().is_none());
    }

    #[test]
    fn seller_identity_is_recorded_and_compared() {
        let mut a = Transcript::default();
        let b = Transcript::default();
        assert_eq!(a.seller(), None);
        assert_eq!(a, b);
        a.set_seller("acme-data");
        assert_eq!(a.seller(), Some("acme-data"));
        assert_ne!(a, b, "the seller stamp is a recorded fact");
    }
}
