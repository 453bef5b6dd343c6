//! Distributed engine: the same three-step protocol as [`crate::engine`],
//! but with the two parties running in *separate threads* and exchanging
//! only the serde wire messages of [`vfl_sim::protocol`] over channels —
//! the deployment shape of production 1v1 VFL, where the parties talk
//! directly without a server (§3.6).
//!
//! Nothing but `Quote`, `Offer`, `GainReport`, and `Settle` messages crosses
//! the boundary: the data party never sees the buyer's utility surplus, the
//! task party never sees reserved prices, exactly as in the in-process
//! engine — but here the isolation is structural, enforced by the channel.
//!
//! The task side is a thin driver over
//! [`crate::session::NegotiationSession`]: every `AwaitOffer` suspension is
//! answered over the wire, every `AwaitGain` by running the course locally.
//!
//! ## Backpressure semantics
//!
//! Both channels are *bounded* with capacity
//! [`MarketConfig::channel_capacity`] messages per direction, and `send`
//! blocks when the peer's inbox is full. The protocol is strictly
//! turn-based — at most one quote, one offer, and one gain-report (plus its
//! bundle echo) are ever in flight — so capacity 1 (the default) never
//! blocks a well-behaved party for long: each party drains its inbox before
//! producing its next message. Raising the capacity only matters for
//! transports or strategies that pipeline messages (e.g. a streaming
//! re-quote extension); it trades memory for slack and cannot change the
//! negotiation outcome, because the state machine consumes messages in
//! protocol order regardless of how many are buffered.

use crate::config::MarketConfig;
use crate::engine::Outcome;
use crate::error::{MarketError, Result};
use crate::gain::GainProvider;
use crate::listing::Listing;
use crate::session::{NegotiationSession, SessionEffect, SessionEvent};
use crate::strategy::{DataContext, DataResponse, DataStrategy, TaskStrategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc::sync_channel;
use vfl_sim::protocol::{GainReportMsg, Message, OfferMsg, QuoteMsg};

/// Runs a negotiation with the data party in its own thread. Produces the
/// same outcome type as the in-process engine; the per-party RNG streams
/// are derived independently (`seed ^ TASK` / `seed ^ DATA`), so traces are
/// reproducible but not bit-identical to [`crate::engine::run_bargaining`].
pub fn run_bargaining_distributed<G: GainProvider + Sync + ?Sized>(
    provider: &G,
    listings: &[Listing],
    task: &mut (dyn TaskStrategy + Send),
    data: &mut (dyn DataStrategy + Send),
    cfg: &MarketConfig,
) -> Result<Outcome> {
    cfg.validate()?;
    if listings.is_empty() {
        return Err(MarketError::InvalidConfig("empty listing table".into()));
    }
    let cap = cfg.channel_capacity;
    let (to_data, data_inbox) = sync_channel::<Message>(cap);
    let (to_task, task_inbox) = sync_channel::<Message>(cap);

    std::thread::scope(|scope| {
        // ---------------- data-party thread ----------------
        // It owns its inbox and its sender (an mpsc endpoint is not
        // shareable across threads); the references it uses are copied in.
        let data_handle = scope.spawn(move || -> Result<()> {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xda7a_0001);
            loop {
                let msg = data_inbox
                    .recv()
                    .map_err(|_| MarketError::StrategyError("task channel closed".into()))?;
                match msg {
                    Message::Quote(q) => {
                        let quote = crate::price::QuotedPrice::new(q.rate, q.base, q.cap)?;
                        let exploring = q.round <= cfg.explore_rounds;
                        let ctx = DataContext::at_round(cfg, q.round, exploring, &quote);
                        let response = data.respond(&ctx, listings, cfg, &mut rng)?;
                        let offer = match response {
                            DataResponse::Withdraw => OfferMsg::Withdraw { round: q.round },
                            DataResponse::Offer { listing, is_final } => {
                                if listing >= listings.len() {
                                    return Err(MarketError::StrategyError(format!(
                                        "offered listing {listing} out of range"
                                    )));
                                }
                                OfferMsg::Bundle {
                                    bundle: listings[listing].bundle,
                                    is_final,
                                    round: q.round,
                                }
                            }
                        };
                        to_task.send(Message::Offer(offer)).map_err(|_| {
                            MarketError::StrategyError("task went away mid-round".into())
                        })?;
                    }
                    Message::GainReport(report) => {
                        // The bundle echo follows immediately; learn from the
                        // course (the imperfect-information g trains here).
                        if let Ok(Message::Offer(OfferMsg::Bundle { bundle, .. })) =
                            data_inbox.recv()
                        {
                            data.observe_course(bundle, report.gain);
                        }
                    }
                    Message::Settle(_) => return Ok(()),
                    other => {
                        return Err(MarketError::StrategyError(format!(
                            "unexpected message on data side: {other:?}"
                        )))
                    }
                }
            }
        });

        // ---------------- task-party side (this thread) ----------------
        let mut run_task = || -> Result<Outcome> {
            let mut session = NegotiationSession::with_rng_seed(*cfg, cfg.seed ^ 0x7a5c_0002)?;
            let mut effect = session.step(SessionEvent::Start, listings, task)?;
            loop {
                effect = match effect {
                    SessionEffect::AwaitOffer { quote, round, .. } => {
                        to_data
                            .send(Message::Quote(QuoteMsg {
                                rate: quote.rate,
                                base: quote.base,
                                cap: quote.cap,
                                round,
                            }))
                            .map_err(|_| MarketError::StrategyError("data went away".into()))?;
                        let offer = match task_inbox.recv() {
                            Ok(Message::Offer(o)) => o,
                            Ok(other) => {
                                return Err(MarketError::StrategyError(format!(
                                    "unexpected message on task side: {other:?}"
                                )))
                            }
                            Err(_) => {
                                return Err(MarketError::StrategyError(
                                    "data channel closed".into(),
                                ))
                            }
                        };
                        let response = match offer {
                            OfferMsg::Withdraw { .. } => DataResponse::Withdraw,
                            OfferMsg::Bundle {
                                bundle, is_final, ..
                            } => {
                                let listing = listings
                                    .iter()
                                    .position(|l| l.bundle == bundle)
                                    .ok_or_else(|| {
                                        MarketError::StrategyError(format!(
                                            "offered bundle {bundle} not in the listing table"
                                        ))
                                    })?;
                                DataResponse::Offer { listing, is_final }
                            }
                        };
                        session.step(SessionEvent::Offer(response), listings, task)?
                    }
                    SessionEffect::AwaitGain {
                        bundle,
                        round,
                        final_offer,
                        ..
                    } => {
                        let gain = provider.gain(bundle)?;
                        to_data
                            .send(Message::GainReport(GainReportMsg { gain, round }))
                            .map_err(|_| MarketError::StrategyError("data went away".into()))?;
                        // Echo the bundle back so the seller can label its
                        // sample.
                        to_data
                            .send(Message::Offer(OfferMsg::Bundle {
                                bundle,
                                is_final: final_offer,
                                round,
                            }))
                            .map_err(|_| MarketError::StrategyError("data went away".into()))?;
                        session.step(SessionEvent::Gain(gain), listings, task)?
                    }
                    SessionEffect::Finished(outcome) => {
                        // Forward the settlement (the session always puts
                        // one in the transcript) so the data thread exits
                        // cleanly.
                        if let Some(settle) = outcome.transcript.settlement() {
                            let _ = to_data.send(Message::Settle(settle));
                        }
                        return Ok(*outcome);
                    }
                };
            }
        };
        let outcome = run_task();
        // The Settle send above (or an error) ends the data thread; dropping
        // the channel also unblocks it.
        drop(to_data);
        let data_result = data_handle.join().expect("data-party thread panicked");
        match (&outcome, data_result) {
            (Ok(_), Err(e)) => Err(e),
            _ => outcome,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_bargaining, FailureReason, OutcomeStatus};
    use crate::gain::TableGainProvider;
    use crate::price::ReservedPrice;
    use crate::strategy::{StrategicData, StrategicTask};
    use vfl_sim::BundleMask;

    fn market() -> (TableGainProvider, Vec<Listing>, Vec<f64>) {
        let gains = vec![0.05, 0.12, 0.20, 0.30];
        let listings: Vec<Listing> = [(3.5, 0.5), (7.0, 1.0), (9.0, 1.2), (11.0, 1.5)]
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

    #[test]
    fn distributed_reaches_the_same_terminal_bundle() {
        let (provider, listings, gains) = market();
        for seed in 0..6 {
            let mut t1 = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
            let mut d1 = StrategicData::with_gains(gains.clone());
            let local = run_bargaining(&provider, &listings, &mut t1, &mut d1, &cfg(seed)).unwrap();

            let mut t2 = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
            let mut d2 = StrategicData::with_gains(gains.clone());
            let dist =
                run_bargaining_distributed(&provider, &listings, &mut t2, &mut d2, &cfg(seed))
                    .unwrap();

            assert!(local.is_success() && dist.is_success(), "seed {seed}");
            assert_eq!(
                local.final_record().unwrap().gain,
                dist.final_record().unwrap().gain,
                "seed {seed}: both engines must converge to the same bundle"
            );
        }
    }

    #[test]
    fn distributed_is_deterministic() {
        let (provider, listings, gains) = market();
        let run = || {
            let mut t = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
            let mut d = StrategicData::with_gains(gains.clone());
            run_bargaining_distributed(&provider, &listings, &mut t, &mut d, &cfg(5)).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn distributed_transcript_settles() {
        let (provider, listings, gains) = market();
        let mut t = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
        let mut d = StrategicData::with_gains(gains);
        let outcome =
            run_bargaining_distributed(&provider, &listings, &mut t, &mut d, &cfg(7)).unwrap();
        assert!(outcome.transcript.settlement().is_some());
        assert_eq!(outcome.transcript.quotes().len(), outcome.n_rounds());
    }

    #[test]
    fn distributed_withdraw_fails_cleanly() {
        let (provider, listings, gains) = market();
        let mut t = StrategicTask::new(0.30, 1.0, 0.1).unwrap();
        let mut d = StrategicData::with_gains(gains);
        let tiny = MarketConfig {
            budget: 0.45,
            rate_cap: 1.2,
            ..cfg(9)
        };
        let outcome =
            run_bargaining_distributed(&provider, &listings, &mut t, &mut d, &tiny).unwrap();
        assert_eq!(
            outcome.status,
            OutcomeStatus::Failed {
                reason: FailureReason::NoAffordableBundle
            }
        );
    }

    #[test]
    fn empty_listings_rejected() {
        let (provider, _, gains) = market();
        let mut t = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
        let mut d = StrategicData::with_gains(gains);
        assert!(run_bargaining_distributed(&provider, &[], &mut t, &mut d, &cfg(1)).is_err());
    }

    #[test]
    fn wider_channels_change_nothing() {
        // The protocol is turn-based, so channel capacity must not affect
        // the negotiated outcome — only buffering slack.
        let (provider, listings, gains) = market();
        let run = |capacity: usize| {
            let mut t = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
            let mut d = StrategicData::with_gains(gains.clone());
            let c = MarketConfig {
                channel_capacity: capacity,
                ..cfg(11)
            };
            run_bargaining_distributed(&provider, &listings, &mut t, &mut d, &c).unwrap()
        };
        let narrow = run(1);
        let wide = run(64);
        assert_eq!(narrow, wide);
    }
}
