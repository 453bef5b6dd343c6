//! Exchange-side session wrapper: a [`NegotiationSession`] bundled with its
//! owned strategies and a handle to its market, driven in *slices* — the
//! cheap strategy steps run inline, and the session parks whenever it needs
//! a ΔG so the router can serve the course through the shared cache.
//!
//! ## Invariants
//!
//! * `pending_bundle()` is `Some` exactly while the underlying machine is
//!   suspended at `AwaitGain`; `ActiveSession::drive` must be fed the
//!   matching ΔG (`Some`) then, and `None` only on the very first drive of
//!   a fresh session — any other combination is a driver bug and errors.
//! * A matching-tier candidate carries a `MatchTag`; until the tag is
//!   released, `ActiveSession::probe_parked`
//!   goes true the moment the session both (a) needs a course and (b) has
//!   completed `probe_rounds` quote rounds — the slice then parks it for
//!   settlement instead of paying for another training.
//! * `ActiveSession::cancel` is terminal: it closes the machine with
//!   `FailureReason::Cancelled` and settles the transcript; the wrapper
//!   must not be driven afterwards.

use std::sync::Arc;
use vfl_market::session::{Advance, NegotiationSession, SessionEffect, SessionEvent};
use vfl_market::{
    DataStrategy, Listing, MarketConfig, MarketError, Outcome, Result, RoundRecord, TaskStrategy,
};
use vfl_sim::BundleMask;

use crate::exchange::MarketId;
use crate::matching::DemandId;

/// The most rounds a candidate's log is reserved for up front.
const RESERVED_ROUNDS: u32 = 64;

/// Everything a submitter provides for one negotiation: the market-config
/// template (seed included) and the two owned strategies.
pub struct SessionOrder {
    /// Bargaining configuration, seed included (validated at submit).
    pub cfg: MarketConfig,
    /// The task party (buyer) strategy, owned by the session.
    pub task: Box<dyn TaskStrategy + Send>,
    /// The data party (seller) strategy, owned by the session.
    pub data: Box<dyn DataStrategy + Send>,
}

/// Matching-tier bookkeeping riding on a candidate session: which demand
/// and slot it reports to, its probe horizon, and whether settlement has
/// released it to run past that horizon.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatchTag {
    /// The demand this candidate belongs to.
    pub(crate) demand: DemandId,
    /// This candidate's slot index within the demand.
    pub(crate) slot: usize,
    /// Quote rounds to complete before parking for settlement.
    pub(crate) probe_rounds: u32,
    /// Set by settlement when this candidate wins: the horizon no longer
    /// applies and terminal states are no longer reported to the demand.
    pub(crate) released: bool,
}

/// What one drive slice produced.
pub(crate) enum Drive {
    /// The session parked on a course (Step 3 suspension); the needed
    /// bundle is readable via [`ActiveSession::pending_bundle`].
    NeedGain,
    /// The negotiation closed.
    Done(Box<Outcome>),
}

/// A live session owned by the exchange.
pub(crate) struct ActiveSession {
    pub(crate) market: MarketId,
    session: NegotiationSession,
    task: Box<dyn TaskStrategy + Send>,
    data: Box<dyn DataStrategy + Send>,
    listings: Arc<Vec<Listing>>,
    /// The bundle whose course result the session is parked on.
    pending: Option<BundleMask>,
    /// Matching-tier bookkeeping (`None` for plain `submit` sessions).
    match_tag: Option<MatchTag>,
    /// Telemetry stamp: clock reading when the session was (re)queued,
    /// consumed by the next slice's dispatch-wait histogram. Only set
    /// while an `ExchangeTelemetry` is attached; never read by any
    /// scheduling or protocol decision (observe-only).
    enqueued_ns: Option<u64>,
}

impl ActiveSession {
    pub(crate) fn new(
        market: MarketId,
        listings: Arc<Vec<Listing>>,
        order: SessionOrder,
    ) -> Result<Self> {
        Ok(ActiveSession {
            market,
            session: NegotiationSession::new(order.cfg)?,
            task: order.task,
            data: order.data,
            listings,
            pending: None,
            match_tag: None,
            enqueued_ns: None,
        })
    }

    /// Stamps the queue-entry time for the dispatch-wait histogram.
    pub(crate) fn stamp_enqueued(&mut self, ns: u64) {
        self.enqueued_ns = Some(ns);
    }

    /// Consumes the queue-entry stamp (the dispatching slice reads it
    /// exactly once).
    pub(crate) fn take_enqueued_ns(&mut self) -> Option<u64> {
        self.enqueued_ns.take()
    }

    /// The listing table the session negotiates over.
    #[cfg(test)]
    pub(crate) fn listings(&self) -> &Arc<Vec<Listing>> {
        &self.listings
    }

    /// The bundle this session is waiting on, if parked.
    pub(crate) fn pending_bundle(&self) -> Option<BundleMask> {
        self.pending
    }

    /// Number of completed bargaining rounds so far.
    pub(crate) fn rounds_so_far(&self) -> usize {
        self.session.n_rounds()
    }

    /// Stamps the quoting data party's identity on the transcript.
    pub(crate) fn tag_seller(&mut self, name: &str) {
        self.session.tag_seller(name);
    }

    /// Reserves exactly the log of a candidate that parks at its
    /// `probe_rounds` horizon, so a losing candidate never reallocates it.
    /// Horizons past [`RESERVED_ROUNDS`] reserve that many rounds only: a
    /// long horizon mostly serves candidates that conclude before it.
    pub(crate) fn reserve_probe_log(&mut self, probe_rounds: u32) {
        self.session
            .reserve_rounds(probe_rounds.min(RESERVED_ROUNDS));
    }

    /// Attaches matching-tier bookkeeping (fan-out time only).
    pub(crate) fn set_match_tag(&mut self, tag: MatchTag) {
        self.match_tag = Some(tag);
    }

    /// The matching-tier tag, if this is a candidate session.
    pub(crate) fn match_tag(&self) -> Option<&MatchTag> {
        self.match_tag.as_ref()
    }

    /// Lifts the probe horizon after this candidate wins its demand.
    pub(crate) fn release(&mut self) {
        if let Some(tag) = &mut self.match_tag {
            tag.released = true;
        }
    }

    /// True when an unreleased candidate has hit its probe horizon: it
    /// needs a course *and* has already completed `probe_rounds` quote
    /// rounds — park it for settlement instead of training again.
    pub(crate) fn probe_parked(&self) -> bool {
        match &self.match_tag {
            Some(tag) if !tag.released => {
                self.pending.is_some() && self.session.n_rounds() >= tag.probe_rounds as usize
            }
            _ => false,
        }
    }

    /// The last completed quote round — the standing quote a parked
    /// candidate reports to its demand. `None` before any course ran.
    pub(crate) fn standing_quote(&self) -> Option<RoundRecord> {
        self.session.rounds().last().copied()
    }

    /// Every completed round so far (cloned) — the probe history a
    /// matching candidate hands to its demand at report time, so the
    /// per-seller probe spend survives a later cancellation.
    pub(crate) fn round_history(&self) -> Vec<RoundRecord> {
        self.session.rounds().to_vec()
    }

    /// Terminates the negotiation with `FailureReason::Cancelled` (orderly:
    /// the transcript gets its settlement message) and yields the outcome.
    /// Settlement applies this to parked losing candidates; the session
    /// must not be driven afterwards.
    pub(crate) fn cancel(&mut self) -> Result<Box<Outcome>> {
        self.pending = None;
        match self
            .session
            .step(SessionEvent::Cancel, &self.listings, self.task.as_mut())?
        {
            SessionEffect::Finished(outcome) => Ok(outcome),
            effect => Err(MarketError::StrategyError(format!(
                "cancel must close the session, got {effect:?}"
            ))),
        }
    }

    /// Advances the session until it parks on a course or finishes, through
    /// the same protocol driver as `vfl_market::run_bargaining`. `gain`
    /// must be `Some` exactly when the session is parked
    /// ([`Self::pending_bundle`] is `Some`) and carries that course's ΔG.
    pub(crate) fn drive(&mut self, gain: Option<f64>) -> Result<Drive> {
        let course = match (self.pending.take(), gain) {
            (Some(bundle), Some(g)) => Some((bundle, g)),
            // A second start is the session machine's own protocol error.
            (None, None) => None,
            (pending, _) => {
                self.pending = pending;
                return Err(MarketError::StrategyError(
                    "exchange drive/park mismatch".into(),
                ));
            }
        };
        match self.session.advance(
            course,
            &self.listings,
            self.task.as_mut(),
            self.data.as_mut(),
        )? {
            Advance::NeedGain(bundle) => {
                self.pending = Some(bundle);
                Ok(Drive::NeedGain)
            }
            Advance::Done(outcome) => Ok(Drive::Done(outcome)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfl_market::{
        run_bargaining, GainProvider, ReservedPrice, StrategicData, StrategicTask,
        TableGainProvider,
    };

    fn market() -> (TableGainProvider, Arc<Vec<Listing>>, Vec<f64>) {
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
        (provider, Arc::new(listings), gains)
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
    fn sliced_driving_matches_run_bargaining() {
        let (provider, listings, gains) = market();
        for seed in 0..6 {
            let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
            let mut data = StrategicData::with_gains(gains.clone());
            let reference =
                run_bargaining(&provider, &listings[..], &mut task, &mut data, &cfg(seed)).unwrap();

            let order = SessionOrder {
                cfg: cfg(seed),
                task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap()),
                data: Box::new(StrategicData::with_gains(gains.clone())),
            };
            let mut active = ActiveSession::new(MarketId(0), listings.clone(), order).unwrap();
            let mut gain = None;
            let outcome = loop {
                match active.drive(gain.take()).unwrap() {
                    Drive::NeedGain => {
                        let bundle = active.pending_bundle().unwrap();
                        gain = Some(provider.gain(bundle).unwrap());
                    }
                    Drive::Done(outcome) => break *outcome,
                }
            };
            assert_eq!(outcome, reference, "seed {seed}");
        }
    }

    #[test]
    fn a_candidate_cancelled_at_its_horizon_fills_its_reserved_log_exactly() {
        let (provider, listings, gains) = market();
        for probe_rounds in 1..=3u32 {
            let mut parked = 0;
            for seed in 0..6 {
                let order = SessionOrder {
                    cfg: cfg(seed),
                    task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap()),
                    data: Box::new(StrategicData::with_gains(gains.clone())),
                };
                let mut active = ActiveSession::new(MarketId(0), listings.clone(), order).unwrap();
                active.reserve_probe_log(probe_rounds);
                active.set_match_tag(MatchTag {
                    demand: DemandId(0),
                    slot: 0,
                    probe_rounds,
                    released: false,
                });
                let mut gain = None;
                let closed_early = loop {
                    if let Drive::Done(_) = active.drive(gain.take()).unwrap() {
                        break true;
                    }
                    if active.probe_parked() {
                        break false;
                    }
                    let bundle = active.pending_bundle().unwrap();
                    gain = Some(provider.gain(bundle).unwrap());
                };
                if closed_early {
                    continue;
                }
                parked += 1;
                let outcome = active.cancel().unwrap();
                let (rounds, messages) = (probe_rounds as usize, 3 * probe_rounds as usize + 3);
                assert_eq!(outcome.rounds.len(), rounds, "seed {seed}");
                assert_eq!(
                    outcome.rounds.capacity(),
                    rounds,
                    "seed {seed}: records grew"
                );
                assert_eq!(outcome.transcript.len(), messages, "seed {seed}");
                assert_eq!(
                    outcome.transcript.capacity(),
                    messages,
                    "seed {seed}: transcript grew"
                );
            }
            assert!(parked > 0, "horizon {probe_rounds}: no seed parked");
        }
    }

    #[test]
    fn drive_park_mismatch_is_an_error() {
        let (_, listings, gains) = market();
        let order = SessionOrder {
            cfg: cfg(1),
            task: Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap()),
            data: Box::new(StrategicData::with_gains(gains)),
        };
        let mut active = ActiveSession::new(MarketId(0), listings, order).unwrap();
        // Feeding a gain before the session ever parked is a driver bug.
        assert!(active.drive(Some(0.3)).is_err());
        // The session is still fresh and drivable.
        assert!(matches!(active.drive(None), Ok(Drive::NeedGain)));
    }
}
