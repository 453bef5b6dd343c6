//! The session store: one map from [`SessionId`] to session slots, owned
//! by the exchange's state (`Exchange`'s single state lock guards it with
//! everything else the router touches). The router *checks out* a session,
//! drives it, and checks it back in within one slice; since a slice holds
//! the state lock throughout, no caller ever observes a session
//! mid-slice.
//!
//! ## Ownership discipline
//!
//! A `Ready` slot is owned by whoever removes it via `check_out`, which
//! is what makes the exchange's parked states sound: a session parked for
//! a course wait or a matching settlement sits here as `Ready` but in
//! *no* queue, so the only path back to the router is the single wake its
//! parker arranged (waitlist drain or settlement action). Terminal slots
//! (`Done`/`Failed`) are immutable until `take_outcome` evicts them; a
//! `check_out` against one returns `None`, which the dispatch path treats
//! as a spurious wake, not an error.

use vfl_market::{MarketError, Outcome};

use crate::session::ActiveSession;
use crate::IdMap;

/// Opaque session handle returned by `submit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Externally visible session state (what `poll` returns).
#[derive(Debug, Clone)]
pub enum SessionStatus {
    /// Submitted and not yet terminal: waiting for a slice, parked, or
    /// suspended on a course.
    Queued {
        /// Bargaining rounds completed so far (0 until the first course).
        rounds: usize,
    },
    /// Closed with a negotiated outcome.
    Done(Box<Outcome>),
    /// Died on a hard error.
    Failed(String),
}

impl SessionStatus {
    /// True for `Done` / `Failed` — the session will not change again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, SessionStatus::Done(_) | SessionStatus::Failed(_))
    }
}

enum Slot {
    Ready(Box<ActiveSession>),
    Done(Box<Outcome>),
    Failed(MarketError),
}

/// `SessionId -> Slot` map.
#[derive(Default)]
pub(crate) struct SessionStore {
    slots: IdMap<u64, Slot>,
}

impl SessionStore {
    /// Registers a fresh session as ready to run.
    pub(crate) fn insert(&mut self, id: SessionId, session: ActiveSession) {
        let prev = self.slots.insert(id.0, Slot::Ready(Box::new(session)));
        debug_assert!(prev.is_none(), "session ids are unique");
    }

    /// Checks a ready session out for a slice. `None` when the id is
    /// unknown or terminal.
    pub(crate) fn check_out(&mut self, id: SessionId) -> Option<Box<ActiveSession>> {
        match self.slots.get(&id.0) {
            Some(Slot::Ready(_)) => match self.slots.remove(&id.0) {
                Some(Slot::Ready(session)) => Some(session),
                _ => unreachable!("slot was just observed Ready"),
            },
            _ => None,
        }
    }

    /// Returns a parked session to the store for its next slice.
    pub(crate) fn check_in(&mut self, id: SessionId, session: Box<ActiveSession>) {
        self.slots.insert(id.0, Slot::Ready(session));
    }

    /// Records a terminal state.
    pub(crate) fn finish(&mut self, id: SessionId, result: Result<Box<Outcome>, MarketError>) {
        let slot = match result {
            Ok(outcome) => Slot::Done(outcome),
            Err(e) => Slot::Failed(e),
        };
        self.slots.insert(id.0, slot);
    }

    /// Whether `id` has a slot in any state. Unlike [`Self::status`], it
    /// copies nothing (a terminal slot's status clones its outcome).
    pub(crate) fn contains(&self, id: SessionId) -> bool {
        self.slots.contains_key(&id.0)
    }

    /// Point-in-time status for `poll`.
    pub(crate) fn status(&self, id: SessionId) -> Option<SessionStatus> {
        Some(match self.slots.get(&id.0)? {
            Slot::Ready(session) => SessionStatus::Queued {
                rounds: session.rounds_so_far(),
            },
            Slot::Done(outcome) => SessionStatus::Done(outcome.clone()),
            Slot::Failed(e) => SessionStatus::Failed(e.to_string()),
        })
    }

    /// Removes and returns a *terminal* session's outcome. `None` when the
    /// id is unknown or the session is still live (live sessions cannot be
    /// evicted).
    pub(crate) fn take_outcome(
        &mut self,
        id: SessionId,
    ) -> Option<Result<Box<Outcome>, MarketError>> {
        match self.slots.get(&id.0) {
            Some(Slot::Done(_) | Slot::Failed(_)) => match self.slots.remove(&id.0) {
                Some(Slot::Done(outcome)) => Some(Ok(outcome)),
                Some(Slot::Failed(e)) => Some(Err(e)),
                _ => unreachable!("slot was just observed terminal"),
            },
            _ => None,
        }
    }

    /// Total sessions currently stored (any state).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// A sorted snapshot of every *terminal* slot, for the checkpoint
    /// path. `Err(live)` when any slot is still `Ready` — a checkpoint
    /// must not split a mid-flight session across the frame boundary, so
    /// the caller checkpoints only at drain-idle quiescence.
    #[allow(clippy::type_complexity)]
    pub(crate) fn snapshot_terminal(
        &self,
    ) -> Result<Vec<(SessionId, Result<Box<Outcome>, MarketError>)>, usize> {
        let mut out: Vec<(SessionId, Result<Box<Outcome>, MarketError>)> = Vec::new();
        let mut live = 0usize;
        for (&id, slot) in &self.slots {
            match slot {
                Slot::Done(outcome) => out.push((SessionId(id), Ok(outcome.clone()))),
                Slot::Failed(e) => out.push((SessionId(id), Err(e.clone()))),
                Slot::Ready(_) => live += 1,
            }
        }
        if live > 0 {
            return Err(live);
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        Ok(out)
    }
}
