//! The sharded session store: `N` independently locked maps from
//! [`SessionId`] to session slots, so external submit/poll/take calls and
//! the router's slices spread across locks instead of serializing on one
//! registry mutex. The router *checks out* a session (leaving a `Running`
//! marker), drives it without holding any store lock, and checks it back
//! in — the store never holds a lock across strategy or course code.
//!
//! ## Ownership discipline
//!
//! A `Ready` slot is owned by whoever removes it via `check_out`; exactly
//! one caller can win that race per park/wake cycle, which is what makes
//! the exchange's parked states sound: a session parked for a course wait
//! or a matching settlement sits here as `Ready` but in *no* queue, so the
//! only path back to the router is the single wake its parker arranged
//! (waitlist drain or settlement action). Terminal slots (`Done`/`Failed`)
//! are immutable until `take_outcome` evicts them; a `check_out` against
//! one returns `None`, which the dispatch path treats as a spurious wake,
//! not an error.

use parking_lot::Mutex;
use std::collections::HashMap;
use vfl_market::{MarketError, Outcome};

use crate::session::ActiveSession;

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
    /// Submitted, waiting for a slice.
    Queued {
        /// Bargaining rounds completed so far (0 until the first course).
        rounds: usize,
    },
    /// Checked out by the router right now.
    Running,
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
    Running,
    Done(Box<Outcome>),
    Failed(MarketError),
}

/// Sharded `SessionId -> Slot` map.
pub(crate) struct SessionStore {
    shards: Vec<Mutex<HashMap<u64, Slot>>>,
}

impl SessionStore {
    pub(crate) fn new(n_shards: usize) -> Self {
        let n = n_shards.max(1);
        SessionStore {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, id: SessionId) -> &Mutex<HashMap<u64, Slot>> {
        &self.shards[(id.0 as usize) % self.shards.len()]
    }

    /// Registers a fresh session as ready to run.
    pub(crate) fn insert(&self, id: SessionId, session: ActiveSession) {
        let prev = self
            .shard(id)
            .lock()
            .insert(id.0, Slot::Ready(Box::new(session)));
        debug_assert!(prev.is_none(), "session ids are unique");
    }

    /// Checks a ready session out for a slice, leaving a `Running` marker.
    /// `None` when the id is unknown, already running, or terminal.
    pub(crate) fn check_out(&self, id: SessionId) -> Option<Box<ActiveSession>> {
        let mut shard = self.shard(id).lock();
        match shard.get(&id.0) {
            Some(Slot::Ready(_)) => match shard.insert(id.0, Slot::Running) {
                Some(Slot::Ready(session)) => Some(session),
                _ => unreachable!("slot was just observed Ready"),
            },
            _ => None,
        }
    }

    /// Returns a parked session to the store for its next slice.
    pub(crate) fn check_in(&self, id: SessionId, session: Box<ActiveSession>) {
        self.shard(id).lock().insert(id.0, Slot::Ready(session));
    }

    /// Records a terminal state.
    pub(crate) fn finish(&self, id: SessionId, result: Result<Box<Outcome>, MarketError>) {
        let slot = match result {
            Ok(outcome) => Slot::Done(outcome),
            Err(e) => Slot::Failed(e),
        };
        self.shard(id).lock().insert(id.0, slot);
    }

    /// Point-in-time status for `poll`.
    pub(crate) fn status(&self, id: SessionId) -> Option<SessionStatus> {
        let shard = self.shard(id).lock();
        Some(match shard.get(&id.0)? {
            Slot::Ready(session) => SessionStatus::Queued {
                rounds: session.rounds_so_far(),
            },
            Slot::Running => SessionStatus::Running,
            Slot::Done(outcome) => SessionStatus::Done(outcome.clone()),
            Slot::Failed(e) => SessionStatus::Failed(e.to_string()),
        })
    }

    /// Removes and returns a *terminal* session's outcome. `None` when the
    /// id is unknown or the session is still live (live sessions cannot be
    /// evicted).
    pub(crate) fn take_outcome(&self, id: SessionId) -> Option<Result<Box<Outcome>, MarketError>> {
        let mut shard = self.shard(id).lock();
        match shard.get(&id.0) {
            Some(Slot::Done(_) | Slot::Failed(_)) => match shard.remove(&id.0) {
                Some(Slot::Done(outcome)) => Some(Ok(outcome)),
                Some(Slot::Failed(e)) => Some(Err(e)),
                _ => unreachable!("slot was just observed terminal"),
            },
            _ => None,
        }
    }

    /// Total sessions currently stored (any state).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// A sorted snapshot of every *terminal* slot, for the checkpoint
    /// path. `Err(live)` when any slot is still `Ready`/`Running` — a
    /// checkpoint must not split a mid-flight session across the frame
    /// boundary, so the caller checkpoints only at drain-idle quiescence.
    #[allow(clippy::type_complexity)]
    pub(crate) fn snapshot_terminal(
        &self,
    ) -> Result<Vec<(SessionId, Result<Box<Outcome>, MarketError>)>, usize> {
        let mut out: Vec<(SessionId, Result<Box<Outcome>, MarketError>)> = Vec::new();
        let mut live = 0usize;
        for shard in &self.shards {
            for (&id, slot) in shard.lock().iter() {
                match slot {
                    Slot::Done(outcome) => out.push((SessionId(id), Ok(outcome.clone()))),
                    Slot::Failed(e) => out.push((SessionId(id), Err(e.clone()))),
                    Slot::Ready(_) | Slot::Running => live += 1,
                }
            }
        }
        if live > 0 {
            return Err(live);
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        Ok(out)
    }
}
