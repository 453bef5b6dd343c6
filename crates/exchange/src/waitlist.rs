//! Wake-on-insert waitlist for claimed courses: sessions that hit
//! `SoftServe::Busy` (another session's course for the same `(evaluation
//! key, bundle)` is outstanding) park here, and the router requeues them
//! when it applies that course — no redispatch churn under same-bundle
//! contention.
//!
//! ## Wake protocol
//!
//! Both sides run on the router under the exchange's state lock, one
//! after the other, so the protocol is plain ordering:
//!
//! 1. Waiter (inside its slice): check the session back into the store,
//!    then [`CourseWaitlist::enqueue`] its id.
//! 2. Router, applying the claim holder's course (between slices): land
//!    the outcome — insert the result on success, or just release the
//!    claim on error — then [`CourseWaitlist::drain`] the key and requeue
//!    every drained id.
//!
//! A claim is settled only in step 2, never while a waiter is between
//! its `Busy` and its enqueue, so a waiter cannot miss its wake, and each
//! parked session is requeued exactly once. A course that *fails* wakes
//! its waiters too: they retry, re-claim one at a time, and surface the
//! provider error on their own sessions instead of sleeping forever.

use std::collections::HashMap;

use crate::store::SessionId;

/// `(evaluation key, bundle bits) -> waiting session ids`. Plain data in
/// the exchange's state: operations are O(waiters-per-key) pointer work
/// on a cold path (a wait already implies a course is outstanding).
#[derive(Debug, Default)]
pub(crate) struct CourseWaitlist {
    waiting: HashMap<(u64, u64), Vec<SessionId>>,
}

impl CourseWaitlist {
    /// Registers `id` as waiting on `key`. The caller must have checked the
    /// session into the store first (see the module doc).
    pub(crate) fn enqueue(&mut self, key: (u64, u64), id: SessionId) {
        self.waiting.entry(key).or_default().push(id);
    }

    /// Takes every session waiting on `key`; the caller must requeue them.
    pub(crate) fn drain(&mut self, key: (u64, u64)) -> Vec<SessionId> {
        self.waiting.remove(&key).unwrap_or_default()
    }

    /// Total sessions currently parked (all keys).
    pub(crate) fn waiting(&self) -> usize {
        self.waiting.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K1: (u64, u64) = (7, 0b01);
    const K2: (u64, u64) = (7, 0b10);

    #[test]
    fn drain_takes_exactly_the_keys_waiters() {
        let mut wl = CourseWaitlist::default();
        wl.enqueue(K1, SessionId(1));
        wl.enqueue(K1, SessionId(2));
        wl.enqueue(K2, SessionId(3));
        assert_eq!(wl.waiting(), 3);
        let woken = wl.drain(K1);
        assert_eq!(woken, vec![SessionId(1), SessionId(2)]);
        assert_eq!(wl.waiting(), 1, "other keys untouched");
        assert!(wl.drain(K1).is_empty(), "drain is take, not copy");
    }
}
