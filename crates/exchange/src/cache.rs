//! The exchange-wide ΔG evaluation cache: one memo table shared by
//! *every* session in the exchange, keyed by `(evaluation key, bundle)`.
//!
//! Course evaluation is the marketplace's hot path. Two markets registered
//! with the same evaluation key (same scenario, base model, and oracle
//! seed) produce identical ΔG for identical bundles, so their sessions
//! share cache lines. Misses on the *same* key are deduplicated through
//! the split-phase claim protocol (`SharedGainCache::serve_softly`): the
//! first requester claims the key and suspends while its course resolves
//! off-slot; later requesters see `SoftServe::Busy` and wait on the claim
//! itself until the router settles it (wake-on-insert, below).
//!
//! The cache is plain data: it lives in the exchange's state, behind the
//! one state lock, and every call is a `&mut self` step of the router
//! (or of a caller holding that lock). A lookup and the claim that
//! follows a miss are therefore one atomic step. It counts nothing: the
//! router bumps the exchange's `cache_hits` and `cache_misses` counters
//! where it serves a hit and where it applies a trained course.
//!
//! ## Wake protocol
//!
//! A claim owns its waiters, so a key's claim and the sessions parked
//! behind it are one entry. Both sides run on the router under the state
//! lock, one after the other, so the protocol is plain ordering:
//!
//! 1. Waiter (inside its slice): `serve_softly` answers `Busy` and
//!    registers the caller on the claim in the same step; the slice then
//!    checks the session back into the store, parked.
//! 2. Router, applying the claim holder's course (between slices):
//!    `complete` (success: the result lands) or `abort` (failure: nothing
//!    lands) settles the claim and hands back its waiters, which the
//!    router requeues before the payer resumes.
//!
//! A claim is settled only in step 2, never while a waiter is inside its
//! slice, so a waiter cannot miss its wake, and each parked session is
//! handed back exactly once. Woken waiters of a *failed* course retry,
//! re-claim one at a time, and surface the provider error on their own
//! sessions instead of sleeping forever.
//!
//! ## Invariants
//!
//! * A course never runs inside the cache; a training blocks only its
//!   `(evaluation key, bundle)` claim, never a lookup.
//! * At most one claim exists per key, and every claim is settled by
//!   exactly one `complete` or `abort` — a leaked claim would park its
//!   waiters forever.
//! * Results are insert-once: a landed ΔG is immutable, so waiters woken
//!   after the insert always read the landed value.

use std::collections::hash_map::Entry;
use vfl_sim::BundleMask;

use crate::store::SessionId;
use crate::IdMap;

/// `(evaluation key, bundle) -> ΔG` map plus the claim set that dedups
/// overlapping trainings of the same key, each claim with its waiters.
#[derive(Debug, Default)]
pub struct SharedGainCache {
    gains: IdMap<(u64, u64), f64>,
    /// Keys whose course is claimed and not yet settled, each with the
    /// sessions parked behind the claim (in arrival order).
    claims: IdMap<(u64, u64), Vec<SessionId>>,
}

/// Outcome of [`SharedGainCache::serve_softly`] — the split-phase serve
/// protocol. `Claimed` hands the caller the training claim *without*
/// running the course: the session suspends and the router settles the
/// claim when the course future resolves (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SoftServe {
    /// Served from cache.
    Hit(f64),
    /// The caller now owns the in-flight training claim for this key.
    Claimed,
    /// Another caller holds the claim; this caller now waits on it.
    Busy,
}

impl SharedGainCache {
    /// Cached ΔG for `bundle` under `eval_key`, if a course landed it.
    pub fn peek(&self, eval_key: u64, bundle: BundleMask) -> Option<f64> {
        self.gains.get(&(eval_key, bundle.0)).copied()
    }

    /// Inserts a course result directly, bypassing the claim protocol —
    /// the recovery preload path: the training was paid for by a previous
    /// life of the exchange, and the resumed drain reads it back as
    /// ordinary hits.
    pub fn insert(&mut self, eval_key: u64, bundle: BundleMask, gain: f64) {
        self.gains.insert((eval_key, bundle.0), gain);
    }

    /// Serves one course request of session `caller` without running the
    /// course: a hit returns immediately, a cold key hands the caller the
    /// claim ([`SoftServe::Claimed`]), and a claimed key registers the
    /// caller as one of the claim's waiters ([`SoftServe::Busy`]). The
    /// claim holder has the course resolved however it likes and MUST
    /// settle the claim with [`Self::complete`] or [`Self::abort`].
    pub(crate) fn serve_softly(
        &mut self,
        eval_key: u64,
        bundle: BundleMask,
        caller: SessionId,
    ) -> SoftServe {
        if let Some(g) = self.peek(eval_key, bundle) {
            return SoftServe::Hit(g);
        }
        match self.claims.entry((eval_key, bundle.0)) {
            Entry::Vacant(claim) => {
                claim.insert(Vec::new());
                SoftServe::Claimed
            }
            Entry::Occupied(mut claim) => {
                claim.get_mut().push(caller);
                SoftServe::Busy
            }
        }
    }

    /// Lands a successful training under a [`SoftServe::Claimed`] claim:
    /// inserts the result and releases the claim, handing back its
    /// waiters for the caller to requeue (each re-probe finds the value).
    pub(crate) fn complete(
        &mut self,
        eval_key: u64,
        bundle: BundleMask,
        gain: f64,
    ) -> Vec<SessionId> {
        self.insert(eval_key, bundle, gain);
        self.claims
            .remove(&(eval_key, bundle.0))
            .unwrap_or_default()
    }

    /// Releases a [`SoftServe::Claimed`] claim after a failed training,
    /// inserting nothing and handing back its waiters for the caller to
    /// requeue: they retry, and the first inherits a fresh claim.
    pub(crate) fn abort(&mut self, eval_key: u64, bundle: BundleMask) -> Vec<SessionId> {
        self.claims
            .remove(&(eval_key, bundle.0))
            .unwrap_or_default()
    }

    /// Sessions currently waiting on a claim (all keys).
    pub fn waiting(&self) -> usize {
        self.claims.values().map(Vec::len).sum()
    }

    /// Number of distinct `(evaluation key, bundle)` entries.
    pub fn len(&self) -> usize {
        self.gains.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.gains.is_empty()
    }

    /// A sorted snapshot of every `((evaluation key, bundle), ΔG)` entry —
    /// the checkpoint path's view of the cache, ordered by key so
    /// snapshots of equal caches are bit-identical.
    pub fn entries(&self) -> Vec<((u64, u64), f64)> {
        let mut out: Vec<((u64, u64), f64)> = self.gains.iter().map(|(&k, &g)| (k, g)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfl_market::{GainProvider, Result, TableGainProvider};

    const S: SessionId = SessionId(0);

    /// Serves `(eval_key, bundle)` the way the exchange does: a claim is
    /// settled at once with `gain`.
    fn serve(cache: &mut SharedGainCache, eval_key: u64, bundle: BundleMask, gain: f64) -> f64 {
        match cache.serve_softly(eval_key, bundle, S) {
            SoftServe::Hit(g) => g,
            SoftServe::Claimed => {
                assert!(cache.complete(eval_key, bundle, gain).is_empty());
                gain
            }
            SoftServe::Busy => panic!("no claim is outstanding"),
        }
    }

    /// Serves `(eval_key, bundle)` the way the router settles a course
    /// through a real provider: a claim is trained, then completed on
    /// success or aborted on failure.
    fn train(
        cache: &mut SharedGainCache,
        eval_key: u64,
        bundle: BundleMask,
        provider: &dyn GainProvider,
    ) -> Result<f64> {
        match cache.serve_softly(eval_key, bundle, S) {
            SoftServe::Hit(g) => Ok(g),
            SoftServe::Claimed => match provider.gain(bundle) {
                Ok(g) => {
                    cache.complete(eval_key, bundle, g);
                    Ok(g)
                }
                Err(e) => {
                    cache.abort(eval_key, bundle);
                    Err(e)
                }
            },
            SoftServe::Busy => panic!("no claim is outstanding"),
        }
    }

    fn provider() -> TableGainProvider {
        TableGainProvider::new([
            (BundleMask::singleton(0), 0.1),
            (BundleMask::singleton(1), 0.2),
        ])
    }

    #[test]
    fn serve_computes_once_then_hits() {
        let mut cache = SharedGainCache::default();
        let b = BundleMask::singleton(0);
        assert_eq!(cache.peek(3, b), None);
        assert_eq!(serve(&mut cache, 3, b, 0.1), 0.1);
        assert_eq!(
            serve(&mut cache, 3, b, 0.9),
            0.1,
            "the landed value is served"
        );
        assert_eq!(cache.serve_softly(3, b, S), SoftServe::Hit(0.1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evaluation_keys_are_isolated() {
        let mut cache = SharedGainCache::default();
        let b = BundleMask::singleton(1);
        serve(&mut cache, 1, b, 0.2);
        assert_eq!(cache.serve_softly(2, b, S), SoftServe::Claimed);
        cache.complete(2, b, 0.4);
        assert_eq!(cache.peek(1, b), Some(0.2), "distinct keys never share");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn provider_errors_propagate_and_do_not_cache() {
        let mut cache = SharedGainCache::default();
        let p = provider();
        let unknown = BundleMask::singleton(5);
        assert!(train(&mut cache, 0, unknown, &p).is_err());
        assert!(
            cache.peek(0, unknown).is_none(),
            "a failed course caches nothing"
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn serve_releases_the_claim_on_provider_error() {
        let mut cache = SharedGainCache::default();
        let p = provider();
        let unknown = BundleMask::singleton(9);
        assert!(train(&mut cache, 3, unknown, &p).is_err());
        assert!(cache.peek(3, unknown).is_none());
        // The claim must not leak: a provider that recovers can compute.
        let mut fixed = p.clone();
        fixed.insert(unknown, 0.5);
        assert_eq!(train(&mut cache, 3, unknown, &fixed).unwrap(), 0.5);
        assert_eq!(cache.serve_softly(3, unknown, S), SoftServe::Hit(0.5));
    }

    #[test]
    fn serve_softly_claim_protocol_round_trips() {
        let mut cache = SharedGainCache::default();
        let b = BundleMask::singleton(0);
        // Cold key: the first caller claims, contenders see Busy.
        assert_eq!(cache.serve_softly(5, b, S), SoftServe::Claimed);
        assert_eq!(cache.serve_softly(5, b, SessionId(1)), SoftServe::Busy);
        // Completion lands the value and releases the claim.
        cache.complete(5, b, 0.7);
        assert_eq!(cache.serve_softly(5, b, S), SoftServe::Hit(0.7));
    }

    /// An aborted claim leaves no trace: nothing lands, no waiter stays
    /// parked, and the next caller inherits a fresh claim. (Misses are
    /// counted by the router only where a trained course is applied, so
    /// a failed course is never a miss.)
    #[test]
    fn abort_releases_the_claim_without_counting_a_miss() {
        let mut cache = SharedGainCache::default();
        let b = BundleMask::singleton(2);
        assert_eq!(cache.serve_softly(6, b, S), SoftServe::Claimed);
        assert_eq!(cache.serve_softly(6, b, SessionId(1)), SoftServe::Busy);
        assert_eq!(cache.abort(6, b), vec![SessionId(1)]);
        assert!(cache.peek(6, b).is_none(), "a failed course caches nothing");
        assert!(cache.is_empty());
        assert_eq!(cache.waiting(), 0);
        // The next caller inherits a fresh claim — nothing leaked.
        assert_eq!(cache.serve_softly(6, b, SessionId(1)), SoftServe::Claimed);
        assert!(cache.complete(6, b, 0.3).is_empty());
        assert_eq!(cache.peek(6, b), Some(0.3));
    }

    /// Every `Busy` caller is handed back exactly once, by whichever of
    /// `complete` or `abort` settles its claim, and other keys' waiters
    /// stay parked.
    #[test]
    fn busy_waiters_are_handed_back_exactly_once() {
        let mut cache = SharedGainCache::default();
        let (b1, b2) = (BundleMask::singleton(0), BundleMask::singleton(1));
        assert_eq!(cache.serve_softly(7, b1, S), SoftServe::Claimed);
        assert_eq!(cache.serve_softly(7, b2, S), SoftServe::Claimed);
        assert_eq!(cache.serve_softly(7, b1, SessionId(1)), SoftServe::Busy);
        assert_eq!(cache.serve_softly(7, b1, SessionId(2)), SoftServe::Busy);
        assert_eq!(cache.serve_softly(7, b2, SessionId(3)), SoftServe::Busy);
        assert_eq!(cache.waiting(), 3);
        assert_eq!(cache.complete(7, b1, 0.1), vec![SessionId(1), SessionId(2)]);
        assert_eq!(cache.waiting(), 1, "other keys' waiters stay parked");
        assert!(
            cache.abort(7, b1).is_empty(),
            "a settled claim has no waiters"
        );
        assert_eq!(cache.abort(7, b2), vec![SessionId(3)]);
        assert!(cache.complete(7, b2, 0.2).is_empty(), "handed back once");
        assert_eq!(cache.waiting(), 0);
    }

    /// The claim set stays exact under contention: however requests
    /// interleave across threads sharing the cache through one mutex (as
    /// the exchange's state lock shares it), each key is trained exactly
    /// once. A claim and its completion take the lock separately, so
    /// contenders really do observe `Busy` in between.
    #[test]
    fn concurrent_access_converges() {
        let cache = std::sync::Mutex::new(SharedGainCache::default());
        let trained = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (cache, trained) = (&cache, &trained);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let bundle = BundleMask::singleton((i % 2) as usize);
                        loop {
                            let served = crate::lock(cache).serve_softly(9, bundle, SessionId(t));
                            match served {
                                SoftServe::Hit(g) => {
                                    assert_eq!(g, 0.1 * (i % 2 + 1) as f64);
                                    break;
                                }
                                SoftServe::Claimed => {
                                    trained.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                                    crate::lock(cache).complete(
                                        9,
                                        bundle,
                                        0.1 * (i % 2 + 1) as f64,
                                    );
                                    break;
                                }
                                SoftServe::Busy => std::thread::yield_now(),
                            }
                        }
                    }
                });
            }
        });
        let cache = cache.into_inner().unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(trained.into_inner(), 2, "each key trained exactly once");
        assert_eq!(cache.waiting(), 0, "every claim settled");
    }
}
