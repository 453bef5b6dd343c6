//! The exchange-wide ΔG evaluation cache: one memo table shared by
//! *every* session in the exchange, keyed by `(evaluation key, bundle)`.
//!
//! Course evaluation is the marketplace's hot path. Two markets registered
//! with the same evaluation key (same scenario, base model, and oracle
//! seed) produce identical ΔG for identical bundles, so their sessions
//! share cache lines. Misses on the *same* key are deduplicated through
//! the split-phase claim protocol (`SharedGainCache::serve_softly`): the
//! first requester claims the key and suspends while its course resolves
//! off-slot; later requesters see `SoftServe::Busy` and park on the
//! exchange's course waitlist until the router applies the result
//! (wake-on-insert; see `crate::waitlist`).
//!
//! The cache is plain data: it lives in the exchange's state, behind the
//! one state lock, and every call is a `&mut self` step of the router
//! (or of a caller holding that lock). A lookup and the claim that
//! follows a miss are therefore one atomic step.
//!
//! ## Invariants
//!
//! * A course never runs inside the cache; a training blocks only its
//!   `(evaluation key, bundle)` claim, never a lookup.
//! * At most one claim exists per key, and every claim is settled by
//!   exactly one `SharedGainCache::complete` (success) or
//!   `SharedGainCache::abort` (failure) — a failed training never
//!   leaks its claim.
//! * Results are insert-once: a landed ΔG is immutable, so waiters woken
//!   after the insert always read the landed value.

use std::collections::{HashMap, HashSet};
use vfl_sim::BundleMask;

/// `(evaluation key, bundle) -> ΔG` map with hit/miss counters and a
/// claim set that dedups overlapping trainings of the same key.
#[derive(Debug, Default)]
pub struct SharedGainCache {
    gains: HashMap<(u64, u64), f64>,
    /// Keys whose course is claimed and not yet settled.
    in_flight: HashSet<(u64, u64)>,
    hits: u64,
    misses: u64,
}

/// Outcome of [`SharedGainCache::serve_softly`] — the split-phase serve
/// protocol. `Claimed` hands the caller the training claim *without*
/// running the course: the session suspends and the router settles the
/// claim when the course future resolves. Every claim must be settled
/// with exactly one [`SharedGainCache::complete`] (success) or
/// [`SharedGainCache::abort`] (failure) — a leaked claim parks that key's
/// waiters forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SoftServe {
    /// Served from cache (hit counted).
    Hit(f64),
    /// The caller now owns the in-flight training claim for this key.
    Claimed,
    /// Another caller holds the claim — park on the waitlist.
    Busy,
}

impl SharedGainCache {
    /// Cached ΔG for `bundle` under `eval_key`; counts a hit when present.
    /// The cheap path — a slice resumes its session inline on a hit and
    /// only suspends it when a miss forces a real course.
    pub fn lookup(&mut self, eval_key: u64, bundle: BundleMask) -> Option<f64> {
        let g = self.peek(eval_key, bundle);
        if g.is_some() {
            self.hits += 1;
        }
        g
    }

    /// Like [`Self::lookup`] but without touching the hit counter (for
    /// budget checks that precede a real, counted request).
    pub fn peek(&self, eval_key: u64, bundle: BundleMask) -> Option<f64> {
        self.gains.get(&(eval_key, bundle.0)).copied()
    }

    /// Inserts a course result directly, bypassing the provider — the
    /// journal-recovery preload path. Counts neither a hit nor a miss:
    /// the training was paid for by a previous life of the exchange, and
    /// the resumed drain will read it back as ordinary hits.
    pub fn insert(&mut self, eval_key: u64, bundle: BundleMask, gain: f64) {
        self.gains.insert((eval_key, bundle.0), gain);
    }

    /// Serves one course request without running the course: a hit
    /// returns immediately, a cold key hands the caller the claim
    /// ([`SoftServe::Claimed`]), a claimed key returns
    /// [`SoftServe::Busy`]. The claim holder has the course resolved
    /// however it likes and MUST settle the claim with [`Self::complete`]
    /// or [`Self::abort`].
    pub(crate) fn serve_softly(&mut self, eval_key: u64, bundle: BundleMask) -> SoftServe {
        if let Some(g) = self.lookup(eval_key, bundle) {
            SoftServe::Hit(g)
        } else if self.in_flight.insert((eval_key, bundle.0)) {
            SoftServe::Claimed
        } else {
            SoftServe::Busy
        }
    }

    /// Lands a successful training under a [`SoftServe::Claimed`] claim:
    /// counts the miss, inserts the result, and releases the claim, so a
    /// woken waiter that re-probes always finds the value.
    pub(crate) fn complete(&mut self, eval_key: u64, bundle: BundleMask, gain: f64) {
        self.misses += 1;
        self.insert(eval_key, bundle, gain);
        self.in_flight.remove(&(eval_key, bundle.0));
    }

    /// Releases a [`SoftServe::Claimed`] claim after a failed training.
    /// Nothing is inserted and no miss is counted (only successful
    /// trainings are misses); the next caller inherits a fresh claim and
    /// retries.
    pub(crate) fn abort(&mut self, eval_key: u64, bundle: BundleMask) {
        self.in_flight.remove(&(eval_key, bundle.0));
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
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

    /// Serves `(eval_key, bundle)` the way the exchange does: a claim is
    /// settled at once with `gain`.
    fn serve(cache: &mut SharedGainCache, eval_key: u64, bundle: BundleMask, gain: f64) -> f64 {
        match cache.serve_softly(eval_key, bundle) {
            SoftServe::Hit(g) => g,
            SoftServe::Claimed => {
                cache.complete(eval_key, bundle, gain);
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
        match cache.serve_softly(eval_key, bundle) {
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
    fn hits_and_misses_are_counted() {
        let mut cache = SharedGainCache::default();
        let b = BundleMask::singleton(0);
        // A cold lookup counts nothing; a settled claim counts one miss.
        assert_eq!(cache.lookup(7, b), None);
        serve(&mut cache, 7, b, 0.1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // `peek` is the uncounted read; `lookup` counts a hit.
        assert_eq!(cache.peek(7, b), Some(0.1));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.lookup(7, b), Some(0.1));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn serve_computes_once_then_hits() {
        let mut cache = SharedGainCache::default();
        let b = BundleMask::singleton(0);
        assert_eq!(serve(&mut cache, 3, b, 0.1), 0.1);
        assert_eq!(
            serve(&mut cache, 3, b, 0.9),
            0.1,
            "the landed value is served"
        );
        assert_eq!(serve(&mut cache, 3, b, 0.9), 0.1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn evaluation_keys_are_isolated() {
        let mut cache = SharedGainCache::default();
        let b = BundleMask::singleton(1);
        serve(&mut cache, 1, b, 0.2);
        serve(&mut cache, 2, b, 0.2);
        assert_eq!(cache.misses(), 2, "distinct keys never share entries");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn provider_errors_propagate_and_do_not_cache() {
        let mut cache = SharedGainCache::default();
        let p = provider();
        let unknown = BundleMask::singleton(5);
        assert!(train(&mut cache, 0, unknown, &p).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 0, "only successful trainings are misses");
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
        assert_eq!(train(&mut cache, 3, unknown, &fixed).unwrap(), 0.5);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn serve_softly_claim_protocol_round_trips() {
        let mut cache = SharedGainCache::default();
        let b = BundleMask::singleton(0);
        // Cold key: the first caller claims, contenders see Busy.
        assert_eq!(cache.serve_softly(5, b), SoftServe::Claimed);
        assert_eq!(cache.serve_softly(5, b), SoftServe::Busy);
        // Completion lands the value, releases the claim, counts the miss.
        cache.complete(5, b, 0.7);
        assert_eq!(cache.serve_softly(5, b), SoftServe::Hit(0.7));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn abort_releases_the_claim_without_counting_a_miss() {
        let mut cache = SharedGainCache::default();
        let b = BundleMask::singleton(2);
        assert_eq!(cache.serve_softly(6, b), SoftServe::Claimed);
        cache.abort(6, b);
        assert!(cache.peek(6, b).is_none(), "a failed course caches nothing");
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 0);
        // The next caller inherits a fresh claim — nothing leaked.
        assert_eq!(cache.serve_softly(6, b), SoftServe::Claimed);
        cache.complete(6, b, 0.3);
        assert_eq!(cache.peek(6, b), Some(0.3));
    }

    /// The claim set stays exact under contention: however requests
    /// interleave across threads sharing the cache through one mutex (as
    /// the exchange's state lock shares it), each key is trained exactly
    /// once. A claim and its completion take the lock separately, so
    /// contenders really do observe `Busy` in between.
    #[test]
    fn concurrent_access_converges() {
        let cache = std::sync::Mutex::new(SharedGainCache::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..100u64 {
                        let bundle = BundleMask::singleton((i % 2) as usize);
                        loop {
                            let served = crate::lock(&cache).serve_softly(9, bundle);
                            match served {
                                SoftServe::Hit(g) => {
                                    assert_eq!(g, 0.1 * (i % 2 + 1) as f64);
                                    break;
                                }
                                SoftServe::Claimed => {
                                    crate::lock(&cache).complete(
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
        assert_eq!(cache.misses(), 2, "each key trained exactly once");
        assert_eq!(cache.hits(), 398);
    }
}
