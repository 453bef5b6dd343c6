//! Lock-free operational telemetry for the vfl-bargain exchange stack.
//!
//! This crate is deliberately *mechanism only*: it knows nothing about
//! sessions, demands, or journals. It provides four primitives and two
//! seams, and the exchange layers decide what to measure:
//!
//! * [`Counter`] / [`Gauge`] — relaxed atomics, cloneable handles.
//! * [`Histogram`] — a fixed array of 64 log₂ buckets of atomic counters
//!   plus running count/sum/min/max. Recording is wait-free (a handful of
//!   relaxed RMW ops, no allocation, no lock); quantile readout
//!   ([`HistogramSnapshot::quantile`], p50/p95/p99) walks the cumulative
//!   bucket counts and is bounded by the true sample's bucket edges.
//! * [`HistogramTally`] — the non-atomic, single-owner twin of a
//!   histogram, published into a shared one in one pass.
//! * [`Registry`] — owns labeled metric families and renders them as
//!   Prometheus text exposition ([`Registry::render`]) or a JSON snapshot
//!   ([`Registry::render_json`]). Registration is get-or-create, so any
//!   component can ask for the same family by name and share the handle.
//! * [`Clock`] — the timing seam: [`MonotonicClock`] reads the OS
//!   monotonic clock; [`VirtualClock`] is an atomic counter advanced by
//!   tests, so timing-dependent readouts can be asserted exactly.
//! * [`TraceRing`] — a bounded ring of [`TraceSpan`]s keyed by
//!   [`TraceKey`] (session / demand / epoch id) for postmortem timelines.
//!   The ring holds the *most recent* spans; old spans are evicted, never
//!   block a writer.
//!
//! # Observe-only contract
//!
//! Nothing in this crate returns information a caller could branch on
//! without deliberately asking for it (a snapshot or render call).
//! Recording paths never fail, never block on readers beyond a short
//! ring-buffer mutex in [`TraceRing`], and never allocate. The exchange
//! crate's drain-equivalence tier proves the end-to-end version of this
//! claim: a drain with telemetry wired in is bit-identical to one
//! without.

#![deny(missing_docs)]

mod clock;
mod histogram;
mod metric;
mod registry;
mod trace;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use histogram::{
    bucket_index, bucket_upper_edge, Histogram, HistogramSnapshot, HistogramTally, BUCKETS,
};
pub use metric::{Counter, Gauge};
pub use registry::Registry;
pub use trace::{TraceKey, TraceRing, TraceSpan};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a holder panicked, so a panic
/// while rendering or recording never turns every later scrape into a
/// panic too.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
