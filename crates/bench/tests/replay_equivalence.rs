//! Replay-equivalence and fault-injection tier for the exchange journal.
//!
//! The journal's contract (see `vfl_exchange::journal`) is that a crashed
//! drain can be rebuilt from any valid journal prefix and *resumed* to the
//! exact same place — bit-identical `Outcome`s, transcripts, and
//! settlement winners — without re-training any course the prefix
//! acknowledges. This suite proves the contract the hard way:
//!
//! * **Boundary sweep** — `REPLAY_WORLDS` (≥ 64) random marketplace
//!   worlds (heterogeneous sellers, plain sessions, multi-seller demands)
//!   run to completion under a journal; the journal is then truncated at
//!   *every* event boundary, recovered, and drained, and every recovered
//!   entity must reproduce the reference bit for bit while a counting
//!   provider proves the resumed run trains exactly the complement of the
//!   prefix's recorded courses — zero re-trainings.
//! * **Torn tail / corruption** — truncation *inside* a frame and flipped
//!   bytes must drop the invalid tail (checksum), never misparse, and the
//!   surviving prefix must still recover equivalently.
//! * **Crash points** — an injected hook seals the journal *inside* the
//!   router's critical sections (course trained but not recorded,
//!   settlement decided but not recorded, …), which between-event
//!   truncation cannot reach; the sealed journal must still recover to
//!   the crashed run's own in-memory conclusion.
//!
//! The world generator and the equivalence checker live in
//! `vfl_bench::worlds`, shared with the executor tier.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vfl_bench::exchange_setup::TrainingRecorder;
use vfl_bench::worlds::{build_world, check_equivalence, n_worlds, snapshot, spec_for};
use vfl_exchange::{read_events, CrashPoint, Exchange, ExchangeConfig, Journal};

// ---------------------------------------------------------------------------
// The tier
// ---------------------------------------------------------------------------

/// The headline property: truncate the journal at EVERY event boundary of
/// every world; replay + resume must be bit-identical to the uncrashed run
/// with zero re-trained courses.
#[test]
fn truncation_at_every_event_boundary_replays_bit_identically() {
    let mut boundaries_checked = 0usize;
    for world in 0..n_worlds() {
        let w = build_world(world);
        let reference = snapshot(&w);
        let bytes = w.sink.bytes();
        let boundaries = vfl_exchange::frame_boundaries(&bytes);
        assert!(
            boundaries.len() > 8,
            "world {world}: a journaled run must record a real event stream"
        );
        // Every boundary, plus the empty journal (crash before anything
        // became durable).
        for &cut in std::iter::once(&0usize).chain(boundaries.iter()) {
            check_equivalence(
                world,
                &reference,
                &bytes[..cut],
                &w.plain_map,
                &w.demand_map,
                &format!("world {world} cut {cut}/{}", bytes.len()),
            );
            boundaries_checked += 1;
        }
    }
    assert!(boundaries_checked > n_worlds() * 8);
}

/// A torn final record (truncation inside a frame) and flipped bytes are
/// detected via the checksum and dropped — recovery sees the longest valid
/// prefix and still resumes equivalently.
#[test]
fn torn_and_corrupt_tails_are_dropped_and_still_recover() {
    let world = 1usize;
    let w = build_world(world);
    let reference = snapshot(&w);
    let bytes = w.sink.bytes();
    let boundaries = vfl_exchange::frame_boundaries(&bytes);

    // Tear inside several frames: header-only, mid-payload, mid-checksum.
    for &frame_idx in &[0usize, boundaries.len() / 2, boundaries.len() - 1] {
        let start = if frame_idx == 0 {
            0
        } else {
            boundaries[frame_idx - 1]
        };
        let end = boundaries[frame_idx];
        for cut in [start + 1, start + (end - start) / 2, end - 1] {
            let (events, dropped) = read_events(&bytes[..cut]);
            assert_eq!(events.len(), frame_idx, "cut {cut}");
            assert_eq!(dropped, cut - start, "cut {cut}");
            check_equivalence(
                world,
                &reference,
                &bytes[..cut],
                &w.plain_map,
                &w.demand_map,
                &format!("torn cut {cut}"),
            );
        }
    }

    // Flip one byte in the middle of the journal: the valid prefix ends
    // there; recovery of the corrupted bytes equals recovery of the clean
    // prefix.
    let mid_frame = boundaries.len() / 2;
    let flip_at = boundaries[mid_frame] + 7;
    let mut corrupt = bytes.clone();
    corrupt[flip_at] ^= 0x20;
    let (events, _) = read_events(&corrupt);
    assert_eq!(events.len(), mid_frame + 1, "corruption ends the prefix");
    check_equivalence(
        world,
        &reference,
        &corrupt,
        &w.plain_map,
        &w.demand_map,
        "corrupt mid-journal",
    );
}

/// Seals the journal at the `nth` occurrence of a crash point selected by
/// `pred`, drains to completion (the in-memory run IS the reference), and
/// checks the sealed journal recovers equivalently. Returns true when the
/// point fired.
fn crash_and_check(
    world: usize,
    nth: usize,
    pred: impl Fn(&CrashPoint) -> bool + Send + Sync + 'static,
    ctx: &str,
) -> bool {
    let w = build_world(world);
    let fired = Arc::new(AtomicUsize::new(0));
    {
        let journal = w.journal.clone();
        let fired = fired.clone();
        w.exchange
            .set_crash_hook(Some(Arc::new(move |point: &CrashPoint| {
                if pred(point) && fired.fetch_add(1, Ordering::SeqCst) == nth {
                    journal.seal();
                }
            })));
    }
    let reference = snapshot(&w);
    let hit = fired.load(Ordering::SeqCst) > nth;
    if hit {
        assert!(w.journal.is_sealed(), "{ctx}: the crash must have sealed");
    }
    check_equivalence(
        world,
        &reference,
        &w.sink.bytes(),
        &w.plain_map,
        &w.demand_map,
        ctx,
    );
    hit
}

/// Crashes landing INSIDE course dispatch: after the training finished but
/// before its receipt is journaled (the course is legitimately re-trained
/// on resume — it was never acknowledged) and right after the receipt
/// (never re-trained).
#[test]
fn crash_inside_course_dispatch_recovers() {
    for world in 2..6 {
        for nth in [0, 2] {
            assert!(
                crash_and_check(
                    world,
                    nth,
                    |p| matches!(p, CrashPoint::CourseTrained { .. }),
                    &format!("world {world}: crash after training #{nth}, before its record"),
                ),
                "course crash point must fire"
            );
            assert!(
                crash_and_check(
                    world,
                    nth,
                    |p| matches!(p, CrashPoint::CourseRecorded { .. }),
                    &format!("world {world}: crash after course record #{nth}"),
                ),
                "course-recorded crash point must fire"
            );
        }
    }
}

/// Crashes landing INSIDE the settlement critical section: the decision is
/// made but not journaled (resume re-settles to the same winner), and the
/// record landed but no side-effect (wake/cancel) was applied yet.
#[test]
fn crash_inside_settlement_recovers() {
    for world in 2..8 {
        assert!(
            crash_and_check(
                world,
                0,
                |p| matches!(p, CrashPoint::SettlementDecided(_)),
                &format!("world {world}: crash between settlement decision and its record"),
            ),
            "settlement-decided crash point must fire"
        );
        assert!(
            crash_and_check(
                world,
                0,
                |p| matches!(p, CrashPoint::SettlementRecorded(_)),
                &format!("world {world}: crash between settlement record and its side-effects"),
            ),
            "settlement-recorded crash point must fire"
        );
    }
}

/// Crashes landing INSIDE the epoch clearing critical section: the batch
/// decision is made (window queue already advanced) but the
/// `EpochCleared` record has not landed (resume re-clears the identical
/// epoch), and the record landed but none of the batch's settlements ran
/// yet (the whole batch's wake/cancel side-effects are lost and
/// recomputed).
#[test]
fn crash_inside_epoch_clearing_recovers() {
    for world in 2..8 {
        assert!(
            crash_and_check(
                world,
                0,
                |p| matches!(p, CrashPoint::EpochDecided(_)),
                &format!("world {world}: crash between epoch decision and its record"),
            ),
            "epoch-decided crash point must fire"
        );
        assert!(
            crash_and_check(
                world,
                0,
                |p| matches!(p, CrashPoint::EpochRecorded(_)),
                &format!("world {world}: crash between epoch record and its settlements"),
            ),
            "epoch-recorded crash point must fire"
        );
    }
}

/// Crashes at dispatch pick-up and just before a conclusion is recorded.
#[test]
fn crash_at_dispatch_and_conclusion_recovers() {
    for world in 2..6 {
        assert!(
            crash_and_check(
                world,
                1,
                |p| matches!(p, CrashPoint::Dispatched(_)),
                &format!("world {world}: crash at dispatch"),
            ),
            "dispatch crash point must fire"
        );
        assert!(
            crash_and_check(
                world,
                0,
                |p| matches!(p, CrashPoint::Concluding(_)),
                &format!("world {world}: crash before the conclusion record"),
            ),
            "concluding crash point must fire"
        );
    }
}

/// A recovered exchange that records into a fresh journal produces a
/// journal that is itself recoverable — recovery chains.
#[test]
fn recovery_can_be_journaled_and_recovered_again() {
    let world = 3usize;
    let w = build_world(world);
    let reference = snapshot(&w);
    let bytes = w.sink.bytes();
    let boundaries = vfl_exchange::frame_boundaries(&bytes);
    let cut = boundaries[boundaries.len() / 2];

    // First recovery records into a fresh journal…
    let recorder = TrainingRecorder::default();
    let (journal2, sink2) = Journal::in_memory();
    let (recovered, _) = Exchange::recover(
        ExchangeConfig::default(),
        &bytes[..cut],
        spec_for(world, &recorder, &w.plain_map, &w.demand_map),
        Some(journal2),
    )
    .expect("first recovery");
    recovered.drain(2);
    // …and the second-generation journal recovers to the same reference,
    // now with nothing at all left to train (its prefix holds every
    // course the full run needed).
    let trained = check_equivalence(
        world,
        &reference,
        &sink2.bytes(),
        &w.plain_map,
        &w.demand_map,
        "second-generation journal",
    );
    assert_eq!(trained, 0, "a completed run's journal holds every course");
}
