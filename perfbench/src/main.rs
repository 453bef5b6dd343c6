//! `perfbench`: the exchange benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-book --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run builds its workload from `--seed` (several times, reporting the
//! median set-up time) and discards a warm-up. It crashes a fresh
//! generation a fixed number of steps in, between two checkpoints, keeping
//! the journal as the crash image. Then it measures for `--seconds`,
//! rolling the exchange back to the set-up's image every fixed number of
//! steps, and recovers the crash image after every measurement window, so
//! the recovery times sample the same stretch of the machine's time as the
//! other timings. The closed loops time a fixed kernel before every step
//! and scale their timings to a reference host speed (see `calib`). With
//! `--trace 0` it reports the ten end-to-end metrics; with `--trace 1` it
//! runs the same seed untraced and then traced (half the time each) and
//! reports the per-layer metrics. The last stdout line is one JSON object;
//! the exit code is non-zero when any correctness check failed.

mod bench;
mod calib;
mod cells;
mod recovery;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use vfl_exchange::{read_events, ExchangeEvent};

use bench::{calls, Live, Phase};
use calib::Probes;
use recovery::{CrashImage, Recoveries, Recovery};
use stats::{median, mix, percentile, ratio};
use trace::Tracer;
use workloads::{setup, Kind, Scale, Workload};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    trace_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <hot-book|cold-courses|demand-stream> \
--seed <n> --seconds <s> --trace <0|1> [--tiny] [--trace-dir <dir>] | --describe [--tiny]";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut tiny, mut describe) = (false, false);
    let mut trace_dir = PathBuf::from(".bench_trace");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-dir" => trace_dir = PathBuf::from(value()?),
            "--tiny" => tiny = true,
            "--describe" => describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if describe {
        println!("{}", spec::describe(&Scale::new(tiny)));
        return Ok(None);
    }
    Ok(Some(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny,
        trace_dir,
    }))
}

/// Rolls the exchange back to the set-up's image (untraced).
fn roll(w: &mut dyn Workload, live: &mut Live) {
    let tracing = live.tracer.clone();
    if let Some(t) = &tracing {
        t.set_recording(false);
    }
    live.roll();
    w.rolled();
    if let Some(t) = &tracing {
        t.set_recording(true);
    }
}

/// Runs one measured phase of `dur` on the workload's open or closed loop,
/// probing the host's speed before every step, closing a measurement window
/// every `window_steps` steps and rolling the exchange every
/// `generation_steps` steps. Journal bytes, frames and paid courses are
/// counted inside the steps only. With `crash` given, the crash image is
/// recovered after every window, outside the steps.
fn measure(
    w: &mut dyn Workload,
    live: &mut Live,
    dur: Duration,
    (kind, scale): (Kind, &Scale),
    mut crash: Option<(&CrashImage, &mut Recoveries)>,
) -> Phase {
    let (window, generation) = (kind.window_steps(scale), kind.generation_steps(scale));
    w.begin_phase(true);
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut steps = 0;
    while start.elapsed() < dur {
        if steps % generation == 0 {
            roll(w, live);
        }
        phase.probes.probe(kind.probe_runs());
        let (bytes, frames, paid) = (live.tape.len(), live.journal.records(), calls(live));
        w.step(live, &mut phase);
        phase.journal_bytes += live.tape.len() - bytes;
        phase.journal_frames += live.journal.records() - frames;
        phase.trainings += calls(live) - paid;
        steps += 1;
        if steps % window == 0 {
            phase.close_window();
            if let Some((image, recoveries)) = &mut crash {
                for _ in 0..kind.recoveries_per_window() {
                    recoveries.once(image);
                }
            }
        }
    }
    if phase.windows.is_empty() {
        phase.close_window();
    }
    phase.wall = start.elapsed();
    w.begin_phase(false);
    phase
}

/// Salts of the seed's two order streams after set-up: the crash
/// generation's and the measured phase's.
const CRASH_STREAM: u64 = 0xc4a5;
const MEASURED_STREAM: u64 = 0x3ea5;

/// Crashes a fresh generation after the workload's fixed number of
/// (unmeasured, untraced) steps, half a checkpoint interval past a
/// checkpoint, and returns its crash image. The generation's orders come
/// from their own stream of the seed; afterwards the measured stream starts
/// from the seed and the exchange rolls back to the set-up's image.
fn crash_image(w: &mut dyn Workload, live: &mut Live, kind: Kind, seed: u64) -> CrashImage {
    w.restart(mix(seed, CRASH_STREAM));
    roll(w, live);
    if let Some(t) = &live.tracer {
        t.set_recording(false);
    }
    let mut unmeasured = Phase::default();
    for _ in 0..kind.crash_steps() {
        w.step(live, &mut unmeasured);
    }
    assert_eq!(
        live.drains_since_ckpt,
        live.ckpt_every / 2,
        "the crash lands half an interval past a checkpoint"
    );
    let image = CrashImage::take(live);
    w.restart(mix(seed, MEASURED_STREAM));
    roll(w, live);
    image
}

/// Kernel runs of the host-speed probe before and after each set-up.
const SETUP_PROBES: usize = 8;

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    fn new(table: &[(&'static str, &'static str)], values: Vec<(&'static str, f64)>) -> Report {
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not computed"))
                    .1;
                (name, unit, if v.is_finite() { v } else { 0.0 })
            })
            .collect();
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics,
            notes: Vec::new(),
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Folds the run's correctness evidence into the verdict.
    fn verdict(&mut self, phase: &Phase, live: &Live, rec: &Recovery) {
        self.attempted = phase.tally.attempted;
        self.failed = phase.tally.failed;
        self.notes.extend(live.problems.iter().cloned());
        if let Err(e) = live.conservation() {
            self.notes.push(e);
        }
        if let Some(e) = &rec.error {
            self.notes.push(e.clone());
        }
        self.correct =
            phase.tally.failed == 0 && self.notes.is_empty() && phase.tally.attempted > 0;
    }
}

/// The highest of p99/p95/p90 that keeps ten of `n` samples beyond it
/// (else p50).
fn tail_p(n: usize) -> f64 {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

fn tail_name(n: usize) -> String {
    format!("p{}", tail_p(n))
}

/// The sample at [`tail_p`].
fn tail_of(values: &[f64]) -> f64 {
    percentile(values, tail_p(values.len()))
}

fn end_to_end(args: &Args, scale: &Scale) -> Report {
    let reps = if args.tiny { 2 } else { 3 };
    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..reps {
        drop(world.take());
        // Probes on both sides of the set-up give its speed.
        let mut probes = Probes::default();
        probes.probe(SETUP_PROBES);
        let (w, live, times) = setup(args.kind, args.seed, scale, None);
        probes.probe(SETUP_PROBES);
        setup_s.push(times.total_s * probes.scale());
        world = Some((w, live));
    }
    let (mut w, mut live) = world.expect("at least one setup");
    let image = crash_image(&mut *w, &mut live, args.kind, args.seed);
    let mut recoveries = Recoveries::default();
    let phase = measure(
        &mut *w,
        &mut live,
        Duration::from_secs_f64(args.seconds),
        (args.kind, scale),
        Some((&image, &mut recoveries)),
    );
    let peak_rss_mb = sys::peak_rss_mb();
    while recoveries.count() < reps {
        recoveries.once(&image);
    }
    let rec = recoveries.summary();
    let n = phase.tally.attempted as f64;
    let values = vec![
        ("setup_s", median(&setup_s)),
        ("settled_per_s", phase.settled_per_s()),
        ("settle_p50_ms", phase.latency_ms(50.0)),
        (
            "settle_tail_ms",
            phase.latency_ms(args.kind.tail_percentile()),
        ),
        ("cpu_us_per_order", phase.cpu_us_per_order()),
        ("ok_frac", ratio(phase.tally.ok as f64, n)),
        ("trainings_per_order", ratio(phase.trainings as f64, n)),
        (
            "journal_bytes_per_order",
            ratio(phase.journal_bytes as f64, n),
        ),
        ("recover_s", rec.total_s),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let mut report = Report::new(spec::END_TO_END, values);
    report.verdict(&phase, &live, &rec);
    let wall = phase.wall.as_secs_f64();
    eprintln!(
        "{}: {} orders ({} settled, {} shed) in {:.2} s of drain over {:.2} s, {} windows; \
         offered {:.0}/s against a drain capacity of {:.0}/s (drain busy {:.1}% of wall; \
         all three as read)",
        args.kind.name(),
        phase.tally.attempted,
        phase.tally.settled,
        phase.tally.shed,
        phase.unscaled_drain.as_secs_f64(),
        wall,
        phase.windows.len(),
        ratio(phase.tally.attempted as f64, wall),
        phase.unscaled_settled_per_s(),
        100.0 * ratio(phase.unscaled_drain.as_secs_f64(), wall)
    );
    let scales: Vec<f64> = phase.windows.iter().map(|w| w.scale).collect();
    eprintln!(
        "{}: host speed: timings scaled to the reference by {:.3}..{:.3} (median {:.3}) over \
         windows; settled_per_s unscaled {:.1}",
        args.kind.name(),
        percentile(&scales, 0.0),
        percentile(&scales, 100.0),
        median(&scales),
        phase.unscaled_settled_per_s()
    );
    if !phase.late_ms.is_empty() {
        eprintln!(
            "{}: generator lateness p50 {:.3} ms, {} {:.3} ms, max {:.3} ms",
            args.kind.name(),
            median(&phase.late_ms),
            tail_name(phase.late_ms.len()),
            tail_of(&phase.late_ms),
            percentile(&phase.late_ms, 100.0)
        );
    }
    report
}

/// Offline codec pass over a journal of the run (the crash image, the same
/// size on every run): ns per frame to encode (`encode_frame`) and to
/// decode (`read_events`) the frames drains write, i.e. every frame but
/// the checkpoint's.
fn codec_ns_per_frame(bytes: &[u8]) -> (f64, f64) {
    let (events, _) = read_events(bytes);
    let events: Vec<ExchangeEvent> = events
        .into_iter()
        .filter(|e| !matches!(e, ExchangeEvent::Checkpoint { .. }))
        .collect();
    let t0 = Instant::now();
    let mut encoded = Vec::new();
    for e in &events {
        encoded.extend_from_slice(&e.encode_frame());
    }
    let encode = t0.elapsed().as_nanos() as f64;
    let t1 = Instant::now();
    let (decoded, dropped) = read_events(&encoded);
    let decode = t1.elapsed().as_nanos() as f64;
    assert!(
        decoded.len() == events.len() && dropped == 0,
        "re-encoded frames decode back"
    );
    let frames = events.len() as f64;
    (ratio(encode, frames), ratio(decode, frames))
}

fn per_layer(args: &Args, scale: &Scale) -> Report {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let base = {
        let (mut w, mut live, _) = setup(args.kind, args.seed, scale, None);
        w.restart(mix(args.seed, MEASURED_STREAM));
        measure(&mut *w, &mut live, half, (args.kind, scale), None)
    };
    let tracer = Tracer::new();
    let (mut w, mut live, times) = setup(args.kind, args.seed, scale, Some(tracer.clone()));
    let image = crash_image(&mut *w, &mut live, args.kind, args.seed);
    tracer.reset();
    let c0 = live.counters();
    let (ckpt_bytes0, probe0) = (live.checkpoint_bytes, live.loser_probe_courses);
    live.engine_ns.clear();
    let phase = measure(&mut *w, &mut live, half, (args.kind, scale), None);
    // Every span-derived and counter-derived figure covers the measured
    // phase only: nothing is recorded after this point.
    tracer.set_recording(false);
    let c1 = live.counters();
    let ckpt_bytes = live.checkpoint_bytes - ckpt_bytes0;
    let probe = live.loser_probe_courses - probe0;
    let engine_us = median(&live.engine_ns) / 1e3;

    let ms = |ns: u64| ns as f64 / 1e6;
    let st = |name: &str| tracer.stats(name);
    let d = |field: &str| (c1.get(field) - c0.get(field)) as f64;
    let course = tracer.stats_prefixed("course.");
    let course_ms: Vec<f64> = tracer
        .course_durations()
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let drain = st("exchange.drain");
    let drain_frames = tracer.edge("exchange.drain", "journal.write").0 as f64;
    let (hits, misses) = (d("cache_hits"), d("cache_misses"));
    let scrape = st("telemetry.scrape");
    let mut values = vec![
        ("setup.synth_ms", times.synth_s * 1e3),
        ("setup.oracle_warm_ms", times.oracle_warm_s * 1e3),
        ("course.trainings", course.count as f64),
        ("course.busy_ms", ms(course.busy_ns)),
        ("course.p50_ms", median(&course_ms)),
        ("course.tail_ms", tail_of(&course_ms)),
        ("course.forest_busy_ms", ms(st("course.forest").busy_ns)),
        ("course.mlp_busy_ms", ms(st("course.mlp").busy_ns)),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.hit_rate", ratio(hits, hits + misses)),
        ("cache.course_waits", d("course_waits")),
        ("market.rounds", d("rounds_completed")),
        ("market.task_calls", st("market.task").count as f64),
        ("market.task_busy_ms", ms(st("market.task").busy_ns)),
        ("market.data_calls", st("market.data").count as f64),
        ("market.data_busy_ms", ms(st("market.data").busy_ns)),
        ("market.engine_us_per_session", engine_us),
        ("exchange.submit_calls", st("exchange.submit").count as f64),
        ("exchange.submit_busy_ms", ms(st("exchange.submit").busy_ns)),
        ("exchange.drain_calls", drain.count as f64),
        ("exchange.drain_busy_ms", ms(drain.busy_ns)),
        ("exchange.drain_self_ms", ms(drain.self_ns)),
        ("exchange.take_busy_ms", ms(st("exchange.take").busy_ns)),
        ("journal.frames", phase.journal_frames as f64),
        ("journal.bytes", phase.journal_bytes as f64),
        ("journal.write_calls", st("journal.write").count as f64),
        ("journal.write_busy_ms", ms(st("journal.write").busy_ns)),
        ("checkpoint.calls", st("checkpoint").count as f64),
        ("checkpoint.busy_ms", ms(st("checkpoint").busy_ns)),
        ("checkpoint.bytes", ckpt_bytes as f64),
        ("matching.candidates", st("matching.quote").count as f64),
        ("matching.select_calls", st("matching.select").count as f64),
        ("matching.select_busy_ms", ms(st("matching.select").busy_ns)),
        ("matching.cancelled", d("sessions_cancelled")),
        ("matching.loser_probe_courses", probe as f64),
        (
            "matching.match_rate",
            ratio(d("demands_matched"), d("demands_settled")),
        ),
        ("clearing.epochs", st("clearing.clear").count as f64),
        ("clearing.busy_ms", ms(st("clearing.clear").busy_ns)),
        ("clearing.rolls", d("demands_rolled")),
        ("clearing.expired", d("demands_expired")),
        ("admission.calls", st("admission.admit").count as f64),
        ("admission.shed", d("demands_shed")),
        ("admission.busy_ms", ms(st("admission.admit").busy_ns)),
        (
            "telemetry.scrape_ms",
            ratio(ms(scrape.busy_ns), scrape.count as f64),
        ),
        ("loadgen.late_p50_ms", median(&phase.late_ms)),
        ("loadgen.late_tail_ms", tail_of(&phase.late_ms)),
        (
            "trace.overhead_frac",
            ratio(base.settled_per_s(), phase.settled_per_s()) - 1.0,
        ),
    ];
    eprint!("{}", tracer.table());
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
    if let Err(e) = tracer.write_spans(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
    let mut recoveries = Recoveries::default();
    for _ in 0..3 {
        recoveries.once(&image);
    }
    let rec = recoveries.summary();
    let (encode_ns, decode_ns) = codec_ns_per_frame(&image.bytes);
    values.extend([
        ("journal.encode_ns_per_frame", encode_ns),
        ("journal.decode_ns_per_frame", decode_ns),
        (
            "trace.explained_frac",
            ratio(
                drain.child_busy_ns as f64 + encode_ns * drain_frames,
                drain.busy_ns as f64,
            ),
        ),
        ("recover.decode_ms", rec.decode_s * 1e3),
        ("recover.restore_ms", rec.restore_s * 1e3),
        ("recover.replay_ms", rec.replay_s * 1e3),
        ("recover.events", rec.events as f64),
        ("recover.sessions_reopened", rec.reopened as f64),
        ("recover.trainings", rec.trainings as f64),
    ]);
    let mut report = Report::new(spec::PER_LAYER, values);
    report.verdict(&phase, &live, &rec);
    report
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("# fingerprint {}", sys::fingerprint());
    // With one drain worker the generator and the worker take turns, so
    // both stay on one CPU for the whole run (see `sys::Pin`).
    let _pin = (args.kind.workers_cap() == 1).then(sys::Pin::here);
    let scale = Scale::new(args.tiny);
    let report = if args.trace {
        per_layer(&args, &scale)
    } else {
        end_to_end(&args, &scale)
    };
    for (name, unit, value) in &report.metrics {
        eprintln!("{name:<32} {value:>16.4} {unit}");
    }
    for note in &report.notes {
        eprintln!("check failed: {note}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
