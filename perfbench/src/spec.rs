//! The benchmark's declared surface: metric names and units, the workload
//! records, and which end-to-end metric each layer should move. The run
//! report is assembled against these tables, `--describe` prints them, and
//! the smoke test checks them against `BENCHMARK.json`.

use vfl_exchange::ArrivalProcess;

use crate::workloads::{Kind, Scale, PAIR_EVERY};

/// End-to-end metrics (untraced run): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("settled_per_s", "1/s"),
    ("settle_p50_ms", "ms"),
    ("settle_tail_ms", "ms"),
    ("cpu_us_per_order", "us"),
    ("ok_frac", "frac"),
    ("trainings_per_order", "count"),
    ("journal_bytes_per_order", "B"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.synth_ms", "ms"),
    ("setup.oracle_warm_ms", "ms"),
    ("course.trainings", "count"),
    ("course.busy_ms", "ms"),
    ("course.p50_ms", "ms"),
    ("course.tail_ms", "ms"),
    ("course.forest_busy_ms", "ms"),
    ("course.mlp_busy_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "frac"),
    ("cache.course_waits", "count"),
    ("market.rounds", "count"),
    ("market.task_calls", "count"),
    ("market.task_busy_ms", "ms"),
    ("market.data_calls", "count"),
    ("market.data_busy_ms", "ms"),
    ("market.engine_us_per_session", "us"),
    ("exchange.submit_calls", "count"),
    ("exchange.submit_busy_ms", "ms"),
    ("exchange.drain_calls", "count"),
    ("exchange.drain_busy_ms", "ms"),
    ("exchange.drain_self_ms", "ms"),
    ("exchange.take_busy_ms", "ms"),
    ("journal.frames", "count"),
    ("journal.bytes", "B"),
    ("journal.write_calls", "count"),
    ("journal.write_busy_ms", "ms"),
    ("journal.encode_ns_per_frame", "ns"),
    ("journal.decode_ns_per_frame", "ns"),
    ("checkpoint.calls", "count"),
    ("checkpoint.busy_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("recover.decode_ms", "ms"),
    ("recover.restore_ms", "ms"),
    ("recover.replay_ms", "ms"),
    ("recover.events", "count"),
    ("recover.sessions_reopened", "count"),
    ("recover.trainings", "count"),
    ("matching.candidates", "count"),
    ("matching.select_calls", "count"),
    ("matching.select_busy_ms", "ms"),
    ("matching.cancelled", "count"),
    ("matching.loser_probe_courses", "count"),
    ("matching.match_rate", "frac"),
    ("clearing.epochs", "count"),
    ("clearing.busy_ms", "ms"),
    ("clearing.rolls", "count"),
    ("clearing.expired", "count"),
    ("admission.calls", "count"),
    ("admission.shed", "count"),
    ("admission.busy_ms", "ms"),
    ("telemetry.scrape_ms", "ms"),
    ("loadgen.late_p50_ms", "ms"),
    ("loadgen.late_tail_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.explained_frac", "frac"),
];

/// Layer → the end-to-end metrics it should move, and the workloads it is
/// heavy on (the rest should read about zero).
pub const LAYERS: &[(&str, &str, &str, &str)] = &[
    ("setup", "vfl-tabular, vfl-sim", "setup_s", "all"),
    (
        "course",
        "vfl-sim::GainOracle -> vfl-ml fits (GainProvider wrapper)",
        "settled_per_s, cpu_us_per_order, settle_tail_ms",
        "cold-courses",
    ),
    (
        "cache",
        "vfl-exchange::cache (metrics())",
        "trainings_per_order, settle_tail_ms",
        "cold-courses",
    ),
    (
        "market",
        "vfl-market (TaskStrategy/DataStrategy wrappers, run_bargaining floor)",
        "settled_per_s, cpu_us_per_order",
        "hot-book",
    ),
    (
        "exchange",
        "vfl-exchange::exchange, executor, store",
        "settled_per_s, cpu_us_per_order (hot-book); settle_p50_ms (demand-stream)",
        "hot-book",
    ),
    (
        "journal",
        "vfl-exchange::journal (Write sink wrapper, offline codec pass)",
        "journal_bytes_per_order, peak_rss_mb, cpu_us_per_order",
        "hot-book, demand-stream",
    ),
    (
        "recover",
        "vfl-exchange::journal recovery",
        "recover_s",
        "hot-book, demand-stream",
    ),
    (
        "matching",
        "vfl-exchange::matching (MatchPolicy, QuotingFactory wrappers)",
        "settled_per_s, cpu_us_per_order",
        "demand-stream",
    ),
    (
        "clearing",
        "vfl-exchange::clearing (ClearPolicy wrapper)",
        "settle_tail_ms",
        "demand-stream",
    ),
    (
        "admission",
        "vfl-exchange::traffic (AdmissionPolicy wrapper)",
        "ok_frac",
        "demand-stream",
    ),
    (
        "telemetry",
        "vfl-telemetry via Exchange::scrape",
        "cpu_us_per_order",
        "demand-stream",
    ),
    ("harness", "the benchmark itself", "(health)", "all"),
];

/// Demand-stream's drain capacity: demands settled per second of drain, as
/// read (the summary line on stderr; `settled_per_s` is scaled to the
/// reference speed). Single runs on a 2-vCPU VM ranged from ~9,400 (host
/// in its slow state) to ~16,000; the demand rates are set as fractions of
/// the lower figure.
pub const DEMAND_DRAIN_CAPACITY: f64 = 9_000.0;

fn workload_record(kind: Kind, scale: &Scale) -> String {
    let load = match (kind, scale.arrivals) {
        (
            Kind::DemandStream,
            ArrivalProcess::Bursty {
                base,
                burst,
                period,
                burst_len,
            },
        ) => {
            let tick_s = scale.tick.as_secs_f64();
            // Demands per second at `arrivals` per tick (a pair counts two).
            let demands_per_s =
                |arrivals: f64| arrivals * (PAIR_EVERY + 1) as f64 / PAIR_EVERY as f64 / tick_s;
            let mean_arrivals = (base * f64::from(period - burst_len)
                + burst * f64::from(burst_len))
                / f64::from(period);
            let share = |arrivals: f64| 100.0 * demands_per_s(arrivals) / DEMAND_DRAIN_CAPACITY;
            format!(
                "open loop at a fixed rate: a mean of {:.0} demands/s is {:.1}% of the \
                 drain capacity of {DEMAND_DRAIN_CAPACITY:.0} demands/s or more (2-vCPU VM); \
                 the base rate is {:.1}% and a burst tick's rate {:.1}%, so even a burst tick \
                 drains in ~{:.1} ms of its {} ms tick and the generator is not late",
                demands_per_s(mean_arrivals),
                share(mean_arrivals),
                share(base),
                share(burst),
                1e3 * demands_per_s(burst) * tick_s / DEMAND_DRAIN_CAPACITY,
                scale.tick.as_millis()
            )
        }
        _ => "closed loop, saturating: the next batch is submitted when the last one's \
              outcomes are taken"
            .to_string(),
    };
    let (loop_type, shape) = match kind {
        Kind::HotBook => (
            "closed",
            format!(
                "batches of {} plain sessions over 4 warm cells; once per checkpoint interval \
                 one more session on a fresh key over a warm oracle",
                scale.hot_batch
            ),
        ),
        Kind::ColdCourses => (
            "closed",
            format!(
                "batches of {} fresh keys (cold forest and MLP twins) x 2 identical sessions",
                scale.cold_keys
            ),
        ),
        Kind::DemandStream => {
            let ArrivalProcess::Bursty {
                base,
                burst,
                period,
                burst_len,
            } = scale.arrivals
            else {
                unreachable!("demand-stream arrivals are bursty")
            };
            (
                "open",
                format!(
                    "one tick per {} ms; Poisson arrivals of {base}/tick, {burst}/tick for \
                     {burst_len} of every {period} ticks; fan-out to 3 overlapping sellers per \
                     scenario; every third demand clears in an epoch; queue-depth admission \
                     at {} pending sessions",
                    scale.tick.as_millis(),
                    scale.max_queue_depth
                ),
            )
        }
    };
    let timings = format!(
        "scaled to the reference host speed: times {:.0} us over the median of the latest 16 \
         runs of the probe kernel ({} before each step, 4 before each recovery){}",
        crate::calib::REFERENCE_S * 1e6,
        kind.probe_runs(),
        if kind.workers_cap() == 1 {
            "; generator and drain worker pinned to one CPU"
        } else {
            "; recoveries pinned to one CPU"
        }
    );
    format!(
        "{{\"name\": \"{}\", \"loop\": \"{loop_type}\", \"shape\": \"{shape}\", \
         \"load\": \"{load}\", \"timings\": \"{timings}\", \"drain_workers\": \"{}\", \
         \"window_steps\": {}, \"recoveries_per_window\": {}, \
         \"checkpoint_every_drains\": {}, \"generation_steps\": {}, \
         \"crash_after_steps\": {}, \"tail_percentile\": {}, \"seed\": \"--seed derives \
         every order, run seed, fresh key and arrival; the cells are fixed\"}}",
        kind.name(),
        match kind.workers_cap() {
            1 => "1".to_string(),
            n => format!("min(nproc, {n})"),
        },
        kind.window_steps(scale),
        kind.recoveries_per_window(),
        kind.ckpt_every(),
        kind.generation_steps(scale),
        kind.crash_steps(),
        kind.tail_percentile()
    )
}

/// The full workload and layer records as JSON.
pub fn describe(scale: &Scale) -> String {
    let workloads: Vec<String> = Kind::ALL
        .iter()
        .map(|&k| workload_record(k, scale))
        .collect();
    let metrics = |table: &[(&str, &str)]| -> Vec<String> {
        table
            .iter()
            .map(|(n, u)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"}}"))
            .collect()
    };
    let layers: Vec<String> = LAYERS
        .iter()
        .map(|(layer, module, moves, heavy)| {
            format!(
                "{{\"layer\": \"{layer}\", \"module\": \"{module}\", \"moves\": \"{moves}\", \
                 \"heavy_on\": \"{heavy}\"}}"
            )
        })
        .collect();
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {},\n  \"layers\": {}\n}}",
        list(workloads),
        list(metrics(END_TO_END)),
        list(metrics(PER_LAYER)),
        list(layers)
    )
}
