//! The three workloads. Each builds its own cells from the seed, registers
//! them, warms what it declares warm, and then runs one *step* at a time:
//! a closed-loop batch (`hot-book`, `cold-courses`) or an open-loop tick
//! (`demand-stream`). Every step submits from this single generator
//! thread, drains, takes every outcome, and checks it. Every
//! `generation_steps` steps the exchange rolls back to the set-up's image
//! (see `Live::roll`), so the state a step sees does not depend on how many
//! steps ran before it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use vfl_exchange::{AdmissionPolicy, ArrivalProcess, MarketId, QueueDepthAdmission};
use vfl_sim::BundleMask;
use vfl_tabular::synth::DatasetId;

use crate::bench::{
    ClearingShape, CpuWindow, DemandRecipe, Live, MarketRecipe, OrderRecipe, Phase, SellerRecipe,
};
use crate::cells::{BuildTimes, Cell, Profile, Warm};
use crate::stats::mix;
use crate::trace::{ModelKind, TracedAdmission, Tracer};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotBook,
    ColdCourses,
    DemandStream,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::HotBook, Kind::ColdCourses, Kind::DemandStream];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotBook => "hot-book",
            Kind::ColdCourses => "cold-courses",
            Kind::DemandStream => "demand-stream",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Drain workers: one where sessions take microseconds, since a second
    /// worker only adds hand-off contention with the dispatcher (on a
    /// 2-CPU machine, demand-stream runs with two split into two modes
    /// ~20% apart in CPU per order); two (at most `nproc`) on cold-courses,
    /// where courses run side by side.
    pub fn workers(self) -> usize {
        crate::sys::nproc().min(self.workers_cap())
    }

    /// The drain-worker count before the `nproc` cap.
    pub fn workers_cap(self) -> usize {
        match self {
            Kind::HotBook | Kind::DemandStream => 1,
            Kind::ColdCourses => 2,
        }
    }

    /// Runs of the host-speed kernel (see `calib`) before each step: about
    /// thirty per measurement window.
    pub fn probe_runs(self) -> usize {
        match self {
            Kind::HotBook | Kind::DemandStream => 2,
            Kind::ColdCourses => 8,
        }
    }

    /// The fixed tail percentile of `settle_tail_ms`: the highest one that
    /// keeps at least ten orders beyond it at the workload's order count.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Kind::HotBook | Kind::DemandStream => 99.0,
            Kind::ColdCourses => 95.0,
        }
    }

    /// Quiescent drains between two checkpoints. On demand-stream every tick
    /// drains, so the crash image (half an interval) holds two whole
    /// arrival cycles whatever the seed.
    pub fn ckpt_every(self) -> u32 {
        match self {
            Kind::HotBook => 2,
            Kind::ColdCourses => 8,
            Kind::DemandStream => 40,
        }
    }

    /// Steps between two rolls of the exchange back to the set-up's image:
    /// a whole number of checkpoint intervals and of windows.
    pub fn generation_steps(self, scale: &Scale) -> usize {
        match self {
            Kind::HotBook => 16,
            Kind::ColdCourses => 16,
            Kind::DemandStream => 8 * self.window_steps(scale),
        }
    }

    /// Steps from a roll to the crash: one checkpoint interval and a half,
    /// so the crash image is a checkpoint taken inside the generation plus
    /// half an interval of journal, the same size on every run.
    pub fn crash_steps(self) -> usize {
        let k = self.ckpt_every() as usize;
        k + k / 2
    }

    /// Recoveries of the crash image after each measurement window: a
    /// hundred or more per run on the closed loops. One on demand-stream,
    /// whose tick clock keeps running meanwhile: a second recovery made the
    /// next tick late, and the lateness showed in `settle_tail_ms` (p99
    /// 2.8 ms with one, 17 ms with two).
    pub fn recoveries_per_window(self) -> usize {
        match self {
            Kind::HotBook | Kind::DemandStream => 1,
            Kind::ColdCourses => 4,
        }
    }

    /// Steps per measurement window. Rates are medians over windows, so a
    /// burst of load from elsewhere on the machine moves one window, not
    /// the run. Demand-stream windows hold whole arrival cycles.
    pub fn window_steps(self, scale: &Scale) -> usize {
        match self {
            Kind::HotBook => 16,
            Kind::ColdCourses => 4,
            Kind::DemandStream => match scale.arrivals {
                ArrivalProcess::Bursty { period, .. } => period as usize,
                _ => 25,
            },
        }
    }
}

/// Run-size knobs shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub profile: Profile,
    /// Plain sessions per hot-book batch.
    pub hot_batch: usize,
    /// Fresh evaluation keys per cold-courses batch.
    pub cold_keys: usize,
    /// Open-loop tick interval and its arrival process.
    pub tick: Duration,
    pub arrivals: ArrivalProcess,
    /// Pending sessions above which demands are shed.
    pub max_queue_depth: usize,
    /// Ticks between two re-listings of a scenario under a fresh key.
    pub rekey_ticks: u32,
    pub warmup_steps: usize,
}

impl Scale {
    pub fn new(tiny: bool) -> Scale {
        if tiny {
            Scale {
                profile: Profile::TINY,
                hot_batch: 32,
                cold_keys: 2,
                tick: Duration::from_millis(20),
                arrivals: ArrivalProcess::Bursty {
                    base: 3.0,
                    burst: 12.0,
                    period: 20,
                    burst_len: 2,
                },
                max_queue_depth: 30,
                rekey_ticks: 10,
                warmup_steps: 2,
            }
        } else {
            Scale {
                profile: Profile::STANDARD,
                hot_batch: 512,
                cold_keys: 4,
                tick: Duration::from_millis(50),
                arrivals: ArrivalProcess::Bursty {
                    base: 15.0,
                    burst: 80.0,
                    period: 10,
                    burst_len: 1,
                },
                max_queue_depth: 150,
                rekey_ticks: 20,
                warmup_steps: 4,
            }
        }
    }
}

/// Setup wall time by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub synth_s: f64,
    /// Oracle fits and precompute, plus the exchange warm-up steps.
    pub oracle_warm_s: f64,
}

/// One workload's generator.
pub trait Workload {
    /// Called before a measured phase (open loops re-anchor their clock).
    fn begin_phase(&mut self, paced: bool) {
        let _ = paced;
    }

    /// Called after the exchange rolled back to the set-up's image.
    fn rolled(&mut self) {}

    /// Restarts the order stream from `seed`, as if no step had run.
    fn restart(&mut self, seed: u64);

    /// One batch or tick: submit, drain, take, check.
    fn step(&mut self, live: &mut Live, phase: &mut Phase);
}

/// Every `PAIR_EVERY`-th demand-stream arrival is a pair of epoch demands,
/// so a third of all demands clear through an epoch.
pub const PAIR_EVERY: u64 = 5;

/// Seed of the cells' datasets and landscapes. The cells are the market's
/// fixed catalog; `--seed` varies the order stream over them (which cell,
/// run seeds, wanted features, arrivals, fresh keys), so runs on different
/// seeds measure the same system on different traffic.
const CELL_SEED: u64 = 0x5eed_ce11;

/// Builds a workload from its seed: cells, registrations, and warm-up.
pub fn setup(
    kind: Kind,
    seed: u64,
    scale: &Scale,
    tracer: Option<Arc<Tracer>>,
) -> (Box<dyn Workload>, Live, SetupTimes) {
    let start = Instant::now();
    let (workers, ckpt_every) = (kind.workers(), kind.ckpt_every());
    let mut times = BuildTimes::default();
    let cell_specs: &[(DatasetId, ModelKind)] = match kind {
        Kind::HotBook => &[
            (DatasetId::Titanic, ModelKind::Forest),
            (DatasetId::Titanic, ModelKind::Mlp),
            (DatasetId::Credit, ModelKind::Forest),
            (DatasetId::Adult, ModelKind::Forest),
        ],
        Kind::ColdCourses => &[
            (DatasetId::Titanic, ModelKind::Forest),
            (DatasetId::Titanic, ModelKind::Mlp),
        ],
        Kind::DemandStream => &[
            (DatasetId::Titanic, ModelKind::Forest),
            (DatasetId::Credit, ModelKind::Forest),
        ],
    };
    let cells: Vec<Arc<Cell>> = cell_specs
        .iter()
        .enumerate()
        .map(|(i, &(id, model))| {
            let cell = Cell::build(
                id,
                model,
                &scale.profile,
                mix(CELL_SEED, i as u64),
                &mut times,
            )
            .expect("benchmark cells build");
            Arc::new(cell)
        })
        .collect();
    let rng = StdRng::seed_from_u64(mix(seed, 0x6e6));
    let (mut workload, mut live): (Box<dyn Workload>, Live) = match kind {
        Kind::HotBook => {
            let mut live = Live::new(cells, workers, ckpt_every, tracer, false);
            let markets = (0..live.cells.len())
                .map(|i| {
                    let cell = live.cells[i].clone();
                    live.register_market(warm_recipe(&cell, cell.name.clone(), cell.key))
                })
                .collect();
            let w = HotBook {
                rng,
                seed,
                batch: scale.hot_batch,
                markets,
                batches: 0,
            };
            (Box::new(w), live)
        }
        Kind::ColdCourses => {
            let mut live = Live::new(cells, workers, ckpt_every, tracer, false);
            live.check_every = 4;
            let w = ColdCourses {
                rng,
                seed,
                keys: scale.cold_keys,
                batches: 0,
            };
            (Box::new(w), live)
        }
        Kind::DemandStream => {
            let mut live = Live::new(cells, workers, ckpt_every, tracer.clone(), true);
            let keys: Vec<u64> = live.cells.iter().map(|c| c.key).collect();
            for (i, &key) in keys.iter().enumerate() {
                register_sellers(&mut live, i, key);
            }
            live.open_clearing(ClearingShape {
                epoch_size: 2,
                capacity: 1,
                max_rolls: 0,
            });
            let admission: Arc<dyn AdmissionPolicy> = Arc::new(QueueDepthAdmission {
                max_queue_depth: scale.max_queue_depth,
            });
            live.set_admission(match tracer {
                None => admission,
                Some(t) => Arc::new(TracedAdmission {
                    inner: admission,
                    tracer: t,
                }),
            });
            let w = DemandStream {
                rng,
                arrivals: scale.arrivals,
                max_pairs: scale.max_queue_depth / 10,
                interval: scale.tick,
                rekey_ticks: scale.rekey_ticks,
                origin: Instant::now(),
                tick: 0,
                arrived: 0,
                base_keys: keys.clone(),
                keys,
                seed,
                paced: false,
            };
            (Box::new(w), live)
        }
    };
    let warm = Instant::now();
    let steps = match kind {
        Kind::DemandStream => scale.warmup_steps * 4,
        _ => scale.warmup_steps,
    };
    let mut unmeasured = Phase::default();
    for _ in 0..steps {
        workload.step(&mut live, &mut unmeasured);
    }
    if !live.problems.is_empty() {
        panic!("warm-up failed: {:?}", live.problems);
    }
    live.seal_base();
    workload.rolled();
    times.oracle_s += warm.elapsed().as_secs_f64();
    let setup = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        synth_s: times.synth_s,
        oracle_warm_s: times.oracle_s,
    };
    (workload, live, setup)
}

fn warm_recipe(cell: &Cell, name: String, key: u64) -> MarketRecipe {
    MarketRecipe {
        name,
        inner: Arc::new(Warm(cell.oracle.clone())),
        kind: cell.kind,
        listings: cell.listings.clone(),
        key,
    }
}

/// Registers a cell's three sellers under scenario key `key`.
fn register_sellers(live: &mut Live, cell: usize, key: u64) {
    let cell = live.cells[cell].clone();
    for k in 0..3 {
        live.register_seller(seller_recipe(&cell, k, key));
    }
}

/// Seller `k` of a cell lists every listing whose index is not `k` mod 3,
/// so the three sellers' catalogs overlap pairwise.
fn seller_recipe(cell: &Cell, k: usize, key: u64) -> SellerRecipe {
    let table: Vec<_> = cell
        .listings
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != k)
        .map(|(_, l)| *l)
        .collect();
    let gains = table
        .iter()
        .map(|l| (l.bundle.0, cell.gain_of(l.bundle)))
        .collect();
    let mut market = warm_recipe(cell, format!("{}/seller{k}@{key:x}", cell.name), key);
    market.listings = Arc::new(table);
    SellerRecipe {
        market,
        gains: Arc::new(gains),
    }
}

/// A 63-bit evaluation key (clear of the exchange's private-key space).
fn fresh_key(seed: u64, salt: u64) -> u64 {
    mix(seed, salt) & !(1 << 63)
}

fn record_latencies(phase: &mut Phase, due: Instant, end: Instant, n: usize) {
    let ms = (end - due).as_secs_f64() * 1e3 * phase.probes.scale();
    if n > 0 {
        phase.latencies.push((ms, n as u64));
    }
}

/// Closed loop over warm cells: batches of plain sessions whose courses the
/// warmed ΔG cache serves. Once per checkpoint interval a batch also opens
/// one market under a fresh evaluation key over a warm oracle, so the
/// cache-miss path (claim, provider call, journaled course) runs without
/// any model fit.
struct HotBook {
    rng: StdRng,
    seed: u64,
    batch: usize,
    markets: Vec<MarketId>,
    batches: u64,
}

impl Workload for HotBook {
    fn restart(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.seed = seed;
        self.batches = 0;
    }

    fn step(&mut self, live: &mut Live, phase: &mut Phase) {
        let cpu = CpuWindow::open();
        let due = Instant::now();
        let n_cells = live.cells.len();
        let mut batch = Vec::with_capacity(self.batch + 1);
        if self.batches.is_multiple_of(live.ckpt_every as u64) {
            let c = (self.batches % n_cells as u64) as usize;
            let cell = live.cells[c].clone();
            let rot = live.register_market(warm_recipe(
                &cell,
                format!("{}/rot{}", cell.name, self.batches),
                fresh_key(self.seed, (1 << 40) | self.batches),
            ));
            let r = OrderRecipe {
                cell: c,
                run: self.rng.next_u64(),
            };
            batch.push((live.submit(rot, r, phase), r));
        }
        self.batches += 1;
        for _ in 0..self.batch {
            let cell = self.rng.random_range(0..n_cells);
            let r = OrderRecipe {
                cell,
                run: self.rng.next_u64(),
            };
            batch.push((live.submit(self.markets[cell], r, phase), r));
        }
        let end = live.drain(phase);
        let sampled = live.take_sessions(&batch, phase);
        cpu.close(phase);
        record_latencies(phase, due, end, batch.len());
        live.check_sampled(sampled, phase);
        live.after_drain();
    }
}

/// Closed loop over cold oracles: every batch opens fresh evaluation keys
/// (cold twins of forest and MLP cells) and submits two identical sessions
/// per key, so one trains each course and the other waits on its claim.
struct ColdCourses {
    rng: StdRng,
    seed: u64,
    keys: usize,
    batches: u64,
}

impl Workload for ColdCourses {
    fn restart(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.seed = seed;
        self.batches = 0;
    }

    fn step(&mut self, live: &mut Live, phase: &mut Phase) {
        let cpu = CpuWindow::open();
        let due = Instant::now();
        let mut batch = Vec::with_capacity(self.keys * 2);
        for j in 0..self.keys {
            let idx = self.batches * self.keys as u64 + j as u64;
            let c = (idx % live.cells.len() as u64) as usize;
            let cell = live.cells[c].clone();
            let market = live.register_market(MarketRecipe {
                name: format!("{}/cold{idx}", cell.name),
                inner: Arc::new(cell.cold_twin()),
                kind: cell.kind,
                listings: cell.listings.clone(),
                key: fresh_key(self.seed, (2 << 40) | idx),
            });
            let r = OrderRecipe {
                cell: c,
                run: self.rng.next_u64(),
            };
            for _ in 0..2 {
                batch.push((live.submit(market, r, phase), r));
            }
        }
        self.batches += 1;
        let end = live.drain(phase);
        let sampled = live.take_sessions(&batch, phase);
        cpu.close(phase);
        record_latencies(phase, due, end, batch.len());
        live.check_sampled(sampled, phase);
        live.after_drain();
    }
}

/// Open loop: a seeded bursty Poisson stream of demands on a fixed tick
/// clock. Each tick submits its due demands (fanned out to overlapping
/// sellers; a queue-depth policy sheds bursts) and drains. Every third
/// demand clears through an epoch: the generator holds it until a second
/// one arrives and submits the pair first in its tick, so every epoch is
/// full and never straddles a drain. Every `rekey_ticks` ticks one scenario
/// re-lists its sellers under a fresh key (over the same warm oracle), so
/// the cache-miss path runs without model fits.
struct DemandStream {
    rng: StdRng,
    arrivals: ArrivalProcess,
    /// Pairs submitted per tick at most (later pair arrivals in the tick
    /// become plain demands); their fan-out stays below the shed depth.
    max_pairs: usize,
    interval: Duration,
    rekey_ticks: u32,
    origin: Instant,
    tick: u32,
    arrived: u64,
    /// The scenario key each cell's demands currently target, and the keys
    /// of the set-up's listings.
    keys: Vec<u64>,
    base_keys: Vec<u64>,
    seed: u64,
    paced: bool,
}

impl Workload for DemandStream {
    fn begin_phase(&mut self, paced: bool) {
        self.paced = paced;
        self.origin = Instant::now();
        self.tick = 0;
    }

    fn rolled(&mut self) {
        self.keys.clone_from(&self.base_keys);
    }

    fn restart(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.seed = seed;
        self.arrived = 0;
        self.tick = 0;
    }

    fn step(&mut self, live: &mut Live, phase: &mut Phase) {
        let due = if self.paced {
            // Spin rather than sleep until the tick is due: a sleeping
            // generator lets the core idle, and the next drain then pays a
            // wake-up and a cold cache that depend on the machine's other
            // load rather than on the exchange.
            let due = self.origin + self.interval * self.tick;
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            phase
                .late_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            due
        } else {
            Instant::now()
        };
        let arrivals = self.arrivals.arrivals(self.tick, &mut self.rng);
        self.tick += 1;
        let cpu = CpuWindow::open();
        if self.tick.is_multiple_of(self.rekey_ticks) {
            let c = (self.tick / self.rekey_ticks) as usize % self.keys.len();
            self.keys[c] = fresh_key(self.seed, (3 << 40) | self.tick as u64 | (c as u64) << 32);
            register_sellers(live, c, self.keys[c]);
        }
        let (mut epoch, mut immediate) = (Vec::new(), Vec::new());
        for _ in 0..arrivals {
            let pair =
                self.arrived % PAIR_EVERY == PAIR_EVERY - 1 && epoch.len() < 2 * self.max_pairs;
            self.arrived += 1;
            for _ in 0..if pair { 2 } else { 1 } {
                let c = self.rng.random_range(0..live.cells.len());
                let catalog = BundleMask::union_of(live.cells[c].listings.iter().map(|l| l.bundle));
                let features = catalog.to_features();
                let a = features[self.rng.random_range(0..features.len())];
                let b = features[self.rng.random_range(0..features.len())];
                let r = DemandRecipe {
                    cell: c,
                    scenario: self.keys[c],
                    run: self.rng.next_u64(),
                    wanted: BundleMask::from_features(&[a, b]),
                    epoch: pair,
                };
                if pair {
                    epoch.push(r);
                } else {
                    immediate.push(r);
                }
            }
        }
        if epoch.is_empty() && immediate.is_empty() {
            cpu.close(phase);
            // A quiescent tick all the same: the checkpoint schedule counts
            // ticks.
            live.after_drain();
            return;
        }
        let mut batch = Vec::with_capacity(epoch.len() + immediate.len());
        for r in epoch.into_iter().chain(immediate) {
            if let Some(did) = live.submit_demand(r, phase) {
                batch.push((did, r));
            }
        }
        let end = live.drain(phase);
        let settled = live.take_demands(&batch, phase);
        cpu.close(phase);
        let n = settled.iter().filter(|&&s| s).count();
        record_latencies(phase, due, end, n);
        live.after_drain();
    }
}
