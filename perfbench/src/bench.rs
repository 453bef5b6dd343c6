//! The live exchange a workload drives, and the harness around every call
//! the benchmark makes into it: registration recipes (re-supplied at
//! recovery), order and demand constructors, the timed submit → drain → take
//! cycle, per-order correctness checks, the checkpoint schedule, and the
//! generation roll that keeps the exchange's state bounded.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vfl_exchange::{
    AdmissionPolicy, BestResponse, ClearPolicy, ClearingSpec, Demand, DemandId, DemandReport,
    DemandStatus, Exchange, ExchangeConfig, ExchangeTelemetry, Journal, MarketId, MarketSpec,
    MatchPolicy, MetricsSnapshot, ReplaySpec, SellerSpec, SessionId, SessionOrder, SettleMode,
    TaskFactory, UniformPriceClearing,
};
use vfl_market::{DataStrategy, GainProvider, Listing, Outcome, StrategicData, TaskStrategy};
use vfl_sim::BundleMask;

use crate::calib::Probes;
use crate::cells::Cell;
use crate::stats::{favourable_quartile, ratio, weighted_percentile};
use crate::sys::process_cpu;
use crate::trace::{
    harness, CountedProvider, ModelKind, TracedClear, TracedData, TracedMatch, TracedSink,
    TracedTask, Tracer, NO_ORDER,
};

/// Direct reference runs timed for the engine floor, at most: a fixed
/// number, so memory does not grow with the order count.
const ENGINE_SAMPLES: usize = 4096;

/// Quote rounds every demand candidate probes before settlement.
pub const PROBE_ROUNDS: u32 = 2;

/// A registration the benchmark can replay: the live exchange and every
/// recovery get a spec built from the same recipe.
#[derive(Clone)]
pub struct MarketRecipe {
    pub name: String,
    pub inner: Arc<dyn GainProvider + Send + Sync>,
    pub kind: ModelKind,
    pub listings: Arc<Vec<Listing>>,
    pub key: u64,
}

impl MarketRecipe {
    pub fn spec(&self, calls: &Arc<AtomicU64>, tracer: &Option<Arc<Tracer>>) -> MarketSpec {
        MarketSpec {
            provider: Arc::new(CountedProvider {
                inner: self.inner.clone(),
                model: self.kind,
                calls: calls.clone(),
                tracer: tracer.clone(),
            }),
            listings: self.listings.clone(),
            evaluation_key: Some(self.key),
            name: self.name.clone(),
        }
    }
}

/// A seller: its market plus the ΔG table it quotes from.
#[derive(Clone)]
pub struct SellerRecipe {
    pub market: MarketRecipe,
    pub gains: Arc<HashMap<u64, f64>>,
}

impl SellerRecipe {
    pub fn spec(&self, calls: &Arc<AtomicU64>, tracer: &Option<Arc<Tracer>>) -> SellerSpec {
        let gains = self.gains.clone();
        let quote = move |table: &[Listing]| -> Box<dyn DataStrategy + Send> {
            Box::new(StrategicData::with_gains(
                table.iter().map(|l| gains[&l.bundle.0]).collect(),
            ))
        };
        SellerSpec {
            market: self.market.spec(calls, tracer),
            quoting: match tracer.clone() {
                None => Arc::new(quote),
                Some(t) => Arc::new(move |table: &[Listing]| -> Box<dyn DataStrategy + Send> {
                    t.leaf("matching.quote", NO_ORDER, || {
                        Box::new(TracedData {
                            inner: quote(table),
                            tracer: t.clone(),
                            order: NO_ORDER,
                        })
                    })
                }),
            },
        }
    }
}

/// The journal's storage: an in-memory log that keeps only the newest
/// generation — the last checkpoint frame and everything after it — as an
/// operator who compacts at every checkpoint would (`Journal::compact`
/// writes the same `[Checkpoint, suffix…]` layout). Memory stays bounded
/// however long the run, and the crash image is what recovery would read.
#[derive(Clone, Default)]
pub struct Tape(Arc<Mutex<TapeState>>);

#[derive(Default)]
struct TapeState {
    kept: Vec<u8>,
    /// Bytes dropped from the front (older generations).
    cut: u64,
}

impl Tape {
    fn state(&self) -> std::sync::MutexGuard<'_, TapeState> {
        self.0.lock().expect("a journal append panicked")
    }

    /// Bytes ever written.
    pub fn len(&self) -> u64 {
        let s = self.state();
        s.cut + s.kept.len() as u64
    }

    /// The kept generation.
    pub fn bytes(&self) -> Vec<u8> {
        self.state().kept.clone()
    }

    /// Drops everything before byte `offset` (a frame boundary).
    fn cut_at(&self, offset: u64) {
        let mut s = self.state();
        let n = (offset - s.cut) as usize;
        s.kept.drain(..n);
        s.cut = offset;
    }
}

impl Write for Tape {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.state().kept.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A plain session: which cell it trades and its run seed.
#[derive(Debug, Clone, Copy)]
pub struct OrderRecipe {
    pub cell: usize,
    pub run: u64,
}

/// A demand: its cell, the scenario key it targets, run seed, wanted
/// features, and settle mode.
#[derive(Debug, Clone, Copy)]
pub struct DemandRecipe {
    pub cell: usize,
    pub scenario: u64,
    pub run: u64,
    pub wanted: BundleMask,
    pub epoch: bool,
}

/// The shape of the clearing window (its policy is always uniform-price).
#[derive(Debug, Clone, Copy)]
pub struct ClearingShape {
    pub epoch_size: usize,
    pub capacity: u32,
    pub max_rolls: u32,
}

impl ClearingShape {
    pub fn spec(&self, tracer: &Option<Arc<Tracer>>) -> ClearingSpec {
        let policy: Arc<dyn ClearPolicy> = Arc::new(UniformPriceClearing::default());
        ClearingSpec {
            epoch_size: self.epoch_size,
            capacity: self.capacity,
            max_rolls: self.max_rolls,
            policy: match tracer {
                None => policy,
                Some(t) => Arc::new(TracedClear {
                    inner: policy,
                    tracer: t.clone(),
                }),
            },
        }
    }
}

fn traced_task(
    inner: Box<dyn TaskStrategy + Send>,
    tracer: Option<&Arc<Tracer>>,
    order: u64,
) -> Box<dyn TaskStrategy + Send> {
    match tracer {
        None => inner,
        Some(t) => Box::new(TracedTask {
            inner,
            tracer: t.clone(),
            order,
        }),
    }
}

/// The session order of recipe `r` (strategies traced when `tracer` is set).
pub fn session_order(
    cells: &[Arc<Cell>],
    r: OrderRecipe,
    tracer: Option<&Arc<Tracer>>,
    order: u64,
) -> SessionOrder {
    let cell = &cells[r.cell];
    let data: Box<dyn DataStrategy + Send> = Box::new(cell.data());
    SessionOrder {
        cfg: cell.cfg_for(r.run),
        task: traced_task(Box::new(cell.task()), tracer, order),
        data: match tracer {
            None => data,
            Some(t) => Box::new(TracedData {
                inner: data,
                tracer: t.clone(),
                order,
            }),
        },
    }
}

/// The demand of recipe `r` (task, policy traced when `tracer` is set).
pub fn demand(
    cells: &[Arc<Cell>],
    r: DemandRecipe,
    tracer: Option<&Arc<Tracer>>,
    order: u64,
) -> Demand {
    let cell = cells[r.cell].clone();
    let t = tracer.cloned();
    let task: TaskFactory = {
        let cell = cell.clone();
        Arc::new(move || traced_task(Box::new(cell.task()), t.as_ref(), order))
    };
    let policy: Arc<dyn MatchPolicy> = match tracer {
        None => Arc::new(BestResponse),
        Some(t) => Arc::new(TracedMatch {
            inner: Arc::new(BestResponse),
            tracer: t.clone(),
            order,
        }),
    };
    Demand {
        wanted: r.wanted,
        scenario: Some(r.scenario),
        cfg: cell.cfg_for(r.run),
        task,
        probe_rounds: PROBE_ROUNDS,
        settle: if r.epoch {
            SettleMode::Epoch
        } else {
            SettleMode::Immediate(policy)
        },
    }
}

/// Everything the exchange produced since the last checkpoint: what a
/// crash at the end of the run must reproduce.
#[derive(Default)]
pub struct Suffix {
    pub orders: HashMap<u64, OrderRecipe>,
    pub demands: HashMap<u64, DemandRecipe>,
    pub outcomes: Vec<(SessionId, Outcome)>,
    pub reports: Vec<DemandReport>,
}

/// Order accounting for one phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    /// Terminal, no hard error, passed its correctness check.
    pub ok: u64,
    /// Hard errors, rejected submissions, and failed checks.
    pub failed: u64,
    /// Demands refused by admission (not ok, not failed).
    pub shed: u64,
    /// Orders made terminal by a drain.
    pub settled: u64,
}

/// Totals of a run of steps: a window of a phase, or its running sum.
#[derive(Debug, Default, Clone, Copy)]
pub struct Window {
    pub attempted: u64,
    pub settled: u64,
    pub drain: Duration,
    pub cpu: Duration,
    pub unscaled_drain: Duration,
    /// Latency samples recorded.
    pub latencies: usize,
    /// The factor to the reference speed (see `calib`) when the window
    /// closed.
    pub scale: f64,
}

/// What one measured phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    /// Time in `drain` and process CPU time, each scaled to the reference
    /// speed when it was taken (see `calib`), and the drain time as read.
    pub drain: Duration,
    pub cpu: Duration,
    pub unscaled_drain: Duration,
    /// Settle latencies at the reference speed: `(ms, orders)`, one sample
    /// per drain.
    pub latencies: Vec<(f64, u64)>,
    pub late_ms: Vec<f64>,
    /// Journal bytes and frames written, and courses paid, inside steps.
    pub journal_bytes: u64,
    pub journal_frames: u64,
    pub trainings: u64,
    pub wall: Duration,
    pub windows: Vec<Window>,
    /// Host-speed probes taken between the phase's steps.
    pub probes: Probes,
    /// Totals when the last window closed.
    mark: Window,
}

impl Phase {
    /// Closes the window of every step since the last one closed.
    pub fn close_window(&mut self) {
        let m = self.mark;
        self.mark = Window {
            attempted: self.tally.attempted,
            settled: self.tally.settled,
            drain: self.drain,
            cpu: self.cpu,
            unscaled_drain: self.unscaled_drain,
            latencies: self.latencies.len(),
            scale: 1.0,
        };
        self.windows.push(Window {
            attempted: self.mark.attempted - m.attempted,
            settled: self.mark.settled - m.settled,
            drain: self.mark.drain - m.drain,
            cpu: self.mark.cpu - m.cpu,
            unscaled_drain: self.mark.unscaled_drain - m.unscaled_drain,
            latencies: self.mark.latencies - m.latencies,
            scale: self.probes.scale(),
        });
    }

    /// Settle latency at percentile `p`, taken within each window: the
    /// favourable quartile over windows.
    /// One run-wide tail rests on a handful of drains, so it moves with
    /// whatever else the machine ran at that moment.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let mut at = 0;
        let tails: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.latencies > 0)
            .map(|w| {
                at += w.latencies;
                weighted_percentile(&self.latencies[at - w.latencies..at], p)
            })
            .collect();
        favourable_quartile(&tails, false)
    }

    /// Orders settled per second of drain at the reference speed: the
    /// favourable quartile over windows.
    pub fn settled_per_s(&self) -> f64 {
        self.rate(|w| w.drain)
    }

    /// `settled_per_s` with drain times as read.
    pub fn unscaled_settled_per_s(&self) -> f64 {
        self.rate(|w| w.unscaled_drain)
    }

    fn rate(&self, drain: impl Fn(&Window) -> Duration) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| ratio(w.settled as f64, drain(w).as_secs_f64()))
            .collect();
        favourable_quartile(&rates, true)
    }

    /// µs of process CPU per order attempted at the reference speed: the
    /// favourable quartile over windows.
    pub fn cpu_us_per_order(&self) -> f64 {
        let costs: Vec<f64> = self
            .windows
            .iter()
            .map(|w| ratio(w.cpu.as_secs_f64() * 1e6, w.attempted as f64))
            .collect();
        favourable_quartile(&costs, false)
    }
}

/// The exchange a workload drives, plus the benchmark's own bookkeeping.
pub struct Live {
    pub exchange: Exchange,
    pub tape: Tape,
    pub journal: Arc<Journal>,
    pub cells: Arc<Vec<Arc<Cell>>>,
    /// Gain-provider calls (paid courses) across every registered market.
    pub calls: Arc<AtomicU64>,
    pub tracer: Option<Arc<Tracer>>,
    pub markets: Vec<MarketRecipe>,
    pub sellers: Vec<SellerRecipe>,
    pub clearing: Option<ClearingShape>,
    pub workers: usize,
    pub ckpt_every: u32,
    pub drains_since_ckpt: u32,
    pub suffix: Suffix,
    next_order: u64,
    /// Sessions whose outcome is compared against a direct run.
    pub check_every: u64,
    /// Wall time of the first `ENGINE_SAMPLES` direct reference runs (the
    /// engine floor).
    pub engine_ns: Vec<f64>,
    /// Demand accounting of the current generation (the conservation
    /// check).
    pub demands_attempted: u64,
    pub demands_admitted: u64,
    pub demands_shed: u64,
    pub demands_rejected: u64,
    /// Descriptions of the first failures seen.
    pub problems: Vec<String>,
    /// Bytes of the scheduled checkpoints' frames.
    pub checkpoint_bytes: u64,
    /// Courses served to losing demand candidates (probe spend).
    pub loser_probe_courses: u64,
    admission: Option<Arc<dyn AdmissionPolicy>>,
    /// The image every generation starts from: one checkpoint frame with
    /// the set-up's registrations and warm ΔG cache.
    base: Vec<u8>,
    base_markets: usize,
    base_sellers: usize,
    /// The exchange's counters when its generation began, and the sums
    /// over the generations already rolled away.
    gen_start: MetricsSnapshot,
    retired: Counters,
}

fn journal_on(tape: &Tape, tracer: &Option<Arc<Tracer>>) -> Arc<Journal> {
    Arc::new(match tracer {
        None => Journal::new(Box::new(tape.clone())),
        Some(t) => Journal::new(Box::new(TracedSink {
            inner: tape.clone(),
            tracer: t.clone(),
        })),
    })
}

/// Exchange counters summed over generations, by exported name.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Adds `end - start`, counter by counter.
    fn add(&mut self, start: &MetricsSnapshot, end: &MetricsSnapshot) {
        let mut before = Vec::new();
        start.for_each_counter(|_, v| before.push(v));
        let mut i = 0;
        end.for_each_counter(|name, v| {
            *self.0.entry(name).or_default() += v - before[i];
            i += 1;
        });
    }

    /// The counter `field` of `MetricsSnapshot`.
    pub fn get(&self, field: &str) -> u64 {
        self.0
            .get(format!("vfl_exchange_{field}").as_str())
            .copied()
            .unwrap_or(0)
    }
}

impl Live {
    pub fn new(
        cells: Vec<Arc<Cell>>,
        workers: usize,
        ckpt_every: u32,
        tracer: Option<Arc<Tracer>>,
        telemetry: bool,
    ) -> Live {
        let tape = Tape::default();
        let journal = journal_on(&tape, &tracer);
        let cfg = ExchangeConfig::default();
        let exchange = if telemetry {
            Exchange::with_journal_and_telemetry(cfg, journal.clone(), ExchangeTelemetry::new())
        } else {
            Exchange::with_journal(cfg, journal.clone())
        };
        Live {
            exchange,
            tape,
            journal,
            cells: Arc::new(cells),
            calls: Arc::new(AtomicU64::new(0)),
            tracer,
            markets: Vec::new(),
            sellers: Vec::new(),
            clearing: None,
            workers,
            ckpt_every,
            drains_since_ckpt: 0,
            suffix: Suffix::default(),
            next_order: 0,
            check_every: 16,
            engine_ns: Vec::new(),
            demands_attempted: 0,
            demands_admitted: 0,
            demands_shed: 0,
            demands_rejected: 0,
            problems: Vec::new(),
            checkpoint_bytes: 0,
            loser_probe_courses: 0,
            admission: None,
            base: Vec::new(),
            base_markets: 0,
            base_sellers: 0,
            gen_start: MetricsSnapshot::default(),
            retired: Counters::default(),
        }
    }

    pub fn set_admission(&mut self, policy: Arc<dyn AdmissionPolicy>) {
        self.exchange.set_admission(Some(policy.clone()));
        self.admission = Some(policy);
    }

    /// Ends the set-up: checkpoints the quiescent exchange and keeps that
    /// image as the start of every later generation.
    pub fn seal_base(&mut self) {
        self.rebase();
        self.base = self.tape.bytes();
        self.base_markets = self.markets.len();
        self.base_sellers = self.sellers.len();
    }

    /// Starts a new generation: a fresh exchange and journal restored from
    /// the base image, so the registrations and ΔG-cache entries the last
    /// generation added (fresh keys, re-listings, epoch history) are gone.
    /// A closed loop adds state with every batch and the exchange can
    /// neither unregister a market nor evict a cache entry; rolling every
    /// fixed number of steps keeps checkpoint size, recovery time and
    /// memory independent of how fast the loop ran.
    pub fn roll(&mut self) {
        if let Err(e) = self.conservation() {
            self.problem(e);
        }
        self.retired.add(&self.gen_start, &self.exchange.metrics());
        self.markets.truncate(self.base_markets);
        self.sellers.truncate(self.base_sellers);
        self.tape = Tape::default();
        self.journal = journal_on(&self.tape, &self.tracer);
        let spec = ReplaySpec {
            markets: self
                .markets
                .iter()
                .map(|m| m.spec(&self.calls, &self.tracer))
                .collect(),
            sellers: self
                .sellers
                .iter()
                .map(|s| s.spec(&self.calls, &self.tracer))
                .collect(),
            clearing: self.clearing.map(|c| c.spec(&self.tracer)),
            ..ReplaySpec::default()
        };
        let telemetry = self.exchange.telemetry().map(|_| ExchangeTelemetry::new());
        let (exchange, _) = Exchange::recover_with_telemetry(
            ExchangeConfig::default(),
            &self.base,
            spec,
            Some(self.journal.clone()),
            telemetry,
        )
        .expect("the base image recovers");
        exchange.set_admission(self.admission.clone());
        self.exchange = exchange;
        self.gen_start = self.exchange.metrics();
        self.demands_attempted = 0;
        self.demands_admitted = 0;
        self.demands_shed = 0;
        self.demands_rejected = 0;
        self.rebase();
    }

    /// Checkpoints outside the schedule (not counted) and drops the journal
    /// before it, so the tape holds one checkpoint frame.
    fn rebase(&mut self) {
        let before = self.tape.len();
        self.exchange
            .checkpoint()
            .expect("the exchange is quiescent between steps");
        self.tape.cut_at(before);
        self.suffix = Suffix::default();
        self.drains_since_ckpt = 0;
    }

    /// The exchange's counters summed over every generation so far.
    pub fn counters(&self) -> Counters {
        let mut c = self.retired.clone();
        c.add(&self.gen_start, &self.exchange.metrics());
        c
    }

    fn problem(&mut self, msg: String) {
        if self.problems.len() < 8 {
            self.problems.push(msg);
        }
    }

    pub fn register_market(&mut self, recipe: MarketRecipe) -> MarketId {
        let id = self
            .exchange
            .register_market(recipe.spec(&self.calls, &self.tracer))
            .expect("benchmark markets have non-empty tables");
        self.markets.push(recipe);
        id
    }

    pub fn register_seller(&mut self, recipe: SellerRecipe) {
        self.exchange
            .register_seller(recipe.spec(&self.calls, &self.tracer))
            .expect("benchmark sellers have non-empty tables");
        self.sellers.push(recipe);
    }

    pub fn open_clearing(&mut self, shape: ClearingShape) {
        self.exchange
            .open_clearing(shape.spec(&self.tracer))
            .expect("the window opens once");
        self.clearing = Some(shape);
    }

    /// Submits a plain session; returns its id and order id.
    pub fn submit(&mut self, market: MarketId, r: OrderRecipe, phase: &mut Phase) -> SessionId {
        let order = self.next_order;
        self.next_order += 1;
        phase.tally.attempted += 1;
        let built = session_order(&self.cells, r, self.tracer.as_ref(), order);
        let ex = &self.exchange;
        let sid = harness(&self.tracer, "exchange.submit", order, || {
            ex.submit(market, built)
        })
        .expect("benchmark orders are valid");
        self.suffix.orders.insert(sid.0, r);
        sid
    }

    /// Submits a demand; `None` when the exchange rejected it outright.
    pub fn submit_demand(&mut self, r: DemandRecipe, phase: &mut Phase) -> Option<DemandId> {
        let order = self.next_order;
        self.next_order += 1;
        phase.tally.attempted += 1;
        self.demands_attempted += 1;
        let built = demand(&self.cells, r, self.tracer.as_ref(), order);
        let ex = &self.exchange;
        match harness(&self.tracer, "exchange.submit", order, || {
            ex.submit_demand(built)
        }) {
            Ok(did) => {
                self.suffix.demands.insert(did.0, r);
                Some(did)
            }
            Err(e) => {
                self.demands_rejected += 1;
                phase.tally.failed += 1;
                self.problem(format!("demand rejected: {e}"));
                None
            }
        }
    }

    /// Drains the exchange; returns when the drain returned.
    pub fn drain(&mut self, phase: &mut Phase) -> Instant {
        let (ex, workers) = (&self.exchange, self.workers);
        let start = Instant::now();
        harness(&self.tracer, "exchange.drain", NO_ORDER, || {
            ex.drain(workers)
        });
        let end = Instant::now();
        phase.drain += (end - start).mul_f64(phase.probes.scale());
        phase.unscaled_drain += end - start;
        end
    }

    /// Takes every session of a closed batch and checks it; sampled ones
    /// are compared against a direct `run_bargaining`. Returns the ids to
    /// compare against their reference (checked outside the CPU window).
    pub fn take_sessions(
        &mut self,
        batch: &[(SessionId, OrderRecipe)],
        phase: &mut Phase,
    ) -> Vec<(SessionId, OrderRecipe, Outcome)> {
        let ex = &self.exchange;
        let taken: Vec<_> = harness(&self.tracer, "exchange.take", NO_ORDER, || {
            batch.iter().map(|&(sid, _)| ex.take(sid)).collect()
        });
        let mut sampled = Vec::new();
        for (&(sid, r), outcome) in batch.iter().zip(taken) {
            match outcome {
                Some(Ok(o)) => {
                    phase.tally.settled += 1;
                    if sid.0 % self.check_every == 0 {
                        sampled.push((sid, r, (*o).clone()));
                    } else {
                        phase.tally.ok += 1;
                    }
                    self.suffix.outcomes.push((sid, *o));
                }
                Some(Err(e)) => {
                    phase.tally.failed += 1;
                    self.problem(format!("session {sid} failed: {e}"));
                }
                None => {
                    phase.tally.failed += 1;
                    self.problem(format!("session {sid} was not terminal after its drain"));
                }
            }
        }
        sampled
    }

    /// Compares sampled outcomes with direct runs over the warm oracle.
    pub fn check_sampled(
        &mut self,
        sampled: Vec<(SessionId, OrderRecipe, Outcome)>,
        phase: &mut Phase,
    ) {
        for (sid, r, outcome) in sampled {
            let start = Instant::now();
            let reference = self.cells[r.cell].reference(r.run);
            if self.engine_ns.len() < ENGINE_SAMPLES {
                self.engine_ns.push(start.elapsed().as_nanos() as f64);
            }
            match reference {
                Ok(reference) if reference == outcome => phase.tally.ok += 1,
                _ => {
                    phase.tally.failed += 1;
                    self.problem(format!("session {sid} differs from its direct run"));
                }
            }
        }
    }

    /// Takes and checks every demand of a tick: the winner must be
    /// `BestResponse`'s pick (immediate mode) or an epoch's, every
    /// candidate must end without a hard error, and shed demands must be
    /// terminal-shed. Returns which demands a drain settled (not shed).
    pub fn take_demands(
        &mut self,
        batch: &[(DemandId, DemandRecipe)],
        phase: &mut Phase,
    ) -> Vec<bool> {
        let mut settled = Vec::with_capacity(batch.len());
        let ex = &self.exchange;
        let taken: Vec<_> = harness(&self.tracer, "exchange.take", NO_ORDER, || {
            batch
                .iter()
                .map(|&(did, _)| {
                    let shed = matches!(ex.demand_status(did), Some(DemandStatus::Shed { .. }));
                    let report = ex.take_demand(did);
                    let outcomes: Vec<_> = report
                        .iter()
                        .flat_map(|r| r.quotes.iter().map(|q| (q.session, ex.take(q.session))))
                        .collect();
                    (shed, report, outcomes)
                })
                .collect()
        });
        for (&(did, r), (shed, report, outcomes)) in batch.iter().zip(taken) {
            settled.push(report.is_some() && !shed);
            let Some(report) = report else {
                phase.tally.failed += 1;
                self.problem(format!("demand {did} was not settled after its drain"));
                continue;
            };
            if shed {
                phase.tally.shed += 1;
                self.demands_shed += 1;
                self.suffix.reports.push(report);
                continue;
            }
            self.demands_admitted += 1;
            self.loser_probe_courses += report.loser_probe_spend() as u64;
            phase.tally.settled += 1;
            let mut good = true;
            for (sid, outcome) in outcomes {
                match outcome {
                    Some(Ok(o)) => self.suffix.outcomes.push((sid, *o)),
                    _ => good = false,
                }
            }
            let winner_ok = if r.epoch {
                report.epoch.is_some()
            } else {
                let cfg = self.cells[r.cell].cfg_for(r.run);
                report.winner == BestResponse.select(&cfg, &report.quotes)
            };
            if good && winner_ok {
                phase.tally.ok += 1;
            } else {
                phase.tally.failed += 1;
                self.problem(format!(
                    "demand {did}: candidates ok {good}, winner check ok {winner_ok}"
                ));
            }
            self.suffix.reports.push(report);
        }
        settled
    }

    /// Counts a finished drain and checkpoints every `ckpt_every` of them.
    pub fn after_drain(&mut self) {
        self.drains_since_ckpt += 1;
        if self.drains_since_ckpt < self.ckpt_every {
            return;
        }
        let before = self.tape.len();
        let ex = &self.exchange;
        match harness(&self.tracer, "checkpoint", NO_ORDER, || ex.checkpoint()) {
            Ok(_) => self.tape.cut_at(before),
            Err(e) => self.problem(format!("checkpoint refused: {e}")),
        }
        self.checkpoint_bytes += self.tape.len() - before;
        self.suffix = Suffix::default();
        self.drains_since_ckpt = 0;
        if self.exchange.telemetry().is_some() {
            let ex = &self.exchange;
            harness(&self.tracer, "telemetry.scrape", NO_ORDER, || ex.scrape());
        }
    }

    /// Demand conservation over the current generation: every attempt was
    /// admitted, shed, or rejected, and every admitted demand settled.
    pub fn conservation(&self) -> Result<(), String> {
        let mut c = Counters::default();
        c.add(&self.gen_start, &self.exchange.metrics());
        let m = MetricsSnapshot {
            demands_submitted: c.get("demands_submitted"),
            demands_shed: c.get("demands_shed"),
            demands_settled: c.get("demands_settled"),
            ..MetricsSnapshot::default()
        };
        let attempts = self.demands_admitted + self.demands_shed + self.demands_rejected;
        if attempts != self.demands_attempted
            || m.demands_submitted != self.demands_admitted
            || m.demands_shed != self.demands_shed
            || m.demands_settled != m.demands_submitted
        {
            return Err(format!(
                "demand conservation: attempted {} = admitted {} + shed {} + rejected {}; \
                 exchange submitted {} shed {} settled {}",
                self.demands_attempted,
                self.demands_admitted,
                self.demands_shed,
                self.demands_rejected,
                m.demands_submitted,
                m.demands_shed,
                m.demands_settled
            ));
        }
        Ok(())
    }
}

/// A CPU-time window: opened before the generator's work for one step,
/// closed after the step's takes (verification runs outside it).
pub struct CpuWindow(Duration);

impl CpuWindow {
    pub fn open() -> CpuWindow {
        CpuWindow(process_cpu())
    }

    pub fn close(self, phase: &mut Phase) {
        let used = process_cpu().saturating_sub(self.0);
        phase.cpu += used.mul_f64(phase.probes.scale());
    }
}

/// Bumps the paid-course counter's reading into the phase.
pub fn calls(live: &Live) -> u64 {
    live.calls.load(Ordering::Relaxed)
}
