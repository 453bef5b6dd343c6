//! Outside-in tracing: spans recorded only around calls the benchmark makes
//! into public functions, and inside wrappers of the public traits it hands
//! to the exchange (gain providers, strategies, match/clear/admission
//! policies, quoting factories, the journal sink).
//!
//! Every span records its name, start, end, parent, and the order id the
//! wrapper captured when it was built. Harness spans (submit, drain, take,
//! checkpoint, scrape) are opened by the benchmark's single generator
//! thread and never overlap; every wrapper span that starts while one is
//! open — on any thread — is its child. When a harness span closes, its
//! self time (duration minus the union of its children's intervals) and the
//! per-name totals are folded into the aggregate, and its spans are kept in
//! memory up to a cap and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vfl_exchange::{
    AdmissionDecision, AdmissionLoad, AdmissionPolicy, CandidateQuote, ClearPolicy, EpochBatch,
    EpochDecision, MatchPolicy,
};
use vfl_market::{
    DataContext, DataResponse, DataStrategy, GainProvider, Listing, MarketConfig, QuotedPrice,
    Result, TaskContext, TaskDecision, TaskStrategy,
};
use vfl_sim::BundleMask;

/// Order id of spans whose wrapper serves many orders (providers, the
/// journal sink, window-wide policies).
pub const NO_ORDER: u64 = u64::MAX;

/// Spans kept in memory for the span file; later spans still count in the
/// aggregates.
const KEPT_SPANS: usize = 50_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the harness span open when this one started (0 = none).
    pub parent: u64,
    pub order: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: u64,
    pub busy_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
    /// Summed busy time of child spans (harness spans only).
    pub child_busy_ns: u64,
}

#[derive(Default)]
struct Log {
    /// Spans of the open harness span (children so far).
    open: Vec<Span>,
    kept: Vec<Span>,
    dropped: u64,
    stats: BTreeMap<&'static str, SpanStats>,
    /// `(parent name, child name)` → (count, busy ns).
    edges: BTreeMap<(&'static str, &'static str), (u64, u64)>,
    /// Durations of every course span (for the course percentiles).
    course_ns: Vec<u64>,
}

/// The in-memory span recorder shared by every wrapper of one run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// The open harness span's id (0 when none is open).
    parent: AtomicU64,
    /// Off while the benchmark does unmeasured work (generation rolls, the
    /// crash); calls then run untimed.
    recording: AtomicBool,
    log: Mutex<Log>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            parent: AtomicU64::new(0),
            recording: AtomicBool::new(true),
            log: Mutex::new(Log::default()),
        })
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("a traced call panicked while recording")
    }

    /// Turns span recording on or off. Only switched between steps, when no
    /// traced call is in flight.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    fn recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    /// Runs `f` as a leaf span named `name` for `order`.
    pub fn leaf<R>(&self, name: &'static str, order: u64, f: impl FnOnce() -> R) -> R {
        if !self.recording() {
            return f();
        }
        let parent = self.parent.load(Ordering::SeqCst);
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns,
            end_ns,
            parent,
            order,
        };
        let mut log = self.lock();
        if name.starts_with("course.") {
            log.course_ns.push(end_ns - start_ns);
        }
        if parent == 0 {
            fold(&mut log, &span, 0, 0);
            keep(&mut log, span);
        } else {
            log.open.push(span);
        }
        out
    }

    /// Runs `f` as a harness span: every wrapper span started meanwhile is
    /// its child. Harness spans must not nest.
    pub fn harness<R>(&self, name: &'static str, order: u64, f: impl FnOnce() -> R) -> R {
        if !self.recording() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now();
        self.parent.store(id, Ordering::SeqCst);
        let out = f();
        self.parent.store(0, Ordering::SeqCst);
        let end_ns = self.now();
        let span = Span {
            id,
            name,
            start_ns,
            end_ns,
            parent: 0,
            order,
        };
        let mut log = self.lock();
        let children = std::mem::take(&mut log.open);
        let covered = union_ns(&children, start_ns, end_ns);
        let child_busy: u64 = children.iter().map(|c| c.end_ns - c.start_ns).sum();
        fold(&mut log, &span, covered, child_busy);
        for child in &children {
            fold(&mut log, child, 0, 0);
            let edge = log.edges.entry((name, child.name)).or_default();
            edge.0 += 1;
            edge.1 += child.end_ns - child.start_ns;
        }
        keep(&mut log, span);
        for child in children {
            keep(&mut log, child);
        }
        out
    }

    /// Forgets every span recorded so far (the set-up's warm-up).
    pub fn reset(&self) {
        *self.lock() = Log::default();
    }

    /// Per-name totals so far.
    pub fn stats(&self, name: &str) -> SpanStats {
        self.lock().stats.get(name).copied().unwrap_or_default()
    }

    /// Summed totals of every span name starting with `prefix`.
    pub fn stats_prefixed(&self, prefix: &str) -> SpanStats {
        let log = self.lock();
        let mut total = SpanStats::default();
        for (_, s) in log.stats.iter().filter(|(n, _)| n.starts_with(prefix)) {
            total.count += s.count;
            total.busy_ns += s.busy_ns;
            total.self_ns += s.self_ns;
            total.child_busy_ns += s.child_busy_ns;
        }
        total
    }

    /// Count and busy time of `child` spans under `parent` harness spans.
    pub fn edge(&self, parent: &str, child: &str) -> (u64, u64) {
        let log = self.lock();
        log.edges
            .iter()
            .find(|((p, c), _)| *p == parent && *c == child)
            .map_or((0, 0), |(_, v)| *v)
    }

    /// Durations of every course span, in ns.
    pub fn course_durations(&self) -> Vec<f64> {
        self.lock().course_ns.iter().map(|&ns| ns as f64).collect()
    }

    /// The per-layer table: one row per span name with its count, busy
    /// time, and self time.
    pub fn table(&self) -> String {
        let log = self.lock();
        let mut out = format!(
            "{:<22} {:>10} {:>12} {:>12}\n",
            "span", "count", "busy_ms", "self_ms"
        );
        for (name, s) in &log.stats {
            out.push_str(&format!(
                "{:<22} {:>10} {:>12.3} {:>12.3}\n",
                name,
                s.count,
                s.busy_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            ));
        }
        out
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let log = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &log.kept {
            let order = if s.order == NO_ORDER {
                "null".to_string()
            } else {
                s.order.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"order\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, order
            )?;
        }
        writeln!(out, "{{\"dropped\":{}}}", log.dropped)?;
        out.flush()
    }
}

fn fold(log: &mut Log, span: &Span, covered_ns: u64, child_busy_ns: u64) {
    let dur = span.end_ns - span.start_ns;
    let s = log.stats.entry(span.name).or_default();
    s.count += 1;
    s.busy_ns += dur;
    s.self_ns += dur.saturating_sub(covered_ns);
    s.child_busy_ns += child_busy_ns;
}

fn keep(log: &mut Log, span: Span) {
    if log.kept.len() < KEPT_SPANS {
        log.kept.push(span);
    } else {
        log.dropped += 1;
    }
}

/// Length of the union of `spans`' intervals, clipped to `[lo, hi]`.
fn union_ns(spans: &[Span], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.max(lo), s.end_ns.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Runs `f` as a harness span when tracing, plainly otherwise.
pub fn harness<R>(
    tracer: &Option<Arc<Tracer>>,
    name: &'static str,
    order: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.harness(name, order, f),
        None => f(),
    }
}

// ---------------------------------------------------------------------------
// Wrappers of the public traits
// ---------------------------------------------------------------------------

/// Which base model a provider's courses fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    Forest,
    Mlp,
}

impl ModelKind {
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Forest => "random_forest",
            ModelKind::Mlp => "mlp",
        }
    }

    fn span(self) -> &'static str {
        match self {
            ModelKind::Forest => "course.forest",
            ModelKind::Mlp => "course.mlp",
        }
    }
}

/// Counts every gain-provider call (one paid course each) and, when
/// tracing, records it as a course span.
pub struct CountedProvider {
    pub inner: Arc<dyn GainProvider + Send + Sync>,
    pub model: ModelKind,
    pub calls: Arc<AtomicU64>,
    pub tracer: Option<Arc<Tracer>>,
}

impl GainProvider for CountedProvider {
    fn gain(&self, bundle: BundleMask) -> Result<f64> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        match &self.tracer {
            Some(t) => t.leaf(self.model.span(), NO_ORDER, || self.inner.gain(bundle)),
            None => self.inner.gain(bundle),
        }
    }

    fn known_gain(&self, bundle: BundleMask) -> Option<f64> {
        self.inner.known_gain(bundle)
    }
}

/// A traced task-party strategy.
pub struct TracedTask {
    pub inner: Box<dyn TaskStrategy + Send>,
    pub tracer: Arc<Tracer>,
    pub order: u64,
}

impl TaskStrategy for TracedTask {
    fn initial_quote(
        &mut self,
        cfg: &MarketConfig,
        rng: &mut rand::rngs::StdRng,
    ) -> Result<QuotedPrice> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.leaf("market.task", self.order, || inner.initial_quote(cfg, rng))
    }

    fn decide(
        &mut self,
        ctx: &TaskContext<'_>,
        cfg: &MarketConfig,
        rng: &mut rand::rngs::StdRng,
    ) -> Result<TaskDecision> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.leaf("market.task", self.order, || inner.decide(ctx, cfg, rng))
    }

    fn observe_course(&mut self, quote: &QuotedPrice, bundle: BundleMask, gain: f64) {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.leaf("market.task", self.order, || {
            inner.observe_course(quote, bundle, gain)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A traced data-party strategy.
pub struct TracedData {
    pub inner: Box<dyn DataStrategy + Send>,
    pub tracer: Arc<Tracer>,
    pub order: u64,
}

impl DataStrategy for TracedData {
    fn respond(
        &mut self,
        ctx: &DataContext<'_>,
        listings: &[Listing],
        cfg: &MarketConfig,
        rng: &mut rand::rngs::StdRng,
    ) -> Result<DataResponse> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.leaf("market.data", self.order, || {
            inner.respond(ctx, listings, cfg, rng)
        })
    }

    fn observe_course(&mut self, bundle: BundleMask, gain: f64) {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.leaf("market.data", self.order, || {
            inner.observe_course(bundle, gain)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A traced settlement policy (one per demand).
pub struct TracedMatch {
    pub inner: Arc<dyn MatchPolicy>,
    pub tracer: Arc<Tracer>,
    pub order: u64,
}

impl MatchPolicy for TracedMatch {
    fn select(&self, cfg: &MarketConfig, quotes: &[CandidateQuote]) -> Option<usize> {
        self.tracer.leaf("matching.select", self.order, || {
            self.inner.select(cfg, quotes)
        })
    }
}

/// A traced clearing policy.
pub struct TracedClear {
    pub inner: Arc<dyn ClearPolicy>,
    pub tracer: Arc<Tracer>,
}

impl ClearPolicy for TracedClear {
    fn clear(&self, batch: &EpochBatch<'_>) -> EpochDecision {
        self.tracer
            .leaf("clearing.clear", NO_ORDER, || self.inner.clear(batch))
    }
}

/// A traced admission policy.
pub struct TracedAdmission {
    pub inner: Arc<dyn AdmissionPolicy>,
    pub tracer: Arc<Tracer>,
}

impl AdmissionPolicy for TracedAdmission {
    fn admit(&self, load: &AdmissionLoad) -> AdmissionDecision {
        self.tracer
            .leaf("admission.admit", NO_ORDER, || self.inner.admit(load))
    }
}

/// A traced journal sink.
pub struct TracedSink<W> {
    pub inner: W,
    pub tracer: Arc<Tracer>,
}

impl<W: Write> Write for TracedSink<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.leaf("journal.write", NO_ORDER, || inner.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let s = |a, b| Span {
            id: 0,
            name: "x",
            start_ns: a,
            end_ns: b,
            parent: 0,
            order: NO_ORDER,
        };
        assert_eq!(union_ns(&[s(0, 10), s(5, 15), s(20, 30)], 0, 100), 25);
        assert_eq!(union_ns(&[s(0, 10)], 5, 8), 3);
        assert_eq!(union_ns(&[], 0, 10), 0);
    }

    #[test]
    fn harness_self_time_excludes_children() {
        let t = Tracer::new();
        t.harness("exchange.drain", NO_ORDER, || {
            t.leaf("course.forest", NO_ORDER, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let drain = t.stats("exchange.drain");
        let course = t.stats("course.forest");
        assert_eq!(drain.count, 1);
        assert_eq!(course.count, 1);
        assert!(drain.self_ns < drain.busy_ns);
        assert_eq!(drain.child_busy_ns, course.busy_ns);
        assert_eq!(t.edge("exchange.drain", "course.forest").0, 1);
    }

    #[test]
    fn paused_tracer_records_nothing() {
        let t = Tracer::new();
        t.set_recording(false);
        let v = t.harness("exchange.drain", NO_ORDER, || {
            t.leaf("course.forest", NO_ORDER, || 7)
        });
        assert_eq!(v, 7);
        assert_eq!(t.stats("exchange.drain").count, 0);
        assert_eq!(t.stats("course.forest").count, 0);
    }
}
