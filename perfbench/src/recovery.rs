//! The simulated crash: a fresh generation runs a fixed number of steps and
//! its journal as it stands is the crash image (the crash lands between two
//! checkpoints, after a drain). Every recovery of it must restore the last
//! checkpoint, resume, pass `audit_replay`, train nothing, and reproduce
//! every live outcome since that checkpoint.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vfl_exchange::{read_events, DemandReport, Exchange, ExchangeConfig, ReplaySpec, SessionId};
use vfl_market::Outcome;

use crate::bench::{
    demand, session_order, ClearingShape, DemandRecipe, Live, MarketRecipe, OrderRecipe,
    SellerRecipe,
};
use crate::calib::Probes;
use crate::cells::Cell;
use crate::stats::favourable_quartile;
use crate::trace::NO_ORDER;

/// A crash image and everything recovering it needs: the journal bytes, the
/// registrations and orders the operator re-supplies, and the live outcomes
/// the recovered exchange must reproduce.
pub struct CrashImage {
    pub bytes: Vec<u8>,
    cells: Arc<Vec<Arc<Cell>>>,
    markets: Vec<MarketRecipe>,
    sellers: Vec<SellerRecipe>,
    clearing: Option<ClearingShape>,
    orders: Arc<HashMap<u64, OrderRecipe>>,
    demands: Arc<HashMap<u64, DemandRecipe>>,
    outcomes: Vec<(SessionId, Outcome)>,
    reports: Vec<DemandReport>,
}

impl CrashImage {
    /// The live exchange's journal as the crash image; takes the suffix
    /// since the last checkpoint out of `live`.
    pub fn take(live: &mut Live) -> CrashImage {
        let suffix = std::mem::take(&mut live.suffix);
        CrashImage {
            bytes: live.tape.bytes(),
            cells: live.cells.clone(),
            markets: live.markets.clone(),
            sellers: live.sellers.clone(),
            clearing: live.clearing,
            orders: Arc::new(suffix.orders),
            demands: Arc::new(suffix.demands),
            outcomes: suffix.outcomes,
            reports: suffix.reports,
        }
    }

    fn replay_spec(&self, calls: &Arc<AtomicU64>) -> ReplaySpec {
        let (cells, orders) = (self.cells.clone(), self.orders.clone());
        let (dcells, demands) = (self.cells.clone(), self.demands.clone());
        ReplaySpec {
            markets: self.markets.iter().map(|m| m.spec(calls, &None)).collect(),
            sellers: self.sellers.iter().map(|s| s.spec(calls, &None)).collect(),
            orders: Box::new(move |sid| session_order(&cells, orders[&sid.0], None, NO_ORDER)),
            demands: Box::new(move |did| demand(&dcells, demands[&did.0], None, NO_ORDER)),
            clearing: self.clearing.map(|c| c.spec(&None)),
        }
    }

    /// The recovered exchange holds exactly the live outcomes and reports
    /// produced since the last checkpoint.
    fn agrees(&self, ex: &Exchange) -> Result<(), String> {
        for (sid, live_outcome) in &self.outcomes {
            match ex.take(*sid) {
                Some(Ok(o)) if *o == *live_outcome => {}
                _ => return Err(format!("recovered session {sid} differs from the live one")),
            }
        }
        for report in &self.reports {
            if ex.take_demand(report.demand).as_ref() != Some(report) {
                return Err(format!(
                    "recovered demand {} differs from the live one",
                    report.demand
                ));
            }
        }
        Ok(())
    }
}

/// Times and checks of repeated recoveries of one crash image.
#[derive(Default)]
pub struct Recoveries {
    total: Vec<f64>,
    decode: Vec<f64>,
    restore: Vec<f64>,
    replay: Vec<f64>,
    events: usize,
    reopened: usize,
    /// Gain-provider calls the recoveries made (must stay 0).
    calls: Arc<AtomicU64>,
    error: Option<String>,
    probes: Probes,
}

/// Runs of the host-speed kernel before each recovery.
const PROBE_RUNS: usize = 4;

/// Favourable quartiles (see `favourable_quartile`) over the recoveries.
#[derive(Debug, Default, Clone)]
pub struct Recovery {
    pub total_s: f64,
    pub decode_s: f64,
    pub restore_s: f64,
    pub replay_s: f64,
    pub events: usize,
    /// Submissions the recovery re-opened (sessions + demands).
    pub reopened: usize,
    /// Gain-provider calls the recoveries made (must be 0).
    pub trainings: u64,
    pub error: Option<String>,
}

impl Recoveries {
    pub fn count(&self) -> usize {
        self.total.len()
    }

    /// Recovers `image` once, timing it and checking the result; the
    /// host-speed kernel runs right before, and the times are scaled to the
    /// reference speed (see `calib`). After the first failure it does
    /// nothing.
    pub fn once(&mut self, image: &CrashImage) {
        if self.error.is_some() {
            return;
        }
        // The resume drain's worker starts on this CPU (see `sys::Pin`).
        let _pin = crate::sys::Pin::here();
        self.probes.probe(PROBE_RUNS);
        let scale = self.probes.scale();
        if let Err(e) = self.try_once(image, scale) {
            self.error = Some(e);
        }
    }

    fn try_once(&mut self, image: &CrashImage, scale: f64) -> Result<(), String> {
        let t0 = Instant::now();
        let (events, dropped) = read_events(&image.bytes);
        let t1 = Instant::now();
        let events = events.len();
        if dropped != 0 {
            return Err(format!("crash image has a torn tail of {dropped} bytes"));
        }
        let spec = image.replay_spec(&self.calls);
        let (ex, report) = Exchange::recover(ExchangeConfig::default(), &image.bytes, spec, None)
            .map_err(|e| format!("recover: {e}"))?;
        let t2 = Instant::now();
        // One worker: the replay trains nothing, so a second worker would
        // only add its start-up to a figure of milliseconds.
        ex.drain(1);
        ex.audit_replay(&report)
            .map_err(|e| format!("audit_replay: {e}"))?;
        image.agrees(&ex)?;
        let t3 = Instant::now();
        if !report.checkpoint_restored {
            return Err("recovery replayed from genesis, not from a checkpoint".into());
        }
        let secs = |d: std::time::Duration| d.as_secs_f64() * scale;
        self.total.push(secs(t3 - t0));
        self.decode.push(secs(t1 - t0));
        self.restore.push(secs(t2 - t1));
        self.replay.push(secs(t3 - t2));
        self.events = events;
        self.reopened = report.sessions + report.demands;
        drop(ex);
        crate::sys::release_free_memory();
        Ok(())
    }

    pub fn summary(&self) -> Recovery {
        let trainings = self.calls.load(Ordering::Relaxed);
        let error = self.error.clone().or_else(|| {
            (trainings != 0).then(|| format!("recovery re-trained {trainings} courses"))
        });
        let q = |times: &[f64]| favourable_quartile(times, false);
        Recovery {
            total_s: q(&self.total),
            decode_s: q(&self.decode),
            restore_s: q(&self.restore),
            replay_s: q(&self.replay),
            events: self.events,
            reopened: self.reopened,
            trainings,
            error,
        }
    }
}
