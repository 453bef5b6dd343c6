//! Allocation budget of the demand path: how many times a warm demand's
//! submit, drain and take call the heap allocator.
//!
//! A thread-local counting `#[global_allocator]` counts allocations and
//! reallocations made on the calling thread while counting is switched
//! on. A drain served wholly from the ΔG cache spawns no course task (see
//! the executor's module doc), so every allocation of the measured
//! demands happens on this thread and the count sees all of it; other
//! test threads never switch counting on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use vfl_exchange::{
    BestResponse, ClearingSpec, Demand, DemandId, DemandStatus, Exchange, ExchangeConfig,
    ExchangeTelemetry, Journal, MarketSpec, SellerSpec, SettleMode, UniformPriceClearing,
};
use vfl_market::{
    DataStrategy, Listing, MarketConfig, ReservedPrice, StrategicData, StrategicTask,
    TableGainProvider,
};
use vfl_sim::BundleMask;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's calls while switched on.
struct CountingAlloc;

impl CountingAlloc {
    fn note() {
        // `try_with`: a thread being torn down may still free and
        // allocate after its thread-locals are gone.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = CALLS.try_with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`; the caller's obligations pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls (allocations plus reallocations) made by `f` on this
/// thread.
fn count_calls(f: impl FnOnce()) -> u64 {
    CALLS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    CALLS.with(|n| n.get())
}

/// A seller listing one singleton bundle per feature of `features`, with
/// gains growing with the feature index and scaled by `scale`.
fn seller(name: &str, features: std::ops::Range<usize>, scale: f64) -> SellerSpec {
    let listings: Vec<Listing> = features
        .clone()
        .map(|i| Listing {
            bundle: BundleMask::singleton(i),
            reserved: ReservedPrice::new(5.0 + i as f64 * 1.5, 0.8 + i as f64 * 0.15)
                .expect("valid reserve"),
        })
        .collect();
    let gains: Vec<f64> = features.map(|i| scale * (0.06 + 0.05 * i as f64)).collect();
    let by_bundle: HashMap<u64, f64> = listings
        .iter()
        .zip(&gains)
        .map(|(l, &g)| (l.bundle.0, g))
        .collect();
    SellerSpec {
        market: MarketSpec {
            provider: Arc::new(TableGainProvider::new(
                listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)),
            )),
            listings: Arc::new(listings),
            evaluation_key: None,
            name: name.into(),
        },
        quoting: Arc::new(move |table: &[Listing]| {
            Box::new(StrategicData::with_gains(
                table.iter().map(|l| by_bundle[&l.bundle.0]).collect(),
            )) as Box<dyn DataStrategy + Send>
        }),
    }
}

/// Demand `i` of the workload: one of three wanted masks, one of four
/// seeds, and — for the last two of every six — epoch mode, so a third
/// of the demands clear in epoch pairs.
fn demand(i: u64) -> Demand {
    const WANTED: [u64; 3] = [0b00_1111, 0b11_1100, 0b01_1110];
    let seed = i % 4;
    let settle = if i % 6 >= 4 {
        SettleMode::Epoch
    } else {
        SettleMode::Immediate(Arc::new(BestResponse))
    };
    Demand {
        wanted: BundleMask(WANTED[(i % 3) as usize]),
        scenario: None,
        cfg: MarketConfig {
            utility_rate: 900.0 - 50.0 * seed as f64,
            budget: 12.0,
            rate_cap: 20.0,
            seed,
            ..MarketConfig::default()
        },
        task: Arc::new(|| Box::new(StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening"))),
        probe_rounds: 2,
        settle,
    }
}

/// Submits, drains and takes demands `0..n`, as a demand stream does:
/// status, then the report, then every candidate's outcome.
fn round_trip(exchange: &Exchange, n: u64) -> (usize, usize) {
    let dids: Vec<DemandId> = (0..n)
        .map(|i| exchange.submit_demand(demand(i)).expect("valid demand"))
        .collect();
    let report = exchange.drain(1);
    assert_eq!(report.failed, 0, "the budget workload must stay clean");
    let (mut settled, mut outcomes) = (0, 0);
    for did in dids {
        assert!(matches!(
            exchange.demand_status(did),
            Some(DemandStatus::Settled(_))
        ));
        let report = exchange.take_demand(did).expect("settled after its drain");
        settled += 1;
        for q in &report.quotes {
            exchange
                .take(q.session)
                .expect("terminal after the drain")
                .expect("no candidate fails");
            outcomes += 1;
        }
    }
    (settled, outcomes)
}

/// Allocator calls per admitted demand that a warm demand's submit, drain
/// and take may make. The shared candidate tables, reserved probe logs,
/// shared reports and move-only epochs brought the count from 50.75 to
/// 37.92 per demand.
const BUDGET_PER_DEMAND: f64 = 38.0;

#[test]
fn warm_demands_stay_within_their_allocation_budget() {
    const DEMANDS: u64 = 48;
    let (journal, _sink) = Journal::in_memory();
    let exchange = Exchange::with_journal_and_telemetry(
        ExchangeConfig::default(),
        journal,
        ExchangeTelemetry::new(),
    );
    exchange.register_seller(seller("left", 0..4, 0.6)).unwrap();
    exchange
        .register_seller(seller("right", 2..6, 1.0))
        .unwrap();
    exchange
        .register_seller(seller("middle", 1..5, 0.8))
        .unwrap();
    exchange
        .open_clearing(ClearingSpec {
            epoch_size: 2,
            capacity: 1,
            max_rolls: u32::MAX,
            policy: Arc::new(UniformPriceClearing::default()),
        })
        .unwrap();
    // The first pass trains every course the workload needs; the second,
    // identical pass runs warm.
    round_trip(&exchange, DEMANDS);
    let trainings = exchange.metrics().cache_misses;
    let mut taken = (0, 0);
    let calls = count_calls(|| taken = round_trip(&exchange, DEMANDS));
    assert_eq!(
        exchange.metrics().cache_misses,
        trainings,
        "the measured pass must run warm"
    );
    assert_eq!(taken.0, DEMANDS as usize);
    assert!(taken.1 > taken.0, "demands fan out to several sellers");

    let per_demand = calls as f64 / DEMANDS as f64;
    eprintln!("allocator calls: {calls} for {DEMANDS} demands ({per_demand:.2} per demand)");
    assert!(
        per_demand <= BUDGET_PER_DEMAND,
        "{calls} allocator calls for {DEMANDS} admitted demands ({per_demand:.2} each) break \
         the budget of {BUDGET_PER_DEMAND} per demand"
    );
}
