//! The host-speed probe. The small shared machines this benchmark runs on
//! change speed from one second to the next and for stretches of minutes
//! (a 2-vCPU VM moved between two states ~45% apart), and every timing
//! follows: wall time and process CPU time alike. So the benchmark times a
//! fixed kernel of its own right before each step and scales the step's
//! timings to a *reference speed*: the speed at which one kernel run takes
//! [`REFERENCE_S`]. A timing `t` taken while the latest kernel runs took a
//! median of `k` seconds reads `t × REFERENCE_S / k`.
//!
//! The kernel is the benchmark's own code and mixes the kinds of work the
//! exchange and the model fits do: many small allocations, hashing into a
//! map, and dense floating-point arithmetic. A change to the measured
//! crates cannot move it, so a change that makes the exchange faster or
//! slower still reads as such.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// One kernel run's time at the reference speed (about its median on a
/// 2-vCPU Xeon VM in its fast state).
pub const REFERENCE_S: f64 = 150e-6;

fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Small allocations that live together, as orders and frames do.
    let boxes: Vec<Box<[u64; 4]>> = (0..1024).map(|i| Box::new([i ^ seed; 4])).collect();
    // Hashing into a map, as the exchange's stores and caches do.
    let mut map = HashMap::with_capacity(256);
    for _ in 0..2048 {
        *map.entry(next() & 0x3ff).or_insert(0u64) += 1;
    }
    // Dense floating point with a transcendental, as an MLP fit does.
    let m: Vec<f64> = (0..32 * 32).map(|_| (next() >> 40) as f64 * 1e-8).collect();
    let mut y = vec![1.0f64; 32];
    for _ in 0..48 {
        y = (0..32)
            .map(|i| (0..32).map(|j| m[i * 32 + j] * y[j]).sum::<f64>().tanh())
            .collect();
    }
    boxes.iter().map(|b| b[1]).sum::<u64>() ^ map.len() as u64 ^ y[7].to_bits()
}

/// Kernel runs the speed is taken from: the latest ones.
const RECENT: usize = 16;

/// Kernel times recorded between the benchmark's steps (and, on the open
/// loop, while it waits for a tick).
#[derive(Debug, Default, Clone)]
pub struct Probes {
    recent: VecDeque<f64>,
    runs: u64,
}

impl Probes {
    /// Runs the kernel `runs` times and records each run's time.
    pub fn probe(&mut self, runs: usize) {
        for _ in 0..runs {
            let start = Instant::now();
            black_box(kernel(black_box(self.runs)));
            self.recent.push_back(start.elapsed().as_secs_f64());
            self.runs += 1;
            if self.recent.len() > RECENT {
                self.recent.pop_front();
            }
        }
    }

    /// The factor that takes a timing made now to the reference speed:
    /// `REFERENCE_S` over the median of the latest kernel runs (1 before
    /// any run).
    pub fn scale(&self) -> f64 {
        if self.recent.is_empty() {
            return 1.0;
        }
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        REFERENCE_S / median(&recent)
    }
}
