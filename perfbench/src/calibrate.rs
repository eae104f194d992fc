//! Reference-speed normalization of host times.
//!
//! The benchmark's host shares its cores with other tenants, and its
//! speed drifts by tens of percent over seconds to minutes: a fixed loop
//! can take twice as long in one minute as in the next. Ratios measured
//! in pairs (`overhead_x`) cancel that drift; absolute times do not. So a
//! fixed CPU kernel — independent of the repository's code, so no change
//! to the profiler can move it — is timed before every pair, and each
//! episode's absolute times are scaled by
//! [`REFERENCE_SECONDS`] ÷ (the episode's median kernel time). They then
//! read as milliseconds on a host where the kernel takes exactly
//! [`REFERENCE_SECONDS`]. The raw host times are printed alongside.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's duration on the reference host: about its median
/// between the workloads' pairs on the 2-core development host.
pub const REFERENCE_SECONDS: f64 = 150e-6;

/// Table the kernel walks: 256 KiB, about one core's L2.
const TABLE_WORDS: usize = 1 << 15;

/// Steps per kernel run.
const STEPS: u64 = 20_000;

/// Times the calibration kernel: pseudo-random read-modify-writes over a
/// cache-sized table, with small sorts — the mix of hashing, pointer
/// chasing and short-vector work the profiler's hot paths do.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    scratch: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            table: vec![0; TABLE_WORDS],
            scratch: Vec::with_capacity(128),
        }
    }
}

impl Calibrator {
    /// Runs the kernel once; returns its host time in seconds.
    pub fn probe(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & mask];
            *slot = slot.wrapping_add(i);
            if x & 7 == 0 {
                self.scratch.push(*slot);
            }
            if self.scratch.len() > 64 {
                self.scratch.sort_unstable();
                self.scratch.clear();
            }
        }
        black_box(&self.table);
        start.elapsed().as_secs_f64()
    }
}
