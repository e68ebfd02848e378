//! Host-speed normalization by a fixed reference kernel.
//!
//! The benchmark's host is a small shared machine whose CPU speed drifts
//! by tens of percent over tens of seconds, so raw wall-clock figures do
//! not repeat. The kernel below is fixed work, compute- and branch-bound
//! like the simulator's core loop (integer hashing, table lookups in L1,
//! data-dependent branches). It runs between a workload's operations on
//! as many threads as the workload uses, and every CPU-bound timing `t`
//! of the run is reported as `t · NOMINAL_S / median(samples)`: the time
//! the operation would have taken on a host where the kernel takes its
//! nominal time. Kernels with larger working sets tracked the drift
//! worse (see RATIONALE.md).

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Hash rounds over the lookup table per kernel slice.
const ROUNDS: u32 = 700;

/// Slices per kernel sample. A sample is the fastest slice times the
/// slice count, so an interrupt or preemption that lands on a few slices
/// does not move it, while a slower CPU slows every slice.
const SLICES: u32 = 10;

/// What one kernel slice returns. An edit to the kernel changes it, and
/// with it the meaning of every normalized figure, so it is pinned.
pub const CHECKSUM: u64 = 0x3237_68da_ed07_de08;

/// One sample on an otherwise idle thread of the reference host (a
/// 2-vCPU Intel Xeon container), seconds. Normalized figures are
/// expressed at this speed. The same value serves every thread count:
/// each thread runs every slice.
pub const NOMINAL_S: f64 = 0.045;

const TABLE: usize = 512;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference kernel: `rounds` passes of hashing over a 4 KiB table
/// that the hashes themselves keep rewriting, with a three-way branch on
/// hash bits per step.
pub fn kernel(rounds: u32) -> u64 {
    let mut table = [0u64; TABLE];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for slot in table.iter_mut() {
        x = mix(x);
        *slot = x;
    }
    let mut acc = 0u64;
    for _ in 0..black_box(rounds) {
        for i in 0..TABLE {
            x = mix(x ^ table[i]);
            if x & 1 == 0 {
                acc = acc.wrapping_add(x >> 3);
                table[(x >> 7) as usize % TABLE] ^= acc;
            } else if x & 6 == 2 {
                acc ^= x.rotate_left(17);
            } else {
                acc = acc.wrapping_mul(0x0000_0100_0000_01B3) | 1;
            }
        }
    }
    black_box(acc ^ x)
}

/// The fastest of [`SLICES`] timed kernel slices, seconds, and the
/// checksum of a slice that differs from [`CHECKSUM`] (or the pinned one).
fn fastest_slice() -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut sum = CHECKSUM;
    for _ in 0..SLICES {
        let t0 = Instant::now();
        let got = kernel(ROUNDS);
        best = best.min(t0.elapsed().as_secs_f64());
        if got != CHECKSUM {
            sum = got;
        }
    }
    (best, sum)
}

/// The kernel samples of one run at one thread count.
#[derive(Debug, Clone)]
pub struct Reference {
    threads: usize,
    samples: Vec<f64>,
}

impl Reference {
    /// A reference that runs the kernel on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            samples: Vec::new(),
        }
    }

    /// Runs the kernel's slices on every thread at once and records
    /// `SLICES ×` the slowest thread's fastest slice.
    ///
    /// # Panics
    ///
    /// Panics if any slice's checksum differs from [`CHECKSUM`]: an
    /// edited kernel no longer measures the pinned amount of work.
    pub fn sample(&mut self) -> f64 {
        let fastest: Vec<(f64, u64)> = if self.threads == 1 {
            vec![fastest_slice()]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.threads).map(|_| s.spawn(fastest_slice)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("kernel thread panicked"))
                    .collect()
            })
        };
        let mut slowest = 0.0f64;
        for (secs, sum) in fastest {
            assert_eq!(
                sum, CHECKSUM,
                "reference kernel checksum {sum:#018x} differs from the pinned {CHECKSUM:#018x}"
            );
            slowest = slowest.max(secs);
        }
        let sample = f64::from(SLICES) * slowest;
        self.samples.push(sample);
        sample
    }

    /// Median kernel wall time of the run, seconds.
    pub fn median(&self) -> f64 {
        stats::median(&self.samples)
    }

    /// The kernel's own interquartile range over its median in this run;
    /// a large value marks a run the host disturbed.
    pub fn spread(&self) -> f64 {
        stats::spread(&self.samples)
    }

    /// One line for the run's report: samples, median against nominal,
    /// the factor, and the kernel's own spread within the run.
    pub fn summary(&self) -> String {
        format!(
            "reference kernel: {} samples on {} thread(s), median {:.3} ms vs nominal {:.3} ms \
             (factor {:.4}), spread {:.1}%",
            self.samples.len(),
            self.threads,
            self.median() * 1e3,
            NOMINAL_S * 1e3,
            self.factor(),
            100.0 * self.spread(),
        )
    }

    /// Scale factor from raw to normalized time.
    pub fn factor(&self) -> f64 {
        normalization_factor(NOMINAL_S, &self.samples)
    }
}

/// `nominal / median(samples)`: how much faster than measured the
/// reference host would have run this run's work.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn normalization_factor(nominal: f64, samples: &[f64]) -> f64 {
    nominal / stats::median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_checksum_is_pinned() {
        assert_eq!(kernel(ROUNDS), CHECKSUM);
    }

    #[test]
    fn kernel_work_grows_with_rounds() {
        assert_ne!(kernel(1), kernel(2));
    }

    #[test]
    fn normalization_arithmetic() {
        // A host running the kernel at twice its nominal time halves
        // every timing; one running it at nominal leaves them alone.
        assert_eq!(normalization_factor(0.04, &[0.08, 0.08, 0.08]), 0.5);
        assert_eq!(normalization_factor(0.04, &[0.04]), 1.0);
        // The median, not the mean, sets the factor: one disturbed
        // sample cannot move it.
        assert!((normalization_factor(0.04, &[0.05, 0.05, 0.50]) - 0.8).abs() < 1e-12);
        let mut r = Reference::new(1);
        r.samples = vec![0.05, 0.04, 0.06];
        assert!((r.factor() - NOMINAL_S / 0.05).abs() < 1e-15);
        assert!((r.spread() - stats::spread(&[0.04, 0.05, 0.06])).abs() < 1e-15);
    }
}
