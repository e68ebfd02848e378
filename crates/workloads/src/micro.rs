//! Microbenchmarks used by the calibration methodology (paper §3.3).
//!
//! [`power_virus`] recreates the "compute-intensive microbenchmark" the
//! paper uses to anchor Wattch's dynamic power against HotSpot's maximum
//! operational power: maximum-IPC integer/FP mix with L1-resident
//! accesses.

use crate::framework::{AccessPattern, Kernel, PhaseSpec, SyntheticProgram};

/// Builds the power-virus program for one thread: `items` iterations of a
/// maximum-activity kernel whose working set fits in the L1.
///
/// # Examples
///
/// ```
/// use tlp_sim::{CmpConfig, CmpSimulator};
/// use tlp_workloads::micro::power_virus;
///
/// let threads = vec![power_virus(0, 1, 50_000)];
/// let r = CmpSimulator::new(CmpConfig::ispass05(1), threads).run();
/// // Near-peak issue: IPC close to the 4-wide limit.
/// assert!(r.ipc() > 3.0, "power virus IPC {}", r.ipc());
/// ```
pub fn power_virus(
    thread: usize,
    n_threads: usize,
    items: u64,
) -> Box<dyn tlp_sim::op::ThreadProgram> {
    let hot = AccessPattern::Streaming {
        base: 0x10_0000 + thread as u64 * 0x1_0000,
        len: 16 * 1024, // fits comfortably in the 64 KB L1
        stride: 64,
    };
    let kernel = Kernel {
        int_per_item: 24,
        fp_per_item: 8,
        loads_per_item: 2,
        stores_per_item: 1,
        branches_per_item: 1,
        mispredict_rate: 0.0,
        load_pattern: hot,
        store_pattern: hot,
    };
    Box::new(SyntheticProgram::new(
        vec![PhaseSpec::Parallel {
            total_items: items * n_threads as u64,
            kernel,
        }],
        thread,
        n_threads,
        0.0,
        0xC0FFEE,
    ))
}

#[cfg(test)]
mod tests {
    use tlp_sim::{CmpConfig, CmpSimulator};

    use super::*;

    #[test]
    fn power_virus_reaches_high_ipc() {
        let r = CmpSimulator::new(CmpConfig::ispass05(1), vec![power_virus(0, 1, 50_000)]).run();
        assert!(r.ipc() > 3.0, "IPC {}", r.ipc());
        // Only the compulsory warm-up misses stall the virus.
        assert!(
            r.memory_stall_fraction() < 0.15,
            "stall {}",
            r.memory_stall_fraction()
        );
    }

    #[test]
    fn virus_scales_across_threads() {
        // Hold total work constant: N threads each run 1/N of the items.
        let mk = |n: usize| {
            let threads = (0..n)
                .map(|t| power_virus(t, n, 40_000 / n as u64))
                .collect();
            CmpSimulator::new(CmpConfig::ispass05(4), threads).run()
        };
        let one = mk(1);
        let four = mk(4);
        let speedup = four.speedup_over(&one);
        assert!(speedup > 3.3, "4-thread virus speedup {speedup}");
    }
}
