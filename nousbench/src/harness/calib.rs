//! Host-speed calibration.
//!
//! The reference host is a two-vCPU virtual machine whose core clock
//! moves in steps (a fixed-cycle kernel reads 26.3, 27.5, 29.8, 31.5,
//! 32.4 or 33.4 us) and stays on one step for seconds to minutes: the
//! same query loop reads 42 us per query in one phase and 52 us in the
//! next, and one run is too short to average a phase out. So every
//! window interleaves that kernel with the measured operations and
//! reports each duration divided by the slowdown the kernel saw around
//! it: time at *reference host speed*. Over 70 s of query traffic the
//! raw mean moved between 91 and 132 us while its ratio to the kernel
//! stayed within about 3% of its median.
//!
//! The kernel touches no memory, so what the program does to the caches
//! cannot change it, and it shares nothing with the program: a change to
//! the program moves the normalised figures exactly as it moves the raw
//! ones. The slowdown is reported beside them, so the wall-clock reading
//! is the reported figure times the slowdown.

use std::time::Instant;

/// Kernel duration on the reference host at its highest clock: the
/// slowdown is measured against it, so normalised figures read like that
/// host's wall clock at full speed. It only fixes the unit: a comparison
/// between two commits never sees it.
pub const REFERENCE_NS: f64 = 26_000.0;

const STEPS: usize = 16_000;

/// The calibration kernel: a dependent chain of shifts, multiplies and a
/// data-dependent branch, all in registers — a fixed number of cycles
/// whatever the caches hold.
pub struct Calibrator {
    state: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator { state: 1 }
    }
}

impl Calibrator {
    /// Run the kernel once; its duration in nanoseconds.
    pub fn sample(&mut self) -> u64 {
        let t = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3) ^ x;
            if x & 7 == 0 {
                acc = acc.rotate_left(5);
            }
        }
        // xorshift never leaves zero, and a zero state would pin the walk.
        self.state = (x ^ (acc & 1)).max(1);
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as u64
    }
}

/// Slowdown against the reference host for one kernel duration.
pub fn slowdown(kernel_ns: f64) -> f64 {
    kernel_ns / REFERENCE_NS
}

/// Kernel samples smoothed by the median of each sample and its two
/// neighbours on either side, as slowdowns: one kernel run that was
/// preempted must not rescale the operations next to it.
pub fn smoothed_slowdowns(samples_ns: &[u64]) -> Vec<f64> {
    (0..samples_ns.len())
        .map(|i| {
            let lo = i.saturating_sub(2);
            let hi = (i + 3).min(samples_ns.len());
            let mut w: Vec<u64> = samples_ns[lo..hi].to_vec();
            w.sort_unstable();
            slowdown(w[w.len() / 2] as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_drops_a_lone_spike() {
        let s = smoothed_slowdowns(&[26_000, 26_000, 90_000, 26_000, 26_000]);
        assert!(s.iter().all(|f| (*f - 1.0).abs() < 1e-9), "{s:?}");
        assert!(smoothed_slowdowns(&[]).is_empty());
        assert_eq!(smoothed_slowdowns(&[52_000]), vec![2.0]);
    }

    #[test]
    fn kernel_does_its_work() {
        let mut c = Calibrator::default();
        let first = c.state;
        assert!(c.sample() > 0);
        assert_ne!(c.state, first);
    }
}
