//! Order statistics, fingerprints and process facts shared by every
//! workload.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
/// Empty input reads as 0 so a metric that had no samples is visible as
/// such through its sample count rather than a panic.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort in place and return the slice for [`percentile`] calls.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return 0.0;
    }
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them, so `compare` agrees with the
/// driver's acceptance arithmetic. Fewer than two values have no spread.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Streaming FNV-1a (64-bit): input and result fingerprints.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut f = Fnv::default();
        f.write(bytes);
        f.0
    }
}

/// SplitMix64: the harness's own generator for key sequences and tear
/// offsets, so workload inputs depend on `--seed` alone and not on the
/// vendored `rand` stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc`
/// is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Keep this thread, and every thread started after the call, on CPU
/// `cpu`. Returns whether the kernel accepted it; on other platforms
/// nothing happens.
pub fn pin_to_cpu(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        const WORDS: usize = 16;
        if cpu >= WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is WORDS * 8 readable bytes, the size passed with
        // it, and outlives the call; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// The CPU this thread is running on, where the platform tells.
pub fn current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
        }
        // SAFETY: sched_getcpu takes no arguments and only reads the
        // caller's scheduling state.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Keep this thread, and every thread started after the call, on the
/// CPU it is running on.
///
/// One keep-alive connection is a strict alternation of client and
/// server, so a second CPU adds nothing but a cross-CPU wake-up per
/// direction. On the reference host that wake-up costs a few
/// microseconds in one phase and tens in another, for many minutes each
/// (the same binary served 22k and then 11k requests per second): on
/// one CPU the exchange is two context switches and the figure is the
/// program's.
pub fn pin_to_one_cpu() -> bool {
    current_cpu().is_some_and(pin_to_cpu)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 95.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
