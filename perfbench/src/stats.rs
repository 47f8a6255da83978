//! Order statistics and process-level measurements.

/// Percentiles a latency report may quote, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a quoted percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when not even the
/// median does (fewer than 20 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// How many of `n` sorted samples lie strictly above the nearest-rank
/// `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
/// Percentiles are exact to a tenth, and the rank is computed in whole
/// numbers: in floating point 99.9% of 10,000 is 9990.000000000002,
/// and its ceiling one rank too high.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (0.0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median with the mean of the two middle values for even counts (0.0
/// when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so a spread computed here matches the one
/// the acceptance procedure computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (0.0 when the median is).
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// User + system CPU seconds consumed so far by every thread of this
/// process, exited ones included — the engine spawns and joins worker
/// threads per query stage, so a per-thread clock would lose them.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) that outlives the call, and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix the two thresholds glibc's allocator otherwise adapts at run
/// time: the size above which a block gets a mapping of its own, and how
/// much free heap is kept before it goes back to the system. Left to
/// adapt, they settle differently from one process to the next — it
/// depends on the order in which the first large blocks happen to be
/// freed — and a class that returns a 100,000-row result then either
/// reuses warm heap or page-faults a fresh mapping on every op: a 2×
/// difference in its latency between two runs of the same commit. Both
/// are set to their largest values, so large blocks always come from
/// heap that stays mapped. Call before any other thread exists.
pub fn pin_allocator_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        /// glibc's upper limit for `M_MMAP_THRESHOLD` on 64-bit targets.
        const MMAP_THRESHOLD_MAX: i32 = 32 << 20;
        // SAFETY: mallopt takes two integers by value and stores them in
        // the allocator's settings under its own lock.
        let accepted = unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX) == 1
                && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        };
        assert!(accepted, "mallopt refused the allocator thresholds");
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = highest_supported_percentile(n) {
                assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(samples_beyond(100, 95.0), 5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn process_clocks_advance() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() > before);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
