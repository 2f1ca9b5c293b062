//! Order statistics and process memory.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation
/// between order statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set of this process since the last reset, in MiB
/// (`VmHWM`).
fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process over chosen stretches of the run:
/// the kernel's high-water mark is reset when a stretch starts and read
/// when it ends, so work between stretches does not count.
#[derive(Debug, Default)]
pub struct PeakRss {
    mb: f64,
}

impl PeakRss {
    /// Starts a stretch: resets the high-water mark to the current
    /// resident set.
    pub fn resume(&self) {
        // Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    /// Ends a stretch, keeping its peak.
    pub fn pause(&mut self) {
        self.mb = self.mb.max(self_peak_rss_mb());
    }

    pub fn mb(&self) -> f64 {
        self.mb
    }
}

/// The `struct rusage` prefix up to `ru_maxrss` (Linux, 64-bit).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Largest peak resident set of any waited-for child process, in MiB.
pub fn children_peak_rss_mb() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux (two `timeval`s, then fourteen
    // `long`s), which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rss_is_read_and_a_paused_stretch_does_not_count() {
        let mut peak = PeakRss::default();
        peak.resume();
        peak.pause();
        let base = peak.mb();
        assert!(base > 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        peak.resume();
        peak.pause();
        assert!(
            peak.mb() < base + 32.0,
            "{} MiB after a paused 64 MiB",
            peak.mb()
        );
        std::process::Command::new("true")
            .status()
            .expect("spawn true");
        assert!(children_peak_rss_mb() > 0.0);
    }
}
