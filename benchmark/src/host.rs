//! Host-side process diagnostics read from `/proc/self`.
//!
//! These do not repeat within a tenth between identical runs (NOISE.md),
//! so they are per-layer diagnostics, never gated end-to-end metrics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// Fixed at 100 on every Linux ABI this benchmark runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Process CPU seconds so far.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// System share of the CPU time (0 when no time was used).
    pub fn sys_share(&self) -> f64 {
        if self.total() > 0.0 {
            self.sys_s / self.total()
        } else {
            0.0
        }
    }
}

/// Parse `utime`/`stime` (fields 14 and 15) out of a `/proc/<pid>/stat`
/// line. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state): utime and stime are its 12th and
    // 13th whitespace-separated fields.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / CLOCK_TICKS_PER_S,
        sys_s: stime as f64 / CLOCK_TICKS_PER_S,
    })
}

/// Parse the integer value of `key` (e.g. `"VmHWM"`, `"Threads"`) out of
/// `/proc/<pid>/status` text; memory keys are in kB.
pub fn parse_status(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .unwrap_or_default()
}

fn status(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status(&t, key))
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status("VmHWM") as f64 / 1024.0
}

/// Samples the process thread count in the background (traced runs
/// only) and keeps the maximum seen.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ThreadSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (stop2, peak2) = (stop.clone(), peak.clone());
        let handle = std::thread::Builder::new()
            .name("thread-sampler".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    peak2.fetch_max(status("Threads"), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
            .expect("spawn thread sampler");
        ThreadSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Stop sampling; the peak excludes the sampler thread itself.
    pub fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("thread sampler panicked");
        }
        self.peak.load(Ordering::Relaxed).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        // A command name with spaces and a ')' inside, as the kernel
        // prints it verbatim.
        let line = "4242 (clmpi) bench (x) R 1 4242 4242 0 -1 4194304 2034 0 0 0 \
                    1234 567 0 0 20 0 9 0 8812345 104857600 25600 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let t = parse_stat(line).unwrap();
        assert_eq!(t.user_s, 12.34);
        assert_eq!(t.sys_s, 5.67);
        assert!((t.sys_share() - 5.67 / 18.01).abs() < 1e-12);
        assert_eq!(parse_stat("no paren here"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_keys_parse_and_do_not_prefix_match() {
        let text = "Name:\tclmpi-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  556032 kB\n\
                    VmRSS:\t  123456 kB\nThreads:\t259\n";
        assert_eq!(parse_status(text, "VmHWM"), Some(556032));
        assert_eq!(parse_status(text, "Threads"), Some(259));
        assert_eq!(parse_status(text, "Vm"), None);
        assert_eq!(parse_status(text, "VmSwap"), None);
    }

    #[test]
    fn cpu_delta_and_zero_share() {
        let a = CpuTimes {
            user_s: 1.0,
            sys_s: 3.0,
        };
        let b = CpuTimes {
            user_s: 1.5,
            sys_s: 4.5,
        };
        let d = b.since(a);
        assert_eq!((d.user_s, d.sys_s, d.sys_share()), (0.5, 1.5, 0.75));
        assert_eq!(CpuTimes::default().sys_share(), 0.0);
    }
}
