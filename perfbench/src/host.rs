//! Host fingerprint: cores, CPU model, last-level cache, compiler, and
//! a memcpy bandwidth probe that every `*.bw_frac` metric divides by.

use std::time::Instant;

use crate::measure::{median, Samples};

/// Fallback when the last-level cache size cannot be read.
const DEFAULT_LLC_BYTES: u64 = 32 << 20;

/// What the results were measured on.
pub struct Host {
    nproc: usize,
    cpu_model: String,
    llc_bytes: u64,
    rustc: String,
    /// Bytes read plus bytes written per second by an `nproc`-thread
    /// copy of a buffer at least 4× the last-level cache, in GB/s.
    pub memcpy_gbps: f64,
    probe_bytes: u64,
}

impl Host {
    pub fn describe(&self) -> String {
        format!(
            "host nproc={} cpu=\"{}\" llc_mib={} rustc=\"{}\" memcpy_gbps={:.3} (probe buffer {} MiB, read+write)",
            self.nproc,
            self.cpu_model,
            self.llc_bytes >> 20,
            self.rustc,
            self.memcpy_gbps,
            self.probe_bytes >> 20
        )
    }
}

/// Usable hardware threads; every thread count the benchmark sets is
/// capped at this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Record `peak_rss_mb`: the peak resident set (`VmHWM`) so far. The
/// workloads call this after set-up and their first repetition, so the
/// figure does not grow with the number of repetitions the allocator
/// has seen (and so with speed), and before the bandwidth probe
/// allocates its much larger buffers.
pub fn record_peak_rss(samples: &mut Samples) {
    samples.push("peak_rss_mb", "MB", peak_rss_bytes() as f64 / 1e6);
}

/// `(steal, total)` clock ticks over all CPUs since boot, from the
/// `cpu` line of `/proc/stat`; `None` where it cannot be read.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of all CPU time the hypervisor gave to other guests between
/// two [`cpu_ticks`] readings: host interference during the run.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set of this process so far (`VmHWM`), 0 if unknown.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kib| kib * 1024)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the highest-level cache cpu0 reports, e.g. `107520K`.
fn llc_bytes() -> u64 {
    (0..8)
        .rev()
        .find_map(|i| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let t = text.trim();
            let (num, scale) = match t.strip_suffix('K') {
                Some(k) => (k, 1024),
                None => match t.strip_suffix('M') {
                    Some(m) => (m, 1 << 20),
                    None => (t, 1),
                },
            };
            num.parse::<u64>().ok().map(|v| v * scale)
        })
        .unwrap_or(DEFAULT_LLC_BYTES)
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Median of three timed `nproc`-thread copies of a buffer 4× the LLC,
/// after one untimed copy that faults the destination in.
fn memcpy_probe(nproc: usize, bytes: u64) -> f64 {
    let len = usize::try_from(bytes / 8).expect("probe buffer fits in memory");
    let src: Vec<u64> = (0..len as u64).collect();
    let mut dst = vec![0u64; len];
    hetsort_algos::par_copy(nproc, &src, &mut dst);
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            hetsort_algos::par_copy(nproc, std::hint::black_box(&src), &mut dst);
            2.0 * bytes as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    assert!(dst == src, "memcpy probe copied wrong data");
    median(&rates)
}

pub fn fingerprint(nproc: usize) -> Host {
    let llc = llc_bytes();
    let probe_bytes = 4 * llc;
    Host {
        nproc,
        cpu_model: cpu_model(),
        llc_bytes: llc,
        rustc: rustc_version(),
        memcpy_gbps: memcpy_probe(nproc, probe_bytes),
        probe_bytes,
    }
}
