//! Sample bookkeeping and the time-boxed repetition loop.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::{host, Run};

/// Named samples, each with its unit. Reported values are medians.
#[derive(Default)]
pub struct Samples {
    map: BTreeMap<String, (&'static str, Vec<f64>)>,
}

impl Samples {
    /// Record one sample of `name`.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, v: f64) {
        self.map
            .entry(name.into())
            .or_insert_with(|| (unit, Vec::new()))
            .1
            .push(v);
    }

    /// Median of `name`'s samples, `None` when never recorded.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.map.get(name).map(|(_, v)| median(v))
    }

    /// How many samples each name holds now.
    fn marks(&self) -> BTreeMap<String, usize> {
        self.map
            .iter()
            .map(|(name, (_, v))| (name.clone(), v.len()))
            .collect()
    }

    /// Move every sample recorded after `marks` into `into`.
    fn move_since(&mut self, marks: &BTreeMap<String, usize>, into: &mut Samples) {
        for (name, (unit, v)) in &mut self.map {
            let keep = marks.get(name).copied().unwrap_or(0);
            for x in v.drain(keep..) {
                into.push(name.clone(), unit, x);
            }
        }
        self.map.retain(|_, (_, v)| !v.is_empty());
    }

    /// Give back the set-aside samples of every name that kept fewer
    /// than `min` samples of its own.
    fn restore_short(&mut self, aside: Samples, min: usize) {
        for (name, (unit, v)) in aside.map {
            if self.map.get(&name).map_or(0, |(_, kept)| kept.len()) < min {
                for x in v {
                    self.push(name.clone(), unit, x);
                }
            }
        }
    }

    /// Turn every `<kernel>.gbps` sample into a `<kernel>.bw_frac`
    /// sample: the kernel's bytes moved per second over the host's
    /// measured memcpy rate (both count reads plus writes).
    pub fn derive_bw_fractions(&mut self, memcpy_gbps: f64) {
        let derived: Vec<(String, Vec<f64>)> = self
            .map
            .iter()
            .filter_map(|(name, (_, v))| {
                let stem = name.strip_suffix(".gbps")?;
                let fracs = v.iter().map(|g| g / memcpy_gbps).collect();
                Some((format!("{stem}.bw_frac"), fracs))
            })
            .collect();
        for (name, v) in derived {
            self.map.insert(name, ("frac", v));
        }
    }

    /// One `name value unit (n=…)` line per metric, sorted by name.
    pub fn print_report(&self) {
        for (name, (unit, v)) in &self.map {
            let what = if v.len() == 1 { "" } else { "median of " };
            println!(
                "metric {name:<44} {:>16.6} {unit:<8} ({what}n={})",
                median(v),
                v.len()
            );
        }
    }
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Seconds `f` took, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// A repetition during which the hypervisor gave more than this share of
/// all CPU time to other guests was disturbed by the host.
const MAX_STEAL: f64 = 0.02;

/// Undisturbed samples a metric needs before disturbed ones are dropped.
const MIN_KEPT: usize = 3;

/// Call `rep(run, i)` for i = 0, 1, … until `budget` is spent, at least
/// `min_reps` times. A repetition starts only if the slowest one so far
/// would still end inside the budget, so a run overshoots its budget
/// only to reach `min_reps`.
///
/// The samples of a repetition the host disturbed ([`MAX_STEAL`]) are
/// set aside, and used only for metrics left with fewer than
/// [`MIN_KEPT`] undisturbed samples. Its checks count either way.
pub fn repeat_for(
    run: &mut Run,
    budget: Duration,
    min_reps: usize,
    mut rep: impl FnMut(&mut Run, usize),
) {
    let start = Instant::now();
    let mut slowest = Duration::ZERO;
    let mut aside = Samples::default();
    let mut disturbed = 0;
    let mut i = 0;
    while i < min_reps || start.elapsed() + slowest <= budget {
        let marks = run.samples.marks();
        let ticks = host::cpu_ticks();
        let t = Instant::now();
        rep(run, i);
        slowest = slowest.max(t.elapsed());
        if host::steal_frac(ticks, host::cpu_ticks()) > MAX_STEAL {
            run.samples.move_since(&marks, &mut aside);
            disturbed += 1;
        }
        i += 1;
    }
    run.samples.restore_short(aside, MIN_KEPT);
    run.samples
        .push("host.disturbed_reps", "count", f64::from(disturbed));
}

/// Run `f` `k` times; return the last result and each run's seconds.
pub fn time_setups<T>(k: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(k);
    let mut out = None;
    for _ in 0..k.max(1) {
        let (t, v) = timed(&mut f);
        times.push(t);
        out = Some(v);
    }
    (out.expect("setup ran at least once"), times)
}
