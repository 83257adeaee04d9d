//! Wall-clock benchmark of the hetsort workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipemerge-16m|simulate-5e9|serve-1k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every line but the last is a human-readable report: the host
//! fingerprint, then one `name value unit (n=samples)` line per metric.
//! The last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end table ([`END_TO_END`]); with `--trace 1` they are the
//! per-layer table ([`PER_LAYER`]). The process exits non-zero when any
//! correctness check fails. See `perfbench/README.md` for the workloads,
//! the metric definitions and the layer → metric → workload table.

mod host;
mod measure;
mod pipemerge;
mod serve;
mod simulate;

use std::process::ExitCode;
use std::time::Duration;

use measure::Samples;

/// Gated end-to-end metrics: `(name, unit)`, reported by every workload
/// from its untraced repetitions.
const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced mode: `(name, unit)`. Every workload
/// reports every name; a layer the workload bypasses reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("host.memcpy_gbps", "GB/s"),
    ("host.steal_frac", "frac"),
    ("traced_wall_s", "s"),
    ("trace_overhead_s", "s"),
    ("algos.share", "frac"),
    ("core.engine.share", "frac"),
    ("plan.share", "frac"),
    ("sim.share", "frac"),
    ("serve.share", "frac"),
    ("plan.self_s", "s"),
    ("plan.nodes", "count"),
    ("plan.edges", "count"),
    ("core.seq.melem_s", "Melem/s"),
    ("core.pooled.melem_s", "Melem/s"),
    ("core.engine_overhead.share", "frac"),
    ("core.entry.share", "frac"),
    ("pool.hits", "count"),
    ("pool.misses", "count"),
    ("algos.radix.passes", "count"),
    ("algos.radix_sort.bw_frac", "frac"),
    ("algos.par_radix_sort.bw_frac", "frac"),
    ("algos.par_merge_into.bw_frac", "frac"),
    ("algos.par_multiway_merge_into.bw_frac", "frac"),
    ("algos.par_copy.bw_frac", "frac"),
    ("ref.speedup", "x"),
    ("sim.knodes_s", "knode/s"),
    ("serve_jobs_s", "job/s"),
    ("serve.service_overhead.share", "frac"),
    ("serve.admissions", "count"),
    ("serve.coalesced", "count"),
    ("serve.recovered", "count"),
    ("serve.shed", "count"),
];

/// Validated command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <pipemerge-16m|simulate-5e9|serve-1k> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What a workload hands back: every sample it took and its check tally.
pub struct Run {
    pub samples: Samples,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed, were unverified, or produced a wrong answer.
    pub failed: u64,
}

impl Run {
    fn new() -> Run {
        Run {
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = host::nproc();
    let budget = Duration::from_secs(args.seconds);
    let mut run = Run::new();
    let ticks_before = host::cpu_ticks();
    match args.workload.as_str() {
        "pipemerge-16m" => pipemerge::run(&mut run, args.seed, budget, args.trace, nproc),
        "simulate-5e9" => simulate::run(&mut run, args.seed, budget, args.trace),
        "serve-1k" => serve::run(&mut run, args.seed, budget, args.trace),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if let (true, Some(traced), Some(untraced)) = (
        args.trace,
        run.samples.median("traced_wall_s"),
        run.samples.median("wall_s"),
    ) {
        run.samples.push("trace_overhead_s", "s", traced - untraced);
    }
    let steal = host::steal_frac(ticks_before, host::cpu_ticks());
    run.samples.push("host.steal_frac", "frac", steal);
    let host = host::fingerprint(nproc);
    println!("{}", host.describe());
    run.samples
        .push("host.memcpy_gbps", "GB/s", host.memcpy_gbps);
    run.samples.derive_bw_fractions(host.memcpy_gbps);
    let error_ratio = run.failed as f64 / run.attempted.max(1) as f64;
    run.samples.push("error_ratio", "frac", error_ratio);

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    run.samples.print_report();

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = run.samples.median(name).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            )
        })
        .collect();
    let correct = run.failed == 0 && run.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Cap a config's merge thread counts at `threads`.
pub fn cap_threads(config: &mut hetsort_core::HetSortConfig, threads: usize) {
    let cap = u32::try_from(threads).unwrap_or(u32::MAX);
    config.merge_threads = config.merge_threads_eff().min(cap);
    config.pair_merge_threads = config.pair_merge_threads_eff().min(cap);
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (never expected) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
