//! `serve-1k`: `SortService::run` over 1000-job `synthetic_jobs` mixes
//! on platform1 with the gate's service configuration. About a thousand tiny
//! dags, so per-call fixed cost in the engine, the simulator and the
//! planner dominates, plus admission, coalescing, shedding and fault
//! recovery.
//!
//! One repetition serves [`MIXES`] mixes of 1000 jobs, one service run
//! each, from mix seeds derived from the run's seed: how much work one
//! mix holds varies with its seed, and summing several keeps that
//! variation out of the run-to-run spread.
//!
//! Job merges run on [`JOB_MERGE_THREADS`] thread. A job merges at most
//! 12k elements, so a parallel merge spends its time spawning and
//! joining threads, and on a small shared host that time is mostly the
//! wait for the other vCPU to be scheduled: with merges on `nproc` = 2
//! threads a service run was slower (0.96 s against 0.78 s) and its
//! run-to-run spread twice as wide. The cap leaves the simulated
//! schedule, and so admission, shedding and sojourn times, unchanged
//! (824 of 1000 jobs complete either way).

use std::sync::Arc;
use std::time::Duration;

use hetsort_bench::gate::serve_gate_config;
use hetsort_core::{build_dag, execute_dag, simulate_dag, PlanDag};
use hetsort_serve::{synthetic_jobs, ServeOutcome, SortJob, SortService};
use hetsort_vgpu::platform1;

use crate::measure::{percentile, repeat_for, time_setups, timed};
use crate::Run;

const JOBS: usize = 1000;
const MIXES: u64 = 4;
const WARM_JOBS: usize = 24;
const SETUPS: usize = 15;
/// Merge threads per job: see the module comment.
const JOB_MERGE_THREADS: usize = 1;

/// Conservation and verification of one service run.
fn check_outcome(run: &mut Run, out: &ServeOutcome, submitted: usize) {
    let accounted = out.completed.len() + out.shed.len() + out.failed.len();
    run.check(
        accounted == submitted,
        "completed + shed + failed == submitted",
    );
    for r in &out.completed {
        run.check(r.verified, "completed job verified");
    }
    for (id, e) in &out.failed {
        run.check(false, &format!("job {id} failed: {e}"));
    }
}

pub fn run(run: &mut Run, seed: u64, budget: Duration, trace: bool) {
    let platform = platform1();
    let service = SortService::new(serve_gate_config());
    // Set-up: generate the job mixes and warm the service up on a short
    // mix from the same generator.
    let mix = |jobs: usize, mix_seed: u64| {
        let mut mix = synthetic_jobs(&platform, jobs, mix_seed);
        for job in &mut mix {
            crate::cap_threads(&mut job.config, JOB_MERGE_THREADS);
        }
        mix
    };
    let ((mixes, warm), setup_times) = time_setups(SETUPS, || {
        let mixes: Vec<Vec<SortJob>> = (0..MIXES)
            .map(|k| mix(JOBS, seed.wrapping_mul(MIXES).wrapping_add(k)))
            .collect();
        let warm = service.run(mix(WARM_JOBS, seed));
        (mixes, warm)
    });
    for t in setup_times {
        run.samples.push("setup_s", "s", t);
    }
    check_outcome(run, &warm, WARM_JOBS);

    repeat_for(run, budget, if trace { 2 } else { 1 }, |run, i| {
        let is_traced = trace && i % 2 == 1;
        let mut wall = 0.0;
        let mut replayed = Replay::default();
        let (mut done, mut shed, mut admissions, mut coalesced, mut recovered) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        let mut sojourn = Vec::new();
        for jobs in &mixes {
            let batch = jobs.clone();
            let (t, out) = timed(|| service.run(batch));
            wall += t;
            check_outcome(run, &out, JOBS);
            if is_traced {
                replayed.add(run, jobs, &out);
                continue;
            }
            done += out.completed.len() as f64;
            shed += out.shed.len() as f64;
            admissions += out.admission_log.len() as f64;
            coalesced += out.metrics.counter("jobs_coalesced");
            recovered += out.metrics.counter("jobs_recovered");
            sojourn.extend(out.completed.iter().map(|r| r.completed_s - r.arrival_s));
        }
        if is_traced {
            run.samples.push("traced_wall_s", "s", wall);
            replayed.record(run, wall);
            return;
        }
        if i == 0 {
            crate::host::record_peak_rss(&mut run.samples);
        }
        let s = &mut run.samples;
        s.push("wall_s", "s", wall);
        s.push("serve_jobs_s", "job/s", done / wall);
        s.push(
            "serve_shed_ratio",
            "frac",
            shed / (MIXES as f64 * JOBS as f64),
        );
        s.push("serve_sojourn_p50_vs", "vs", percentile(&sojourn, 50.0));
        s.push("serve_sojourn_p98_vs", "vs", percentile(&sojourn, 98.0));
        s.push("serve.completions", "count", done);
        s.push("serve.admissions", "count", admissions);
        s.push("serve.coalesced", "count", coalesced);
        s.push("serve.recovered", "count", recovered);
        s.push("serve.shed", "count", shed);
    });
}

/// Layer seconds and counts summed over replayed jobs.
#[derive(Default)]
struct Replay {
    plan_s: f64,
    validate_s: f64,
    exec_s: f64,
    sim_s: f64,
    /// Union of kernel spans inside `execute_dag` (the `algos` layer).
    union_s: f64,
    /// `RealOutcome::wall_s`: the engine's own clock.
    engine_wall_s: f64,
    elems: f64,
    nodes: f64,
    edges: f64,
    hits: f64,
    misses: f64,
}

impl Replay {
    /// Replay every completed job's `build_dag` / `validate` /
    /// `execute_dag` / `simulate_dag` outside the service, timing each
    /// layer, and check each replayed output equals the service's.
    fn add(&mut self, run: &mut Run, jobs: &[SortJob], out: &ServeOutcome) {
        for r in &out.completed {
            let Some(job) = usize::try_from(r.id).ok().and_then(|i| jobs.get(i)) else {
                run.check(false, &format!("completed job {} is not in the mix", r.id));
                continue;
            };
            // The service forks each job's fault schedule before running it.
            let mut config = job.config.clone();
            if let Some(inj) = config.faults.clone() {
                config.faults = Some(Arc::new(inj.fork()));
            }
            let (b, dag) = timed(|| build_dag(config, job.data.len()));
            self.plan_s += b;
            let dag: PlanDag = match dag {
                Ok(d) => d,
                Err(e) => {
                    run.check(false, &format!("replay build_dag: {e}"));
                    continue;
                }
            };
            let (v, valid) = timed(|| dag.validate());
            self.validate_s += v;
            let (e, real) = timed(|| execute_dag(&dag, &job.data));
            self.exec_s += e;
            let (t, sim) = timed(|| simulate_dag(&dag));
            self.sim_s += t;
            let same = real.as_ref().is_ok_and(|o| {
                o.verified
                    && o.sorted.len() == r.sorted.len()
                    && o.sorted
                        .iter()
                        .zip(&r.sorted)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            run.check(
                valid.is_ok() && same && sim.is_ok(),
                "replayed job matches the service",
            );
            if let Ok(o) = &real {
                self.union_s += o.metrics.union_total_s();
                self.engine_wall_s += o.wall_s;
                self.hits += o.metrics.counter("pool.hits");
                self.misses += o.metrics.counter("pool.misses");
            }
            self.elems += job.data.len() as f64;
            self.nodes += dag.nodes.len() as f64;
            self.edges += dag.edge_count() as f64;
        }
    }

    /// Per-layer samples, with shares of the service runs' `wall`.
    fn record(&self, run: &mut Run, wall: f64) {
        let overhead = wall - (self.plan_s + self.exec_s + self.sim_s);
        let s = &mut run.samples;
        s.push("serve.replay.plan_s", "s", self.plan_s);
        s.push("serve.replay.exec_s", "s", self.exec_s);
        s.push("serve.replay.sim_s", "s", self.sim_s);
        s.push("serve.service_overhead_s", "s", overhead);
        s.push("serve.service_overhead.share", "frac", overhead / wall);
        s.push("serve.share", "frac", overhead / wall);
        s.push("plan.build_dag_s", "s", self.plan_s);
        s.push("plan.validate_s", "s", self.validate_s);
        s.push("plan.self_s", "s", self.plan_s);
        s.push("plan.share", "frac", self.plan_s / wall);
        s.push("plan.nodes", "count", self.nodes);
        s.push("plan.edges", "count", self.edges);
        s.push("sim.simulate_dag_s", "s", self.sim_s);
        s.push("sim.share", "frac", self.sim_s / wall);
        s.push("sim.knodes_s", "knode/s", self.nodes / 1e3 / self.sim_s);
        s.push("algos.share", "frac", self.union_s / wall);
        s.push(
            "core.engine.share",
            "frac",
            (self.exec_s - self.union_s) / wall,
        );
        s.push(
            "core.engine_overhead.share",
            "frac",
            (self.engine_wall_s - self.union_s) / wall,
        );
        s.push(
            "core.entry.share",
            "frac",
            (self.exec_s - self.engine_wall_s) / wall,
        );
        s.push(
            "core.seq.melem_s",
            "Melem/s",
            self.elems / 1e6 / self.exec_s,
        );
        s.push("pool.hits", "count", self.hits);
        s.push("pool.misses", "count", self.misses);
    }
}
