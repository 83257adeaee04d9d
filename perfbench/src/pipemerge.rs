//! `pipemerge-16m`: 2²⁴ uniform f64 through PIPEMERGE on platform1
//! geometry (b_s = 2²¹, pinned = 2¹⁸), once through the sequential
//! engine (`sort_real`) and once through the pooled engine
//! (`sort_real_parallel`) per repetition. Kernel-bound; never calls the
//! simulator or the service.

use std::time::Duration;

use hetsort_algos::radix::radix_pass_count;
use hetsort_algos::verify::is_sorted;
use hetsort_algos::{
    par_copy, par_merge_into, par_multiway_merge_into, par_radix_sort, radix_sort,
};
use hetsort_core::exec_real::sort_real_plan;
use hetsort_core::reference::reference_sort_real;
use hetsort_core::{
    sort_real, sort_real_parallel, Approach, HetSortConfig, HetSortError, Plan, PlanDag,
    RealOutcome,
};
use hetsort_obs::OpClass;
use hetsort_vgpu::platform1;
use hetsort_workloads::{generate, Distribution};

use crate::measure::{repeat_for, time_setups, timed};
use crate::Run;

const N: usize = 1 << 24;
const BATCH: usize = 1 << 21;
const PINNED: usize = 1 << 18;
const SETUPS: usize = 9;
/// Op classes whose busy and union seconds the traced run reports.
const CLASSES: [OpClass; 7] = [
    OpClass::GpuSort,
    OpClass::PairMerge,
    OpClass::MultiwayMerge,
    OpClass::StagingCopy,
    OpClass::HtoD,
    OpClass::DtoH,
    OpClass::PinnedAlloc,
];

/// PIPEMERGE on platform1 geometry with the merge thread counts capped
/// at this host's `nproc`.
fn config(batch: usize, pinned: usize, nproc: usize) -> HetSortConfig {
    let mut c = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(batch)
        .with_pinned_elems(pinned);
    crate::cap_threads(&mut c, nproc);
    c
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Output verified by the engine and bitwise-equal to the reference.
fn correct(out: &Result<RealOutcome, HetSortError>, expect: &[f64]) -> bool {
    out.as_ref()
        .is_ok_and(|o| o.verified && bitwise_eq(&o.sorted, expect))
}

/// What one traced engine call spent, split by layer.
#[derive(Default)]
struct EngineCall {
    call_s: f64,
    /// `RealOutcome::wall_s`: the engine's own clock.
    wall_s: f64,
    /// Union of the kernel spans (the `algos` layer's self time).
    union_s: f64,
    hits: f64,
    misses: f64,
}

/// Per-layer samples of one traced engine call.
fn record_engine(
    run: &mut Run,
    engine: &str,
    call_s: f64,
    out: &Result<RealOutcome, HetSortError>,
) -> EngineCall {
    let Ok(o) = out else {
        return EngineCall {
            call_s,
            wall_s: call_s,
            ..EngineCall::default()
        };
    };
    let s = &mut run.samples;
    let union_s = o.metrics.union_total_s();
    for class in CLASSES {
        let st = o.metrics.class_stats(class);
        s.push(
            format!("core.{engine}.{}.busy_s", class.name()),
            "s",
            st.busy_s,
        );
        s.push(
            format!("core.{engine}.{}.union_s", class.name()),
            "s",
            st.union_s,
        );
    }
    let call = EngineCall {
        call_s,
        wall_s: o.wall_s,
        union_s,
        hits: o.metrics.counter("pool.hits"),
        misses: o.metrics.counter("pool.misses"),
    };
    s.push(
        format!("core.{engine}.engine_overhead_s"),
        "s",
        call.wall_s - union_s,
    );
    s.push(format!("core.{engine}.entry_s"), "s", call_s - call.wall_s);
    s.push(format!("core.{engine}.call_s"), "s", call_s);
    s.push(format!("core.{engine}.pool.hits"), "count", call.hits);
    s.push(format!("core.{engine}.pool.misses"), "count", call.misses);
    call
}

pub fn run(run: &mut Run, seed: u64, budget: Duration, trace: bool, nproc: usize) {
    let cfg = config(BATCH, PINNED, nproc);
    let warm_cfg = config(BATCH >> 8, PINNED >> 8, nproc);
    // Set-up: generate the input, build and validate the plan, and warm
    // up both engines on a small input of the same shape.
    let ((data, warm_ok), setup_times) = time_setups(SETUPS, || {
        let data = generate(Distribution::Uniform, N, seed)
            .expect("uniform generation cannot fail")
            .data;
        let plan = Plan::build(cfg.clone(), N).expect("pipemerge-16m plan builds");
        PlanDag::from_plan(plan)
            .validate()
            .expect("pipemerge-16m dag is valid");
        let small = &data[..N >> 8];
        let warm_plan = Plan::build(warm_cfg.clone(), small.len()).expect("warm-up plan builds");
        let ok = sort_real_plan(&warm_plan, small).is_ok_and(|o| o.verified)
            && sort_real_parallel(&warm_plan, small).is_ok_and(|o| o.verified);
        (data, ok)
    });
    for t in setup_times {
        run.samples.push("setup_s", "s", t);
    }
    run.check(warm_ok, "warm-up sorts verified");

    let (ref_s, expect) = timed(|| {
        let mut v = data.clone();
        reference_sort_real(nproc, &mut v);
        v
    });
    run.samples.push("ref.sort_s", "s", ref_s);

    // The kernel timings of the traced mode come out of the same budget.
    let mut budget = budget;
    if trace {
        let (t, ()) = timed(|| kernels(run, &data, &expect, &cfg, nproc));
        budget = budget.saturating_sub(Duration::from_secs_f64(t));
    }

    repeat_for(run, budget, if trace { 2 } else { 1 }, |run, i| {
        if trace && i % 2 == 1 {
            // Traced: the same calls as an untraced repetition, with
            // `sort_real` split into its plan build and its engine call.
            let (plan1_s, plan1) = timed(|| Plan::build(cfg.clone(), N));
            let (seq_s, seq) = timed(|| plan1.and_then(|p| sort_real_plan(&p, &data)));
            run.check(
                correct(&seq, &expect),
                "traced sort_real bitwise equals reference",
            );
            let a = record_engine(run, "seq", seq_s, &seq);
            drop(seq);
            let (plan2_s, plan2) = timed(|| Plan::build(cfg.clone(), N));
            let plan2 = match plan2 {
                Ok(p) => p,
                Err(e) => {
                    run.check(false, &format!("plan build: {e}"));
                    return;
                }
            };
            let (pooled_s, pooled) = timed(|| sort_real_parallel(&plan2, &data));
            run.check(
                correct(&pooled, &expect),
                "traced sort_real_parallel bitwise equals reference",
            );
            let b = record_engine(run, "pooled", pooled_s, &pooled);
            drop(pooled);
            let wall = plan1_s + seq_s + plan2_s + pooled_s;
            let plan_s = plan1_s + plan2_s;
            let dag = PlanDag::from_plan(plan2);
            let s = &mut run.samples;
            s.push("traced_wall_s", "s", wall);
            s.push("plan.self_s", "s", plan_s);
            s.push("plan.share", "frac", plan_s / wall);
            s.push("plan.nodes", "count", dag.nodes.len() as f64);
            s.push("plan.edges", "count", dag.edge_count() as f64);
            s.push("algos.share", "frac", (a.union_s + b.union_s) / wall);
            s.push(
                "core.engine.share",
                "frac",
                (a.call_s - a.union_s + b.call_s - b.union_s) / wall,
            );
            s.push(
                "core.engine_overhead.share",
                "frac",
                (a.wall_s - a.union_s + b.wall_s - b.union_s) / wall,
            );
            s.push(
                "core.entry.share",
                "frac",
                (a.call_s - a.wall_s + b.call_s - b.wall_s) / wall,
            );
            s.push("pool.hits", "count", a.hits + b.hits);
            s.push("pool.misses", "count", a.misses + b.misses);
            return;
        }
        let (seq_s, seq) = timed(|| sort_real(cfg.clone(), &data));
        run.check(correct(&seq, &expect), "sort_real bitwise equals reference");
        drop(seq);
        let (pooled_s, pooled) =
            timed(|| Plan::build(cfg.clone(), N).and_then(|p| sort_real_parallel(&p, &data)));
        run.check(
            correct(&pooled, &expect),
            "sort_real_parallel bitwise equals reference",
        );
        let wall = seq_s + pooled_s;
        if i == 0 {
            crate::host::record_peak_rss(&mut run.samples);
        }
        let s = &mut run.samples;
        s.push("wall_s", "s", wall);
        s.push("sort_seq_melem_s", "Melem/s", N as f64 / 1e6 / seq_s);
        s.push("sort_pooled_melem_s", "Melem/s", N as f64 / 1e6 / pooled_s);
        s.push("core.seq.melem_s", "Melem/s", N as f64 / 1e6 / seq_s);
        s.push("core.pooled.melem_s", "Melem/s", N as f64 / 1e6 / pooled_s);
    });

    if let Some(seq) = run.samples.median("sort_seq_melem_s") {
        run.samples
            .push("ref.speedup", "x", ref_s / (N as f64 / 1e6 / seq));
    }
}

/// Time the kernels on this workload's own batches and check them.
fn kernels(run: &mut Run, data: &[f64], expect: &[f64], cfg: &HetSortConfig, nproc: usize) {
    let mut sorted: Vec<Vec<f64>> = Vec::new();
    for batch in data.chunks(BATCH) {
        let passes = radix_pass_count(batch);
        let bytes = 2.0 * 8.0 * batch.len() as f64 * passes as f64;
        let mut one = batch.to_vec();
        let (t1, ()) = timed(|| radix_sort(&mut one));
        let mut par = batch.to_vec();
        let (tp, ()) = timed(|| par_radix_sort(nproc, &mut par));
        run.check(
            is_sorted(&par) && bitwise_eq(&one, &par),
            "radix_sort == par_radix_sort, sorted",
        );
        let s = &mut run.samples;
        s.push("algos.radix.passes", "count", passes as f64);
        s.push("algos.radix_sort.s", "s", t1);
        s.push("algos.radix_sort.gbps", "GB/s", bytes / t1 / 1e9);
        s.push("algos.par_radix_sort.s", "s", tp);
        s.push("algos.par_radix_sort.gbps", "GB/s", bytes / tp / 1e9);
        sorted.push(par);
    }
    for pair in sorted.chunks_exact(2) {
        let mut out = vec![0.0; pair[0].len() + pair[1].len()];
        let (t, ()) = timed(|| par_merge_into(nproc, &pair[0], &pair[1], &mut out));
        run.check(is_sorted(&out), "par_merge_into output sorted");
        run.samples.push("algos.par_merge_into.s", "s", t);
        run.samples.push(
            "algos.par_merge_into.gbps",
            "GB/s",
            2.0 * 8.0 * out.len() as f64 / t / 1e9,
        );
    }
    let lists: Vec<&[f64]> = sorted.iter().map(Vec::as_slice).collect();
    let mut out = vec![0.0; data.len()];
    for _ in 0..2 {
        let (t, ()) = timed(|| par_multiway_merge_into(nproc, &lists, &mut out));
        run.check(
            bitwise_eq(&out, expect),
            "par_multiway_merge_into bitwise equals reference",
        );
        run.samples.push("algos.par_multiway_merge_into.s", "s", t);
        run.samples.push(
            "algos.par_multiway_merge_into.gbps",
            "GB/s",
            2.0 * 8.0 * out.len() as f64 / t / 1e9,
        );
    }
    let copy_threads = usize::try_from(cfg.memcpy_threads_eff()).map_or(nproc, |t| t.min(nproc));
    let chunk = &data[..PINNED];
    let mut pinned = vec![0.0; PINNED];
    for _ in 0..32 {
        let (t, ()) = timed(|| par_copy(copy_threads, chunk, &mut pinned));
        run.samples.push("algos.par_copy.s", "s", t);
        run.samples.push(
            "algos.par_copy.gbps",
            "GB/s",
            2.0 * 8.0 * PINNED as f64 / t / 1e9,
        );
    }
    run.check(bitwise_eq(chunk, &pinned), "par_copy copies the chunk");
}
