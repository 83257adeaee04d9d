//! The one DAG engine behind sequential and pooled functional
//! execution.
//!
//! Both entry points schedule the same [`PlanDag`] through the same
//! [`ReadySet`] and differ only in the resource model:
//!
//! * [`execute_dag`] — one host thread. Under the default
//!   [`TieBreak::MinId`] the ready order *is* the lowering's submission
//!   order, so outputs, spans, recovery statistics, fault-injection
//!   occurrence alignment and executed traces are deterministic (the
//!   differential suite pins them against the pooled engine).
//! * [`execute_dag_pooled`] — a pool of N workers pulls ready
//!   stream-bound nodes (stream exclusivity falls out of the FIFO
//!   edges: at most one node per stream is ever ready), while the
//!   calling thread coordinates merges, firing each pair merge the
//!   moment both inputs exist.
//!
//! Both engines route the full failure model through the same code:
//! per-batch checkpointing, survivor re-planning on device loss
//! (lowered to fresh survivor dags), CPU-fallback degradation, and
//! panic-safe worker death with typed [`HetSortError::WorkerPanic`].

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

use hetsort_algos::keys::{RadixKey, SortOrd};
use hetsort_algos::merge::par_merge_into_cfg;
use hetsort_algos::multiway::par_multiway_merge_into_cfg;
use hetsort_algos::par::{par_copy, SchedCfg, SchedStats};
use hetsort_algos::radix_par::par_radix_sort_cfg;
use hetsort_algos::verify::{fingerprint, is_sorted};
use hetsort_obs::{MetricsRegistry, ObsSpan, OpClass};
use hetsort_sim::Access;

use crate::dag::{DagOp, PlanDag, ReadySet, TieBreak};
use crate::error::HetSortError;
use crate::exec_real::{assemble_trace, cpu_part_spans, RealOutcome};
use crate::exec_stream::StreamExec;
use crate::plan::{MergeSrc, Plan};
use crate::pool::PoolStats;
use crate::report::RecoveryStats;

/// Engine knobs. The default is the pinned determinism contract;
/// non-default values exist for the test battery.
#[derive(Debug, Clone, Copy, Default)]
pub struct DagExecOptions {
    /// Ready-node tie-break (see [`TieBreak`]).
    pub tie: TieBreak,
    /// Test-support defect ([`crate::dag::mutate::DagMutant::SkipCheckpoint`]):
    /// ignore the per-batch checkpoint when a device loss triggers a
    /// re-plan, recomputing *every* batch. Output stays correct; the
    /// differential check on [`RecoveryStats`] kills it.
    pub skip_checkpoint: bool,
    /// CPU/GPU work stealing in the pooled engine: ready pair/CPU
    /// merges are dispatched to dedicated steal workers the moment
    /// their inputs exist, overlapping merges with the staging pipeline
    /// instead of running them inline on the coordinator. `false` (the
    /// default) preserves the coordinator-inline path byte-for-byte —
    /// the deterministic twin the differential battery pins. Stolen
    /// merges are pure functions of their inputs, so output, span
    /// multisets and recovery stats are identical either way; only
    /// wall-clock interleaving differs. Ignored by the sequential
    /// engine.
    pub steal: bool,
}

/// Shared entry checks: data/plan agreement, element width, plan
/// invariants, dag validity (which makes every stream index the
/// engines take from a node in range).
fn check_inputs<T>(dag: &PlanDag, data: &[T]) -> Result<(), HetSortError> {
    let plan = &dag.plan;
    if data.len() != plan.n {
        return Err(HetSortError::data(format!(
            "data length {} does not match plan n = {}",
            data.len(),
            plan.n
        )));
    }
    let elem_bytes = plan.config.elem_bytes_usize()?;
    if std::mem::size_of::<T>() != elem_bytes {
        return Err(HetSortError::data(format!(
            "element type is {} bytes but the config models {} — call with_elem_bytes",
            std::mem::size_of::<T>(),
            elem_bytes
        )));
    }
    plan.check_invariants()?;
    dag.validate()
}

/// The sorted slice behind a merge source, if it exists yet.
pub(crate) fn src_slice<'x, T>(
    src: MergeSrc,
    batches: &'x [Option<Vec<T>>],
    pairs: &'x [Option<Vec<T>>],
) -> Option<&'x [T]> {
    match src {
        MergeSrc::Batch(b) => batches[b].as_deref(),
        MergeSrc::Merged(p) => pairs[p].as_deref(),
    }
}

/// Span class and label for a pair slot under the dag's (possibly
/// hybrid) node typing: slots hybrid lowering emitted as
/// [`DagOp::CpuMerge`] (`cpu`) record under their own class.
fn pair_class(cpu: bool, slot: usize) -> (OpClass, String) {
    if cpu {
        (OpClass::CpuMerge, format!("CpuMerge p{slot}"))
    } else {
        (OpClass::PairMerge, format!("PairMerge p{slot}"))
    }
}

/// Span class and label for the final merge of `k` sublists.
fn multiway_class(k: usize) -> (OpClass, String) {
    (OpClass::MultiwayMerge, format!("MultiwayMerge k{k}"))
}

/// Run one merge on the run clock `t0` and record it: a span under
/// `class`/`label` carrying `bytes`, then one [`OpClass::CpuPart`] span
/// per worker that took part. Every merge path — sequential, pooled
/// coordinator, steal worker — records through here, so all engines
/// emit the same span multiset.
fn record_merge(
    spans: &mut Vec<ObsSpan>,
    t0: std::time::Instant,
    (class, label): (OpClass, String),
    bytes: f64,
    merge: impl FnOnce() -> SchedStats,
) {
    let m_start = t0.elapsed().as_secs_f64();
    let stats = merge();
    spans.push(
        ObsSpan::new(class, label.clone(), m_start, t0.elapsed().as_secs_f64()).with_bytes(bytes),
    );
    spans.extend(cpu_part_spans(&label, m_start, &stats));
}

/// Which pair slots the dag types as [`DagOp::CpuMerge`], indexed by
/// slot — the pooled coordinator's view of hybrid lowering.
fn cpu_slots_of(dag: &PlanDag) -> Vec<bool> {
    let mut v = vec![false; dag.plan.pairs.len()];
    for node in &dag.nodes {
        if let DagOp::CpuMerge { slot } = node.op {
            if let Some(f) = v.get_mut(slot) {
                *f = true;
            }
        }
    }
    v
}

/// Render a lost-GPU set for failover span labels (`"0"`, `"0, 2"`).
fn gpu_list(lost: &BTreeSet<usize>) -> String {
    lost.iter()
        .map(|g| g.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Fire every pending pair merge whose inputs are ready, repeatedly
/// (an Online/MergeTree merge may unlock the next). Each fired merge is
/// recorded as a span on the run clock `t0` under the class the dag
/// assigned its slot (`cpu_slot`).
#[allow(clippy::too_many_arguments)] // internal helper: plan context + two buffer banks + clock + span sink
pub(crate) fn fire_ready_pairs<T>(
    plan: &Plan,
    sched: &SchedCfg,
    merge_threads: usize,
    cpu_slot: &[bool],
    sorted_batches: &[Option<Vec<T>>],
    pair_out: &mut [Option<Vec<T>>],
    pending: &mut Vec<usize>,
    t0: std::time::Instant,
    spans: &mut Vec<ObsSpan>,
) where
    T: RadixKey + SortOrd + Default,
{
    let mut fired = true;
    while fired {
        fired = false;
        let mut i = 0;
        while i < pending.len() {
            let slot = pending[i];
            let spec = plan.pairs[slot];
            let (Some(l), Some(r)) = (
                src_slice(spec.left, sorted_batches, pair_out),
                src_slice(spec.right, sorted_batches, pair_out),
            ) else {
                i += 1;
                continue;
            };
            let mut out = vec![T::default(); spec.out_elems];
            record_merge(
                spans,
                t0,
                pair_class(cpu_slot[slot], slot),
                spec.out_elems as f64 * plan.config.elem_bytes,
                || par_merge_into_cfg(sched, merge_threads, l, r, &mut out),
            );
            pair_out[slot] = Some(out);
            pending.remove(i);
            fired = true;
        }
    }
}

/// A pair merge handed to a steal worker: inputs snapshotted, typing
/// resolved, everything the worker needs without touching coordinator
/// state.
struct MergeTask<T> {
    slot: usize,
    left: Vec<T>,
    right: Vec<T>,
    out_elems: usize,
    cpu: bool,
}

/// A finished stolen merge on its way back to the coordinator.
struct MergeDone<T> {
    slot: usize,
    out: Vec<T>,
    spans: Vec<ObsSpan>,
}

/// Dispatch every pending pair whose inputs are ready to the steal
/// pool (removing it from `pending`); returns how many were sent. The
/// counterpart of [`fire_ready_pairs`] for `steal=on`: the merge
/// itself happens on a steal worker, and the result re-enters through
/// the coordinator's done channel. A send failure (workers gone after
/// an abort) leaves the slot pending for the inline recovery paths.
fn dispatch_ready_pairs<T: Clone>(
    plan: &Plan,
    cpu_slot: &[bool],
    sorted_batches: &[Option<Vec<T>>],
    pair_out: &[Option<Vec<T>>],
    pending: &mut Vec<usize>,
    task_tx: &std::sync::mpsc::Sender<MergeTask<T>>,
) -> usize {
    let mut sent = 0usize;
    let mut i = 0;
    while i < pending.len() {
        let slot = pending[i];
        let spec = plan.pairs[slot];
        let (Some(l), Some(r)) = (
            src_slice(spec.left, sorted_batches, pair_out),
            src_slice(spec.right, sorted_batches, pair_out),
        ) else {
            i += 1;
            continue;
        };
        let task = MergeTask {
            slot,
            left: l.to_vec(),
            right: r.to_vec(),
            out_elems: spec.out_elems,
            cpu: cpu_slot[slot],
        };
        if task_tx.send(task).is_err() {
            i += 1;
            continue;
        }
        pending.remove(i);
        sent += 1;
    }
    sent
}

/// Execute one merge node of the sequential engine over the sorted runs
/// in `w`, writing pair outputs to `pair_out` and the multiway result
/// to `b_out`.
#[allow(clippy::too_many_arguments)] // merge context: inputs, outputs, sched, clock, span sink
fn run_merge_node<T>(
    plan: &Plan,
    op: &DagOp,
    sched: &SchedCfg,
    host_threads: usize,
    t0: std::time::Instant,
    w: &[T],
    b_out: &mut [T],
    pair_out: &mut [Vec<T>],
    merge_spans: &mut Vec<ObsSpan>,
    pair_merges_done: &mut usize,
) -> Result<(), HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    let elem_bytes = plan.config.elem_bytes;
    let resolve = |src: MergeSrc, pair_out: &'_ [Vec<T>]| -> Vec<T> {
        match src {
            MergeSrc::Batch(b) => {
                let bi = &plan.batches[b];
                w[bi.start..bi.start + bi.len].to_vec()
            }
            MergeSrc::Merged(p) => pair_out[p].clone(),
        }
    };
    match op {
        DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => {
            let spec = plan.pairs[*slot];
            // Borrow discipline: snapshot inputs, then write the slot.
            let left = resolve(spec.left, pair_out);
            let right = resolve(spec.right, pair_out);
            let mut out = vec![T::default(); spec.out_elems];
            record_merge(
                merge_spans,
                t0,
                pair_class(matches!(op, DagOp::CpuMerge { .. }), *slot),
                spec.out_elems as f64 * elem_bytes,
                || par_merge_into_cfg(sched, host_threads, &left, &right, &mut out),
            );
            pair_out[*slot] = out;
            *pair_merges_done += 1;
        }
        DagOp::MultiwayMerge => {
            let lists: Vec<&[T]> = plan
                .final_inputs
                .iter()
                .map(|&src| match src {
                    MergeSrc::Batch(b) => {
                        let bi = &plan.batches[b];
                        &w[bi.start..bi.start + bi.len]
                    }
                    MergeSrc::Merged(p) => pair_out[p].as_slice(),
                })
                .collect();
            record_merge(
                merge_spans,
                t0,
                multiway_class(lists.len()),
                plan.n as f64 * elem_bytes,
                || par_multiway_merge_into_cfg(sched, host_threads, &lists, b_out),
            );
        }
        other => {
            return Err(HetSortError::Plan {
                reason: format!(
                    "run_merge_node called on non-merge op {}",
                    other.class_name()
                ),
            })
        }
    }
    Ok(())
}

/// Execute the dag sequentially with default options (the pinned
/// [`TieBreak::MinId`] determinism contract).
///
/// # Errors
///
/// Everything [`crate::exec_real::sort_real_plan`] documents, plus
/// [`HetSortError::Plan`] when the dag fails [`PlanDag::validate`].
pub fn execute_dag<T>(dag: &PlanDag, data: &[T]) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    execute_dag_opts(dag, data, DagExecOptions::default())
}

/// Sequential engine with explicit [`DagExecOptions`].
///
/// # Errors
///
/// As [`execute_dag`].
pub fn execute_dag_opts<T>(
    dag: &PlanDag,
    data: &[T],
    opts: DagExecOptions,
) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    check_inputs(dag, data)?;
    let plan = &dag.plan;
    let cfg = &plan.config;
    let n = plan.n;
    let nb = plan.nb();
    let input_fp = fingerprint(data);
    let injected_before = cfg.faults.as_ref().map_or(0, |i| i.injected());
    let t0 = std::time::Instant::now();

    // Memory: A (borrowed), W (working memory for sorted sublists),
    // B (output), per-stream state (pinned + device buffers) in the
    // stream interpreters.
    let mut w = vec![T::default(); if nb > 1 { n } else { 0 }];
    let mut b_out = vec![T::default(); n];
    let mut pair_out: Vec<Vec<T>> = (0..plan.pairs.len()).map(|_| Vec::new()).collect();
    let merge_threads = usize::try_from(cfg.merge_threads_eff()).unwrap_or(usize::MAX);
    // Cap the functional thread count at this machine's parallelism ×4:
    // simulated platforms may have more cores than the host.
    let host_threads = merge_threads.min(4 * hetsort_algos::par::default_threads());
    let device_sort_threads = hetsort_algos::par::default_threads();
    let memcpy_threads = usize::try_from(cfg.memcpy_threads_eff())
        .unwrap_or(usize::MAX)
        .min(4 * hetsort_algos::par::default_threads());
    let sched = cfg.sched_cfg();

    // --- Phase 1: ready-order passes produce the sorted runs in `w`
    // (or `b_out` when n_b = 1). A device loss aborts the pass;
    // unfinished work is re-planned onto the survivors (or host-sorted
    // when none remain) and the next pass covers only batches not yet
    // staged out. Merge nodes execute inline only on the original dag
    // (batch tiling is identical across re-plans, so the *original*
    // dag's merge schedule stays valid); any still unexecuted after
    // recovery run in phase 2.
    let mut recovery = RecoveryStats::default();
    let mut pool_stats = PoolStats::default();
    let mut metrics = MetricsRegistry::new();
    let mut replans: Vec<Plan> = Vec::new();
    let mut lost_gpus: BTreeSet<usize> = Default::default();
    let mut emitted: Vec<usize> = vec![0usize; nb];
    let mut final_logs: Vec<Vec<(usize, Vec<Access>)>> = Vec::new();
    let mut merge_done: Vec<bool> = vec![false; dag.nodes.len()];
    let mut merge_spans: Vec<ObsSpan> = Vec::new();
    let mut pair_merges_done = 0usize;
    let mut cur_dag_owned: Option<PlanDag> = None;
    loop {
        let cur_dag: &PlanDag = cur_dag_owned.as_ref().unwrap_or(dag);
        let cur = &cur_dag.plan;
        let on_base = cur_dag_owned.is_none();
        let mut streams: Vec<StreamExec<T>> = (0..cur.total_streams)
            .map(|s| StreamExec::new(cur, data, s, host_threads, device_sort_threads, t0))
            .collect();
        let mut lost: Option<usize> = None;
        // Steps skipped because their batch already completed log empty
        // access lists: "no accesses this pass" must override the
        // static derivation in the assembled trace.
        let mut skipped_log: Vec<(usize, Vec<Access>)> = Vec::new();
        // The original dag schedules everything; survivor dags schedule
        // stream nodes only (their merges are never executed).
        let mut ready = ReadySet::new(
            cur_dag,
            |i| on_base || cur_dag.nodes[i].stream.is_some(),
            opts.tie,
        );
        while let Some(si) = ready.pop() {
            let node = &cur_dag.nodes[si];
            // A validated dag binds exactly the non-merge ops to streams.
            let Some(s) = node.stream else {
                run_merge_node(
                    plan,
                    &node.op,
                    &sched,
                    host_threads,
                    t0,
                    &w,
                    &mut b_out,
                    &mut pair_out,
                    &mut merge_spans,
                    &mut pair_merges_done,
                )?;
                merge_done[si] = true;
                ready.complete(si);
                continue;
            };
            if let Some(bi) = node.op.batch() {
                if emitted[bi] >= cur.batches[bi].len {
                    if cur.config.record_trace {
                        skipped_log.push((si, Vec::new()));
                    }
                    ready.complete(si);
                    continue;
                }
            }
            let dst = if nb > 1 { &mut w } else { &mut b_out };
            let r = streams[s].step(si, &node.op, &mut |batch, start, chunk| {
                par_copy(memcpy_threads, chunk, &mut dst[start..start + chunk.len()]);
                emitted[batch] += chunk.len();
            });
            match r {
                Ok(()) => ready.complete(si),
                Err(HetSortError::DeviceLost { gpu }) => {
                    lost = Some(gpu);
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        for sx in &mut streams {
            recovery.retries += sx.stats.retries;
            recovery.degraded_batches += sx.stats.degraded_batches;
            recovery.oom_replans += sx.stats.oom_replans;
            pool_stats.absorb(sx.pool.stats);
            metrics.record_all(std::mem::take(&mut sx.span_log));
        }
        if cur.config.record_trace {
            // The trace covers the final pass; earlier aborted passes'
            // logs reference a different dag's node ids.
            final_logs = streams.iter().map(|sx| sx.access_log.clone()).collect();
            final_logs.push(skipped_log);
        }
        let Some(gpu) = lost else { break };

        // Device fault domain: checkpoint what finished, re-plan the
        // rest over the survivors.
        recovery.device_lost += 1;
        recovery.record_lost_gpu(gpu);
        lost_gpus.insert(gpu);
        let unfinished: Vec<usize> = (0..nb)
            .filter(|&b| opts.skip_checkpoint || emitted[b] < plan.batches[b].len)
            .collect();
        recovery.batches_recomputed += unfinished
            .iter()
            .filter(|&&b| cur.physical_gpu(cur.batches[b].gpu) == gpu)
            .count();
        // Partially staged-out batches are recomputed whole.
        for &b in &unfinished {
            emitted[b] = 0;
        }
        let t_fail = t0.elapsed().as_secs_f64();
        match crate::recover::survivor_plan(plan, &lost_gpus)? {
            Some(rp) => {
                recovery.replans += 1;
                metrics.record(ObsSpan::new(
                    OpClass::Other,
                    format!(
                        "failover: GPU {gpu} lost → re-plan {} batch(es) on {} device(s)",
                        unfinished.len(),
                        rp.device_ids.len()
                    ),
                    t_fail,
                    t0.elapsed().as_secs_f64(),
                ));
                replans.push(rp.clone());
                cur_dag_owned = Some(PlanDag::from_plan(rp));
            }
            None => {
                if !cfg.recovery.cpu_fallback {
                    return Err(HetSortError::DeviceLost { gpu });
                }
                // Every device is gone: sort the unfinished batches
                // host-side straight from `A`.
                for &b in &unfinished {
                    let bi = plan.batches[b];
                    let dst = if nb > 1 { &mut w } else { &mut b_out };
                    let seg = &mut dst[bi.start..bi.start + bi.len];
                    par_copy(memcpy_threads, &data[bi.start..bi.start + bi.len], seg);
                    hetsort_algos::radix_par::par_radix_sort_cfg(&sched, host_threads, seg);
                    emitted[b] = bi.len;
                    recovery.degraded_batches += 1;
                }
                metrics.record(ObsSpan::new(
                    OpClass::Other,
                    format!(
                        "failover: GPU(s) {} lost, no survivors → host sort of {} batch(es)",
                        gpu_list(&lost_gpus),
                        unfinished.len()
                    ),
                    t_fail,
                    t0.elapsed().as_secs_f64(),
                ));
                break;
            }
        }
    }
    debug_assert!(
        (0..nb).all(|b| emitted[b] == plan.batches[b].len),
        "every batch must be staged out before merging"
    );

    // --- Phase 2: the original dag's merge schedule over the sorted
    // runs in `w` — only nodes phase 1 did not already execute.
    let mut merges = ReadySet::new(dag, |i| dag.nodes[i].op.is_merge(), opts.tie);
    while let Some(si) = merges.pop() {
        if !merge_done[si] {
            run_merge_node(
                plan,
                &dag.nodes[si].op,
                &sched,
                host_threads,
                t0,
                &w,
                &mut b_out,
                &mut pair_out,
                &mut merge_spans,
                &mut pair_merges_done,
            )?;
        }
        merges.complete(si);
    }

    recovery.faults_injected = cfg.faults.as_ref().map_or(0, |i| i.injected()) - injected_before;

    // With re-plans, the executed trace covers the final pass (the dag
    // that actually finished the run).
    let trace = cfg
        .record_trace
        .then(|| assemble_trace(cur_dag_owned.as_ref().unwrap_or(dag), &final_logs));

    metrics.record_all(merge_spans);
    recovery.fold_into(&mut metrics);
    pool_stats.fold_into(&mut metrics);

    let wall_s = t0.elapsed().as_secs_f64();
    let verified = is_sorted(&b_out) && fingerprint(&b_out) == input_fp;
    Ok(RealOutcome {
        sorted: b_out,
        wall_s,
        verified,
        nb,
        pair_merges: pair_merges_done,
        recovery,
        trace,
        metrics,
        replans,
    })
}

/// What ended a stream that did not finish cleanly.
enum StreamFail {
    Lost(usize),
    Typed(HetSortError),
    Panicked(String),
}

/// Pool scheduler state shared by the workers. Ready and dependent
/// entries are `(node id, stream)`: the pool only ever holds
/// stream-bound nodes, so each carries its binding.
struct PoolSched {
    ready: BTreeSet<(usize, usize)>,
    indegree: Vec<usize>,
    inflight: usize,
    dead: Vec<bool>,
}

/// Per-stream interpreter state a worker locks while executing one of
/// the stream's nodes (FIFO edges guarantee at most one ready node per
/// stream, so the lock is uncontended in practice).
struct StreamSlot<'p, T> {
    sx: StreamExec<'p, T>,
    assembling: Option<(usize, Vec<T>)>,
}

/// Lock a mutex, recovering the guard from a poisoned lock (a worker
/// panic is already recorded as a [`StreamFail`]; the data is not
/// touched again for dead streams).
fn lock_any<G>(m: &Mutex<G>) -> std::sync::MutexGuard<'_, G> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Execute the dag with a pool of `workers` threads over the stream
/// subgraph, the calling thread coordinating merges — the parallel
/// engine behind [`crate::exec_real_mt::sort_real_parallel`].
///
/// Produces bit-identical output to [`execute_dag`] (the data path is
/// deterministic; only wall-clock interleaving differs). With a fault
/// injector armed, global occurrence counters are still exact, but
/// *which* stream observes an occurrence depends on interleaving —
/// concurrent fault tests should use single-stream configs or
/// worker-addressed panics.
///
/// # Errors
///
/// As [`crate::exec_real_mt::sort_real_parallel`].
pub fn execute_dag_pooled<T>(
    dag: &PlanDag,
    data: &[T],
    workers: usize,
) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    execute_dag_pooled_opts(dag, data, workers, DagExecOptions::default())
}

/// Pooled engine with explicit [`DagExecOptions`] (`skip_checkpoint`
/// applies to the sequential recovery mini-pass only and is ignored
/// here).
///
/// # Errors
///
/// As [`execute_dag_pooled`].
pub fn execute_dag_pooled_opts<T>(
    dag: &PlanDag,
    data: &[T],
    workers: usize,
    opts: DagExecOptions,
) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    check_inputs(dag, data)?;
    let plan = &dag.plan;
    let nb = plan.nb();
    let input_fp = fingerprint(data);
    let injected_before = plan.config.faults.as_ref().map_or(0, |i| i.injected());
    let t0 = std::time::Instant::now();
    let merge_threads = usize::try_from(plan.config.merge_threads_eff())
        .unwrap_or(usize::MAX)
        .min(4 * hetsort_algos::par::default_threads());
    let device_sort_threads = hetsort_algos::par::default_threads();
    let sched = plan.config.sched_cfg();
    let n_workers = workers.max(1);
    // Hybrid typing per pair slot, as lowered into the dag.
    let cpu_slot = cpu_slots_of(dag);

    // Steal channels live outside the scope so the steal workers'
    // borrow of the task receiver satisfies the `'scope` bound; the
    // task sender is moved into the coordinator closure and dropped
    // there once no more merges can be dispatched, which is what lets
    // idle steal workers drain and exit before the scope joins.
    let (task_tx, task_rx) = std::sync::mpsc::channel::<MergeTask<T>>();
    let task_rx = Mutex::new(task_rx);
    let (done_tx, done_rx) = std::sync::mpsc::channel::<MergeDone<T>>();

    // Stream-subgraph scheduling state (merges belong to the
    // coordinator, not the pool).
    let mut indegree = vec![0usize; dag.nodes.len()];
    let mut dependents: Vec<Vec<(usize, usize)>> = vec![Vec::new(); dag.nodes.len()];
    let mut ready: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (i, node) in dag.nodes.iter().enumerate() {
        let Some(s) = node.stream else { continue };
        for &d in &node.deps {
            if dag.nodes[d].stream.is_some() {
                indegree[i] += 1;
                dependents[d].push((i, s));
            }
        }
        if indegree[i] == 0 {
            ready.insert((i, s));
        }
    }

    let sched_mx = Mutex::new(PoolSched {
        ready,
        indegree,
        inflight: 0,
        dead: vec![false; plan.total_streams],
    });
    let cond = Condvar::new();
    let slots: Vec<Mutex<StreamSlot<T>>> = (0..plan.total_streams)
        .map(|s| {
            Mutex::new(StreamSlot {
                sx: StreamExec::new(plan, data, s, merge_threads, device_sort_threads, t0),
                assembling: None,
            })
        })
        .collect();
    let fails_mx: Mutex<Vec<Option<StreamFail>>> =
        Mutex::new((0..plan.total_streams).map(|_| None).collect());

    let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<T>)>();

    let mut sorted_batches: Vec<Option<Vec<T>>> = (0..nb).map(|_| None).collect();
    let mut pair_out: Vec<Option<Vec<T>>> = (0..plan.pairs.len()).map(|_| None).collect();
    let mut b_out: Vec<T> = Vec::new();
    let mut recovery = RecoveryStats::default();
    let mut pool_stats = PoolStats::default();
    let mut stream_logs: Vec<Vec<(usize, Vec<Access>)>> = Vec::new();
    let mut metrics = MetricsRegistry::new();
    let mut merge_spans: Vec<ObsSpan> = Vec::new();
    let mut replans: Vec<Plan> = Vec::new();

    std::thread::scope(|scope| -> Result<(), HetSortError> {
        // ---- worker pool over ready stream nodes --------------------
        let mut handles = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let tx = tx.clone();
            let (sched_mx, cond, slots, fails_mx, dependents) =
                (&sched_mx, &cond, &slots, &fails_mx, &dependents);
            handles.push(scope.spawn(move || {
                loop {
                    // Acquire the next ready node under the tie-break.
                    let next = {
                        let mut g = lock_any(sched_mx);
                        loop {
                            let pick = match opts.tie {
                                TieBreak::MinId => g.ready.iter().next().copied(),
                                TieBreak::MaxId => g.ready.iter().next_back().copied(),
                            };
                            if let Some(entry) = pick {
                                g.ready.remove(&entry);
                                g.inflight += 1;
                                break Some(entry);
                            }
                            if g.inflight == 0 {
                                break None;
                            }
                            g = match cond.wait(g) {
                                Ok(g) => g,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                        }
                    };
                    let Some((id, s)) = next else {
                        // Drained (or permanently stuck behind a dead
                        // stream): wake any peers still waiting.
                        cond.notify_all();
                        return;
                    };
                    let node = &dag.nodes[id];
                    let stream_dead = lock_any(sched_mx).dead[s];
                    let mut ok = false;
                    if !stream_dead {
                        let mut slot = lock_any(&slots[s]);
                        let StreamSlot { sx, assembling } = &mut *slot;
                        let r = catch_unwind(AssertUnwindSafe(|| -> Result<(), HetSortError> {
                            if let DagOp::StagingCopy {
                                batch,
                                chunk: 0,
                                dir_in: true,
                                ..
                            } = node.op
                            {
                                if let Some(inj) = plan.config.faults.as_deref() {
                                    if inj.should_panic(s) {
                                        panic!(
                                            "injected panic in stream worker {s} at batch {batch}"
                                        );
                                    }
                                }
                            }
                            sx.step(id, &node.op, &mut |batch, _start, chunk| {
                                let (_, buf) = assembling.get_or_insert_with(|| {
                                    (batch, Vec::with_capacity(plan.batches[batch].len))
                                });
                                buf.extend_from_slice(chunk);
                                if buf.len() == plan.batches[batch].len {
                                    if let Some(done) = assembling.take() {
                                        // A dead coordinator just means
                                        // the run already failed; don't
                                        // panic on top.
                                        let _ = tx.send(done);
                                    }
                                }
                            })
                        }));
                        match r {
                            Ok(Ok(())) => ok = true,
                            Ok(Err(e)) => {
                                let mut f = lock_any(fails_mx);
                                if f[s].is_none() {
                                    f[s] = Some(match e {
                                        HetSortError::DeviceLost { gpu } => StreamFail::Lost(gpu),
                                        other => StreamFail::Typed(other),
                                    });
                                }
                            }
                            Err(payload) => {
                                let message = payload
                                    .downcast_ref::<&str>()
                                    .map(|m| (*m).to_string())
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "opaque panic payload".to_string());
                                let mut f = lock_any(fails_mx);
                                if f[s].is_none() {
                                    f[s] = Some(StreamFail::Panicked(message));
                                }
                            }
                        }
                    }
                    {
                        let mut g = lock_any(sched_mx);
                        g.inflight -= 1;
                        if ok {
                            for &(j, sj) in &dependents[id] {
                                g.indegree[j] -= 1;
                                if g.indegree[j] == 0 {
                                    g.ready.insert((j, sj));
                                }
                            }
                        } else {
                            // The stream stalls: its un-run successors
                            // stay blocked forever, and the pool drains
                            // around them.
                            g.dead[s] = true;
                        }
                        cond.notify_all();
                    }
                }
            }));
        }
        drop(tx);

        // ---- steal workers: CPU lanes for ready merge nodes ---------
        // With `steal` on, pair/CPU merges leave the coordinator the
        // moment their inputs exist and run here, overlapping the
        // staging pipeline. The workers block on the shared task
        // receiver (lock–recv–release: at most one waits while the
        // rest merge) and exit when the task sender drops.
        let steal_workers = if opts.steal { n_workers.clamp(1, 2) } else { 0 };
        for _ in 0..steal_workers {
            let done_tx = done_tx.clone();
            let (task_rx, sched) = (&task_rx, &sched);
            scope.spawn(move || loop {
                let task = lock_any(task_rx).recv();
                let Ok(t) = task else { return };
                let mut out = vec![T::default(); t.out_elems];
                let mut spans = Vec::new();
                record_merge(
                    &mut spans,
                    t0,
                    pair_class(t.cpu, t.slot),
                    t.out_elems as f64 * plan.config.elem_bytes,
                    || par_merge_into_cfg(sched, merge_threads, &t.left, &t.right, &mut out),
                );
                let _ = done_tx.send(MergeDone {
                    slot: t.slot,
                    out,
                    spans,
                });
            });
        }
        drop(done_tx);

        // ---- merge coordinator (this thread) ------------------------
        let mut received = 0usize;
        let mut pending_pairs: Vec<usize> = (0..plan.pairs.len()).collect();
        let mut stolen_inflight = 0usize;
        let land = |done: MergeDone<T>,
                    pair_out: &mut Vec<Option<Vec<T>>>,
                    merge_spans: &mut Vec<ObsSpan>| {
            pair_out[done.slot] = Some(done.out);
            merge_spans.extend(done.spans);
        };
        while received < nb {
            // A disconnect means every worker is done (some possibly
            // dead); fall through to the join pass to find out which.
            let Ok((idx, buf)) = rx.recv() else { break };
            sorted_batches[idx] = Some(buf);
            received += 1;
            if opts.steal {
                stolen_inflight += dispatch_ready_pairs(
                    plan,
                    &cpu_slot,
                    &sorted_batches,
                    &pair_out,
                    &mut pending_pairs,
                    &task_tx,
                );
                // Opportunistically land finished merges; a landed
                // Online/MergeTree output may unlock the next dispatch.
                while let Ok(done) = done_rx.try_recv() {
                    land(done, &mut pair_out, &mut merge_spans);
                    stolen_inflight -= 1;
                    stolen_inflight += dispatch_ready_pairs(
                        plan,
                        &cpu_slot,
                        &sorted_batches,
                        &pair_out,
                        &mut pending_pairs,
                        &task_tx,
                    );
                }
            } else {
                fire_ready_pairs(
                    plan,
                    &sched,
                    merge_threads,
                    &cpu_slot,
                    &sorted_batches,
                    &mut pair_out,
                    &mut pending_pairs,
                    t0,
                    &mut merge_spans,
                );
            }
        }
        // Settle every dispatched merge before inspecting stream
        // outcomes: pair_out must be complete for the recovery and
        // final-merge phases (a chained merge may still dispatch here).
        while stolen_inflight > 0 {
            let Ok(done) = done_rx.recv() else { break };
            land(done, &mut pair_out, &mut merge_spans);
            stolen_inflight -= 1;
            stolen_inflight += dispatch_ready_pairs(
                plan,
                &cpu_slot,
                &sorted_batches,
                &pair_out,
                &mut pending_pairs,
                &task_tx,
            );
        }
        // No further steal dispatch (recovery merges run inline); let
        // the steal workers drain and exit.
        drop(task_tx);
        for h in handles {
            // Workers catch their own panics; a join error would mean a
            // bug in the pool loop itself — surface it as a panic.
            if h.join().is_err() {
                return Err(HetSortError::Plan {
                    reason: "dag pool worker died outside the node sandbox".to_string(),
                });
            }
        }

        // ---- collect per-stream outcomes (stream order, like the
        // legacy per-worker join pass): clean streams contribute stats,
        // logs and spans; failed streams contribute their fault.
        let mut fails = lock_any(&fails_mx);
        let mut first_err: Option<HetSortError> = None;
        let mut first_panic: Option<HetSortError> = None;
        let mut newly_lost: Vec<usize> = Vec::new();
        for s in 0..plan.total_streams {
            match fails[s].take() {
                None => {
                    let mut slot = lock_any(&slots[s]);
                    recovery.retries += slot.sx.stats.retries;
                    recovery.degraded_batches += slot.sx.stats.degraded_batches;
                    recovery.oom_replans += slot.sx.stats.oom_replans;
                    pool_stats.absorb(slot.sx.pool.stats);
                    stream_logs.push(std::mem::take(&mut slot.sx.access_log));
                    metrics.record_all(std::mem::take(&mut slot.sx.span_log));
                }
                Some(StreamFail::Lost(gpu)) => {
                    if !newly_lost.contains(&gpu) {
                        newly_lost.push(gpu);
                    }
                }
                Some(StreamFail::Typed(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                Some(StreamFail::Panicked(message)) => {
                    if first_panic.is_none() {
                        first_panic = Some(HetSortError::WorkerPanic { worker: s, message });
                    }
                }
            }
        }
        drop(fails);
        if let Some(e) = first_err {
            return Err(e);
        }

        // ---- device-loss recovery: re-plan missing batches ----------
        // Completed batches in `sorted_batches` are the checkpoint;
        // each round lowers a survivor dag and runs a sequential
        // mini-pass over only the still-missing batches. A further loss
        // during recovery shrinks the pool again.
        if !newly_lost.is_empty() {
            let mut lost_gpus: BTreeSet<usize> = Default::default();
            let mut cur_owned: Option<Plan> = None;
            while !newly_lost.is_empty() {
                let cur: &Plan = cur_owned.as_ref().unwrap_or(plan);
                recovery.device_lost += newly_lost.len();
                // Several devices can die inside one checkpoint window
                // (one loss event per GPU, all observed at this join);
                // attribute every casualty, not an arbitrary pick.
                for &g in &newly_lost {
                    recovery.record_lost_gpu(g);
                }
                recovery.batches_recomputed += sorted_batches
                    .iter()
                    .enumerate()
                    .filter(|(b, sl)| {
                        sl.is_none() && newly_lost.contains(&cur.physical_gpu(cur.batches[*b].gpu))
                    })
                    .count();
                lost_gpus.extend(newly_lost.drain(..));
                let missing = sorted_batches.iter().filter(|sl| sl.is_none()).count();
                let t_fail = t0.elapsed().as_secs_f64();
                match crate::recover::survivor_plan(plan, &lost_gpus)? {
                    None => {
                        // The typed error carries one representative id
                        // (the smallest casualty); the span and the
                        // RecoveryStats mask name the full set.
                        let gpu = lost_gpus.iter().next().copied().unwrap_or(0);
                        if !plan.config.recovery.cpu_fallback {
                            return Err(HetSortError::DeviceLost { gpu });
                        }
                        for (b, slot) in sorted_batches.iter_mut().enumerate() {
                            if slot.is_none() {
                                let bi = &plan.batches[b];
                                let mut buf = data[bi.start..bi.start + bi.len].to_vec();
                                par_radix_sort_cfg(&sched, merge_threads, &mut buf);
                                *slot = Some(buf);
                                recovery.degraded_batches += 1;
                            }
                        }
                        metrics.record(ObsSpan::new(
                            OpClass::Other,
                            format!(
                                "failover: GPU(s) {} lost, no survivors → host sort of {missing} batch(es)",
                                gpu_list(&lost_gpus)
                            ),
                            t_fail,
                            t0.elapsed().as_secs_f64(),
                        ));
                    }
                    Some(rp) => {
                        recovery.replans += 1;
                        metrics.record(ObsSpan::new(
                            OpClass::Other,
                            format!(
                                "failover: re-plan {missing} batch(es) on {} device(s)",
                                rp.device_ids.len()
                            ),
                            t_fail,
                            t0.elapsed().as_secs_f64(),
                        ));
                        let rp_dag = PlanDag::from_plan(rp.clone());
                        let mut sxs: Vec<StreamExec<T>> = (0..rp_dag.plan.total_streams)
                            .map(|s| {
                                StreamExec::new(
                                    &rp_dag.plan,
                                    data,
                                    s,
                                    merge_threads,
                                    device_sort_threads,
                                    t0,
                                )
                            })
                            .collect();
                        let mut partial: Vec<Vec<T>> = vec![Vec::new(); nb];
                        let mut mini = ReadySet::new(&rp_dag, |_| true, TieBreak::MinId);
                        'mini: while let Some(si) = mini.pop() {
                            mini.complete(si);
                            let node = &rp_dag.nodes[si];
                            // Merges run on the coordinator once every
                            // batch is back.
                            let Some(s) = node.stream else { continue };
                            if let Some(bi) = node.op.batch() {
                                if sorted_batches[bi].is_some() {
                                    continue;
                                }
                            }
                            let r = sxs[s].step(si, &node.op, &mut |batch, _start, chunk| {
                                partial[batch].extend_from_slice(chunk);
                            });
                            match r {
                                Ok(()) => {}
                                Err(HetSortError::DeviceLost { gpu }) => {
                                    newly_lost.push(gpu);
                                    break 'mini;
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        for sx in &mut sxs {
                            recovery.retries += sx.stats.retries;
                            recovery.degraded_batches += sx.stats.degraded_batches;
                            recovery.oom_replans += sx.stats.oom_replans;
                            pool_stats.absorb(sx.pool.stats);
                            metrics.record_all(std::mem::take(&mut sx.span_log));
                        }
                        for (b, buf) in partial.into_iter().enumerate() {
                            if sorted_batches[b].is_none() && buf.len() == plan.batches[b].len {
                                sorted_batches[b] = Some(buf);
                            }
                        }
                        replans.push(rp_dag.plan.clone());
                        cur_owned = Some(rp_dag.plan);
                    }
                }
            }
            fire_ready_pairs(
                plan,
                &sched,
                merge_threads,
                &cpu_slot,
                &sorted_batches,
                &mut pair_out,
                &mut pending_pairs,
                t0,
                &mut merge_spans,
            );
        }

        if let Some(e) = first_panic {
            if !plan.config.recovery.cpu_fallback {
                return Err(e);
            }
            // Graceful degradation: host-sort whatever the dead
            // stream(s) never delivered, straight from A.
            for (b, slot) in sorted_batches.iter_mut().enumerate() {
                if slot.is_none() {
                    let bi = &plan.batches[b];
                    let mut buf = data[bi.start..bi.start + bi.len].to_vec();
                    par_radix_sort_cfg(&sched, merge_threads, &mut buf);
                    *slot = Some(buf);
                    recovery.degraded_batches += 1;
                }
            }
            fire_ready_pairs(
                plan,
                &sched,
                merge_threads,
                &cpu_slot,
                &sorted_batches,
                &mut pair_out,
                &mut pending_pairs,
                t0,
                &mut merge_spans,
            );
        }
        if !pending_pairs.is_empty() {
            return Err(HetSortError::MergeStall {
                pending: pending_pairs.len(),
            });
        }

        // ---- final merge --------------------------------------------
        b_out = vec![T::default(); plan.n];
        if nb == 1 {
            let only = sorted_batches[0]
                .as_deref()
                .ok_or_else(|| HetSortError::Plan {
                    reason: "batch 0 was never produced".to_string(),
                })?;
            b_out.copy_from_slice(only);
        } else {
            let mut lists: Vec<&[T]> = Vec::with_capacity(plan.multiway_k());
            for (k, &src) in plan.final_inputs.iter().enumerate() {
                let sl = src_slice(src, &sorted_batches, &pair_out).ok_or_else(|| {
                    HetSortError::Plan {
                        reason: format!("final merge input {k} was never produced"),
                    }
                })?;
                lists.push(sl);
            }
            record_merge(
                &mut merge_spans,
                t0,
                multiway_class(lists.len()),
                plan.n as f64 * plan.config.elem_bytes,
                || par_multiway_merge_into_cfg(&sched, merge_threads, &lists, &mut b_out),
            );
        }
        Ok(())
    })?;

    recovery.faults_injected =
        plan.config.faults.as_ref().map_or(0, |i| i.injected()) - injected_before;
    let trace = plan
        .config
        .record_trace
        .then(|| assemble_trace(dag, &stream_logs));
    metrics.record_all(merge_spans);
    recovery.fold_into(&mut metrics);
    pool_stats.fold_into(&mut metrics);
    let wall_s = t0.elapsed().as_secs_f64();
    let verified = is_sorted(&b_out) && fingerprint(&b_out) == input_fp;
    Ok(RealOutcome {
        sorted: b_out,
        wall_s,
        verified,
        nb,
        pair_merges: plan.pairs.len(),
        recovery,
        trace,
        metrics,
        replans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HetSortConfig};
    use crate::plan::Plan;
    use hetsort_algos::introsort::introsort;
    use hetsort_vgpu::platform1;

    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn dag(approach: Approach, bs: usize, ps: usize, n: usize) -> PlanDag {
        let cfg = HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(bs)
            .with_pinned_elems(ps);
        PlanDag::from_plan(Plan::build(cfg, n).unwrap())
    }

    #[test]
    fn tie_break_permutation_preserves_output() {
        let d = data(24_000, 17);
        let g = dag(Approach::PipeMerge, 3_000, 500, 24_000);
        let min = execute_dag_opts(
            &g,
            &d,
            DagExecOptions {
                tie: TieBreak::MinId,
                ..Default::default()
            },
        )
        .unwrap();
        let max = execute_dag_opts(
            &g,
            &d,
            DagExecOptions {
                tie: TieBreak::MaxId,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(min.verified && max.verified);
        assert_eq!(
            min.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            max.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pooled_worker_counts_agree() {
        let n = 30_000;
        let d = data(n, 3);
        let mut expect = d.clone();
        introsort(&mut expect);
        let g = dag(Approach::PipeMerge, 4_000, 800, n);
        for workers in [1usize, 2, 3, 8] {
            let out = execute_dag_pooled(&g, &d, workers).unwrap();
            assert!(out.verified, "workers={workers}");
            assert_eq!(
                out.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn cpu_merge_node_executes_with_its_own_span_class() {
        let n = 12_000;
        let d = data(n, 9);
        let mut g = dag(Approach::PipeMerge, 2_000, 400, n);
        // Re-type one pair merge onto the CPU merge resource.
        let idx = g
            .nodes
            .iter()
            .position(|node| matches!(node.op, DagOp::PairMerge { .. }))
            .expect("PipeMerge has pair merges");
        let DagOp::PairMerge { slot } = g.nodes[idx].op else {
            unreachable!()
        };
        g.nodes[idx].op = DagOp::CpuMerge { slot };
        g.validate().unwrap();
        let out = execute_dag(&g, &d).unwrap();
        assert!(out.verified);
        let classes: Vec<&str> = out.metrics.spans().iter().map(|s| s.class.name()).collect();
        assert!(classes.contains(&"CpuMerge"), "{classes:?}");
        let mut expect = d.clone();
        introsort(&mut expect);
        assert_eq!(
            out.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stealing_is_observationally_invisible() {
        use crate::config::HybridMode;
        use std::collections::BTreeMap;
        let n = 30_000;
        let d = data(n, 21);
        for hybrid in [HybridMode::Off, HybridMode::Fraction(0.5), HybridMode::Auto] {
            let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
                .with_batch_elems(4_000)
                .with_pinned_elems(800)
                .with_hybrid(hybrid);
            let g = PlanDag::from_plan(Plan::build(cfg, n).unwrap());
            let run = |steal: bool| {
                execute_dag_pooled_opts(
                    &g,
                    &d,
                    3,
                    DagExecOptions {
                        steal,
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            let twin = run(false);
            let stolen = run(true);
            assert!(twin.verified && stolen.verified, "{hybrid:?}");
            assert_eq!(
                twin.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                stolen
                    .sorted
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "{hybrid:?}: steal changed the output"
            );
            assert_eq!(twin.recovery, stolen.recovery, "{hybrid:?}");
            // Span multisets (class × label), CpuPart excluded: the
            // per-worker breakdown of a parallel merge is structure,
            // not schedule.
            let multiset = |out: &RealOutcome<f64>| {
                let mut m: BTreeMap<(String, String), usize> = BTreeMap::new();
                for s in out.metrics.spans() {
                    if s.class.name() == "CpuPart" {
                        continue;
                    }
                    *m.entry((s.class.name().to_string(), s.label.clone()))
                        .or_insert(0) += 1;
                }
                m
            };
            assert_eq!(
                multiset(&twin),
                multiset(&stolen),
                "{hybrid:?}: steal changed the span multiset"
            );
        }
    }

    #[test]
    fn losing_both_gpus_attributes_every_casualty() {
        use hetsort_vgpu::{platform2, FaultInjector};
        use std::sync::Arc;
        // Kill GPU 0 and GPU 1 in quick succession: the run degrades to
        // host sorting with NO survivors, and the recovery stats must
        // name *both* casualties — not just the first one noticed.
        let n = 24_000;
        let d = data(n, 33);
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(3_000)
            .with_pinned_elems(600)
            .with_faults(Arc::new(
                FaultInjector::new().lose_device(0, 2).lose_device(1, 3),
            ));
        let g = PlanDag::from_plan(Plan::build(cfg, n).unwrap());
        let out = execute_dag_pooled(&g, &d, 2).unwrap();
        assert!(out.verified, "host fallback still sorts");
        assert_eq!(out.recovery.device_lost, 2, "{}", out.recovery.summary());
        assert_eq!(
            out.recovery.lost_gpus(),
            vec![0, 1],
            "both casualties must be in the mask: {}",
            out.recovery.summary()
        );
        // The no-survivor failover span names every lost device.
        assert!(
            out.metrics
                .spans()
                .iter()
                .any(|s| s.label.contains("GPU(s) 0, 1 lost")),
            "failover span must list both GPUs: {:?}",
            out.metrics
                .spans()
                .iter()
                .filter(|s| s.label.contains("failover"))
                .map(|s| &s.label)
                .collect::<Vec<_>>()
        );
        // The sequential engine attributes identically.
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(3_000)
            .with_pinned_elems(600)
            .with_faults(Arc::new(
                FaultInjector::new().lose_device(0, 2).lose_device(1, 3),
            ));
        let g = PlanDag::from_plan(Plan::build(cfg, n).unwrap());
        let seq = execute_dag(&g, &d).unwrap();
        assert_eq!(seq.recovery.lost_gpus(), vec![0, 1]);
    }

    #[test]
    fn misbound_streams_are_rejected_by_both_engines() {
        // A binding past the plan's streams would index past both
        // engines' per-stream state (a pooled worker would panic outside
        // its sandbox and stall the pool); a missing one has no stream
        // state to run on. Validation must reject both before any node
        // runs.
        let d = data(6_000, 5);
        let base = dag(Approach::PipeMerge, 1_000, 250, 6_000);
        let last = base.plan.total_streams - 1;
        for rebound in [Some(last + 8), None] {
            let mut g = base.clone();
            for node in &mut g.nodes {
                if node.stream == Some(last) {
                    node.stream = rebound;
                }
            }
            for r in [execute_dag(&g, &d), execute_dag_pooled(&g, &d, 2)] {
                match r {
                    Err(HetSortError::Plan { reason }) => {
                        assert!(reason.starts_with("stream-binding:"), "{reason}")
                    }
                    other => panic!("{rebound:?}: expected a Plan error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn invalid_dag_is_rejected_before_execution() {
        let mut g = dag(Approach::PipeData, 2_000, 400, 6_000);
        let last = g.nodes.len() - 1;
        g.nodes[0].deps.push(last);
        let d = data(6_000, 1);
        match execute_dag(&g, &d) {
            Err(HetSortError::Plan { reason }) => assert!(reason.contains("cycle"), "{reason}"),
            other => panic!("expected Plan error, got {other:?}"),
        }
    }
}
