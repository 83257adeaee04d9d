//! The one DAG engine behind every functional run.
//!
//! [`execute_dag_opts`] schedules a [`PlanDag`] through one shared
//! [`ReadySet`] with [`DagExecOptions::workers`] threads, and every
//! worker runs the same loop: pop the next ready node of any kind, run
//! it inside `catch_unwind`, complete it.
//!
//! * At `workers ≤ 1` the loop runs on the calling thread (no spawn, no
//!   channel). Under the default [`TieBreak::MinId`] the ready order
//!   *is* the lowering's submission order, so outputs, spans, recovery
//!   statistics, fault-occurrence alignment and executed traces are
//!   deterministic.
//! * With more workers, stream exclusivity falls out of the FIFO edges
//!   (at most one node per stream is ever ready), and a pair merge runs
//!   on whichever worker pops it the moment both inputs exist, so
//!   merges overlap the staging pipeline by construction.
//!
//! Data moves through write-once slots: a stream's stage-out writes
//! each chunk into its batch's buffer, which freezes once full; merges
//! read their inputs in place and freeze their own outputs.
//!
//! One failure model at every worker count:
//!
//! * a stream that hits [`HetSortError::DeviceLost`] dies: its
//!   successors stay blocked and the other streams run on. Once the
//!   pass drains, the frozen batches are the checkpoint. Each recovery
//!   round lowers [`crate::recover::survivor_plan`] and runs the same
//!   pass over the survivor dag's stream nodes for the batches still
//!   missing (a host sort when no device survives). A last pass runs
//!   the caller's merge nodes that have not run yet;
//! * a stream node that panics (injected through
//!   [`hetsort_vgpu::FaultInjector::panic_worker`] or real) kills its
//!   stream the same way; its missing batches are host-sorted under
//!   CPU fallback, and otherwise the run fails with
//!   [`HetSortError::WorkerPanic`] naming the stream. A panicking merge
//!   is a `WorkerPanic` naming the engine worker;
//! * the first typed error stops dispatch; in-flight nodes finish and
//!   the engine returns that error.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

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

/// Engine knobs. The default is the pinned determinism contract: one
/// worker on the calling thread, [`TieBreak::MinId`].
#[derive(Debug, Clone, Copy)]
pub struct DagExecOptions {
    /// Threads running the scheduler loop; `≤ 1` runs it inline on the
    /// calling thread. Capped at the number of nodes a pass schedules.
    pub workers: usize,
    /// Ready-node tie-break (see [`TieBreak`]).
    pub tie: TieBreak,
    /// Test-support defect ([`crate::dag::mutate::DagMutant::SkipCheckpoint`]):
    /// ignore the per-batch checkpoint when a device loss triggers a
    /// re-plan, recomputing *every* batch. Output stays correct; the
    /// differential check on [`RecoveryStats`] kills it.
    pub skip_checkpoint: bool,
}

impl Default for DagExecOptions {
    fn default() -> Self {
        DagExecOptions {
            workers: 1,
            tie: TieBreak::MinId,
            skip_checkpoint: false,
        }
    }
}

/// Shared entry checks: data/plan agreement, element width, plan
/// invariants, dag validity (which makes every stream index the
/// engine takes from a node in range).
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
/// per worker that took part.
fn record_merge(
    spans: &mut Vec<ObsSpan>,
    t0: Instant,
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

/// Render a lost-GPU set for failover span labels (`"0"`, `"0, 2"`).
fn gpu_list(lost: &BTreeSet<usize>) -> String {
    lost.iter()
        .map(|g| g.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Lock a mutex, recovering the guard from a poisoned lock (a node
/// panic is already recorded as a [`StreamFail`]; a dead stream's state
/// is never stepped again).
fn lock_any<G>(m: &Mutex<G>) -> std::sync::MutexGuard<'_, G> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run-wide inputs every pass shares.
struct Run<'a, T> {
    /// The caller's plan: batch tiling and merge schedule, which every
    /// survivor re-plan keeps.
    plan: &'a Plan,
    data: &'a [T],
    opts: DagExecOptions,
    t0: Instant,
    sched: SchedCfg,
    host_threads: usize,
    device_sort_threads: usize,
    memcpy_threads: usize,
}

/// A batch's sorted run: filled chunk by chunk by its stage-out, then
/// frozen for the merges.
struct BatchSlot<T> {
    /// Assembly buffer and the elements written into it so far.
    filling: Mutex<(Vec<T>, usize)>,
    sorted: OnceLock<Vec<T>>,
}

/// Every write-once result of a run.
struct Slots<T> {
    batches: Vec<BatchSlot<T>>,
    pairs: Vec<OnceLock<Vec<T>>>,
    /// The final multiway merge's output (`n_b > 1` only).
    out: OnceLock<Vec<T>>,
}

impl<T> Slots<T> {
    fn new(plan: &Plan) -> Self {
        Slots {
            batches: (0..plan.nb())
                .map(|_| BatchSlot {
                    filling: Mutex::new((Vec::new(), 0)),
                    sorted: OnceLock::new(),
                })
                .collect(),
            pairs: (0..plan.pairs.len()).map(|_| OnceLock::new()).collect(),
            out: OnceLock::new(),
        }
    }

    /// The sorted run behind a merge source, if it exists yet.
    fn src(&self, src: MergeSrc) -> Option<&[T]> {
        match src {
            MergeSrc::Batch(b) => self.batches[b].sorted.get(),
            MergeSrc::Merged(p) => self.pairs[p].get(),
        }
        .map(Vec::as_slice)
    }

    fn missing(&self, batch: usize) -> bool {
        self.batches[batch].sorted.get().is_none()
    }

    /// Whether merge node `op` still has to run (its output slot is
    /// empty); `false` for non-merge ops.
    fn merge_pending(&self, op: &DagOp) -> bool {
        match *op {
            DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => {
                self.pairs[slot].get().is_none()
            }
            DagOp::MultiwayMerge => self.out.get().is_none(),
            _ => false,
        }
    }
}

/// What every pass adds to the outcome.
#[derive(Default)]
struct Tally {
    recovery: RecoveryStats,
    pool: PoolStats,
    metrics: MetricsRegistry,
}

/// What ended a stream that did not finish cleanly.
enum StreamFail {
    Lost(usize),
    Panicked(String),
}

/// The scheduler state every worker locks.
struct Sched {
    ready: ReadySet,
    inflight: usize,
    /// Per stream: why it died, if it did. A dead stream's successors
    /// are never released, and the FIFO edges make every later node of
    /// the stream one of them.
    dead: Vec<Option<StreamFail>>,
    /// The first typed error (or merge panic); stops dispatch.
    abort: Option<HetSortError>,
}

/// One pass over a dag's in-scope nodes.
struct Pass<'a, T> {
    run: &'a Run<'a, T>,
    dag: &'a PlanDag,
    slots: &'a Slots<T>,
    streams: Vec<Mutex<StreamExec<'a, T>>>,
    state: Mutex<Sched>,
    wake: Condvar,
    workers: usize,
}

/// How a pass ended when no typed error stopped it.
#[derive(Default)]
struct PassEnd {
    /// Per stream of the pass's dag: why it died, if it did.
    dead: Vec<Option<StreamFail>>,
    /// Per stream: the accesses each executed node performed.
    logs: Vec<Vec<(usize, Vec<Access>)>>,
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|m| (*m).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

impl<'a, T> Pass<'a, T>
where
    T: RadixKey + SortOrd + Default,
{
    /// Wake waiting workers (there are none when the loop runs inline).
    fn notify(&self) {
        if self.workers > 1 {
            self.wake.notify_all();
        }
    }

    /// The next node to run, or `None` once nothing can become ready.
    fn next(&self) -> Option<usize> {
        let mut g = lock_any(&self.state);
        loop {
            if g.abort.is_none() {
                if let Some(id) = g.ready.pop() {
                    g.inflight += 1;
                    return Some(id);
                }
            }
            if g.inflight == 0 {
                drop(g);
                self.notify();
                return None;
            }
            g = self
                .wake
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// The scheduler loop every worker runs; returns the merge spans
    /// worker `w` recorded.
    fn work(&self, w: usize) -> Vec<ObsSpan> {
        let mut spans = Vec::new();
        while let Some(id) = self.next() {
            let stream = self.dag.nodes[id].stream;
            let r = catch_unwind(AssertUnwindSafe(|| match stream {
                Some(s) => self.step(id, s),
                None => self.merge(&self.dag.nodes[id].op, &mut spans),
            }));
            let mut g = lock_any(&self.state);
            g.inflight -= 1;
            match (r, stream) {
                (Ok(Ok(())), _) => g.ready.complete(id),
                (Ok(Err(HetSortError::DeviceLost { gpu })), Some(s)) => {
                    g.dead[s] = Some(StreamFail::Lost(gpu));
                }
                (Ok(Err(e)), _) => {
                    g.abort.get_or_insert(e);
                }
                (Err(payload), Some(s)) => {
                    g.dead[s] = Some(StreamFail::Panicked(panic_message(&*payload)));
                }
                (Err(payload), None) => {
                    g.abort.get_or_insert(HetSortError::WorkerPanic {
                        worker: w,
                        message: panic_message(&*payload),
                    });
                }
            }
            drop(g);
            self.notify();
        }
        spans
    }

    /// Run stream-bound node `id` on stream `s`, writing stage-out
    /// chunks into their batch slots.
    fn step(&self, id: usize, s: usize) -> Result<(), HetSortError> {
        let op = &self.dag.nodes[id].op;
        let mut sx = lock_any(&self.streams[s]);
        if let DagOp::StagingCopy {
            batch,
            chunk: 0,
            dir_in: true,
            ..
        } = *op
        {
            let inj = self.dag.plan.config.faults.as_deref();
            if inj.is_some_and(|inj| inj.should_panic(s)) {
                panic!("injected panic in stream worker {s} at batch {batch}");
            }
        }
        sx.step(id, op, &mut |batch, start, chunk| {
            self.emit(batch, start, chunk)
        })
    }

    /// Write a stage-out chunk into its batch slot; freeze the batch
    /// once every element arrived.
    fn emit(&self, batch: usize, start: usize, chunk: &[T]) {
        let bi = &self.run.plan.batches[batch];
        let slot = &self.slots.batches[batch];
        let mut g = lock_any(&slot.filling);
        let (buf, filled) = &mut *g;
        if buf.len() != bi.len {
            *buf = vec![T::default(); bi.len];
        }
        let off = start - bi.start;
        par_copy(
            self.run.memcpy_threads,
            chunk,
            &mut buf[off..off + chunk.len()],
        );
        *filled += chunk.len();
        if *filled == bi.len {
            *filled = 0;
            let _ = slot.sorted.set(std::mem::take(buf));
        }
    }

    /// Run merge node `op` over its input slots, in place.
    fn merge(&self, op: &DagOp, spans: &mut Vec<ObsSpan>) -> Result<(), HetSortError> {
        let run = self.run;
        let plan = run.plan;
        let input = |src| {
            self.slots.src(src).ok_or_else(|| HetSortError::Plan {
                reason: format!("{} ran before its inputs exist", op.class_name()),
            })
        };
        match *op {
            DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => {
                let spec = plan.pairs[slot];
                let (l, r) = (input(spec.left)?, input(spec.right)?);
                let mut out = vec![T::default(); spec.out_elems];
                record_merge(
                    spans,
                    run.t0,
                    pair_class(matches!(op, DagOp::CpuMerge { .. }), slot),
                    spec.out_elems as f64 * plan.config.elem_bytes,
                    || par_merge_into_cfg(&run.sched, run.host_threads, l, r, &mut out),
                );
                let _ = self.slots.pairs[slot].set(out);
            }
            DagOp::MultiwayMerge => {
                let lists = plan
                    .final_inputs
                    .iter()
                    .map(|&src| input(src))
                    .collect::<Result<Vec<&[T]>, _>>()?;
                let mut out = vec![T::default(); plan.n];
                record_merge(
                    spans,
                    run.t0,
                    multiway_class(lists.len()),
                    plan.n as f64 * plan.config.elem_bytes,
                    || par_multiway_merge_into_cfg(&run.sched, run.host_threads, &lists, &mut out),
                );
                let _ = self.slots.out.set(out);
            }
            // A validated dag binds every non-merge op to a stream.
            _ => {
                return Err(HetSortError::Plan {
                    reason: format!("{} has no stream", op.class_name()),
                })
            }
        }
        Ok(())
    }
}

/// Run the in-scope nodes of `dag` to completion with the run's worker
/// count, absorbing every stream's counters, pool statistics and spans
/// into `tally` (failed streams too: their work still happened).
///
/// # Errors
///
/// The first typed error a node returned, or the first merge panic.
fn pass<T>(
    run: &Run<'_, T>,
    dag: &PlanDag,
    in_scope: impl Fn(usize) -> bool,
    slots: &Slots<T>,
    tally: &mut Tally,
) -> Result<PassEnd, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    let ready = ReadySet::new(dag, in_scope, run.opts.tie);
    if ready.remaining() == 0 {
        return Ok(PassEnd::default());
    }
    let n_streams = dag.plan.total_streams;
    let p = Pass {
        run,
        dag,
        slots,
        workers: run.opts.workers.clamp(1, ready.remaining()),
        streams: (0..n_streams)
            .map(|s| {
                Mutex::new(StreamExec::new(
                    &dag.plan,
                    run.data,
                    s,
                    run.host_threads,
                    run.device_sort_threads,
                    run.t0,
                ))
            })
            .collect(),
        state: Mutex::new(Sched {
            ready,
            inflight: 0,
            dead: (0..n_streams).map(|_| None).collect(),
            abort: None,
        }),
        wake: Condvar::new(),
    };
    let merge_spans = if p.workers == 1 {
        p.work(0)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p.workers)
                .map(|w| {
                    let p = &p;
                    scope.spawn(move || p.work(w))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join())
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|_| HetSortError::Plan {
            reason: "dag engine worker died outside the node sandbox".to_string(),
        })?
        .concat()
    };
    let mut end = PassEnd::default();
    for sx in p.streams {
        let sx = sx
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tally.recovery.retries += sx.stats.retries;
        tally.recovery.degraded_batches += sx.stats.degraded_batches;
        tally.recovery.oom_replans += sx.stats.oom_replans;
        tally.pool.absorb(sx.pool.stats);
        tally.metrics.record_all(sx.span_log);
        end.logs.push(sx.access_log);
    }
    tally.metrics.record_all(merge_spans);
    let state = p
        .state
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match state.abort {
        Some(e) => Err(e),
        None => {
            end.dead = state.dead;
            Ok(end)
        }
    }
}

/// Host-sort every batch no device delivered, straight from `A`;
/// returns how many.
fn host_sort_missing<T>(run: &Run<'_, T>, slots: &mut Slots<T>) -> usize
where
    T: RadixKey + SortOrd + Default,
{
    let mut sorted = 0;
    for (b, slot) in slots.batches.iter_mut().enumerate() {
        if slot.sorted.get().is_none() {
            let bi = &run.plan.batches[b];
            let mut buf = run.data[bi.start..bi.start + bi.len].to_vec();
            par_radix_sort_cfg(&run.sched, run.host_threads, &mut buf);
            let _ = slot.sorted.set(buf);
            sorted += 1;
        }
    }
    sorted
}

/// Execute the dag with default options: one worker on the calling
/// thread, the pinned [`TieBreak::MinId`] determinism contract.
///
/// # Errors
///
/// As [`execute_dag_opts`].
pub fn execute_dag<T>(dag: &PlanDag, data: &[T]) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    execute_dag_opts(dag, data, DagExecOptions::default())
}

/// Execute the dag with explicit [`DagExecOptions`]. Output bits do not
/// depend on the options; at `workers ≤ 1` everything else (spans,
/// recovery statistics, fault alignment, executed trace) is
/// deterministic too. With several workers and a fault injector armed,
/// occurrence counters stay exact but *which* stream observes an
/// occurrence depends on interleaving.
///
/// # Errors
///
/// [`HetSortError::Data`] on plan/data mismatches,
/// [`HetSortError::Plan`] when the dag fails [`PlanDag::validate`],
/// typed fault errors when the recovery policy does not absorb an
/// injected fault, [`HetSortError::DeviceLost`] when no device survives
/// and CPU fallback is off, and [`HetSortError::WorkerPanic`] when a
/// node panics and no fallback covers it.
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
    let nb = plan.nb();
    let input_fp = fingerprint(data);
    let injected_before = cfg.faults.as_ref().map_or(0, |i| i.injected());
    // Cap the functional thread counts at this machine's parallelism
    // ×4: simulated platforms may have more cores than the host.
    let cap = 4 * hetsort_algos::par::default_threads();
    let run = Run {
        plan,
        data,
        opts,
        t0: Instant::now(),
        sched: cfg.sched_cfg(),
        host_threads: usize::try_from(cfg.merge_threads_eff())
            .unwrap_or(usize::MAX)
            .min(cap),
        device_sort_threads: hetsort_algos::par::default_threads(),
        memcpy_threads: usize::try_from(cfg.memcpy_threads_eff())
            .unwrap_or(usize::MAX)
            .min(cap),
    };
    let t0 = run.t0;
    let mut slots = Slots::new(plan);
    let mut tally = Tally::default();
    let mut replans: Vec<Plan> = Vec::new();
    let mut lost_gpus: BTreeSet<usize> = BTreeSet::new();

    // Every node of the caller's dag; its access logs are the executed
    // trace.
    let first = pass(&run, dag, |_| true, &slots, &mut tally)?;
    let logs = first.logs;
    let mut dead = first.dead;
    loop {
        let mut newly_lost: Vec<usize> = Vec::new();
        for (s, fail) in dead.into_iter().enumerate() {
            match fail {
                Some(StreamFail::Lost(gpu)) if !newly_lost.contains(&gpu) => newly_lost.push(gpu),
                Some(StreamFail::Panicked(message)) if !cfg.recovery.cpu_fallback => {
                    return Err(HetSortError::WorkerPanic { worker: s, message });
                }
                _ => {}
            }
        }
        if newly_lost.is_empty() {
            break;
        }

        // Device fault domain: frozen batches are the checkpoint; the
        // rest is re-planned over the survivors.
        let cur = replans.last().unwrap_or(plan);
        let tr = &mut tally.recovery;
        tr.device_lost += newly_lost.len();
        for &g in &newly_lost {
            tr.record_lost_gpu(g);
        }
        if opts.skip_checkpoint {
            for b in &mut slots.batches {
                b.sorted.take();
            }
        }
        tr.batches_recomputed += (0..nb)
            .filter(|&b| {
                slots.missing(b) && newly_lost.contains(&cur.physical_gpu(cur.batches[b].gpu))
            })
            .count();
        lost_gpus.extend(newly_lost);
        // Partially staged-out batches are recomputed whole.
        for b in &mut slots.batches {
            lock_any(&b.filling).1 = 0;
        }
        let missing = (0..nb).filter(|&b| slots.missing(b)).count();
        let t_fail = t0.elapsed().as_secs_f64();
        let Some(rp) = crate::recover::survivor_plan(plan, &lost_gpus)? else {
            if !cfg.recovery.cpu_fallback {
                // One representative id (the smallest casualty); the
                // span and the RecoveryStats mask name the full set.
                let gpu = lost_gpus.iter().next().copied().unwrap_or(0);
                return Err(HetSortError::DeviceLost { gpu });
            }
            tally.recovery.degraded_batches += host_sort_missing(&run, &mut slots);
            tally.metrics.record(ObsSpan::new(
                OpClass::Other,
                format!(
                    "failover: GPU(s) {} lost, no survivors → host sort of {missing} batch(es)",
                    gpu_list(&lost_gpus)
                ),
                t_fail,
                t0.elapsed().as_secs_f64(),
            ));
            break;
        };
        tally.recovery.replans += 1;
        tally.metrics.record(ObsSpan::new(
            OpClass::Other,
            format!(
                "failover: GPU(s) {} lost → re-plan {missing} batch(es) on {} device(s)",
                gpu_list(&lost_gpus),
                rp.device_ids.len()
            ),
            t_fail,
            t0.elapsed().as_secs_f64(),
        ));
        let rp_dag = PlanDag::from_plan(rp);
        let in_scope = |i: usize| {
            let node = &rp_dag.nodes[i];
            node.stream.is_some() && node.op.batch().is_none_or(|b| slots.missing(b))
        };
        dead = pass(&run, &rp_dag, in_scope, &slots, &mut tally)?.dead;
        replans.push(rp_dag.plan);
    }
    // Dead streams under CPU fallback: host-sort what they never
    // delivered, then run the merges their batches held up.
    tally.recovery.degraded_batches += host_sort_missing(&run, &mut slots);
    pass(
        &run,
        dag,
        |i| slots.merge_pending(&dag.nodes[i].op),
        &slots,
        &mut tally,
    )?;

    let pending = slots.pairs.iter().filter(|p| p.get().is_none()).count();
    if pending > 0 {
        return Err(HetSortError::MergeStall { pending });
    }
    let sorted = if nb > 1 {
        slots.out.take()
    } else {
        slots.batches.first_mut().and_then(|b| b.sorted.take())
    }
    .ok_or_else(|| HetSortError::Plan {
        reason: "the sorted output was never produced".to_string(),
    })?;

    let Tally {
        mut recovery,
        pool,
        mut metrics,
    } = tally;
    recovery.faults_injected = cfg.faults.as_ref().map_or(0, |i| i.injected()) - injected_before;
    let trace = cfg.record_trace.then(|| assemble_trace(dag, &logs));
    recovery.fold_into(&mut metrics);
    pool.fold_into(&mut metrics);

    let wall_s = t0.elapsed().as_secs_f64();
    let verified = is_sorted(&sorted) && fingerprint(&sorted) == input_fp;
    Ok(RealOutcome {
        sorted,
        wall_s,
        verified,
        nb,
        pair_merges: slots.pairs.len(),
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

    fn with_workers(workers: usize) -> DagExecOptions {
        DagExecOptions {
            workers,
            ..Default::default()
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
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
        assert_eq!(bits(&min.sorted), bits(&max.sorted));
    }

    #[test]
    fn worker_counts_agree() {
        let n = 30_000;
        let d = data(n, 3);
        let mut expect = d.clone();
        introsort(&mut expect);
        let g = dag(Approach::PipeMerge, 4_000, 800, n);
        for workers in [1usize, 2, 3, 8] {
            let out = execute_dag_opts(&g, &d, with_workers(workers)).unwrap();
            assert!(out.verified, "workers={workers}");
            assert_eq!(bits(&out.sorted), bits(&expect), "workers={workers}");
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
        assert_eq!(bits(&out.sorted), bits(&expect));
    }

    #[test]
    fn worker_count_is_observationally_invisible() {
        use crate::config::HybridMode;
        use std::collections::BTreeMap;
        let n = 30_000;
        let d = data(n, 21);
        // Span multisets (class × label), CpuPart excluded: the
        // per-worker breakdown of a parallel merge is structure, not
        // schedule.
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
        for hybrid in [HybridMode::Off, HybridMode::Fraction(0.5), HybridMode::Auto] {
            let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
                .with_batch_elems(4_000)
                .with_pinned_elems(800)
                .with_hybrid(hybrid);
            let g = PlanDag::from_plan(Plan::build(cfg, n).unwrap());
            let inline = execute_dag(&g, &d).unwrap();
            assert!(inline.verified, "{hybrid:?}");
            for workers in [2, 3, g.plan.total_streams + 1] {
                let out = execute_dag_opts(&g, &d, with_workers(workers)).unwrap();
                assert!(out.verified, "{hybrid:?} workers={workers}");
                assert_eq!(
                    bits(&inline.sorted),
                    bits(&out.sorted),
                    "{hybrid:?} workers={workers}: output changed"
                );
                assert_eq!(
                    inline.recovery, out.recovery,
                    "{hybrid:?} workers={workers}"
                );
                assert_eq!(
                    multiset(&inline),
                    multiset(&out),
                    "{hybrid:?} workers={workers}: span multiset changed"
                );
            }
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
        for workers in [1, 2] {
            let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
                .with_batch_elems(3_000)
                .with_pinned_elems(600)
                .with_faults(Arc::new(
                    FaultInjector::new().lose_device(0, 2).lose_device(1, 3),
                ));
            let g = PlanDag::from_plan(Plan::build(cfg, n).unwrap());
            let out = execute_dag_opts(&g, &d, with_workers(workers)).unwrap();
            assert!(out.verified, "host fallback still sorts");
            assert_eq!(out.recovery.device_lost, 2, "{}", out.recovery.summary());
            assert_eq!(
                out.recovery.lost_gpus(),
                vec![0, 1],
                "workers={workers}: both casualties must be in the mask: {}",
                out.recovery.summary()
            );
            // The no-survivor failover span names every lost device.
            assert!(
                out.metrics
                    .spans()
                    .iter()
                    .any(|s| s.label.contains("GPU(s) 0, 1 lost")),
                "workers={workers}: failover span must list both GPUs: {:?}",
                out.metrics
                    .spans()
                    .iter()
                    .filter(|s| s.label.contains("failover"))
                    .map(|s| &s.label)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn misbound_streams_are_rejected_at_every_worker_count() {
        // A binding past the plan's streams would index past the
        // per-stream state; a missing one has no stream state to run
        // on. Validation must reject both before any node runs.
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
            for workers in [1, 2] {
                match execute_dag_opts(&g, &d, with_workers(workers)) {
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
