//! Plan builders: each paper approach as geometry plus one lowering.
//!
//! The four approaches (§III-D) share one pipeline — batch geometry,
//! the pipelined pair-merge schedule, and FIFO op emission — and differ
//! only in what they ask of it: blocking approaches stage through one
//! pinned buffer per host thread with synchronous transfers, piped
//! approaches run `n_s` streams per GPU with separate in/out pinned
//! buffers and asynchronous chunked transfers, and PIPEMERGE
//! additionally schedules pair merges. [`build`] computes the geometry
//! ([`Plan`]); `lower` — reached through
//! [`PlanDag::from_plan`](crate::dag::PlanDag::from_plan), the only
//! lowering — emits the op dag the engines execute; [`build_dag`] does
//! both.
//!
//! Node ids are emission order. Fault-injection occurrence counters,
//! `(step i)` trace labels and span labels are keyed by it, so the
//! emission order is part of the contract.

use hetsort_vgpu::calib::amdahl_speedup;

use crate::config::{HetSortConfig, HybridMode, PairStrategy};
use crate::dag::{DagNode, DagOp, PlanDag};
use crate::error::HetSortError;
use crate::plan::{BatchInfo, MergeSrc, PairSpec, Plan};

/// Build the plan geometry for sorting `n` elements under `config`.
/// Blocking approaches (BLINE §III-D1, BLINEMULTI §III-D2) and piped
/// ones (PIPEDATA/PIPEMERGE §III-D3) differ only in the staging
/// discipline [`Plan::asynchronous`] records; the merge schedule comes
/// from `pair_schedule`, shared because the rejected Online/MergeTree
/// strategies apply to any multi-batch approach.
///
/// # Errors
///
/// Propagates [`HetSortConfig::validate`] failures
/// ([`HetSortError::Config`]).
pub fn build(config: HetSortConfig, n: usize) -> Result<Plan, HetSortError> {
    config.validate(n)?;
    let (nb, ngpu, total_streams, batches) = geometry(&config, n);
    let (pairs, final_inputs) = pair_schedule(&config, n, nb);
    let asynchronous = config.approach.is_piped();
    Ok(Plan {
        config,
        n,
        batches,
        pairs,
        final_inputs,
        total_streams,
        asynchronous,
        device_ids: (0..ngpu).collect(),
    })
}

/// Build and lower in one step: the [`PlanDag`] the engines execute.
///
/// # Errors
///
/// As [`build`].
pub fn build_dag(config: HetSortConfig, n: usize) -> Result<PlanDag, HetSortError> {
    Ok(PlanDag::from_plan(build(config, n)?))
}

/// Batch geometry: round-robin stream and GPU assignment.
fn geometry(config: &HetSortConfig, n: usize) -> (usize, usize, usize, Vec<BatchInfo>) {
    let nb = config.n_batches(n);
    let ngpu = config.platform.n_gpus().max(1);
    let piped = config.approach.is_piped();
    // Piped: n_s streams per GPU. Blocking: one host thread per GPU
    // (the paper's 2-GPU lower-bound run drives both K40m's with
    // blocking calls concurrently, §IV-G), never more than n_b.
    let total_streams = if piped {
        (config.streams_per_gpu * ngpu).min(nb.max(1))
    } else {
        ngpu.min(nb.max(1))
    };
    // Batch geometry and stream/GPU assignment (round-robin; each GPU
    // owns n_s stream slots → batches alternate across GPUs).
    let bs = config.batch_elems;
    let mut batches = Vec::with_capacity(nb);
    for b in 0..nb {
        let start = b * bs;
        let len = bs.min(n - start);
        let stream = b % total_streams;
        let gpu = stream % ngpu;
        batches.push(BatchInfo {
            index: b,
            start,
            len,
            stream,
            gpu,
        });
    }
    (nb, ngpu, total_streams, batches)
}

/// The pipelined merge schedule under the configured strategy: pair
/// specs plus the final multiway merge's inputs.
fn pair_schedule(config: &HetSortConfig, n: usize, nb: usize) -> (Vec<PairSpec>, Vec<MergeSrc>) {
    let bs = config.batch_elems;
    let batch_len = |b: usize| bs.min(n - b * bs);
    match (nb > 1, config.pair_strategy) {
        (false, _) => (Vec::new(), Vec::new()),
        (true, PairStrategy::PaperHeuristic) => {
            let npairs = config.pipelined_pair_merges(nb);
            let pairs: Vec<PairSpec> = (0..npairs)
                .map(|p| PairSpec {
                    left: MergeSrc::Batch(2 * p),
                    right: MergeSrc::Batch(2 * p + 1),
                    out_elems: batch_len(2 * p) + batch_len(2 * p + 1),
                })
                .collect();
            let mut inputs: Vec<MergeSrc> = (0..npairs).map(MergeSrc::Merged).collect();
            inputs.extend((2 * npairs..nb).map(MergeSrc::Batch));
            (pairs, inputs)
        }
        (true, PairStrategy::Online) => {
            // Rejected strategy (§III-D3): fold each arriving batch into
            // one growing run. Re-merges the accumulated prefix every
            // time.
            let mut pairs = Vec::new();
            let mut acc = MergeSrc::Batch(0);
            let mut acc_len = batch_len(0);
            for b in 1..nb {
                acc_len += batch_len(b);
                pairs.push(PairSpec {
                    left: acc,
                    right: MergeSrc::Batch(b),
                    out_elems: acc_len,
                });
                acc = MergeSrc::Merged(pairs.len() - 1);
            }
            (pairs, vec![MergeSrc::Merged(nb - 2)])
        }
        (true, PairStrategy::MergeTree) => {
            // Rejected strategy (§III-D3): a full binary merge tree;
            // upper levels are giant pairwise merges that replace the
            // cache-efficient multiway merge.
            let mut pairs: Vec<PairSpec> = Vec::new();
            let mut level: Vec<(MergeSrc, usize)> = (0..nb)
                .map(|b| (MergeSrc::Batch(b), batch_len(b)))
                .collect();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                let mut it = level.into_iter();
                while let Some((l, ll)) = it.next() {
                    match it.next() {
                        Some((r, rl)) => {
                            pairs.push(PairSpec {
                                left: l,
                                right: r,
                                out_elems: ll + rl,
                            });
                            next.push((MergeSrc::Merged(pairs.len() - 1), ll + rl));
                        }
                        None => next.push((l, ll)),
                    }
                }
                level = next;
            }
            (pairs, vec![level[0].0])
        }
    }
}

/// Which pair-merge slots hybrid lowering routes to the CPU merge
/// resource, per [`HybridMode`].
///
/// * [`HybridMode::Fraction`] routes the *last* `round(frac · slots)`
///   slots: later slots consume later batches and therefore contend
///   with the multiway-merge warm-up, where the spare full merge pool
///   helps most.
/// * [`HybridMode::Auto`] is deterministic greedy earliest-finish
///   scheduling between the pair-merge pool and the full CPU merge
///   pool, using the platform's calibrated merge throughput under
///   Amdahl scaling; each pool's accumulated predicted busy time is
///   the queue-depth proxy.
fn hybrid_cpu_slots(plan: &Plan) -> Vec<bool> {
    let n_slots = plan.pairs.len();
    let mut cpu = vec![false; n_slots];
    match plan.config.hybrid {
        HybridMode::Off => {}
        HybridMode::Fraction(f) => {
            let f = f.clamp(0.0, 1.0);
            let k = ((f * n_slots as f64).round() as usize).min(n_slots);
            for flag in cpu.iter_mut().skip(n_slots - k) {
                *flag = true;
            }
        }
        HybridMode::Auto => {
            let cfg = &plan.config;
            let cpu_model = &cfg.platform.cpu;
            let per_core = 1e9 / cpu_model.merge_ns_per_elem_core;
            // The pair lane runs at the thread count the executors and
            // simulator actually grant pipelined merges; the CPU lane
            // gets the full multiway pool.
            let pair_threads = if cfg.pair_strategy == PairStrategy::PaperHeuristic {
                cfg.pair_merge_threads_eff()
            } else {
                cfg.merge_threads_eff()
            };
            let cap_pair = amdahl_speedup(
                cpu_model.merge_parallel_fraction,
                pair_threads.max(1) as usize,
            ) * per_core;
            let cap_cpu = amdahl_speedup(
                cpu_model.merge_parallel_fraction,
                cfg.merge_threads_eff().max(1) as usize,
            ) * per_core;
            let (mut busy_pair, mut busy_cpu) = (0.0f64, 0.0f64);
            for (slot, spec) in plan.pairs.iter().enumerate() {
                let t_pair = busy_pair + spec.out_elems as f64 / cap_pair;
                let t_cpu = busy_cpu + spec.out_elems as f64 / cap_cpu;
                // Ties keep the default lane, so Auto degrades to Off
                // when the pools are indistinguishable.
                if t_cpu < t_pair {
                    cpu[slot] = true;
                    busy_cpu = t_cpu;
                } else {
                    busy_pair = t_pair;
                }
            }
        }
    }
    cpu
}

/// Node emission with per-stream FIFO tails.
///
/// The paper shape serializes every op of a stream on one tail;
/// double-buffered staging splits each stream into a host lane (pinned
/// allocs + staging copies) and a device lane (HtoD, sort, DtoH) so the
/// host→pinned bounce of chunk c overlaps the DMA of chunk c−1.
/// Buffer-reuse hazards that the single tail made implicit become
/// explicit edges in [`lower`] (and the validator's `fifo` rule demands
/// exactly this discipline).
struct Emitter {
    nodes: Vec<DagNode>,
    host_tail: Vec<Option<usize>>,
    dev_tail: Vec<Option<usize>>,
    double_buffered: bool,
}

impl Emitter {
    /// Append `op` with its explicit deps plus the FIFO dep on its
    /// lane's tail, deduplicated (an explicit dep may coincide with the
    /// FIFO dep), so every edge is load-bearing — which is what makes
    /// "any single edge deletion is rejected" a theorem the property
    /// suite can test.
    fn push(&mut self, op: DagOp, explicit: &[usize], stream: Option<usize>) -> usize {
        let id = self.nodes.len();
        let mut deps: Vec<usize> = Vec::with_capacity(explicit.len() + 1);
        let mut add = |d: usize| {
            if !deps.contains(&d) {
                deps.push(d);
            }
        };
        explicit.iter().for_each(|&d| add(d));
        if let Some(s) = stream {
            let dev_lane = matches!(
                op,
                DagOp::HtoD { .. } | DagOp::Sort { .. } | DagOp::DtoH { .. }
            );
            let tail = if self.double_buffered && dev_lane {
                &mut self.dev_tail[s]
            } else {
                &mut self.host_tail[s]
            };
            if let Some(prev) = tail.replace(id) {
                add(prev);
            }
        }
        self.nodes.push(DagNode { op, deps, stream });
        id
    }
}

/// The one lowering: the plan's ops in FIFO emission order with their
/// dependency edges — pinned allocations, then per batch the chunked
/// stage-in/HtoD, the sort and the chunked DtoH/stage-out, then the
/// pipelined pair merges and the final multiway merge. Pair slots the
/// configured [`HybridMode`] routes to the host are emitted as
/// [`DagOp::CpuMerge`]; the routing depends only on the plan, so every
/// consumer (both functional engines, the simulator, the bench gate,
/// the service) interprets the identical hybrid dag.
pub(crate) fn lower(plan: &Plan) -> Vec<DagNode> {
    let total_streams = plan.total_streams;
    let db = plan.config.double_buffered();
    // Blocking + double-buffered: the sorted batch is still
    // device-resident when it is written out, so the outbound pinned
    // bounce is elided — `DtoH` carries the (pageable) device→host cost
    // and `StageOut` becomes the zero-byte marker where the chunk is
    // emitted straight from device memory.
    let elided = plan.stage_out_elided();
    let mut e = Emitter {
        nodes: Vec::new(),
        host_tail: vec![None; total_streams],
        dev_tail: vec![None; total_streams],
        double_buffered: db,
    };

    // 1. Pinned allocations.
    for (stream, bytes, dir_in) in plan.pinned_allocs() {
        e.push(
            DagOp::PinnedAlloc {
                stream,
                bytes,
                dir_in,
            },
            &[],
            Some(stream),
        );
    }

    // 2. Per batch: chunked stage-in/HtoD, sort, chunked DtoH/
    //    stage-out, all FIFO within the batch's stream.
    let ps = plan.config.pinned_elems;
    let mut last_stage_out: Vec<usize> = vec![0; plan.nb()];
    // Per stream: the previous batch's last HtoD and StageOut, for the
    // explicit buffer-reuse edges of the double-buffered discipline.
    let mut prev_htod: Vec<Option<usize>> = vec![None; total_streams];
    let mut prev_sout: Vec<Option<usize>> = vec![None; total_streams];
    for b in &plan.batches {
        let s = b.stream;
        let stream = Some(s);
        let nchunks = b.len.div_ceil(ps);
        let mut htods: Vec<usize> = Vec::with_capacity(nchunks);
        let mut souts: Vec<usize> = Vec::with_capacity(nchunks);
        for c in 0..nchunks {
            let start = b.start + c * ps;
            let len = ps.min(b.start + b.len - start);
            // Double-buffered: the half chunk c overwrites (parity
            // c % 2) was last read by HtoD(c−2); the first chunk of a
            // later batch waits for the previous batch's last HtoD.
            let si_deps: Option<usize> = match c {
                _ if !db => None,
                0 => prev_htod[s],
                1 => None,
                _ => Some(htods[c - 2]),
            };
            let si = e.push(
                DagOp::StagingCopy {
                    batch: b.index,
                    chunk: c,
                    start,
                    len,
                    dir_in: true,
                },
                si_deps.as_slice(),
                stream,
            );
            // The DMA waits for its staging copy (explicit under the
            // two-lane discipline; the single tail implies it in the
            // paper shape). When stage-out is elided, the first HtoD of
            // a batch also waits for the previous batch's last emission
            // marker — the device buffer it overwrites was read there.
            let mut h_deps = Vec::new();
            if db {
                h_deps.push(si);
                if elided && c == 0 {
                    h_deps.extend(prev_sout[s]);
                }
            }
            htods.push(e.push(
                DagOp::HtoD {
                    batch: b.index,
                    chunk: c,
                    start,
                    len,
                },
                &h_deps,
                stream,
            ));
        }
        // A batch always has ≥ 1 chunk.
        let last_htod = htods[nchunks - 1];
        let mut prev = e.push(DagOp::Sort { batch: b.index }, &[last_htod], stream);
        for c in 0..nchunks {
            let start = b.start + c * ps;
            let len = ps.min(b.start + b.len - start);
            // Bounced stage-out reuses one outbound pinned buffer: the
            // DMA of chunk c overwrites what StageOut(c−1) read (or, at
            // a batch boundary, what the previous batch's last StageOut
            // read). Elided mode has no outbound buffer to protect.
            let d_deps: Option<usize> = match c {
                _ if !db || elided => None,
                0 => prev_sout[s],
                _ => Some(souts[c - 1]),
            };
            let d = e.push(
                DagOp::DtoH {
                    batch: b.index,
                    chunk: c,
                    start,
                    len,
                },
                d_deps.as_slice(),
                stream,
            );
            let so_deps: &[usize] = if db { &[d] } else { &[] };
            prev = e.push(
                DagOp::StagingCopy {
                    batch: b.index,
                    chunk: c,
                    start,
                    len,
                    dir_in: false,
                },
                so_deps,
                stream,
            );
            souts.push(prev);
        }
        prev_htod[s] = Some(last_htod);
        prev_sout[s] = Some(prev);
        last_stage_out[b.index] = prev;
    }

    // 3. Pipelined two-way merges: ready when both inputs exist.
    let cpu = hybrid_cpu_slots(plan);
    let mut pair_nodes: Vec<usize> = Vec::with_capacity(plan.pairs.len());
    let producer = |src: MergeSrc, pair_nodes: &[usize]| match src {
        MergeSrc::Batch(b) => last_stage_out[b],
        MergeSrc::Merged(slot) => pair_nodes[slot],
    };
    for (slot, spec) in plan.pairs.iter().enumerate() {
        let deps = [
            producer(spec.left, &pair_nodes),
            producer(spec.right, &pair_nodes),
        ];
        let op = if cpu[slot] {
            DagOp::CpuMerge { slot }
        } else {
            DagOp::PairMerge { slot }
        };
        pair_nodes.push(e.push(op, &deps, None));
    }

    // 4. Final multiway merge (absent when n_b = 1: StageOut wrote B).
    if plan.nb() > 1 {
        let deps: Vec<usize> = plan
            .final_inputs
            .iter()
            .map(|&src| producer(src, &pair_nodes))
            .collect();
        e.push(DagOp::MultiwayMerge, &deps, None);
    }
    e.nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Approach;
    use hetsort_vgpu::{platform1, platform2};

    fn cfg(approach: Approach) -> HetSortConfig {
        HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(1000)
            .with_pinned_elems(300)
    }

    #[test]
    fn builders_validate_and_lower() {
        for (approach, n) in [
            (Approach::BLine, 1000),
            (Approach::BLineMulti, 5000),
            (Approach::PipeData, 6000),
            (Approach::PipeMerge, 7000),
        ] {
            let dag = build_dag(cfg(approach), n).unwrap();
            dag.plan.check_invariants().unwrap();
            dag.validate().unwrap();
            assert_eq!(dag.plan.config.approach, approach);
        }
    }

    #[test]
    fn piped_discipline_is_the_only_structural_difference() {
        // Same geometry, different staging: blocking allocs 1 pinned
        // buffer per stream, piped allocs 2 and is asynchronous.
        let blocking = build(cfg(Approach::BLineMulti), 5000).unwrap();
        let piped = build(cfg(Approach::PipeData), 5000).unwrap();
        let allocs = |p: &Plan| {
            lower(p)
                .iter()
                .filter(|n| matches!(n.op, DagOp::PinnedAlloc { .. }))
                .count()
        };
        assert_eq!(allocs(&blocking), blocking.total_streams);
        assert_eq!(allocs(&piped), 2 * piped.total_streams);
        assert!(!blocking.asynchronous);
        assert!(piped.asynchronous);
    }

    #[test]
    fn multi_gpu_pair_schedule_matches_heuristic() {
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(1000)
            .with_pinned_elems(250);
        let plan = build(cfg, 10_000).unwrap();
        assert_eq!(plan.pairs.len(), 2); // ⌊9/2²⌋ on 2 GPUs
    }
}
