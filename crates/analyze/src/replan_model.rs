//! [`SchedModel`] of the DAG engine's device-loss recovery: stream
//! workers sorting their batches, a fault script killing devices
//! (a dead device's streams stop; the survivors run on), and a
//! recovery step that checkpoints completed batches and re-plans the
//! rest on the survivors (CPU fallback when none survive) — the rule
//! `hetsort_core::execute_dag_opts` follows at every worker count.
//!
//! The model abstracts *op timing* away: the fault thread's next loss
//! can land between any two scheduler actions, so exploring the model
//! covers every "the GPU died after batch k, before batch k+1"
//! alignment a `FaultInjector` op-count schedule could produce —
//! plus every worker interleaving around it.
//!
//! The **replan-cover invariant** is checked on every interleaving:
//! each recovery round's batch set must *exactly partition* the
//! unfinished work (no completed batch re-sorted, no unfinished batch
//! dropped), the survivor plan must keep the base plan's batch
//! tiling, and at quiescence every batch is sorted exactly once.
//! Violations surface as [`FindingClass::ReplanCover`] findings;
//! [`ReplanDefect`] seeds the two defect modes the mutation suite
//! uses to prove the explorer actually catches them.

use std::collections::BTreeSet;

use hetsort_core::plan::Plan;
use hetsort_core::recover::survivor_plan;

use crate::explore::{Footprint, Res, SchedModel};
use crate::finding::{Finding, FindingClass};

/// Host-side sorted-runs region (mirrors `optrace::REGION_W`).
const REGION_W: usize = 1;

/// A seeded defect in the recovery coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanDefect {
    /// The checkpoint read is dropped: the coordinator re-plans *all*
    /// batches, re-sorting work that already completed.
    DropCheckpoint,
    /// The first unfinished batch is dropped from the recovery set:
    /// its data is silently never sorted.
    DropRecoveryBatch,
}

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Waiting for workers / ready to re-plan unfinished work.
    Idle,
    /// Executing a recovery plan one batch at a time.
    Recover {
        batches: Vec<usize>,
        gpus: Vec<usize>,
        idx: usize,
    },
    /// A recovery round completed with nothing left.
    Done,
}

/// Exhaustive-interleaving model of checkpoint/re-plan recovery.
///
/// Threads `0..total_streams` are workers (each owns its plan batches
/// in submission order), thread `total_streams` is the fault script,
/// and thread `total_streams + 1` is the coordinator.
pub struct ReplanModel {
    base: Plan,
    /// Physical GPUs the fault script kills, in order.
    faults: Vec<usize>,
    defect: Option<ReplanDefect>,
    worker_batches: Vec<Vec<usize>>,
    // Mutable schedule state:
    sorted_count: Vec<usize>,
    worker_next: Vec<usize>,
    worker_failed: Vec<bool>,
    fault_pc: usize,
    dead: BTreeSet<usize>,
    phase: Phase,
    /// Batches a defective replan dropped — reported when abandoned,
    /// excluded from "unfinished" so the model still terminates.
    abandoned: BTreeSet<usize>,
    findings: Vec<Finding>,
}

impl ReplanModel {
    /// Model `base`'s workers under a script of physical-GPU losses.
    pub fn new(base: Plan, faults: Vec<usize>, defect: Option<ReplanDefect>) -> ReplanModel {
        let mut worker_batches = vec![Vec::new(); base.total_streams];
        for b in &base.batches {
            if b.stream < worker_batches.len() {
                worker_batches[b.stream].push(b.index);
            }
        }
        let nb = base.nb();
        let streams = base.total_streams;
        ReplanModel {
            base,
            faults,
            defect,
            worker_batches,
            sorted_count: vec![0; nb],
            worker_next: vec![0; streams],
            worker_failed: vec![false; streams],
            fault_pc: 0,
            dead: BTreeSet::new(),
            phase: Phase::Idle,
            abandoned: BTreeSet::new(),
            findings: Vec::new(),
        }
    }

    fn workers(&self) -> usize {
        self.worker_batches.len()
    }

    fn fault_thread(&self) -> usize {
        self.workers()
    }

    fn workers_finished(&self) -> bool {
        (0..self.workers())
            .all(|w| self.worker_failed[w] || self.worker_next[w] == self.worker_batches[w].len())
    }

    fn unfinished(&self) -> Vec<usize> {
        (0..self.sorted_count.len())
            .filter(|&b| self.sorted_count[b] == 0 && !self.abandoned.contains(&b))
            .collect()
    }

    fn cover_finding(&mut self, code: &'static str, batch: usize, message: String) {
        self.findings.push(Finding {
            class: FindingClass::ReplanCover,
            code,
            message,
            ops: vec![format!("batch{batch}")],
        });
    }

    fn mark_sorted(&mut self, batch: usize, by: &str) {
        self.sorted_count[batch] += 1;
        if self.sorted_count[batch] > 1 {
            self.cover_finding(
                "double-sorted",
                batch,
                format!(
                    "{}: batch {batch} sorted {} times (re-sorted by {by}) — recovery \
                     does not partition the unfinished work",
                    self.name(),
                    self.sorted_count[batch]
                ),
            );
        }
    }

    /// Batch's host sorted-run range in the base plan.
    fn batch_footprint(&self, batch: usize, gpu: usize) -> Footprint {
        let info = &self.base.batches[batch];
        Footprint::read(Res::Gpu(gpu)).and_write(Res::Buf(hetsort_sim::Buffer::Host {
            region: REGION_W,
            start: info.start,
            len: info.len,
        }))
    }

    /// One coordinator re-plan action: checkpoint, survivor plan (or
    /// CPU fallback), cover check, enter recovery.
    fn replan(&mut self) {
        let true_missing = self.unfinished();
        let observed: Vec<usize> = if self.defect == Some(ReplanDefect::DropCheckpoint) {
            (0..self.sorted_count.len())
                .filter(|b| !self.abandoned.contains(b))
                .collect()
        } else {
            true_missing.clone()
        };
        let mut recovery: Vec<usize> = observed;
        if self.defect == Some(ReplanDefect::DropRecoveryBatch) && !recovery.is_empty() {
            recovery.remove(0);
        }

        // Cover invariant, checked *before* the round runs: the
        // recovery set must equal the unfinished set.
        for &b in &recovery {
            if !true_missing.contains(&b) {
                self.cover_finding(
                    "replan-cover-extra",
                    b,
                    format!(
                        "{}: recovery set re-sorts batch {b} which already completed \
                         (stale checkpoint)",
                        self.name()
                    ),
                );
            }
        }
        for &b in &true_missing {
            if !recovery.contains(&b) {
                self.cover_finding(
                    "replan-cover-missing",
                    b,
                    format!(
                        "{}: unfinished batch {b} is missing from the recovery set — \
                         its data would never be sorted",
                        self.name()
                    ),
                );
                self.abandoned.insert(b);
            }
        }

        // Plan-local GPU indices whose physical device died.
        let lost: BTreeSet<usize> = (0..self.base.config.platform.n_gpus())
            .filter(|&g| self.dead.contains(&self.base.physical_gpu(g)))
            .collect();
        match survivor_plan(&self.base, &lost) {
            Err(e) => {
                self.findings.push(Finding {
                    class: FindingClass::Malformed,
                    code: "replan-build-failed",
                    message: format!("{}: survivor plan failed to build: {e}", self.name()),
                    ops: Vec::new(),
                });
                for b in recovery {
                    self.abandoned.insert(b);
                }
                self.phase = Phase::Done;
            }
            Ok(None) => {
                // CPU fallback: the host sorts the recovery set in one
                // blocking pass.
                for b in recovery {
                    self.mark_sorted(b, "CPU fallback");
                }
                self.phase = if self.unfinished().is_empty() {
                    Phase::Done
                } else {
                    Phase::Idle
                };
            }
            Ok(Some(rp)) => {
                // Tiling invariant: the survivor plan must keep the
                // base plan's batch set verbatim.
                let tiling_ok = rp.nb() == self.base.nb()
                    && rp
                        .batches
                        .iter()
                        .zip(&self.base.batches)
                        .all(|(a, b)| (a.start, a.len) == (b.start, b.len));
                if !tiling_ok {
                    self.findings.push(Finding {
                        class: FindingClass::ReplanCover,
                        code: "replan-tiling",
                        message: format!(
                            "{}: survivor plan re-tiles batches ({} vs {}) — checkpointed \
                             runs no longer align",
                            self.name(),
                            rp.nb(),
                            self.base.nb()
                        ),
                        ops: Vec::new(),
                    });
                }
                let gpus = recovery
                    .iter()
                    .map(|&b| rp.physical_gpu(rp.batches[b].gpu))
                    .collect();
                self.phase = Phase::Recover {
                    batches: recovery,
                    gpus,
                    idx: 0,
                };
            }
        }
    }
}

impl SchedModel for ReplanModel {
    fn name(&self) -> String {
        format!(
            "replan {} n={} faults={:?}",
            self.base.config.approach.name(),
            self.base.n,
            self.faults
        )
    }

    fn n_threads(&self) -> usize {
        self.workers() + 2
    }

    fn reset(&mut self) {
        self.sorted_count = vec![0; self.base.nb()];
        self.worker_next = vec![0; self.workers()];
        self.worker_failed = vec![false; self.workers()];
        self.fault_pc = 0;
        self.dead.clear();
        self.phase = Phase::Idle;
        self.abandoned.clear();
        self.findings.clear();
    }

    fn enabled(&self, thread: usize) -> bool {
        if thread < self.workers() {
            return !self.worker_failed[thread]
                && self.worker_next[thread] < self.worker_batches[thread].len();
        }
        if thread == self.fault_thread() {
            return self.fault_pc < self.faults.len();
        }
        self.workers_finished()
            && match self.phase {
                Phase::Idle => !self.unfinished().is_empty(),
                Phase::Recover { .. } => true,
                Phase::Done => false,
            }
    }

    fn is_done(&self) -> bool {
        self.workers_finished()
            && self.fault_pc == self.faults.len()
            && self.unfinished().is_empty()
            && !matches!(self.phase, Phase::Recover { .. })
    }

    fn next_footprint(&self, thread: usize) -> Footprint {
        if thread < self.workers() {
            let b = self.worker_batches[thread][self.worker_next[thread]];
            let g = self.base.physical_gpu(self.base.batches[b].gpu);
            return self.batch_footprint(b, g);
        }
        if thread == self.fault_thread() {
            return Footprint::write(Res::Gpu(self.faults[self.fault_pc]));
        }
        match &self.phase {
            // Re-planning reads the whole checkpoint and device map.
            Phase::Idle | Phase::Done => Footprint::global(),
            Phase::Recover { batches, gpus, idx } => match batches.get(*idx) {
                Some(&b) => self.batch_footprint(b, gpus[*idx]),
                None => Footprint::global(),
            },
        }
    }

    fn step(&mut self, thread: usize) {
        if thread < self.workers() {
            let b = self.worker_batches[thread][self.worker_next[thread]];
            let g = self.base.physical_gpu(self.base.batches[b].gpu);
            if self.dead.contains(&g) {
                // The device died under this worker: its remaining
                // batches stay unfinished for the coordinator.
                self.worker_failed[thread] = true;
            } else {
                self.mark_sorted(b, &format!("worker {thread}"));
                self.worker_next[thread] += 1;
            }
            return;
        }
        if thread == self.fault_thread() {
            let g = self.faults[self.fault_pc];
            self.fault_pc += 1;
            self.dead.insert(g);
            return;
        }
        match self.phase.clone() {
            Phase::Idle | Phase::Done => self.replan(),
            Phase::Recover { batches, gpus, idx } => {
                if idx >= batches.len() {
                    self.phase = if self.unfinished().is_empty() {
                        Phase::Done
                    } else {
                        Phase::Idle
                    };
                    return;
                }
                let (b, g) = (batches[idx], gpus[idx]);
                if self.dead.contains(&g) {
                    // Recovery device died too: re-plan the rest.
                    self.phase = Phase::Idle;
                    return;
                }
                self.mark_sorted(b, "recovery");
                self.phase = if idx + 1 < batches.len() {
                    Phase::Recover {
                        batches,
                        gpus,
                        idx: idx + 1,
                    }
                } else if self.unfinished().is_empty() {
                    Phase::Done
                } else {
                    Phase::Idle
                };
            }
        }
    }

    fn check_state(&self) -> Vec<Finding> {
        self.findings.clone()
    }

    fn check_final(&self) -> Vec<Finding> {
        let mut out = self.findings.clone();
        for b in 0..self.sorted_count.len() {
            if self.sorted_count[b] == 0 {
                out.push(Finding {
                    class: FindingClass::ReplanCover,
                    code: "batch-dropped",
                    message: format!(
                        "{}: batch {b} was never sorted by any worker or recovery round",
                        self.name()
                    ),
                    ops: vec![format!("batch{b}")],
                });
            }
        }
        out
    }

    fn blocked_describe(&self) -> String {
        format!(
            "workers finished={}, {} unfinished batch(es), phase={:?}, {} fault(s) pending",
            self.workers_finished(),
            self.unfinished().len(),
            self.phase,
            self.faults.len() - self.fault_pc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreConfig};
    use hetsort_core::{Approach, HetSortConfig};
    use hetsort_vgpu::platform2;

    fn base_plan(n: usize) -> Plan {
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(1000)
            .with_pinned_elems(500);
        Plan::build(cfg, n).unwrap()
    }

    #[test]
    fn clean_recovery_covers_every_loss_interleaving() {
        let mut m = ReplanModel::new(base_plan(4500), vec![1], None);
        let rep = explore(&mut m, &ExploreConfig::default());
        assert!(rep.is_clean(), "{:?}", rep.findings);
        assert!(!rep.truncated);
        assert!(rep.traces > 1, "the loss must actually interleave");
    }

    #[test]
    fn losing_every_gpu_falls_back_to_cpu_and_stays_covered() {
        let mut m = ReplanModel::new(base_plan(2500), vec![1, 0], None);
        let rep = explore(&mut m, &ExploreConfig::default());
        assert!(rep.is_clean(), "{:?}", rep.findings);
        assert!(!rep.truncated);
    }

    #[test]
    fn dropped_checkpoint_is_caught_as_double_sort() {
        let mut m = ReplanModel::new(base_plan(4500), vec![1], Some(ReplanDefect::DropCheckpoint));
        let rep = explore(&mut m, &ExploreConfig::default());
        assert!(
            rep.findings
                .iter()
                .any(|f| f.class == FindingClass::ReplanCover
                    && (f.code == "replan-cover-extra" || f.code == "double-sorted")),
            "{:?}",
            rep.findings
        );
    }

    #[test]
    fn dropped_recovery_batch_is_caught_as_uncovered_work() {
        let mut m = ReplanModel::new(
            base_plan(4500),
            vec![1],
            Some(ReplanDefect::DropRecoveryBatch),
        );
        let rep = explore(&mut m, &ExploreConfig::default());
        assert!(
            rep.findings
                .iter()
                .any(|f| f.class == FindingClass::ReplanCover
                    && (f.code == "replan-cover-missing" || f.code == "batch-dropped")),
            "{:?}",
            rep.findings
        );
    }
}
