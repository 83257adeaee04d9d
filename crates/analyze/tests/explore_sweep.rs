//! Exhaustive schedule-space sweep: every shipped approach, on both
//! paper platforms, with an uneven final batch, must explore **every**
//! reachable interleaving of its lowered trace with zero findings and
//! no budget truncation. The recovery coordinator gets the same
//! treatment over single- and double-loss fault schedules.
//!
//! Also pinned here: the DPOR-reduction guarantee (persistent sets +
//! sleep sets must explore strictly fewer traces than naive
//! enumeration on a real plan) and bound-truncation reporting.

use hetsort_analyze::explore::{explore, ExploreConfig};
use hetsort_analyze::{explore_plan, explore_plan_trace, Mutant, ReplanModel, TraceModel};
use hetsort_core::optrace::lower_dag;
use hetsort_core::plan::Plan;
use hetsort_core::{Approach, HetSortConfig, PlanDag};
use hetsort_vgpu::{platform1, platform2};

/// The five shipped schedule shapes (PIPEMERGE ships with and without
/// parallel-memcpy splitting).
fn shipped_configs(platform: hetsort_vgpu::PlatformSpec) -> Vec<(String, HetSortConfig)> {
    let base = |a: Approach| {
        HetSortConfig::paper_defaults(platform.clone(), a)
            .with_batch_elems(1000)
            .with_pinned_elems(500)
    };
    vec![
        ("bline".into(), base(Approach::BLine)),
        ("bline-multi".into(), base(Approach::BLineMulti)),
        ("pipedata".into(), base(Approach::PipeData)),
        ("pipemerge".into(), base(Approach::PipeMerge)),
        (
            "pipemerge+parmemcpy".into(),
            base(Approach::PipeMerge).with_par_memcpy(),
        ),
    ]
}

#[test]
fn every_approach_explores_clean_on_both_platforms() {
    // n is deliberately NOT a multiple of batch_elems: the last batch
    // is a 500-element runt, exercising the uneven tail the paper's
    // batch math must handle.
    for platform in [platform1(), platform2()] {
        for (name, cfg) in shipped_configs(platform) {
            // BLINE is defined on a single batch; everyone else gets a
            // 3-batch split with a runt tail.
            let n = if cfg.approach == Approach::BLine {
                700
            } else {
                2500
            };
            let dag = PlanDag::from_plan(Plan::build(cfg, n).unwrap());
            let report = explore_plan(&dag, &ExploreConfig::default());
            assert!(
                report.is_clean(),
                "{name}: schedule-space findings on a shipped plan:\n{}",
                report.summary()
            );
            assert!(!report.truncated, "{name}: {}", report.summary());
            assert!(report.traces >= 1, "{name}");
        }
    }
}

#[test]
fn recovery_coordinator_explores_clean_under_loss_schedules() {
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(1000)
        .with_pinned_elems(500);
    let plan = Plan::build(cfg, 4500).unwrap();
    // Single loss of either GPU, and the lose-everything schedule
    // (ends in the CPU std-sort fallback).
    for faults in [vec![0], vec![1], vec![1, 0]] {
        let mut model = ReplanModel::new(plan.clone(), faults.clone(), None);
        let report = explore(&mut model, &ExploreConfig::default());
        assert!(report.is_clean(), "faults {faults:?}: {}", report.summary());
        assert!(!report.truncated, "faults {faults:?}");
        assert!(
            report.traces > 1,
            "faults {faults:?} must race the workers: {}",
            report.summary()
        );
    }
}

#[test]
fn dpor_explores_fewer_traces_than_naive_enumeration() {
    // Pinned config: PIPEMERGE on PLATFORM2 losing GPU 1 mid-run —
    // small enough that naive enumeration terminates, so both counts
    // are exact and exhaustive. DPOR's persistent sets must prune the
    // commuting worker interleavings naive visits one by one.
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(1000)
        .with_pinned_elems(500);
    let plan = Plan::build(cfg, 2500).unwrap();

    let mut m = ReplanModel::new(plan.clone(), vec![1], None);
    let dpor = explore(&mut m, &ExploreConfig::default());
    let mut m = ReplanModel::new(plan, vec![1], None);
    let naive = explore(&mut m, &ExploreConfig::default().naive());
    assert!(dpor.is_clean(), "{}", dpor.summary());
    assert!(naive.is_clean(), "{}", naive.summary());
    assert!(!dpor.truncated && !naive.truncated);
    assert!(
        dpor.traces < naive.traces,
        "DPOR must prune: {} DPOR traces vs {} naive",
        dpor.traces,
        naive.traces
    );
}

#[test]
fn dpor_finishes_trace_spaces_naive_cannot() {
    // On a real lowered trace the gap is qualitative, not just a
    // ratio: DPOR completes the whole schedule space of the smallest
    // multi-stream plan while naive enumeration cannot finish within
    // a 200k-op budget — and has already visited more traces than
    // DPOR needed in total.
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::BLineMulti)
        .with_batch_elems(1000)
        .with_pinned_elems(500);
    let dag = PlanDag::from_plan(Plan::build(cfg, 2000).unwrap());

    let dpor = explore_plan(&dag, &ExploreConfig::default());
    assert!(dpor.is_clean() && !dpor.truncated, "{}", dpor.summary());

    let naive = explore_plan(&dag, &ExploreConfig::with_max_ops(200_000).naive());
    assert!(
        naive.truncated,
        "naive should not finish: {}",
        naive.summary()
    );
    assert!(
        naive.traces > dpor.traces,
        "naive visited {} traces before truncation, DPOR needed {} total",
        naive.traces,
        dpor.traces
    );
}

#[test]
fn op_budget_truncation_is_reported_not_silent() {
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeData)
        .with_batch_elems(1000)
        .with_pinned_elems(500);
    let dag = PlanDag::from_plan(Plan::build(cfg, 2500).unwrap());
    let report = explore_plan(&dag, &ExploreConfig::with_max_ops(10));
    assert!(report.truncated);
    assert!(
        report.summary().contains("TRUNCATED"),
        "{}",
        report.summary()
    );
}

#[test]
fn seeded_wait_cycle_is_a_reachable_deadlock_in_every_interleaving_engine() {
    // The HB checker flags the cycle on the static linearization; the
    // explorer must *also* find it as an empty-enabled-set state —
    // the two detectors agree on this defect class.
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(1000)
        .with_pinned_elems(500);
    let mut dag = PlanDag::from_plan(Plan::build(cfg, 2500).unwrap());
    let mut trace = lower_dag(&dag);
    assert!(Mutant::WaitCycle.apply(&mut dag, &mut trace));
    let report = explore_plan_trace(&dag.plan, trace, &ExploreConfig::default());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.class == hetsort_analyze::FindingClass::Deadlock),
        "{}",
        report.summary()
    );
}

#[test]
fn explored_interleavings_rerun_the_hb_checker_per_trace() {
    // Drop the last wait: the race is order-dependent, so only some
    // linearizations exhibit the unordered conflicting pair. The
    // explorer must rerun HB on every trace and still catch it.
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeData)
        .with_batch_elems(1000)
        .with_pinned_elems(500);
    let mut dag = PlanDag::from_plan(Plan::build(cfg, 2500).unwrap());
    let mut trace = lower_dag(&dag);
    assert!(Mutant::DropWait.apply(&mut dag, &mut trace));
    let report = explore_plan_trace(&dag.plan, trace, &ExploreConfig::default());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.class == hetsort_analyze::FindingClass::MissingSync),
        "{}",
        report.summary()
    );
}

#[test]
fn trace_model_thread_count_matches_plan_streams() {
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(1000)
        .with_pinned_elems(500);
    let plan = Plan::build(cfg, 2500).unwrap();
    let trace = lower_dag(&PlanDag::from_plan(plan.clone()));
    let model = TraceModel::new(trace, None, "pinned");
    use hetsort_analyze::SchedModel;
    // Streams plus the host thread.
    assert_eq!(model.n_threads(), plan.total_streams + 1);
}
