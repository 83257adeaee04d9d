//! Property tests: the analyzer has zero false positives on anything
//! `Plan::build` produces, and rejects every applicable mutant of any
//! such plan — not just the hand-picked base in the mutation suite.

use hetsort_analyze::{analyze_dag, analyze_plan_with_trace, Mutant};
use hetsort_core::optrace::lower_dag;
use hetsort_core::plan::Plan;
use hetsort_core::{Approach, HetSortConfig, PairStrategy, PlanDag};
use hetsort_prng::{prop_assert, run_cases, Rng};
use hetsort_vgpu::platform1;
use hetsort_vgpu::platform2;

fn arb_plan(rng: &mut Rng) -> Plan {
    let approach = *rng.pick(&[
        Approach::BLineMulti,
        Approach::PipeData,
        Approach::PipeMerge,
    ]);
    let strategy = *rng.pick(&[
        PairStrategy::PaperHeuristic,
        PairStrategy::Online,
        PairStrategy::MergeTree,
    ]);
    let plat = if rng.bool() { platform2() } else { platform1() };
    let n = rng.usize_in(1, 8_000);
    let bs = ((n as f64 * rng.f64_in(0.05, 1.0)) as usize).max(1);
    let ps = ((bs as f64 * rng.f64_in(0.05, 1.0)) as usize).max(1);
    let cfg = HetSortConfig::paper_defaults(plat, approach)
        .with_batch_elems(bs)
        .with_pinned_elems(ps)
        .with_streams(rng.usize_in(1, 3))
        .with_pair_strategy(strategy);
    Plan::build(cfg, n).expect("valid geometry must plan")
}

#[test]
fn analyzer_accepts_every_built_plan() {
    run_cases("analyzer_accepts_every_built_plan", 60, |rng| {
        let plan = arb_plan(rng);
        let report = analyze_dag(&PlanDag::from_plan(plan.clone()));
        prop_assert!(
            report.is_clean(),
            "false positive on {} {:?} n={} b_s={} p_s={} streams={}:\n{report}",
            plan.config.approach.name(),
            plan.config.pair_strategy,
            plan.n,
            plan.config.batch_elems,
            plan.config.pinned_elems,
            plan.config.streams_per_gpu
        );
        Ok(())
    });
}

#[test]
fn analyzer_rejects_every_applicable_mutant() {
    run_cases("analyzer_rejects_every_applicable_mutant", 30, |rng| {
        let base = PlanDag::from_plan(arb_plan(rng));
        for mutant in Mutant::ALL {
            let mut dag = base.clone();
            let mut trace = lower_dag(&dag);
            if !mutant.apply(&mut dag, &mut trace) {
                continue; // shape doesn't support this defect
            }
            let report = analyze_plan_with_trace(&dag, &trace);
            let plan = &dag.plan;
            prop_assert!(
                report.has_class(mutant.expected_class()),
                "{} survived on {} {:?} n={} b_s={} p_s={} streams={}:\n{report}",
                mutant.name(),
                plan.config.approach.name(),
                plan.config.pair_strategy,
                plan.n,
                plan.config.batch_elems,
                plan.config.pinned_elems,
                plan.config.streams_per_gpu
            );
        }
        Ok(())
    });
}
