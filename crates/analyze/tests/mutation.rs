//! The analyzer's acceptance contract, both directions:
//!
//! * **zero findings** on every shipped configuration (all approaches ×
//!   pair strategies × platforms, and the executors' recorded traces);
//! * **100% mutant kill rate**: every seeded defect in [`Mutant::ALL`]
//!   is reported, with the finding class matching the defect class and
//!   the message naming the offending ops.

use hetsort_analyze::{analyze_dag, analyze_plan_with_trace, analyze_trace, Mutant};
use hetsort_core::optrace::lower_dag;
use hetsort_core::plan::Plan;
use hetsort_core::{exec_real, Approach, HetSortConfig, PairStrategy, PlanDag};
use hetsort_vgpu::{platform1, platform2, PlatformSpec, TransferDir, VirtualCuda};

fn scaled(platform: PlatformSpec, approach: Approach) -> HetSortConfig {
    // Laptop-scale sizes with the paper's structure: multiple batches,
    // multiple chunks per batch, two streams per GPU.
    HetSortConfig::paper_defaults(platform, approach)
        .with_batch_elems(1000)
        .with_pinned_elems(250)
}

fn shipped_plans() -> Vec<Plan> {
    let mut plans = Vec::new();
    for platform in [platform1(), platform2()] {
        for n in [1000, 5000, 6000, 9500] {
            for approach in [
                Approach::BLineMulti,
                Approach::PipeData,
                Approach::PipeMerge,
            ] {
                let cfg = scaled(platform.clone(), approach);
                plans.push(Plan::build(cfg, n).expect("shipped config must plan"));
            }
        }
        // BLine is single-batch by definition.
        plans.push(Plan::build(scaled(platform.clone(), Approach::BLine), 1000).expect("bline"));
        // The rejected pair strategies still have to be *correct*.
        for strategy in [PairStrategy::Online, PairStrategy::MergeTree] {
            let cfg = scaled(platform.clone(), Approach::PipeMerge).with_pair_strategy(strategy);
            plans.push(Plan::build(cfg, 6000).expect("strategy must plan"));
        }
    }
    plans
}

#[test]
fn every_shipped_config_is_clean() {
    for plan in shipped_plans() {
        let report = analyze_dag(&PlanDag::from_plan(plan.clone()));
        assert!(
            report.is_clean(),
            "{} {:?} n={} flagged:\n{report}",
            plan.config.approach.name(),
            plan.config.pair_strategy,
            plan.n
        );
    }
}

#[test]
fn every_mutant_is_killed_with_the_right_class() {
    assert!(Mutant::ALL.len() >= 8, "acceptance floor: 8 mutants");
    let base =
        PlanDag::from_plan(Plan::build(scaled(platform1(), Approach::PipeMerge), 6000).unwrap());
    for mutant in Mutant::ALL {
        let mut dag = base.clone();
        let mut trace = lower_dag(&dag);
        assert!(
            mutant.apply(&mut dag, &mut trace),
            "{} must apply to the base plan",
            mutant.name()
        );
        let report = analyze_plan_with_trace(&dag, &trace);
        assert!(
            report.has_class(mutant.expected_class()),
            "{} expected a {:?} finding, got:\n{report}",
            mutant.name(),
            mutant.expected_class()
        );
    }
}

#[test]
fn race_findings_name_both_ops_and_the_missing_edge() {
    let mut dag =
        PlanDag::from_plan(Plan::build(scaled(platform1(), Approach::PipeMerge), 6000).unwrap());
    let mut trace = lower_dag(&dag);
    assert!(Mutant::DropWait.apply(&mut dag, &mut trace));
    let report = analyze_plan_with_trace(&dag, &trace);
    let race = report
        .findings
        .iter()
        .find(|f| f.code == "race")
        .expect("dropped wait must produce a race");
    assert_eq!(race.ops.len(), 2, "{race}");
    assert!(race.ops.iter().all(|op| op.contains("step")), "{race}");
    assert!(race.message.contains("record an event"), "{race}");
    assert!(race.message.contains("stream-wait"), "{race}");
}

#[test]
fn executor_recorded_traces_are_clean() {
    let data: Vec<u64> = (0..6000u64)
        .rev()
        .map(|x| x.wrapping_mul(2654435761))
        .collect();
    for approach in [
        Approach::BLineMulti,
        Approach::PipeData,
        Approach::PipeMerge,
    ] {
        let cfg = scaled(platform1(), approach).with_trace_recording();
        let plan = Plan::build(cfg, data.len()).unwrap();
        for (name, outcome) in [
            (
                "exec_real",
                exec_real::sort_real_plan(&plan, &data).unwrap(),
            ),
            (
                "sort_real_parallel",
                exec_real::sort_real_parallel(&plan, &data).unwrap(),
            ),
        ] {
            assert!(outcome.verified);
            let trace = outcome.trace.expect("record_trace was on");
            let report = analyze_plan_with_trace(&PlanDag::from_plan(plan.clone()), &trace);
            assert!(
                report.is_clean(),
                "{name} {} executed trace flagged:\n{report}",
                plan.config.approach.name()
            );
        }
    }
}

#[test]
fn virtual_cuda_trace_with_events_is_clean() {
    let mut cu = VirtualCuda::new(platform1());
    let dev = cu.malloc(2e9).unwrap();
    let pin_in = cu.malloc_host(8e8);
    let pin_out = cu.malloc_host(8e8);
    let s1 = cu.stream_create();
    let s2 = cu.stream_create();
    cu.memcpy_async(TransferDir::HtoD, 8e8, dev, pin_in, s1)
        .unwrap();
    cu.thrust_sort(1e8, dev, s1);
    // s2 drains the sorted buffer only after s1's event.
    let done = cu.event_record(s1);
    cu.stream_wait_event(s2, done);
    cu.memcpy_async(TransferDir::DtoH, 8e8, dev, pin_out, s2)
        .unwrap();
    cu.device_synchronize();
    let run = cu.run().unwrap();
    let report = analyze_trace(run.trace());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn virtual_cuda_trace_without_events_races() {
    let mut cu = VirtualCuda::new(platform1());
    let dev = cu.malloc(2e9).unwrap();
    let pin_in = cu.malloc_host(8e8);
    let pin_out = cu.malloc_host(8e8);
    let s1 = cu.stream_create();
    let s2 = cu.stream_create();
    cu.memcpy_async(TransferDir::HtoD, 8e8, dev, pin_in, s1)
        .unwrap();
    cu.thrust_sort(1e8, dev, s1);
    // Missing stream_wait_event: s2 reads while s1 may still write.
    cu.memcpy_async(TransferDir::DtoH, 8e8, dev, pin_out, s2)
        .unwrap();
    cu.device_synchronize();
    let run = cu.run().unwrap();
    let report = analyze_trace(run.trace());
    assert!(!report.is_clean());
    let race = report.findings.iter().find(|f| f.code == "race").unwrap();
    assert!(race.message.contains("happens-before"), "{race}");
}
