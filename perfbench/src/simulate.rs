//! `simulate-5e9`: `simulate_dag` on the two pinned gate scenarios
//! `p1/hybrid/n5e9` and `p2/hybrid/n5e9` (≈ 20k-node dags, no data).
//! Almost all time is in the simulator; plan building is a small share
//! and no kernel runs. The inputs are fixed by the gate, so the seed
//! only chooses which scenario runs first.

use std::time::Duration;

use hetsort_bench::gate::{scenario_matrix, HYBRID_BATCH};
use hetsort_core::{build_dag, simulate_dag, HetSortConfig, PlanDag};
use hetsort_obs::{BenchDoc, Tolerance};

use crate::measure::{repeat_for, time_setups, timed};
use crate::Run;

const IDS: [&str; 2] = ["p1/hybrid/n5e9", "p2/hybrid/n5e9"];
const SETUPS: usize = 7;

/// The committed model-time baseline the simulated totals must match.
const BENCH_JSON: &str = include_str!("../../BENCH.json");

/// One gate scenario: id, config, input size, committed `total_s`.
struct Scenario {
    id: &'static str,
    config: HetSortConfig,
    n: usize,
    expect_total_s: f64,
}

fn scenarios(seed: u64) -> Vec<Scenario> {
    let doc = BenchDoc::parse(BENCH_JSON).expect("BENCH.json parses");
    let matrix = scenario_matrix();
    let mut out: Vec<Scenario> = IDS
        .iter()
        .map(|&id| {
            let s = matrix
                .iter()
                .find(|s| s.id == id)
                .expect("gate matrix has the hybrid scenarios");
            Scenario {
                id,
                config: s.config.clone(),
                n: s.n,
                expect_total_s: doc
                    .scenario(id)
                    .expect("BENCH.json pins the scenario")
                    .total_s,
            }
        })
        .collect();
    if seed % 2 == 1 {
        out.reverse();
    }
    out
}

pub fn run(run: &mut Run, seed: u64, budget: Duration, trace: bool) {
    let tol = Tolerance::default().total_rel;
    // Set-up: build and validate both dags, warm up on a small dag.
    let ((scens, dags, warm_ok), setup_times) = time_setups(SETUPS, || {
        let scens = scenarios(seed);
        let dags: Vec<PlanDag> = scens
            .iter()
            .map(|s| build_dag(s.config.clone(), s.n).expect("gate scenario builds"))
            .collect();
        for d in &dags {
            d.validate().expect("gate dag is valid");
        }
        let warm = build_dag(scens[0].config.clone(), 4 * HYBRID_BATCH)
            .and_then(|d| simulate_dag(&d))
            .is_ok();
        (scens, dags, warm)
    });
    for t in setup_times {
        run.samples.push("setup_s", "s", t);
    }
    run.check(warm_ok, "warm-up simulation");

    repeat_for(run, budget, if trace { 2 } else { 1 }, |run, i| {
        let is_traced = trace && i % 2 == 1;
        let mut wall = 0.0;
        let (mut plan_s, mut nodes, mut edges) = (0.0, 0.0, 0.0);
        for (s, dag) in scens.iter().zip(&dags) {
            if is_traced {
                // The plan layer's calls, which untraced runs make once
                // in set-up.
                let (b, built) = timed(|| build_dag(s.config.clone(), s.n));
                let (v, valid) = timed(|| built.as_ref().map(PlanDag::validate));
                run.check(
                    matches!(valid, Ok(Ok(()))),
                    "gate dag rebuilds and validates",
                );
                run.samples.push("plan.build_dag_s", "s", b);
                run.samples.push("plan.validate_s", "s", v);
                plan_s += b + v;
                nodes += dag.nodes.len() as f64;
                edges += dag.edge_count() as f64;
            }
            let (t, rep) = timed(|| simulate_dag(dag));
            wall += t;
            let ok = rep
                .as_ref()
                .is_ok_and(|r| (r.total_s - s.expect_total_s).abs() <= tol * s.expect_total_s);
            run.check(ok, &format!("{} total_s within {tol} of BENCH.json", s.id));
            if is_traced {
                let key = &s.id[..2];
                run.samples
                    .push(format!("sim.simulate_dag_s.{key}"), "s", t);
                run.samples.push(
                    format!("sim.total_vs.{key}"),
                    "vs",
                    rep.map_or(0.0, |r| r.total_s),
                );
            }
        }
        if is_traced {
            let total = wall + plan_s;
            let s = &mut run.samples;
            s.push("traced_wall_s", "s", wall);
            s.push("plan.self_s", "s", plan_s);
            s.push("plan.share", "frac", plan_s / total);
            s.push("sim.share", "frac", wall / total);
            s.push("plan.nodes", "count", nodes);
            s.push("plan.edges", "count", edges);
            s.push("sim.knodes_s", "knode/s", nodes / 1e3 / wall);
        } else {
            if i == 0 {
                crate::host::record_peak_rss(&mut run.samples);
            }
            run.samples.push("wall_s", "s", wall);
            run.samples.push("simulate_s", "s", wall);
        }
    });
}
