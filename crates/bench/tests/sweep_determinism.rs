//! The sweep determinism contract: a sweep run with `--jobs 1` and a sweep
//! run with `--jobs 4` must emit **byte-identical** JSON. Every cell builds
//! its own deterministic device/model, so thread scheduling may reorder
//! execution but never the results.
//!
//! Uses the cheap analytic KVStore-baseline cells so the test stays fast in
//! debug builds; the full-device path goes through the exact same executor
//! and emitter (and is exercised at release speed by CI's `figures-smoke`
//! job).

use m2ndp_bench::sweep::{
    consolidated_json, consolidated_metrics, derive, figure_json, run_cells, run_cells_budget,
    CellSpec, FigId, JobBudget,
};

fn specs() -> Vec<CellSpec> {
    (0..8)
        .map(|i| CellSpec::kvs_baseline_cell(FigId::Fig10b, &format!("det{i}"), 300 + i * 37))
        .collect()
}

#[test]
fn jobs1_and_jobs4_sweeps_emit_byte_identical_json() {
    let cells = specs();
    let serial = run_cells(&cells, 1, false);
    let parallel = run_cells(&cells, 4, false);

    let figure = |outs: &[_]| {
        let metrics = derive(FigId::Fig10b, outs);
        figure_json(FigId::Fig10b, outs, &metrics).pretty()
    };
    assert_eq!(figure(&serial), figure(&parallel));

    let consolidated = |outs: &[m2ndp_bench::sweep::CellOut]| {
        let metrics = derive(FigId::Fig10b, outs);
        let results = vec![(FigId::Fig10b, outs.to_vec(), metrics)];
        (
            consolidated_json(&results, false).pretty(),
            consolidated_metrics(&results),
        )
    };
    let (json_serial, metrics_serial) = consolidated(&serial);
    let (json_parallel, metrics_parallel) = consolidated(&parallel);
    assert_eq!(
        json_serial, json_parallel,
        "consolidated JSON must be byte-identical"
    );
    assert_eq!(metrics_serial, metrics_parallel);
}

#[test]
fn every_job_budget_emits_identical_cell_outputs() {
    // The nested budget (cell-level × fleet-level workers) may only change
    // wall-clock and worker assignment, never the outputs.
    let cells = specs();
    let reference = run_cells_budget(&cells, JobBudget::serial(), false);
    for budget in [
        JobBudget::split(4, 1),
        JobBudget::split(4, 4),
        JobBudget::split(8, 2),
    ] {
        let outs = run_cells_budget(&cells, budget, false);
        for (a, b) in reference.iter().zip(&outs) {
            assert_eq!(a.key, b.key, "{budget:?}");
            assert_eq!(a.ns.to_bits(), b.ns.to_bits(), "{}", b.key);
        }
    }
}

#[test]
fn split_budget_reserves_fleet_share() {
    assert_eq!(
        JobBudget::split(8, 4),
        JobBudget {
            cell_jobs: 2,
            fleet_jobs: 4
        }
    );
    assert_eq!(
        JobBudget::split(1, 4),
        JobBudget {
            cell_jobs: 1,
            fleet_jobs: 4
        }
    );
    assert_eq!(
        JobBudget::split(6, 0),
        JobBudget {
            cell_jobs: 6,
            fleet_jobs: 1
        }
    );
    assert_eq!(
        JobBudget::serial(),
        JobBudget {
            cell_jobs: 1,
            fleet_jobs: 1
        }
    );
}

#[test]
fn repeated_serial_sweeps_are_stable() {
    let cells = specs();
    let a = run_cells(&cells, 1, false);
    let b = run_cells(&cells, 1, false);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.key, y.key);
        assert_eq!(x.ns.to_bits(), y.ns.to_bits(), "{}", x.key);
    }
}
