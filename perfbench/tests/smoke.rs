//! Runs every workload once on smoke-scale inputs and checks the report:
//! every end-to-end metric that applies is printed with its unit, nothing
//! failed, and the traced mode prints the per-layer report.

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["histo", "spmv", "kvs-elastic", "kvs-static"];

/// Every end-to-end metric with its unit and the workloads it applies to
/// (`None` = all).
const END_TO_END: [(&str, &str, Option<&[&str]>); 10] = [
    ("run_s", "s", None),
    ("setup_s", "s", None),
    ("sim_minstr_per_s", "Minstr/s", None),
    ("peak_rss_mb", "MB", None),
    ("sim_us", "us", None),
    ("sim_p99_us", "us", Some(&["kvs-elastic", "kvs-static"])),
    (
        "sim_throughput_mrps",
        "Mreq/s",
        Some(&["kvs-elastic", "kvs-static"]),
    ),
    (
        "slo_miss_frac",
        "ratio",
        Some(&["kvs-elastic", "kvs-static"]),
    ),
    ("sim_device_ms", "ms", Some(&["kvs-elastic"])),
    ("fail_frac", "ratio", None),
];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_m2ndp_perfbench"))
        .args(args)
        .output()
        .expect("benchmark runs")
}

fn smoke(workload: &str, trace: &str) -> String {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
        "{workload}: {last}"
    );
    stdout
}

/// The value printed on the `metric <name> <value> <unit> ...` line.
fn metric_line<'a>(stdout: &'a str, name: &str) -> Option<(&'a str, &'a str)> {
    stdout.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some("metric") && f.next() == Some(name))
            .then(|| (f.next().unwrap(), f.next().unwrap()))
    })
}

#[test]
fn every_workload_prints_its_end_to_end_metrics_without_failures() {
    for w in WORKLOADS {
        let stdout = smoke(w, "0");
        for (name, unit, only) in END_TO_END {
            let line = metric_line(&stdout, name);
            if only.is_some_and(|ws| !ws.contains(&w)) {
                assert!(line.is_none(), "{w}: {name} does not apply but was printed");
                continue;
            }
            let (value, printed_unit) =
                line.unwrap_or_else(|| panic!("{w}: {name} missing\n{stdout}"));
            assert_eq!(printed_unit, unit, "{w}: unit of {name}");
            let value: f64 = value.parse().expect("numeric value");
            if name == "fail_frac" {
                assert_eq!(value, 0.0, "{w}: fail_frac");
            } else if name != "slo_miss_frac" {
                assert!(value > 0.0, "{w}: {name} = {value}");
            }
        }
    }
}

#[test]
fn traced_mode_prints_the_layer_report() {
    for w in WORKLOADS {
        let stdout = smoke(w, "1");
        assert!(stdout.contains("# layer report"), "{w}:\n{stdout}");
        for layer in [
            "bench",
            "workloads",
            "riscv",
            "core",
            "cache",
            "mem",
            "cxl",
            "host",
        ] {
            assert!(
                stdout.contains(&format!("# {layer} ")),
                "{w}: no {layer} row"
            );
        }
        let last = stdout.lines().last().unwrap();
        for name in [
            "core.cycles",
            "riscv.instrs",
            "cache.l2_accesses",
            "trace.overhead_s",
        ] {
            assert!(
                last.contains(&format!("\"{name}\"")),
                "{w}: {name} missing from {last}"
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "histo", "--trace", "2"],
        &["--workload", "histo", "--seconds", "-1"],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
