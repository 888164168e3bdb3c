//! `m2ndp_perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload histo --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each repetition generates the workload's inputs from `--seed`, builds a
//! fresh device or fleet, runs the simulation through the workspace
//! crates' public API, and checks the outputs. Repetitions continue until
//! `--seconds` have passed. With `--trace 0` the last stdout line is a JSON
//! object with the end-to-end metrics (medians over the repetitions); with
//! `--trace 1` the program's trace sinks are attached on alternate
//! repetitions and the JSON carries the per-layer metrics. Host times are
//! reported in reference-speed seconds: each repetition's host seconds
//! scaled by how fast a fixed calibration loop ran next to it (`speed`).
//! Earlier lines are a human-readable report. The exit code is non-zero
//! when any operation failed: a launch error, a failed output check, a
//! serving request that never completed, or a simulated number that
//! differed between repetitions or between traced and untraced
//! repetitions.

mod speed;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trace::{self_times_ns, Span, Spans};
use workloads::{run_rep, Kind, Rep, Sizes};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Seed held out for confirming claims; never used while tuning a change.
const HELD_OUT_SEED: u64 = 20_261_017;
/// Fewest timed repetitions in a measured run.
const MIN_REPS: usize = 3;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    format!(
        "usage: m2ndp_perfbench --workload <{}> [--seed N (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})] \
         [--seconds S] [--trace 0|1] [--smoke]",
        Kind::ALL.map(Kind::name).join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Kind::Histo,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| Duration::try_from_secs_f64(*s).is_ok())
                    .ok_or(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Median of `v` (0 for an empty slice).
fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Every repetition of one invocation, plus the failure bookkeeping.
struct Outcome {
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Whether two repetitions' simulated numbers are bit-identical.
fn same_sim(a: &Rep, b: &Rep) -> bool {
    a.sim.len() == b.sim.len()
        && a.sim
            .iter()
            .zip(&b.sim)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn same_counts(a: &Rep, b: &Rep) -> bool {
    match (&a.counts, &b.counts) {
        (Some(x), Some(y)) => trace::COUNTERS.iter().all(|c| x.get(c) == y.get(c)),
        _ => false,
    }
}

fn run(args: &Args, spans: &Arc<Spans>) -> Outcome {
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let min_reps = if args.smoke { 1 } else { MIN_REPS };
    let mut out = Outcome {
        untraced: Vec::new(),
        traced: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut reference: Option<Rep> = None;
    let mut record = |out: &mut Outcome, rep: Rep, traced: bool| {
        out.attempted += rep.ops;
        let mut failed = rep.failed;
        out.errors.extend(rep.errors.iter().cloned());
        if reference.as_ref().is_some_and(|r| !same_sim(r, &rep)) {
            failed = rep.ops;
            out.errors.push(format!(
                "simulated numbers differ from the first repetition ({} repetition)",
                if traced { "traced" } else { "untraced" }
            ));
        }
        if traced
            && out
                .traced
                .first()
                .is_some_and(|first| !same_counts(first, &rep))
        {
            failed = rep.ops;
            out.errors
                .push("trace-event counts differ between traced repetitions".into());
        }
        out.failed += failed;
        if reference.is_none() {
            reference = Some(rep);
            return;
        }
        if traced {
            out.traced.push(rep);
        } else {
            out.untraced.push(rep);
        }
    };

    // The first repetition is a checked warm-up (page faults, lazy set-up)
    // and the reference every later one must reproduce exactly.
    // Every repetition is bracketed by calibration samples; their mean
    // gives the host's speed while it ran.
    let mut run_id = 0;
    let mut cal = speed::Calibrator::new();
    let mut before = cal.sample();
    let mut next = |traced| {
        let mut rep = run_rep(args.workload, args.seed, sizes, traced, spans, run_id);
        let after = cal.sample();
        rep.scale = speed::REFERENCE_S / ((before + after) / 2.0);
        before = after;
        run_id += 1;
        rep
    };
    record(&mut out, next(false), false);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while out.untraced.len() < min_reps || start.elapsed() < budget {
        record(&mut out, next(false), false);
        if args.trace {
            record(&mut out, next(true), true);
        }
    }
    out
}

/// One printed metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    value: f64,
    note: String,
}

fn metric(name: &'static str, unit: &'static str, better: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        value,
        note: String::new(),
    }
}

/// How many of [`end_to_end`]'s metrics `BENCHMARK.json` records: the
/// leading ones, which apply to every workload.
const RECORDED_END_TO_END: usize = 5;

/// The end-to-end metrics that apply to `kind`, recorded ones first.
fn end_to_end(kind: Kind, out: &Outcome) -> Vec<Metric> {
    let reps = &out.untraced;
    let first = &reps[0];
    let runs: Vec<f64> = reps.iter().map(|r| r.run_s * r.scale).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s * r.scale).collect();
    let raw_runs: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let scales: Vec<f64> = reps.iter().map(|r| r.scale).collect();
    let sim = |name| first.sim(name).unwrap_or(0.0);
    let spread = |v: &[f64]| {
        format!(
            "median of {}; p25 {:.6} p75 {:.6} max {:.6}",
            v.len(),
            quantile(v, 0.25),
            quantile(v, 0.75),
            quantile(v, 1.0)
        )
    };
    let run_s = median(&runs);
    let mut m = vec![
        Metric {
            note: format!(
                "{}; host seconds {:.6}, host speed {:.3} of reference",
                spread(&runs),
                median(&raw_runs),
                median(&scales)
            ),
            ..metric("run_s", "s", "lower", run_s)
        },
        Metric {
            note: spread(&setups),
            ..metric("setup_s", "s", "lower", median(&setups))
        },
        metric(
            "sim_minstr_per_s",
            "Minstr/s",
            "higher",
            sim("instrs") / run_s / 1e6,
        ),
        metric("peak_rss_mb", "MB", "lower", peak_rss_mb()),
        metric("sim_us", "us", "lower", sim("sim_us")),
    ];
    if kind.serving() {
        m.push(Metric {
            note: format!("percentile {}", sim("sim_p99_percentile")),
            ..metric("sim_p99_us", "us", "lower", sim("sim_p99_us"))
        });
        m.push(metric(
            "sim_throughput_mrps",
            "Mreq/s",
            "higher",
            sim("sim_throughput_mrps"),
        ));
        m.push(metric(
            "slo_miss_frac",
            "ratio",
            "lower",
            sim("slo_miss_frac"),
        ));
    }
    if kind == Kind::KvsElastic {
        m.push(metric("sim_device_ms", "ms", "lower", sim("sim_device_ms")));
    }
    m.push(Metric {
        note: format!("{} of {} operations", out.failed, out.attempted),
        ..metric(
            "fail_frac",
            "ratio",
            "lower",
            out.failed as f64 / out.attempted.max(1) as f64,
        )
    });
    m
}

/// The benchmark's layers, in report order, with the span names that
/// belong to each.
const LAYERS: [&str; 8] = [
    "bench",
    "workloads",
    "riscv",
    "core",
    "cache",
    "mem",
    "cxl",
    "host",
];

/// The layers that own spans, with their self-time metric names.
const SELF_TIMES: [(&str, &str); 5] = [
    ("bench", "bench.self_s"),
    ("workloads", "workloads.self_s"),
    ("riscv", "riscv.self_s"),
    ("core", "core.self_s"),
    ("host", "host.self_s"),
];

/// Recorded spans grouped by repetition, with their self times.
struct SpanIndex<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
    by_run: HashMap<u32, Vec<usize>>,
    scale: HashMap<u32, f64>,
}

impl<'a> SpanIndex<'a> {
    fn new(spans: &'a [Span], reps: &[&Rep]) -> Self {
        let mut by_run: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_run.entry(s.run).or_default().push(i);
        }
        Self {
            spans,
            self_ns: self_times_ns(spans),
            by_run,
            scale: reps.iter().map(|r| (r.run, r.scale)).collect(),
        }
    }

    /// Median over `runs` of each repetition's total reference-speed
    /// seconds in the spans `keep` selects: their durations, or with
    /// `self_time` their self times.
    fn median_s(&self, runs: &[u32], keep: impl Fn(&Span) -> bool, self_time: bool) -> f64 {
        let totals: Vec<f64> = runs
            .iter()
            .map(|run| {
                let ns: u64 = self.by_run.get(run).map_or(0, |ids| {
                    ids.iter()
                        .filter(|&&i| keep(&self.spans[i]))
                        .map(|&i| {
                            let s = &self.spans[i];
                            if self_time {
                                self.self_ns[i]
                            } else {
                                s.end_ns - s.start_ns
                            }
                        })
                        .sum()
                });
                ns as f64 * 1e-9 * self.scale.get(run).copied().unwrap_or(1.0)
            })
            .collect();
        median(&totals)
    }
}

/// The per-layer metrics of a traced invocation, plus the per-layer
/// report rows.
fn per_layer(kind: Kind, out: &Outcome, spans: &[Span]) -> (Vec<Metric>, String) {
    // Call times come from the untraced repetitions, whose only
    // instrumentation is the benchmark's own call spans; self times, the
    // per-request calls inside `serve::run` and the event counts need the
    // traced ones.
    let ids = |reps: &[Rep]| reps.iter().map(|r| r.run).collect::<Vec<_>>();
    let (untraced_runs, traced_runs) = (&ids(&out.untraced), &ids(&out.traced));
    let reps: Vec<&Rep> = out.untraced.iter().chain(&out.traced).collect();
    let index = SpanIndex::new(spans, &reps);
    let rep = &out.traced[0];
    let sim = |name| rep.sim(name).unwrap_or(0.0);
    let counts = rep.counts.as_ref().expect("traced repetition has counts");
    let count = |name| counts.get(name) as f64;
    let call = |name: &str| index.median_s(untraced_runs, |s| s.name == name, false);
    let sim_call_s = if kind.serving() {
        call("host.serve")
    } else {
        call("core.launch") + call("core.run")
    };
    let run_s = |reps: &[Rep]| median(&reps.iter().map(|r| r.run_s * r.scale).collect::<Vec<_>>());
    let (untraced_run, traced_run) = (run_s(&out.untraced), run_s(&out.traced));
    let phases = rep.trace_phases_us.unwrap_or([0.0; 4]);
    let requests = sim("completed");
    let (s, c, l, h) = ("s", "count", "lower", "higher");
    let mut m = vec![
        metric("workloads.generate_s", s, l, call("workloads.generate")),
        metric(
            "workloads.verify_s",
            s,
            l,
            index.median_s(traced_runs, |s| s.name == "workloads.verify", false),
        ),
        metric("riscv.assemble_s", s, l, call("riscv.assemble")),
        metric("riscv.instrs", c, l, sim("instrs")),
        metric(
            "riscv.host_ns_per_instr",
            "ns",
            l,
            sim_call_s * 1e9 / sim("instrs"),
        ),
        metric("core.device_new_s", s, l, call("core.device_new")),
        metric("core.launch_s", s, l, call("core.launch")),
        metric("core.run_s", s, l, call("core.run")),
        metric("core.cycles", c, l, sim("cycles")),
        metric(
            "core.host_ns_per_cycle",
            "ns",
            l,
            sim_call_s * 1e9 / sim("cycles"),
        ),
        metric("core.mem_reqs", c, l, sim("mem_reqs")),
        metric("core.l1_hits", c, h, sim("l1_hits")),
        metric("core.spad_bytes", "bytes", l, sim("spad_bytes")),
        metric("core.kernel_launches", c, l, count("kernel_launches")),
        metric("core.waves_spawned", c, l, count("waves_spawned")),
        metric("core.launch_us", "sim_us", l, phases[1]),
        metric("core.execute_us", "sim_us", l, phases[2]),
        metric("cache.l2_accesses", c, l, sim("l2_accesses")),
        metric("cache.l2_hit_rate", "ratio", h, sim("l2_hit_rate")),
        metric("cache.l2_evictions", c, l, count("l2_evictions")),
        metric("mem.dram_bytes", "bytes", l, sim("dram_bytes")),
        metric(
            "mem.dram_row_hit_rate",
            "ratio",
            h,
            sim("dram_row_hit_rate"),
        ),
        metric(
            "mem.dram_bw_utilization",
            "ratio",
            h,
            sim("dram_bw_utilization"),
        ),
        metric("mem.dram_reads", c, l, count("dram_reads")),
        metric("mem.dram_writes", c, l, count("dram_writes")),
        metric("cxl.link_m2s_bytes", "bytes", l, sim("link_m2s_bytes")),
        metric("cxl.link_s2m_bytes", "bytes", l, sim("link_s2m_bytes")),
        metric("cxl.switch_hops", c, l, count("switch_hops")),
        metric("cxl.link_us", "sim_us", l, phases[3]),
        metric("host.serve_s", s, l, call("host.serve")),
        metric(
            "host.host_us_per_request",
            "us",
            l,
            if requests > 0.0 {
                call("host.serve") * 1e6 / requests
            } else {
                0.0
            },
        ),
        metric("host.launches", c, l, sim("launches")),
        metric("host.max_outstanding", c, l, sim("max_outstanding")),
        metric("host.scale_ups", c, l, sim("scale_ups")),
        metric("host.drains", c, l, sim("drains")),
        metric("host.queue_us", "sim_us", l, phases[0]),
    ];
    for (layer, name) in SELF_TIMES {
        let v = index.median_s(traced_runs, |s| s.layer() == layer, true);
        m.push(metric(name, s, l, v));
    }
    m.push(Metric {
        note: format!("traced run_s {traced_run:.6} - untraced run_s {untraced_run:.6}"),
        ..metric("trace.overhead_s", s, l, traced_run - untraced_run)
    });

    // One row per layer: self time, share of the repetition, counts.
    let rep_s = index.median_s(traced_runs, |s| s.parent.is_none(), false);
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# layer report ({} traced repetitions; self time = span minus child spans, tracing overhead included; median traced repetition {rep_s:.6} s)",
        traced_runs.len()
    );
    let _ = writeln!(
        table,
        "# {:<10} {:>12} {:>8}  counts",
        "layer", "self_s", "share"
    );
    let find = |name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    for layer in LAYERS {
        let counts: Vec<String> = m
            .iter()
            .filter(|x| x.name.split('.').next() == Some(layer) && x.unit != "s")
            .map(|x| format!("{}={}", &x.name[layer.len() + 1..], x.value))
            .collect();
        let (self_s, share) = match layer {
            "cache" | "mem" | "cxl" => ("(in core/host)".to_string(), "-".to_string()),
            _ => {
                let v = find(&format!("{layer}.self_s"));
                (
                    format!("{v:.6}"),
                    format!("{:.1}%", 100.0 * v / rep_s.max(1e-12)),
                )
            }
        };
        let _ = writeln!(
            table,
            "# {layer:<10} {self_s:>12} {share:>8}  {}",
            counts.join(" ")
        );
    }
    (m, table)
}

fn json_line(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn print_metric(kind: &str, m: &Metric) {
    let (name, unit, better, note) = (m.name, m.unit, m.better, &m.note);
    println!(
        "{kind} {name} {} {unit} better={better} {note}",
        json_num(m.value)
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let kind = args.workload;
    let spans = Spans::new();
    let out = run(&args, &spans);
    for e in out.errors.iter().take(20) {
        eprintln!("error: {e}");
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} smoke={} threads={} nproc={} cpu=\"{}\"",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        kind.threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model()
    );
    let e2e = end_to_end(kind, &out);
    for m in &e2e {
        print_metric("metric", m);
    }
    let metrics = if args.trace {
        let all = spans.snapshot();
        let (layer_metrics, table) = per_layer(kind, &out, &all);
        print!("{table}");
        for m in &layer_metrics {
            print_metric("layer", m);
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", kind.name(), args.seed));
        match trace::write_spans(&path, &all) {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        layer_metrics
    } else {
        e2e.into_iter().take(RECORDED_END_TO_END).collect()
    };
    println!("{}", json_line(&out, &metrics));
    if out.failed > 0 {
        std::process::exit(1);
    }
}
