//! Runs one Table V workload on one platform, end to end.

use m2ndp::core::{CxlM2ndpDevice, DeviceStats};
use m2ndp::sim::Snapshot as _;
use m2ndp::workloads::{dlrm, graph, histo, opt, spmv};

use crate::platforms::Platform;

/// The GPU-baseline workload set of Fig. 10c (bench-scale parameters;
/// EXPERIMENTS.md maps them to the paper's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuWorkload {
    /// HISTO with 256 bins.
    Histo256,
    /// HISTO with 4096 bins.
    Histo4096,
    /// Sparse matrix-vector multiply.
    Spmv,
    /// One PageRank iteration (contrib + gather kernels).
    Pgrank,
    /// Bellman-Ford SSSP (multi-body kernel).
    Sssp,
    /// DLRM SLS, batch 4.
    DlrmB4,
    /// DLRM SLS, batch 32.
    DlrmB32,
    /// DLRM SLS, batch 256.
    DlrmB256,
    /// OPT-2.7B-shaped decode step (scaled dims).
    Opt27,
    /// OPT-30B-shaped decode step (scaled dims).
    Opt30,
}

impl GpuWorkload {
    /// All Fig. 10c workloads in presentation order.
    pub fn all() -> Vec<GpuWorkload> {
        vec![
            GpuWorkload::Histo256,
            GpuWorkload::Histo4096,
            GpuWorkload::Spmv,
            GpuWorkload::Pgrank,
            GpuWorkload::Sssp,
            GpuWorkload::DlrmB4,
            GpuWorkload::DlrmB32,
            GpuWorkload::DlrmB256,
            GpuWorkload::Opt27,
            GpuWorkload::Opt30,
        ]
    }

    /// A fast subset for the sweep-style figures (12a, 13a, 13b).
    pub fn sweep_subset() -> Vec<GpuWorkload> {
        vec![
            GpuWorkload::Histo4096,
            GpuWorkload::Spmv,
            GpuWorkload::Pgrank,
            GpuWorkload::DlrmB32,
        ]
    }

    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            GpuWorkload::Histo256 => "HISTO256",
            GpuWorkload::Histo4096 => "HISTO4096",
            GpuWorkload::Spmv => "SPMV",
            GpuWorkload::Pgrank => "PGRANK",
            GpuWorkload::Sssp => "SSSP",
            GpuWorkload::DlrmB4 => "DLRM(SLS)-B4",
            GpuWorkload::DlrmB32 => "DLRM(SLS)-B32",
            GpuWorkload::DlrmB256 => "DLRM(SLS)-B256",
            GpuWorkload::Opt27 => "OPT-2.7B(Gen)",
            GpuWorkload::Opt30 => "OPT-30B(Gen)",
        }
    }
}

/// Outcome of one (platform, workload) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// End-to-end kernel runtime in device cycles.
    pub cycles: u64,
    /// Runtime in nanoseconds (clock-adjusted).
    pub ns: f64,
    /// Device statistics for *this run* (counters are deltas from the
    /// snapshot taken when the run started, so back-to-back runs on one
    /// device don't bleed into each other; cumulative-ratio fields keep
    /// their end-of-run values — see `DeviceStats::delta_since`).
    pub stats: DeviceStats,
}

/// Bench-scale data sizes: small enough that a full Fig. 10c sweep stays in
/// the minutes range, large enough to spill every cache in play.
fn histo_cfg(bins: u32) -> histo::HistoConfig {
    histo::HistoConfig {
        elements: 256 << 10,
        bins,
        seed: 0x1517,
    }
}

fn spmv_cfg() -> spmv::SpmvConfig {
    spmv::SpmvConfig {
        rows: 8 << 10,
        nnz_per_row: 24,
        seed: 0x5137,
    }
}

fn graph_cfg() -> graph::GraphConfig {
    graph::GraphConfig {
        nodes: 12 << 10,
        edges: 72 << 10,
        seed: 0x6247,
    }
}

fn dlrm_cfg(batch: u32) -> dlrm::DlrmConfig {
    dlrm::DlrmConfig {
        table_rows: 64 << 10,
        dim: 64,
        lookups: 80,
        batch,
        zipf_theta: 0.9,
        seed: 0xD12A,
    }
}

fn opt_cfg(big: bool) -> opt::OptConfig {
    // Kept small: the GPU-baseline cells stream every weight over the CXL
    // link at warp granularity, the slowest simulations in the suite. The
    // operator mix (4 GEMVs + 3 attention kernels per layer) is unchanged.
    if big {
        opt::OptConfig {
            hidden: 320,
            heads: 5,
            ffn: 1280,
            layers: 1,
            context: 64,
            seed: 0x3000,
        }
    } else {
        opt::OptConfig {
            hidden: 192,
            heads: 3,
            ffn: 768,
            layers: 1,
            context: 64,
            seed: 0x0276,
        }
    }
}

/// Runs `workload` on `platform`, verifying functional results, and returns
/// runtime + stats.
///
/// # Panics
/// Panics if the device produces functionally incorrect results.
pub fn run(platform: Platform, workload: GpuWorkload) -> RunResult {
    let mut dev = platform.build();
    run_on_device(&mut dev, platform, workload)
}

/// Like [`run`], but on a caller-built device (for sensitivity sweeps that
/// tweak the configuration first).
#[allow(clippy::too_many_lines)]
pub fn run_on_device(
    dev: &mut CxlM2ndpDevice,
    platform: Platform,
    workload: GpuWorkload,
) -> RunResult {
    let spad_units = platform.spad_units_arg(dev);
    let stats_at_start = dev.stats();
    let start = dev.now();
    match workload {
        GpuWorkload::Histo256 | GpuWorkload::Histo4096 => {
            let bins = if workload == GpuWorkload::Histo256 {
                256
            } else {
                4096
            };
            let cfg = histo_cfg(bins);
            let data = histo::generate(cfg, dev.memory_mut());
            let kid = dev.register_kernel(histo::kernel(cfg));
            let inst = dev
                .launch(histo::launch(&data, kid, spad_units))
                .expect("launch");
            dev.run_until_finished(inst);
            histo::verify(&data, dev.memory()).expect("histo verifies");
        }
        GpuWorkload::Spmv => {
            let cfg = spmv_cfg();
            let data = spmv::generate(cfg, dev.memory_mut());
            let kid = dev.register_kernel(spmv::kernel());
            let inst = dev.launch(spmv::launch(&data, kid)).expect("launch");
            dev.run_until_finished(inst);
            spmv::verify(&data, dev.memory()).expect("spmv verifies");
        }
        GpuWorkload::Pgrank => {
            let cfg = graph_cfg();
            let data = graph::generate(cfg, dev.memory_mut());
            let k1 = dev.register_kernel(graph::pgrank_contrib_kernel());
            let k2 = dev.register_kernel(graph::pgrank_gather_kernel());
            let (l1, l2) = graph::pgrank_launches(&data, k1, k2);
            let i1 = dev.launch(l1).expect("launch");
            dev.run_until_finished(i1);
            let i2 = dev.launch(l2).expect("launch");
            dev.run_until_finished(i2);
            graph::pgrank_verify(&data, dev.memory()).expect("pgrank verifies");
        }
        GpuWorkload::Sssp => {
            let cfg = graph_cfg();
            let data = graph::generate(cfg, dev.memory_mut());
            // Fixed sweep budget for timing comparability across platforms
            // (convergence checked in the integration tests).
            let kid = dev.register_kernel(graph::sssp_kernel());
            let inst = dev
                .launch(graph::sssp_launch(&data, kid, 6))
                .expect("launch");
            dev.run_until_finished(inst);
        }
        GpuWorkload::DlrmB4 | GpuWorkload::DlrmB32 | GpuWorkload::DlrmB256 => {
            let batch = match workload {
                GpuWorkload::DlrmB4 => 4,
                GpuWorkload::DlrmB32 => 32,
                _ => 256,
            };
            let cfg = dlrm_cfg(batch);
            let data = dlrm::generate(cfg, dev.memory_mut());
            let kid = dev.register_kernel(dlrm::kernel());
            let inst = dev.launch(dlrm::launch(&data, kid)).expect("launch");
            dev.run_until_finished(inst);
            dlrm::verify(&data, dev.memory()).expect("dlrm verifies");
        }
        GpuWorkload::Opt27 | GpuWorkload::Opt30 => {
            let cfg = opt_cfg(workload == GpuWorkload::Opt30);
            let data = opt::generate(cfg, dev.memory_mut());
            let kernels = opt::OptKernels {
                gemv: dev.register_kernel(opt::gemv_kernel()),
                scores: dev.register_kernel(opt::scores_kernel()),
                softmax: dev.register_kernel(opt::softmax_kernel()),
                wsum: dev.register_kernel(opt::weighted_sum_kernel()),
            };
            for (_k, launch) in opt::decode_step_launches(&data, &kernels, spad_units) {
                let inst = dev.launch(launch).expect("launch");
                dev.run_until_finished(inst);
            }
            opt::verify(&data, dev.memory()).expect("opt verifies");
        }
    }
    let cycles = dev.now() - start;
    let ns = platform.freq(dev).ns_from_cycles(cycles);
    RunResult {
        cycles,
        ns,
        stats: dev.stats().delta_since(&stats_at_start),
    }
}

// ----- KVStore helpers of Fig. 10b -----

/// Measures per-request NDP kernel service times (ns) by running `n` GET
/// kernels on a small M²NDP device, one at a time (pure kernel runtime,
/// §IV-C reports a 0.77 µs P95 for the paper's store).
pub fn kvs_service_times_ns(n: usize) -> Vec<f64> {
    use m2ndp::workloads::kvstore;
    let mut dev = m2ndp::SystemBuilder::m2ndp().units(2).build();
    let cfg = kvstore::KvConfig {
        items: 64 << 10,
        buckets: 32 << 10,
        get_ratio: 1.0,
        requests: n,
        zipf_theta: 0.99,
        seed: 0xCB5A,
    };
    let data = kvstore::generate(cfg, dev.memory_mut());
    let kid = dev.register_kernel(kvstore::kernel());
    let freq = dev.config().engine.freq;
    let mut out = Vec::with_capacity(n);
    for (i, &req) in data.requests.clone().iter().enumerate() {
        let start = dev.now();
        let inst = dev
            .launch(kvstore::launch(&data, kid, req, (i % 64) as u32, 0))
            .expect("launch");
        let done = dev.run_until_finished(inst);
        out.push(freq.ns_from_cycles(done - start));
    }
    out
}

/// Baseline host latencies (ns) for the same store: hash on the host plus a
/// dependent load chain over CXL at the given load-to-use latency.
pub fn kvs_baseline_latencies_ns(n: usize, ltu_scale: f64) -> Vec<f64> {
    use m2ndp::host::cpu::{DataHome, HostCpu, HostCpuConfig};
    use m2ndp::workloads::kvstore;
    let mut mem = m2ndp::mem::MainMemory::new();
    let cfg = kvstore::KvConfig {
        items: 64 << 10,
        buckets: 32 << 10,
        get_ratio: 1.0,
        requests: n,
        zipf_theta: 0.99,
        seed: 0xCB5A,
    };
    let data = kvstore::generate(cfg, &mut mem);
    let cpu = HostCpu::new(HostCpuConfig::default().with_ltu_scale(ltu_scale));
    data.requests
        .iter()
        .map(|&r| {
            cpu.chase_latency_ns(
                kvstore::baseline_hops(&data, r),
                kvstore::HOST_HASH_NS,
                DataHome::CxlExpander,
            )
        })
        .collect()
}

/// P95 of a latency sample in ns.
pub fn p95(latencies: &[f64]) -> f64 {
    let mut h = m2ndp::sim::Histogram::new();
    for &l in latencies {
        h.record(l as u64);
    }
    h.percentile(0.95) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m2ndp_runs_and_beats_baseline_on_histo() {
        let m2 = run(Platform::M2ndp, GpuWorkload::Histo256);
        let base = run(Platform::GpuBaseline, GpuWorkload::Histo256);
        let speedup = base.ns / m2.ns;
        // The internal-BW vs link-BW ratio is 6.4; allow a broad band.
        assert!(
            speedup > 2.0,
            "M2NDP should clearly beat the baseline: {speedup:.2}x"
        );
    }
}
