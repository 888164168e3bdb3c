//! The figure sweep subsystem: every reproduced evaluation figure as a set
//! of independent **cells**, a thread-parallel executor, and derived,
//! paper-comparable metrics.
//!
//! A [`CellSpec`] is one point of the figure grid — *figure × platform ×
//! workload × device-variant*. Each cell **builds its own device** and runs
//! to completion without touching shared state, so a sweep executed with
//! `--jobs 8` produces byte-identical results to a serial run (the
//! simulator is deterministic; the only parallelism is across independent
//! devices). [`run_cells`] fans cells out on the shared deterministic pool
//! ([`m2ndp::sim::par`]), [`derive()`] turns raw cell outputs into the
//! ratios the paper reports (speedups, P95 improvements, scaling factors),
//! and [`figure_json`] / [`consolidated_json`] serialize everything through
//! [`crate::json`].
//!
//! Parallelism is a **nested budget** ([`JobBudget`]): `cell_jobs` workers
//! run whole cells concurrently while `fleet_jobs` workers advance the
//! devices *inside* each fleet/serving cell ([`Fleet::set_parallelism`]).
//! `M2NDP_JOBS` / `M2NDP_FLEET_JOBS` set the CLI's defaults; every
//! combination emits byte-identical JSON — only wall-clock changes.
//!
//! The `figures` CLI binary is a thin front over this module, so the row
//! computation for a figure exists exactly once.

use std::sync::atomic::{AtomicUsize, Ordering};

use m2ndp::core::fleet::{Fleet, FleetConfig, SwitchNdp};
use m2ndp::core::LaunchArgs;
use m2ndp::core::{CxlM2ndpDevice, DeviceStats, M2ndpConfig, StatValue};
use m2ndp::cxl::{CxlIoModel, CxlLinkConfig, CxlSwitch, SwitchConfig};
use m2ndp::host::cpu::{DataHome, HostCpu, HostCpuConfig};
use m2ndp::host::nsu::NsuModel;
use m2ndp::host::offload::{OffloadMechanism, OffloadModel};
use m2ndp::host::serve;
use m2ndp::sim::trace::ScaleDir;
use m2ndp::sim::{par, Frequency, Snapshot as _};
use m2ndp::workloads::{dlrm, olap, opt};
use m2ndp::SystemBuilder;

use crate::json::Json;
use crate::platforms::{Platform, Variant, SCALE};
use crate::runner::{
    kvs_baseline_latencies_ns, kvs_service_times_ns, p95, run_on_device, GpuWorkload,
};
use crate::{geomean, table::Table};

/// The figures the sweep harness reproduces (the paper's main evaluation
/// plots; the remaining figures are one-shot analytic tables and stay as
/// plain bench targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FigId {
    /// Fig. 10a — OLAP Evaluate runtimes and speedups.
    Fig10a,
    /// Fig. 10b — KVStore P95 improvement per offload mechanism, each
    /// mechanism serving the store on one device
    /// ([`m2ndp::host::serve::run`]).
    Fig10b,
    /// Fig. 10c — ten GPU workloads, NDP speedups over the GPU baseline.
    Fig10c,
    /// Fig. 11b — the same one-device KVStore serving with CXL.io granted
    /// CXL.mem's 600 ns latency: M²func's light-load tail gain and its
    /// throughput lead over direct MMIO at saturation.
    Fig11b,
    /// Fig. 11c — multi-tenant serving latency–throughput curves on *real*
    /// device simulators: the event-driven runtime
    /// ([`m2ndp::host::serve`]) admits open-loop tenant streams onto a
    /// simulated fleet (1–8 devices behind the switch), one actual kernel
    /// launch per request, per offload mechanism.
    Fig11c,
    /// Fig. 12a — ablation: w/o M²func, w/o fine-grained threading, w/o
    /// address optimization.
    Fig12a,
    /// Fig. 12b — multi-device scaling (1–8 CXL-M²NDPs).
    Fig12b,
    /// Fig. 13a — frequency and load-to-use sensitivity.
    Fig13a,
    /// Fig. 13b — dirty-host-cache (back-invalidation) limit study.
    Fig13b,
    /// Fig. 14a — simulated multi-device fleet scaling (§III-I): real
    /// device simulators behind the switch, offloads and the all-reduce as
    /// switch traffic (the simulated counterpart of Fig. 12b's analytic
    /// model).
    Fig14a,
    /// Fig. 14b — M²NDP-in-switch over passive CXL memories (§III-J) vs
    /// per-device NDP.
    Fig14b,
    /// Fig. 15 — elastic serving: SLO-targeted fleet autoscaling
    /// ([`m2ndp::host::serve::AutoscaleConfig`]) against static fleets on
    /// the same bursty tenants, comparing tail latency and device-time.
    Fig15,
}

impl FigId {
    /// All sweep figures in presentation order.
    pub fn all() -> [FigId; 12] {
        [
            FigId::Fig10a,
            FigId::Fig10b,
            FigId::Fig10c,
            FigId::Fig11b,
            FigId::Fig11c,
            FigId::Fig12a,
            FigId::Fig12b,
            FigId::Fig13a,
            FigId::Fig13b,
            FigId::Fig14a,
            FigId::Fig14b,
            FigId::Fig15,
        ]
    }

    /// Stable identifier, used for `--only` selection and file names.
    pub fn id(self) -> &'static str {
        match self {
            FigId::Fig10a => "fig10a",
            FigId::Fig10b => "fig10b",
            FigId::Fig10c => "fig10c",
            FigId::Fig11b => "fig11b",
            FigId::Fig11c => "fig11c",
            FigId::Fig12a => "fig12a",
            FigId::Fig12b => "fig12b",
            FigId::Fig13a => "fig13a",
            FigId::Fig13b => "fig13b",
            FigId::Fig14a => "fig14a",
            FigId::Fig14b => "fig14b",
            FigId::Fig15 => "fig15",
        }
    }

    /// Human title, printed as the figure's table caption.
    pub fn title(self) -> &'static str {
        match self {
            FigId::Fig10a => "OLAP Evaluate phase (paper: avg 73.4x, up to 128x)",
            FigId::Fig10b => "KVStore P95 improvement (paper: DR 0.58, RB 0.29, M2func 1.39)",
            FigId::Fig10c => "GPU-workload speedups (paper: M2NDP up to 9.71x, avg 6.35x)",
            FigId::Fig11b => "Equal 600 ns CXL.io/CXL.mem latency (paper: M2func up to 63% lower)",
            FigId::Fig11c => {
                "Multi-tenant serving on real device sims (paper Fig. 11a: M2func 47.3x DR tput)"
            }
            FigId::Fig12a => "Ablation (paper: w/o M2func up to 2.41, w/o fine-grained up to 1.51)",
            FigId::Fig12b => "Multi-device scaling (paper: 7.84x DLRM at 8 devices)",
            FigId::Fig13a => "Frequency / LtU sensitivity (paper: 1GHz -10%, 3GHz +2.5%)",
            FigId::Fig13b => "Dirty-host-cache limit (paper: 0.969 / 0.872 / 0.735)",
            FigId::Fig14a => "Simulated fleet scaling, 1-8 devices (paper: Fig. 12b trends)",
            FigId::Fig14b => "NDP-in-switch vs per-device NDP (paper: 6.39-7.38x at 8 memories)",
            FigId::Fig15 => {
                "Elastic serving: SLO autoscaling vs static fleets (must meet P95 SLO cheaper)"
            }
        }
    }

    /// Parses an `--only` token ("fig10c"), case-insensitive.
    pub fn parse(s: &str) -> Option<FigId> {
        let s = s.to_ascii_lowercase();
        FigId::all().into_iter().find(|f| f.id() == s)
    }
}

/// One independent point of a figure's grid. Cells are self-contained: the
/// work description is plain data, and running it builds a fresh device (or
/// a pure analytic model), so any number of cells can execute concurrently.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The figure this cell belongs to.
    pub fig: FigId,
    /// Stable key within the figure, e.g. `"HISTO4096/M2NDP@1ghz"`.
    pub key: String,
    work: Work,
}

/// What a cell actually runs (private: constructed via [`cells`] or the
/// test-support constructors).
#[derive(Debug, Clone)]
enum Work {
    /// A Table V workload on a platform variant (full device simulation).
    Gpu {
        platform: Platform,
        workload: GpuWorkload,
        variant: Variant,
    },
    /// One OLAP query: measured M²NDP Evaluate plus the calibrated host
    /// baselines (Fig. 10a).
    Olap { query: usize },
    /// KVStore GET service-time distribution on the device (Fig. 10b).
    KvsService { requests: usize },
    /// Host-baseline KVStore latency distribution (Fig. 10b).
    KvsBaseline { requests: usize },
    /// One Poisson tenant of KVStore GETs served on one standalone device
    /// under `model`, every request a real kernel launch (Figs. 10b, 11b).
    KvsServe {
        model: OffloadModel,
        rate_per_sec: f64,
        seed: u64,
    },
    /// DLRM with the embedding table partitioned over `devices` (Fig. 12b).
    DlrmPartition { devices: u32 },
    /// OPT decode step tensor-partitioned over `devices` (Fig. 12b).
    OptPartition { big: bool, devices: u32 },
    /// DLRM SLS sharded over a *simulated* fleet of real devices behind
    /// the switch (Fig. 14a; disjoint outputs, no all-reduce).
    FleetDlrm { devices: u32 },
    /// OPT decode step tensor-parallel over a simulated fleet, with the
    /// ring all-reduce as actual switch traffic (Fig. 14a).
    FleetOpt { devices: u32 },
    /// Plain single-device run of the unsharded workload — the parity
    /// reference the 1-device fleet must match within 1% (Fig. 14a).
    FleetSingleRef { opt: bool },
    /// NDP-in-switch processing passive third-party memories through
    /// `memories` populated switch ports (Fig. 14b).
    SwitchNdpRun { memories: u32 },
    /// Multi-tenant serving over a simulated fleet: open-loop tenants,
    /// every request an actual kernel launch routed through the switch
    /// (Fig. 11c). `scheduler` defaults to [`serve::SchedulerKind::StaticFifo`]
    /// (the snapshot-pinned behavior); [`CellSpec::with_scheduler`] swaps it
    /// for the CI scheduler matrix.
    Serve {
        mechanism: OffloadMechanism,
        devices: u32,
        rate_per_sec: f64,
        scheduler: serve::SchedulerKind,
    },
    /// The same tenants served by one standalone device (no switch in the
    /// launch path) — the parity reference for the 1-device fleet.
    ServeSingleRef {
        rate_per_sec: f64,
        scheduler: serve::SchedulerKind,
    },
    /// Elastic serving (Fig. 15): bursty tenants over a replicated store on
    /// an 8-slot fleet, either autoscaled between `(min, max)` active
    /// devices against the P95 SLO or pinned to a static `devices` fleet —
    /// the device-time comparison the autoscaler must win.
    ServeElastic {
        devices: u32,
        rate_per_sec: f64,
        autoscale: Option<(usize, usize)>,
    },
}

/// The bench-scale device every fleet cell instantiates per shard (the
/// paper's Table IV device at `platforms::SCALE`-reduced unit count).
fn fleet_device_cfg() -> M2ndpConfig {
    let mut cfg = M2ndpConfig::default_device();
    cfg.engine.units = 32 / SCALE;
    cfg
}

/// The total DLRM SLS workload the fleet figures shard (matches the
/// Fig. 12b partition cells' shape at batch 256).
fn fleet_dlrm_cfg() -> dlrm::DlrmConfig {
    dlrm::DlrmConfig {
        table_rows: 64 << 10,
        dim: 64,
        lookups: 80,
        batch: 256,
        zipf_theta: 0.9,
        seed: 0xD12A,
    }
}

/// The total OPT decode step the fleet figures tensor-shard.
fn fleet_opt_cfg() -> opt::OptConfig {
    opt::OptConfig {
        hidden: 256,
        heads: 8,
        ffn: 1024,
        layers: 1,
        context: 128,
        seed: 7,
    }
}

/// Fleet-cell labels (fig14a keys are `<label>/fleet<n>`).
const FLEET_DLRM: &str = "DLRM(SLS)-B256";
const FLEET_OPT: &str = "OPT-TP(Gen)";

/// The offered-load grid of the fig11c latency–throughput curves (total
/// req/s across both tenants). The lowest and highest rates are in the
/// fast grid, so the derived light-load and saturation metrics stay
/// mode-stable.
const SERVE_RATES: [f64; 4] = [2e5, 2e6, 2e7, 1e8];

/// Per-tenant SLO threshold of the serving cells (ns).
const SERVE_SLO_NS: f64 = 5_000.0;

/// Stable key fragment for an offered rate ("2e5", "1e8").
fn rate_key(rate: f64) -> String {
    format!("{rate:.0e}")
}

/// The serving cells' device: the Table IV device at 2 units — the same
/// small store-serving configuration the Fig. 10b service-time measurement
/// uses, so per-request kernel runtimes land in the paper's 0.77 µs P95
/// regime.
fn serve_device_cfg() -> M2ndpConfig {
    let mut cfg = M2ndpConfig::default_device();
    cfg.engine.units = 2;
    cfg
}

/// The two open-loop tenants every serving cell runs: a Poisson tenant at
/// 70% of the offered rate and a cycled-trace tenant (bursty ±40% gaps) at
/// 30%.
fn serve_tenants(rate_per_sec: f64) -> Vec<serve::TenantSpec> {
    let trace_mean_gap = 1e9 / (rate_per_sec * 0.3);
    vec![
        serve::TenantSpec::poisson("tenantA", rate_per_sec * 0.7)
            .requests(1000)
            .slo_ns(SERVE_SLO_NS)
            .seed(0x5EA1),
        serve::TenantSpec::trace(
            "tenantB",
            vec![
                0.6 * trace_mean_gap,
                1.0 * trace_mean_gap,
                1.4 * trace_mean_gap,
            ],
        )
        .requests(500)
        .slo_ns(SERVE_SLO_NS)
        .seed(0x5EB2),
    ]
}

/// Offered load of the fig15 elastic-serving cells (total req/s). Chosen so
/// the [`ELASTIC_MIN_DEVICES`]-device fleet is overloaded (its P95 blows
/// through the SLO) while the [`ELASTIC_MAX_DEVICES`]-device fleet is
/// comfortable — the regime where autoscaling has a decision to make.
const ELASTIC_RATE: f64 = 5e6;

/// Static-fleet comparison points and the autoscaler's `(min, max)` range.
const ELASTIC_MIN_DEVICES: usize = 2;
const ELASTIC_MAX_DEVICES: usize = 8;

/// One kernel slot per device in the fig15 cells: the elastic experiment
/// needs queueing (a 48-slot device absorbs any of these rates without a
/// visible queue), so each device serves strictly one request at a time and
/// capacity scales with *active devices* only — exactly the knob the
/// autoscaler controls.
const ELASTIC_DEVICE_SLOTS: u32 = 1;

/// The two fig15 tenants: a steady Poisson tenant that runs the whole cell
/// plus a bursty tenant ([`serve::Arrival::Burst`], 4x rate concentration
/// over 50 us periods) that exhausts its request budget halfway through —
/// a two-phase load shape (full load, then steady-only) that rewards
/// scaling up early and draining devices once the bursts stop.
fn elastic_tenants(rate_per_sec: f64) -> Vec<serve::TenantSpec> {
    vec![
        serve::TenantSpec::poisson("steady", rate_per_sec * 0.6)
            .requests(4800)
            .slo_ns(SERVE_SLO_NS)
            .seed(0x5EC1),
        serve::TenantSpec::burst("bursty", rate_per_sec * 0.4, 4.0, 50_000.0)
            .requests(800)
            .slo_ns(SERVE_SLO_NS)
            .seed(0x5EC2),
    ]
}

/// The fig15 autoscaling policy: steer toward the serving SLO. The window
/// spans roughly one burst period so burst-gap lulls don't read as idle
/// capacity, and the drain threshold sits just above the fleet's light-load
/// P95 (~0.7 us) so devices are released only when the load has genuinely
/// fallen, not between bursts — the hysteresis that keeps the controller
/// from thrashing.
fn elastic_autoscale_cfg(min: usize, max: usize) -> serve::AutoscaleConfig {
    serve::AutoscaleConfig::new(min, max, SERVE_SLO_NS)
        .interval_ns(20_000.0)
        .window(128)
        .scale_down_frac(0.2)
        .cooldown_ticks(1)
}

/// Raw output of one cell.
#[derive(Debug, Clone)]
pub struct CellOut {
    /// The figure the cell belongs to.
    pub fig: FigId,
    /// The cell's key (copied from the spec).
    pub key: String,
    /// Simulated cycles (0 for purely analytic cells).
    pub cycles: u64,
    /// The cell's headline time in nanoseconds (kernel runtime, or P95 for
    /// the latency-distribution cells).
    pub ns: f64,
    /// Device statistics for device-backed cells.
    pub stats: Option<DeviceStats>,
    /// Cell-specific scalar outputs (analytic baselines, extra quantiles).
    pub extra: Vec<(&'static str, f64)>,
}

/// A derived, paper-comparable metric of a figure.
pub type Metric = (String, f64);

impl CellSpec {
    /// Test-support constructor: a cheap, purely analytic KVStore-baseline
    /// cell (used by the determinism integration test; regular callers get
    /// cells from [`cells`]).
    pub fn kvs_baseline_cell(fig: FigId, key: &str, requests: usize) -> CellSpec {
        CellSpec {
            fig,
            key: key.to_string(),
            work: Work::KvsBaseline { requests },
        }
    }

    /// Replaces the scheduler on serving cells (`figures --scheduler`, the
    /// CI scheduler matrix). Non-serving cells and the fig15 elastic cells
    /// (whose scheduler is part of the experiment) are returned unchanged.
    /// The cell key is untouched: with the default
    /// [`serve::SchedulerKind::StaticFifo`] the emitted JSON is pinned by
    /// the snapshot gate; dynamic kinds are gated on determinism instead.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: serve::SchedulerKind) -> CellSpec {
        match &mut self.work {
            Work::Serve { scheduler: s, .. } | Work::ServeSingleRef { scheduler: s, .. } => {
                *s = scheduler;
            }
            _ => {}
        }
        self
    }
}

// ---------------------------------------------------------------------------
// Cell grids per figure
// ---------------------------------------------------------------------------

/// The cell grid of `fig`. `fast` selects the documented fast subset (what
/// CI's smoke job runs); the fast cells are a strict subset of the full
/// grid, so their results are identical in both modes.
pub fn cells(fig: FigId, fast: bool) -> Vec<CellSpec> {
    let gpu = |fig: FigId, p: Platform, w: GpuWorkload, v: Variant| CellSpec {
        fig,
        key: format!("{}/{}{}", w.label(), p.label(), v.key_suffix()),
        work: Work::Gpu {
            platform: p,
            workload: w,
            variant: v,
        },
    };
    match fig {
        FigId::Fig10a => {
            let queries = olap::queries();
            let n = if fast {
                queries.len().min(2)
            } else {
                queries.len()
            };
            (0..n)
                .map(|query| CellSpec {
                    fig,
                    key: queries[query].name.to_string(),
                    work: Work::Olap { query },
                })
                .collect()
        }
        FigId::Fig10b => {
            let mut out = vec![
                CellSpec {
                    fig,
                    key: "service".into(),
                    work: Work::KvsService { requests: 200 },
                },
                CellSpec {
                    fig,
                    key: "baseline".into(),
                    work: Work::KvsBaseline { requests: 4000 },
                },
            ];
            for (mix, seed) in KVS_MIXES {
                for (label, mechanism) in MECHANISMS {
                    out.push(CellSpec {
                        fig,
                        key: format!("{mix}/{label}"),
                        work: Work::KvsServe {
                            model: OffloadModel::with_defaults(mechanism),
                            rate_per_sec: KVS_LIGHT_RATE,
                            seed,
                        },
                    });
                }
            }
            out
        }
        FigId::Fig11b => {
            let seed = KVS_MIXES[0].1;
            EQUAL_LATENCY_CELLS
                .into_iter()
                .map(|(label, mechanism, rate_per_sec)| CellSpec {
                    fig,
                    key: format!("{label}/{}", rate_key(rate_per_sec)),
                    work: Work::KvsServe {
                        model: equal_latency_model(mechanism),
                        rate_per_sec,
                        seed,
                    },
                })
                .collect()
        }
        FigId::Fig10c => {
            let workloads = if fast {
                GpuWorkload::sweep_subset()
            } else {
                GpuWorkload::all()
            };
            let platforms = if fast {
                vec![Platform::GpuBaseline, Platform::M2ndp]
            } else {
                Platform::all()
            };
            workloads
                .iter()
                .flat_map(|&w| {
                    platforms
                        .iter()
                        .map(move |&p| gpu(fig, p, w, Variant::Default))
                })
                .collect()
        }
        FigId::Fig11c => {
            let rates: &[f64] = if fast {
                &[SERVE_RATES[0], SERVE_RATES[3]]
            } else {
                &SERVE_RATES
            };
            let devices: &[u32] = if fast { &[1, 8] } else { &[1, 2, 4, 8] };
            let mut out = vec![CellSpec {
                fig,
                key: format!("single/{}", rate_key(SERVE_RATES[0])),
                work: Work::ServeSingleRef {
                    rate_per_sec: SERVE_RATES[0],
                    scheduler: serve::SchedulerKind::StaticFifo,
                },
            }];
            for &n in devices {
                for (label, mechanism) in MECHANISMS {
                    for &rate in rates {
                        out.push(CellSpec {
                            fig,
                            key: format!("{label}/{n}dev/{}", rate_key(rate)),
                            work: Work::Serve {
                                mechanism,
                                devices: n,
                                rate_per_sec: rate,
                                scheduler: serve::SchedulerKind::StaticFifo,
                            },
                        });
                    }
                }
            }
            out
        }
        FigId::Fig15 => {
            let rk = rate_key(ELASTIC_RATE);
            vec![
                CellSpec {
                    fig,
                    key: format!("autoscale/{ELASTIC_MIN_DEVICES}-{ELASTIC_MAX_DEVICES}dev/{rk}"),
                    work: Work::ServeElastic {
                        devices: ELASTIC_MAX_DEVICES as u32,
                        rate_per_sec: ELASTIC_RATE,
                        autoscale: Some((ELASTIC_MIN_DEVICES, ELASTIC_MAX_DEVICES)),
                    },
                },
                CellSpec {
                    fig,
                    key: format!("static{ELASTIC_MIN_DEVICES}/{rk}"),
                    work: Work::ServeElastic {
                        devices: ELASTIC_MIN_DEVICES as u32,
                        rate_per_sec: ELASTIC_RATE,
                        autoscale: None,
                    },
                },
                CellSpec {
                    fig,
                    key: format!("static{ELASTIC_MAX_DEVICES}/{rk}"),
                    work: Work::ServeElastic {
                        devices: ELASTIC_MAX_DEVICES as u32,
                        rate_per_sec: ELASTIC_RATE,
                        autoscale: None,
                    },
                },
            ]
        }
        FigId::Fig12a => sweep_workloads(fast)
            .into_iter()
            .flat_map(|w| {
                [
                    Variant::Default,
                    Variant::M2CoarseSpawn,
                    Variant::M2NoAddrOpt,
                ]
                .map(|v| gpu(fig, Platform::M2ndp, w, v))
            })
            .collect(),
        FigId::Fig12b => {
            let devices: &[u32] = if fast { &[1, 8] } else { &[1, 2, 4, 8] };
            let mut out = Vec::new();
            for &n in devices {
                out.push(CellSpec {
                    fig,
                    key: format!("DLRM(SLS)-B256/{n}dev"),
                    work: Work::DlrmPartition { devices: n },
                });
                out.push(CellSpec {
                    fig,
                    key: format!("OPT-2.7B(Gen)/{n}dev"),
                    work: Work::OptPartition {
                        big: false,
                        devices: n,
                    },
                });
                if !fast {
                    out.push(CellSpec {
                        fig,
                        key: format!("OPT-30B(Gen)/{n}dev"),
                        work: Work::OptPartition {
                            big: true,
                            devices: n,
                        },
                    });
                }
            }
            out
        }
        FigId::Fig13a => sweep_workloads(fast)
            .into_iter()
            .flat_map(|w| {
                [
                    gpu(fig, Platform::GpuBaseline, w, Variant::Default),
                    gpu(fig, Platform::M2ndp, w, Variant::Default),
                    gpu(fig, Platform::M2ndp, w, Variant::M2FreqMhz(1000)),
                    gpu(fig, Platform::M2ndp, w, Variant::M2FreqMhz(3000)),
                    gpu(fig, Platform::GpuBaseline, w, Variant::BaselineLtuX(2)),
                    gpu(fig, Platform::GpuBaseline, w, Variant::BaselineLtuX(4)),
                ]
            })
            .collect(),
        FigId::Fig14a => {
            let devices: &[u32] = if fast { &[1, 8] } else { &[1, 2, 4, 8] };
            let mut out = vec![
                CellSpec {
                    fig,
                    key: format!("{FLEET_DLRM}/single"),
                    work: Work::FleetSingleRef { opt: false },
                },
                CellSpec {
                    fig,
                    key: format!("{FLEET_OPT}/single"),
                    work: Work::FleetSingleRef { opt: true },
                },
            ];
            for &n in devices {
                out.push(CellSpec {
                    fig,
                    key: format!("{FLEET_DLRM}/fleet{n}"),
                    work: Work::FleetDlrm { devices: n },
                });
                out.push(CellSpec {
                    fig,
                    key: format!("{FLEET_OPT}/fleet{n}"),
                    work: Work::FleetOpt { devices: n },
                });
            }
            out
        }
        FigId::Fig14b => {
            let memories: &[u32] = if fast { &[1, 8] } else { &[1, 2, 4, 8] };
            let mut out: Vec<CellSpec> = memories
                .iter()
                .map(|&m| CellSpec {
                    fig,
                    key: format!("swndp/{m}mem"),
                    work: Work::SwitchNdpRun { memories: m },
                })
                .collect();
            for n in [1u32, 8] {
                out.push(CellSpec {
                    fig,
                    key: format!("perdev/{n}dev"),
                    work: Work::FleetDlrm { devices: n },
                });
            }
            out
        }
        FigId::Fig13b => sweep_workloads(fast)
            .into_iter()
            .flat_map(|w| {
                [
                    gpu(fig, Platform::M2ndp, w, Variant::Default),
                    gpu(fig, Platform::M2ndp, w, Variant::M2DirtyPct(20)),
                    gpu(fig, Platform::M2ndp, w, Variant::M2DirtyPct(40)),
                    gpu(fig, Platform::M2ndp, w, Variant::M2DirtyPct(80)),
                ]
            })
            .collect(),
    }
}

/// Offload mechanisms of Fig. 10b, with their paper labels.
const MECHANISMS: [(&str, OffloadMechanism); 3] = [
    ("CXL.io_DR", OffloadMechanism::CxlIoDirect),
    ("CXL.io_RB", OffloadMechanism::CxlIoRingBuffer),
    ("M2func", OffloadMechanism::M2Func),
];

/// Fig. 10b's KVStore request mixes and their tenant seeds.
const KVS_MIXES: [(&str, u64); 2] = [("KVS_A", 11), ("KVS_B", 13)];

/// Requests of the one-device KVStore offload cells (Figs. 10b, 11b).
const KVS_OFFLOAD_REQUESTS: usize = 10_000;

/// Light offered load of the one-device KVStore offload cells (req/s):
/// below direct-MMIO saturation (~440K/s), as in the paper, where DR
/// degrades the P95 but still serves.
const KVS_LIGHT_RATE: f64 = 2e5;

/// Saturating offered load of fig11b's throughput view (req/s).
const KVS_SAT_RATE: f64 = 1e8;

/// Fig. 11b's cells: every mechanism at light load for the latency view,
/// M²func and direct MMIO at saturation for the throughput view.
const EQUAL_LATENCY_CELLS: [(&str, OffloadMechanism, f64); 5] = [
    ("M2func", OffloadMechanism::M2Func, KVS_LIGHT_RATE),
    (
        "CXL.io_RB",
        OffloadMechanism::CxlIoRingBuffer,
        KVS_LIGHT_RATE,
    ),
    ("CXL.io_DR", OffloadMechanism::CxlIoDirect, KVS_LIGHT_RATE),
    ("M2func", OffloadMechanism::M2Func, KVS_SAT_RATE),
    ("CXL.io_DR", OffloadMechanism::CxlIoDirect, KVS_SAT_RATE),
];

/// Fig. 11b's offload model: CXL.io granted CXL.mem's 600 ns load-to-use
/// latency (300 ns one way), so the protocol's latency advantage is gone
/// and only M²func's fewer round trips and its concurrency remain.
fn equal_latency_model(mechanism: OffloadMechanism) -> OffloadModel {
    OffloadModel::new(
        mechanism,
        CxlLinkConfig::default_150ns().with_ltu_scale(4.0),
        CxlIoModel::with_one_way_ns(300.0),
    )
}

fn sweep_workloads(fast: bool) -> Vec<GpuWorkload> {
    let mut ws = GpuWorkload::sweep_subset();
    if fast {
        ws.truncate(2);
    }
    ws
}

// ---------------------------------------------------------------------------
// Cell execution
// ---------------------------------------------------------------------------

/// The sweep's nested-parallelism budget: how many whole cells run
/// concurrently (`cell_jobs`) and how many workers advance the devices
/// *inside* each fleet-backed cell (`fleet_jobs`, 1 = fleet parallelism
/// off). Both axes only reorder *when* work executes — the emitted JSON is
/// byte-identical at every combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobBudget {
    /// Concurrent cells (the historical `--jobs` axis).
    pub cell_jobs: usize,
    /// Workers per fleet/serving cell ([`Fleet::set_parallelism`]).
    pub fleet_jobs: usize,
}

impl JobBudget {
    /// Everything serial — the bit-stability reference configuration.
    pub fn serial() -> Self {
        Self {
            cell_jobs: 1,
            fleet_jobs: 1,
        }
    }

    /// Splits a total worker budget: `fleet_jobs` workers go to each
    /// fleet's shards, the rest (`total / fleet_jobs` rounded down, at
    /// least 1) to concurrent cells — so `--jobs 8 --fleet-jobs 4` runs 2
    /// cells at a time with 4 device workers each. `fleet_jobs` is its own
    /// axis and is **not** clamped to `total`: `split(1, 4)` keeps cells
    /// serial while still running 4 shard workers inside each fleet cell
    /// (how CI toggles fleet parallelism independently of cell
    /// parallelism), so the peak thread count is `cell_jobs × fleet_jobs`,
    /// which exceeds `total` when `fleet_jobs` does.
    pub fn split(total: usize, fleet_jobs: usize) -> Self {
        let fleet_jobs = fleet_jobs.max(1);
        Self {
            cell_jobs: (total / fleet_jobs).max(1),
            fleet_jobs,
        }
    }
}

/// Runs one cell to completion (building its own device), verifying
/// functional results where the workload defines a check. Fleet-backed
/// cells take their shard worker count from `M2NDP_FLEET_JOBS` (default
/// serial); [`run_cell_with`] sets it explicitly.
///
/// # Panics
/// Panics if a device produces functionally incorrect results.
pub fn run_cell(spec: &CellSpec) -> CellOut {
    run_cell_with(spec, par::env_jobs("M2NDP_FLEET_JOBS").unwrap_or(1))
}

/// [`run_cell`] with an explicit fleet-level worker count for the cells
/// that simulate a multi-device fleet (fig14a, fig11c, and fig14b's
/// per-device-NDP reference cells; fig14b's in-switch cells drive a single
/// device and ignore it, as do all other cells). Results are bit-identical
/// at every `fleet_jobs`.
///
/// # Panics
/// Panics if a device produces functionally incorrect results.
pub fn run_cell_with(spec: &CellSpec, fleet_jobs: usize) -> CellOut {
    let out =
        |cycles: u64, ns: f64, stats: Option<DeviceStats>, extra: Vec<(&'static str, f64)>| {
            CellOut {
                fig: spec.fig,
                key: spec.key.clone(),
                cycles,
                ns,
                stats,
                extra,
            }
        };
    match &spec.work {
        Work::Gpu {
            platform,
            workload,
            variant,
        } => {
            let mut dev = variant.build(*platform);
            let r = run_on_device(&mut dev, *platform, *workload);
            if let Variant::M2DirtyPct(pct) = variant {
                assert!(r.stats.bi_snoops > 0, "BI must fire at {pct}% dirty");
            }
            out(r.cycles, r.ns, Some(r.stats), Vec::new())
        }
        Work::Olap { query } => {
            let queries = olap::queries();
            let query = &queries[*query];
            let cfg = olap::OlapConfig {
                rows: 1 << 20,
                seed: 0x01AF,
            };
            // Fresh device per query (cold caches, as separate query runs).
            let mut dev = SystemBuilder::m2ndp().units(32 / SCALE).build();
            let data = olap::generate(cfg, dev.memory_mut());
            let kid = dev.register_kernel(olap::evaluate_kernel());
            let stats_at_start = dev.stats();
            let start = dev.now();
            for launch in olap::evaluate_launches(&data, query, kid) {
                let inst = dev.launch(launch).expect("launch");
                dev.run_until_finished(inst);
            }
            let cycles = dev.now() - start;
            let ns = dev.config().engine.freq.ns_from_cycles(cycles);
            olap::verify(&data, query, dev.memory()).expect("olap verifies");

            // The calibrated host models (the paper measured a real EPYC
            // for these; see the substitutions note in PAPER.md). Baseline:
            // Polars evaluates one predicate expression at a time on one
            // core, MLP-limited over CXL.
            let host = HostCpu::new(HostCpuConfig::default());
            let single_core_bw = host.config().mlp as f64 * 64.0 / (150e-9) * 0.55;
            let cpu_ndp = HostCpu::new(HostCpuConfig {
                cores: 32 / SCALE,
                ..HostCpuConfig::cpu_ndp()
            });
            let ideal_bw = 409.6e9 / f64::from(SCALE);
            let bytes = olap::evaluate_bytes(&data, query);
            let extra = vec![
                ("baseline_ns", bytes as f64 / single_core_bw * 1e9),
                (
                    "cpu_ndp_ns",
                    bytes as f64 / cpu_ndp.stream_bw(DataHome::DeviceInternal) * 1e9,
                ),
                ("ideal_ns", bytes as f64 / ideal_bw * 1e9),
            ];
            out(
                cycles,
                ns,
                Some(dev.stats().delta_since(&stats_at_start)),
                extra,
            )
        }
        Work::KvsService { requests } => {
            let service = kvs_service_times_ns(*requests);
            let mut h = m2ndp::sim::Histogram::new();
            for &s in &service {
                h.record(s as u64);
            }
            let quantiles = h.quantiles(&[0.5, 0.95]);
            let extra = vec![("p50_ns", quantiles[0] as f64), ("mean_ns", h.mean())];
            out(0, quantiles[1] as f64, None, extra)
        }
        Work::KvsBaseline { requests } => {
            let lat = kvs_baseline_latencies_ns(*requests, 1.0);
            out(0, p95(&lat), None, Vec::new())
        }
        Work::KvsServe {
            model,
            rate_per_sec,
            seed,
        } => {
            // The store the `service` and `baseline` cells measure, on the
            // serving cells' one-device configuration.
            let mut backend =
                serve::ServeBackend::Device(Box::new(CxlM2ndpDevice::new(serve_device_cfg())));
            let mut wl = serve::KvServeWorkload::build(&mut backend, 64 << 10, 0.99);
            let tenant = serve::TenantSpec::poisson("kvs", *rate_per_sec)
                .requests(KVS_OFFLOAD_REQUESTS)
                .seed(*seed);
            let cfg = serve::ServeConfig {
                model: model.clone(),
                ..serve::ServeConfig::with_defaults(model.mechanism())
            };
            let mut report = serve::run(&mut backend, &mut wl, &cfg, &[tenant]);
            let extra = vec![
                ("throughput_rps", report.throughput),
                ("p50_ns", report.combined.percentile(0.5)),
            ];
            out(0, report.combined.percentile(0.95), None, extra)
        }
        Work::DlrmPartition { devices } => {
            let n = *devices;
            let mut dev = SystemBuilder::m2ndp().units(32 / SCALE).build();
            let cfg = dlrm::DlrmConfig {
                table_rows: (64 << 10) / u64::from(n),
                dim: 64,
                lookups: 80 / n.min(80),
                batch: 256,
                zipf_theta: 0.9,
                seed: 0xD12A,
            };
            let data = dlrm::generate(cfg, dev.memory_mut());
            let kid = dev.register_kernel(dlrm::kernel());
            let stats_at_start = dev.stats();
            let start = dev.now();
            let inst = dev.launch(dlrm::launch(&data, kid)).expect("launch");
            dev.run_until_finished(inst);
            let cycles = dev.now() - start;
            let ns = dev.config().engine.freq.ns_from_cycles(cycles);
            out(
                cycles,
                ns,
                Some(dev.stats().delta_since(&stats_at_start)),
                Vec::new(),
            )
        }
        Work::OptPartition { big, devices } => {
            let n = *devices;
            let mut dev = SystemBuilder::m2ndp().units(32 / SCALE).build();
            let full = if *big { 512 } else { 256 };
            let cfg = opt::OptConfig {
                hidden: full,
                heads: 8,
                ffn: (full * 4) / n,
                layers: 1,
                context: 128 / n.min(128),
                seed: 7,
            };
            let data = opt::generate(cfg, dev.memory_mut());
            let kernels = opt::OptKernels {
                gemv: dev.register_kernel(opt::gemv_kernel()),
                scores: dev.register_kernel(opt::scores_kernel()),
                softmax: dev.register_kernel(opt::softmax_kernel()),
                wsum: dev.register_kernel(opt::weighted_sum_kernel()),
            };
            let units = dev.config().engine.units;
            let stats_at_start = dev.stats();
            let start = dev.now();
            for (_k, launch) in opt::decode_step_launches(&data, &kernels, units) {
                let inst = dev.launch(launch).expect("launch");
                dev.run_until_finished(inst);
            }
            let cycles = dev.now() - start;
            let ns = dev.config().engine.freq.ns_from_cycles(cycles);
            out(
                cycles,
                ns,
                Some(dev.stats().delta_since(&stats_at_start)),
                Vec::new(),
            )
        }
        Work::FleetDlrm { devices } => {
            let n = *devices;
            let mut fleet = Fleet::new(FleetConfig {
                devices: n as usize,
                device: fleet_device_cfg(),
                switch: SwitchConfig::default(),
                hdm_bytes_per_device: 1 << 30,
            });
            fleet.set_parallelism(fleet_jobs);
            let shards = dlrm::shard(fleet_dlrm_cfg(), n);
            let mut datas = Vec::new();
            for (d, cfg) in shards.iter().enumerate() {
                let data = dlrm::generate(*cfg, fleet.device_mut(d).memory_mut());
                let kid = fleet.device_mut(d).register_kernel(dlrm::kernel());
                let pool = fleet.shard_base(d);
                fleet
                    .launch_routed(0, pool, dlrm::launch(&data, kid))
                    .expect("offload routes to its shard");
                datas.push(data);
            }
            let run = fleet.run_launched();
            for (d, data) in datas.iter().enumerate() {
                dlrm::verify(data, fleet.device(d).memory()).expect("dlrm shard verifies");
            }
            // SLS outputs are disjoint across shards: no combining step.
            let cycles = run.compute_done;
            let ns = fleet.clock().ns_from_cycles(cycles);
            let extra = vec![
                ("offloads", fleet.switch().host_transfers.get() as f64),
                ("p2p_bytes", fleet.switch().p2p_bytes.get() as f64),
            ];
            out(cycles, ns, Some(fleet.stats()), extra)
        }
        Work::FleetOpt { devices } => {
            let n = *devices;
            let mut fleet = Fleet::new(FleetConfig {
                devices: n as usize,
                device: fleet_device_cfg(),
                switch: SwitchConfig::default(),
                hdm_bytes_per_device: 1 << 30,
            });
            fleet.set_parallelism(fleet_jobs);
            let base = fleet_opt_cfg();
            // Serial per-device setup (generation + kernel registration),
            // then the dependent decode-step sequences simulate
            // shard-parallel on the fleet pool.
            let mut datas = Vec::new();
            let mut seqs: Vec<(u64, Vec<LaunchArgs>)> = Vec::new();
            for (d, cfg) in opt::tensor_parallel(base, n).iter().enumerate() {
                let data = opt::generate(*cfg, fleet.device_mut(d).memory_mut());
                let dev = fleet.device_mut(d);
                let kernels = opt::OptKernels {
                    gemv: dev.register_kernel(opt::gemv_kernel()),
                    scores: dev.register_kernel(opt::scores_kernel()),
                    softmax: dev.register_kernel(opt::softmax_kernel()),
                    wsum: dev.register_kernel(opt::weighted_sum_kernel()),
                };
                let units = dev.config().engine.units;
                let launches = opt::decode_step_launches(&data, &kernels, units)
                    .into_iter()
                    .map(|(_k, launch)| launch)
                    .collect();
                seqs.push((fleet.shard_base(d), launches));
                datas.push(data);
            }
            fleet
                .launch_routed_sequences(seqs)
                .expect("offloads route to their shards");
            for (d, data) in datas.iter().enumerate() {
                opt::verify(data, fleet.device(d).memory()).expect("opt shard verifies");
            }
            let compute_done = fleet.completion();
            let allreduce = if n > 1 {
                opt::tensor_parallel_allreduce_bytes(&base)
            } else {
                0
            };
            let cycles = fleet.ring_allreduce(compute_done, allreduce);
            let ns = fleet.clock().ns_from_cycles(cycles);
            let extra = vec![
                ("allreduce_cycles", (cycles - compute_done) as f64),
                ("offloads", fleet.switch().host_transfers.get() as f64),
                ("p2p_bytes", fleet.switch().p2p_bytes.get() as f64),
            ];
            out(cycles, ns, Some(fleet.stats()), extra)
        }
        Work::FleetSingleRef { opt: is_opt } => {
            // The exact workload the 1-device fleet runs, on a standalone
            // device (no switch in the path) — the parity anchor.
            let mut dev = CxlM2ndpDevice::new(fleet_device_cfg());
            let start = dev.now();
            let done = if *is_opt {
                let data = opt::generate(fleet_opt_cfg(), dev.memory_mut());
                let kernels = opt::OptKernels {
                    gemv: dev.register_kernel(opt::gemv_kernel()),
                    scores: dev.register_kernel(opt::scores_kernel()),
                    softmax: dev.register_kernel(opt::softmax_kernel()),
                    wsum: dev.register_kernel(opt::weighted_sum_kernel()),
                };
                let units = dev.config().engine.units;
                let mut done = start;
                for (_k, launch) in opt::decode_step_launches(&data, &kernels, units) {
                    let inst = dev.launch(launch).expect("launch");
                    done = dev.run_until_finished(inst);
                }
                opt::verify(&data, dev.memory()).expect("opt verifies");
                done
            } else {
                let data = dlrm::generate(fleet_dlrm_cfg(), dev.memory_mut());
                let kid = dev.register_kernel(dlrm::kernel());
                let inst = dev.launch(dlrm::launch(&data, kid)).expect("launch");
                let done = dev.run_until_finished(inst);
                dlrm::verify(&data, dev.memory()).expect("dlrm verifies");
                done
            };
            let cycles = done - start;
            let ns = dev.config().engine.freq.ns_from_cycles(cycles);
            out(cycles, ns, Some(dev.stats()), Vec::new())
        }
        Work::SwitchNdpRun { memories } => {
            let mut sw = SwitchNdp::new(&fleet_device_cfg(), SwitchConfig::default(), *memories);
            let dev = sw.device_mut();
            let data = dlrm::generate(fleet_dlrm_cfg(), dev.memory_mut());
            let kid = dev.register_kernel(dlrm::kernel());
            let start = dev.now();
            let inst = dev.launch(dlrm::launch(&data, kid)).expect("launch");
            let done = dev.run_until_finished(inst);
            dlrm::verify(&data, dev.memory()).expect("dlrm verifies");
            let cycles = done - start;
            let ns = dev.config().engine.freq.ns_from_cycles(cycles);
            let stats = dev.stats();
            let pulled = (stats.link_m2s_bytes + stats.link_s2m_bytes) as f64;
            out(cycles, ns, Some(stats), vec![("port_wire_bytes", pulled)])
        }
        Work::Serve {
            mechanism,
            devices,
            rate_per_sec,
            scheduler,
        } => {
            let backend = serve_fleet_backend(*devices as usize, fleet_jobs);
            let (ns, stats, extra) = run_serve(backend, *mechanism, *rate_per_sec, *scheduler);
            out(0, ns, Some(stats), extra)
        }
        Work::ServeSingleRef {
            rate_per_sec,
            scheduler,
        } => {
            let backend =
                serve::ServeBackend::Device(Box::new(CxlM2ndpDevice::new(serve_device_cfg())));
            let (ns, stats, extra) =
                run_serve(backend, OffloadMechanism::M2Func, *rate_per_sec, *scheduler);
            out(0, ns, Some(stats), extra)
        }
        Work::ServeElastic {
            devices,
            rate_per_sec,
            autoscale,
        } => {
            let (mut report, stats) = elastic_report(*devices, *rate_per_sec, *autoscale, false);
            let (ns, extra) = elastic_outputs(&mut report);
            out(0, ns, Some(stats), extra)
        }
    }
}

/// Builds the fig11c/fig15 fleet backend (`devices` real device sims behind
/// the switch) at the given shard parallelism.
fn serve_fleet_backend(devices: usize, fleet_jobs: usize) -> serve::ServeBackend {
    let mut fleet = Fleet::new(FleetConfig {
        devices,
        device: serve_device_cfg(),
        switch: SwitchConfig::default(),
        hdm_bytes_per_device: 1 << 30,
    });
    fleet.set_parallelism(fleet_jobs);
    serve::ServeBackend::Fleet(Box::new(fleet))
}

/// Runs one serving cell: builds the KV store inside the backend (sharded
/// for the home-routing schedulers, replicated for the dynamic ones),
/// serves the two open-loop tenants (every request a real kernel launch),
/// and returns (P95 ns, device stats, scalar outputs).
fn run_serve(
    mut backend: serve::ServeBackend,
    mechanism: OffloadMechanism,
    rate_per_sec: f64,
    scheduler: serve::SchedulerKind,
) -> (f64, DeviceStats, Vec<(&'static str, f64)>) {
    let cfg = serve::ServeConfig::with_defaults(mechanism).scheduler(scheduler);
    let tenants = serve_tenants(rate_per_sec);
    let mut report = if scheduler.is_dynamic() {
        let mut wl =
            serve::ReplicatedKvServeWorkload::build(&mut backend, serve::KV_ITEMS_PER_DEVICE, 0.99);
        serve::run(&mut backend, &mut wl, &cfg, &tenants)
    } else {
        let mut wl = serve::KvServeWorkload::build(&mut backend, serve::KV_ITEMS_PER_DEVICE, 0.99);
        serve::run(&mut backend, &mut wl, &cfg, &tenants)
    };
    let stats = match &backend {
        serve::ServeBackend::Device(d) => d.stats(),
        serve::ServeBackend::Fleet(f) => f.stats(),
    };
    let p95 = report.combined.percentile(0.95);
    let p50 = report.combined.percentile(0.5);
    let slo: u64 = report.tenants.iter().map(|t| t.slo_violations).sum();
    let max_out = report.max_outstanding.iter().copied().max().unwrap_or(0);
    let extra = vec![
        ("throughput_rps", report.throughput),
        ("offered_rps", report.offered_per_sec),
        ("p50_ns", p50),
        (
            "tenant_a_p95_ns",
            report.tenants[0].latencies.percentile(0.95),
        ),
        (
            "tenant_b_p95_ns",
            report.tenants[1].latencies.percentile(0.95),
        ),
        ("slo_violations", slo as f64),
        ("max_outstanding", f64::from(max_out)),
        ("launches", report.launches as f64),
    ];
    (p95, stats, extra)
}

/// Runs one fig15 elastic cell: bursty tenants over the *replicated* KV
/// store (the dynamic scheduling path requires every device to be able to
/// serve every key) with the [`serve::SchedulerKind::ShortestQueue`]
/// scheduler, optionally autoscaled between `(min, max)` active devices.
fn elastic_report(
    devices: u32,
    rate_per_sec: f64,
    autoscale: Option<(usize, usize)>,
    trace: bool,
) -> (serve::ServeReport, DeviceStats) {
    let mut backend = serve_fleet_backend(devices as usize, 1);
    let mut wl =
        serve::ReplicatedKvServeWorkload::build(&mut backend, serve::KV_ITEMS_PER_DEVICE, 0.99);
    let mut cfg = serve::ServeConfig::with_defaults(OffloadMechanism::M2Func)
        .scheduler(serve::SchedulerKind::ShortestQueue)
        .device_slots(ELASTIC_DEVICE_SLOTS)
        .trace(trace);
    if let Some((min, max)) = autoscale {
        cfg = cfg.autoscale(elastic_autoscale_cfg(min, max));
    }
    let report = serve::run(&mut backend, &mut wl, &cfg, &elastic_tenants(rate_per_sec));
    let stats = match &backend {
        serve::ServeBackend::Device(d) => d.stats(),
        serve::ServeBackend::Fleet(f) => f.stats(),
    };
    (report, stats)
}

/// Extracts one fig15 cell's headline (P95 ns) and scalar outputs,
/// including the device-time integral and the scale-event counts the
/// derived device-hours metrics are built from.
fn elastic_outputs(report: &mut serve::ServeReport) -> (f64, Vec<(&'static str, f64)>) {
    let p95 = report.combined.percentile(0.95);
    let slo: u64 = report.tenants.iter().map(|t| t.slo_violations).sum();
    let count = |dir: ScaleDir| report.scale_events.iter().filter(|e| e.dir == dir).count() as f64;
    let extra = vec![
        ("throughput_rps", report.throughput),
        ("offered_rps", report.offered_per_sec),
        ("p50_ns", report.combined.percentile(0.5)),
        ("slo_violations", slo as f64),
        ("launches", report.launches as f64),
        ("device_time_ms", report.device_time_ns / 1e6),
        ("scale_ups", count(ScaleDir::Up)),
        ("drains", count(ScaleDir::DrainStart)),
    ];
    (p95, extra)
}

/// Re-runs one serving cell with tracing on and returns its Chrome
/// trace-event JSON (`None` for non-serving cells). Tracing is opt-in and
/// additive: the traced re-run buffers events on the side while the
/// simulation itself stays deterministic, so the untraced sweep results
/// are unaffected. Used by `figures --trace DIR`.
pub fn traced_cell_json(cell: &CellSpec, fleet_jobs: usize) -> Option<Json> {
    let (mechanism, devices, rate_per_sec, scheduler) = match cell.work {
        Work::Serve {
            mechanism,
            devices,
            rate_per_sec,
            scheduler,
        } => (mechanism, devices as usize, rate_per_sec, scheduler),
        Work::ServeSingleRef {
            rate_per_sec,
            scheduler,
        } => (OffloadMechanism::M2Func, 0, rate_per_sec, scheduler),
        Work::ServeElastic {
            devices,
            rate_per_sec,
            autoscale,
        } => {
            let (report, _) = elastic_report(devices, rate_per_sec, autoscale, true);
            return Some(report.chrome_trace());
        }
        _ => return None,
    };
    let mut backend = if devices == 0 {
        serve::ServeBackend::Device(Box::new(CxlM2ndpDevice::new(serve_device_cfg())))
    } else {
        serve_fleet_backend(devices, fleet_jobs)
    };
    let cfg = serve::ServeConfig::with_defaults(mechanism)
        .scheduler(scheduler)
        .trace(true);
    let tenants = serve_tenants(rate_per_sec);
    let report = if scheduler.is_dynamic() {
        let mut wl =
            serve::ReplicatedKvServeWorkload::build(&mut backend, serve::KV_ITEMS_PER_DEVICE, 0.99);
        serve::run(&mut backend, &mut wl, &cfg, &tenants)
    } else {
        let mut wl = serve::KvServeWorkload::build(&mut backend, serve::KV_ITEMS_PER_DEVICE, 0.99);
        serve::run(&mut backend, &mut wl, &cfg, &tenants)
    };
    Some(report.chrome_trace())
}

/// Executes `cells` under a [`JobBudget`] — `budget.cell_jobs` concurrent
/// cells, `budget.fleet_jobs` device workers inside each fleet cell — and
/// returns outputs **in cell order** (independent of completion order) via
/// [`m2ndp::sim::par::map_ordered`]. Every budget produces identical
/// [`CellOut`]s.
///
/// `verbose` prints per-cell progress (with wall time) to stderr; stdout
/// and the emitted JSON stay byte-stable.
///
/// # Panics
/// Propagates a panic from any cell (e.g. a workload verification
/// failure); the pool drains without deadlocking first.
pub fn run_cells_budget(cells: &[CellSpec], budget: JobBudget, verbose: bool) -> Vec<CellOut> {
    let done = AtomicUsize::new(0);
    par::map_ordered(cells, budget.cell_jobs, |cell| {
        let t0 = std::time::Instant::now();
        let out = run_cell_with(cell, budget.fleet_jobs);
        if verbose {
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!(
                "[{n}/{}] {} {:<32} {:>8.0} us simulated, {:.0} ms wall",
                cells.len(),
                cell.fig.id(),
                cell.key,
                out.ns / 1e3,
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
        out
    })
}

/// Executes `cells` on up to `jobs` cell-level workers and returns outputs
/// **in cell order**. Thin wrapper over [`run_cells_budget`]; fleet-level
/// parallelism comes from `M2NDP_FLEET_JOBS` (default serial). Identical
/// output for any job count.
///
/// # Panics
/// Propagates a panic from any cell (e.g. a workload verification failure).
pub fn run_cells(cells: &[CellSpec], jobs: usize, verbose: bool) -> Vec<CellOut> {
    let fleet_jobs = par::env_jobs("M2NDP_FLEET_JOBS").unwrap_or(1);
    run_cells_budget(cells, JobBudget::split(jobs.max(1), fleet_jobs), verbose)
}

// ---------------------------------------------------------------------------
// Derived metrics
// ---------------------------------------------------------------------------

fn find<'a>(outs: &'a [CellOut], key: &str) -> Option<&'a CellOut> {
    outs.iter().find(|o| o.key == key)
}

fn extra(out: &CellOut, name: &str) -> f64 {
    out.extra
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(f64::NAN)
}

/// Computes the figure's paper-comparable metrics from its cell outputs.
/// Works on any subset grid (fast mode): per-cell metrics whose inputs are
/// missing are simply not emitted and keep identical values across modes
/// (cells are deterministic and self-contained). Aggregates (geomeans,
/// averages) cover whatever cells are present — the golden bands therefore
/// anchor on per-workload metrics and on `geomean_speedup_fast4`, which is
/// computed over the same four workloads in both modes.
pub fn derive(fig: FigId, outs: &[CellOut]) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    match fig {
        FigId::Fig10a => {
            let mut speedups = Vec::new();
            let mut fractions = Vec::new();
            for o in outs {
                let speedup = extra(o, "baseline_ns") / o.ns;
                let fraction = extra(o, "ideal_ns") / o.ns;
                m.push((format!("speedup/{}", o.key), speedup));
                m.push((
                    format!("cpu_ndp_speedup/{}", o.key),
                    extra(o, "baseline_ns") / extra(o, "cpu_ndp_ns"),
                ));
                m.push((format!("ideal_fraction/{}", o.key), fraction));
                speedups.push(speedup);
                fractions.push(fraction);
            }
            m.push(("geomean_speedup".into(), geomean(&speedups)));
            m.push((
                "avg_ideal_fraction".into(),
                fractions.iter().sum::<f64>() / fractions.len().max(1) as f64,
            ));
        }
        FigId::Fig10b => {
            let baseline = find(outs, "baseline").map(|o| o.ns);
            if let Some(service) = find(outs, "service") {
                m.push(("service_p95_ns".into(), service.ns));
                m.push(("service_p50_ns".into(), extra(service, "p50_ns")));
            }
            if let Some(b) = baseline {
                m.push(("baseline_p95_ns".into(), b));
            }
            for mix in ["KVS_A", "KVS_B"] {
                for (label, _) in MECHANISMS {
                    if let (Some(o), Some(b)) = (find(outs, &format!("{mix}/{label}")), baseline) {
                        m.push((format!("p95_ns/{mix}/{label}"), o.ns));
                        m.push((format!("improvement/{mix}/{label}"), b / o.ns));
                    }
                }
            }
        }
        FigId::Fig10c => {
            let nsu = NsuModel::default();
            let mut m2_speedups = Vec::new();
            let mut fast4 = Vec::new();
            for w in GpuWorkload::all() {
                let Some(base) = find(outs, &format!("{}/Baseline", w.label())) else {
                    continue;
                };
                for p in Platform::all().into_iter().skip(1) {
                    let Some(o) = find(outs, &format!("{}/{}", w.label(), p.label())) else {
                        continue;
                    };
                    let s = base.ns / o.ns;
                    m.push((format!("speedup/{}/{}", w.label(), p.label()), s));
                    if p == Platform::M2ndp {
                        m2_speedups.push(s);
                        if GpuWorkload::sweep_subset().contains(&w) {
                            fast4.push(s);
                        }
                    }
                }
                // NSU: host generates every NDP address; one 32 B access per
                // command over the link. The data volume is what the baseline
                // moved across the link (its data is CXL-resident).
                if let Some(stats) = &base.stats {
                    let data_bytes = (stats.link_m2s_bytes + stats.link_s2m_bytes).max(1);
                    let nsu_runtime = nsu.runtime_s(data_bytes / 32, data_bytes, 0);
                    m.push((
                        format!("nsu_speedup/{}", w.label()),
                        (base.ns * 1e-9) / nsu_runtime,
                    ));
                }
            }
            if !m2_speedups.is_empty() {
                m.push(("geomean_speedup/M2NDP".into(), geomean(&m2_speedups)));
            }
            if fast4.len() == GpuWorkload::sweep_subset().len() {
                // Stable across fast/full modes: always the same 4 workloads.
                m.push(("geomean_speedup_fast4/M2NDP".into(), geomean(&fast4)));
            }
        }
        FigId::Fig11b => {
            let (low, sat) = (rate_key(KVS_LIGHT_RATE), rate_key(KVS_SAT_RATE));
            // Light-load tail gain: the fraction of the ring buffer's P95
            // that M2func removes (paper: up to 63%).
            if let (Some(m2), Some(rb)) = (
                find(outs, &format!("M2func/{low}")),
                find(outs, &format!("CXL.io_RB/{low}")),
            ) {
                m.push(("p95_gain/M2func_vs_RB".into(), 1.0 - m2.ns / rb.ns));
            }
            if let (Some(m2), Some(dr)) = (
                find(outs, &format!("M2func/{sat}")),
                find(outs, &format!("CXL.io_DR/{sat}")),
            ) {
                m.push((
                    "sat_throughput_ratio/M2func_vs_DR".into(),
                    extra(m2, "throughput_rps") / extra(dr, "throughput_rps"),
                ));
            }
        }
        FigId::Fig11c => {
            let low = rate_key(SERVE_RATES[0]);
            let sat = rate_key(SERVE_RATES[3]);
            for n in [1u32, 2, 4, 8] {
                for (label, _) in MECHANISMS {
                    for rate in SERVE_RATES {
                        let rk = rate_key(rate);
                        if let Some(o) = find(outs, &format!("{label}/{n}dev/{rk}")) {
                            m.push((format!("p95_ns/{label}/{n}dev/{rk}"), o.ns));
                            m.push((
                                format!("throughput/{label}/{n}dev/{rk}"),
                                extra(o, "throughput_rps"),
                            ));
                        }
                    }
                }
                // Sustained-throughput ratio at the saturating offered rate
                // (the paper's 47.3x M2func-vs-direct claim, Fig. 11a).
                if let (Some(m2), Some(dr)) = (
                    find(outs, &format!("M2func/{n}dev/{sat}")),
                    find(outs, &format!("CXL.io_DR/{n}dev/{sat}")),
                ) {
                    m.push((
                        format!("sat_throughput_ratio/M2func_vs_DR/{n}dev"),
                        extra(m2, "throughput_rps") / extra(dr, "throughput_rps"),
                    ));
                }
                // Light-load tail inflation of the ring buffer.
                if let (Some(m2), Some(rb)) = (
                    find(outs, &format!("M2func/{n}dev/{low}")),
                    find(outs, &format!("CXL.io_RB/{n}dev/{low}")),
                ) {
                    m.push((format!("p95_ratio/RB_vs_M2func/{n}dev"), rb.ns / m2.ns));
                }
            }
            // Single-device vs fleet-of-1 parity: the same tenants and
            // store, with only the switch hop in between.
            if let (Some(s), Some(f1)) = (
                find(outs, &format!("single/{low}")),
                find(outs, &format!("M2func/1dev/{low}")),
            ) {
                m.push(("parity/single_vs_fleet1".into(), s.ns / f1.ns));
            }
        }
        FigId::Fig12a => {
            // w/o M²func is analytic: same kernels, ring-buffer launch
            // overhead instead of an M²func store.
            let rb = OffloadModel::with_defaults(OffloadMechanism::CxlIoRingBuffer);
            let m2f = OffloadModel::with_defaults(OffloadMechanism::M2Func);
            let launch_extra_ns = rb.overhead_ns() - m2f.overhead_ns();
            for w in GpuWorkload::all() {
                let Some(base) = find(outs, &format!("{}/M2NDP", w.label())) else {
                    continue;
                };
                m.push((
                    format!("norm_runtime/{}/wo_m2func", w.label()),
                    (base.ns + launch_extra_ns) / base.ns,
                ));
                if let Some(o) = find(outs, &format!("{}/M2NDP@coarse", w.label())) {
                    m.push((
                        format!("norm_runtime/{}/wo_finegrained", w.label()),
                        o.ns / base.ns,
                    ));
                }
                if let Some(o) = find(outs, &format!("{}/M2NDP@noaddr", w.label())) {
                    m.push((
                        format!("norm_runtime/{}/wo_addropt", w.label()),
                        o.ns / base.ns,
                    ));
                }
            }
        }
        FigId::Fig12b => {
            for (wl, allreduce_bytes) in [
                ("DLRM(SLS)-B256", 4096u64),
                ("OPT-2.7B(Gen)", 256 * 4),
                ("OPT-30B(Gen)", 512 * 4),
            ] {
                let Some(single) = find(outs, &format!("{wl}/1dev")) else {
                    continue;
                };
                for n in [1u32, 2, 4, 8] {
                    let Some(o) = find(outs, &format!("{wl}/{n}dev")) else {
                        continue;
                    };
                    // Each device runs its 1/N partition (`o.cycles`), then
                    // the devices combine through a ring all-reduce over
                    // the switch (free for one device). DLRM: disjoint
                    // outputs, negligible combine; OPT: hidden-sized
                    // all-reduce per layer.
                    let allreduce = CxlSwitch::new(SwitchConfig::default(), Frequency::ghz(2.0))
                        .ring_allreduce(0, n as usize, allreduce_bytes);
                    m.push((
                        format!("speedup/{wl}/{n}dev"),
                        single.cycles as f64 / (o.cycles + allreduce) as f64,
                    ));
                }
            }
        }
        FigId::Fig13a => {
            let cols = ["default", "1ghz", "3ghz", "ltu2x", "ltu4x"];
            let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
            for w in GpuWorkload::all() {
                let w = w.label();
                let (Some(base), Some(m2)) = (
                    find(outs, &format!("{w}/Baseline")),
                    find(outs, &format!("{w}/M2NDP")),
                ) else {
                    continue;
                };
                let cells = [
                    Some(base.ns / m2.ns),
                    find(outs, &format!("{w}/M2NDP@1ghz")).map(|o| base.ns / o.ns),
                    find(outs, &format!("{w}/M2NDP@3ghz")).map(|o| base.ns / o.ns),
                    find(outs, &format!("{w}/Baseline@ltu2x")).map(|o| o.ns / m2.ns),
                    find(outs, &format!("{w}/Baseline@ltu4x")).map(|o| o.ns / m2.ns),
                ];
                for ((col, v), acc) in cols.iter().zip(cells).zip(per_col.iter_mut()) {
                    if let Some(v) = v {
                        m.push((format!("speedup/{w}/{col}"), v));
                        acc.push(v);
                    }
                }
            }
            for (col, vals) in cols.iter().zip(per_col) {
                if !vals.is_empty() {
                    m.push((format!("geomean/{col}"), geomean(&vals)));
                }
            }
        }
        FigId::Fig13b => {
            let mut per_pct: Vec<(u32, Vec<f64>)> = [20u32, 40, 80].map(|p| (p, Vec::new())).into();
            for w in GpuWorkload::all() {
                let w = w.label();
                let Some(clean) = find(outs, &format!("{w}/M2NDP")) else {
                    continue;
                };
                for (pct, acc) in &mut per_pct {
                    if let Some(o) = find(outs, &format!("{w}/M2NDP@dirty{pct}")) {
                        let norm = clean.ns / o.ns;
                        m.push((format!("norm_runtime/{w}/dirty{pct}"), norm));
                        acc.push(norm);
                    }
                }
            }
            for (pct, vals) in per_pct {
                if !vals.is_empty() {
                    m.push((format!("geomean/dirty{pct}"), geomean(&vals)));
                }
            }
        }
        FigId::Fig14a => {
            for wl in [FLEET_DLRM, FLEET_OPT] {
                let base = find(outs, &format!("{wl}/fleet1"));
                if let (Some(s), Some(b)) = (find(outs, &format!("{wl}/single")), base) {
                    // The 1% single-vs-fleet acceptance gate: a standalone
                    // device and the fleet-of-1 run the same shard, so the
                    // only divergence allowed is the offload routing skew.
                    m.push((format!("parity/{wl}"), s.cycles as f64 / b.cycles as f64));
                }
                let Some(base) = base else { continue };
                for n in [1u32, 2, 4, 8] {
                    let Some(o) = find(outs, &format!("{wl}/fleet{n}")) else {
                        continue;
                    };
                    m.push((
                        format!("speedup/{wl}/{n}dev"),
                        base.cycles as f64 / o.cycles as f64,
                    ));
                    if o.extra.iter().any(|(name, _)| *name == "allreduce_cycles") {
                        m.push((
                            format!("allreduce_frac/{wl}/{n}dev"),
                            extra(o, "allreduce_cycles") / o.cycles as f64,
                        ));
                    }
                }
            }
        }
        FigId::Fig14b => {
            let one = find(outs, "swndp/1mem");
            for n in [1u32, 2, 4, 8] {
                if let (Some(o), Some(one)) = (find(outs, &format!("swndp/{n}mem")), one) {
                    m.push((
                        format!("speedup/swndp/{n}mem"),
                        one.cycles as f64 / o.cycles as f64,
                    ));
                }
            }
            if let (Some(p1), Some(p8)) = (find(outs, "perdev/1dev"), find(outs, "perdev/8dev")) {
                m.push((
                    "speedup/perdev/8dev".into(),
                    p1.cycles as f64 / p8.cycles as f64,
                ));
            }
            // The §III-J trade: the in-switch NDP at 8 passive memories vs
            // 8 full NDP devices, same total workload (>1 means per-device
            // NDP is slower, i.e. the switch integration holds up).
            if let (Some(p8), Some(s8)) = (find(outs, "perdev/8dev"), find(outs, "swndp/8mem")) {
                m.push((
                    "perdev_vs_swndp/8".into(),
                    p8.cycles as f64 / s8.cycles as f64,
                ));
            }
        }
        FigId::Fig15 => {
            let rk = rate_key(ELASTIC_RATE);
            let auto_key = format!("autoscale/{ELASTIC_MIN_DEVICES}-{ELASTIC_MAX_DEVICES}dev/{rk}");
            let configs = [
                ("autoscale", auto_key.clone()),
                ("static_min", format!("static{ELASTIC_MIN_DEVICES}/{rk}")),
                ("static_max", format!("static{ELASTIC_MAX_DEVICES}/{rk}")),
            ];
            for (name, key) in &configs {
                if let Some(o) = find(outs, key) {
                    // < 1 means the configuration meets the P95 SLO.
                    m.push((format!("p95_slo_ratio/{name}"), o.ns / SERVE_SLO_NS));
                    m.push((format!("device_time_ms/{name}"), extra(o, "device_time_ms")));
                    m.push((format!("throughput/{name}"), extra(o, "throughput_rps")));
                }
            }
            if let (Some(a), Some(s)) = (
                find(outs, &auto_key),
                find(outs, &format!("static{ELASTIC_MAX_DEVICES}/{rk}")),
            ) {
                // The acceptance claim: the autoscaled fleet spends fewer
                // device-hours than the static max-size fleet (< 1).
                m.push((
                    "device_time_ratio/autoscale_vs_static_max".into(),
                    extra(a, "device_time_ms") / extra(s, "device_time_ms"),
                ));
            }
            if let Some(a) = find(outs, &auto_key) {
                m.push(("scale_ups/autoscale".into(), extra(a, "scale_ups")));
                m.push(("drains/autoscale".into(), extra(a, "drains")));
            }
        }
    }
    m
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn stats_json(stats: &DeviceStats) -> Json {
    Json::Obj(
        stats
            .metrics()
            .into_iter()
            .map(|(name, v)| {
                let j = match v {
                    StatValue::U64(u) => Json::U64(u),
                    StatValue::F64(f) => Json::F64(f),
                };
                (name.to_string(), j)
            })
            .collect(),
    )
}

/// Serializes one cell exactly as it appears in the per-figure JSON
/// (`key`, `cycles`, `ns`, `extra`, `stats`). Public so the snapshot
/// staleness gate (`figures --snapshot`) can compare freshly computed
/// cells against the committed `BENCH_RESULTS.json` structurally.
pub fn cell_json(out: &CellOut) -> Json {
    let mut pairs = vec![
        ("key".to_string(), Json::Str(out.key.clone())),
        ("cycles".to_string(), Json::U64(out.cycles)),
        ("ns".to_string(), Json::F64(out.ns)),
    ];
    if !out.extra.is_empty() {
        pairs.push((
            "extra".to_string(),
            Json::Obj(
                out.extra
                    .iter()
                    .map(|(n, v)| (n.to_string(), Json::F64(*v)))
                    .collect(),
            ),
        ));
    }
    if let Some(stats) = &out.stats {
        pairs.push(("stats".to_string(), stats_json(stats)));
    }
    Json::Obj(pairs)
}

/// Serializes one figure's results (cells + derived metrics).
pub fn figure_json(fig: FigId, outs: &[CellOut], metrics: &[Metric]) -> Json {
    Json::Obj(vec![
        ("figure".to_string(), Json::Str(fig.id().to_string())),
        ("title".to_string(), Json::Str(fig.title().to_string())),
        ("scale".to_string(), Json::U64(u64::from(SCALE))),
        (
            "cells".to_string(),
            Json::Arr(outs.iter().map(cell_json).collect()),
        ),
        (
            "metrics".to_string(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::F64(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// Serializes a whole sweep: `figures` maps figure id → [`figure_json`].
/// Contains no timestamps or wall-clock data, so identical simulations
/// produce identical bytes.
pub fn consolidated_json(results: &[(FigId, Vec<CellOut>, Vec<Metric>)], fast: bool) -> Json {
    Json::Obj(vec![
        ("schema_version".to_string(), Json::U64(1)),
        (
            "generator".to_string(),
            Json::Str("m2ndp_bench figures".to_string()),
        ),
        ("scale".to_string(), Json::U64(u64::from(SCALE))),
        ("fast".to_string(), Json::Bool(fast)),
        (
            "figures".to_string(),
            Json::Obj(
                results
                    .iter()
                    .map(|(fig, outs, metrics)| {
                        (fig.id().to_string(), figure_json(*fig, outs, metrics))
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Flattens sweep results into `figid/metric` paths — the input format of
/// the golden tolerance checker ([`crate::golden`]).
pub fn consolidated_metrics(results: &[(FigId, Vec<CellOut>, Vec<Metric>)]) -> Vec<Metric> {
    results
        .iter()
        .flat_map(|(fig, _, metrics)| {
            metrics
                .iter()
                .map(move |(n, v)| (format!("{}/{}", fig.id(), n), *v))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table printing (what the bench targets show)
// ---------------------------------------------------------------------------

fn metric(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

fn fmt_or_dash(v: Option<f64>, f: impl Fn(f64) -> String) -> String {
    v.map(f).unwrap_or_else(|| "-".into())
}

/// Prints the figure as the console table its bench target historically
/// printed, from sweep outputs (no recomputation).
pub fn print_figure(fig: FigId, outs: &[CellOut], metrics: &[Metric]) {
    match fig {
        FigId::Fig10a => {
            let mut t = Table::new(vec![
                "query",
                "Baseline eval (us)",
                "CPU-NDP eval (us)",
                "M2NDP eval (us)",
                "Ideal eval (us)",
                "M2NDP speedup",
                "CPU-NDP speedup",
            ]);
            for o in outs {
                t.row(vec![
                    o.key.clone(),
                    format!("{:.0}", extra(o, "baseline_ns") / 1e3),
                    format!("{:.0}", extra(o, "cpu_ndp_ns") / 1e3),
                    format!("{:.0}", o.ns / 1e3),
                    format!("{:.0}", extra(o, "ideal_ns") / 1e3),
                    fmt_or_dash(metric(metrics, &format!("speedup/{}", o.key)), |v| {
                        format!("{v:.0}x")
                    }),
                    fmt_or_dash(
                        metric(metrics, &format!("cpu_ndp_speedup/{}", o.key)),
                        |v| format!("{v:.0}x"),
                    ),
                ]);
            }
            t.print("Fig. 10a — OLAP Evaluate phase at bench scale (units / 4)");
            if let Some(g) = metric(metrics, "geomean_speedup") {
                println!(
                    "M2NDP Evaluate speedup geomean: {g:.0}x at 1/{SCALE} unit scale -> ~{:.0}x at \
                     the paper's 32 units (paper: avg 73.4x, up to 128x)",
                    g * f64::from(SCALE)
                );
            }
            if let Some(f) = metric(metrics, "avg_ideal_fraction") {
                println!(
                    "M2NDP achieved {:.0}% of Ideal-NDP bandwidth on average (paper: within \
                     10.3%, 90.7% DRAM BW)",
                    f * 100.0
                );
            }
        }
        FigId::Fig10b => {
            if let (Some(p50), Some(p95)) = (
                metric(metrics, "service_p50_ns"),
                metric(metrics, "service_p95_ns"),
            ) {
                println!(
                    "measured NDP kernel runtime: p50 {p50:.0} ns, p95 {p95:.0} ns (paper: 0.77 \
                     us P95)"
                );
            }
            for mix in ["KVS_A", "KVS_B"] {
                let mut t = Table::new(vec![
                    "configuration",
                    "P95 (ns)",
                    "improvement over baseline",
                ]);
                t.row(vec![
                    "Baseline (host walks table over CXL)".to_string(),
                    fmt_or_dash(metric(metrics, "baseline_p95_ns"), |v| format!("{v:.0}")),
                    "1.00".into(),
                ]);
                for (label, _) in MECHANISMS {
                    t.row(vec![
                        format!("M2uthread + {label}"),
                        fmt_or_dash(metric(metrics, &format!("p95_ns/{mix}/{label}")), |v| {
                            format!("{v:.0}")
                        }),
                        fmt_or_dash(
                            metric(metrics, &format!("improvement/{mix}/{label}")),
                            |v| format!("{v:.2}"),
                        ),
                    ]);
                }
                t.print(&format!(
                    "Fig. 10b — {mix} P95 latency improvement (paper: DR 0.58, RB 0.29, M2func 1.39)"
                ));
            }
        }
        FigId::Fig10c => {
            let workloads: Vec<GpuWorkload> = GpuWorkload::all()
                .into_iter()
                .filter(|w| find(outs, &format!("{}/Baseline", w.label())).is_some())
                .collect();
            let platforms: Vec<Platform> = Platform::all()
                .into_iter()
                .skip(1)
                .filter(|p| {
                    workloads
                        .iter()
                        .any(|w| find(outs, &format!("{}/{}", w.label(), p.label())).is_some())
                })
                .collect();
            let mut headers: Vec<String> = vec!["workload".into()];
            headers.extend(platforms.iter().map(|p| p.label().to_string()));
            headers.push("NSU".into());
            let mut t = Table::new(headers);
            for w in &workloads {
                let mut cells = vec![w.label().to_string()];
                for p in &platforms {
                    cells.push(fmt_or_dash(
                        metric(metrics, &format!("speedup/{}/{}", w.label(), p.label())),
                        |v| format!("{v:.2}x"),
                    ));
                }
                cells.push(fmt_or_dash(
                    metric(metrics, &format!("nsu_speedup/{}", w.label())),
                    |v| format!("{v:.2}x"),
                ));
                t.row(cells);
            }
            t.print(
                "Fig. 10c — speedup over the GPU baseline (paper: M2NDP up to 9.71x, avg 6.35x; \
                 NSU 0.97x)",
            );
            if let Some(g) = metric(metrics, "geomean_speedup/M2NDP") {
                println!("M2NDP geomean speedup: {g:.2}x (paper: 6.35x average)");
            }
        }
        FigId::Fig11b => {
            let mut t = Table::new(vec!["mechanism", "offered", "P95 (ns)", "throughput (/s)"]);
            for o in outs {
                let (label, rk) = o.key.split_once('/').unwrap_or((&o.key, "-"));
                t.row(vec![
                    label.to_string(),
                    format!("{rk}/s"),
                    format!("{:.0}", o.ns),
                    format!("{:.2e}", extra(o, "throughput_rps")),
                ]);
            }
            t.print(
                "Fig. 11b — one-device KVS serving with CXL.io at CXL.mem's 600 ns latency \
                 (paper: M2func up to 63% lower latency)",
            );
            if let Some(g) = metric(metrics, "p95_gain/M2func_vs_RB") {
                println!(
                    "M2func light-load P95 gain over CXL.io_RB: {:.0}% (paper: up to 63%)",
                    g * 100.0
                );
            }
            if let Some(v) = metric(metrics, "sat_throughput_ratio/M2func_vs_DR") {
                println!(
                    "M2func sustains {v:.1}x CXL.io_DR throughput at saturation (paper Fig. 11a: \
                     47.3x; must be >= 10x)"
                );
            }
        }
        FigId::Fig11c => {
            let mut t = Table::new(vec![
                "devices @ offered",
                "M2func P95 (tput/s)",
                "CXL.io_DR P95 (tput/s)",
                "CXL.io_RB P95 (tput/s)",
            ]);
            for n in [1u32, 2, 4, 8] {
                for rate in SERVE_RATES {
                    let rk = rate_key(rate);
                    if find(outs, &format!("M2func/{n}dev/{rk}")).is_none() {
                        continue;
                    }
                    let mut cells = vec![format!("{n}dev @ {rk}/s")];
                    for label in ["M2func", "CXL.io_DR", "CXL.io_RB"] {
                        let cell = find(outs, &format!("{label}/{n}dev/{rk}"))
                            .map(|o| {
                                format!("{:>8.0} ns ({:.2e})", o.ns, extra(o, "throughput_rps"))
                            })
                            .unwrap_or_else(|| "-".into());
                        cells.push(cell);
                    }
                    t.row(cells);
                }
            }
            t.print(
                "Fig. 11c — multi-tenant serving on real device sims: P95 latency and \
                 steady-window throughput per offload mechanism (paper Fig. 11a trends)",
            );
            for n in [1u32, 8] {
                if let Some(v) = metric(
                    metrics,
                    &format!("sat_throughput_ratio/M2func_vs_DR/{n}dev"),
                ) {
                    println!(
                        "{n} device(s): M2func sustains {v:.1}x direct-MMIO throughput at \
                         saturation (paper: 47.3x, must be >= 10x)"
                    );
                }
            }
            println!(
                "single-device vs fleet-of-1 P95 parity: {} (switch hop only)",
                fmt_or_dash(metric(metrics, "parity/single_vs_fleet1"), |v| format!(
                    "{v:.4}"
                )),
            );
        }
        FigId::Fig12a => {
            let mut t = Table::new(vec![
                "workload",
                "M2NDP",
                "w/o M2func",
                "w/o fine-grained thr",
                "w/o addr opt",
            ]);
            for w in GpuWorkload::all() {
                let w = w.label();
                if find(outs, &format!("{w}/M2NDP")).is_none() {
                    continue;
                }
                t.row(vec![
                    w.to_string(),
                    "1.00".to_string(),
                    fmt_or_dash(
                        metric(metrics, &format!("norm_runtime/{w}/wo_m2func")),
                        |v| format!("{v:.2}"),
                    ),
                    fmt_or_dash(
                        metric(metrics, &format!("norm_runtime/{w}/wo_finegrained")),
                        |v| format!("{v:.2}"),
                    ),
                    fmt_or_dash(
                        metric(metrics, &format!("norm_runtime/{w}/wo_addropt")),
                        |v| format!("{v:.2}"),
                    ),
                ]);
            }
            t.print(
                "Fig. 12a — runtime normalized to M2NDP (paper: w/o M2func up to 2.41, \
                 w/o fine-grained up to 1.51, w/o addr opt up to 1.20)",
            );
        }
        FigId::Fig12b => {
            let mut t = Table::new(vec![
                "devices",
                "DLRM(SLS)-B256",
                "OPT-2.7B(Gen)",
                "OPT-30B(Gen)",
            ]);
            for n in [1u32, 2, 4, 8] {
                if metric(metrics, &format!("speedup/DLRM(SLS)-B256/{n}dev")).is_none() {
                    continue;
                }
                let mut cells = vec![n.to_string()];
                for wl in ["DLRM(SLS)-B256", "OPT-2.7B(Gen)", "OPT-30B(Gen)"] {
                    cells.push(fmt_or_dash(
                        metric(metrics, &format!("speedup/{wl}/{n}dev")),
                        |v| format!("{v:.2}x"),
                    ));
                }
                t.row(cells);
            }
            t.print(
                "Fig. 12b — multi-device scaling (paper: 7.84x DLRM, 7.69x OPT-30B, 6.45x \
                 OPT-2.7B at 8 devices)",
            );
        }
        FigId::Fig13a => {
            let cols = ["default", "1ghz", "3ghz", "ltu2x", "ltu4x"];
            let mut t = Table::new(vec![
                "workload", "Default", "1GHz", "3GHz", "2xLtU", "4xLtU",
            ]);
            for w in GpuWorkload::all() {
                let w = w.label();
                if metric(metrics, &format!("speedup/{w}/default")).is_none() {
                    continue;
                }
                let mut cells = vec![w.to_string()];
                for col in cols {
                    cells.push(fmt_or_dash(
                        metric(metrics, &format!("speedup/{w}/{col}")),
                        |v| format!("{v:.2}x"),
                    ));
                }
                t.row(cells);
            }
            t.print(
                "Fig. 13a — M2NDP speedup over the baseline across frequencies and LtU latencies",
            );
            let g: Vec<String> = cols
                .iter()
                .map(|c| {
                    fmt_or_dash(metric(metrics, &format!("geomean/{c}")), |v| {
                        format!("{v:.2}x")
                    })
                })
                .collect();
            println!(
                "geomeans: default {} | 1GHz {} | 3GHz {} | 2xLtU {} | 4xLtU {} \
                 (paper: 1GHz -10%, 3GHz +2.5%, higher LtU grows the speedup to 13.1x/19.4x)",
                g[0], g[1], g[2], g[3], g[4]
            );
        }
        FigId::Fig13b => {
            let mut t = Table::new(vec!["workload", "Dirty20%", "Dirty40%", "Dirty80%"]);
            for w in GpuWorkload::all() {
                let w = w.label();
                if metric(metrics, &format!("norm_runtime/{w}/dirty20")).is_none() {
                    continue;
                }
                let mut cells = vec![w.to_string()];
                for pct in [20, 40, 80] {
                    cells.push(fmt_or_dash(
                        metric(metrics, &format!("norm_runtime/{w}/dirty{pct}")),
                        |v| format!("{v:.3}"),
                    ));
                }
                t.row(cells);
            }
            t.print(
                "Fig. 13b — normalized runtime vs clean host cache (paper: 0.969 / 0.872 / 0.735)",
            );
            println!(
                "geomeans: 20% {}, 40% {}, 80% {} — BI latency largely hidden by FGMT",
                fmt_or_dash(metric(metrics, "geomean/dirty20"), |v| format!("{v:.3}")),
                fmt_or_dash(metric(metrics, "geomean/dirty40"), |v| format!("{v:.3}")),
                fmt_or_dash(metric(metrics, "geomean/dirty80"), |v| format!("{v:.3}")),
            );
        }
        FigId::Fig14a => {
            let mut t = Table::new(vec![
                "devices",
                "DLRM(SLS)-B256",
                "OPT-TP(Gen)",
                "OPT all-reduce frac",
            ]);
            for n in [1u32, 2, 4, 8] {
                if metric(metrics, &format!("speedup/{FLEET_DLRM}/{n}dev")).is_none() {
                    continue;
                }
                t.row(vec![
                    n.to_string(),
                    fmt_or_dash(
                        metric(metrics, &format!("speedup/{FLEET_DLRM}/{n}dev")),
                        |v| format!("{v:.2}x"),
                    ),
                    fmt_or_dash(
                        metric(metrics, &format!("speedup/{FLEET_OPT}/{n}dev")),
                        |v| format!("{v:.2}x"),
                    ),
                    fmt_or_dash(
                        metric(metrics, &format!("allreduce_frac/{FLEET_OPT}/{n}dev")),
                        |v| format!("{:.1}%", v * 100.0),
                    ),
                ]);
            }
            t.print(
                "Fig. 14a — simulated fleet scaling: N real devices behind the switch \
                 (paper Fig. 12b: DLRM 7.84x, OPT sub-linear from the all-reduce)",
            );
            println!(
                "single-device parity (fleet-of-1 / standalone, must be 1.00 +/- 0.01): \
                 DLRM {}, OPT {}",
                fmt_or_dash(metric(metrics, &format!("parity/{FLEET_DLRM}")), |v| {
                    format!("{v:.4}")
                }),
                fmt_or_dash(metric(metrics, &format!("parity/{FLEET_OPT}")), |v| {
                    format!("{v:.4}")
                }),
            );
        }
        FigId::Fig14b => {
            let mut t = Table::new(vec!["CXL memories", "NDP-in-switch speedup"]);
            for n in [1u32, 2, 4, 8] {
                if let Some(v) = metric(metrics, &format!("speedup/swndp/{n}mem")) {
                    t.row(vec![n.to_string(), format!("{v:.2}x")]);
                }
            }
            t.print(
                "Fig. 14b — M2NDP-in-switch over passive CXL memories \
                 (paper: 6.39-7.38x at 8 memories)",
            );
            println!(
                "per-device NDP at 8 devices: {} | per-device runtime / in-switch runtime at 8: {}",
                fmt_or_dash(metric(metrics, "speedup/perdev/8dev"), |v| format!(
                    "{v:.2}x"
                )),
                fmt_or_dash(metric(metrics, "perdev_vs_swndp/8"), |v| format!("{v:.2}")),
            );
        }
        FigId::Fig15 => {
            let mut t = Table::new(vec![
                "fleet",
                "P95 (ns)",
                "P95 / SLO",
                "device-time (ms)",
                "scale events",
            ]);
            for o in outs {
                let name = match o.key.split('/').next() {
                    Some(k) if k.starts_with("autoscale") => "autoscale",
                    Some(k) if k == format!("static{ELASTIC_MIN_DEVICES}") => "static_min",
                    _ => "static_max",
                };
                let events = if name == "autoscale" {
                    format!(
                        "{:.0} up / {:.0} drain",
                        extra(o, "scale_ups"),
                        extra(o, "drains")
                    )
                } else {
                    "-".into()
                };
                t.row(vec![
                    o.key.clone(),
                    format!("{:.0}", o.ns),
                    fmt_or_dash(metric(metrics, &format!("p95_slo_ratio/{name}")), |v| {
                        format!("{v:.2}")
                    }),
                    format!("{:.3}", extra(o, "device_time_ms")),
                    events,
                ]);
            }
            t.print(
                "Fig. 15 — elastic serving: SLO-targeted autoscaling vs static fleets \
                 (bursty tenants, shortest-queue routing, replicated store)",
            );
            println!(
                "autoscale device-time / static{ELASTIC_MAX_DEVICES} device-time: {} \
                 (must be < 1 while P95/SLO stays <= 1)",
                fmt_or_dash(
                    metric(metrics, "device_time_ratio/autoscale_vs_static_max"),
                    |v| format!("{v:.3}")
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_keys_are_unique_within_every_figure_and_mode() {
        for fig in FigId::all() {
            for fast in [false, true] {
                let specs = cells(fig, fast);
                let mut keys: Vec<&str> = specs.iter().map(|c| c.key.as_str()).collect();
                keys.sort_unstable();
                let before = keys.len();
                keys.dedup();
                assert_eq!(before, keys.len(), "{} fast={fast}", fig.id());
            }
        }
    }

    #[test]
    fn fast_grids_are_subsets_of_full_grids() {
        for fig in FigId::all() {
            let full = cells(fig, false);
            for c in cells(fig, true) {
                assert!(
                    full.iter().any(|f| f.key == c.key),
                    "{}: fast cell {} missing from full grid",
                    fig.id(),
                    c.key
                );
            }
        }
    }

    #[test]
    fn fig_id_parse_round_trips() {
        for fig in FigId::all() {
            assert_eq!(FigId::parse(fig.id()), Some(fig));
        }
        assert_eq!(FigId::parse("fig99"), None);
    }

    #[test]
    fn executor_returns_outputs_in_cell_order() {
        let specs: Vec<CellSpec> = (0..6)
            .map(|i| CellSpec::kvs_baseline_cell(FigId::Fig10b, &format!("cell{i}"), 200 + i * 50))
            .collect();
        let outs = run_cells(&specs, 3, false);
        let keys: Vec<&str> = outs.iter().map(|o| o.key.as_str()).collect();
        assert_eq!(
            keys,
            vec!["cell0", "cell1", "cell2", "cell3", "cell4", "cell5"]
        );
    }

    #[test]
    fn derive_fig12b_handles_partial_grid() {
        // Synthetic outputs: only DLRM at 1 and 8 devices (the fast grid).
        let mk = |key: &str, cycles: u64| CellOut {
            fig: FigId::Fig12b,
            key: key.to_string(),
            cycles,
            ns: cycles as f64 / 2.0,
            stats: None,
            extra: Vec::new(),
        };
        let outs = vec![
            mk("DLRM(SLS)-B256/1dev", 8000),
            mk("DLRM(SLS)-B256/8dev", 1000),
        ];
        let metrics = derive(FigId::Fig12b, &outs);
        let speedup = metric(&metrics, "speedup/DLRM(SLS)-B256/8dev").expect("present");
        assert!(speedup > 1.0);
        // Single-device cycles over one partition plus the switch all-reduce.
        let allreduce =
            CxlSwitch::new(SwitchConfig::default(), Frequency::ghz(2.0)).ring_allreduce(0, 8, 4096);
        assert_eq!(speedup, 8000.0 / (1000 + allreduce) as f64);
        assert!(metric(&metrics, "speedup/OPT-30B(Gen)/8dev").is_none());
    }
}
