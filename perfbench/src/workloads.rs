//! The four benchmark workloads. Each repetition builds fresh inputs and a
//! fresh device or fleet (modelled caches start empty), times the calls
//! into the workspace crates, and checks the outputs.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use m2ndp::core::fleet::{Fleet, FleetConfig};
use m2ndp::core::{CxlM2ndpDevice, DeviceStats, KernelId, LaunchArgs, M2ndpConfig};
use m2ndp::cxl::SwitchConfig;
use m2ndp::host::offload::OffloadMechanism;
use m2ndp::host::serve::{
    self, AutoscaleConfig, Request, SchedulerKind, ServeBackend, ServeConfig, ServeWorkload,
    TenantSpec,
};
use m2ndp::sim::rng::{StdRng, Zipf};
use m2ndp::sim::trace::{EventKind, ScaleDir};
use m2ndp::workloads::{histo, kvstore, spmv};
use m2ndp::SystemBuilder;

use crate::trace::{CountingSink, EventCounts, Open, Spans};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// HISTO4096 on one device: issue-bound streaming kernel.
    Histo,
    /// SPMV on one device: irregular gathers through L2 and DRAM.
    Spmv,
    /// Autoscaled 2→8-device KVS serving on the serial dynamic loop.
    KvsElastic,
    /// Static 4-device KVS serving on the shard-parallel loop.
    KvsStatic,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [Kind::Histo, Kind::Spmv, Kind::KvsElastic, Kind::KvsStatic];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Histo => "histo",
            Kind::Spmv => "spmv",
            Kind::KvsElastic => "kvs-elastic",
            Kind::KvsStatic => "kvs-static",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload serves requests (vs one kernel on one device).
    pub fn serving(self) -> bool {
        matches!(self, Kind::KvsElastic | Kind::KvsStatic)
    }

    /// Host threads the workload runs on, capped at `nproc`.
    pub fn threads(self) -> usize {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        match self {
            Kind::KvsStatic => STATIC_FLEET_JOBS.min(nproc),
            _ => 1,
        }
    }
}

/// Input sizes: the measured scale, or tiny inputs for the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    histo_elements: u64,
    spmv_rows: u64,
    kv_items: u64,
    static_requests: (usize, usize),
    elastic_requests: (usize, usize),
}

impl Sizes {
    /// The benchmark scale (the sweep's bench-scale inputs and cell shapes).
    pub const FULL: Sizes = Sizes {
        histo_elements: 256 << 10,
        spmv_rows: 8 << 10,
        kv_items: serve::KV_ITEMS_PER_DEVICE,
        static_requests: (1000, 500),
        elastic_requests: (4800, 800),
    };

    /// Tiny inputs that exercise every code path in well under a second.
    pub const SMOKE: Sizes = Sizes {
        histo_elements: 16 << 10,
        spmv_rows: 1 << 10,
        kv_items: 2 << 10,
        static_requests: (200, 100),
        elastic_requests: (480, 80),
    };
}

/// M²NDP units of the single-device workloads (32 / the sweep's scale 4).
const DEVICE_UNITS: u32 = 8;
/// HISTO bins.
const HISTO_BINS: u32 = 4096;
/// SPMV non-zeros per row.
const SPMV_NNZ_PER_ROW: u32 = 24;
/// Per-request SLO of both serving workloads (ns).
const SLO_NS: f64 = 5_000.0;
/// Offered load of `kvs-static` (req/s), a point on the fig11c curve.
const STATIC_RATE: f64 = 2e7;
/// Devices of `kvs-static`.
const STATIC_DEVICES: usize = 4;
/// Shard-pool workers of `kvs-static`.
const STATIC_FLEET_JOBS: usize = 2;
/// Offered load of `kvs-elastic` (req/s), the fig15 rate.
const ELASTIC_RATE: f64 = 5e6;
/// Autoscaler range of `kvs-elastic`.
const ELASTIC_DEVICES: (usize, usize) = (2, 8);
/// Zipf skew of key popularity (YCSB default).
const ZIPF_THETA: f64 = 0.99;

/// One repetition's outcome.
#[derive(Debug)]
pub struct Rep {
    /// The repetition's run id (the `run` of its spans).
    pub run: u32,
    /// Host seconds in set-up calls (generate, assemble/register, build).
    pub setup_s: f64,
    /// Host seconds in the simulate calls.
    pub run_s: f64,
    /// Reference-speed seconds per host second while the repetition ran
    /// (see `speed`); set by the caller, 1 until then.
    pub scale: f64,
    /// Operations attempted: the kernel launch, or each offered request.
    pub ops: u64,
    /// Operations failed.
    pub failed: u64,
    /// What failed.
    pub errors: Vec<String>,
    /// Deterministic simulated outputs, in a fixed order.
    pub sim: Vec<(&'static str, f64)>,
    /// Trace-event tallies (traced repetitions only).
    pub counts: Option<Arc<EventCounts>>,
    /// Mean serve phase durations (µs) from the trace's request-phase
    /// events, in queue/launch/execute/link order (traced serving only).
    pub trace_phases_us: Option<[f64; 4]>,
}

impl Rep {
    /// A simulated output by name.
    pub fn sim(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// splitmix64: derives independent seeds from the CLI seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one repetition of `kind` on the inputs of `seed`.
pub fn run_rep(
    kind: Kind,
    seed: u64,
    sizes: Sizes,
    traced: bool,
    spans: &Arc<Spans>,
    run: u32,
) -> Rep {
    let root = spans.begin("bench.rep", None, run);
    let rep = if kind.serving() {
        serve_rep(kind, seed, sizes, traced, spans, root, run)
    } else {
        device_rep(kind, seed, sizes, traced, spans, root, run)
    };
    spans.end(root);
    rep
}

fn stats_sim(s: &DeviceStats) -> Vec<(&'static str, f64)> {
    vec![
        ("instrs", s.instrs as f64),
        ("mem_reqs", s.mem_reqs as f64),
        ("l1_hits", s.l1_hits as f64),
        ("spad_bytes", s.spad_bytes as f64),
        ("l2_accesses", s.l2_accesses as f64),
        ("l2_hit_rate", s.l2_hit_rate),
        ("dram_bytes", s.dram_bytes as f64),
        ("dram_row_hit_rate", s.dram_row_hit_rate),
        ("dram_bw_utilization", s.dram_bw_utilization),
        ("link_m2s_bytes", s.link_m2s_bytes as f64),
        ("link_s2m_bytes", s.link_s2m_bytes as f64),
    ]
}

enum Input {
    Histo(histo::HistoData),
    Spmv(spmv::SpmvData),
}

fn device_rep(
    kind: Kind,
    seed: u64,
    sizes: Sizes,
    traced: bool,
    spans: &Spans,
    root: Open,
    run: u32,
) -> Rep {
    let at = Some(root);
    let mut setup_s = 0.0;
    let t = spans.begin("core.device_new", at, run);
    let mut dev = SystemBuilder::m2ndp().units(DEVICE_UNITS).build();
    setup_s += spans.end(t);

    let t = spans.begin("workloads.generate", at, run);
    let input = match kind {
        Kind::Histo => Input::Histo(histo::generate(
            histo::HistoConfig {
                elements: sizes.histo_elements,
                bins: HISTO_BINS,
                seed: mix(seed, 1),
            },
            dev.memory_mut(),
        )),
        _ => Input::Spmv(spmv::generate(
            spmv::SpmvConfig {
                rows: sizes.spmv_rows,
                nnz_per_row: SPMV_NNZ_PER_ROW,
                seed: mix(seed, 2),
            },
            dev.memory_mut(),
        )),
    };
    setup_s += spans.end(t);

    let t = spans.begin("riscv.assemble", at, run);
    let kid = dev.register_kernel(match &input {
        Input::Histo(d) => histo::kernel(d.cfg),
        Input::Spmv(_) => spmv::kernel(),
    });
    setup_s += spans.end(t);

    let counts = traced.then(|| {
        let counts = Arc::new(EventCounts::default());
        dev.set_tracer(0, Box::new(CountingSink(Arc::clone(&counts))));
        counts
    });

    let mut errors = Vec::new();
    let start = dev.now();
    let t = spans.begin("core.launch", at, run);
    let launched = dev.launch(match &input {
        Input::Histo(d) => histo::launch(d, kid, DEVICE_UNITS),
        Input::Spmv(d) => spmv::launch(d, kid),
    });
    let mut run_s = spans.end(t);
    let mut cycles = 0;
    match launched {
        Ok(inst) => {
            let t = spans.begin("core.run", at, run);
            cycles = dev.run_until_finished(inst) - start;
            run_s += spans.end(t);
            let verified = spans.time("workloads.verify", at, run, || match &input {
                Input::Histo(d) => histo::verify(d, dev.memory()),
                Input::Spmv(d) => spmv::verify(d, dev.memory()),
            });
            if let Err(e) = verified {
                errors.push(format!("verify: {e}"));
            }
        }
        Err(e) => errors.push(format!("launch: {e:?}")),
    }
    let mut sim = vec![
        ("cycles", cycles as f64),
        (
            "sim_us",
            dev.config().engine.freq.ns_from_cycles(cycles) / 1e3,
        ),
    ];
    sim.extend(stats_sim(&dev.stats()));
    Rep {
        run,
        setup_s,
        run_s,
        scale: 1.0,
        ops: 1,
        failed: u64::from(!errors.is_empty()),
        errors,
        sim,
        counts,
        trace_phases_us: None,
    }
}

/// The serving device: the Table IV device at 2 units, as in the sweep's
/// serving cells.
fn serve_device_cfg() -> M2ndpConfig {
    let mut cfg = M2ndpConfig::default_device();
    cfg.engine.units = 2;
    cfg
}

/// A KVStore GET workload over a fleet, built from the benchmark seed:
/// key-sharded (`key % devices` owns the key) or replicated on every
/// device. Each request is one GET kernel, verified after it runs.
struct KvWorkload {
    stores: Vec<kvstore::KvData>,
    kernels: Vec<KernelId>,
    bases: Vec<u64>,
    replicated: bool,
    zipf: Zipf,
    /// Span recorder and enclosing serve span (traced repetitions only).
    probe: Option<(Arc<Spans>, Open, u32)>,
}

impl KvWorkload {
    /// Builds the store inside every device and registers the GET kernel;
    /// returns the workload and the set-up seconds spent.
    fn build(
        fleet: &mut Fleet,
        items: u64,
        replicated: bool,
        seed: u64,
        spans: &Spans,
        root: Open,
        run: u32,
    ) -> (Self, f64) {
        let n = fleet.len();
        let mut setup_s = 0.0;
        let (mut stores, mut kernels, mut bases) = (Vec::new(), Vec::new(), Vec::new());
        for dev in 0..n {
            let cfg = kvstore::KvConfig {
                items,
                buckets: (items / 2).max(1),
                get_ratio: 1.0,
                requests: 0,
                zipf_theta: ZIPF_THETA,
                seed: if replicated {
                    mix(seed, 3)
                } else {
                    mix(seed, 3 + dev as u64)
                },
            };
            let t = spans.begin("workloads.generate", Some(root), run);
            stores.push(kvstore::generate(cfg, fleet.device_mut(dev).memory_mut()));
            setup_s += spans.end(t);
            let t = spans.begin("riscv.assemble", Some(root), run);
            kernels.push(fleet.device_mut(dev).register_kernel(kvstore::kernel()));
            setup_s += spans.end(t);
            bases.push(fleet.shard_base(dev));
        }
        let keys = if replicated { items } else { items * n as u64 };
        let wl = Self {
            stores,
            kernels,
            bases,
            replicated,
            zipf: Zipf::new(keys, ZIPF_THETA),
            probe: None,
        };
        (wl, setup_s)
    }

    fn request(&self, req: &Request) -> kvstore::KvRequest {
        let item = if self.replicated {
            req.key
        } else {
            req.key / self.stores.len() as u64
        };
        kvstore::KvRequest { item, get: true }
    }

    fn slot(req: &Request) -> u32 {
        (req.seq % 64) as u32
    }

    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.probe {
            Some((spans, parent, run)) => spans.time(name, Some(*parent), *run, f),
            None => f(),
        }
    }
}

impl ServeWorkload for KvWorkload {
    fn sample_key(&mut self, _tenant: u16, rng: &mut StdRng) -> u64 {
        self.zipf.sample(rng)
    }

    fn route_addr(&self, key: u64, devices: usize) -> u64 {
        self.bases[(key % devices as u64) as usize]
    }

    fn launch_args(&self, req: &Request, dev: usize) -> LaunchArgs {
        self.timed("workloads.launch_args", || {
            kvstore::launch(
                &self.stores[dev],
                self.kernels[dev],
                self.request(req),
                Self::slot(req),
                0,
            )
        })
    }

    fn verify(&self, req: &Request, dev: usize, device: &CxlM2ndpDevice) -> Result<(), String> {
        self.timed("workloads.verify", || {
            kvstore::verify_get(
                &self.stores[dev],
                device.memory(),
                self.request(req),
                Self::slot(req),
            )
        })
    }

    fn replicated(&self) -> bool {
        self.replicated
    }
}

fn tenants(kind: Kind, sizes: Sizes, seed: u64) -> Vec<TenantSpec> {
    if kind == Kind::KvsElastic {
        let (steady, bursty) = sizes.elastic_requests;
        vec![
            TenantSpec::poisson("steady", ELASTIC_RATE * 0.6)
                .requests(steady)
                .slo_ns(SLO_NS)
                .seed(mix(seed, 20)),
            TenantSpec::burst("bursty", ELASTIC_RATE * 0.4, 4.0, 50_000.0)
                .requests(bursty)
                .slo_ns(SLO_NS)
                .seed(mix(seed, 21)),
        ]
    } else {
        let (a, b) = sizes.static_requests;
        let gap = 1e9 / (STATIC_RATE * 0.3);
        vec![
            TenantSpec::poisson("tenantA", STATIC_RATE * 0.7)
                .requests(a)
                .slo_ns(SLO_NS)
                .seed(mix(seed, 22)),
            TenantSpec::trace("tenantB", vec![0.6 * gap, gap, 1.4 * gap])
                .requests(b)
                .slo_ns(SLO_NS)
                .seed(mix(seed, 23)),
        ]
    }
}

fn serve_rep(
    kind: Kind,
    seed: u64,
    sizes: Sizes,
    traced: bool,
    spans: &Arc<Spans>,
    root: Open,
    run: u32,
) -> Rep {
    let elastic = kind == Kind::KvsElastic;
    let devices = if elastic {
        ELASTIC_DEVICES.1
    } else {
        STATIC_DEVICES
    };
    let t = spans.begin("core.device_new", Some(root), run);
    let mut fleet = Fleet::new(FleetConfig {
        devices,
        device: serve_device_cfg(),
        switch: SwitchConfig::default(),
        hdm_bytes_per_device: 1 << 30,
    });
    fleet.set_parallelism(kind.threads());
    let mut setup_s = spans.end(t);
    let (mut wl, build_s) =
        KvWorkload::build(&mut fleet, sizes.kv_items, elastic, seed, spans, root, run);
    setup_s += build_s;
    let mut backend = ServeBackend::Fleet(Box::new(fleet));

    let tenants = tenants(kind, sizes, seed);
    let offered: usize = tenants.iter().map(|t| t.requests).sum();
    let mut cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func).trace(traced);
    cfg = if elastic {
        cfg.scheduler(SchedulerKind::ShortestQueue)
            .device_slots(1)
            .autoscale(
                AutoscaleConfig::new(ELASTIC_DEVICES.0, ELASTIC_DEVICES.1, SLO_NS)
                    .interval_ns(20_000.0)
                    .window(128)
                    .scale_down_frac(0.2)
                    .cooldown_ticks(1),
            )
    } else {
        cfg.scheduler(SchedulerKind::StaticFifo)
    };

    let t = spans.begin("host.serve", Some(root), run);
    if traced {
        wl.probe = Some((Arc::clone(spans), t, run));
    }
    let served = catch_unwind(AssertUnwindSafe(|| {
        serve::run(&mut backend, &mut wl, &cfg, &tenants)
    }));
    let run_s = spans.end(t);

    let mut rep = Rep {
        run,
        setup_s,
        run_s,
        scale: 1.0,
        ops: offered as u64,
        failed: 0,
        errors: Vec::new(),
        sim: Vec::new(),
        counts: None,
        trace_phases_us: None,
    };
    let mut report = match served {
        Ok(report) => report,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            rep.failed = rep.ops;
            rep.errors.push(format!("serve: {msg}"));
            return rep;
        }
    };
    let records = &report.records;
    let completed = records.len();
    if completed != offered {
        rep.failed += offered.abs_diff(completed) as u64;
        rep.errors
            .push(format!("{completed} of {offered} requests completed"));
    }

    let first = records
        .iter()
        .map(|r| r.arrival_ns)
        .fold(f64::INFINITY, f64::min);
    let last = records.iter().map(|r| r.observed_ns).fold(0.0, f64::max);
    let over_slo = records
        .iter()
        .filter(|r| r.latency_ns() > tenants[r.tenant as usize].slo_ns)
        .count();
    let mut phase_sums = [0.0; 4];
    for r in records {
        for (sum, p) in phase_sums.iter_mut().zip(r.phase_ns()) {
            *sum += p;
        }
    }
    let phase_us = phase_sums.map(|s| s / completed.max(1) as f64 / 1e3);
    let measured = report.combined.count();
    let pct = tail_percentile(measured);
    let p99_us = report.combined.percentile(pct) / 1e3;
    let scale = |dir: ScaleDir| report.scale_events.iter().filter(|e| e.dir == dir).count() as f64;
    let fleet = backend.fleet().expect("fleet backend");
    let stats = fleet.stats();
    rep.sim = vec![
        ("cycles", stats.cycles as f64),
        ("sim_us", (last - first) / 1e3),
        ("completed", completed as f64),
        ("sim_p99_us", p99_us),
        ("sim_p99_percentile", pct),
        ("sim_throughput_mrps", report.throughput / 1e6),
        (
            "slo_miss_frac",
            (over_slo + offered.saturating_sub(completed)) as f64 / offered as f64,
        ),
        ("sim_device_ms", report.device_time_ns / 1e6),
        ("launches", report.launches as f64),
        (
            "max_outstanding",
            f64::from(report.max_outstanding.iter().copied().max().unwrap_or(0)),
        ),
        ("scale_ups", scale(ScaleDir::Up)),
        ("drains", scale(ScaleDir::DrainStart)),
        ("queue_us", phase_us[0]),
        ("launch_us", phase_us[1]),
        ("execute_us", phase_us[2]),
        ("link_us", phase_us[3]),
    ];
    rep.sim.extend(stats_sim(&stats));

    if traced {
        let counts = Arc::new(EventCounts::default());
        let mut per_req: HashMap<(u16, u64), f64> = HashMap::new();
        let mut trace_sums = [0.0; 4];
        for ev in &report.trace {
            counts.add(&ev.kind);
            if let EventKind::ReqPhase {
                tenant,
                seq,
                phase,
                dur_ns,
            } = ev.kind
            {
                *per_req.entry((tenant, seq)).or_default() += dur_ns;
                trace_sums[phase as usize] += dur_ns;
            }
        }
        // The four phases of every request must partition its latency.
        let broken = records
            .iter()
            .filter(|r| {
                per_req
                    .get(&(r.tenant, r.seq))
                    .is_none_or(|sum| (sum - r.latency_ns()).abs() > 1e-6 * r.latency_ns().max(1.0))
            })
            .count();
        if broken > 0 {
            rep.failed += broken as u64;
            rep.errors.push(format!(
                "{broken} requests' trace phases do not sum to their latency"
            ));
        }
        rep.trace_phases_us = Some(trace_sums.map(|s| s / completed.max(1) as f64 / 1e3));
        rep.counts = Some(counts);
    }
    rep
}

/// The reported tail percentile: p99, or the highest percentile that still
/// has at least ten samples beyond it.
fn tail_percentile(samples: usize) -> f64 {
    if samples as f64 * 0.01 >= 10.0 {
        0.99
    } else {
        (1.0 - 10.0 / samples.max(20) as f64).max(0.5)
    }
}
