//! Event-driven, multi-tenant request serving over *real* device
//! simulators — the one offload model behind every offload number: the
//! fig10b/fig11b one-device P95 and throughput cells, the fig11c
//! latency–throughput curves and the fig15 elastic-fleet study.
//!
//! The runtime drives the cycle-level simulators themselves: every
//! admitted request becomes an actual kernel launch on a
//! [`CxlM2ndpDevice`] — through the full M²func wire protocol
//! ([`m2ndp_core::m2func`]) when the mechanism is M²func — or is routed
//! through the `CxlSwitch`/`HdmRouter` to the owning device of a
//! [`Fleet`], with the launch store charged on the switch ports.
//!
//! The pieces:
//!
//! * **Tenants** ([`TenantSpec`]) — independent open-loop arrival streams
//!   (Poisson, bursty Poisson, or a cycled trace of inter-arrival gaps),
//!   each with its own seed, request budget, SLO threshold, and priority.
//! * **Scheduling** ([`Scheduler`], [`SchedulerKind`]) — a pluggable
//!   routing/admission policy decides which device serves each request:
//!   the default [`SchedulerKind::StaticFifo`] reproduces the historical
//!   home-routed FIFO bit-for-bit, while load-aware policies route
//!   against the live [`m2ndp_core::FleetView`] (see
//!   [`scheduler`](self::scheduler#two-execution-paths) for the two
//!   execution paths and their determinism rules).
//! * **Autoscaling** ([`AutoscaleConfig`]) — an optional control loop
//!   grows and shrinks the *active* device set against a P95 SLO target;
//!   draining devices stop admitting, finish their in-flight kernels,
//!   and park, with per-device active time integrated into
//!   [`ServeReport::device_time_ns`].
//! * **Admission** — per-device FIFO queues feeding a slot pool of
//!   `min(mechanism.max_concurrent, device_slots)` kernel slots; the
//!   pre-launch phase is charged *after* admission (the Fig. 5 semantics —
//!   a doorbell/DMA cannot overlap the queue wait), and direct MMIO holds
//!   its single slot until the host has read the result back (§II-C).
//! * **Event clock** — `f64` nanoseconds end to end
//!   ([`m2ndp_sim::FEventQueue`]); the only integer quantization is the
//!   switch's own cycle-level model, whose per-launch skew is converted
//!   back to ns and added to the pre phase.
//! * **Measurement** — warm-up and drain request fractions are excluded
//!   from the steady window; per-tenant latency [`FHistogram`]s and SLO
//!   counters cover the measured window only.
//!
//! Everything is deterministic: arrivals flow from tenant seeds, ties in
//! the event queue break by insertion order, and the device simulators are
//! themselves deterministic, so a serving run is reproducible
//! bit-for-bit at any sweep parallelism.
//!
//! **One loop, two schedules.** Routing, admission, launch, functional
//! verification and recording are written once, as one event loop that
//! launches through either a standalone device or a fleet shard (whose
//! launch store is charged on its own switch-port lane). The loop runs
//! under one of two schedules, chosen from the config:
//!
//! * **Partitioned** — with a placement-pure scheduler and a fixed fleet,
//!   a request's life touches exactly one device: routing is a pure
//!   function of its key, admission queues and kernel slots are
//!   per-device, and the switch charges launch stores on per-port gates.
//!   So each device runs its own loop instance over its own requests,
//!   concurrently on the fleet's shard pool ([`Fleet::with_shards`],
//!   worker count = [`Fleet::parallelism`], knob: `M2NDP_FLEET_JOBS`),
//!   and the records merge back in global arrival order. Reports are
//!   bit-identical at every parallelism setting.
//! * **Global** — dynamic schedulers and autoscaled runs route against
//!   live state across devices, so one loop instance runs over every
//!   device, serially ([`Fleet::lend_shards`]); the parallelism knobs never
//!   touch it, so it is equally deterministic.
//!
//! [`FHistogram`]: m2ndp_sim::FHistogram

use m2ndp_core::fleet::Fleet;
use m2ndp_core::{CxlM2ndpDevice, KernelId, LaunchArgs};
use m2ndp_sim::rng::{exponential, seeded, Zipf};
use m2ndp_sim::trace::{JsonSink, TraceEvent};
use m2ndp_sim::Frequency;
use m2ndp_workloads::kvstore;

use crate::offload::{OffloadMechanism, OffloadModel};

pub mod autoscale;
mod event_loop;
mod report;
pub mod scheduler;

pub use autoscale::{AutoscaleConfig, ScaleEvent};
pub use report::{ReqRecord, ServeReport, TenantReport};
pub use scheduler::{ReqView, Scheduler, SchedulerKind};

/// How a tenant's requests arrive.
#[derive(Debug, Clone)]
pub enum Arrival {
    /// Open-loop Poisson arrivals at a fixed offered rate.
    Poisson {
        /// Offered load (requests per second).
        rate_per_sec: f64,
    },
    /// Bursty open-loop arrivals: a Poisson process at
    /// `rate_per_sec * burst_factor` compressed into the first
    /// `1 / burst_factor` of every `period_ns` window, the rest of the
    /// window silent. The long-run mean rate is exactly `rate_per_sec`
    /// (the process is an ordinary Poisson stream on a warped clock), so
    /// burst runs stay comparable to Poisson runs at the same rate;
    /// `burst_factor = 1` degenerates to [`Arrival::Poisson`].
    Burst {
        /// Long-run offered load (requests per second).
        rate_per_sec: f64,
        /// Peak-to-mean ratio inside a burst (must be `>= 1`).
        burst_factor: f64,
        /// Burst repetition period (ns).
        period_ns: f64,
    },
    /// A recorded trace of inter-arrival gaps (ns), cycled to cover the
    /// tenant's request budget.
    Trace {
        /// The gap sequence; must be non-empty and non-negative.
        gaps_ns: Vec<f64>,
    },
}

/// One tenant: an independent open-loop request stream.
///
/// Construct with the builders ([`TenantSpec::poisson`] /
/// [`TenantSpec::burst`] / [`TenantSpec::trace`] plus the chainable
/// setters); the fields stay public for back-compat and direct
/// inspection.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (also the report key).
    pub name: String,
    /// The arrival process.
    pub arrival: Arrival,
    /// Number of requests this tenant issues.
    pub requests: usize,
    /// Latency SLO (ns); measured-window completions above it count as
    /// violations.
    pub slo_ns: f64,
    /// Seed for the tenant's arrival and key streams.
    pub seed: u64,
    /// Scheduling priority (0 = highest). Only priority-aware schedulers
    /// ([`SchedulerKind::PrioritySlo`]) consult it; everything else
    /// treats tenants equally.
    pub priority: u8,
}

impl TenantSpec {
    /// Defaults shared by the builders: 1000 requests, a 5 µs SLO
    /// (the fig11c serving SLO), seed 0, priority 0.
    fn with_arrival(name: impl Into<String>, arrival: Arrival) -> Self {
        Self {
            name: name.into(),
            arrival,
            requests: 1000,
            slo_ns: 5_000.0,
            seed: 0,
            priority: 0,
        }
    }

    /// An open-loop Poisson tenant at `rate_per_sec` offered load.
    /// Defaults: 1000 requests, 5 µs SLO, seed 0, priority 0 — override
    /// with the chainable setters.
    pub fn poisson(name: impl Into<String>, rate_per_sec: f64) -> Self {
        Self::with_arrival(name, Arrival::Poisson { rate_per_sec })
    }

    /// A bursty tenant (see [`Arrival::Burst`]): mean `rate_per_sec`,
    /// bursts of `burst_factor`× intensity every `period_ns`. Same
    /// defaults as [`TenantSpec::poisson`].
    pub fn burst(
        name: impl Into<String>,
        rate_per_sec: f64,
        burst_factor: f64,
        period_ns: f64,
    ) -> Self {
        Self::with_arrival(
            name,
            Arrival::Burst {
                rate_per_sec,
                burst_factor,
                period_ns,
            },
        )
    }

    /// A tenant replaying a recorded trace of inter-arrival gaps (ns),
    /// cycled over its request budget. Same defaults as
    /// [`TenantSpec::poisson`].
    pub fn trace(name: impl Into<String>, gaps_ns: Vec<f64>) -> Self {
        Self::with_arrival(name, Arrival::Trace { gaps_ns })
    }

    /// Sets the number of requests this tenant issues (default 1000).
    #[must_use]
    pub fn requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Sets the latency SLO in ns (default 5000, the fig11c serving SLO).
    #[must_use]
    pub fn slo_ns(mut self, slo_ns: f64) -> Self {
        self.slo_ns = slo_ns;
        self
    }

    /// Sets the seed for the tenant's arrival and key streams (default 0;
    /// give each tenant a distinct seed for independent streams).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scheduling priority (default 0 = highest; larger is
    /// lower priority).
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// One tenant's arrival-time generator. Wraps the spec's arrival process
/// so [`run`] and [`arrival_times`] produce identical streams: Poisson
/// and Trace accumulate gaps; Burst runs a homogeneous Poisson process on
/// a warped clock and maps each warped instant into the bursty wall
/// clock (monotone, since `period_ns >= period_ns / burst_factor`).
struct ArrivalGen<'a> {
    spec: &'a TenantSpec,
    rng: m2ndp_sim::rng::StdRng,
    t_ns: f64,
    warped_ns: f64,
}

impl<'a> ArrivalGen<'a> {
    fn new(spec: &'a TenantSpec) -> Self {
        Self {
            spec,
            rng: seeded(spec.seed),
            t_ns: 0.0,
            warped_ns: 0.0,
        }
    }

    /// The arrival time (ns) of request `seq`. Must be called with
    /// consecutive `seq` starting at 0.
    fn next(&mut self, seq: usize) -> f64 {
        match &self.spec.arrival {
            Arrival::Poisson { rate_per_sec } => {
                assert!(*rate_per_sec > 0.0, "tenant rate must be positive");
                let gap = exponential(&mut self.rng, 1e9 / rate_per_sec);
                assert!(gap >= 0.0 && gap.is_finite(), "bad inter-arrival gap");
                self.t_ns += gap;
            }
            Arrival::Trace { gaps_ns } => {
                assert!(!gaps_ns.is_empty(), "trace tenants need gaps");
                let gap = gaps_ns[seq % gaps_ns.len()];
                assert!(gap >= 0.0 && gap.is_finite(), "bad inter-arrival gap");
                self.t_ns += gap;
            }
            Arrival::Burst {
                rate_per_sec,
                burst_factor,
                period_ns,
            } => {
                assert!(*rate_per_sec > 0.0, "tenant rate must be positive");
                assert!(
                    *burst_factor >= 1.0 && burst_factor.is_finite(),
                    "burst_factor must be >= 1"
                );
                assert!(
                    *period_ns > 0.0 && period_ns.is_finite(),
                    "burst period must be positive"
                );
                let gap = exponential(&mut self.rng, 1e9 / (rate_per_sec * burst_factor));
                assert!(gap >= 0.0 && gap.is_finite(), "bad inter-arrival gap");
                self.warped_ns += gap;
                // Each `period_ns / burst_factor` of warped time maps to
                // one `period_ns` wall window: the burst at its front.
                let window = period_ns / burst_factor;
                let k = (self.warped_ns / window).floor();
                self.t_ns = k * period_ns + (self.warped_ns - k * window);
            }
        }
        self.t_ns
    }
}

/// The arrival times (ns) a tenant spec generates, in order — exactly the
/// stream [`run`] feeds the runtime (same seed, same float operations).
/// Exposed so arrival processes can be tested and characterized without
/// running simulators.
pub fn arrival_times(spec: &TenantSpec) -> Vec<f64> {
    let mut arrivals = ArrivalGen::new(spec);
    (0..spec.requests).map(|seq| arrivals.next(seq)).collect()
}

/// Runtime parameters shared by all tenants.
///
/// Construct with [`ServeConfig::with_defaults`] plus the chainable
/// setters; the fields stay public for back-compat.
///
/// # Invariants
///
/// * `warmup_frac` and `drain_frac` are fractions in `[0, 1)` whose sum
///   must leave a non-empty measured window (`warmup_frac + drain_frac
///   < 1`).
/// * The effective per-device slot pool is
///   `min(model.max_concurrent(), device_slots)`, floored at 1; direct
///   MMIO's single architectural slot is enforced by the model's
///   `max_concurrent`, not by `device_slots`.
/// * `autoscale` requires `max_devices <=` the backend's device count
///   and (on multi-device backends) a replicated workload — see
///   [`ServeWorkload::replicated`]. The same replication requirement
///   applies whenever `scheduler` is load-aware
///   ([`SchedulerKind::is_dynamic`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The offload mechanism (launch/return overheads + concurrency cap).
    pub model: OffloadModel,
    /// Kernel slots the device itself sustains (48 in Table IV); the
    /// effective pool is `min(model.max_concurrent(), device_slots)`.
    pub device_slots: u32,
    /// Fraction of requests (in global arrival order) treated as warm-up
    /// and excluded from the measured window.
    pub warmup_frac: f64,
    /// Fraction of requests at the tail excluded as drain.
    pub drain_frac: f64,
    /// Record a structured trace of the run (see [`m2ndp_sim::trace`]):
    /// per-device sinks capture kernel/wave/L2/DRAM/switch events and the
    /// report carries them plus per-request phase spans (and, on the
    /// global schedule, routing and scaling instants). Off by default —
    /// tracing only observes, so results are identical either way.
    pub trace: bool,
    /// The routing/admission policy (default
    /// [`SchedulerKind::StaticFifo`], the historical behaviour).
    pub scheduler: SchedulerKind,
    /// Optional SLO-driven fleet autoscaling (default off = the fleet
    /// size is fixed for the whole run).
    pub autoscale: Option<AutoscaleConfig>,
}

impl ServeConfig {
    /// Default-parameter config for a mechanism: 48 device slots, 10%
    /// warm-up, 5% drain, tracing off, static FIFO scheduling, no
    /// autoscaling.
    pub fn with_defaults(mechanism: OffloadMechanism) -> Self {
        Self {
            model: OffloadModel::with_defaults(mechanism),
            device_slots: 48,
            warmup_frac: crate::offload::WARMUP_FRAC,
            drain_frac: 0.05,
            trace: false,
            scheduler: SchedulerKind::StaticFifo,
            autoscale: None,
        }
    }

    /// Sets the device kernel-slot cap (default 48, Table IV).
    #[must_use]
    pub fn device_slots(mut self, device_slots: u32) -> Self {
        self.device_slots = device_slots;
        self
    }

    /// Sets the warm-up fraction excluded from measurement (default 0.1).
    #[must_use]
    pub fn warmup_frac(mut self, warmup_frac: f64) -> Self {
        self.warmup_frac = warmup_frac;
        self
    }

    /// Sets the drain-tail fraction excluded from measurement
    /// (default 0.05).
    #[must_use]
    pub fn drain_frac(mut self, drain_frac: f64) -> Self {
        self.drain_frac = drain_frac;
        self
    }

    /// Turns structured tracing on or off (default off).
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the scheduling policy (default
    /// [`SchedulerKind::StaticFifo`]). Load-aware kinds require a
    /// replicated workload on multi-device backends.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables SLO-driven autoscaling (default off). Implies the global
    /// (serial) schedule and, on multi-device backends, a replicated
    /// workload.
    #[must_use]
    pub fn autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Issuing tenant (also the ASID on the M²func wire).
    pub tenant: u16,
    /// Per-tenant sequence number (arrival order within the tenant).
    pub seq: u64,
    /// Arrival time (ns).
    pub arrival_ns: f64,
    /// Workload key (e.g. the KV item id); determines the owning device.
    pub key: u64,
}

/// What the runtime needs from a workload: keys, routing, launches, and
/// functional verification.
///
/// Key sampling happens once, serially, before anything runs; the
/// launch/verify methods take `&self` because the runtime calls them from
/// concurrent per-device shards (implementations must derive launches
/// purely from the request and the per-device state built at setup).
pub trait ServeWorkload {
    /// Samples the key of request `seq` of `tenant` from the workload's key
    /// distribution (`rng` is the tenant's dedicated key stream).
    fn sample_key(&mut self, tenant: u16, rng: &mut m2ndp_sim::rng::StdRng) -> u64;

    /// Fleet-global address owning `key`'s data (what the `HdmRouter`
    /// routes on). Ignored by single-device backends.
    fn route_addr(&self, key: u64, devices: usize) -> u64;

    /// The device-local launch that serves `req` on device `dev`.
    fn launch_args(&self, req: &Request, dev: usize) -> LaunchArgs;

    /// Functional check after the request's kernel ran.
    ///
    /// # Errors
    /// Describes the mismatch.
    fn verify(&self, req: &Request, dev: usize, device: &CxlM2ndpDevice) -> Result<(), String>;

    /// Whether every device holds the full data set, so *any* device can
    /// serve *any* key (default `false` = key-sharded). Load-aware
    /// scheduling, work stealing, and autoscaling all require `true` on
    /// multi-device backends, because they place requests off the key's
    /// home device.
    fn replicated(&self) -> bool {
        false
    }
}

/// The simulators the runtime serves against.
#[derive(Debug)]
pub enum ServeBackend {
    /// One standalone device; the launch store crosses only the device's
    /// own CXL link (already inside the mechanism's `pre_ns`).
    Device(Box<CxlM2ndpDevice>),
    /// N devices behind the CXL switch; every launch is routed through the
    /// `HdmRouter` and charged on the switch ports.
    Fleet(Box<Fleet>),
}

impl ServeBackend {
    /// Number of devices.
    pub fn devices(&self) -> usize {
        match self {
            ServeBackend::Device(_) => 1,
            ServeBackend::Fleet(f) => f.len(),
        }
    }

    /// The device clock (all fleet devices share one domain).
    pub fn clock(&self) -> Frequency {
        match self {
            ServeBackend::Device(d) => d.config().engine.freq,
            ServeBackend::Fleet(f) => f.clock(),
        }
    }

    /// Immutable access to device `i`.
    pub fn device(&self, i: usize) -> &CxlM2ndpDevice {
        match self {
            ServeBackend::Device(d) => d,
            ServeBackend::Fleet(f) => f.device(i),
        }
    }

    /// Mutable access to device `i`.
    pub fn device_mut(&mut self, i: usize) -> &mut CxlM2ndpDevice {
        match self {
            ServeBackend::Device(d) => d,
            ServeBackend::Fleet(f) => f.device_mut(i),
        }
    }

    /// The fleet, when this backend is one (switch counters for tests).
    pub fn fleet(&self) -> Option<&Fleet> {
        match self {
            ServeBackend::Device(_) => None,
            ServeBackend::Fleet(f) => Some(f),
        }
    }

    /// Attaches one buffering trace sink per device.
    fn attach_tracers(&mut self) {
        match self {
            ServeBackend::Device(d) => d.set_tracer(0, Box::new(JsonSink::new())),
            ServeBackend::Fleet(f) => f.set_tracers(|_| Box::new(JsonSink::new())),
        }
    }

    /// Detaches every sink, returning all device events merged in device
    /// index order (deterministic at any shard parallelism).
    fn collect_traces(&mut self) -> Vec<TraceEvent> {
        match self {
            ServeBackend::Device(d) => d.take_trace(),
            ServeBackend::Fleet(f) => f.take_traces(),
        }
    }
}

/// Runs `tenants` against `backend`, one kernel launch per request.
///
/// Admission is event-driven: arrivals enqueue into a device queue picked
/// by [`ServeConfig::scheduler`] (the default routes to the key's owning
/// device); whenever the device has a free kernel slot a queued request is
/// admitted, pays the mechanism's pre-launch phase (plus, in fleets, the
/// switch's cycle-accurate delivery skew for the launch store), runs its
/// kernel *on the device simulator* to obtain the real service time, and
/// is observed by the host `post_ns` after kernel completion.
///
/// Every run executes the same event loop. With a placement-pure
/// scheduler and no autoscaling it runs *partitioned*: one instance per
/// device, advancing concurrently on the fleet's shard pool
/// ([`Fleet::parallelism`] workers), with the report bit-identical at
/// every worker count. Load-aware schedulers and autoscaled runs take the
/// *global* schedule: one instance over every device, serial and equally
/// deterministic (see the module docs and [`scheduler`]). The partitioned
/// schedule charges a fixed fleet `devices × makespan` of device time and
/// emits no `Route` trace events; the global one integrates device time
/// over each device's active intervals and traces every routing decision.
///
/// # Panics
/// Panics on malformed tenant specs (empty trace, non-positive rate), on
/// launch rejections from the device, on functional verification
/// failures — a serving run that drops requests is a broken experiment,
/// not a data point — and on dynamic scheduling or autoscaling over a
/// non-replicated multi-device workload.
pub fn run<W: ServeWorkload + Sync>(
    backend: &mut ServeBackend,
    workload: &mut W,
    cfg: &ServeConfig,
    tenants: &[TenantSpec],
) -> ServeReport {
    let ndev = backend.devices();
    let clock = backend.clock();
    if cfg.trace {
        backend.attach_tracers();
    }

    // ---- generate every tenant's arrival + key stream ----
    let mut requests: Vec<Request> = Vec::new();
    for (t, spec) in tenants.iter().enumerate() {
        let mut arrivals = ArrivalGen::new(spec);
        let mut key_rng = seeded(spec.seed ^ 0x4B45_5953); // "KEYS"
        for seq in 0..spec.requests {
            let arrival_ns = arrivals.next(seq);
            requests.push(Request {
                tenant: t as u16,
                seq: seq as u64,
                arrival_ns,
                key: workload.sample_key(t as u16, &mut key_rng),
            });
        }
    }
    // Global arrival order; ties break by (tenant, seq) so merged streams
    // stay deterministic.
    requests.sort_by(|a, b| {
        a.arrival_ns
            .total_cmp(&b.arrival_ns)
            .then(a.tenant.cmp(&b.tenant))
            .then(a.seq.cmp(&b.seq))
    });
    let n = requests.len();

    // Home device of each request: what the HdmRouter picks.
    let views: Vec<ReqView> = requests
        .iter()
        .map(|r| {
            let home = match &*backend {
                ServeBackend::Device(_) => 0,
                ServeBackend::Fleet(fleet) => fleet
                    .router()
                    .device_of(workload.route_addr(r.key, ndev))
                    .expect("workload routes inside the fleet HDM"),
            };
            let spec = &tenants[r.tenant as usize];
            ReqView {
                tenant: r.tenant,
                seq: r.seq,
                arrival_ns: r.arrival_ns,
                key: r.key,
                home,
                slo_ns: spec.slo_ns,
                priority: spec.priority,
            }
        })
        .collect();

    // Load-aware scheduling and elastic fleets route against live state,
    // so they take the global schedule.
    let global = cfg.scheduler.is_dynamic() || cfg.autoscale.is_some();
    if global {
        assert!(
            ndev == 1 || workload.replicated(),
            "dynamic scheduling ({}) and autoscaling place requests off their \
             home device, which requires a workload replicated on every device \
             (ServeWorkload::replicated) — sharded workloads can only run the \
             static schedulers on a fixed fleet",
            cfg.scheduler.name()
        );
        if let Some(auto_cfg) = &cfg.autoscale {
            auto_cfg.validate(ndev);
        }
    }

    let ctx = event_loop::LoopCtx {
        requests: &requests,
        views: &views,
        workload: &*workload,
        cfg,
        clock,
    };
    let all: Vec<usize> = (0..n).collect();
    let outs = match backend {
        ServeBackend::Device(device) => vec![ctx.run(std::slice::from_mut(&mut **device), 0, &all)],
        ServeBackend::Fleet(fleet) if global => {
            vec![fleet.lend_shards(|shards| ctx.run(shards, 0, &all))]
        }
        ServeBackend::Fleet(fleet) => {
            // Each device's requests, in global arrival order.
            let mut by_home: Vec<Vec<usize>> = vec![Vec::new(); ndev];
            for (i, v) in views.iter().enumerate() {
                by_home[v.home].push(i);
            }
            let jobs = fleet.parallelism();
            fleet.with_shards(jobs, |shard| {
                let dev = shard.index();
                ctx.run(std::slice::from_mut(shard), dev, &by_home[dev])
            })
        }
    };

    // ---- merge the loop instances (in device order) back into global
    // arrival order ----
    let mut tagged: Vec<(usize, ReqRecord)> = Vec::with_capacity(n);
    let mut aux = report::RunAux {
        max_outstanding: Vec::with_capacity(ndev),
        launches: 0,
        device_time_ns: None,
        scale_events: Vec::new(),
        route_events: global,
    };
    for out in outs {
        tagged.extend(out.records);
        aux.max_outstanding.extend(out.max_outstanding);
        aux.launches += out.launches;
        aux.scale_events.extend(out.scale_events);
        // A partitioned instance closes its device time at its own
        // makespan; the report charges a fixed fleet devices × makespan.
        if global {
            aux.device_time_ns = Some(out.device_time_ns);
        }
    }
    tagged.sort_by_key(|&(i, _)| i);
    let records = tagged.into_iter().map(|(_, r)| r).collect();
    report::finish_run(backend, cfg, tenants, records, aux)
}

// ---------------------------------------------------------------------------
// The KVStore serving workloads (fig10b, fig11b, fig11c, fig15)
// ---------------------------------------------------------------------------

/// A KVStore GET workload sharded across the backend's devices: the global
/// key space is striped at item granularity (`key % devices` owns the key),
/// each device holds its shard as a real hash table in its own memory, and
/// every request is one fine-grained GET kernel.
#[derive(Debug)]
pub struct KvServeWorkload {
    shards: Vec<kvstore::KvData>,
    kernels: Vec<KernelId>,
    shard_bases: Vec<u64>,
    total_items: u64,
    zipf: Zipf,
}

/// Scale of one serving shard (items per device; buckets = items / 2).
pub const KV_ITEMS_PER_DEVICE: u64 = 16 << 10;

impl KvServeWorkload {
    /// Builds the sharded store inside `backend`'s devices (one
    /// [`kvstore::generate`] per device, `items_per_device` each) and
    /// registers the GET kernel everywhere. `zipf_theta` skews the key
    /// popularity (YCSB default 0.99).
    pub fn build(backend: &mut ServeBackend, items_per_device: u64, zipf_theta: f64) -> Self {
        let ndev = backend.devices();
        let mut shards = Vec::with_capacity(ndev);
        let mut kernels = Vec::with_capacity(ndev);
        let mut shard_bases = Vec::with_capacity(ndev);
        for dev in 0..ndev {
            let cfg = kvstore::KvConfig {
                items: items_per_device,
                buckets: (items_per_device / 2).max(1),
                get_ratio: 1.0,
                requests: 0,
                zipf_theta: 0.99,
                seed: 0xCB5A ^ dev as u64,
            };
            let (data, kid, base) = match backend {
                ServeBackend::Device(device) => {
                    let data = kvstore::generate(cfg, device.memory_mut());
                    let kid = device.register_kernel(kvstore::kernel());
                    (data, kid, 0)
                }
                ServeBackend::Fleet(fleet) => {
                    let data = kvstore::generate(cfg, fleet.device_mut(dev).memory_mut());
                    let kid = fleet.device_mut(dev).register_kernel(kvstore::kernel());
                    let base = fleet.shard_base(dev);
                    (data, kid, base)
                }
            };
            shards.push(data);
            kernels.push(kid);
            shard_bases.push(base);
        }
        let total_items = items_per_device * ndev as u64;
        Self {
            shards,
            kernels,
            shard_bases,
            total_items,
            zipf: Zipf::new(total_items, zipf_theta),
        }
    }

    /// Total items across all shards.
    pub fn total_items(&self) -> u64 {
        self.total_items
    }

    fn owner(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    fn local_request(&self, key: u64) -> kvstore::KvRequest {
        kvstore::KvRequest {
            item: key / self.shards.len() as u64,
            get: true,
        }
    }

    fn slot(req: &Request) -> u32 {
        (req.seq % 64) as u32
    }
}

impl ServeWorkload for KvServeWorkload {
    fn sample_key(&mut self, _tenant: u16, rng: &mut m2ndp_sim::rng::StdRng) -> u64 {
        self.zipf.sample(rng)
    }

    fn route_addr(&self, key: u64, _devices: usize) -> u64 {
        self.shard_bases[self.owner(key)]
    }

    fn launch_args(&self, req: &Request, dev: usize) -> LaunchArgs {
        debug_assert_eq!(self.owner(req.key), dev);
        kvstore::launch(
            &self.shards[dev],
            self.kernels[dev],
            self.local_request(req.key),
            Self::slot(req),
            0,
        )
    }

    fn verify(&self, req: &Request, dev: usize, device: &CxlM2ndpDevice) -> Result<(), String> {
        kvstore::verify_get(
            &self.shards[dev],
            device.memory(),
            self.local_request(req.key),
            Self::slot(req),
        )
    }
}

/// A KVStore GET workload *replicated* on every device: each device holds
/// the identical full store (same [`kvstore::generate`] seed), so any
/// device can serve any key — the placement freedom that load-aware
/// scheduling, work stealing, and autoscaling require
/// ([`ServeWorkload::replicated`]).
///
/// Keys still have a *home* device (`key % devices`, exposed through
/// [`ServeWorkload::route_addr`] as the device's HDM base) so
/// locality-seeking schedulers have something to aim at; off-home
/// placement changes which replica answers, not the answer.
#[derive(Debug)]
pub struct ReplicatedKvServeWorkload {
    replicas: Vec<kvstore::KvData>,
    kernels: Vec<KernelId>,
    shard_bases: Vec<u64>,
    items: u64,
    zipf: Zipf,
}

impl ReplicatedKvServeWorkload {
    /// Builds the same `items`-entry store inside *every* device of
    /// `backend` and registers the GET kernel everywhere. `zipf_theta`
    /// skews the key popularity (YCSB default 0.99).
    pub fn build(backend: &mut ServeBackend, items: u64, zipf_theta: f64) -> Self {
        let ndev = backend.devices();
        let mut replicas = Vec::with_capacity(ndev);
        let mut kernels = Vec::with_capacity(ndev);
        let mut shard_bases = Vec::with_capacity(ndev);
        for dev in 0..ndev {
            // Identical config — crucially the same seed — on every
            // device, so all replicas hold the same key/value pairs.
            let cfg = kvstore::KvConfig {
                items,
                buckets: (items / 2).max(1),
                get_ratio: 1.0,
                requests: 0,
                zipf_theta: 0.99,
                seed: 0xCB5A,
            };
            let (data, kid, base) = match backend {
                ServeBackend::Device(device) => {
                    let data = kvstore::generate(cfg, device.memory_mut());
                    let kid = device.register_kernel(kvstore::kernel());
                    (data, kid, 0)
                }
                ServeBackend::Fleet(fleet) => {
                    let data = kvstore::generate(cfg, fleet.device_mut(dev).memory_mut());
                    let kid = fleet.device_mut(dev).register_kernel(kvstore::kernel());
                    let base = fleet.shard_base(dev);
                    (data, kid, base)
                }
            };
            replicas.push(data);
            kernels.push(kid);
            shard_bases.push(base);
        }
        Self {
            replicas,
            kernels,
            shard_bases,
            items,
            zipf: Zipf::new(items, zipf_theta),
        }
    }

    /// Items in the (replicated) store.
    pub fn items(&self) -> u64 {
        self.items
    }

    fn local_request(key: u64) -> kvstore::KvRequest {
        kvstore::KvRequest {
            item: key,
            get: true,
        }
    }

    fn slot(req: &Request) -> u32 {
        (req.seq % 64) as u32
    }
}

impl ServeWorkload for ReplicatedKvServeWorkload {
    fn sample_key(&mut self, _tenant: u16, rng: &mut m2ndp_sim::rng::StdRng) -> u64 {
        self.zipf.sample(rng)
    }

    fn route_addr(&self, key: u64, _devices: usize) -> u64 {
        self.shard_bases[(key % self.replicas.len() as u64) as usize]
    }

    fn launch_args(&self, req: &Request, dev: usize) -> LaunchArgs {
        kvstore::launch(
            &self.replicas[dev],
            self.kernels[dev],
            Self::local_request(req.key),
            Self::slot(req),
            0,
        )
    }

    fn verify(&self, req: &Request, dev: usize, device: &CxlM2ndpDevice) -> Result<(), String> {
        kvstore::verify_get(
            &self.replicas[dev],
            device.memory(),
            Self::local_request(req.key),
            Self::slot(req),
        )
    }

    fn replicated(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2ndp_core::fleet::FleetConfig;
    use m2ndp_core::M2ndpConfig;
    use m2ndp_cxl::{CxlIoModel, CxlLinkConfig, SwitchConfig};
    use m2ndp_sim::trace::ScaleDir;

    fn small_cfg() -> M2ndpConfig {
        let mut cfg = M2ndpConfig::default_device();
        cfg.engine.units = 2;
        cfg
    }

    fn fleet_backend(devices: usize) -> ServeBackend {
        ServeBackend::Fleet(Box::new(Fleet::new(FleetConfig {
            devices,
            device: small_cfg(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 64 << 20,
        })))
    }

    /// Serves `tenants` on a standalone device holding a 1K-item store.
    fn serve_on_device(cfg: &ServeConfig, tenants: &[TenantSpec]) -> ServeReport {
        let mut backend = ServeBackend::Device(Box::new(CxlM2ndpDevice::new(small_cfg())));
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        run(&mut backend, &mut wl, cfg, tenants)
    }

    /// `requests` requests that all arrive at t = 0.
    fn all_at_zero(requests: usize) -> Vec<TenantSpec> {
        vec![TenantSpec::trace("t0", vec![0.0]).requests(requests)]
    }

    fn tenants(requests: usize, rate: f64) -> Vec<TenantSpec> {
        vec![
            TenantSpec::poisson("poisson", rate * 0.7)
                .requests(requests)
                .slo_ns(10_000.0)
                .seed(11),
            TenantSpec::trace(
                "trace",
                vec![
                    1e9 / (rate * 0.3),
                    0.5e9 / (rate * 0.3),
                    1.5e9 / (rate * 0.3),
                ],
            )
            .requests(requests / 2)
            .slo_ns(10_000.0)
            .seed(13),
        ]
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let mut backend = fleet_backend(2);
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func);
        let report = run(&mut backend, &mut wl, &cfg, &tenants(120, 2e5));
        assert_eq!(report.launches, 120 + 60);
        assert_eq!(report.records.len(), 180);
        assert_eq!(report.tenants[0].completed, 120);
        assert_eq!(report.tenants[1].completed, 60);
        assert!(report.throughput > 0.0);
        // A static fleet's device-time is devices × makespan.
        let makespan = report
            .records
            .iter()
            .map(|r| r.observed_ns)
            .fold(0.0f64, f64::max);
        assert_eq!(report.device_time_ns, 2.0 * makespan);
        assert!(report.scale_events.is_empty());
        // Every launch store crossed the switch.
        assert_eq!(
            report.launches,
            backend.fleet().unwrap().switch().host_transfers.get()
        );
    }

    #[test]
    fn latencies_are_at_least_the_mechanism_overhead() {
        let mut backend = fleet_backend(2);
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::CxlIoRingBuffer);
        let report = run(&mut backend, &mut wl, &cfg, &tenants(80, 2e5));
        let floor = cfg.model.overhead_ns();
        for r in &report.records {
            assert!(
                r.latency_ns() >= floor,
                "latency {} below overhead {floor}",
                r.latency_ns()
            );
        }
    }

    #[test]
    fn direct_mmio_keeps_one_outstanding_kernel() {
        let mut backend = fleet_backend(2);
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::CxlIoDirect);
        // Saturating load: queues build, but the register constraint holds.
        let report = run(&mut backend, &mut wl, &cfg, &tenants(150, 5e6));
        for (d, &m) in report.max_outstanding.iter().enumerate() {
            assert!(m <= 1, "device {d} had {m} outstanding under direct MMIO");
        }
    }

    #[test]
    fn fifo_admission_preserves_per_tenant_order_per_device() {
        let mut backend = fleet_backend(4);
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func);
        let report = run(&mut backend, &mut wl, &cfg, &tenants(200, 3e6));
        let mut last: std::collections::HashMap<(u16, usize), (u64, f64)> =
            std::collections::HashMap::new();
        // records are in global arrival order; admissions per (tenant,
        // device) must be monotone in both seq and time.
        for r in &report.records {
            if let Some(&(seq, adm)) = last.get(&(r.tenant, r.device)) {
                assert!(r.seq > seq, "tenant {} reordered on {}", r.tenant, r.device);
                assert!(r.admitted_ns >= adm, "admission time went backwards");
            }
            last.insert((r.tenant, r.device), (r.seq, r.admitted_ns));
        }
    }

    #[test]
    fn m2func_beats_ring_buffer_p95_at_light_load() {
        let p95 = |mech: OffloadMechanism| {
            let mut backend = fleet_backend(1);
            let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
            let cfg = ServeConfig::with_defaults(mech);
            let mut report = run(&mut backend, &mut wl, &cfg, &tenants(150, 1e5));
            report.p95_ns()
        };
        let m2 = p95(OffloadMechanism::M2Func);
        let rb = p95(OffloadMechanism::CxlIoRingBuffer);
        assert!(rb > 2.0 * m2, "RB P95 {rb} should dwarf M2func P95 {m2}");
    }

    /// The event clock stays in `f64` ns: on direct MMIO's single slot,
    /// each request is admitted exactly when the previous one is observed,
    /// so the clock is the exact sum of the per-request periods.
    /// Fractional link latencies make a rounded clock drift visibly.
    #[test]
    fn f64_clock_accrues_no_quantization_drift() {
        let model = OffloadModel::new(
            OffloadMechanism::CxlIoDirect,
            CxlLinkConfig::default_150ns(),
            CxlIoModel::with_one_way_ns(333.3),
        );
        let (pre, post) = (model.pre_ns(), model.post_ns());
        let cfg = ServeConfig {
            model,
            ..ServeConfig::with_defaults(OffloadMechanism::CxlIoDirect)
        };
        let mut clock = 0.0;
        for r in &serve_on_device(&cfg, &all_at_zero(300)).records {
            assert_eq!(r.admitted_ns, clock, "admitted off the exact clock");
            assert_eq!(r.start_ns, r.admitted_ns + pre);
            assert_eq!(r.observed_ns, r.start_ns + r.service_ns + post);
            clock = r.observed_ns;
        }
    }

    /// The ring buffer's doorbell/DMA phase starts only once a kernel slot
    /// is free; it never overlaps the queue wait.
    #[test]
    fn pre_launch_overhead_is_charged_after_admission() {
        let cfg = ServeConfig::with_defaults(OffloadMechanism::CxlIoRingBuffer).device_slots(1);
        let (pre, post) = (cfg.model.pre_ns(), cfg.model.post_ns());
        let report = serve_on_device(&cfg, &all_at_zero(2));
        let [first, second] = [report.records[0], report.records[1]];
        assert_eq!(first.latency_ns(), pre + first.service_ns + post);
        // The second request queues behind the first kernel, then pays its
        // own full pre phase.
        assert_eq!(second.admitted_ns, first.start_ns + first.service_ns);
        assert_eq!(
            second.latency_ns(),
            pre + first.service_ns + pre + second.service_ns + post
        );
    }

    /// A saturated run reports the slot pool's steady service rate: the
    /// window opens after the warm-up requests, not at t = 0.
    #[test]
    fn throughput_is_measured_over_the_steady_window() {
        // 8 slots: 120 pool turnovers, so the window edges cost ~1%.
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func).device_slots(8);
        let pre = cfg.model.pre_ns();
        let report = serve_on_device(&cfg, &all_at_zero(960));
        // Mean slot occupancy of the measured requests (10% warm-up and 5%
        // drain excluded): warm-up kernels run on cold caches.
        let measured = &report.records[96..912];
        let occupancy =
            measured.iter().map(|r| pre + r.service_ns).sum::<f64>() / measured.len() as f64;
        let steady = 8.0 / (occupancy * 1e-9);
        assert!(
            (report.throughput - steady).abs() / steady < 0.02,
            "windowed throughput {:.3e} vs steady-state {steady:.3e}",
            report.throughput
        );
        let (open, close) = report.steady_window;
        assert!(open > 0.0 && close > open);
    }

    /// At a saturating offered load M²func's 48 slots sustain far more
    /// than direct MMIO's single serialized register.
    #[test]
    fn m2func_sustains_higher_throughput_than_direct() {
        let throughput = |mech: OffloadMechanism| {
            let tenant = TenantSpec::poisson("kvs", 1e8).requests(400).seed(42);
            serve_on_device(&ServeConfig::with_defaults(mech), &[tenant]).throughput
        };
        let m2 = throughput(OffloadMechanism::M2Func);
        let dr = throughput(OffloadMechanism::CxlIoDirect);
        assert!(m2 > 10.0 * dr, "M2func {m2:.2e} vs direct {dr:.2e}");
    }

    /// Arrivals must be non-decreasing: a trace with a negative gap is a
    /// malformed spec, not a data point.
    #[test]
    #[should_panic(expected = "bad inter-arrival gap")]
    fn negative_trace_gap_is_rejected() {
        let _ = arrival_times(&TenantSpec::trace("t", vec![10.0, -5.0]).requests(2));
    }

    #[test]
    fn burst_arrivals_are_monotone_and_converge_to_mean_rate() {
        let spec = TenantSpec::burst("bursty", 1e6, 8.0, 100_000.0)
            .requests(4000)
            .seed(42);
        let times = arrival_times(&spec);
        assert_eq!(times.len(), 4000);
        for w in times.windows(2) {
            assert!(w[1] >= w[0], "burst arrivals must be monotone");
        }
        let span_s = times.last().unwrap() * 1e-9;
        let rate = times.len() as f64 / span_s;
        let err = (rate - 1e6).abs() / 1e6;
        assert!(err < 0.10, "empirical rate {rate:.0} vs configured 1e6");
        // And the bursts are real: most gaps are much shorter than the
        // mean (arrivals compressed 8×), a few span the silent window.
        let mean_gap = times.last().unwrap() / times.len() as f64;
        let short = times.windows(2).filter(|w| w[1] - w[0] < mean_gap).count();
        assert!(short * 4 > times.len() * 3, "arrivals should be clustered");
    }

    #[test]
    fn shortest_queue_balances_a_replicated_store() {
        let mut backend = fleet_backend(2);
        let mut wl = ReplicatedKvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func)
            .scheduler(SchedulerKind::ShortestQueue);
        let report = run(&mut backend, &mut wl, &cfg, &tenants(120, 2e6));
        assert_eq!(report.records.len(), 180);
        // Both devices served work (Zipf-skewed home routing would not
        // guarantee that at these sizes; least-loaded routing does).
        let mut by_dev = [0u64; 2];
        for r in &report.records {
            by_dev[r.device] += 1;
        }
        assert!(by_dev.iter().all(|&c| c > 0), "one device idle: {by_dev:?}");
    }

    #[test]
    #[should_panic(expected = "replicated")]
    fn dynamic_scheduling_rejects_sharded_workloads() {
        let mut backend = fleet_backend(2);
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func)
            .scheduler(SchedulerKind::ShortestQueue);
        let _ = run(&mut backend, &mut wl, &cfg, &tenants(20, 2e5));
    }

    #[test]
    fn autoscaler_grows_the_fleet_under_load_and_records_events() {
        let mut backend = fleet_backend(4);
        let mut wl = ReplicatedKvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        // One kernel slot per device + saturating load + a tight target:
        // the fleet must grow off its 1-device floor.
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func)
            .device_slots(1)
            .scheduler(SchedulerKind::ShortestQueue)
            .autoscale(
                AutoscaleConfig::new(1, 4, 4_000.0)
                    .interval_ns(20_000.0)
                    .window(64),
            );
        let report = run(&mut backend, &mut wl, &cfg, &tenants(300, 5e6));
        assert_eq!(report.records.len(), 450);
        assert!(
            report
                .scale_events
                .iter()
                .any(|e| matches!(e.dir, ScaleDir::Up)),
            "expected at least one scale-up, got {:?}",
            report.scale_events
        );
        // Device-time stays below the full-fleet envelope: some devices
        // were parked part of the run.
        let makespan = report
            .records
            .iter()
            .map(|r| r.observed_ns)
            .fold(0.0f64, f64::max);
        assert!(report.device_time_ns < 4.0 * makespan);
        // Active-interval bookkeeping matches the event log: every Up has
        // a later active count, every DrainDone a parked device.
        for e in &report.scale_events {
            assert!(e.device < 4);
            assert!(e.t_ns > 0.0);
        }
    }

    #[test]
    fn priority_slo_prefers_high_priority_tenant_under_saturation() {
        let run_p95 = |kind: SchedulerKind| {
            let mut backend = fleet_backend(2);
            let mut wl = ReplicatedKvServeWorkload::build(&mut backend, 1 << 10, 0.9);
            let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func).scheduler(kind);
            let specs = vec![
                TenantSpec::poisson("latency", 2e6)
                    .requests(150)
                    .slo_ns(3_000.0)
                    .seed(11)
                    .priority(0),
                TenantSpec::poisson("batch", 4e6)
                    .requests(300)
                    .slo_ns(50_000.0)
                    .seed(13)
                    .priority(3),
            ];
            let mut report = run(&mut backend, &mut wl, &cfg, &specs);
            report.tenants[0].latencies.percentile(0.95)
        };
        let prio = run_p95(SchedulerKind::PrioritySlo);
        let fair = run_p95(SchedulerKind::ShortestQueue);
        assert!(
            prio <= fair,
            "priority scheduling should not hurt the high-priority tenant: {prio} vs {fair}"
        );
    }
}
