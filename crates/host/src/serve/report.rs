//! Serving-run outcomes: per-request timing records, per-tenant and
//! run-level reports, and the shared post-processing that turns raw
//! records into a [`ServeReport`].
//!
//! Both schedules of the serving loop — partitioned and global — end
//! here: [`finish_run`] computes the steady measurement window, tenant
//! histograms, SLO counters, and the opt-in trace assembly from the same
//! record stream, so the two schedules cannot drift in how they measure.

use m2ndp_core::{MetricSet, StatValue};
use m2ndp_sim::json::Json;
use m2ndp_sim::trace::{EventKind, Lane, ReqPhase, TraceEvent};
use m2ndp_sim::FHistogram;

use super::autoscale::ScaleEvent;
use super::{ServeBackend, ServeConfig, TenantSpec};

/// Full timing record of one served request.
#[derive(Debug, Clone, Copy)]
pub struct ReqRecord {
    /// Issuing tenant.
    pub tenant: u16,
    /// Per-tenant sequence number.
    pub seq: u64,
    /// Device that served the request.
    pub device: usize,
    /// Arrival (ns).
    pub arrival_ns: f64,
    /// Admission into a kernel slot (ns, `>= arrival_ns`).
    pub admitted_ns: f64,
    /// Kernel start after the pre-launch phase (+ switch skew in fleets).
    pub start_ns: f64,
    /// Simulated kernel service time (ns, from the device simulator).
    pub service_ns: f64,
    /// Host-observed completion (ns).
    pub observed_ns: f64,
}

impl ReqRecord {
    /// End-to-end latency (ns).
    pub fn latency_ns(&self) -> f64 {
        self.observed_ns - self.arrival_ns
    }

    /// The request's latency decomposed into the four
    /// [`ReqPhase`] durations, in [`ReqPhase::ALL`] order: queue
    /// (arrival → admission), launch (admission → kernel start, including
    /// switch skew and the mechanism's pre phase), execute (simulated
    /// kernel service), link (kernel completion → host observation, the
    /// mechanism's return path). The link phase is computed as the residual
    /// so the four durations sum to [`Self::latency_ns`] up to one float
    /// rounding step.
    pub fn phase_ns(&self) -> [f64; 4] {
        let queue = self.admitted_ns - self.arrival_ns;
        let launch = self.start_ns - self.admitted_ns;
        let execute = self.service_ns;
        let link = self.latency_ns() - (queue + launch + execute);
        [queue, launch, execute, link]
    }
}

/// Per-tenant outcome over the measured window.
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Requests completed (all, including warm-up/drain).
    pub completed: u64,
    /// Requests inside the measured window.
    pub measured: u64,
    /// Measured-window end-to-end latencies (ns).
    pub latencies: FHistogram,
    /// Measured completions above the tenant's SLO.
    pub slo_violations: u64,
}

impl TenantReport {
    /// The tenant's outcome in the workspace-wide metrics shape (same
    /// [`MetricSet`] as `DeviceStats::metrics`).
    pub fn metrics(&mut self) -> MetricSet {
        MetricSet::from(vec![
            ("completed".to_string(), StatValue::U64(self.completed)),
            ("measured".to_string(), StatValue::U64(self.measured)),
            (
                "p50_ns".to_string(),
                StatValue::F64(self.latencies.percentile(0.50)),
            ),
            (
                "p95_ns".to_string(),
                StatValue::F64(self.latencies.percentile(0.95)),
            ),
            (
                "slo_violations".to_string(),
                StatValue::U64(self.slo_violations),
            ),
        ])
    }
}

/// Outcome of one serving run.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-tenant reports, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Measured-window latencies across all tenants.
    pub combined: FHistogram,
    /// Steady-state throughput (requests/s) over the measured window: the
    /// window opens when warm-up is over (the first measured arrival, or
    /// the last warm-up completion if the ramp is still draining) and
    /// closes at the last measured completion; drain-tail requests are
    /// excluded from the count entirely.
    pub throughput: f64,
    /// Offered load (requests/s): total requests over the arrival span.
    pub offered_per_sec: f64,
    /// The `[open, close]` measurement window (ns).
    pub steady_window: (f64, f64),
    /// Peak concurrently outstanding kernels per device (direct MMIO must
    /// never exceed 1).
    pub max_outstanding: Vec<u32>,
    /// Total kernel launches performed on the simulators.
    pub launches: u64,
    /// Every request's timing record, in global arrival order.
    pub records: Vec<ReqRecord>,
    /// Aggregate device-busy time (ns): the integral of active-device
    /// count over the run. For a static fleet this is `devices × makespan`;
    /// under autoscaling each device contributes only the intervals it was
    /// active or draining — the denominator of the fig15 device-hours
    /// saving.
    pub device_time_ns: f64,
    /// The autoscaler's lifecycle transitions, in event order (empty when
    /// autoscaling was off).
    pub scale_events: Vec<ScaleEvent>,
    /// Structured trace of the run when [`ServeConfig::trace`] was on
    /// (empty otherwise): device-internal events in device index order,
    /// followed by per-request phase spans in global arrival order, then
    /// scale events in event order.
    pub trace: Vec<TraceEvent>,
    /// Canonical disassembly of the registered kernels
    /// (`(id, name, text)`), exported with traces for instruction-level
    /// annotation of kernel spans. Empty when tracing was off.
    pub trace_kernels: Vec<(u32, String, String)>,
}

impl ServeReport {
    /// Measured-window P95 across all tenants (ns).
    pub fn p95_ns(&mut self) -> f64 {
        self.combined.percentile(0.95)
    }

    /// The run's headline numbers in the workspace-wide metrics shape
    /// (same [`MetricSet`] as `DeviceStats::metrics`): the figure emitters
    /// and the `m2ndp-trace` CLI both read this instead of picking struct
    /// fields ad hoc.
    pub fn metrics(&mut self) -> MetricSet {
        let slo: u64 = self.tenants.iter().map(|t| t.slo_violations).sum();
        let max_out = self.max_outstanding.iter().copied().max().unwrap_or(0);
        MetricSet::from(vec![
            (
                "throughput_rps".to_string(),
                StatValue::F64(self.throughput),
            ),
            (
                "offered_rps".to_string(),
                StatValue::F64(self.offered_per_sec),
            ),
            (
                "p50_ns".to_string(),
                StatValue::F64(self.combined.percentile(0.50)),
            ),
            ("p95_ns".to_string(), StatValue::F64(self.p95_ns())),
            ("slo_violations".to_string(), StatValue::U64(slo)),
            (
                "max_outstanding".to_string(),
                StatValue::U64(u64::from(max_out)),
            ),
            ("launches".to_string(), StatValue::U64(self.launches)),
        ])
    }

    /// Chrome trace-event export of a traced run (loads in Perfetto and
    /// `chrome://tracing`). The kernel disassembly rides along under
    /// `otherData.kernels` so viewers and the `m2ndp-trace` CLI can
    /// annotate kernel spans at instruction level. Deterministic: the same
    /// run produces byte-identical JSON at any shard parallelism.
    pub fn chrome_trace(&self) -> Json {
        let kernels = Json::Arr(
            self.trace_kernels
                .iter()
                .map(|(id, name, disasm)| {
                    Json::Obj(vec![
                        ("id".to_string(), Json::U64(u64::from(*id))),
                        ("name".to_string(), Json::Str(name.clone())),
                        ("disassembly".to_string(), Json::Str(disasm.clone())),
                    ])
                })
                .collect(),
        );
        m2ndp_sim::trace::chrome_trace_json(&self.trace, vec![("kernels".to_string(), kernels)])
    }
}

/// Loop outputs that [`finish_run`] folds into the report alongside the
/// record stream.
pub(super) struct RunAux {
    /// Peak concurrently outstanding kernels per device.
    pub max_outstanding: Vec<u32>,
    /// Total kernel launches.
    pub launches: u64,
    /// Device-busy integral computed by the global schedule; `None` means
    /// a partitioned run on a fixed fleet (`devices × makespan`).
    pub device_time_ns: Option<f64>,
    /// Autoscaler lifecycle transitions (empty without autoscaling).
    pub scale_events: Vec<ScaleEvent>,
    /// Whether to emit per-request `Route` instants into the trace (the
    /// global schedule's placement decisions; partitioned routing is a
    /// pure function of the key, so it emits none).
    pub route_events: bool,
}

/// Shared post-processing: trace assembly, steady-window measurement,
/// per-tenant accumulation. `records` must be in global arrival order.
pub(super) fn finish_run(
    backend: &mut ServeBackend,
    cfg: &ServeConfig,
    tenants: &[TenantSpec],
    records: Vec<ReqRecord>,
    aux: RunAux,
) -> ServeReport {
    let n = records.len();

    // ---- trace collection (opt-in; `cfg.trace == false` touches nothing
    // in the simulation, so untraced runs stay byte-identical) ----
    let (trace, trace_kernels) = if cfg.trace {
        let mut events = backend.collect_traces();
        for r in &records {
            if aux.route_events {
                events.push(TraceEvent {
                    ts_ns: r.arrival_ns,
                    device: r.device as u32,
                    lane: Lane::Tenant(r.tenant),
                    kind: EventKind::Route {
                        tenant: r.tenant,
                        seq: r.seq,
                        dst: r.device as u16,
                    },
                });
            }
            let phases = r.phase_ns();
            let starts = [
                r.arrival_ns,
                r.admitted_ns,
                r.start_ns,
                r.start_ns + r.service_ns,
            ];
            for (i, phase) in ReqPhase::ALL.into_iter().enumerate() {
                events.push(TraceEvent {
                    ts_ns: starts[i],
                    device: r.device as u32,
                    lane: Lane::Tenant(r.tenant),
                    kind: EventKind::ReqPhase {
                        tenant: r.tenant,
                        seq: r.seq,
                        phase,
                        dur_ns: phases[i],
                    },
                });
            }
        }
        for e in &aux.scale_events {
            events.push(TraceEvent {
                ts_ns: e.t_ns,
                device: e.device as u32,
                lane: Lane::Controller,
                kind: EventKind::Scale {
                    device: e.device as u16,
                    dir: e.dir,
                    active: e.active as u32,
                },
            });
        }
        (events, backend.device(0).kernel_disassembly())
    } else {
        (Vec::new(), Vec::new())
    };

    // ---- measurement window: warm-up prefix and drain tail excluded ----
    let arrivals_ns: Vec<f64> = records.iter().map(|r| r.arrival_ns).collect();
    let completions_ns: Vec<f64> = records.iter().map(|r| r.observed_ns).collect();
    let window = crate::offload::steady_window(
        &arrivals_ns,
        &completions_ns,
        cfg.warmup_frac,
        cfg.drain_frac,
    );
    let measured = &records[window.measured.0..window.measured.1];
    let span = records
        .iter()
        .map(|r| r.arrival_ns)
        .fold(f64::NEG_INFINITY, f64::max);
    let offered_per_sec = if span > 0.0 {
        n as f64 / (span * 1e-9)
    } else {
        0.0
    };
    let makespan = completions_ns.iter().copied().fold(0.0f64, f64::max);
    let device_time_ns = aux
        .device_time_ns
        .unwrap_or(backend.devices() as f64 * makespan);

    let mut tenant_reports: Vec<TenantReport> = tenants
        .iter()
        .map(|t| TenantReport {
            name: t.name.clone(),
            completed: 0,
            measured: 0,
            latencies: FHistogram::new(),
            slo_violations: 0,
        })
        .collect();
    let mut combined = FHistogram::new();
    for r in &records {
        tenant_reports[r.tenant as usize].completed += 1;
    }
    for r in measured {
        let report = &mut tenant_reports[r.tenant as usize];
        report.measured += 1;
        report.latencies.record(r.latency_ns());
        if r.latency_ns() > tenants[r.tenant as usize].slo_ns {
            report.slo_violations += 1;
        }
        combined.record(r.latency_ns());
    }

    ServeReport {
        tenants: tenant_reports,
        combined,
        throughput: window.throughput,
        offered_per_sec,
        steady_window: (window.open, window.close),
        max_outstanding: aux.max_outstanding,
        launches: aux.launches,
        records,
        device_time_ns,
        scale_events: aux.scale_events,
        trace,
        trace_kernels,
    }
}
