//! Gates for the pluggable serving scheduler and the elastic fleet
//! (§III-J, paper Fig. 15 methodology): every [`SchedulerKind`] must be
//! byte-identical across fleet shard-parallelism, the HDM-locality router
//! must agree with static FIFO on a sharded store (both place by
//! `req.home`), autoscaled runs must be deterministic with well-formed
//! lifecycle transitions, and a traced elastic run must carry the
//! scale/route events and phase spans the `fig15` sweep cell is built
//! from.
//!
//! Request budgets are kept small so the suite stays fast in debug
//! builds; the full-size elastic runs are exercised by the `fig15` sweep
//! cells at release speed in CI.

use std::collections::HashMap;

use m2ndp::core::fleet::{Fleet, FleetConfig};
use m2ndp::core::M2ndpConfig;
use m2ndp::cxl::SwitchConfig;
use m2ndp::host::offload::OffloadMechanism;
use m2ndp::host::serve::{
    self, AutoscaleConfig, KvServeWorkload, ReplicatedKvServeWorkload, SchedulerKind, ServeBackend,
    ServeConfig, TenantSpec,
};
use m2ndp::sim::fingerprint::Fingerprint;
use m2ndp::sim::trace::{EventKind, ScaleDir};

fn device_cfg() -> M2ndpConfig {
    let mut cfg = M2ndpConfig::default_device();
    cfg.engine.units = 2;
    cfg
}

fn fleet_backend(devices: usize, jobs: usize) -> ServeBackend {
    let mut fleet = Fleet::new(FleetConfig {
        devices,
        device: device_cfg(),
        switch: SwitchConfig::default(),
        hdm_bytes_per_device: 64 << 20,
    });
    fleet.set_parallelism(jobs);
    ServeBackend::Fleet(Box::new(fleet))
}

/// A steady Poisson tenant plus a bursty one, so the dynamic schedulers
/// see genuinely uneven queues and the autoscaler sees load swings.
fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::poisson("steady", 1.4e6)
            .requests(120)
            .slo_ns(5_000.0)
            .seed(0x51ED),
        TenantSpec::burst("bursty", 0.6e6, 4.0, 50_000.0)
            .requests(60)
            .slo_ns(5_000.0)
            .seed(0xB9B5),
    ]
}

/// Saturating autoscale policy for the 4-device test fleet: one kernel
/// slot per device makes capacity track the active-device count, and the
/// 2e6/s offered load overwhelms the 1-device floor so the controller
/// must scale up.
fn autoscale_cfg() -> AutoscaleConfig {
    AutoscaleConfig::new(1, 4, 5_000.0)
        .interval_ns(20_000.0)
        .window(32)
        .scale_down_frac(0.2)
        .cooldown_ticks(1)
}

/// Runs the shared tenant mix under `kind` on a 4-device fleet at the
/// given shard-parallelism. Dynamic schedulers (and any autoscaled run)
/// need every device to hold the full store, so those take the
/// replicated workload; static kinds use the sharded one.
fn run_kind(
    kind: SchedulerKind,
    jobs: usize,
    autoscale: Option<AutoscaleConfig>,
    trace: bool,
) -> serve::ServeReport {
    let mut be = fleet_backend(4, jobs);
    let dynamic = kind.is_dynamic() || autoscale.is_some();
    let mut cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func)
        .scheduler(kind)
        .trace(trace);
    if let Some(a) = autoscale {
        cfg = cfg.autoscale(a).device_slots(1);
    }
    if dynamic {
        let mut wl = ReplicatedKvServeWorkload::build(&mut be, 512, 0.9);
        serve::run(&mut be, &mut wl, &cfg, &tenants())
    } else {
        let mut wl = KvServeWorkload::build(&mut be, 512, 0.9);
        serve::run(&mut be, &mut wl, &cfg, &tenants())
    }
}

/// Everything the determinism contract covers, with floats captured as
/// bit patterns so "identical" means byte-identical.
#[allow(clippy::type_complexity)]
fn fingerprint(
    mut report: serve::ServeReport,
) -> (
    Vec<(u16, u64, usize, u64, u64)>,
    u64,
    u64,
    u64,
    Vec<u32>,
    Vec<(u64, usize, ScaleDir, usize)>,
) {
    let records = report
        .records
        .iter()
        .map(|r| {
            (
                r.tenant,
                r.seq,
                r.device,
                r.latency_ns().to_bits(),
                r.service_ns.to_bits(),
            )
        })
        .collect();
    let scale = report
        .scale_events
        .iter()
        .map(|e| (e.t_ns.to_bits(), e.device, e.dir, e.active))
        .collect();
    (
        records,
        report.p95_ns().to_bits(),
        report.throughput.to_bits(),
        report.launches,
        report.max_outstanding.clone(),
        scale,
    )
}

/// The redesigned-API determinism gate: each scheduler kind must produce
/// byte-identical reports no matter how many shard-runner threads the
/// fleet uses. Static kinds exercise the shard-parallel path; dynamic
/// kinds route through the global serial loop, which must ignore the
/// parallelism knob entirely.
#[test]
fn every_scheduler_kind_is_bit_identical_across_fleet_parallelism() {
    for kind in SchedulerKind::all() {
        let serial = fingerprint(run_kind(kind, 1, None, false));
        for jobs in [2usize, 4] {
            assert_eq!(
                serial,
                fingerprint(run_kind(kind, jobs, None, false)),
                "{} diverged at fleet parallelism {jobs}",
                kind.name()
            );
        }
    }
}

/// Folds a [`fingerprint`] into one `u64`, so a run can be pinned to a
/// committed constant.
#[allow(clippy::type_complexity)]
fn digest(
    fp: &(
        Vec<(u16, u64, usize, u64, u64)>,
        u64,
        u64,
        u64,
        Vec<u32>,
        Vec<(u64, usize, ScaleDir, usize)>,
    ),
) -> u64 {
    let (records, p95, throughput, launches, max_outstanding, scale) = fp;
    let mut h = Fingerprint::new();
    h.mix(records.len() as u64);
    for &(tenant, seq, device, latency, service) in records {
        for w in [u64::from(tenant), seq, device as u64, latency, service] {
            h.mix(w);
        }
    }
    for w in [*p95, *throughput, *launches] {
        h.mix(w);
    }
    h.mix(max_outstanding.len() as u64);
    for &m in max_outstanding {
        h.mix(u64::from(m));
    }
    h.mix(scale.len() as u64);
    for &(t, device, dir, active) in scale {
        for w in [t, device as u64, dir as u64, active as u64] {
            h.mix(w);
        }
    }
    h.value()
}

/// The load-aware kinds are otherwise only compared with themselves
/// (across fleet parallelism), so a change that moves their placement
/// would pass every other gate. These digests pin their exact outputs:
/// shortest-queue, priority-slo, and an autoscaled shortest-queue run.
/// With this tenant mix (equal priorities and SLOs, 48 slots per device)
/// priority-slo admits in FIFO order and never steals, so its digest
/// equals shortest-queue's.
#[test]
fn dynamic_scheduler_outputs_match_golden_digests() {
    let cases = [
        (
            "shortest-queue",
            SchedulerKind::ShortestQueue,
            None,
            0x6f77_e5fd_9882_e9cc_u64,
        ),
        (
            "priority-slo",
            SchedulerKind::PrioritySlo,
            None,
            0x6f77_e5fd_9882_e9cc,
        ),
        (
            "shortest-queue+autoscale",
            SchedulerKind::ShortestQueue,
            Some(autoscale_cfg()),
            0x3915_b317_cfc2_40a8,
        ),
    ];
    for (name, kind, autoscale, golden) in cases {
        let got = digest(&fingerprint(run_kind(kind, 1, autoscale, false)));
        assert_eq!(
            got, golden,
            "{name}: digest {got:#018x} != golden {golden:#018x}"
        );
    }
}

/// On a sharded store the HDM-locality router has exactly one correct
/// placement per request (its home shard), which is also what static
/// FIFO does — so the two must agree record-for-record. This is why CI
/// can hold both kinds to the committed `BENCH_RESULTS.json` snapshot.
#[test]
fn hdm_locality_routes_identically_to_static_fifo() {
    let fifo = fingerprint(run_kind(SchedulerKind::StaticFifo, 1, None, false));
    let hdm = fingerprint(run_kind(SchedulerKind::HdmLocality, 1, None, false));
    assert_eq!(fifo, hdm, "home-shard routing must match static FIFO");
}

/// Autoscaled runs are deterministic too, and their lifecycle stream is
/// well-formed: the controller must actually scale above the 1-device
/// floor under the saturating load, active counts stay within
/// `[min, max]`, and every drain-start is eventually matched by a
/// drain-done on the same device.
#[test]
fn autoscaled_run_is_deterministic_with_well_formed_lifecycle() {
    let serial = fingerprint(run_kind(
        SchedulerKind::ShortestQueue,
        1,
        Some(autoscale_cfg()),
        false,
    ));
    for jobs in [2usize, 4] {
        let par = fingerprint(run_kind(
            SchedulerKind::ShortestQueue,
            jobs,
            Some(autoscale_cfg()),
            false,
        ));
        assert_eq!(serial, par, "autoscaled run diverged at parallelism {jobs}");
    }

    let events = &serial.5;
    assert!(
        events.iter().any(|&(_, _, dir, _)| dir == ScaleDir::Up),
        "saturating load over a 1-device floor must force a scale-up"
    );
    let mut draining: HashMap<usize, u32> = HashMap::new();
    for &(_, device, dir, active) in events {
        assert!(
            (1..=4).contains(&active),
            "active count {active} out of [1, 4]"
        );
        match dir {
            ScaleDir::Up => {}
            ScaleDir::DrainStart => *draining.entry(device).or_default() += 1,
            ScaleDir::DrainDone => {
                let n = draining.entry(device).or_default();
                assert!(*n > 0, "device {device} finished a drain it never started");
                *n -= 1;
            }
        }
    }
}

/// A traced elastic run must carry the full scheduling story: one route
/// event per served request, scale events mirroring the report's
/// lifecycle stream, and per-request phase spans that tile each
/// request's end-to-end latency exactly.
#[test]
fn traced_elastic_run_emits_route_scale_and_phase_events() {
    let report = run_kind(SchedulerKind::ShortestQueue, 1, Some(autoscale_cfg()), true);
    assert!(!report.trace.is_empty(), "tracing was on but no events");

    let routes = report
        .trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Route { .. }))
        .count();
    assert_eq!(
        routes,
        report.records.len(),
        "dynamic scheduling must emit exactly one route per request"
    );

    let scales = report
        .trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Scale { .. }))
        .count();
    assert_eq!(
        scales,
        report.scale_events.len(),
        "trace scale events must mirror the report's lifecycle stream"
    );

    // The four ReqPhase spans of a request sum exactly to its latency.
    let mut phase_sum: HashMap<(u16, u64), (f64, u32)> = HashMap::new();
    for e in &report.trace {
        if let EventKind::ReqPhase {
            tenant,
            seq,
            dur_ns,
            ..
        } = e.kind
        {
            let entry = phase_sum.entry((tenant, seq)).or_default();
            entry.0 += dur_ns;
            entry.1 += 1;
        }
    }
    for r in &report.records {
        let &(sum, n) = phase_sum
            .get(&(r.tenant, r.seq))
            .unwrap_or_else(|| panic!("no phase spans for t{} seq{}", r.tenant, r.seq));
        assert_eq!(n, 4, "t{} seq{} must have all four phases", r.tenant, r.seq);
        assert!(
            (sum - r.latency_ns()).abs() < 1e-6,
            "phases sum to {sum} but latency is {} (t{} seq{})",
            r.latency_ns(),
            r.tenant,
            r.seq
        );
    }
}
