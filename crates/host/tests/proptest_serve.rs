//! Property tests for the event-driven serving runtime: latencies are
//! never below the mechanism overhead plus the kernel's own service time,
//! steady-window throughput never exceeds the slot pool's capacity, FIFO
//! admission preserves per-tenant order on every device, direct MMIO never
//! exceeds one outstanding kernel, and a standalone device matches a
//! 1-device fleet up to the switch hop.
//!
//! The serving cases drive real device simulators, so they use small
//! request budgets and few proptest cases (6, or `PROPTEST_CASES` when
//! set, so CI can run a deeper pass); the arrival-process cases run no
//! simulator and take the usual counts.

use std::collections::HashMap;

use m2ndp_core::fleet::{Fleet, FleetConfig};
use m2ndp_core::{CxlM2ndpDevice, M2ndpConfig};
use m2ndp_cxl::SwitchConfig;
use m2ndp_host::offload::{OffloadMechanism, OffloadModel};
use m2ndp_host::serve::{self, KvServeWorkload, ServeBackend, ServeConfig, TenantSpec};
use proptest::prelude::*;

/// Case count of the serving properties: `PROPTEST_CASES` when set,
/// otherwise 6.
fn serving_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

/// Maps a drawn index onto a mechanism (the vendored proptest subset has
/// no `prop_oneof`).
fn mechanism(idx: u8) -> OffloadMechanism {
    match idx % 3 {
        0 => OffloadMechanism::M2Func,
        1 => OffloadMechanism::CxlIoRingBuffer,
        _ => OffloadMechanism::CxlIoDirect,
    }
}

fn small_cfg() -> M2ndpConfig {
    let mut cfg = M2ndpConfig::default_device();
    cfg.engine.units = 2;
    cfg
}

fn backend(devices: usize) -> ServeBackend {
    if devices == 1 {
        ServeBackend::Device(Box::new(CxlM2ndpDevice::new(small_cfg())))
    } else {
        ServeBackend::Fleet(Box::new(Fleet::new(FleetConfig {
            devices,
            device: small_cfg(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 64 << 20,
        })))
    }
}

fn tenants(requests: usize, rate: f64, seed: u64) -> Vec<TenantSpec> {
    vec![
        TenantSpec::poisson("poisson", rate * 0.6)
            .requests(requests)
            .slo_ns(10_000.0)
            .seed(seed),
        TenantSpec::trace("trace", vec![0.5e9 / rate, 2.0e9 / rate])
            .requests(requests / 2)
            .slo_ns(10_000.0)
            .seed(seed ^ 0xF00D),
    ]
}

fn serve_all(
    devices: usize,
    mech: OffloadMechanism,
    requests: usize,
    rate: f64,
    seed: u64,
) -> serve::ServeReport {
    let mut be = backend(devices);
    let mut wl = KvServeWorkload::build(&mut be, 512, 0.9);
    let cfg = ServeConfig::with_defaults(mech);
    serve::run(&mut be, &mut wl, &cfg, &tenants(requests, rate, seed))
}

/// One Poisson tenant of `requests` GETs served by a standalone device.
fn serve_one(cfg: &ServeConfig, requests: usize, rate: f64, seed: u64) -> serve::ServeReport {
    let mut be = backend(1);
    let mut wl = KvServeWorkload::build(&mut be, 512, 0.9);
    let tenant = TenantSpec::poisson("kvs", rate)
        .requests(requests)
        .seed(seed);
    serve::run(&mut be, &mut wl, cfg, &[tenant])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Burst arrivals are monotone non-decreasing and their long-run mean
    /// rate converges to the configured rate — the property that keeps
    /// bursty cells comparable to Poisson cells at the same offered load.
    #[test]
    fn burst_mean_rate_converges_to_configured_rate(
        rate in 1e5f64..2e7,
        burst_factor in 1.0f64..16.0,
        period_us in 10.0f64..200.0,
        seed in any::<u64>(),
    ) {
        // Size the sample to span ~20 burst periods: a window shorter than
        // a period sees mostly the burst (or mostly the lull) phase and
        // its empirical rate says nothing about the configured mean.
        let per_period = rate * period_us * 1_000.0 * 1e-9;
        let n = (per_period * 20.0).max(2_000.0).ceil() as usize;
        let spec = TenantSpec::burst("bursty", rate, burst_factor, period_us * 1_000.0)
            .requests(n)
            .seed(seed);
        let times = serve::arrival_times(&spec);
        prop_assert_eq!(times.len(), n);
        for w in times.windows(2) {
            prop_assert!(w[1] >= w[0], "arrivals must be monotone");
        }
        let span_s = times.last().unwrap() * 1e-9;
        prop_assert!(span_s > 0.0);
        let empirical = times.len() as f64 / span_s;
        let err = (empirical - rate).abs() / rate;
        // >= 2000 Poisson arrivals have a <= ~2.2% relative std-dev; allow
        // a generous band plus edge effects from the partial last period
        // (bounded by per_period / n <= 1/20).
        prop_assert!(
            err < 0.15,
            "empirical rate {empirical:.3e} vs configured {rate:.3e} (err {err:.3})"
        );
    }
}

proptest! {
    // Serving cases simulate real kernels: keep the budgets small.
    #![proptest_config(ProptestConfig::with_cases(serving_cases()))]

    /// Serving latencies are never below the mechanism overhead, every
    /// request completes, and per-(tenant, device) admission stays FIFO.
    #[test]
    fn serving_latency_floor_and_fifo_order(
        mech_idx in 0u8..3,
        devices in 1usize..=2,
        rate in 1e5f64..1e7,
        seed in any::<u64>(),
    ) {
        let mech = mechanism(mech_idx);
        let report = serve_all(devices, mech, 40, rate, seed);
        prop_assert_eq!(report.records.len(), 60);
        let floor = OffloadModel::with_defaults(mech).overhead_ns();
        let mut last: HashMap<(u16, usize), (u64, f64)> = HashMap::new();
        for r in &report.records {
            prop_assert!(
                r.latency_ns() >= floor,
                "latency {} below overhead {floor}",
                r.latency_ns()
            );
            prop_assert!(r.admitted_ns >= r.arrival_ns);
            if let Some(&(seq, adm)) = last.get(&(r.tenant, r.device)) {
                prop_assert!(r.seq > seq, "per-tenant order violated");
                prop_assert!(r.admitted_ns >= adm, "admission time went backwards");
            }
            last.insert((r.tenant, r.device), (r.seq, r.admitted_ns));
        }
    }

    /// On one device, every request's latency is at least the mechanism
    /// overhead plus its own kernel's service time, over arrival rates from
    /// idle to far past saturation, and all are finite.
    #[test]
    fn offload_latencies_never_below_overhead(
        mech_idx in 0u8..3,
        rate in 1e4f64..1e9,
        n in 20usize..120,
        seed in any::<u64>(),
    ) {
        let cfg = ServeConfig::with_defaults(mechanism(mech_idx));
        let overhead = cfg.model.overhead_ns();
        let report = serve_one(&cfg, n, rate, seed);
        prop_assert_eq!(report.records.len(), n);
        for r in &report.records {
            prop_assert!(r.latency_ns().is_finite());
            prop_assert!(
                r.latency_ns() >= overhead + r.service_ns - 1e-9,
                "latency {} below floor {}",
                r.latency_ns(),
                overhead + r.service_ns
            );
        }
    }

    /// The steady-window throughput on one device is positive and never
    /// exceeds the slot pool's service capacity at the shortest measured
    /// kernel (with a small windowing tolerance).
    #[test]
    fn offload_throughput_is_bounded_by_capacity(
        mech_idx in 0u8..3,
        rate in 1e5f64..1e9,
        seed in any::<u64>(),
    ) {
        let mech = mechanism(mech_idx);
        // Four slots (one for direct MMIO): 200 requests turn the pool
        // over ~50 times, so the window edges stay inside the tolerance.
        let cfg = ServeConfig::with_defaults(mech).device_slots(4);
        let model = &cfg.model;
        let slots = f64::from(model.max_concurrent().min(cfg.device_slots));
        let report = serve_one(&cfg, 200, rate, seed);
        let min_service = report
            .records
            .iter()
            .map(|r| r.service_ns)
            .fold(f64::INFINITY, f64::min);
        // A slot is busy for pre+service (M2func/RB) or the full round
        // trip (direct MMIO).
        let occupancy = if mech == OffloadMechanism::CxlIoDirect {
            model.overhead_ns() + min_service
        } else {
            model.pre_ns() + min_service
        };
        let capacity = slots / (occupancy * 1e-9);
        prop_assert!(report.throughput > 0.0);
        prop_assert!(
            report.throughput <= capacity * 1.05,
            "throughput {:.3e} exceeds capacity {:.3e}",
            report.throughput,
            capacity
        );
    }

    /// Direct MMIO never has more than one kernel outstanding per device,
    /// even under saturating load.
    #[test]
    fn serving_direct_mmio_single_outstanding(
        devices in 1usize..=2,
        rate in 1e6f64..1e8,
        seed in any::<u64>(),
    ) {
        let report = serve_all(devices, OffloadMechanism::CxlIoDirect, 40, rate, seed);
        for (d, &m) in report.max_outstanding.iter().enumerate() {
            prop_assert!(m <= 1, "device {d} had {m} kernels outstanding");
        }
    }

    /// A standalone device and a 1-device fleet serve the identical
    /// request stream with identical kernel service times; the only
    /// divergence allowed is the switch's per-launch delivery skew.
    #[test]
    fn serving_single_device_matches_one_device_fleet(
        rate in 1e5f64..2e6,
        seed in any::<u64>(),
    ) {
        let single = serve_all(1, OffloadMechanism::M2Func, 40, rate, seed);

        let mut be = ServeBackend::Fleet(Box::new(Fleet::new(FleetConfig {
            devices: 1,
            device: small_cfg(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 64 << 20,
        })));
        let mut wl = KvServeWorkload::build(&mut be, 512, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func);
        let fleet1 = serve::run(&mut be, &mut wl, &cfg, &tenants(40, rate, seed));

        prop_assert_eq!(single.records.len(), fleet1.records.len());
        for (s, f) in single.records.iter().zip(&fleet1.records) {
            prop_assert_eq!(s.tenant, f.tenant);
            prop_assert_eq!(s.seq, f.seq);
            prop_assert!(
                (s.service_ns - f.service_ns).abs() < 1e-9,
                "service times must be identical: {} vs {}",
                s.service_ns,
                f.service_ns
            );
            let skew = f.latency_ns() - s.latency_ns();
            prop_assert!(
                (0.0..=1_000.0).contains(&skew),
                "fleet latency may exceed the standalone path only by the \
                 switch hop: skew {skew} ns"
            );
        }
    }
}
