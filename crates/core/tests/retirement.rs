//! Kernel-instance retirement: a device serving many tiny launches keeps
//! only its resident instances, while every finished instance still
//! answers `poll` and `finished_at` exactly.
//!
//! Counts only — no wall-clock assertions.

use m2ndp_core::m2func::InstanceStatus;
use m2ndp_core::{CxlM2ndpDevice, KernelInstanceId, KernelSpec, LaunchArgs, M2ndpConfig};
use m2ndp_riscv::assemble;

/// Sequential launches, each run to completion.
const LAUNCHES: u32 = 10_000;

/// One-granule kernel: each launch is a single µthread that stores a word.
fn tiny_kernel() -> KernelSpec {
    let body = assemble(
        "li x4, 7
         sd x4, (x1)
         halt",
    )
    .unwrap();
    KernelSpec::body_only("tiny", body)
}

#[test]
fn finished_instances_retire_but_keep_their_completion_cycle() {
    let cfg = M2ndpConfig::default_device();
    let buffer = cfg.engine.max_concurrent_kernels as usize;
    assert_eq!(buffer, 48, "the paper's default launch buffer");
    let mut dev = CxlM2ndpDevice::new(cfg);
    let kid = dev.register_kernel(tiny_kernel());
    let base = 0x10_0000u64;

    let middle = LAUNCHES / 2;
    let mut recorded = Vec::new();
    for i in 0..LAUNCHES {
        let pool = base + u64::from(i % 1024) * 32;
        let id = dev.launch(LaunchArgs::new(kid, pool, pool + 32)).unwrap();
        assert_eq!(id, KernelInstanceId(i));
        assert!(dev.resident_instances() <= buffer);
        let done = dev.run_until_finished(id);
        // Finished means retired: nothing stays resident between launches.
        assert_eq!(dev.resident_instances(), 0, "launch {i} still resident");
        if i == 0 || i == middle || i == LAUNCHES - 1 {
            recorded.push((id, done));
        }
    }
    assert_eq!(dev.memory().read_u64(base), 7);

    for &(id, done) in &recorded {
        assert_eq!(dev.poll(id), Some(InstanceStatus::Finished), "{id:?}");
        assert_eq!(dev.finished_at(id), Some(done), "{id:?}");
    }
    let never = KernelInstanceId(LAUNCHES + 1);
    assert_eq!(dev.poll(never), None);
    assert_eq!(dev.finished_at(never), None);
}

#[test]
fn a_full_launch_buffer_bounds_the_resident_table() {
    let cfg = M2ndpConfig::default_device();
    let buffer = cfg.engine.max_concurrent_kernels as usize;
    let mut dev = CxlM2ndpDevice::new(cfg);
    let kid = dev.register_kernel(tiny_kernel());
    let base = 0x10_0000u64;

    let mut ids = Vec::new();
    for round in 0..4u64 {
        for i in 0..buffer as u64 {
            let pool = base + (round * buffer as u64 + i) * 32;
            ids.push(dev.launch(LaunchArgs::new(kid, pool, pool + 32)).unwrap());
        }
        // The launch buffer is full until an instance retires.
        assert_eq!(
            dev.launch(LaunchArgs::new(kid, base, base + 32)),
            Err(m2ndp_core::NdpApiError::LaunchBufferFull)
        );
        while ids.iter().any(|&id| dev.finished_at(id).is_none()) {
            dev.tick();
            assert!(dev.resident_instances() <= buffer);
        }
        assert_eq!(dev.resident_instances(), 0);
    }
    for &id in &ids {
        assert_eq!(dev.poll(id), Some(InstanceStatus::Finished));
    }
}
