//! Allocation regression test for the engine's issue path.
//!
//! A counting global allocator (same shape as `crates/cache/tests/no_alloc.rs`)
//! pins the group-decoded interpreter's contract: once a kernel is running
//! and every scratch buffer has reached its high-water capacity,
//! `Engine::tick` — spawning µthreads into reused slot storage, issuing
//! SIMT groups through `step_group` into the engine-owned `EffectBuf`,
//! retiring contexts, and retiring finished kernel instances — performs
//! **zero** heap allocations.

// A global counting allocator is the only way to observe heap traffic, and
// implementing `GlobalAlloc` is inherently unsafe; everything else in the
// workspace stays `unsafe_code = "deny"`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use m2ndp_core::engine::{Engine, RequestKind};
use m2ndp_core::{EngineConfig, KernelId, KernelInstanceId, KernelSpec, LaunchArgs};
use m2ndp_mem::MainMemory;
use m2ndp_riscv::assemble;

struct CountingAlloc;

thread_local! {
    /// Whether this thread is inside a measured window. Counting is
    /// per-thread so allocations made by tests running concurrently on
    /// other harness threads never leak into a measurement.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread performed while armed.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if the calling thread is armed. Both cells are
/// `const`-initialised without destructors, so reading them never
/// allocates; `try_with` tolerates allocations during thread teardown.
fn note_alloc() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only thread-local cells.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread performed while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (ALLOCS.with(Cell::get), result)
}

fn small_cfg() -> EngineConfig {
    EngineConfig {
        units: 2,
        ..EngineConfig::m2ndp()
    }
}

/// One engine cycle plus immediate completion of any outbound requests
/// (idealized zero-latency memory, all inside the engine's own paths).
fn tick_and_drain(engine: &mut Engine, mem: &mut MainMemory, now: u64) {
    engine.tick(now, mem);
    for u in 0..engine.config().units as usize {
        while let Some(req) = engine.pop_outbound(u) {
            if !matches!(req.kind, RequestKind::Posted) {
                engine.deliver(now, u, req.kind, req.addr);
            }
        }
    }
}

#[test]
fn steady_state_alu_issue_does_not_allocate() {
    // Compute-bound kernel: a pure ALU/branch loop per µthread, over far
    // more granules than slots so spawn → issue → retire → respawn churns
    // throughout the measured window.
    let body = assemble(
        "li x4, 64
         loop: addi x4, x4, -1
         bnez x4, loop
         halt",
    )
    .unwrap();
    let spec = Arc::new(KernelSpec::body_only("alu_loop", body));
    let mut engine = Engine::new(small_cfg());
    let mut mem = MainMemory::new();
    let base = 0x10_0000u64;
    let granules = 4096u64;
    let launch = LaunchArgs::new(KernelId(0), base, base + granules * 32);
    assert!(engine.launch(0, KernelInstanceId(0), spec, launch));

    // Warm-up: admit the instance, fill every slot, let the ready queues
    // and scratch buffers reach their high-water capacity.
    let mut now = 0u64;
    for _ in 0..500 {
        tick_and_drain(&mut engine, &mut mem, now);
        now += 1;
    }
    assert!(!engine.is_idle(), "warm-up must not exhaust the pool");

    let (allocs, _) = allocs_during(|| {
        for _ in 0..2000 {
            tick_and_drain(&mut engine, &mut mem, now);
            now += 1;
        }
    });
    assert!(!engine.is_idle(), "measurement must cover steady state");
    assert_eq!(allocs, 0, "steady-state ALU issue path must not allocate");
}

#[test]
fn steady_state_vector_memory_issue_does_not_allocate() {
    // Memory-bound kernel: vector load + store per granule, re-run over the
    // same (pre-touched) pool for many iterations so DRAM pages, TLB
    // entries, and cache lines exist before the measured window.
    let body = assemble(
        "vsetvli x0, x0, e32, m1
         vle32.v v1, (x1)
         vadd.vv v1, v1, v1
         vse32.v v1, (x1)
         halt",
    )
    .unwrap();
    let spec = Arc::new(KernelSpec::body_only("vec_double", body));
    let mut engine = Engine::new(small_cfg());
    let mut mem = MainMemory::new();
    let base = 0x10_0000u64;
    let granules = 256u64;
    for i in 0..granules * 8 {
        mem.write_u32(base + i * 4, i as u32);
    }
    let launch =
        LaunchArgs::new(KernelId(0), base, base + granules * 32).with_iterations(1_000_000);
    assert!(engine.launch(0, KernelInstanceId(0), spec, launch));

    let mut now = 0u64;
    for _ in 0..20_000 {
        tick_and_drain(&mut engine, &mut mem, now);
        now += 1;
    }
    assert!(!engine.is_idle(), "warm-up must not finish the kernel");

    let (allocs, _) = allocs_during(|| {
        for _ in 0..10_000 {
            tick_and_drain(&mut engine, &mut mem, now);
            now += 1;
        }
    });
    assert!(!engine.is_idle(), "measurement must cover steady state");
    assert_eq!(
        allocs, 0,
        "steady-state vector load/store issue path must not allocate"
    );
}

#[test]
fn retiring_instances_does_not_allocate() {
    // A full launch buffer of small ALU-loop instances: as each one drains
    // it is retired (dropped, its completion cycle recorded) and the next
    // resident instance's µthreads take over the freed slots.
    let body = assemble(
        "li x4, 16
         loop: addi x4, x4, -1
         bnez x4, loop
         halt",
    )
    .unwrap();
    let spec = Arc::new(KernelSpec::body_only("alu_loop", body));
    let cfg = small_cfg();
    let buffer = cfg.max_concurrent_kernels;
    let mut engine = Engine::new(cfg);
    let mut mem = MainMemory::new();
    let base = 0x10_0000u64;
    let granules = 64u64;
    for i in 0..buffer {
        let launch = LaunchArgs::new(KernelId(0), base, base + granules * 32);
        assert!(engine.launch(0, KernelInstanceId(i), spec.clone(), launch));
    }

    let mut now = 0u64;
    for _ in 0..200 {
        tick_and_drain(&mut engine, &mut mem, now);
        now += 1;
    }
    let before = engine.live_instances();
    assert_eq!(before, buffer as usize, "warm-up must not retire anything");

    let (allocs, _) = allocs_during(|| {
        for _ in 0..2000 {
            tick_and_drain(&mut engine, &mut mem, now);
            now += 1;
        }
    });
    let after = engine.live_instances();
    assert!(
        after > 0,
        "measurement must end with instances still resident"
    );
    assert!(
        before - after >= 8,
        "measurement must cover retirements ({before} -> {after} live)"
    );
    assert_eq!(allocs, 0, "retiring finished instances must not allocate");
}
