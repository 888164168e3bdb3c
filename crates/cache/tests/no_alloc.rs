//! Allocation regression tests for the cache hot paths.
//!
//! A counting global allocator asserts that (a) hits are allocation-free on
//! the flat line array and (b) producing and iterating the sector-fetch set
//! of a miss never touches the heap — the `sector_addrs` path used to
//! return a fresh `Vec<u64>` per miss.

// A global counting allocator is the only way to observe heap traffic, and
// implementing `GlobalAlloc` is inherently unsafe; everything else in the
// workspace stays `unsafe_code = "deny"`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use m2ndp_cache::{Access, CacheConfig, CacheResult, SectorFetches, SectoredCache};

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

fn rd(addr: u64) -> Access {
    Access {
        addr,
        bytes: 32,
        write: false,
    }
}

#[test]
fn hits_do_not_allocate() {
    let mut cache: SectoredCache<u32> = SectoredCache::new(CacheConfig::ndp_l1d());
    // Warm one line, drain the fill machinery.
    let CacheResult::Miss { fetches, .. } = cache.access(0, rd(0x1000), 0) else {
        panic!("cold access must miss");
    };
    for f in fetches {
        cache.fill(1, f);
    }
    while cache.pop_ready(100).is_some() {}

    let (allocs, _) = allocs_during(|| {
        for i in 0..1000u32 {
            let r = cache.access(100 + i as u64, rd(0x1000), i);
            assert!(matches!(r, CacheResult::Hit { .. }));
        }
    });
    assert_eq!(allocs, 0, "hit path must not allocate");
}

#[test]
fn sector_fetches_do_not_allocate() {
    let mut cache: SectoredCache<u32> = SectoredCache::new(CacheConfig::ndp_l1d());
    // Full-line read: four 32 B sectors of a 128 B line must be fetched.
    let r = cache.access(0, rd(0x2000), 0);
    let CacheResult::Miss { fetches, .. } = r else {
        panic!("cold access must miss");
    };
    assert_eq!(fetches.len(), 1);

    // The fetch set is a Copy descriptor: materializing copies and walking
    // every address costs zero heap traffic.
    let (allocs, sum) = allocs_during(|| {
        let mut sum = 0u64;
        for _ in 0..1000 {
            let again: SectorFetches = fetches; // Copy, not clone-into-Vec
            for addr in again {
                sum = sum.wrapping_add(addr);
            }
        }
        sum
    });
    assert_eq!(allocs, 0, "iterating sector fetches must not allocate");
    assert_eq!(sum, 0x2000 * 1000);
}

#[test]
fn full_line_fetch_set_is_exact_without_heap() {
    let cfg = CacheConfig::ndp_l1d();
    let mut cache: SectoredCache<u32> = SectoredCache::new(cfg);
    let r = cache.access(
        0,
        Access {
            addr: 0x3000,
            bytes: 128,
            write: false,
        },
        7,
    );
    let CacheResult::Miss { fetches, .. } = r else {
        panic!("cold access must miss");
    };
    let (allocs, collected) = allocs_during(|| {
        let mut addrs = [0u64; 4];
        let mut n = 0;
        for a in fetches {
            addrs[n] = a;
            n += 1;
        }
        (addrs, n)
    });
    assert_eq!(allocs, 0);
    assert_eq!(collected.1, 4);
    assert_eq!(collected.0, [0x3000, 0x3020, 0x3040, 0x3060]);
}
