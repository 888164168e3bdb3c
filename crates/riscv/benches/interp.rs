//! Interpreter microbenchmarks: [`step_group`] over an 8-lane SIMT group.
//!
//! Three kernels bracket the interpreter's regimes — a converged scalar
//! ALU loop (per-instruction dispatch cost), a strided vector load loop
//! (memory effect reporting), and a lane-divergent branch loop (partial
//! groups). Each runs to completion the way the engine issues it: scan
//! for the minimum pc, then [`step_group`] runs the instruction there on
//! every lane parked at it, writing memory operations into a reused
//! [`EffectBuf`]. `M2NDP_BENCH_MS` shortens the measurement window.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use m2ndp_mem::MainMemory;
use m2ndp_riscv::exec::{step_group, EffectBuf, MainMemoryIface, ThreadCtx};
use m2ndp_riscv::{assemble, Program};

const LANES: usize = 8;

/// Converged scalar loop: every issue is a full-width ALU or branch group.
const ALU_LOOP: &str = "
    li x4, 1000
    loop: addi x4, x4, -1
    bnez x4, loop
    halt";

/// Strided vector loads: every iteration reports `vl` memory operations
/// per lane through the effect channel.
const STRIDED_VECTOR_LOAD: &str = "
    vsetvli x0, x0, e32, m1
    li x5, 64
    li x4, 100
    loop: vlse32.v v1, (x1), x5
    add x1, x1, x5
    addi x4, x4, -1
    bnez x4, loop
    halt";

/// Lane-divergent branches: `x2` differs per lane, so the group splits and
/// re-converges, exercising partial-group issues.
const DIVERGENT_BRANCH: &str = "
    li x4, 200
    loop: andi x6, x2, 0x40
    beqz x6, even
    addi x5, x5, 3
    j next
    even: addi x5, x5, 1
    next: addi x4, x4, -1
    bnez x4, loop
    halt";

fn spawn_lanes() -> Vec<ThreadCtx> {
    (0..LANES)
        .map(|i| {
            let mut ctx = ThreadCtx::new();
            ctx.x[1] = 0x1_0000 + i as u64 * 0x40;
            ctx.x[2] = i as u64 * 0x40;
            ctx
        })
        .collect()
}

fn reset_lanes(ctxs: &mut [ThreadCtx]) {
    for (i, ctx) in ctxs.iter_mut().enumerate() {
        ctx.reset();
        ctx.x[1] = 0x1_0000 + i as u64 * 0x40;
        ctx.x[2] = i as u64 * 0x40;
    }
}

/// Runs the program to completion through `step_group`.
fn run_group(
    ctxs: &mut [ThreadCtx],
    prog: &Program,
    mem: &mut MainMemory,
    buf: &mut EffectBuf,
) -> u64 {
    let mut iface = MainMemoryIface::new(mem);
    let mut total = 0u64;
    while let Some(min_pc) = ctxs.iter().filter(|c| !c.done).map(|c| c.pc).min() {
        if prog.fetch(min_pc).is_none() {
            break;
        }
        let group = step_group(ctxs, min_pc, prog, &mut iface, buf);
        total += u64::from(group.lanes);
        black_box((group.effect, buf.memops()));
    }
    total
}

fn bench_kernel(c: &mut Criterion, name: &str, source: &str) {
    let prog = assemble(source).expect(name);
    let mut mem = MainMemory::new();
    let mut ctxs = spawn_lanes();
    let mut buf = EffectBuf::new();

    c.bench_function(&format!("interp/{name}/group"), |b| {
        b.iter(|| {
            reset_lanes(&mut ctxs);
            run_group(&mut ctxs, &prog, &mut mem, &mut buf)
        })
    });
}

fn interp_benches(c: &mut Criterion) {
    bench_kernel(c, "alu-loop", ALU_LOOP);
    bench_kernel(c, "strided-vector-load", STRIDED_VECTOR_LOAD);
    bench_kernel(c, "divergent-branch", DIVERGENT_BRANCH);
}

criterion_group!(benches, interp_benches);
criterion_main!(benches);
