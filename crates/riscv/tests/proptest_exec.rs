//! Property tests: the vector executor agrees with scalar reference loops,
//! the assembler is total over generated programs, and hostile source text
//! never panics the assembler or the executor.

use m2ndp_mem::MainMemory;
use m2ndp_riscv::exec::{step, step_group, EffectBuf, MainMemoryIface, ThreadCtx};
use m2ndp_riscv::gen::gen_program;
use m2ndp_riscv::{assemble, disassemble, Program};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_to_halt(
    src: &str,
    setup: impl FnOnce(&mut ThreadCtx, &mut MainMemory),
) -> (ThreadCtx, MainMemory) {
    let prog = assemble(src).expect("assembles");
    let mut mem = MainMemory::new();
    let mut ctx = ThreadCtx::new();
    setup(&mut ctx, &mut mem);
    let mut iface = MainMemoryIface::new(&mut mem);
    let mut buf = EffectBuf::new();
    let mut steps = 0;
    while !ctx.done {
        step(&mut ctx, &prog, &mut iface, &mut buf).expect("executes");
        steps += 1;
        assert!(steps < 100_000, "runaway");
    }
    (ctx, mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// vadd.vv over 8 e32 lanes equals elementwise wrapping addition.
    #[test]
    fn vector_add_matches_scalar(a in prop::collection::vec(any::<u32>(), 8),
                                 b in prop::collection::vec(any::<u32>(), 8)) {
        let (_, mem) = run_to_halt(
            "vsetvli x0, x0, e32, m1
             vle32.v v1, (x1)
             li x3, 0xB000
             vle32.v v2, (x3)
             vadd.vv v3, v1, v2
             li x4, 0xC000
             vse32.v v3, (x4)
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for i in 0..8 {
                    mem.write_u32(0xA000 + i as u64 * 4, a[i]);
                    mem.write_u32(0xB000 + i as u64 * 4, b[i]);
                }
            },
        );
        for i in 0..8 {
            prop_assert_eq!(mem.read_u32(0xC000 + i as u64 * 4), a[i].wrapping_add(b[i]));
        }
    }

    /// vredsum over e64 lanes equals the wrapping sum.
    #[test]
    fn vector_reduction_matches_sum(vals in prop::collection::vec(any::<u64>(), 4)) {
        let (ctx, _) = run_to_halt(
            "vsetvli x0, x0, e64, m1
             vle64.v v2, (x1)
             vmv.v.i v1, 0
             vredsum.vs v3, v2, v1
             vmv.x.s x4, v3
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for (i, v) in vals.iter().enumerate() {
                    mem.write_u64(0xA000 + i as u64 * 8, *v);
                }
            },
        );
        let expect = vals.iter().fold(0u64, |s, v| s.wrapping_add(*v));
        prop_assert_eq!(ctx.x[4], expect);
    }

    /// Gathers read exactly the indexed elements, regardless of permutation.
    #[test]
    fn gather_matches_indexing(perm in prop::sample::subsequence((0u64..8).collect::<Vec<_>>(), 4)) {
        prop_assume!(perm.len() == 4);
        let (ctx, _) = run_to_halt(
            "vsetvli x0, x0, e64, m1
             vle64.v v2, (x1)
             li x3, 0xB000
             vluxei64.v v3, (x3), v2
             vse64.v v3, (x1)
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for (i, p) in perm.iter().enumerate() {
                    mem.write_u64(0xA000 + i as u64 * 8, p * 8);
                }
                for i in 0..8u64 {
                    mem.write_u64(0xB000 + i * 8, 1000 + i * 7);
                }
            },
        );
        let _ = ctx;
    }

    /// Masked compare + merge equals the scalar select.
    #[test]
    fn compare_and_merge_matches_select(vals in prop::collection::vec(any::<i32>(), 8),
                                        threshold in any::<i32>()) {
        let (_, mem) = run_to_halt(
            &format!(
                "vsetvli x0, x0, e32, m1
                 vle32.v v1, (x1)
                 li x4, {threshold}
                 vmslt.vx v0, v1, x4
                 vmv.v.i v2, 0
                 vmerge.vim v3, v2, 1, v0
                 li x5, 0xB000
                 vse32.v v3, (x5)
                 halt"
            ),
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for (i, v) in vals.iter().enumerate() {
                    mem.write_u32(0xA000 + i as u64 * 4, *v as u32);
                }
            },
        );
        for (i, v) in vals.iter().enumerate() {
            let expect = u32::from(*v < threshold);
            prop_assert_eq!(mem.read_u32(0xB000 + i as u64 * 4), expect, "lane {}", i);
        }
    }

    /// Loop-sum program equals the closed form for any n in 1..=500.
    #[test]
    fn loop_sum_closed_form(n in 1u32..=500) {
        let (ctx, _) = run_to_halt(
            &format!(
                "li x3, {n}
                 li x4, 0
                 loop: add x4, x4, x3
                 addi x3, x3, -1
                 bnez x3, loop
                 halt"
            ),
            |_, _| {},
        );
        prop_assert_eq!(ctx.x[4], (n as u64) * (n as u64 + 1) / 2);
    }

    /// Stores then loads round-trip through memory for all widths.
    #[test]
    fn store_load_round_trip(v in any::<u64>(), off in 0u64..64) {
        let addr = 0x9000 + off * 8;
        let (ctx, _) = run_to_halt(
            &format!(
                "li x3, {addr}
                 li x4, {v}
                 sd x4, (x3)
                 ld x5, (x3)
                 halt",
                v = v as i64
            ),
            |_, _| {},
        );
        prop_assert_eq!(ctx.x[5], v);
    }
}

// ---------- hostile input: the assembler and executor never panic ----------

/// Mnemonics beyond the canonical forms the disassembler prints:
/// pseudo-instructions, alternative suffixes and near misses.
const MNEMONICS: &str = "li mv not neg seqz snez nop beqz bnez bgtz blez bgt ble j ret halt
    exit fence fence.rw.rw amoadd.w amoswap.d amomax.x amo fabs.s fneg.d fcvt.w.s fcvt.d.l
    fcvt. fmv.x.w fmv.d.x vle8.v vsuxei8.v vadd.vi vmseq.vi vmerge.vim vmerge.vxm vmv.v.i
    vmv.s.x vfmv.v.f vamoswapei8.v vamoxorei16.v vamoei.v v v.";

/// Operand tokens: every register file, immediates, memory forms, masks,
/// vtype fields and label references.
const OPERANDS: &str = "x0 x1 x2 x31 x32 zero ra sp gp tp t0 t6 s0 fp s11 a0 a7 f0 f31 f32
    ft0 fa0 fs11 v0 v1 v31 v32 v0.t e8 e16 e32 e64 e128 m1 m8 ta ma rtz 0 -1 1 2047 -2048
    0x10 0xFFFFFFFFFFFFFFFF 0x8000000000000000 -9223372036854775808 99999999999999999999
    0b101 (x1) 8(x3) -8(sp) (a0 8() () L0 L1 loop end";

/// Junk: ASCII punctuation, controls and multi-byte characters.
const JUNK: &[char] = &[
    ',', '(', ')', ':', '.', '#', ';', '/', '-', '+', ' ', '\t', '\0', '\r', 'µ', 'é', '€', '𝄞',
    '0', 'x', 'v',
];

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A line of pool tokens: optional label, a mnemonic, up to four operands.
fn token_line(rng: &mut StdRng) -> String {
    let mut line = String::new();
    if rng.gen_bool(0.2) {
        line.push_str(pick(rng, &["L0: ", "L1: ", "loop:", ":", "1:"]));
    }
    let mnemonics: Vec<&str> = MNEMONICS.split_whitespace().collect();
    let operands: Vec<&str> = OPERANDS.split_whitespace().collect();
    line.push_str(pick(rng, &mnemonics));
    line.push(' ');
    let ops: Vec<&str> = (0..rng.gen_range(0..=4usize))
        .map(|_| pick(rng, &operands))
        .collect();
    line.push_str(&ops.join(pick(rng, &[", ", ",", " ", ",,"])));
    line
}

/// Inserts, truncates at or removes one character at a random position.
fn mutate_chars(rng: &mut StdRng, line: &mut String) {
    let mut chars: Vec<char> = line.chars().collect();
    let at = rng.gen_range(0..=chars.len());
    match rng.gen_range(0..3u8) {
        0 => chars.insert(at, pick(rng, JUNK)),
        1 => chars.truncate(at),
        _ if at < chars.len() => {
            chars.remove(at);
        }
        _ => {}
    }
    *line = chars.into_iter().collect();
}

/// Source text for one case: the canonical text of a generated program
/// (real control flow and every instruction form) with up to three edits,
/// each inserting or substituting a token line, mutating a line's
/// characters, or deleting a line. A quarter of the cases stay unedited,
/// so accepted programs of real length reach the executor.
fn hostile_source(rng: &mut StdRng, seed: u64) -> Vec<String> {
    let mut lines: Vec<String> = disassemble(&gen_program(seed))
        .expect("generated programs disassemble")
        .lines()
        .map(str::to_string)
        .collect();
    for _ in 0..rng.gen_range(0..=3usize) {
        let at = rng.gen_range(0..=lines.len());
        match rng.gen_range(0..4u8) {
            0 => lines.insert(at, token_line(rng)),
            1 if at < lines.len() => lines[at] = token_line(rng),
            2 if at < lines.len() => mutate_chars(rng, &mut lines[at]),
            _ if at < lines.len() => {
                lines.remove(at);
            }
            _ => lines.push(token_line(rng)),
        }
    }
    lines
}

/// Runs an accepted program for up to `max_issues` group issues on four
/// lanes with distinct `x1`/`x2`, the way the engine issues a SIMT group.
fn run_group_bounded(prog: &Program, max_issues: usize) {
    let mut mem = MainMemory::new();
    let mut iface = MainMemoryIface::new(&mut mem);
    let mut ctxs: Vec<ThreadCtx> = (0..4u64)
        .map(|i| ThreadCtx::spawned(0x8000 + i * 0x40, i * 0x40))
        .collect();
    let mut buf = EffectBuf::new();
    for _ in 0..max_issues {
        let Some(min_pc) = ctxs.iter().filter(|c| !c.done).map(|c| c.pc).min() else {
            break;
        };
        step_group(&mut ctxs, min_pc, prog, &mut iface, &mut buf);
    }
}

proptest! {
    /// `assemble` maps any text to a program or a line-numbered
    /// `AsmError`, and every program it accepts runs without panicking.
    /// Takes `PROPTEST_CASES` (CI's `asm-roundtrip` job raises it).
    #[test]
    fn hostile_source_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lines = hostile_source(&mut rng, seed);
        let src = lines.join("\n");
        match assemble(&src) {
            Ok(prog) => run_group_bounded(&prog, 256),
            Err(e) => prop_assert!(
                (1..=lines.len().max(1)).contains(&e.line),
                "error line {} outside 1..={} for {src:?}",
                e.line,
                lines.len()
            ),
        }
    }
}

/// Regression for a case the hostile-source property found: a store that
/// runs past the top of the 64-bit address space wraps to address 0
/// instead of overflowing.
#[test]
fn store_across_the_top_of_the_address_space_wraps() {
    let (ctx, mem) = run_to_halt("li x3, -4\nsd x3, (x3)\nld x4, (x3)\nhalt", |_, _| {});
    assert_eq!(ctx.x[4], -4i64 as u64);
    assert_eq!(mem.read_u32(0), u32::MAX);
}
