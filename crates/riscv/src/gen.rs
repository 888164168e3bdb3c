//! Seeded random instruction and program generators.
//!
//! These drive the toolchain property tests (`tests/asm_roundtrip.rs`): the
//! round-trip law `assemble(disassemble(p)) == p` and the differential
//! decode-vs-execute check. Generation is plain seeded [`rand`] — each seed
//! yields one deterministic program, so a failing case reproduces from its
//! printed seed alone.
//!
//! Generated instructions stay inside the *assembler image*: every state a
//! generator emits can be spelled in the dialect (`OpImm` only uses the
//! nine immediate-form ops, unary float ops carry `rs2 = 0`, `vfexp` uses
//! operand `Imm(0)`, AMO widths are W/D). Register indices are always valid
//! (`< 32`). Branch/jump targets land in `0..=len` and every target gets a
//! named label, so the label map round-trips exactly.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instr::{
    AmoOp, BranchCond, FCmpOp, FpOp, Instr, IntOp, Precision, Sew, VAddrMode, VCmpOp, VFpOp,
    VIntOp, VOperand, VRedOp, Width,
};
use crate::program::Program;

fn xr(rng: &mut StdRng) -> u8 {
    rng.gen_range(0..32u8)
}

fn imm(rng: &mut StdRng) -> i64 {
    // Mix small immediates (common in real kernels) with full-range values
    // (exercise the `i64::MIN`/hex parsing edge cases).
    match rng.gen_range(0..4u8) {
        0 => rng.gen::<i64>(),
        1 => rng.gen_range(-16i64..=16),
        2 => i64::MIN,
        _ => rng.gen_range(-4096i64..=4096),
    }
}

fn width(rng: &mut StdRng) -> Width {
    match rng.gen_range(0..4u8) {
        0 => Width::B,
        1 => Width::H,
        2 => Width::W,
        _ => Width::D,
    }
}

fn sew(rng: &mut StdRng) -> Sew {
    match rng.gen_range(0..4u8) {
        0 => Sew::E8,
        1 => Sew::E16,
        2 => Sew::E32,
        _ => Sew::E64,
    }
}

fn precision(rng: &mut StdRng) -> Precision {
    if rng.gen_bool(0.5) {
        Precision::S
    } else {
        Precision::D
    }
}

fn amo_op(rng: &mut StdRng) -> AmoOp {
    match rng.gen_range(0..7u8) {
        0 => AmoOp::Add,
        1 => AmoOp::Swap,
        2 => AmoOp::Min,
        3 => AmoOp::Max,
        4 => AmoOp::And,
        5 => AmoOp::Or,
        _ => AmoOp::Xor,
    }
}

fn int_op(rng: &mut StdRng) -> IntOp {
    match rng.gen_range(0..16u8) {
        0 => IntOp::Add,
        1 => IntOp::Sub,
        2 => IntOp::And,
        3 => IntOp::Or,
        4 => IntOp::Xor,
        5 => IntOp::Sll,
        6 => IntOp::Srl,
        7 => IntOp::Sra,
        8 => IntOp::Slt,
        9 => IntOp::Sltu,
        10 => IntOp::Mul,
        11 => IntOp::Mulh,
        12 => IntOp::Div,
        13 => IntOp::Divu,
        14 => IntOp::Rem,
        _ => IntOp::Remu,
    }
}

/// One of the nine ops that have an immediate-form mnemonic.
fn int_imm_op(rng: &mut StdRng) -> IntOp {
    match rng.gen_range(0..9u8) {
        0 => IntOp::Add,
        1 => IntOp::And,
        2 => IntOp::Or,
        3 => IntOp::Xor,
        4 => IntOp::Sll,
        5 => IntOp::Srl,
        6 => IntOp::Sra,
        7 => IntOp::Slt,
        _ => IntOp::Sltu,
    }
}

fn voperand(rng: &mut StdRng) -> VOperand {
    match rng.gen_range(0..4u8) {
        0 => VOperand::Vector(xr(rng)),
        1 => VOperand::Scalar(xr(rng)),
        2 => VOperand::Imm(imm(rng)),
        _ => VOperand::Float(xr(rng)),
    }
}

fn vaddr_mode(rng: &mut StdRng) -> VAddrMode {
    match rng.gen_range(0..3u8) {
        0 => VAddrMode::Unit,
        1 => VAddrMode::Strided(xr(rng)),
        _ => VAddrMode::Indexed(xr(rng)),
    }
}

/// Generates one random assembler-image instruction.
///
/// `len` is the instruction count of the program under construction;
/// branch/jump targets are drawn from `0..=len` (one past the end is a
/// legal fall-through target).
#[allow(clippy::too_many_lines)]
pub fn gen_instr(rng: &mut StdRng, len: usize) -> Instr {
    let target = |rng: &mut StdRng| rng.gen_range(0..=len);
    match rng.gen_range(0..33u8) {
        0 => Instr::Li {
            rd: xr(rng),
            imm: imm(rng),
        },
        1 => Instr::Lui {
            rd: xr(rng),
            imm: imm(rng),
        },
        2 => Instr::Op {
            op: int_op(rng),
            rd: xr(rng),
            rs1: xr(rng),
            rs2: xr(rng),
        },
        3 => Instr::OpImm {
            op: int_imm_op(rng),
            rd: xr(rng),
            rs1: xr(rng),
            imm: imm(rng),
        },
        4 => Instr::Load {
            width: width(rng),
            signed: rng.gen_bool(0.5),
            rd: xr(rng),
            rs1: xr(rng),
            offset: imm(rng),
        },
        5 => Instr::Store {
            width: width(rng),
            rs2: xr(rng),
            rs1: xr(rng),
            offset: imm(rng),
        },
        6 => Instr::Branch {
            cond: match rng.gen_range(0..6u8) {
                0 => BranchCond::Eq,
                1 => BranchCond::Ne,
                2 => BranchCond::Lt,
                3 => BranchCond::Ge,
                4 => BranchCond::Ltu,
                _ => BranchCond::Geu,
            },
            rs1: xr(rng),
            rs2: xr(rng),
            target: target(rng),
        },
        7 => Instr::Jal {
            rd: xr(rng),
            target: target(rng),
        },
        8 => Instr::Jalr {
            rd: xr(rng),
            rs1: xr(rng),
            offset: imm(rng),
        },
        9 => Instr::Amo {
            op: amo_op(rng),
            width: if rng.gen_bool(0.5) {
                Width::W
            } else {
                Width::D
            },
            rd: xr(rng),
            rs2: xr(rng),
            rs1: xr(rng),
        },
        10 => Instr::Fence,
        11 => Instr::Halt,
        12 => Instr::FLoad {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
            offset: imm(rng),
        },
        13 => Instr::FStore {
            precision: precision(rng),
            rs2: xr(rng),
            rs1: xr(rng),
            offset: imm(rng),
        },
        14 => {
            let op = match rng.gen_range(0..11u8) {
                0 => FpOp::Add,
                1 => FpOp::Sub,
                2 => FpOp::Mul,
                3 => FpOp::Div,
                4 => FpOp::Min,
                5 => FpOp::Max,
                6 => FpOp::Sqrt,
                7 => FpOp::Exp,
                8 => FpOp::Sgnj,
                9 => FpOp::Sgnjn,
                _ => FpOp::Sgnjx,
            };
            // Unary SFU ops carry rs2 = 0 in assembler-image form.
            let rs2 = if matches!(op, FpOp::Sqrt | FpOp::Exp) {
                0
            } else {
                xr(rng)
            };
            Instr::FOp {
                op,
                precision: precision(rng),
                rd: xr(rng),
                rs1: xr(rng),
                rs2,
            }
        }
        15 => Instr::FMadd {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
            rs2: xr(rng),
            rs3: xr(rng),
        },
        16 => Instr::FCmp {
            op: match rng.gen_range(0..3u8) {
                0 => FCmpOp::Eq,
                1 => FCmpOp::Lt,
                _ => FCmpOp::Le,
            },
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
            rs2: xr(rng),
        },
        17 => Instr::FCvtFromInt {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
            signed: rng.gen_bool(0.5),
        },
        18 => Instr::FCvtToInt {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
            signed: rng.gen_bool(0.5),
        },
        19 => Instr::FMvToInt {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
        },
        20 => Instr::FMvFromInt {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
        },
        21 => Instr::FCvtPrec {
            to: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
        },
        22 => Instr::Vsetvli {
            rd: xr(rng),
            rs1: xr(rng),
            sew: sew(rng),
        },
        23 => Instr::VLoad {
            eew: sew(rng),
            vd: xr(rng),
            rs1: xr(rng),
            mode: vaddr_mode(rng),
            masked: rng.gen_bool(0.25),
        },
        24 => Instr::VStore {
            eew: sew(rng),
            vs3: xr(rng),
            rs1: xr(rng),
            mode: vaddr_mode(rng),
            masked: rng.gen_bool(0.25),
        },
        25 => Instr::VIntOp {
            op: match rng.gen_range(0..10u8) {
                0 => VIntOp::Add,
                1 => VIntOp::Sub,
                2 => VIntOp::Mul,
                3 => VIntOp::And,
                4 => VIntOp::Or,
                5 => VIntOp::Xor,
                6 => VIntOp::Sll,
                7 => VIntOp::Srl,
                8 => VIntOp::Min,
                _ => VIntOp::Max,
            },
            vd: xr(rng),
            vs2: xr(rng),
            operand: voperand(rng),
            masked: rng.gen_bool(0.25),
        },
        26 => {
            let op = match rng.gen_range(0..8u8) {
                0 => VFpOp::Add,
                1 => VFpOp::Sub,
                2 => VFpOp::Mul,
                3 => VFpOp::Div,
                4 => VFpOp::Macc,
                5 => VFpOp::Min,
                6 => VFpOp::Max,
                _ => VFpOp::Exp,
            };
            // vfexp.v's operand slot is fixed at Imm(0) by the assembler.
            let operand = if op == VFpOp::Exp {
                VOperand::Imm(0)
            } else {
                voperand(rng)
            };
            Instr::VFpOp {
                op,
                vd: xr(rng),
                vs2: xr(rng),
                operand,
                masked: rng.gen_bool(0.25),
            }
        }
        27 => Instr::VRed {
            op: match rng.gen_range(0..6u8) {
                0 => VRedOp::Sum,
                1 => VRedOp::Max,
                2 => VRedOp::Min,
                3 => VRedOp::FSum,
                4 => VRedOp::FMax,
                _ => VRedOp::FMin,
            },
            vd: xr(rng),
            vs2: xr(rng),
            vs1: xr(rng),
        },
        28 => Instr::VCmp {
            op: match rng.gen_range(0..10u8) {
                0 => VCmpOp::Eq,
                1 => VCmpOp::Ne,
                2 => VCmpOp::Lt,
                3 => VCmpOp::Le,
                4 => VCmpOp::Gt,
                5 => VCmpOp::Ge,
                6 => VCmpOp::FLt,
                7 => VCmpOp::FLe,
                8 => VCmpOp::FEq,
                _ => VCmpOp::FGe,
            },
            vd: xr(rng),
            vs2: xr(rng),
            operand: voperand(rng),
        },
        29 => match rng.gen_range(0..4u8) {
            0 => Instr::VMv {
                vd: xr(rng),
                operand: voperand(rng),
            },
            1 => Instr::VMvToScalar {
                rd: xr(rng),
                vs2: xr(rng),
            },
            2 => Instr::VMvFromScalar {
                vd: xr(rng),
                rs1: xr(rng),
            },
            _ => Instr::VFMvToScalar {
                rd: xr(rng),
                vs2: xr(rng),
            },
        },
        30 => Instr::Vid {
            vd: xr(rng),
            masked: rng.gen_bool(0.25),
        },
        31 => {
            if rng.gen_bool(0.5) {
                Instr::VMerge {
                    vd: xr(rng),
                    vs2: xr(rng),
                    operand: voperand(rng),
                }
            } else {
                Instr::VSlidedown {
                    vd: xr(rng),
                    vs2: xr(rng),
                    operand: voperand(rng),
                }
            }
        }
        _ => Instr::VAmo {
            op: amo_op(rng),
            eew: if rng.gen_bool(0.5) {
                Sew::E32
            } else {
                Sew::E64
            },
            vd: xr(rng),
            rs1: xr(rng),
            vs2: xr(rng),
            masked: rng.gen_bool(0.25),
        },
    }
}

/// Generates a random well-labeled program from a seed.
///
/// Every branch/jump target is covered by a label named `L{index}`, and a
/// few unreferenced `U{index}` labels are sprinkled in (including past the
/// last instruction), so [`crate::disasm::disassemble`] reproduces the map
/// exactly and `assemble(disassemble(p)) == p` is a meaningful equality on
/// the whole [`Program`], label map included.
pub fn gen_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(1..=48usize);
    let instrs: Vec<Instr> = (0..len).map(|_| gen_instr(&mut rng, len)).collect();

    let mut labels: HashMap<String, usize> = HashMap::new();
    for instr in &instrs {
        if let Instr::Branch { target, .. } | Instr::Jal { target, .. } = instr {
            labels.insert(format!("L{target}"), *target);
        }
    }
    // Unreferenced labels exercise the "emit every label" path.
    for _ in 0..rng.gen_range(0..3usize) {
        let index = rng.gen_range(0..=len);
        labels.insert(format!("U{index}"), index);
    }
    Program::new(instrs, labels)
}

/// One instance of every `Instr` variant (assembler-image states), for
/// exhaustiveness smoke tests that don't want randomness.
pub fn all_variants() -> Vec<Instr> {
    vec![
        Instr::Li { rd: 1, imm: -1 },
        Instr::Lui { rd: 2, imm: 4096 },
        Instr::Op {
            op: IntOp::Sub,
            rd: 3,
            rs1: 4,
            rs2: 5,
        },
        Instr::OpImm {
            op: IntOp::Add,
            rd: 6,
            rs1: 7,
            imm: 8,
        },
        Instr::Load {
            width: Width::D,
            signed: false,
            rd: 8,
            rs1: 9,
            offset: -16,
        },
        Instr::Store {
            width: Width::W,
            rs2: 10,
            rs1: 11,
            offset: 4,
        },
        Instr::Branch {
            cond: BranchCond::Ltu,
            rs1: 12,
            rs2: 13,
            target: 0,
        },
        Instr::Jal { rd: 1, target: 0 },
        Instr::Jalr {
            rd: 0,
            rs1: 1,
            offset: 0,
        },
        Instr::Amo {
            op: AmoOp::Max,
            width: Width::W,
            rd: 14,
            rs2: 15,
            rs1: 16,
        },
        Instr::Fence,
        Instr::Halt,
        Instr::FLoad {
            precision: Precision::S,
            rd: 1,
            rs1: 2,
            offset: 8,
        },
        Instr::FStore {
            precision: Precision::D,
            rs2: 3,
            rs1: 4,
            offset: -8,
        },
        Instr::FOp {
            op: FpOp::Exp,
            precision: Precision::D,
            rd: 5,
            rs1: 6,
            rs2: 0,
        },
        Instr::FMadd {
            precision: Precision::S,
            rd: 7,
            rs1: 8,
            rs2: 9,
            rs3: 10,
        },
        Instr::FCmp {
            op: FCmpOp::Le,
            precision: Precision::D,
            rd: 17,
            rs1: 11,
            rs2: 12,
        },
        Instr::FCvtFromInt {
            precision: Precision::D,
            rd: 13,
            rs1: 18,
            signed: false,
        },
        Instr::FCvtToInt {
            precision: Precision::S,
            rd: 19,
            rs1: 14,
            signed: true,
        },
        Instr::FMvToInt {
            precision: Precision::D,
            rd: 20,
            rs1: 15,
        },
        Instr::FMvFromInt {
            precision: Precision::S,
            rd: 16,
            rs1: 21,
        },
        Instr::FCvtPrec {
            to: Precision::S,
            rd: 17,
            rs1: 18,
        },
        Instr::Vsetvli {
            rd: 22,
            rs1: 0,
            sew: Sew::E16,
        },
        Instr::VLoad {
            eew: Sew::E32,
            vd: 1,
            rs1: 23,
            mode: VAddrMode::Indexed(2),
            masked: true,
        },
        Instr::VStore {
            eew: Sew::E64,
            vs3: 3,
            rs1: 24,
            mode: VAddrMode::Strided(25),
            masked: false,
        },
        Instr::VIntOp {
            op: VIntOp::Min,
            vd: 4,
            vs2: 5,
            operand: VOperand::Imm(-3),
            masked: true,
        },
        Instr::VFpOp {
            op: VFpOp::Macc,
            vd: 6,
            vs2: 7,
            operand: VOperand::Float(19),
            masked: false,
        },
        Instr::VRed {
            op: VRedOp::FMin,
            vd: 8,
            vs2: 9,
            vs1: 10,
        },
        Instr::VCmp {
            op: VCmpOp::FGe,
            vd: 0,
            vs2: 11,
            operand: VOperand::Scalar(26),
        },
        Instr::VMv {
            vd: 12,
            operand: VOperand::Imm(7),
        },
        Instr::VMvToScalar { rd: 27, vs2: 13 },
        Instr::VMvFromScalar { vd: 14, rs1: 28 },
        Instr::VFMvToScalar { rd: 20, vs2: 15 },
        Instr::Vid {
            vd: 16,
            masked: true,
        },
        Instr::VMerge {
            vd: 17,
            vs2: 18,
            operand: VOperand::Vector(19),
        },
        Instr::VSlidedown {
            vd: 20,
            vs2: 21,
            operand: VOperand::Imm(2),
        },
        Instr::VAmo {
            op: AmoOp::Xor,
            eew: Sew::E64,
            vd: 22,
            rs1: 29,
            vs2: 23,
            masked: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen_program(42), gen_program(42));
        // Different seeds should (overwhelmingly) differ.
        assert_ne!(gen_program(1), gen_program(2));
    }

    #[test]
    fn generated_targets_are_labeled() {
        for seed in 0..64 {
            let p = gen_program(seed);
            for instr in p.instrs() {
                if let Instr::Branch { target, .. } | Instr::Jal { target, .. } = instr {
                    assert_eq!(p.label(&format!("L{target}")), Some(*target));
                }
            }
        }
    }

    #[test]
    fn all_variants_is_exhaustive_by_count() {
        // One entry per Instr variant (37 total). The match-exhaustive
        // classification test in crates/riscv/tests/ keeps this honest when
        // a variant is added.
        let vs = all_variants();
        assert_eq!(vs.len(), 37);
    }
}
