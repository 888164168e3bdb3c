//! Assembled NDP kernel programs.

use std::collections::HashMap;

use crate::instr::{FpOp, Instr, IntOp, VFpOp};

/// ISA-level functional-unit class of an instruction, decoded once at
/// assembly time. Configuration-independent: the engine maps the scalar
/// classes onto vector units when a configuration has no scalar units
/// (GPU mode, §III-D A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Scalar integer ALU.
    SAlu,
    /// Scalar special-function unit (div/rem, fdiv, fsqrt, fexp).
    SSfu,
    /// Scalar load/store unit.
    SLsu,
    /// Vector ALU (all vector compute, moves, and vsetvli).
    VAlu,
    /// Vector special-function unit (vfdiv, vfexp).
    VSfu,
    /// Vector load/store unit.
    VLsu,
}

/// Statically classifies one instruction by the functional unit it
/// occupies ([`Program::new`] caches the result per pc as
/// [`Program::classes`]). The latency class is not decided here: the
/// executor returns it as an [`EffectClass`](crate::exec::EffectClass)
/// when the instruction runs.
pub fn classify(instr: &Instr) -> FuClass {
    match instr {
        Instr::Load { .. }
        | Instr::Store { .. }
        | Instr::Amo { .. }
        | Instr::FLoad { .. }
        | Instr::FStore { .. } => FuClass::SLsu,
        Instr::VLoad { .. } | Instr::VStore { .. } | Instr::VAmo { .. } => FuClass::VLsu,
        Instr::Op {
            op: IntOp::Div | IntOp::Divu | IntOp::Rem | IntOp::Remu,
            ..
        } => FuClass::SSfu,
        Instr::FOp {
            op: FpOp::Div | FpOp::Sqrt | FpOp::Exp,
            ..
        } => FuClass::SSfu,
        Instr::VFpOp {
            op: VFpOp::Div | VFpOp::Exp,
            ..
        } => FuClass::VSfu,
        i if i.is_vector() => FuClass::VAlu,
        _ => FuClass::SAlu,
    }
}

/// An assembled program: a flat instruction vector with resolved branch
/// targets, plus the label map and register-usage summary used at kernel
/// registration time (Table II's `numIntRegs`/`numFloatRegs`/`numVectorRegs`
/// arguments).
///
/// `classes` is a derived pre-decoded side table (one [`FuClass`] per
/// instruction); it is a pure function of `instrs`, so the derived
/// `PartialEq` stays lawful and round-tripping through the disassembler
/// reproduces it bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
    labels: HashMap<String, usize>,
    classes: Vec<FuClass>,
}

/// Architectural register usage of a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegUsage {
    /// Number of integer registers used (highest index + 1, including x0).
    pub int_regs: u8,
    /// Number of float registers used.
    pub float_regs: u8,
    /// Number of vector registers used.
    pub vector_regs: u8,
}

impl Program {
    /// Creates a program from parts (used by the assembler), pre-decoding
    /// the per-instruction [`FuClass`] table.
    pub fn new(instrs: Vec<Instr>, labels: HashMap<String, usize>) -> Self {
        let classes = instrs.iter().map(classify).collect();
        Self {
            instrs,
            labels,
            classes,
        }
    }

    /// The instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Instruction at `pc`, if in range.
    pub fn fetch(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// Pre-decoded functional unit of the instruction at `pc`, if in
    /// range. An array lookup — the engine's dispatch scan uses this
    /// instead of re-matching the instruction enum every cycle.
    pub fn class_at(&self, pc: usize) -> Option<FuClass> {
        self.classes.get(pc).copied()
    }

    /// The pre-decoded class table, one entry per instruction.
    pub fn classes(&self) -> &[FuClass] {
        &self.classes
    }

    /// Number of instructions (the paper's static instruction count,
    /// §III-D A1).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction index of a label.
    pub fn label(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }

    /// The full label map (name → instruction index).
    ///
    /// Used by the disassembler to reconstruct label definitions; indices may
    /// equal [`Self::len`] for labels pointing past the last instruction.
    pub fn labels(&self) -> &HashMap<String, usize> {
        &self.labels
    }

    /// Scans the program for its architectural register footprint.
    ///
    /// Memory-bound kernels use few registers (§III-D); the NDP controller
    /// uses these counts to pack many µthread contexts into the physical
    /// register file.
    pub fn reg_usage(&self) -> RegUsage {
        let mut x = 0u8;
        let mut f = 0u8;
        let mut v = 0u8;
        let mut tx = |r: u8| x = x.max(r + 1);
        let mut tf = |r: u8| f = f.max(r + 1);
        let mut tv = |r: u8| v = v.max(r + 1);
        for i in &self.instrs {
            match *i {
                Instr::Li { rd, .. } | Instr::Lui { rd, .. } => tx(rd),
                Instr::Op { rd, rs1, rs2, .. } => {
                    tx(rd);
                    tx(rs1);
                    tx(rs2);
                }
                Instr::OpImm { rd, rs1, .. } => {
                    tx(rd);
                    tx(rs1);
                }
                Instr::Load { rd, rs1, .. } => {
                    tx(rd);
                    tx(rs1);
                }
                Instr::Store { rs2, rs1, .. } => {
                    tx(rs2);
                    tx(rs1);
                }
                Instr::Branch { rs1, rs2, .. } => {
                    tx(rs1);
                    tx(rs2);
                }
                Instr::Jal { rd, .. } => tx(rd),
                Instr::Jalr { rd, rs1, .. } => {
                    tx(rd);
                    tx(rs1);
                }
                Instr::Amo { rd, rs2, rs1, .. } => {
                    tx(rd);
                    tx(rs2);
                    tx(rs1);
                }
                Instr::Fence | Instr::Halt => {}
                Instr::FLoad { rd, rs1, .. } => {
                    tf(rd);
                    tx(rs1);
                }
                Instr::FStore { rs2, rs1, .. } => {
                    tf(rs2);
                    tx(rs1);
                }
                Instr::FOp { rd, rs1, rs2, .. } => {
                    tf(rd);
                    tf(rs1);
                    tf(rs2);
                }
                Instr::FMadd {
                    rd, rs1, rs2, rs3, ..
                } => {
                    tf(rd);
                    tf(rs1);
                    tf(rs2);
                    tf(rs3);
                }
                Instr::FCmp { rd, rs1, rs2, .. } => {
                    tx(rd);
                    tf(rs1);
                    tf(rs2);
                }
                Instr::FCvtFromInt { rd, rs1, .. } => {
                    tf(rd);
                    tx(rs1);
                }
                Instr::FCvtToInt { rd, rs1, .. } => {
                    tx(rd);
                    tf(rs1);
                }
                Instr::FMvToInt { rd, rs1, .. } => {
                    tx(rd);
                    tf(rs1);
                }
                Instr::FMvFromInt { rd, rs1, .. } => {
                    tf(rd);
                    tx(rs1);
                }
                Instr::FCvtPrec { rd, rs1, .. } => {
                    tf(rd);
                    tf(rs1);
                }
                Instr::Vsetvli { rd, rs1, .. } => {
                    tx(rd);
                    tx(rs1);
                }
                Instr::VLoad { vd, rs1, mode, .. } => {
                    tv(vd);
                    tx(rs1);
                    match mode {
                        crate::instr::VAddrMode::Strided(r) => tx(r),
                        crate::instr::VAddrMode::Indexed(r) => tv(r),
                        crate::instr::VAddrMode::Unit => {}
                    }
                }
                Instr::VStore { vs3, rs1, mode, .. } => {
                    tv(vs3);
                    tx(rs1);
                    match mode {
                        crate::instr::VAddrMode::Strided(r) => tx(r),
                        crate::instr::VAddrMode::Indexed(r) => tv(r),
                        crate::instr::VAddrMode::Unit => {}
                    }
                }
                Instr::VIntOp {
                    vd, vs2, operand, ..
                }
                | Instr::VFpOp {
                    vd, vs2, operand, ..
                }
                | Instr::VCmp {
                    vd, vs2, operand, ..
                }
                | Instr::VMerge { vd, vs2, operand }
                | Instr::VSlidedown { vd, vs2, operand } => {
                    tv(vd);
                    tv(vs2);
                    match operand {
                        crate::instr::VOperand::Vector(r) => tv(r),
                        crate::instr::VOperand::Scalar(r) => tx(r),
                        crate::instr::VOperand::Float(r) => tf(r),
                        crate::instr::VOperand::Imm(_) => {}
                    }
                }
                Instr::VRed { vd, vs2, vs1, .. } => {
                    tv(vd);
                    tv(vs2);
                    tv(vs1);
                }
                Instr::VMv { vd, operand } => {
                    tv(vd);
                    match operand {
                        crate::instr::VOperand::Vector(r) => tv(r),
                        crate::instr::VOperand::Scalar(r) => tx(r),
                        crate::instr::VOperand::Float(r) => tf(r),
                        crate::instr::VOperand::Imm(_) => {}
                    }
                }
                Instr::VMvToScalar { rd, vs2 } => {
                    tx(rd);
                    tv(vs2);
                }
                Instr::VMvFromScalar { vd, rs1 } => {
                    tv(vd);
                    tx(rs1);
                }
                Instr::VFMvToScalar { rd, vs2 } => {
                    tf(rd);
                    tv(vs2);
                }
                Instr::Vid { vd, .. } => tv(vd),
                Instr::VAmo { vd, rs1, vs2, .. } => {
                    tv(vd);
                    tx(rs1);
                    tv(vs2);
                }
            }
        }
        RegUsage {
            int_regs: x,
            float_regs: f,
            vector_regs: v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{IntOp, Width};

    #[test]
    fn reg_usage_tracks_highest_index() {
        let p = Program::new(
            vec![
                Instr::Li { rd: 4, imm: 1 },
                Instr::Op {
                    op: IntOp::Add,
                    rd: 2,
                    rs1: 4,
                    rs2: 1,
                },
                Instr::Load {
                    width: Width::D,
                    signed: true,
                    rd: 3,
                    rs1: 2,
                    offset: 0,
                },
            ],
            HashMap::new(),
        );
        let u = p.reg_usage();
        assert_eq!(u.int_regs, 5);
        assert_eq!(u.float_regs, 0);
        assert_eq!(u.vector_regs, 0);
    }

    #[test]
    fn fetch_out_of_range_is_none() {
        let p = Program::new(vec![Instr::Halt], HashMap::new());
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn class_table_is_derived_per_instruction() {
        use crate::instr::{FpOp, Precision, VFpOp, VOperand};
        let instrs = vec![
            Instr::Li { rd: 1, imm: 0 },
            Instr::Op {
                op: IntOp::Div,
                rd: 1,
                rs1: 1,
                rs2: 1,
            },
            Instr::Op {
                op: IntOp::Mul,
                rd: 1,
                rs1: 1,
                rs2: 1,
            },
            Instr::Load {
                width: Width::D,
                signed: true,
                rd: 1,
                rs1: 1,
                offset: 0,
            },
            Instr::FOp {
                op: FpOp::Sqrt,
                precision: Precision::D,
                rd: 0,
                rs1: 0,
                rs2: 0,
            },
            Instr::VFpOp {
                op: VFpOp::Div,
                vd: 1,
                vs2: 2,
                operand: VOperand::Vector(3),
                masked: false,
            },
            Instr::VIntOp {
                op: crate::instr::VIntOp::Add,
                vd: 1,
                vs2: 2,
                operand: VOperand::Vector(3),
                masked: false,
            },
            Instr::Halt,
        ];
        let p = Program::new(instrs, HashMap::new());
        assert_eq!(p.classes().len(), p.len());
        let expect = [
            FuClass::SAlu,
            FuClass::SSfu,
            FuClass::SAlu,
            FuClass::SLsu,
            FuClass::SSfu,
            FuClass::VSfu,
            FuClass::VAlu,
            FuClass::SAlu,
        ];
        for (pc, fu) in expect.iter().enumerate() {
            assert_eq!(p.class_at(pc), Some(*fu), "pc {pc}");
        }
        assert!(p.class_at(p.len()).is_none());
    }
}
