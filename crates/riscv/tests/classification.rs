//! Exhaustive classification tests for [`Instr::is_mem`],
//! [`Instr::is_vector`] and the functional-unit table [`classify`].
//!
//! The matches below list **every** variant explicitly — no `_` arm — so
//! adding an `Instr` variant without deciding its memory/vector
//! classification, or an `EffectClass` without deciding its unit, fails to
//! compile here, and [`gen::all_variants`] (one instance per variant)
//! drives the runtime checks over each one.

use std::collections::{HashMap, HashSet};

use m2ndp_mem::MainMemory;
use m2ndp_riscv::exec::{step, EffectBuf, EffectClass, MainMemoryIface, ThreadCtx};
use m2ndp_riscv::gen::{all_variants, gen_program};
use m2ndp_riscv::{classify, FuClass, Instr, Program};

/// The expected classification, spelled out per variant. Compilation of
/// this match is the real test: extend it (and `gen::all_variants`) when
/// adding a variant.
fn expected(instr: &Instr) -> (bool, bool) {
    // (is_mem, is_vector)
    match instr {
        Instr::Li { .. } | Instr::Lui { .. } | Instr::Op { .. } | Instr::OpImm { .. } => {
            (false, false)
        }
        Instr::Load { .. } | Instr::Store { .. } | Instr::Amo { .. } => (true, false),
        Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. } => (false, false),
        Instr::Fence | Instr::Halt => (false, false),
        Instr::FLoad { .. } | Instr::FStore { .. } => (true, false),
        Instr::FOp { .. }
        | Instr::FMadd { .. }
        | Instr::FCmp { .. }
        | Instr::FCvtFromInt { .. }
        | Instr::FCvtToInt { .. }
        | Instr::FMvToInt { .. }
        | Instr::FMvFromInt { .. }
        | Instr::FCvtPrec { .. } => (false, false),
        Instr::Vsetvli { .. } => (false, true),
        Instr::VLoad { .. } | Instr::VStore { .. } | Instr::VAmo { .. } => (true, true),
        Instr::VIntOp { .. }
        | Instr::VFpOp { .. }
        | Instr::VCmp { .. }
        | Instr::VMerge { .. }
        | Instr::VSlidedown { .. }
        | Instr::VRed { .. }
        | Instr::VMv { .. }
        | Instr::VMvToScalar { .. }
        | Instr::VMvFromScalar { .. }
        | Instr::VFMvToScalar { .. }
        | Instr::Vid { .. } => (false, true),
    }
}

#[test]
fn classification_covers_every_variant() {
    let variants = all_variants();
    assert_eq!(variants.len(), 37, "one instance per Instr variant");
    for instr in &variants {
        let (mem, vector) = expected(instr);
        assert_eq!(instr.is_mem(), mem, "is_mem for {instr:?}");
        assert_eq!(instr.is_vector(), vector, "is_vector for {instr:?}");
    }
}

#[test]
fn memory_and_vector_sets_have_the_expected_sizes() {
    let variants = all_variants();
    let mem = variants.iter().filter(|i| i.is_mem()).count();
    let vector = variants.iter().filter(|i| i.is_vector()).count();
    // 8 memory forms: Load, Store, Amo, FLoad, FStore, VLoad, VStore, VAmo.
    assert_eq!(mem, 8);
    // 15 vector forms (Table IV's 256-bit unit plus the vector-AMO ext).
    assert_eq!(vector, 15);
}

/// The unit an executed effect class must have been issued on.
fn unit_of(class: EffectClass) -> FuClass {
    match class {
        EffectClass::Mem => FuClass::SLsu,
        EffectClass::VMem => FuClass::VLsu,
        EffectClass::Div | EffectClass::Sfu => FuClass::SSfu,
        EffectClass::VSfu => FuClass::VSfu,
        EffectClass::VAlu | EffectClass::VFpu | EffectClass::VCtl => FuClass::VAlu,
        EffectClass::Alu
        | EffectClass::Mul
        | EffectClass::FpAlu
        | EffectClass::Branch
        | EffectClass::Halted => FuClass::SAlu,
    }
}

/// The engine picks the functional unit from `classify` before issue and
/// the latency from the class the executor returns; the two must agree.
/// Every variant runs once on a fresh context, plus every instruction of
/// 256 generated programs so each opcode's operation (div vs mul, fdiv vs
/// fadd, ...) is covered too.
#[test]
fn fu_class_matches_executed_effect_for_every_variant() {
    let generated = (0..256).flat_map(|seed| gen_program(seed).instrs().to_vec());
    let mut seen = HashSet::new();
    for instr in all_variants().into_iter().chain(generated) {
        let prog = Program::new(vec![instr.clone()], HashMap::new());
        let mut mem = MainMemory::new();
        let mut ctx = ThreadCtx::new();
        let mut buf = EffectBuf::new();
        let class = step(
            &mut ctx,
            &prog,
            &mut MainMemoryIface::new(&mut mem),
            &mut buf,
        )
        .expect("a fresh context executes pc 0");
        assert_eq!(
            classify(&instr),
            unit_of(class),
            "{instr:?} executed as {class:?}"
        );
        seen.insert(class);
    }
    assert_eq!(seen.len(), 13, "every effect class was executed: {seen:?}");
}
