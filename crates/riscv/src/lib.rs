//! The NDP instruction set: a RISC-V RV64IMAFD + V (RVV) subset with the
//! paper's NDP extensions, an assembler, and a functional executor.
//!
//! M²NDP kernels are written in assembly (§IV-B: "Since the compiler for
//! M²NDP is not available yet, the kernels were implemented with assembly").
//! This crate provides everything needed to run them:
//!
//! * [`instr`] — the instruction forms: scalar integer (I/M), scalar float
//!   (F/D), atomics (A, plus the vector-AMO extension \[12\]), and vector
//!   (RVV 256-bit as configured in Table IV: "256-bit vector units");
//! * [`asm`] — a text assembler with labels, ABI register names, and the
//!   usual pseudo-instructions (`li`, `mv`, `j`, `ret`, `halt`);
//! * [`disasm`] — the inverse: canonical text from a [`Program`], with
//!   label reconstruction, satisfying `assemble(disassemble(p)) == p`;
//! * [`gen`] — seeded random instruction/program generators used by the
//!   round-trip and differential property tests (and the fuzz-style CLI);
//! * [`exec`] — a functional executor: [`exec::ThreadCtx`] holds one
//!   µthread's architectural state, and one private function defines what
//!   every instruction does. [`exec::step`] runs one µthread one
//!   instruction against a [`exec::MemIface`], writes the memory
//!   operations it performed into a reusable [`exec::EffectBuf`], and
//!   returns an [`exec::EffectClass`] that the timing layer (in
//!   `m2ndp-core`) charges to functional units and the memory system.
//!   [`exec::step_group`] is the engine's issue path: it fetches once and
//!   runs the same executor on every lane of a SIMT group parked at one pc.
//!
//! Two deliberate deviations from stock RVV, both called out in the paper:
//! µthreads receive their mapped address and offset in `x1`/`x2` when
//! spawned (§III-E), and the SFU exposes `fexp.s` for softmax-style kernels
//! (GPU-style special function unit; the paper's NDP unit has scalar and
//! vector SFUs in Table IV).
//!
//! # Example
//!
//! ```
//! use m2ndp_riscv::asm::assemble;
//! use m2ndp_riscv::exec::{step, EffectBuf, EffectClass, MainMemoryIface, ThreadCtx};
//! use m2ndp_mem::MainMemory;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = assemble(
//!     "li x3, 40
//!      add x4, x3, x3
//!      halt",
//! )?;
//! let mut mem = MainMemory::new();
//! let mut iface = MainMemoryIface::new(&mut mem);
//! let mut ctx = ThreadCtx::new();
//! let mut buf = EffectBuf::new();
//! let mut classes = Vec::new();
//! while !ctx.done {
//!     classes.push(step(&mut ctx, &prog, &mut iface, &mut buf)?);
//! }
//! assert_eq!(ctx.x[4], 80);
//! assert_eq!(classes, [EffectClass::Alu, EffectClass::Alu, EffectClass::Halted]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod disasm;
pub mod exec;
pub mod gen;
pub mod instr;
pub mod program;

pub use asm::{assemble, AsmError};
pub use disasm::{disassemble, DisasmError};
pub use exec::{
    step, step_group, EffectBuf, EffectClass, ExecError, GroupStep, MemIface, MemOp, ThreadCtx,
};
pub use instr::Instr;
pub use program::{classify, FuClass, Program};

/// Vector register length in bytes (VLEN = 256 bits, Table IV).
pub const VLEN_BYTES: usize = 32;
