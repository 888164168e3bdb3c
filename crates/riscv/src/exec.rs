//! Functional execution of NDP kernel instructions.
//!
//! One private function, `exec`, defines what every instruction does to a
//! µthread's [`ThreadCtx`] and a [`MemIface`]. It returns an
//! [`EffectClass`] that tells the timing layer which latency class to
//! charge, and writes the memory operations it performed into an
//! [`EffectBuf`]. Two entry points call it: [`step`] runs one µthread one
//! instruction (the per-lane reference), and [`step_group`] fetches once
//! and runs every lane of a SIMT group parked at the same pc (the engine's
//! issue path).
//!
//! Execution is *functional at issue*: data values are read/written
//! immediately, while the timing model separately delays the µthread until
//! the modeled memory responses return (§III-E — µthreads execute their
//! instructions serially, so no intra-thread reordering can observe the
//! difference; inter-thread atomics linearize in issue order).
//!
//! Jump/branch targets are instruction indices; "byte" code addresses used
//! by `jal`/`jalr` link values are `index * 4`. A `jalr` whose computed
//! target is byte address 0 terminates the µthread (the spawn convention
//! initializes `ra = 0`, so a top-level `ret` ends the kernel like `halt`).

use m2ndp_mem::MainMemory;

use crate::instr::{
    AmoOp, BranchCond, FCmpOp, FpOp, Instr, IntOp, Precision, Sew, VAddrMode, VCmpOp, VFpOp,
    VIntOp, VOperand, VRedOp, Width,
};
use crate::program::Program;
use crate::VLEN_BYTES;

/// One vector register's contents.
pub type VValue = [u8; VLEN_BYTES];

/// A µthread's architectural state.
///
/// Spawn convention (§III-E): `x1` holds the mapped µthread-pool address and
/// `x2` the offset from the pool base; everything else is zero.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCtx {
    /// Program counter as an instruction index.
    pub pc: usize,
    /// Integer registers (`x0` reads as zero).
    pub x: [u64; 32],
    /// Float registers (raw bit patterns).
    pub f: [u64; 32],
    /// Vector registers.
    pub v: [VValue; 32],
    /// Current vector length (elements).
    pub vl: u32,
    /// Current selected element width.
    pub sew: Sew,
    /// Set when the µthread has terminated.
    pub done: bool,
}

impl ThreadCtx {
    /// Fresh context with pc 0 and all state zeroed (SEW defaults to e64).
    pub fn new() -> Self {
        Self {
            pc: 0,
            x: [0; 32],
            f: [0; 32],
            v: [[0; VLEN_BYTES]; 32],
            vl: (VLEN_BYTES / 8) as u32,
            sew: Sew::E64,
            done: false,
        }
    }

    /// Spawn context for a µthread mapped to `addr` at `offset` within its
    /// pool region (§III-E: "the address and offset ... are provided in the
    /// first two non-zero-valued scalar registers, x1 and x2").
    pub fn spawned(addr: u64, offset: u64) -> Self {
        let mut ctx = Self::new();
        ctx.x[1] = addr;
        ctx.x[2] = offset;
        ctx
    }

    /// Resets this context to the [`ThreadCtx::new`] state in place.
    ///
    /// The engine reuses per-slot context storage across µthread waves:
    /// rewriting the existing registers avoids reallocating the
    /// `32 × VLEN` vector file for every spawn.
    pub fn reset(&mut self) {
        self.pc = 0;
        self.x = [0; 32];
        self.f = [0; 32];
        self.v = [[0; VLEN_BYTES]; 32];
        self.vl = (VLEN_BYTES / 8) as u32;
        self.sew = Sew::E64;
        self.done = false;
    }

    fn write_x(&mut self, rd: u8, v: u64) {
        if rd != 0 {
            self.x[rd as usize] = v;
        }
    }
}

impl Default for ThreadCtx {
    fn default() -> Self {
        Self::new()
    }
}

/// A memory operation performed by an instruction, for the timing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Byte address.
    pub addr: u64,
    /// Size in bytes.
    pub bytes: u32,
    /// Write (stores, and the store half of AMOs).
    pub write: bool,
    /// Atomic read-modify-write.
    pub amo: bool,
}

/// Which latency class an executed instruction falls in; the timing layer
/// keys latency and functional-unit accounting on it. Memory operands
/// travel separately through an [`EffectBuf`], so reporting an effect never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectClass {
    /// Scalar integer ALU (1-cycle class).
    Alu,
    /// Scalar multiplier.
    Mul,
    /// Scalar divider (long latency).
    Div,
    /// Scalar FP add/mul/fma class.
    FpAlu,
    /// Scalar special-function (sqrt, exp, fdiv).
    Sfu,
    /// Branch/jump (scalar ALU class, may redirect fetch).
    Branch,
    /// Scalar memory operation (via the scalar LSU).
    Mem,
    /// Vector integer ALU.
    VAlu,
    /// Vector FP ALU (includes fma).
    VFpu,
    /// Vector special-function (vfdiv, vfexp).
    VSfu,
    /// Vector memory operation (via the vector LSU).
    VMem,
    /// vsetvli and register moves: scalar ALU class.
    VCtl,
    /// The µthread terminated.
    Halted,
}

/// Reusable scratch that collects the memory operations of one issue.
///
/// [`step`] and [`step_group`] clear and refill it per call; the engine owns one
/// buffer and reuses it across issues, so the steady-state issue path
/// performs no heap allocation (the capacity grows to the widest group
/// once and then sticks).
#[derive(Debug, Clone, Default)]
pub struct EffectBuf {
    memops: Vec<MemOp>,
}

impl EffectBuf {
    /// An empty buffer (no capacity reserved yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the recorded operations, keeping capacity.
    pub fn clear(&mut self) {
        self.memops.clear();
    }

    /// The memory operations recorded by the last [`step`] or
    /// [`step_group`] call, in lane order (atomics linearize in issue order, so order matters).
    pub fn memops(&self) -> &[MemOp] {
        &self.memops
    }

    fn push(&mut self, op: MemOp) {
        self.memops.push(op);
    }
}

/// Result of one group issue: the group's effect class and how many lanes
/// participated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupStep {
    /// Effect class of the first participating lane; `None` when no lane
    /// executed (none participated, or the fetch ran off the program).
    pub effect: Option<EffectClass>,
    /// Number of lanes that participated (including lanes that ran off the
    /// program, which are marked done — they still occupied the issue slot).
    pub lanes: u32,
}

/// Errors from functional execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// PC ran past the end of the program without `halt`.
    PcOutOfRange {
        /// The offending pc.
        pc: usize,
    },
    /// The µthread was already done.
    AlreadyDone,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => {
                write!(f, "pc {pc} out of range (missing `halt`?)")
            }
            ExecError::AlreadyDone => write!(f, "µthread already terminated"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Memory access interface the executor runs against.
///
/// Implementations route scratchpad-aperture addresses to per-unit backing
/// storage and perform functional atomics.
pub trait MemIface {
    /// Reads `buf.len()` bytes at `addr`.
    fn load(&mut self, addr: u64, buf: &mut [u8]);
    /// Writes `data` at `addr`.
    fn store(&mut self, addr: u64, data: &[u8]);
    /// Atomic read-modify-write; returns the old value (sign-extended to
    /// u64 for W width).
    fn amo(&mut self, op: AmoOp, width: Width, addr: u64, operand: u64) -> u64;
}

/// Identity-mapped [`MemIface`] over a [`MainMemory`].
#[derive(Debug)]
pub struct MainMemoryIface<'a> {
    mem: &'a mut MainMemory,
}

impl<'a> MainMemoryIface<'a> {
    /// Wraps a functional memory.
    pub fn new(mem: &'a mut MainMemory) -> Self {
        Self { mem }
    }
}

/// Performs a functional AMO against a [`MainMemory`]; shared by every
/// iface implementation (device scratchpads, memory-side L2 atomics).
pub fn amo_on_memory(
    mem: &mut MainMemory,
    op: AmoOp,
    width: Width,
    addr: u64,
    operand: u64,
) -> u64 {
    match width {
        Width::W => {
            let old = mem.read_u32(addr);
            let rhs = operand as u32;
            let new = match op {
                AmoOp::Add => old.wrapping_add(rhs),
                AmoOp::Swap => rhs,
                AmoOp::Min => (old as i32).min(rhs as i32) as u32,
                AmoOp::Max => (old as i32).max(rhs as i32) as u32,
                AmoOp::And => old & rhs,
                AmoOp::Or => old | rhs,
                AmoOp::Xor => old ^ rhs,
            };
            mem.write_u32(addr, new);
            old as i32 as i64 as u64
        }
        Width::D => {
            let old = mem.read_u64(addr);
            let new = match op {
                AmoOp::Add => old.wrapping_add(operand),
                AmoOp::Swap => operand,
                AmoOp::Min => (old as i64).min(operand as i64) as u64,
                AmoOp::Max => (old as i64).max(operand as i64) as u64,
                AmoOp::And => old & operand,
                AmoOp::Or => old | operand,
                AmoOp::Xor => old ^ operand,
            };
            mem.write_u64(addr, new);
            old
        }
        _ => unreachable!("AMO widths are W or D"),
    }
}

impl MemIface for MainMemoryIface<'_> {
    fn load(&mut self, addr: u64, buf: &mut [u8]) {
        self.mem.read_bytes(addr, buf);
    }
    fn store(&mut self, addr: u64, data: &[u8]) {
        self.mem.write_bytes(addr, data);
    }
    fn amo(&mut self, op: AmoOp, width: Width, addr: u64, operand: u64) -> u64 {
        amo_on_memory(self.mem, op, width, addr, operand)
    }
}

// ---------- vector element helpers ----------

fn get_elem(v: &VValue, i: usize, sew: Sew) -> u64 {
    let b = sew.bytes() as usize;
    let mut buf = [0u8; 8];
    buf[..b].copy_from_slice(&v[i * b..i * b + b]);
    u64::from_le_bytes(buf)
}

fn get_elem_signed(v: &VValue, i: usize, sew: Sew) -> i64 {
    let raw = get_elem(v, i, sew);
    match sew {
        Sew::E8 => raw as u8 as i8 as i64,
        Sew::E16 => raw as u16 as i16 as i64,
        Sew::E32 => raw as u32 as i32 as i64,
        Sew::E64 => raw as i64,
    }
}

fn set_elem(v: &mut VValue, i: usize, sew: Sew, val: u64) {
    let b = sew.bytes() as usize;
    v[i * b..i * b + b].copy_from_slice(&val.to_le_bytes()[..b]);
}

fn get_felem(v: &VValue, i: usize, sew: Sew) -> f64 {
    match sew {
        Sew::E32 => f32::from_bits(get_elem(v, i, sew) as u32) as f64,
        Sew::E64 => f64::from_bits(get_elem(v, i, sew)),
        _ => 0.0,
    }
}

fn set_felem(v: &mut VValue, i: usize, sew: Sew, val: f64) {
    match sew {
        Sew::E32 => set_elem(v, i, sew, (val as f32).to_bits() as u64),
        Sew::E64 => set_elem(v, i, sew, val.to_bits()),
        _ => {}
    }
}

fn mask_bit(v0: &VValue, i: usize) -> bool {
    v0[i / 8] & (1 << (i % 8)) != 0
}

fn set_mask_bit(vd: &mut VValue, i: usize, val: bool) {
    if val {
        vd[i / 8] |= 1 << (i % 8);
    } else {
        vd[i / 8] &= !(1 << (i % 8));
    }
}

fn f_scalar(bits: u64, p: Precision) -> f64 {
    match p {
        Precision::S => f32::from_bits(bits as u32) as f64,
        Precision::D => f64::from_bits(bits),
    }
}

fn f_bits(val: f64, p: Precision) -> u64 {
    match p {
        Precision::S => (val as f32).to_bits() as u64,
        Precision::D => val.to_bits(),
    }
}

// ---------- the executor ----------

/// Executes the instruction at `ctx.pc`, advancing the context.
///
/// This is the per-lane entry point and the reference the group path is
/// checked against: it clears `buf`, fills it with the instruction's
/// memory operations, and returns the instruction's [`EffectClass`].
///
/// # Errors
/// Returns [`ExecError::PcOutOfRange`] if the pc walks off the program and
/// [`ExecError::AlreadyDone`] if called on a finished µthread.
pub fn step(
    ctx: &mut ThreadCtx,
    prog: &Program,
    mem: &mut dyn MemIface,
    buf: &mut EffectBuf,
) -> Result<EffectClass, ExecError> {
    if ctx.done {
        return Err(ExecError::AlreadyDone);
    }
    let Some(instr) = prog.fetch(ctx.pc) else {
        return Err(ExecError::PcOutOfRange { pc: ctx.pc });
    };
    buf.clear();
    Ok(exec(ctx, instr, mem, buf))
}

/// Executes one SIMT group issue: every non-done lane whose pc equals
/// `min_pc` executes the instruction at `min_pc`, in slot order.
///
/// The instruction is fetched once; each participating lane then runs it
/// through the same executor as [`step`], so the group path and per-lane
/// `step` share one definition of the ISA. Memory operations are appended
/// to `buf` in lane order (atomics linearize in issue order), and the
/// returned [`GroupStep`] carries the first lane's effect class. A fetch
/// past the end of the program marks every participating lane done, as
/// the engine treats a per-lane [`ExecError::PcOutOfRange`].
pub fn step_group(
    ctxs: &mut [ThreadCtx],
    min_pc: usize,
    prog: &Program,
    mem: &mut dyn MemIface,
    buf: &mut EffectBuf,
) -> GroupStep {
    buf.clear();
    let instr = prog.fetch(min_pc);
    let mut effect = None;
    let mut lanes = 0u32;
    for ctx in ctxs.iter_mut() {
        if ctx.done || ctx.pc != min_pc {
            continue;
        }
        lanes += 1;
        match instr {
            Some(instr) => {
                let class = exec(ctx, instr, mem, buf);
                effect.get_or_insert(class);
            }
            None => ctx.done = true,
        }
    }
    GroupStep { effect, lanes }
}

/// The ISA: executes `instr` on one lane, appending its memory operations
/// to `buf`, and returns its effect class. Inlined into both callers so
/// the group loop pays no call per lane.
#[inline(always)]
#[allow(clippy::too_many_lines)]
fn exec(
    ctx: &mut ThreadCtx,
    instr: &Instr,
    mem: &mut dyn MemIface,
    buf: &mut EffectBuf,
) -> EffectClass {
    let mut next_pc = ctx.pc + 1;

    let effect = match instr {
        Instr::Li { rd, imm } => {
            ctx.write_x(*rd, *imm as u64);
            EffectClass::Alu
        }
        Instr::Lui { rd, imm } => {
            ctx.write_x(*rd, (*imm as u64).wrapping_shl(12));
            EffectClass::Alu
        }
        Instr::Op { op, rd, rs1, rs2 } => {
            let a = ctx.x[*rs1 as usize];
            let b = ctx.x[*rs2 as usize];
            ctx.write_x(*rd, int_op(*op, a, b));
            if op.is_muldiv() {
                if matches!(op, IntOp::Mul | IntOp::Mulh) {
                    EffectClass::Mul
                } else {
                    EffectClass::Div
                }
            } else {
                EffectClass::Alu
            }
        }
        Instr::OpImm { op, rd, rs1, imm } => {
            let a = ctx.x[*rs1 as usize];
            ctx.write_x(*rd, int_op(*op, a, *imm as u64));
            EffectClass::Alu
        }
        Instr::Load {
            width,
            signed,
            rd,
            rs1,
            offset,
        } => {
            let addr = ctx.x[*rs1 as usize].wrapping_add(*offset as u64);
            let bytes = width.bytes();
            let mut data = [0u8; 8];
            mem.load(addr, &mut data[..bytes as usize]);
            let raw = u64::from_le_bytes(data);
            let val = if *signed {
                match width {
                    Width::B => raw as u8 as i8 as i64 as u64,
                    Width::H => raw as u16 as i16 as i64 as u64,
                    Width::W => raw as u32 as i32 as i64 as u64,
                    Width::D => raw,
                }
            } else {
                raw
            };
            ctx.write_x(*rd, val);
            buf.push(MemOp {
                addr,
                bytes,
                write: false,
                amo: false,
            });
            EffectClass::Mem
        }
        Instr::Store {
            width,
            rs2,
            rs1,
            offset,
        } => {
            let addr = ctx.x[*rs1 as usize].wrapping_add(*offset as u64);
            let bytes = width.bytes();
            let data = ctx.x[*rs2 as usize].to_le_bytes();
            mem.store(addr, &data[..bytes as usize]);
            buf.push(MemOp {
                addr,
                bytes,
                write: true,
                amo: false,
            });
            EffectClass::Mem
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            let a = ctx.x[*rs1 as usize];
            let b = ctx.x[*rs2 as usize];
            let taken = match cond {
                BranchCond::Eq => a == b,
                BranchCond::Ne => a != b,
                BranchCond::Lt => (a as i64) < (b as i64),
                BranchCond::Ge => (a as i64) >= (b as i64),
                BranchCond::Ltu => a < b,
                BranchCond::Geu => a >= b,
            };
            if taken {
                next_pc = *target;
            }
            EffectClass::Branch
        }
        Instr::Jal { rd, target } => {
            ctx.write_x(*rd, (ctx.pc as u64 + 1) * 4);
            next_pc = *target;
            EffectClass::Branch
        }
        Instr::Jalr { rd, rs1, offset } => {
            let target_bytes = ctx.x[*rs1 as usize].wrapping_add(*offset as u64);
            ctx.write_x(*rd, (ctx.pc as u64 + 1) * 4);
            if target_bytes == 0 {
                // Top-level `ret` (ra still 0 from spawn): terminate.
                ctx.done = true;
                return EffectClass::Halted;
            }
            next_pc = (target_bytes / 4) as usize;
            EffectClass::Branch
        }
        Instr::Amo {
            op,
            width,
            rd,
            rs2,
            rs1,
        } => {
            let addr = ctx.x[*rs1 as usize];
            let old = mem.amo(*op, *width, addr, ctx.x[*rs2 as usize]);
            ctx.write_x(*rd, old);
            buf.push(MemOp {
                addr,
                bytes: width.bytes(),
                write: true,
                amo: true,
            });
            EffectClass::Mem
        }
        Instr::Fence => EffectClass::Alu,
        Instr::Halt => {
            ctx.done = true;
            return EffectClass::Halted;
        }

        // ----- scalar float -----
        Instr::FLoad {
            precision,
            rd,
            rs1,
            offset,
        } => {
            let addr = ctx.x[*rs1 as usize].wrapping_add(*offset as u64);
            let bytes = precision.bytes();
            let mut data = [0u8; 8];
            mem.load(addr, &mut data[..bytes as usize]);
            ctx.f[*rd as usize] = u64::from_le_bytes(data);
            buf.push(MemOp {
                addr,
                bytes,
                write: false,
                amo: false,
            });
            EffectClass::Mem
        }
        Instr::FStore {
            precision,
            rs2,
            rs1,
            offset,
        } => {
            let addr = ctx.x[*rs1 as usize].wrapping_add(*offset as u64);
            let bytes = precision.bytes();
            let data = ctx.f[*rs2 as usize].to_le_bytes();
            mem.store(addr, &data[..bytes as usize]);
            buf.push(MemOp {
                addr,
                bytes,
                write: true,
                amo: false,
            });
            EffectClass::Mem
        }
        Instr::FOp {
            op,
            precision,
            rd,
            rs1,
            rs2,
        } => {
            let a = f_scalar(ctx.f[*rs1 as usize], *precision);
            let b = f_scalar(ctx.f[*rs2 as usize], *precision);
            let (result, effect) = match op {
                FpOp::Add => (a + b, EffectClass::FpAlu),
                FpOp::Sub => (a - b, EffectClass::FpAlu),
                FpOp::Mul => (a * b, EffectClass::FpAlu),
                FpOp::Div => (a / b, EffectClass::Sfu),
                FpOp::Min => (a.min(b), EffectClass::FpAlu),
                FpOp::Max => (a.max(b), EffectClass::FpAlu),
                FpOp::Sqrt => (a.sqrt(), EffectClass::Sfu),
                FpOp::Exp => (a.exp(), EffectClass::Sfu),
                FpOp::Sgnj => (a.abs().copysign(b), EffectClass::FpAlu),
                FpOp::Sgnjn => (a.abs().copysign(-b), EffectClass::FpAlu),
                FpOp::Sgnjx => {
                    let sign = if (a.is_sign_negative()) ^ (b.is_sign_negative()) {
                        -1.0
                    } else {
                        1.0
                    };
                    (a.abs().copysign(sign), EffectClass::FpAlu)
                }
            };
            ctx.f[*rd as usize] = f_bits(result, *precision);
            effect
        }
        Instr::FMadd {
            precision,
            rd,
            rs1,
            rs2,
            rs3,
        } => {
            let a = f_scalar(ctx.f[*rs1 as usize], *precision);
            let b = f_scalar(ctx.f[*rs2 as usize], *precision);
            let c = f_scalar(ctx.f[*rs3 as usize], *precision);
            ctx.f[*rd as usize] = f_bits(a * b + c, *precision);
            EffectClass::FpAlu
        }
        Instr::FCmp {
            op,
            precision,
            rd,
            rs1,
            rs2,
        } => {
            let a = f_scalar(ctx.f[*rs1 as usize], *precision);
            let b = f_scalar(ctx.f[*rs2 as usize], *precision);
            let r = match op {
                FCmpOp::Eq => a == b,
                FCmpOp::Lt => a < b,
                FCmpOp::Le => a <= b,
            };
            ctx.write_x(*rd, r as u64);
            EffectClass::FpAlu
        }
        Instr::FCvtFromInt {
            precision,
            rd,
            rs1,
            signed,
        } => {
            let x = ctx.x[*rs1 as usize];
            let val = if *signed { x as i64 as f64 } else { x as f64 };
            ctx.f[*rd as usize] = f_bits(val, *precision);
            EffectClass::FpAlu
        }
        Instr::FCvtToInt {
            precision,
            rd,
            rs1,
            signed,
        } => {
            let val = f_scalar(ctx.f[*rs1 as usize], *precision);
            let out = if *signed {
                val.trunc() as i64 as u64
            } else {
                val.trunc() as u64
            };
            ctx.write_x(*rd, out);
            EffectClass::FpAlu
        }
        Instr::FMvToInt { precision, rd, rs1 } => {
            let bits = ctx.f[*rs1 as usize];
            let v = match precision {
                Precision::S => bits as u32 as i32 as i64 as u64,
                Precision::D => bits,
            };
            ctx.write_x(*rd, v);
            EffectClass::Alu
        }
        Instr::FMvFromInt { precision, rd, rs1 } => {
            let bits = ctx.x[*rs1 as usize];
            ctx.f[*rd as usize] = match precision {
                Precision::S => bits & 0xFFFF_FFFF,
                Precision::D => bits,
            };
            EffectClass::Alu
        }
        Instr::FCvtPrec { to, rd, rs1 } => {
            let from = match to {
                Precision::D => Precision::S,
                Precision::S => Precision::D,
            };
            let val = f_scalar(ctx.f[*rs1 as usize], from);
            ctx.f[*rd as usize] = f_bits(val, *to);
            EffectClass::FpAlu
        }

        // ----- vector -----
        Instr::Vsetvli { rd, rs1, sew } => {
            let max = (VLEN_BYTES as u32 * 8) / (sew.bytes() * 8);
            let requested = if *rs1 == 0 {
                max
            } else {
                (ctx.x[*rs1 as usize] as u32).min(max)
            };
            ctx.vl = requested;
            ctx.sew = *sew;
            ctx.write_x(*rd, requested as u64);
            EffectClass::VCtl
        }
        Instr::VLoad {
            eew,
            vd,
            rs1,
            mode,
            masked,
        } => {
            let base = ctx.x[*rs1 as usize];
            let eb = eew.bytes();
            let vl = effective_vl(ctx, *eew);
            let mut out = ctx.v[*vd as usize];
            match mode {
                VAddrMode::Unit => {
                    if !*masked {
                        // Whole-group contiguous access.
                        let total = vl * eb;
                        mem.load(base, &mut out[..total as usize]);
                        buf.push(MemOp {
                            addr: base,
                            bytes: total,
                            write: false,
                            amo: false,
                        });
                    } else {
                        for i in 0..vl as usize {
                            if !mask_bit(&ctx.v[0], i) {
                                continue;
                            }
                            let addr = base.wrapping_add(i as u64 * eb as u64);
                            let mut data = [0u8; 8];
                            mem.load(addr, &mut data[..eb as usize]);
                            set_elem(&mut out, i, *eew, u64::from_le_bytes(data));
                            buf.push(MemOp {
                                addr,
                                bytes: eb,
                                write: false,
                                amo: false,
                            });
                        }
                    }
                }
                VAddrMode::Strided(rs2) => {
                    let stride = ctx.x[*rs2 as usize];
                    for i in 0..vl as usize {
                        if *masked && !mask_bit(&ctx.v[0], i) {
                            continue;
                        }
                        let addr = base.wrapping_add(stride.wrapping_mul(i as u64));
                        let mut data = [0u8; 8];
                        mem.load(addr, &mut data[..eb as usize]);
                        set_elem(&mut out, i, *eew, u64::from_le_bytes(data));
                        buf.push(MemOp {
                            addr,
                            bytes: eb,
                            write: false,
                            amo: false,
                        });
                    }
                }
                VAddrMode::Indexed(vs2) => {
                    let idx = ctx.v[*vs2 as usize];
                    for i in 0..vl as usize {
                        if *masked && !mask_bit(&ctx.v[0], i) {
                            continue;
                        }
                        let addr = base.wrapping_add(get_elem(&idx, i, *eew));
                        let mut data = [0u8; 8];
                        mem.load(addr, &mut data[..eb as usize]);
                        set_elem(&mut out, i, *eew, u64::from_le_bytes(data));
                        buf.push(MemOp {
                            addr,
                            bytes: eb,
                            write: false,
                            amo: false,
                        });
                    }
                }
            }
            ctx.v[*vd as usize] = out;
            EffectClass::VMem
        }
        Instr::VStore {
            eew,
            vs3,
            rs1,
            mode,
            masked,
        } => {
            let base = ctx.x[*rs1 as usize];
            let eb = eew.bytes();
            let vl = effective_vl(ctx, *eew);
            let src = ctx.v[*vs3 as usize];
            match mode {
                VAddrMode::Unit if !*masked => {
                    let total = vl * eb;
                    mem.store(base, &src[..total as usize]);
                    buf.push(MemOp {
                        addr: base,
                        bytes: total,
                        write: true,
                        amo: false,
                    });
                }
                VAddrMode::Unit => {
                    for i in 0..vl as usize {
                        if !mask_bit(&ctx.v[0], i) {
                            continue;
                        }
                        let addr = base.wrapping_add(i as u64 * eb as u64);
                        let val = get_elem(&src, i, *eew).to_le_bytes();
                        mem.store(addr, &val[..eb as usize]);
                        buf.push(MemOp {
                            addr,
                            bytes: eb,
                            write: true,
                            amo: false,
                        });
                    }
                }
                VAddrMode::Strided(rs2) => {
                    let stride = ctx.x[*rs2 as usize];
                    for i in 0..vl as usize {
                        if *masked && !mask_bit(&ctx.v[0], i) {
                            continue;
                        }
                        let addr = base.wrapping_add(stride.wrapping_mul(i as u64));
                        let val = get_elem(&src, i, *eew).to_le_bytes();
                        mem.store(addr, &val[..eb as usize]);
                        buf.push(MemOp {
                            addr,
                            bytes: eb,
                            write: true,
                            amo: false,
                        });
                    }
                }
                VAddrMode::Indexed(vs2) => {
                    let idx = ctx.v[*vs2 as usize];
                    for i in 0..vl as usize {
                        if *masked && !mask_bit(&ctx.v[0], i) {
                            continue;
                        }
                        let addr = base.wrapping_add(get_elem(&idx, i, *eew));
                        let val = get_elem(&src, i, *eew).to_le_bytes();
                        mem.store(addr, &val[..eb as usize]);
                        buf.push(MemOp {
                            addr,
                            bytes: eb,
                            write: true,
                            amo: false,
                        });
                    }
                }
            }
            EffectClass::VMem
        }
        Instr::VIntOp {
            op,
            vd,
            vs2,
            operand,
            masked,
        } => {
            let vl = ctx.vl as usize;
            let sew = ctx.sew;
            let b = ctx.v[*vs2 as usize];
            let mut out = ctx.v[*vd as usize];
            for i in 0..vl {
                if *masked && !mask_bit(&ctx.v[0], i) {
                    continue;
                }
                let rhs = v_operand_int(ctx, operand, i, sew);
                let lhs = get_elem(&b, i, sew);
                let val = match op {
                    VIntOp::Add => lhs.wrapping_add(rhs),
                    VIntOp::Sub => lhs.wrapping_sub(rhs),
                    VIntOp::Mul => lhs.wrapping_mul(rhs),
                    VIntOp::And => lhs & rhs,
                    VIntOp::Or => lhs | rhs,
                    VIntOp::Xor => lhs ^ rhs,
                    VIntOp::Sll => lhs << (rhs & 63),
                    VIntOp::Srl => lhs >> (rhs & 63),
                    VIntOp::Min => (get_elem_signed(&b, i, sew)).min(sign_at(rhs, sew)) as u64,
                    VIntOp::Max => (get_elem_signed(&b, i, sew)).max(sign_at(rhs, sew)) as u64,
                };
                set_elem(&mut out, i, sew, val);
            }
            ctx.v[*vd as usize] = out;
            EffectClass::VAlu
        }
        Instr::VFpOp {
            op,
            vd,
            vs2,
            operand,
            masked,
        } => {
            let vl = ctx.vl as usize;
            let sew = ctx.sew;
            let b = ctx.v[*vs2 as usize];
            let mut out = ctx.v[*vd as usize];
            for i in 0..vl {
                if *masked && !mask_bit(&ctx.v[0], i) {
                    continue;
                }
                let rhs = v_operand_float(ctx, operand, i, sew);
                let lhs = get_felem(&b, i, sew);
                let val = match op {
                    VFpOp::Add => lhs + rhs,
                    VFpOp::Sub => lhs - rhs,
                    VFpOp::Mul => lhs * rhs,
                    VFpOp::Div => lhs / rhs,
                    VFpOp::Macc => get_felem(&out, i, sew) + lhs * rhs,
                    VFpOp::Min => lhs.min(rhs),
                    VFpOp::Max => lhs.max(rhs),
                    VFpOp::Exp => lhs.exp(),
                };
                set_felem(&mut out, i, sew, val);
            }
            ctx.v[*vd as usize] = out;
            match op {
                VFpOp::Div | VFpOp::Exp => EffectClass::VSfu,
                _ => EffectClass::VFpu,
            }
        }
        Instr::VRed { op, vd, vs2, vs1 } => {
            let vl = ctx.vl as usize;
            let sew = ctx.sew;
            let src = ctx.v[*vs2 as usize];
            let seed = ctx.v[*vs1 as usize];
            let mut out = ctx.v[*vd as usize];
            match op {
                VRedOp::Sum | VRedOp::Max | VRedOp::Min => {
                    let mut acc = get_elem_signed(&seed, 0, sew);
                    for i in 0..vl {
                        let e = get_elem_signed(&src, i, sew);
                        acc = match op {
                            VRedOp::Sum => acc.wrapping_add(e),
                            VRedOp::Max => acc.max(e),
                            _ => acc.min(e),
                        };
                    }
                    set_elem(&mut out, 0, sew, acc as u64);
                }
                VRedOp::FSum | VRedOp::FMax | VRedOp::FMin => {
                    let mut acc = get_felem(&seed, 0, sew);
                    for i in 0..vl {
                        let e = get_felem(&src, i, sew);
                        acc = match op {
                            VRedOp::FSum => acc + e,
                            VRedOp::FMax => acc.max(e),
                            _ => acc.min(e),
                        };
                    }
                    set_felem(&mut out, 0, sew, acc);
                }
            }
            ctx.v[*vd as usize] = out;
            EffectClass::VFpu
        }
        Instr::VCmp {
            op,
            vd,
            vs2,
            operand,
        } => {
            let vl = ctx.vl as usize;
            let sew = ctx.sew;
            let b = ctx.v[*vs2 as usize];
            let mut out = [0u8; VLEN_BYTES];
            for i in 0..vl {
                let taken = match op {
                    VCmpOp::Eq | VCmpOp::Ne | VCmpOp::Lt | VCmpOp::Le | VCmpOp::Gt | VCmpOp::Ge => {
                        let rhs = sign_at(v_operand_int(ctx, operand, i, sew), sew);
                        let lhs = get_elem_signed(&b, i, sew);
                        match op {
                            VCmpOp::Eq => lhs == rhs,
                            VCmpOp::Ne => lhs != rhs,
                            VCmpOp::Lt => lhs < rhs,
                            VCmpOp::Le => lhs <= rhs,
                            VCmpOp::Gt => lhs > rhs,
                            _ => lhs >= rhs,
                        }
                    }
                    VCmpOp::FLt | VCmpOp::FLe | VCmpOp::FEq | VCmpOp::FGe => {
                        let rhs = v_operand_float(ctx, operand, i, sew);
                        let lhs = get_felem(&b, i, sew);
                        match op {
                            VCmpOp::FLt => lhs < rhs,
                            VCmpOp::FLe => lhs <= rhs,
                            VCmpOp::FEq => lhs == rhs,
                            _ => lhs >= rhs,
                        }
                    }
                };
                set_mask_bit(&mut out, i, taken);
            }
            ctx.v[*vd as usize] = out;
            EffectClass::VAlu
        }
        Instr::VMv { vd, operand } => {
            let vl = ctx.vl as usize;
            let sew = ctx.sew;
            let mut out = ctx.v[*vd as usize];
            match operand {
                VOperand::Vector(vs) => out = ctx.v[*vs as usize],
                _ => {
                    for i in 0..vl {
                        match operand {
                            VOperand::Scalar(_) | VOperand::Imm(_) => {
                                let val = v_operand_int(ctx, operand, i, sew);
                                set_elem(&mut out, i, sew, val);
                            }
                            VOperand::Float(_) => {
                                let val = v_operand_float(ctx, operand, i, sew);
                                set_felem(&mut out, i, sew, val);
                            }
                            VOperand::Vector(_) => unreachable!(),
                        }
                    }
                }
            }
            ctx.v[*vd as usize] = out;
            EffectClass::VCtl
        }
        Instr::VMvToScalar { rd, vs2 } => {
            let val = get_elem(&ctx.v[*vs2 as usize], 0, ctx.sew);
            ctx.write_x(*rd, val);
            EffectClass::VCtl
        }
        Instr::VMvFromScalar { vd, rs1 } => {
            let val = ctx.x[*rs1 as usize];
            let sew = ctx.sew;
            set_elem(&mut ctx.v[*vd as usize], 0, sew, val);
            EffectClass::VCtl
        }
        Instr::VFMvToScalar { rd, vs2 } => {
            let sew = ctx.sew;
            ctx.f[*rd as usize] = match sew {
                Sew::E32 => get_elem(&ctx.v[*vs2 as usize], 0, sew) & 0xFFFF_FFFF,
                _ => get_elem(&ctx.v[*vs2 as usize], 0, Sew::E64),
            };
            EffectClass::VCtl
        }
        Instr::Vid { vd, masked } => {
            let vl = ctx.vl as usize;
            let sew = ctx.sew;
            let mut out = ctx.v[*vd as usize];
            for i in 0..vl {
                if *masked && !mask_bit(&ctx.v[0], i) {
                    continue;
                }
                set_elem(&mut out, i, sew, i as u64);
            }
            ctx.v[*vd as usize] = out;
            EffectClass::VAlu
        }
        Instr::VMerge { vd, vs2, operand } => {
            let vl = ctx.vl as usize;
            let sew = ctx.sew;
            let b = ctx.v[*vs2 as usize];
            let mut out = ctx.v[*vd as usize];
            for i in 0..vl {
                let val = if mask_bit(&ctx.v[0], i) {
                    v_operand_int(ctx, operand, i, sew)
                } else {
                    get_elem(&b, i, sew)
                };
                set_elem(&mut out, i, sew, val);
            }
            ctx.v[*vd as usize] = out;
            EffectClass::VAlu
        }
        Instr::VSlidedown { vd, vs2, operand } => {
            let vl = ctx.vl as usize;
            let sew = ctx.sew;
            let off = v_operand_int(ctx, operand, 0, sew) as usize;
            let src = ctx.v[*vs2 as usize];
            let mut out = ctx.v[*vd as usize];
            for i in 0..vl {
                // `off` comes from an untrusted register value; a checked add
                // keeps huge slide amounts well-defined (they read zeros).
                let val = match i.checked_add(off) {
                    Some(j) if j < vl => get_elem(&src, j, sew),
                    _ => 0,
                };
                set_elem(&mut out, i, sew, val);
            }
            ctx.v[*vd as usize] = out;
            EffectClass::VAlu
        }
        Instr::VAmo {
            op,
            eew,
            vd,
            rs1,
            vs2,
            masked,
        } => {
            let base = ctx.x[*rs1 as usize];
            let eb = eew.bytes();
            let vl = effective_vl(ctx, *eew);
            // The assembler admits only ei32 and ei64 vector AMOs.
            let width = if eb == 4 { Width::W } else { Width::D };
            let idx = ctx.v[*vs2 as usize];
            let src = ctx.v[*vd as usize];
            let mut out = src;
            for i in 0..vl as usize {
                if *masked && !mask_bit(&ctx.v[0], i) {
                    continue;
                }
                let addr = base.wrapping_add(get_elem(&idx, i, *eew));
                let old = mem.amo(*op, width, addr, get_elem(&src, i, *eew));
                set_elem(&mut out, i, *eew, old);
                buf.push(MemOp {
                    addr,
                    bytes: eb,
                    write: true,
                    amo: true,
                });
            }
            ctx.v[*vd as usize] = out;
            EffectClass::VMem
        }
    };

    ctx.pc = next_pc;
    effect
}

/// vl for an explicit element width: scale the configured vl so the same
/// number of *bytes* is covered (simplified LMUL=1 behaviour adequate for
/// the kernels here, which set vl via vsetvli before each width change).
fn effective_vl(ctx: &ThreadCtx, eew: Sew) -> u32 {
    if eew == ctx.sew {
        ctx.vl
    } else {
        (ctx.vl * ctx.sew.bytes()) / eew.bytes()
    }
}

fn sign_at(raw: u64, sew: Sew) -> i64 {
    match sew {
        Sew::E8 => raw as u8 as i8 as i64,
        Sew::E16 => raw as u16 as i16 as i64,
        Sew::E32 => raw as u32 as i32 as i64,
        Sew::E64 => raw as i64,
    }
}

fn v_operand_int(ctx: &ThreadCtx, operand: &VOperand, i: usize, sew: Sew) -> u64 {
    match operand {
        VOperand::Vector(vs) => get_elem(&ctx.v[*vs as usize], i, sew),
        VOperand::Scalar(rs) => ctx.x[*rs as usize],
        VOperand::Imm(v) => *v as u64,
        VOperand::Float(fs) => ctx.f[*fs as usize],
    }
}

fn v_operand_float(ctx: &ThreadCtx, operand: &VOperand, i: usize, sew: Sew) -> f64 {
    match operand {
        VOperand::Vector(vs) => get_felem(&ctx.v[*vs as usize], i, sew),
        VOperand::Float(fs) => match sew {
            Sew::E32 => f32::from_bits(ctx.f[*fs as usize] as u32) as f64,
            _ => f64::from_bits(ctx.f[*fs as usize]),
        },
        VOperand::Scalar(rs) => ctx.x[*rs as usize] as f64,
        VOperand::Imm(v) => *v as f64,
    }
}

fn int_op(op: IntOp, a: u64, b: u64) -> u64 {
    match op {
        IntOp::Add => a.wrapping_add(b),
        IntOp::Sub => a.wrapping_sub(b),
        IntOp::And => a & b,
        IntOp::Or => a | b,
        IntOp::Xor => a ^ b,
        IntOp::Sll => a << (b & 63),
        IntOp::Srl => a >> (b & 63),
        IntOp::Sra => ((a as i64) >> (b & 63)) as u64,
        IntOp::Slt => ((a as i64) < (b as i64)) as u64,
        IntOp::Sltu => (a < b) as u64,
        IntOp::Mul => a.wrapping_mul(b),
        IntOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
        IntOp::Div => {
            if b == 0 {
                u64::MAX
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        IntOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        IntOp::Rem => {
            if b == 0 {
                a
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        IntOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(
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
            step(&mut ctx, &prog, &mut iface, &mut buf).expect("exec ok");
            steps += 1;
            assert!(steps < 1_000_000, "runaway program");
        }
        (ctx, mem)
    }

    #[test]
    fn loop_sums_one_to_ten() {
        let (ctx, _) = run(
            "li x3, 10
             li x4, 0
             loop: add x4, x4, x3
             addi x3, x3, -1
             bnez x3, loop
             halt",
            |_, _| {},
        );
        assert_eq!(ctx.x[4], 55);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (ctx, _) = run("li x0, 99\nadd x3, x0, x0\nhalt", |_, _| {});
        assert_eq!(ctx.x[0], 0);
        assert_eq!(ctx.x[3], 0);
    }

    #[test]
    fn loads_sign_and_zero_extend() {
        let (ctx, _) = run(
            "li x3, 0x1000
             lb  x4, (x3)
             lbu x5, (x3)
             lw  x6, 4(x3)
             lwu x7, 4(x3)
             halt",
            |_, mem| {
                mem.write_u8(0x1000, 0xFF);
                mem.write_u32(0x1004, 0x8000_0001);
            },
        );
        assert_eq!(ctx.x[4], u64::MAX); // -1 sign-extended
        assert_eq!(ctx.x[5], 0xFF);
        assert_eq!(ctx.x[6], 0xFFFF_FFFF_8000_0001);
        assert_eq!(ctx.x[7], 0x8000_0001);
    }

    #[test]
    fn store_widths() {
        let (_, mem) = run(
            "li x3, 0x2000
             li x4, 0x1122334455667788
             sb x4, (x3)
             sh x4, 8(x3)
             sw x4, 16(x3)
             sd x4, 24(x3)
             halt",
            |_, _| {},
        );
        assert_eq!(mem.read_u8(0x2000), 0x88);
        assert_eq!(mem.read_u16(0x2008), 0x7788);
        assert_eq!(mem.read_u32(0x2010), 0x5566_7788);
        assert_eq!(mem.read_u64(0x2018), 0x1122_3344_5566_7788);
    }

    #[test]
    fn amoadd_returns_old_and_updates() {
        let (ctx, mem) = run(
            "li x3, 0x3000
             li x4, 5
             amoadd.d x5, x4, (x3)
             halt",
            |_, mem| mem.write_u64(0x3000, 100),
        );
        assert_eq!(ctx.x[5], 100);
        assert_eq!(mem.read_u64(0x3000), 105);
    }

    #[test]
    fn amomin_w_sign_extends_old() {
        let (ctx, mem) = run(
            "li x3, 0x3000
             li x4, -7
             amomin.w x5, x4, (x3)
             halt",
            |_, mem| mem.write_u32(0x3000, (-3i32) as u32),
        );
        assert_eq!(ctx.x[5] as i64, -3);
        assert_eq!(mem.read_u32(0x3000) as i32, -7);
    }

    #[test]
    fn float_arith_and_compare() {
        let (ctx, _) = run(
            "li x3, 0x4000
             flw fa0, (x3)
             flw fa1, 4(x3)
             fadd.s ft0, fa0, fa1
             fmul.s ft1, fa0, fa1
             flt.s x5, fa0, fa1
             fsw ft0, 8(x3)
             halt",
            |_, mem| {
                mem.write_f32(0x4000, 1.5);
                mem.write_f32(0x4004, 2.5);
            },
        );
        assert_eq!(ctx.x[5], 1);
        assert_eq!(f32::from_bits(ctx.f[0] as u32), 4.0); // ft0 = f0
        assert_eq!(f32::from_bits(ctx.f[1] as u32), 3.75); // ft1 = f1
    }

    #[test]
    fn fexp_matches_std() {
        let (ctx, _) = run(
            "li x3, 0x4000
             flw fa0, (x3)
             fexp.s ft0, fa0
             halt",
            |_, mem| mem.write_f32(0x4000, 1.0),
        );
        let got = f32::from_bits(ctx.f[0] as u32);
        assert!((got - std::f32::consts::E).abs() < 1e-6);
    }

    #[test]
    fn fcvt_round_trip() {
        let (ctx, _) = run(
            "li x3, 42
             fcvt.d.l fa0, x3
             fcvt.l.d x4, fa0
             fcvt.s.d fa1, fa0
             fmv.x.w x5, fa1
             halt",
            |_, _| {},
        );
        assert_eq!(ctx.x[4], 42);
        assert_eq!(f32::from_bits(ctx.x[5] as u32), 42.0);
    }

    #[test]
    fn vector_add_unit_stride() {
        let (_, mem) = run(
            "vsetvli x0, x0, e64, m1
             li x7, 0xC000
             vle64.v v1, (x1)
             li x3, 0xB000
             vle64.v v2, (x3)
             vadd.vv v1, v1, v2
             vse64.v v1, (x7)
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for i in 0..4u64 {
                    mem.write_u64(0xA000 + i * 8, 10 + i);
                    mem.write_u64(0xB000 + i * 8, 100 * i);
                }
            },
        );
        for i in 0..4u64 {
            assert_eq!(mem.read_u64(0xC000 + i * 8), 10 + i + 100 * i);
        }
    }

    #[test]
    fn fig8_reduction_body_works() {
        // Kernel body of Fig. 8: vector sum of 4 doubles accumulated into a
        // scratchpad-like location with AMOADD.
        let (_, mem) = run(
            "vsetvli x0, x0, e64, m1
             vle64.v v2, (x1)
             vmv.v.i v1, 0
             vredsum.vs v3, v2, v1
             vmv.x.s x4, v3
             li x3, 0x10000000
             amoadd.d x4, x4, (x3)
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for i in 0..4u64 {
                    mem.write_u64(0xA000 + i * 8, i + 1); // 1+2+3+4 = 10
                }
                mem.write_u64(0x1000_0000, 32);
            },
        );
        assert_eq!(mem.read_u64(0x1000_0000), 42);
    }

    #[test]
    fn gather_with_indices() {
        let (ctx, _) = run(
            "vsetvli x0, x0, e64, m1
             vle64.v v2, (x1)      // load byte offsets
             li x3, 0xB000
             vluxei64.v v3, (x3), v2
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                // offsets pick elements 3, 0, 2, 1 (byte offsets).
                for (i, off) in [24u64, 0, 16, 8].iter().enumerate() {
                    mem.write_u64(0xA000 + i as u64 * 8, *off);
                }
                for i in 0..4u64 {
                    mem.write_u64(0xB000 + i * 8, 1000 + i);
                }
            },
        );
        let v3 = ctx.v[3];
        let got: Vec<u64> = (0..4).map(|i| get_elem(&v3, i, Sew::E64)).collect();
        assert_eq!(got, vec![1003, 1000, 1002, 1001]);
    }

    #[test]
    fn masked_store_skips_inactive() {
        let (_, mem) = run(
            "vsetvli x0, x0, e32, m1
             vle32.v v2, (x1)
             li x4, 5
             vmslt.vx v0, v2, x4   // mask: elements < 5
             li x3, 0xB000
             vse32.v v2, (x3), v0.t
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for i in 0..8u32 {
                    mem.write_u32(0xA000 + i as u64 * 4, i);
                    mem.write_u32(0xB000 + i as u64 * 4, 0xFFFF_FFFF);
                }
            },
        );
        for i in 0..8u32 {
            let got = mem.read_u32(0xB000 + i as u64 * 4);
            if i < 5 {
                assert_eq!(got, i);
            } else {
                assert_eq!(got, 0xFFFF_FFFF, "element {i} should be untouched");
            }
        }
    }

    #[test]
    fn vector_float_macc_and_reduction() {
        let (ctx, _) = run(
            "vsetvli x0, x0, e32, m1
             vle32.v v2, (x1)
             li x3, 0xB000
             vle32.v v3, (x3)
             vmv.v.i v4, 0
             vfmacc.vv v4, v2, v3   // v4 += v2*v3
             vmv.v.i v5, 0
             vfredusum.vs v6, v4, v5
             vfmv.f.s fa0, v6
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for i in 0..8u64 {
                    mem.write_f32(0xA000 + i * 4, i as f32);
                    mem.write_f32(0xB000 + i * 4, 2.0);
                }
            },
        );
        // dot([0..8), 2.0) = 2*28 = 56
        assert_eq!(f32::from_bits(ctx.f[10] as u32), 56.0);
    }

    #[test]
    fn vamo_histogram_pattern() {
        let (_, mem) = run(
            "vsetvli x0, x0, e32, m1
             vle32.v v2, (x1)      // bin indices
             vsll.vi v2, v2, 2     // byte offsets = idx * 4
             vmv.v.i v3, 1
             li x3, 0xB000
             vamoaddei32.v v3, (x3), v2
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for (i, bin) in [3u32, 1, 3, 0, 3, 1, 2, 3].iter().enumerate() {
                    mem.write_u32(0xA000 + i as u64 * 4, *bin);
                }
            },
        );
        let bins: Vec<u32> = (0..4).map(|i| mem.read_u32(0xB000 + i * 4)).collect();
        assert_eq!(bins, vec![1, 2, 1, 4]);
    }

    #[test]
    fn strided_load() {
        let (ctx, _) = run(
            "vsetvli x0, x0, e32, m1
             li x3, 16
             vlse32.v v2, (x1), x3
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for i in 0..8u64 {
                    mem.write_u32(0xA000 + i * 16, i as u32 * 11);
                }
            },
        );
        for i in 0..8usize {
            assert_eq!(get_elem(&ctx.v[2], i, Sew::E32), i as u64 * 11);
        }
    }

    #[test]
    fn vid_and_slidedown() {
        let (ctx, _) = run(
            "vsetvli x0, x0, e32, m1
             vid.v v2
             vslidedown.vi v3, v2, 3
             halt",
            |_, _| {},
        );
        assert_eq!(get_elem(&ctx.v[3], 0, Sew::E32), 3);
        assert_eq!(get_elem(&ctx.v[3], 4, Sew::E32), 7);
        assert_eq!(get_elem(&ctx.v[3], 5, Sew::E32), 0); // slid past vl
    }

    #[test]
    fn spawned_context_carries_address_and_offset() {
        let ctx = ThreadCtx::spawned(0xA000, 0x40);
        assert_eq!(ctx.x[1], 0xA000);
        assert_eq!(ctx.x[2], 0x40);
        assert!(!ctx.done);
    }

    #[test]
    fn pc_out_of_range_errors() {
        let prog = assemble("nop").unwrap();
        let mut mem = MainMemory::new();
        let mut iface = MainMemoryIface::new(&mut mem);
        let mut ctx = ThreadCtx::new();
        let mut buf = EffectBuf::new();
        step(&mut ctx, &prog, &mut iface, &mut buf).unwrap();
        let e = step(&mut ctx, &prog, &mut iface, &mut buf).unwrap_err();
        assert!(matches!(e, ExecError::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn top_level_ret_halts() {
        let (ctx, _) = run("ret", |_, _| {});
        assert!(ctx.done);
    }

    #[test]
    fn jal_and_ret_round_trip() {
        let (ctx, _) = run(
            "jal ra, func
             li x5, 1
             halt
             func: li x6, 2
             ret",
            |_, _| {},
        );
        assert_eq!(ctx.x[5], 1);
        assert_eq!(ctx.x[6], 2);
    }

    #[test]
    fn division_by_zero_riscv_semantics() {
        let (ctx, _) = run(
            "li x3, 7
             li x4, 0
             div x5, x3, x4
             rem x6, x3, x4
             halt",
            |_, _| {},
        );
        assert_eq!(ctx.x[5], u64::MAX);
        assert_eq!(ctx.x[6], 7);
    }

    #[test]
    fn effects_classify_units() {
        let prog =
            assemble("li x3, 1\nmul x4, x3, x3\nfexp.s ft0, ft0\nsd x3, 8(x0)\nhalt").unwrap();
        let mut mem = MainMemory::new();
        let mut iface = MainMemoryIface::new(&mut mem);
        let mut ctx = ThreadCtx::new();
        let mut buf = EffectBuf::new();
        let (mut classes, mut memops) = (Vec::new(), Vec::new());
        while !ctx.done {
            classes.push(step(&mut ctx, &prog, &mut iface, &mut buf).unwrap());
            memops.push(buf.memops().to_vec());
        }
        use EffectClass::*;
        assert_eq!(classes, [Alu, Mul, Sfu, Mem, Halted]);
        let store = MemOp {
            addr: 8,
            bytes: 8,
            write: true,
            amo: false,
        };
        assert_eq!(memops[3], [store]);
        assert!(memops[4].is_empty(), "each step clears the buffer");
    }
}
