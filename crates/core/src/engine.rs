//! The M²µthread execution engine (§III-D/E) — and, reparameterized, a GPU
//! SM array for the paper's GPU baselines.
//!
//! An [`Engine`] is a set of units (NDP units or SMs), each with sub-cores
//! holding µthread/warp slots. Every cycle each sub-core dispatches up to
//! `dispatch_width` instructions from ready slots, subject to functional-
//! unit availability (2 scalar ALUs, 1 scalar SFU/LSU, and one 256-bit
//! vALU/vSFU/vLSU per sub-core, Fig. 7). Instructions execute functionally
//! at issue; memory operations flow out of the engine as sector-granularity
//! requests and the issuing slot blocks until the device delivers the
//! responses.
//!
//! The GPU-mode differences (Table III, §III-D A1–A4) are all expressed in
//! [`EngineConfig`]:
//!
//! * contexts of 4 sub-threads execute in SIMT lockstep at the minimum pc
//!   (warp = 128 B of pool region vs the µthread's 32 B → intra-warp
//!   divergence, A4);
//! * contexts spawn and release resources in threadblock batches (A2);
//! * scratchpad scope is per-threadblock instead of per-unit (A3);
//! * no scalar units — scalar instructions occupy the vector ALU — and
//!   extra index-arithmetic instructions per context (A1).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use m2ndp_cache::{
    scratchpad::{spad_backing_addr, SPAD_APERTURE_BASE, SPAD_APERTURE_STRIDE},
    Access, CacheResult, Scratchpad, SectoredCache,
};
use m2ndp_mem::MainMemory;
use m2ndp_riscv::exec::{amo_on_memory, step_group, EffectBuf, EffectClass, MemIface, ThreadCtx};
use m2ndp_riscv::instr::{AmoOp, Width};
use m2ndp_riscv::program::FuClass;
use m2ndp_sim::{Counter, Cycle, EventQueue, Fingerprint};

use crate::config::EngineConfig;
use crate::kernel::{KernelInstanceId, KernelSpec, LaunchArgs};
use crate::m2func::InstanceStatus;
use crate::tlb::{dram_tlb_entry_addr, Tlb, DRAM_TLB_ENTRY_BYTES};

/// Sector size for memory coalescing (matches LPDDR5 access granularity).
pub const SECTOR_BYTES: u64 = 32;

/// Offset (within a unit's scratchpad) where per-instance argument blocks
/// are placed, growing downward from the top of the 128 KB array.
const ARG_BLOCK_BYTES: u64 = 256;

/// Fixed word layout of an argument block (u64 indices).
pub mod argblock {
    /// Word 0: virtual address of the kernel's scratchpad area.
    pub const SPAD_BASE: usize = 0;
    /// Word 1: number of initializer/finalizer µthreads spawned.
    pub const INIT_COUNT: usize = 1;
    /// Word 2: current body iteration index.
    pub const BODY_ITER: usize = 2;
    /// Word 3: µthread pool region base.
    pub const POOL_BASE: usize = 3;
    /// Word 4: µthread pool region bound.
    pub const POOL_BOUND: usize = 4;
    /// Words 5..: user kernel arguments.
    pub const USER: usize = 5;
}

/// Identifies a slot within a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubSlot {
    /// Sub-core index.
    pub subcore: u8,
    /// Slot index within the sub-core.
    pub slot: u8,
}

/// A memory request leaving the engine for the device's memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitRequest {
    /// Sector-aligned (or element) byte address.
    pub addr: u64,
    /// Size in bytes.
    pub bytes: u32,
    /// Write? (AMOs arrive as writes; they are applied functionally by the
    /// executor and charged at the memory-side L2, §III-F.)
    pub write: bool,
    /// How the response (if any) routes back.
    pub kind: RequestKind,
}

/// Response routing for a [`UnitRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Fill the unit's L1D sector; cache waiters wake on fill.
    L1Fill,
    /// Respond directly to a waiting slot (L1-bypassed reads, AMOs,
    /// DRAM-TLB fills).
    Direct(SubSlot),
    /// Posted write: no response expected.
    Posted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Body,
    Fini,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    Ready,
    Blocked,
    WaitMem,
    /// Finished its work but holding resources until the TB releases (A2).
    Parked,
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    ctxs: Vec<ThreadCtx>,
    instance: usize,
    phase: Phase,
    tb: Option<usize>,
    pending: u32,
    reg_bytes: u32,
    /// Remaining (start_granule, span_count) assignments for TB grid-stride.
    spans: VecDeque<u64>,
    /// Granules actually live in the current span (tail may be partial).
    live_ctxs: u32,
}

impl Slot {
    fn empty() -> Self {
        Self {
            state: SlotState::Free,
            ctxs: Vec::new(),
            instance: usize::MAX,
            phase: Phase::Body,
            tb: None,
            pending: 0,
            reg_bytes: 0,
            spans: VecDeque::new(),
            live_ctxs: 0,
        }
    }

    /// Returns the slot to the free state in place, retaining the `ctxs`
    /// and `spans` heap buffers so the next wave refills its ~`32×VLEN`
    /// register files instead of reallocating them.
    fn reset(&mut self) {
        self.state = SlotState::Free;
        self.ctxs.clear();
        self.instance = usize::MAX;
        self.phase = Phase::Body;
        self.tb = None;
        self.pending = 0;
        self.reg_bytes = 0;
        self.spans.clear();
        self.live_ctxs = 0;
    }

    /// Refills `ctxs` with exactly `n` freshly-reset contexts, reusing the
    /// retained storage (capacity only ever grows to the context width of
    /// the widest wave this slot has hosted).
    fn refill_ctxs(&mut self, n: usize) {
        self.ctxs.truncate(n);
        for ctx in &mut self.ctxs {
            ctx.reset();
        }
        while self.ctxs.len() < n {
            self.ctxs.push(ThreadCtx::new());
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FuAvail {
    salu: u32,
    ssfu: u32,
    slsu: u32,
    valu: u32,
    vsfu: u32,
    vlsu: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuKind {
    SAlu,
    SSfu,
    SLsu,
    VAlu,
    VSfu,
    VLsu,
}

/// Maps a pre-decoded ISA-level FU class (from the program's side
/// table, built once at assembly) onto this configuration's units: scalar
/// classes fold onto the vector units when the configuration has no scalar
/// units (GPU mode, §III-D A1).
fn fu_kind(class: FuClass, has_scalar: bool) -> FuKind {
    match class {
        FuClass::SAlu if has_scalar => FuKind::SAlu,
        FuClass::SSfu if has_scalar => FuKind::SSfu,
        FuClass::SLsu if has_scalar => FuKind::SLsu,
        FuClass::SAlu | FuClass::VAlu => FuKind::VAlu,
        FuClass::SSfu | FuClass::VSfu => FuKind::VSfu,
        FuClass::SLsu | FuClass::VLsu => FuKind::VLsu,
    }
}

#[derive(Debug)]
struct SubCore {
    slots: Vec<Slot>,
    ready: VecDeque<u8>,
    wake: EventQueue<u8>,
}

impl SubCore {
    fn new(slots: u32) -> Self {
        Self {
            slots: (0..slots).map(|_| Slot::empty()).collect(),
            ready: VecDeque::new(),
            wake: EventQueue::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TbState {
    Init,
    Body,
    Fini,
}

#[derive(Debug)]
struct TbGroup {
    instance: usize,
    members: Vec<SubSlot>,
    state: TbState,
    /// Members still executing the current TB phase.
    remaining: u32,
    /// Virtual scratchpad unit backing this TB (A3: TB-scoped shared mem).
    spad_unit: u32,
    live: bool,
}

#[derive(Debug)]
struct Unit {
    subcores: Vec<SubCore>,
    regfile_free: u32,
    spad: Scratchpad,
    l1d: Option<SectoredCache<SubSlot>>,
    dtlb: Tlb,
    outbound: VecDeque<UnitRequest>,
    tbs: Vec<TbGroup>,
    active_contexts: u32,
    free_slots: Vec<SubSlot>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstPhase {
    Pending,
    Init,
    Body,
    Fini,
}

#[derive(Debug)]
struct Instance {
    id: KernelInstanceId,
    spec: Arc<KernelSpec>,
    launch: LaunchArgs,
    phase: InstPhase,
    /// Granules in the pool region.
    granules: u64,
    /// Per-unit next granule ordinal (NDP interleaved spawning, §III-E).
    unit_cursor: Vec<u64>,
    /// Init/fini µthreads spawned and completed.
    once_spawned: u32,
    once_done: u32,
    /// Outstanding body contexts (and, in TB mode, TBs).
    outstanding: u32,
    body_iter: u32,
    /// TB mode: next chunk ordinal.
    next_tb: u64,
    total_tbs: u64,
    granules_per_tb: u64,
    started_at: Cycle,
    /// Cached register bytes per context.
    ctx_reg_bytes: u32,
    /// Scratchpad argument-block slot held while resident; also the
    /// instance's index in the [`ResidentTable`].
    arg_slot: u32,
}

/// Admitted, unfinished kernel instances, indexed by the argument-block
/// slot each one holds while resident — so the table is bounded by
/// `max_concurrent_kernels` and the index is stable for the instance's
/// whole residency. µthread slots and TB groups refer to their instance
/// by this index; a finished instance has no outstanding contexts, so
/// nothing still refers to it when it is removed.
#[derive(Debug)]
struct ResidentTable {
    slots: Vec<Option<Instance>>,
    /// Occupied indices in admission order: the spawn passes' walk order.
    order: Vec<u32>,
}

impl ResidentTable {
    fn new(capacity: u32) -> Self {
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            order: Vec::with_capacity(capacity as usize),
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    /// Index of the `k`-th resident instance in admission order.
    fn nth(&self, k: usize) -> Option<usize> {
        self.order.get(k).map(|&i| i as usize)
    }

    fn get(&self, i: usize) -> Option<&Instance> {
        self.slots[i].as_ref()
    }

    fn insert(&mut self, inst: Instance) {
        let i = inst.arg_slot;
        debug_assert!(self.slots[i as usize].is_none(), "arg slot {i} in use");
        self.order.push(i);
        self.slots[i as usize] = Some(inst);
    }

    fn remove(&mut self, i: usize) -> Instance {
        let pos = self
            .order
            .iter()
            .position(|&o| o as usize == i)
            .expect("removed instance is resident");
        self.order.remove(pos);
        self.slots[i].take().expect("removed instance is resident")
    }
}

impl std::ops::Index<usize> for ResidentTable {
    type Output = Instance;
    fn index(&self, i: usize) -> &Instance {
        self.slots[i].as_ref().expect("instance is resident")
    }
}

impl std::ops::IndexMut<usize> for ResidentTable {
    fn index_mut(&mut self, i: usize) -> &mut Instance {
        self.slots[i].as_mut().expect("instance is resident")
    }
}

/// Where a launched instance is in its lifecycle. A retired instance keeps
/// only its completion cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    Queued,
    Resident,
    Retired(Cycle),
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Instructions issued (one per SIMT group issue).
    pub issues: Counter,
    /// Dynamic instructions executed (sub-thread granularity).
    pub instrs: Counter,
    /// Scalar-unit instructions.
    pub scalar_instrs: Counter,
    /// Vector-unit instructions.
    pub vector_instrs: Counter,
    /// Memory requests sent to the device.
    pub mem_reqs: Counter,
    /// Sector read requests that hit in L1D.
    pub l1_hits: Counter,
    /// DRAM-TLB fill requests generated by unit-TLB misses.
    pub tlb_fills: Counter,
    /// Sum over cycles of active contexts (for average occupancy).
    pub occupancy_integral: Counter,
    /// Extra address-calculation instructions charged (A1).
    pub addr_calc_instrs: Counter,
    /// SIMT lanes executed / lanes possible (divergence tracking, A4).
    pub lanes_active: Counter,
    /// Lane slots available across issues.
    pub lanes_possible: Counter,
}

/// One engine-side trace record, in the engine's cycle domain. The owning
/// device drains these each tick ([`Engine::take_trace`]), converts cycles
/// to nanoseconds, and forwards them into its
/// [`m2ndp_sim::trace::Tracer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// A kernel launch was accepted into the launch buffer.
    Launched {
        /// Acceptance cycle.
        at: Cycle,
        /// Kernel instance id.
        instance: u32,
        /// Registered kernel id.
        kernel: u32,
    },
    /// A kernel instance retired.
    Retired {
        /// Retire cycle.
        at: Cycle,
        /// Kernel instance id.
        instance: u32,
        /// Registered kernel id.
        kernel: u32,
        /// Admission cycle (span start for the kernel-run event).
        started: Cycle,
    },
    /// A wave of µthread contexts was placed onto one unit this cycle.
    WaveSpawn {
        /// Placement cycle.
        at: Cycle,
        /// Receiving unit index.
        unit: u32,
        /// Kernel instance id.
        instance: u32,
        /// Contexts placed.
        count: u32,
    },
    /// An instance's outstanding µthreads drained to zero (iteration
    /// barrier, phase hand-off, or completion).
    WaveDrain {
        /// Drain cycle.
        at: Cycle,
        /// Kernel instance id.
        instance: u32,
    },
}

/// The execution engine.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    units: Vec<Unit>,
    resident: ResidentTable,
    queued: VecDeque<Instance>,
    /// Lifecycle of every instance ever launched, so status queries stay
    /// O(1) after the instance itself is dropped. The entry is inserted at
    /// launch; admission and retirement only update it in place.
    lifecycle: HashMap<KernelInstanceId, Lifecycle>,
    next_virtual_spad: u32,
    /// Instances whose body-iteration word must be rewritten at the next
    /// tick (multi-body synchronization, §III-G).
    pending_iter_update: Vec<usize>,
    /// Spare buffer ping-ponged with `pending_iter_update` so draining it
    /// never re-allocates.
    iter_scratch: Vec<usize>,
    /// True after a spawn pass placed nothing; cleared whenever an event
    /// that could enable spawning happens (slot freed, phase change). Lets
    /// `tick` prove itself a no-op without walking the instance list.
    spawn_exhausted: bool,
    /// Free scratchpad argument-block slots (one per concurrently resident
    /// kernel instance).
    free_arg_slots: Vec<u32>,
    /// Engine statistics.
    pub stats: EngineStats,
    /// Trace buffer; `None` when tracing is off (the default), so every
    /// emit site is one discriminant check.
    trace: Option<Vec<EngineEvent>>,
    /// Persistent issue-path scratch (group memory operations plus the
    /// coalescing buffers of `handle_memops`), reused across issues so a
    /// steady-state tick performs no heap allocation. Pure representation
    /// state: capacity never contributes to [`Engine::fingerprint`].
    scratch: IssueScratch,
}

/// Reusable buffers for one group issue: the [`EffectBuf`] the executor
/// fills plus the partition/coalescing vectors `handle_memops` builds from
/// it. Owned by the [`Engine`] and cleared per use, never reallocated in
/// steady state.
#[derive(Debug, Default)]
struct IssueScratch {
    /// Memory operations of the current group issue, in lane order.
    effects: EffectBuf,
    /// Coalesced global-read sector addresses.
    reads: Vec<u64>,
    /// Global write (addr, bytes) pieces, split at sector boundaries.
    writes: Vec<(u64, u32)>,
    /// Global atomic (addr, bytes) operations.
    amos: Vec<(u64, u32)>,
    /// Distinct page numbers touched (TLB lookups).
    pages: Vec<u64>,
}

/// Memory interface used during functional execution: rewrites the
/// scratchpad aperture to this context's backing unit and performs atomics
/// against the shared functional memory.
struct EngineMemIface<'a> {
    mem: &'a mut MainMemory,
    spad_unit: u32,
}

impl EngineMemIface<'_> {
    fn rewrite(&self, addr: u64) -> u64 {
        if (SPAD_APERTURE_BASE..SPAD_APERTURE_BASE + SPAD_APERTURE_STRIDE).contains(&addr) {
            spad_backing_addr(self.spad_unit, addr - SPAD_APERTURE_BASE)
        } else {
            addr
        }
    }
}

impl MemIface for EngineMemIface<'_> {
    fn load(&mut self, addr: u64, buf: &mut [u8]) {
        let a = self.rewrite(addr);
        self.mem.read_bytes(a, buf);
    }
    fn store(&mut self, addr: u64, data: &[u8]) {
        let a = self.rewrite(addr);
        self.mem.write_bytes(a, data);
    }
    fn amo(&mut self, op: AmoOp, width: Width, addr: u64, operand: u64) -> u64 {
        let a = self.rewrite(addr);
        amo_on_memory(self.mem, op, width, a, operand)
    }
}

impl Engine {
    /// Builds an engine from its configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        let free_arg_slots: Vec<u32> = (0..cfg.max_concurrent_kernels).rev().collect();
        let resident = ResidentTable::new(cfg.max_concurrent_kernels);
        let units = (0..cfg.units)
            .map(|_| {
                let mut free_slots = Vec::new();
                for sc in 0..cfg.subcores_per_unit {
                    for sl in 0..cfg.slots_per_subcore {
                        free_slots.push(SubSlot {
                            subcore: sc as u8,
                            slot: sl as u8,
                        });
                    }
                }
                Unit {
                    subcores: (0..cfg.subcores_per_unit)
                        .map(|_| SubCore::new(cfg.slots_per_subcore))
                        .collect(),
                    regfile_free: cfg.regfile_bytes_per_unit,
                    spad: Scratchpad::new(cfg.spad_bytes_per_unit as u64, cfg.lat.spad),
                    l1d: cfg.l1d.clone().map(SectoredCache::new),
                    dtlb: Tlb::ndp_dtlb(),
                    outbound: VecDeque::new(),
                    tbs: Vec::new(),
                    active_contexts: 0,
                    free_slots,
                }
            })
            .collect();
        Self {
            cfg,
            units,
            resident,
            queued: VecDeque::new(),
            lifecycle: HashMap::new(),
            next_virtual_spad: 4096, // TB spad backing starts past real units
            pending_iter_update: Vec::new(),
            iter_scratch: Vec::new(),
            spawn_exhausted: false,
            free_arg_slots,
            stats: EngineStats::default(),
            trace: None,
            scratch: IssueScratch::default(),
        }
    }

    /// Enables or disables engine-side trace recording. Off by default;
    /// when off, every emit site reduces to a single `Option` check and the
    /// engine's behavior is bit-identical to an uninstrumented build.
    pub fn set_trace(&mut self, on: bool) {
        if on {
            if self.trace.is_none() {
                self.trace = Some(Vec::new());
            }
        } else {
            self.trace = None;
        }
    }

    /// Whether engine-side trace recording is on.
    pub fn trace_on(&self) -> bool {
        self.trace.is_some()
    }

    /// Drains the buffered trace events (recording stays on).
    pub fn take_trace(&mut self) -> Vec<EngineEvent> {
        self.trace.as_mut().map_or_else(Vec::new, std::mem::take)
    }

    #[inline]
    fn push_ev(trace: &mut Option<Vec<EngineEvent>>, f: impl FnOnce() -> EngineEvent) {
        if let Some(buf) = trace {
            buf.push(f());
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Total scratchpad traffic across units (Fig. 6b).
    pub fn spad_traffic_bytes(&self) -> u64 {
        self.units.iter().map(|u| u.spad.total_bytes()).sum()
    }

    /// Currently active (resident, not parked) contexts across all units —
    /// the Fig. 6a occupancy metric.
    pub fn active_contexts(&self) -> u32 {
        self.units.iter().map(|u| u.active_contexts).sum()
    }

    /// Folds the engine's observable occupancy state into `fp`: context
    /// counts, queue depths, per-unit free-slot multisets, L1D line state,
    /// and sub-core ready/wake queues. Freelist order (`free_slots`,
    /// `free_arg_slots`) and scratch-buffer capacity are representation
    /// details and do not contribute, so index-freelist rewrites of the
    /// slot bookkeeping fingerprint identically.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.mix(u64::from(self.active_contexts()));
        fp.mix(self.queued.len() as u64);
        fp.mix(self.pending_iter_update.len() as u64);
        fp.mix(self.free_arg_slots.len() as u64);
        for slot in &self.free_arg_slots {
            fp.mix_unordered(u64::from(*slot));
        }
        fp.mix(self.units.len() as u64);
        for unit in &self.units {
            fp.mix(u64::from(unit.active_contexts));
            fp.mix(u64::from(unit.regfile_free));
            fp.mix(unit.outbound.len() as u64);
            fp.mix(unit.free_slots.len() as u64);
            for ss in &unit.free_slots {
                fp.mix_unordered((u64::from(ss.subcore) << 8) | u64::from(ss.slot));
            }
            match &unit.l1d {
                Some(l1) => {
                    fp.mix(1);
                    l1.fingerprint(fp);
                }
                None => fp.mix(0),
            }
            for sc in &unit.subcores {
                fp.mix(sc.ready.len() as u64);
                for &slot in &sc.ready {
                    fp.mix(u64::from(slot));
                }
                sc.wake.fingerprint(fp);
            }
        }
    }

    /// Number of resident + queued kernel instances.
    pub fn live_instances(&self) -> usize {
        self.resident.len() + self.queued.len()
    }

    /// Number of admitted, unfinished kernel instances (never more than
    /// `max_concurrent_kernels`).
    pub(crate) fn resident_instances(&self) -> usize {
        self.resident.len()
    }

    /// Submits a kernel launch. Returns `false` when the launch buffer is
    /// full (the caller surfaces `ERR`, §III-C).
    pub fn launch(
        &mut self,
        now: Cycle,
        id: KernelInstanceId,
        spec: Arc<KernelSpec>,
        launch: LaunchArgs,
    ) -> bool {
        if self.live_instances() >= self.cfg.max_concurrent_kernels as usize {
            return false;
        }
        let pool_bytes = launch.pool_bound.saturating_sub(launch.pool_base);
        let granules = pool_bytes.div_ceil(self.cfg.granule_bytes as u64).max(1);
        let ctx_reg_bytes =
            self.cfg
                .context_reg_bytes(spec.int_regs, spec.float_regs, spec.vector_regs);
        // TB sizing: grid-stride over chunks so the TB count tracks a
        // reasonable occupancy-driven grid rather than one TB per chunk.
        let (total_tbs, granules_per_tb) = if self.cfg.spawn_batch_contexts > 1 {
            let target = (self.cfg.units as u64 * 16).max(1);
            let tpc = self.cfg.threads_per_context as u64;
            let min_chunk = self.cfg.spawn_batch_contexts as u64 * tpc;
            // Chunks must be warp-width multiples so a TB's last grid-stride
            // span never spills into the next TB's chunk.
            let chunk = granules
                .div_ceil(target)
                .max(min_chunk)
                .next_multiple_of(tpc);
            (granules.div_ceil(chunk), chunk)
        } else {
            (0, 0)
        };
        let inst = Instance {
            id,
            spec,
            launch,
            phase: InstPhase::Pending,
            granules,
            unit_cursor: vec![0; self.cfg.units as usize],
            once_spawned: 0,
            once_done: 0,
            outstanding: 0,
            body_iter: 0,
            next_tb: 0,
            total_tbs,
            granules_per_tb,
            started_at: now,
            ctx_reg_bytes,
            arg_slot: u32::MAX,
        };
        Self::push_ev(&mut self.trace, || EngineEvent::Launched {
            at: now,
            instance: inst.id.0,
            kernel: inst.launch.kernel_id.0,
        });
        self.lifecycle.insert(id, Lifecycle::Queued);
        self.queued.push_back(inst);
        true
    }

    /// Status of an instance for `ndpPollKernelStatus`.
    pub fn status(&self, id: KernelInstanceId) -> Option<InstanceStatus> {
        self.lifecycle.get(&id).map(|l| match l {
            Lifecycle::Queued => InstanceStatus::Pending,
            Lifecycle::Resident => InstanceStatus::Running,
            Lifecycle::Retired(_) => InstanceStatus::Finished,
        })
    }

    /// Completion cycle of an instance, if finished.
    pub fn finished_at(&self, id: KernelInstanceId) -> Option<Cycle> {
        match self.lifecycle.get(&id) {
            Some(&Lifecycle::Retired(at)) => Some(at),
            _ => None,
        }
    }

    /// Whether all submitted work has completed.
    pub fn is_idle(&self) -> bool {
        self.queued.is_empty() && self.resident.len() == 0
    }

    /// Pops an outbound memory request from a unit.
    pub fn pop_outbound(&mut self, unit: usize) -> Option<UnitRequest> {
        self.units[unit].outbound.pop_front()
    }

    /// Whether a unit has outbound requests waiting.
    pub fn has_outbound(&self, unit: usize) -> bool {
        !self.units[unit].outbound.is_empty()
    }

    /// Delivers a memory response to a unit.
    pub fn deliver(&mut self, now: Cycle, unit: usize, kind: RequestKind, addr: u64) {
        match kind {
            RequestKind::L1Fill => {
                let u = &mut self.units[unit];
                if let Some(l1) = u.l1d.as_mut() {
                    l1.fill(now, addr);
                }
                // Pop-then-complete one at a time: the cache borrow ends
                // each iteration, so no intermediate `woken` buffer (and no
                // per-fill allocation) is needed. Order matches the old
                // collect-then-drain exactly.
                while let Some(ss) = u.l1d.as_mut().and_then(|l1| l1.pop_ready(now)) {
                    Self::complete_one(u, now, ss);
                }
            }
            RequestKind::Direct(ss) => {
                let u = &mut self.units[unit];
                Self::complete_one(u, now, ss);
            }
            RequestKind::Posted => {}
        }
    }

    fn complete_one(unit: &mut Unit, _now: Cycle, ss: SubSlot) {
        let sc = &mut unit.subcores[ss.subcore as usize];
        let slot = &mut sc.slots[ss.slot as usize];
        if slot.state != SlotState::WaitMem {
            return; // stale completion for a released slot
        }
        slot.pending = slot.pending.saturating_sub(1);
        if slot.pending == 0 {
            slot.state = SlotState::Ready;
            sc.ready.push_back(ss.slot);
        }
    }

    /// One engine cycle: spawn work, wake blocked slots, dispatch.
    pub fn tick(&mut self, now: Cycle, mem: &mut MainMemory) {
        if self.tick_is_trivial(now) {
            // Nothing can admit, wake, spawn, or issue this cycle; only the
            // occupancy integral advances — exactly what the full walk
            // below would have recorded.
            self.stats
                .occupancy_integral
                .add(self.active_contexts() as u64);
            return;
        }
        self.admit(now, mem);
        if !self.pending_iter_update.is_empty() {
            self.apply_iter_updates(mem);
        }
        // Drain L1D waiters whose fills matured on an earlier cycle (the
        // cache charges its hit latency after the fill arrives). Pop and
        // complete one at a time so the cache borrow ends each iteration —
        // no intermediate buffer, same order as a collect-then-drain.
        for unit in &mut self.units {
            while let Some(ss) = unit.l1d.as_mut().and_then(|l1| l1.pop_ready(now)) {
                Self::complete_one(unit, now, ss);
            }
        }
        self.spawn(now, mem);
        self.issue_all(now, mem);
        self.stats
            .occupancy_integral
            .add(self.active_contexts() as u64);
    }

    /// Whether this cycle's tick would change nothing but the occupancy
    /// integral: no queued launches to admit, no deferred iteration
    /// updates, the last spawn pass placed nothing and no enabling event
    /// (slot free, phase change) happened since, no slot is ready to
    /// issue, and no L1 fill or wake-up matures at or before `now`.
    ///
    /// This is a pure within-tick cost optimization — callers' tick
    /// cadence and every externally visible cycle count are unchanged.
    fn tick_is_trivial(&self, now: Cycle) -> bool {
        if !self.spawn_exhausted || !self.queued.is_empty() || !self.pending_iter_update.is_empty()
        {
            return false;
        }
        self.units.iter().all(|u| {
            u.l1d
                .as_ref()
                .and_then(SectoredCache::next_ready_cycle)
                .is_none_or(|c| c > now)
                && u.subcores
                    .iter()
                    .all(|sc| sc.ready.is_empty() && sc.wake.next_cycle().is_none_or(|c| c > now))
        })
    }

    /// Earliest future wake-up among blocked slots (for fast-forwarding);
    /// `None` when nothing is pending inside the engine.
    pub fn next_wake(&self) -> Option<Cycle> {
        self.units
            .iter()
            .flat_map(|u| u.subcores.iter())
            .filter_map(|sc| sc.wake.next_cycle())
            .min()
    }

    /// Whether any slot is ready to issue right now.
    pub fn has_ready(&self) -> bool {
        self.units
            .iter()
            .any(|u| u.subcores.iter().any(|sc| !sc.ready.is_empty()))
    }

    // ----- instance admission and spawning -----

    fn admit(&mut self, now: Cycle, mem: &mut MainMemory) {
        while let Some(mut inst) = self.queued.pop_front() {
            let Some(arg_slot) = self.free_arg_slots.pop() else {
                self.queued.push_front(inst);
                break;
            };
            inst.arg_slot = arg_slot;
            // Resource sanity: one context must fit a unit's register file.
            if inst.ctx_reg_bytes > self.cfg.regfile_bytes_per_unit {
                inst.started_at = now;
                self.retire(now, inst);
                continue;
            }
            inst.started_at = now;
            if self.cfg.spawn_batch_contexts > 1 {
                // TB mode: args written per TB at TB spawn.
                inst.phase = InstPhase::Body;
            } else {
                // Write argument blocks into every unit's scratchpad.
                for u in 0..self.cfg.units {
                    self.write_arg_block(mem, u, &inst, self.cfg.total_slots() as u64);
                }
                inst.phase = if inst.spec.init.is_some() {
                    InstPhase::Init
                } else {
                    InstPhase::Body
                };
            }
            self.lifecycle.insert(inst.id, Lifecycle::Resident);
            self.resident.insert(inst);
        }
    }

    /// Retires a finished instance: its completion cycle is the only record
    /// kept, its argument-block slot returns to the free list, and the
    /// instance itself (spec handle, launch args) is dropped.
    fn retire(&mut self, now: Cycle, inst: Instance) {
        self.lifecycle.insert(inst.id, Lifecycle::Retired(now));
        self.free_arg_slots.push(inst.arg_slot);
        Self::push_ev(&mut self.trace, || EngineEvent::Retired {
            at: now,
            instance: inst.id.0,
            kernel: inst.launch.kernel_id.0,
            started: inst.started_at,
        });
    }

    fn arg_block_off(&self, arg_slot: u32) -> u64 {
        self.cfg.spad_bytes_per_unit as u64 - ARG_BLOCK_BYTES * (1 + arg_slot as u64)
    }

    fn write_arg_block(
        &self,
        mem: &mut MainMemory,
        spad_unit: u32,
        inst: &Instance,
        init_count: u64,
    ) {
        let off = self.arg_block_off(inst.arg_slot);
        let base = spad_backing_addr(spad_unit, off);
        let words = [
            SPAD_APERTURE_BASE,
            init_count,
            inst.body_iter as u64,
            inst.launch.pool_base,
            inst.launch.pool_bound,
        ];
        for (i, w) in words.iter().enumerate() {
            mem.write_u64(base + i as u64 * 8, *w);
        }
        for (i, w) in inst.launch.args.iter().enumerate() {
            mem.write_u64(base + (argblock::USER + i) as u64 * 8, *w);
        }
    }

    fn arg_block_va(&self, arg_slot: u32) -> u64 {
        SPAD_APERTURE_BASE + self.arg_block_off(arg_slot)
    }

    fn spawn(&mut self, now: Cycle, mem: &mut MainMemory) {
        let placed = if self.cfg.spawn_batch_contexts > 1 {
            self.spawn_tb_mode(now, mem)
        } else {
            self.spawn_fine_grained(now)
        };
        // A pass that placed nothing will keep placing nothing until a slot
        // frees or an instance changes phase; those paths reset the flag.
        self.spawn_exhausted = placed == 0;
    }

    /// NDP-mode spawning: init/fini once per slot; body µthreads mapped to
    /// pool granules, interleaved across units (§III-E load balancing).
    /// Returns the number of contexts placed.
    fn spawn_fine_grained(&mut self, now: Cycle) -> u64 {
        let mut placed: u64 = 0;
        let units = self.cfg.units as usize;
        let total_slots = self.cfg.total_slots();
        let tracing = self.trace.is_some();
        // Placing contexts never retires an instance, so the admission
        // order is stable for the whole pass.
        for k in 0..self.resident.len() {
            let inst_idx = self.resident.order[k] as usize;
            let mut wave_counts: Vec<u32> = if tracing { vec![0; units] } else { Vec::new() };
            let (phase, id) = {
                let inst = &self.resident[inst_idx];
                (inst.phase, inst.arg_slot)
            };
            match phase {
                InstPhase::Init | InstPhase::Fini => loop {
                    let inst = &self.resident[inst_idx];
                    if inst.once_spawned >= total_slots {
                        break;
                    }
                    let uid = inst.once_spawned;
                    let unit_idx = (uid as usize) % units;
                    let reg_bytes = inst.ctx_reg_bytes;
                    let Some(ss) = self.take_slot(unit_idx, reg_bytes) else {
                        break;
                    };
                    let prog_phase = if phase == InstPhase::Init {
                        Phase::Init
                    } else {
                        Phase::Fini
                    };
                    let arg_va = self.arg_block_va(id);
                    self.place(
                        unit_idx, ss, inst_idx, prog_phase, 0, uid as u64, arg_va, None,
                    );
                    placed += 1;
                    self.resident[inst_idx].once_spawned += 1;
                    self.resident[inst_idx].outstanding += 1;
                    if tracing {
                        wave_counts[unit_idx] += 1;
                    }
                },
                InstPhase::Body => {
                    // Fill free slots unit by unit with that unit's granules.
                    // (`wave_counts` is deliberately empty when tracing is
                    // off, so this cannot iterate over it.)
                    #[allow(clippy::needless_range_loop)]
                    for unit_idx in 0..units {
                        loop {
                            let inst = &self.resident[inst_idx];
                            let cursor = inst.unit_cursor[unit_idx];
                            let granule = unit_idx as u64 + cursor * units as u64;
                            if granule >= inst.granules {
                                break;
                            }
                            let reg_bytes = inst.ctx_reg_bytes;
                            let Some(ss) = self.take_slot(unit_idx, reg_bytes) else {
                                break;
                            };
                            let inst = &self.resident[inst_idx];
                            let gb = self.cfg.granule_bytes as u64;
                            let addr = inst.launch.pool_base + granule * gb;
                            let arg_va = self.arg_block_va(id);
                            self.place(
                                unit_idx,
                                ss,
                                inst_idx,
                                Phase::Body,
                                addr,
                                granule * gb,
                                arg_va,
                                None,
                            );
                            placed += 1;
                            self.resident[inst_idx].unit_cursor[unit_idx] += 1;
                            self.resident[inst_idx].outstanding += 1;
                            if tracing {
                                wave_counts[unit_idx] += 1;
                            }
                        }
                    }
                }
                _ => {}
            }
            if tracing {
                let instance = self.resident[inst_idx].id.0;
                for (unit, &count) in wave_counts.iter().enumerate() {
                    if count > 0 {
                        Self::push_ev(&mut self.trace, || EngineEvent::WaveSpawn {
                            at: now,
                            unit: unit as u32,
                            instance,
                            count,
                        });
                    }
                }
            }
        }
        placed
    }

    /// GPU-mode spawning: whole threadblocks (spawn_batch contexts) with a
    /// contiguous granule chunk, scheduled round-robin across units.
    /// Returns the number of TBs placed (empty TBs released through the
    /// completion path still count — the pass made progress).
    fn spawn_tb_mode(&mut self, _now: Cycle, mem: &mut MainMemory) -> u64 {
        let mut placed: u64 = 0;
        let units = self.cfg.units as usize;
        let batch = self.cfg.spawn_batch_contexts;
        let tpc = self.cfg.threads_per_context;
        let mut k = 0;
        while let Some(inst_idx) = self.resident.nth(k) {
            // An empty TB released through the completion path below can
            // retire the instance in the middle of its pass.
            while let Some(inst) = self.resident.get(inst_idx) {
                if inst.phase != InstPhase::Body || inst.next_tb >= inst.total_tbs {
                    break;
                }
                let tb_ord = inst.next_tb;
                let unit_idx = (tb_ord as usize) % units;
                let need_regs = inst.ctx_reg_bytes * batch;
                // All-or-nothing TB admission.
                if self.units[unit_idx].free_slots.len() < batch as usize
                    || self.units[unit_idx].regfile_free < need_regs
                {
                    break;
                }
                let inst = &self.resident[inst_idx];
                let chunk_start = tb_ord * inst.granules_per_tb;
                let chunk_len = inst.granules_per_tb.min(inst.granules - chunk_start);
                let spad_unit = self.next_virtual_spad;
                self.next_virtual_spad += 1;
                self.write_arg_block(mem, spad_unit, inst, 1);
                let id = inst.arg_slot;
                let has_init = inst.spec.init.is_some();

                let mut members = Vec::with_capacity(batch as usize);
                for _ in 0..batch {
                    let ss = self
                        .take_slot(unit_idx, self.resident[inst_idx].ctx_reg_bytes)
                        .expect("checked free slots above");
                    members.push(ss);
                }
                let tb_idx = self.units[unit_idx].tbs.len();
                self.units[unit_idx].tbs.push(TbGroup {
                    instance: inst_idx,
                    members: members.clone(),
                    state: if has_init {
                        TbState::Init
                    } else {
                        TbState::Body
                    },
                    remaining: 0,
                    spad_unit,
                    live: true,
                });

                // Assign grid-stride spans: context j takes granule spans
                // starting at chunk_start + j*tpc, striding batch*tpc.
                let arg_va = self.arg_block_va(id);
                for (j, ss) in members.iter().enumerate() {
                    let mut spans = VecDeque::new();
                    let mut s = chunk_start + j as u64 * tpc as u64;
                    while s < chunk_start + chunk_len {
                        spans.push_back(s);
                        s += (batch * tpc) as u64;
                    }
                    if self.units[unit_idx].tbs[tb_idx].state == TbState::Init {
                        if j == 0 {
                            self.place(
                                unit_idx,
                                *ss,
                                inst_idx,
                                Phase::Init,
                                0,
                                0,
                                arg_va,
                                Some(tb_idx),
                            );
                            self.units[unit_idx].subcores[ss.subcore as usize].slots
                                [ss.slot as usize]
                                .spans = spans;
                            self.units[unit_idx].tbs[tb_idx].remaining += 1;
                        } else {
                            // Parked until init completes; spans stored.
                            let slot = &mut self.units[unit_idx].subcores[ss.subcore as usize]
                                .slots[ss.slot as usize];
                            slot.state = SlotState::Parked;
                            slot.instance = inst_idx;
                            slot.phase = Phase::Body;
                            slot.tb = Some(tb_idx);
                            slot.spans = spans;
                            slot.reg_bytes = self.resident[inst_idx].ctx_reg_bytes;
                            self.units[unit_idx].active_contexts += 1;
                        }
                    } else {
                        // Straight to body. Members without any spans (the
                        // pool is smaller than the TB) park immediately and
                        // never count toward `remaining`.
                        let has_spans = !spans.is_empty();
                        let slot = &mut self.units[unit_idx].subcores[ss.subcore as usize].slots
                            [ss.slot as usize];
                        slot.spans = spans;
                        slot.instance = inst_idx;
                        slot.tb = Some(tb_idx);
                        slot.reg_bytes = self.resident[inst_idx].ctx_reg_bytes;
                        slot.state = SlotState::Parked;
                        self.units[unit_idx].active_contexts += 1;
                        if has_spans {
                            self.units[unit_idx].tbs[tb_idx].remaining += 1;
                            self.start_next_span(unit_idx, *ss, inst_idx, tb_idx);
                        }
                    }
                }
                // A TB whose pool slice was empty (or smaller than its
                // member count) may have nothing to run at all: release it
                // through the normal completion path so the instance still
                // terminates.
                if self.units[unit_idx].tbs[tb_idx].state == TbState::Body
                    && self.units[unit_idx].tbs[tb_idx].remaining == 0
                {
                    self.resident[inst_idx].outstanding += 1;
                    self.resident[inst_idx].next_tb += 1;
                    self.advance_tb(_now, unit_idx, tb_idx);
                    self.stats
                        .addr_calc_instrs
                        .add((self.cfg.addr_calc_overhead * batch) as u64);
                    placed += 1;
                    continue;
                }

                self.resident[inst_idx].next_tb += 1;
                self.resident[inst_idx].outstanding += 1;
                placed += 1;
                self.stats
                    .addr_calc_instrs
                    .add((self.cfg.addr_calc_overhead * batch) as u64);
                let instance = self.resident[inst_idx].id.0;
                Self::push_ev(&mut self.trace, || EngineEvent::WaveSpawn {
                    at: _now,
                    unit: unit_idx as u32,
                    instance,
                    count: batch,
                });
            }
            // A retired instance left the admission order; its successor
            // now sits at position `k`.
            if self.resident.get(inst_idx).is_some() {
                k += 1;
            }
        }
        placed
    }

    /// Sets a TB-mode slot running its next granule span, or returns false
    /// when none remain.
    fn start_next_span(
        &mut self,
        unit_idx: usize,
        ss: SubSlot,
        inst_idx: usize,
        tb_idx: usize,
    ) -> bool {
        let tpc = self.cfg.threads_per_context as u64;
        let gb = self.cfg.granule_bytes as u64;
        let (pool_base, granules, id) = {
            let inst = &self.resident[inst_idx];
            (inst.launch.pool_base, inst.granules, inst.arg_slot)
        };
        let arg_va = self.arg_block_va(id);
        let unit = &mut self.units[unit_idx];
        let sc = &mut unit.subcores[ss.subcore as usize];
        let slot = &mut sc.slots[ss.slot as usize];
        let Some(span_start) = slot.spans.pop_front() else {
            return false;
        };
        slot.refill_ctxs(tpc as usize);
        let mut live = 0;
        for (i, ctx) in slot.ctxs.iter_mut().enumerate() {
            let g = span_start + i as u64;
            ctx.x[1] = pool_base + g * gb;
            ctx.x[2] = g * gb;
            ctx.x[3] = arg_va;
            if g >= granules {
                ctx.done = true; // tail lane masked off
            } else {
                live += 1;
            }
        }
        slot.phase = Phase::Body;
        slot.instance = inst_idx;
        slot.tb = Some(tb_idx);
        slot.live_ctxs = live;
        slot.pending = 0;
        slot.state = SlotState::Ready;
        sc.ready.push_back(ss.slot);
        true
    }

    fn take_slot(&mut self, unit_idx: usize, reg_bytes: u32) -> Option<SubSlot> {
        let unit = &mut self.units[unit_idx];
        if unit.regfile_free < reg_bytes {
            return None;
        }
        let ss = unit.free_slots.pop()?;
        unit.regfile_free -= reg_bytes;
        Some(ss)
    }

    // Takes the full placement tuple; bundling it into a struct would only
    // move the argument list one call deeper. Places a single-µthread
    // context seeded per the spawn ABI (`x1` = mapped address, `x2` =
    // offset, `x3` = arg-block VA), reusing the slot's ctx storage.
    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        unit_idx: usize,
        ss: SubSlot,
        inst_idx: usize,
        phase: Phase,
        addr: u64,
        offset: u64,
        arg_va: u64,
        tb: Option<usize>,
    ) {
        let reg_bytes = self.resident[inst_idx].ctx_reg_bytes;
        let unit = &mut self.units[unit_idx];
        let sc = &mut unit.subcores[ss.subcore as usize];
        let slot = &mut sc.slots[ss.slot as usize];
        debug_assert_eq!(slot.state, SlotState::Free);
        slot.state = SlotState::Ready;
        slot.refill_ctxs(1);
        slot.ctxs[0].x[1] = addr;
        slot.ctxs[0].x[2] = offset;
        slot.ctxs[0].x[3] = arg_va;
        slot.instance = inst_idx;
        slot.phase = phase;
        slot.tb = tb;
        slot.pending = 0;
        slot.reg_bytes = reg_bytes;
        slot.live_ctxs = 1;
        sc.ready.push_back(ss.slot);
        unit.active_contexts += 1;
        if self.cfg.addr_calc_overhead > 0 {
            self.stats
                .addr_calc_instrs
                .add(self.cfg.addr_calc_overhead as u64);
        }
    }

    // ----- dispatch -----

    fn issue_all(&mut self, now: Cycle, mem: &mut MainMemory) {
        for unit_idx in 0..self.units.len() {
            for sc_idx in 0..self.cfg.subcores_per_unit as usize {
                // Wake blocked slots first.
                loop {
                    let sc = &mut self.units[unit_idx].subcores[sc_idx];
                    let Some((_, slot_idx)) = sc.wake.pop_due(now) else {
                        break;
                    };
                    let slot = &mut sc.slots[slot_idx as usize];
                    if slot.state == SlotState::Blocked {
                        slot.state = SlotState::Ready;
                        sc.ready.push_back(slot_idx);
                    }
                }
                self.issue_subcore(now, mem, unit_idx, sc_idx);
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn issue_subcore(&mut self, now: Cycle, mem: &mut MainMemory, unit_idx: usize, sc_idx: usize) {
        let mut avail = FuAvail {
            salu: self.cfg.scalar_alus,
            ssfu: self.cfg.scalar_sfus,
            slsu: self.cfg.scalar_lsus,
            valu: self.cfg.vector_alus,
            vsfu: self.cfg.vector_sfus,
            vlsu: self.cfg.vector_lsus,
        };
        let mut issued = 0u32;
        let max_scan = self.units[unit_idx].subcores[sc_idx].ready.len();
        let mut scanned = 0usize;
        while issued < self.cfg.dispatch_width && scanned < max_scan {
            scanned += 1;
            let Some(slot_idx) = self.units[unit_idx].subcores[sc_idx].ready.pop_front() else {
                break;
            };
            // Determine the SIMT group and the FU needed — one borrow, no
            // per-scanned-slot `Arc` clone of the spec: the FU comes from
            // the program's pre-decoded class table instead of re-matching
            // the fetched instruction.
            enum Scan {
                /// All sub-threads done (possible for fully-masked tails).
                AllDone,
                /// Program ran off the end: treat as halt for robustness.
                OffEnd,
                /// Issue the group at this pc on this FU class.
                Issue(usize, FuClass),
            }
            let scan = {
                let slot = &self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize];
                let spec = &self.resident[slot.instance].spec;
                let prog = match slot.phase {
                    Phase::Init => spec.init.as_ref().expect("init phase has program"),
                    Phase::Body => &spec.body,
                    Phase::Fini => spec.fini.as_ref().expect("fini phase has program"),
                };
                match slot.ctxs.iter().filter(|c| !c.done).map(|c| c.pc).min() {
                    None => Scan::AllDone,
                    Some(pc) => match prog.class_at(pc) {
                        Some(fu) => Scan::Issue(pc, fu),
                        None => Scan::OffEnd,
                    },
                }
            };
            let (min_pc, fu_class) = match scan {
                Scan::AllDone => {
                    self.retire_slot(now, unit_idx, sc_idx, slot_idx);
                    continue;
                }
                Scan::OffEnd => {
                    for c in
                        &mut self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize].ctxs
                    {
                        c.done = true;
                    }
                    self.retire_slot(now, unit_idx, sc_idx, slot_idx);
                    continue;
                }
                Scan::Issue(pc, fu) => (pc, fu),
            };
            let fu = fu_kind(fu_class, self.cfg.has_scalar_units);
            let counter = match fu {
                FuKind::SAlu => &mut avail.salu,
                FuKind::SSfu => &mut avail.ssfu,
                FuKind::SLsu => &mut avail.slsu,
                FuKind::VAlu => &mut avail.valu,
                FuKind::VSfu => &mut avail.vsfu,
                FuKind::VLsu => &mut avail.vlsu,
            };
            if *counter == 0 {
                // Structural hazard: rotate to the back, try another slot.
                self.units[unit_idx].subcores[sc_idx]
                    .ready
                    .push_back(slot_idx);
                continue;
            }
            *counter -= 1;
            issued += 1;
            self.execute_group(now, mem, unit_idx, sc_idx, slot_idx, min_pc);
        }
    }

    /// Executes one SIMT group issue: all non-done sub-threads at `min_pc`
    /// run the instruction there via [`step_group`] (fetch once, one
    /// executor call per lane), with memory operations collected in the
    /// engine-owned [`IssueScratch`] — no allocation on this path in
    /// steady state.
    fn execute_group(
        &mut self,
        now: Cycle,
        mem: &mut MainMemory,
        unit_idx: usize,
        sc_idx: usize,
        slot_idx: u8,
        min_pc: usize,
    ) {
        let (inst_idx, phase, spad_unit) = {
            let slot = &self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize];
            let spad_unit = match slot.tb {
                Some(tb_idx) => self.units[unit_idx].tbs[tb_idx].spad_unit,
                None => unit_idx as u32,
            };
            (slot.instance, slot.phase, spad_unit)
        };
        // One Arc clone per *issue* (not per scanned slot) keeps the spec
        // alive across the disjoint unit/instance borrows below.
        let spec = self.resident[inst_idx].spec.clone();
        let prog = match phase {
            Phase::Init => spec.init.as_ref().expect("init"),
            Phase::Body => &spec.body,
            Phase::Fini => spec.fini.as_ref().expect("fini"),
        };

        let mut scratch = std::mem::take(&mut self.scratch);
        let group = {
            let slot = &mut self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize];
            let mut iface = EngineMemIface { mem, spad_unit };
            step_group(
                &mut slot.ctxs,
                min_pc,
                prog,
                &mut iface,
                &mut scratch.effects,
            )
        };
        let lanes = group.lanes;
        self.stats.issues.inc();
        self.stats.instrs.add(lanes as u64);
        self.stats.lanes_active.add(lanes as u64);
        self.stats
            .lanes_possible
            .add(self.cfg.threads_per_context as u64);
        let class = group.effect.unwrap_or(EffectClass::Halted);
        match class {
            EffectClass::VAlu
            | EffectClass::VFpu
            | EffectClass::VSfu
            | EffectClass::VMem
            | EffectClass::VCtl => self.stats.vector_instrs.add(lanes as u64),
            _ => self.stats.scalar_instrs.add(lanes as u64),
        }

        // All sub-threads done after this issue?
        let all_done = self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize]
            .ctxs
            .iter()
            .all(|c| c.done);
        if all_done {
            self.scratch = scratch;
            self.retire_slot(now, unit_idx, sc_idx, slot_idx);
            return;
        }

        let lat = self.cfg.lat;
        let block_for = |l: Cycle| l.max(1);
        match class {
            EffectClass::Mem | EffectClass::VMem => {
                self.handle_memops(now, unit_idx, sc_idx, slot_idx, &mut scratch);
            }
            EffectClass::Alu | EffectClass::Branch | EffectClass::VCtl => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.alu));
            }
            EffectClass::Mul => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.mul))
            }
            EffectClass::Div => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.div))
            }
            EffectClass::FpAlu => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.fp))
            }
            EffectClass::Sfu => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.sfu))
            }
            EffectClass::VAlu => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.valu))
            }
            EffectClass::VFpu => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.vfpu))
            }
            EffectClass::VSfu => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.vsfu))
            }
            EffectClass::Halted => {
                // Group halted but other sub-threads continue (divergence).
                self.block_slot(now, unit_idx, sc_idx, slot_idx, 1);
            }
        }
        self.scratch = scratch;
    }

    fn block_slot(&mut self, now: Cycle, unit_idx: usize, sc_idx: usize, slot_idx: u8, dur: Cycle) {
        let sc = &mut self.units[unit_idx].subcores[sc_idx];
        let slot = &mut sc.slots[slot_idx as usize];
        if dur <= 1 {
            // Ready again next cycle: keep it in the ready queue.
            slot.state = SlotState::Ready;
            sc.ready.push_back(slot_idx);
        } else {
            slot.state = SlotState::Blocked;
            sc.wake.schedule(now + dur, slot_idx);
        }
    }

    /// Routes the memory operations of one group issue: scratchpad accesses
    /// complete locally; global accesses coalesce into sectors and go
    /// through the L1D (reads) or out as posted writes / L2 atomics.
    fn handle_memops(
        &mut self,
        now: Cycle,
        unit_idx: usize,
        sc_idx: usize,
        slot_idx: u8,
        scratch: &mut IssueScratch,
    ) {
        let ss = SubSlot {
            subcore: sc_idx as u8,
            slot: slot_idx,
        };
        let mut max_local_ready = now + 1;
        let mut pending = 0u32;

        // Partition: scratchpad vs global. The partition buffers live in
        // the engine-owned scratch so steady-state issues don't allocate.
        let IssueScratch {
            effects,
            reads: global_reads,
            writes: global_writes,
            amos: global_amos,
            pages,
        } = scratch;
        global_reads.clear();
        global_writes.clear();
        global_amos.clear();
        pages.clear();
        for op in effects.memops() {
            if (SPAD_APERTURE_BASE..SPAD_APERTURE_BASE + SPAD_APERTURE_STRIDE).contains(&op.addr) {
                let unit = &mut self.units[unit_idx];
                let ready = unit.spad.access(now, op.bytes, op.write, op.amo);
                max_local_ready = max_local_ready.max(ready);
            } else if op.amo {
                global_amos.push((op.addr, op.bytes));
            } else if op.write {
                // Split at sector boundaries so no downstream access
                // crosses a cache-line edge (unaligned vector stores).
                let mut a = op.addr;
                let mut remaining = op.bytes;
                while remaining > 0 {
                    let room = (SECTOR_BYTES - (a % SECTOR_BYTES)) as u32;
                    let chunk = remaining.min(room);
                    global_writes.push((a, chunk));
                    a += chunk as u64;
                    remaining -= chunk;
                }
            } else {
                // Coalesce reads to sectors.
                let first = op.addr & !(SECTOR_BYTES - 1);
                let last = (op.addr + op.bytes as u64 - 1) & !(SECTOR_BYTES - 1);
                let mut s = first;
                while s <= last {
                    global_reads.push(s);
                    s += SECTOR_BYTES;
                }
            }
        }
        global_reads.sort_unstable();
        global_reads.dedup();

        // TLB: one lookup per distinct page touched.
        pages.extend(
            global_reads
                .iter()
                .copied()
                .chain(global_writes.iter().map(|(a, _)| *a))
                .chain(global_amos.iter().map(|(a, _)| *a))
                .map(|a| a >> self.units[unit_idx].dtlb.page_shift()),
        );
        pages.sort_unstable();
        pages.dedup();
        for &page in pages.iter() {
            let unit = &mut self.units[unit_idx];
            if !unit.dtlb.access(page << unit.dtlb.page_shift()) {
                // DRAM-TLB fill: one 16 B read the slot must wait for.
                let addr = dram_tlb_entry_addr(0, page);
                unit.outbound.push_back(UnitRequest {
                    addr,
                    bytes: DRAM_TLB_ENTRY_BYTES,
                    write: false,
                    kind: RequestKind::Direct(ss),
                });
                pending += 1;
                self.stats.tlb_fills.inc();
                self.stats.mem_reqs.inc();
            }
        }

        // Reads through the L1D.
        for &sector in global_reads.iter() {
            let unit = &mut self.units[unit_idx];
            match unit.l1d.as_mut() {
                Some(l1) => {
                    let res = l1.access(
                        now,
                        Access {
                            addr: sector,
                            bytes: SECTOR_BYTES as u32,
                            write: false,
                        },
                        ss,
                    );
                    match res {
                        CacheResult::Hit { ready_at } => {
                            max_local_ready = max_local_ready.max(ready_at);
                            self.stats.l1_hits.inc();
                        }
                        CacheResult::MergedMiss => pending += 1,
                        CacheResult::Miss { fetches, writeback } => {
                            pending += 1;
                            for f in fetches {
                                unit.outbound.push_back(UnitRequest {
                                    addr: f,
                                    bytes: SECTOR_BYTES as u32,
                                    write: false,
                                    kind: RequestKind::L1Fill,
                                });
                                self.stats.mem_reqs.inc();
                            }
                            if let Some((a, b)) = writeback {
                                unit.outbound.push_back(UnitRequest {
                                    addr: a,
                                    bytes: b,
                                    write: true,
                                    kind: RequestKind::Posted,
                                });
                            }
                        }
                        CacheResult::Stalled | CacheResult::WriteForward { .. } => {
                            // MSHR exhaustion: bypass the L1 for this sector.
                            unit.outbound.push_back(UnitRequest {
                                addr: sector,
                                bytes: SECTOR_BYTES as u32,
                                write: false,
                                kind: RequestKind::Direct(ss),
                            });
                            pending += 1;
                            self.stats.mem_reqs.inc();
                        }
                    }
                }
                None => {
                    unit.outbound.push_back(UnitRequest {
                        addr: sector,
                        bytes: SECTOR_BYTES as u32,
                        write: false,
                        kind: RequestKind::Direct(ss),
                    });
                    pending += 1;
                    self.stats.mem_reqs.inc();
                }
            }
        }

        // Writes: write-through, posted (§III-F).
        for &(addr, bytes) in global_writes.iter() {
            let unit = &mut self.units[unit_idx];
            if let Some(l1) = unit.l1d.as_mut() {
                let _ = l1.access(
                    now,
                    Access {
                        addr,
                        bytes,
                        write: true,
                    },
                    ss,
                );
            }
            unit.outbound.push_back(UnitRequest {
                addr,
                bytes,
                write: true,
                kind: RequestKind::Posted,
            });
            self.stats.mem_reqs.inc();
        }

        // Atomics execute at the memory-side L2; the slot waits for the ack.
        for &(addr, bytes) in global_amos.iter() {
            let unit = &mut self.units[unit_idx];
            unit.outbound.push_back(UnitRequest {
                addr,
                bytes,
                write: true,
                kind: RequestKind::Direct(ss),
            });
            pending += 1;
            self.stats.mem_reqs.inc();
        }

        let sc = &mut self.units[unit_idx].subcores[sc_idx];
        let slot = &mut sc.slots[slot_idx as usize];
        if pending > 0 {
            slot.pending = pending;
            slot.state = SlotState::WaitMem;
        } else if max_local_ready > now + 1 {
            slot.state = SlotState::Blocked;
            sc.wake.schedule(max_local_ready, slot_idx);
        } else {
            slot.state = SlotState::Ready;
            sc.ready.push_back(slot_idx);
        }
    }

    /// Handles a slot whose sub-threads have all terminated.
    fn retire_slot(&mut self, now: Cycle, unit_idx: usize, sc_idx: usize, slot_idx: u8) {
        let ss = SubSlot {
            subcore: sc_idx as u8,
            slot: slot_idx,
        };
        let (inst_idx, phase, tb) = {
            let slot = &self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize];
            (slot.instance, slot.phase, slot.tb)
        };
        match tb {
            None => {
                self.free_slot(unit_idx, ss);
                self.on_context_done(now, inst_idx, phase);
            }
            Some(tb_idx) => {
                // TB mode: try the next grid-stride span first.
                if phase == Phase::Body && self.start_next_span(unit_idx, ss, inst_idx, tb_idx) {
                    return;
                }
                // Member finished its TB phase; park until the TB releases.
                {
                    let slot = &mut self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize];
                    slot.state = SlotState::Parked;
                }
                let done = {
                    let tbg = &mut self.units[unit_idx].tbs[tb_idx];
                    tbg.remaining -= 1;
                    tbg.remaining == 0
                };
                if done {
                    self.advance_tb(now, unit_idx, tb_idx);
                }
            }
        }
    }

    fn advance_tb(&mut self, now: Cycle, unit_idx: usize, tb_idx: usize) {
        let (state, inst_idx, members) = {
            let tbg = &self.units[unit_idx].tbs[tb_idx];
            (tbg.state, tbg.instance, tbg.members.clone())
        };
        match state {
            TbState::Init => {
                // Activate all members for the body phase.
                self.units[unit_idx].tbs[tb_idx].state = TbState::Body;
                for ss in &members {
                    self.units[unit_idx].tbs[tb_idx].remaining += 1;
                    if !self.start_next_span(unit_idx, *ss, inst_idx, tb_idx) {
                        self.units[unit_idx].tbs[tb_idx].remaining -= 1;
                    }
                }
                if self.units[unit_idx].tbs[tb_idx].remaining == 0 {
                    self.advance_tb(now, unit_idx, tb_idx);
                }
            }
            TbState::Body => {
                let has_fini = self.resident[inst_idx].spec.fini.is_some();
                if has_fini {
                    self.units[unit_idx].tbs[tb_idx].state = TbState::Fini;
                    self.units[unit_idx].tbs[tb_idx].remaining = 1;
                    let ss = members[0];
                    let id = self.resident[inst_idx].arg_slot;
                    let arg_va = self.arg_block_va(id);
                    let sc = &mut self.units[unit_idx].subcores[ss.subcore as usize];
                    let slot = &mut sc.slots[ss.slot as usize];
                    slot.refill_ctxs(1);
                    slot.ctxs[0].x[3] = arg_va;
                    slot.phase = Phase::Fini;
                    slot.state = SlotState::Ready;
                    slot.live_ctxs = 1;
                    sc.ready.push_back(ss.slot);
                } else {
                    self.release_tb(now, unit_idx, tb_idx);
                }
            }
            TbState::Fini => {
                self.release_tb(now, unit_idx, tb_idx);
            }
        }
    }

    fn release_tb(&mut self, now: Cycle, unit_idx: usize, tb_idx: usize) {
        let (inst_idx, members) = {
            let tbg = &mut self.units[unit_idx].tbs[tb_idx];
            tbg.live = false;
            (tbg.instance, tbg.members.clone())
        };
        for ss in members {
            self.free_slot(unit_idx, ss);
        }
        self.on_context_done(now, inst_idx, Phase::Body);
    }

    fn free_slot(&mut self, unit_idx: usize, ss: SubSlot) {
        let unit = &mut self.units[unit_idx];
        let slot = &mut unit.subcores[ss.subcore as usize].slots[ss.slot as usize];
        unit.regfile_free += slot.reg_bytes;
        slot.reset(); // retains ctx/span heap buffers for the next wave
        unit.free_slots.push(ss);
        unit.active_contexts = unit.active_contexts.saturating_sub(1);
        // A freed slot (and its registers) may let a stalled spawn proceed.
        self.spawn_exhausted = false;
    }

    /// Instance phase bookkeeping when a context (or TB) finishes.
    fn on_context_done(&mut self, now: Cycle, inst_idx: usize, phase: Phase) {
        // Phase transitions below (Init→Body, Body rerun, →Fini) can make
        // new work spawnable even without a slot freeing first.
        self.spawn_exhausted = false;
        if self.context_done_finishes(now, inst_idx, phase) {
            let inst = self.resident.remove(inst_idx);
            self.retire(now, inst);
        }
    }

    /// Advances the instance's phase for one finished context (or TB) and
    /// returns whether the instance has now finished.
    fn context_done_finishes(&mut self, now: Cycle, inst_idx: usize, phase: Phase) -> bool {
        let tb_mode = self.cfg.spawn_batch_contexts > 1;
        let total_slots = self.cfg.total_slots();
        let inst = &mut self.resident[inst_idx];
        match phase {
            Phase::Init | Phase::Fini if !tb_mode => {
                inst.once_done += 1;
                inst.outstanding -= 1;
                if inst.once_done != total_slots {
                    return false;
                }
                Self::push_ev(&mut self.trace, || EngineEvent::WaveDrain {
                    at: now,
                    instance: inst.id.0,
                });
                match inst.phase {
                    InstPhase::Init => {
                        inst.phase = InstPhase::Body;
                        inst.once_spawned = 0;
                        inst.once_done = 0;
                        false
                    }
                    InstPhase::Fini => true,
                    _ => false,
                }
            }
            _ if tb_mode => {
                inst.outstanding -= 1;
                if inst.next_tb < inst.total_tbs || inst.outstanding > 0 {
                    return false;
                }
                Self::push_ev(&mut self.trace, || EngineEvent::WaveDrain {
                    at: now,
                    instance: inst.id.0,
                });
                inst.body_iter += 1;
                if inst.body_iter < inst.launch.body_iterations {
                    // Multi-body barrier (§III-G): rerun the grid.
                    inst.next_tb = 0;
                    return false;
                }
                true
            }
            _ => {
                // NDP body: iteration barrier / completion check.
                inst.outstanding -= 1;
                let units = self.cfg.units as u64;
                let all_spawned = (0..self.cfg.units as usize).all(|u| {
                    let granule = u as u64 + inst.unit_cursor[u] * units;
                    granule >= inst.granules
                });
                if !all_spawned || inst.outstanding > 0 {
                    return false;
                }
                Self::push_ev(&mut self.trace, || EngineEvent::WaveDrain {
                    at: now,
                    instance: inst.id.0,
                });
                inst.body_iter += 1;
                if inst.body_iter < inst.launch.body_iterations {
                    inst.unit_cursor.iter_mut().for_each(|c| *c = 0);
                    // Update the iteration word in every unit's args
                    // (done lazily at the next tick).
                    inst.phase = InstPhase::Body;
                    self.pending_iter_update.push(inst_idx);
                    false
                } else if inst.spec.fini.is_some() {
                    inst.phase = InstPhase::Fini;
                    inst.once_spawned = 0;
                    inst.once_done = 0;
                    false
                } else {
                    true
                }
            }
        }
    }
}

// The iteration-update list lives outside the main impl block purely so the
// struct definition above stays readable.
impl Engine {
    /// Applies deferred body-iteration argument updates (called from tick).
    fn apply_iter_updates(&mut self, mem: &mut MainMemory) {
        // Ping-pong with the scratch buffer so the steady state allocates
        // nothing: the drained list is cleared and kept for the next swap.
        let mut pending = std::mem::replace(
            &mut self.pending_iter_update,
            std::mem::take(&mut self.iter_scratch),
        );
        for &inst_idx in &pending {
            let inst = &self.resident[inst_idx];
            let off = self.arg_block_off(inst.arg_slot);
            for u in 0..self.cfg.units {
                let base = spad_backing_addr(u, off);
                mem.write_u64(
                    base + (argblock::BODY_ITER as u64) * 8,
                    inst.body_iter as u64,
                );
            }
        }
        pending.clear();
        self.iter_scratch = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::kernel::KernelSpec;
    use m2ndp_riscv::assemble;

    /// Drives the engine with an idealized memory backend: every outbound
    /// request completes after a fixed latency.
    fn run_to_completion(engine: &mut Engine, mem: &mut MainMemory, mem_lat: Cycle) -> Cycle {
        let mut inflight: EventQueue<(usize, RequestKind, u64)> = EventQueue::new();
        let mut now = 0;
        while !engine.is_idle() {
            engine.tick(now, mem);
            for u in 0..engine.config().units as usize {
                while let Some(req) = engine.pop_outbound(u) {
                    if !matches!(req.kind, RequestKind::Posted) {
                        inflight.schedule(now + mem_lat, (u, req.kind, req.addr));
                    }
                }
            }
            while let Some((_, (u, kind, addr))) = inflight.pop_due(now) {
                engine.deliver(now, u, kind, addr);
            }
            now += 1;
            assert!(now < 2_000_000, "engine deadlock");
        }
        now
    }

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            units: 2,
            ..EngineConfig::m2ndp()
        }
    }

    fn vec_double_kernel() -> KernelSpec {
        // Doubles each e32 element of the 32 B granule mapped to x1.
        let body = assemble(
            "vsetvli x0, x0, e32, m1
             vle32.v v1, (x1)
             vadd.vv v1, v1, v1
             vse32.v v1, (x1)
             halt",
        )
        .unwrap();
        KernelSpec::body_only("vec_double", body)
    }

    #[test]
    fn body_kernel_processes_whole_pool() {
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let n = 1024u64; // e32 elements
        for i in 0..n {
            mem.write_u32(base + i * 4, i as u32);
        }
        let spec = Arc::new(vec_double_kernel());
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + n * 4);
        assert!(engine.launch(0, KernelInstanceId(0), spec, launch));
        run_to_completion(&mut engine, &mut mem, 50);
        for i in 0..n {
            assert_eq!(mem.read_u32(base + i * 4), 2 * i as u32, "elem {i}");
        }
        assert_eq!(
            engine.status(KernelInstanceId(0)),
            Some(InstanceStatus::Finished)
        );
    }

    #[test]
    fn memory_latency_extends_runtime() {
        let run = |lat: Cycle| {
            let mut engine = Engine::new(small_cfg());
            let mut mem = MainMemory::new();
            let base = 0x10_0000u64;
            let spec = Arc::new(vec_double_kernel());
            let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + 64 * 1024);
            engine.launch(0, KernelInstanceId(0), spec, launch);
            run_to_completion(&mut engine, &mut mem, lat)
        };
        let fast = run(10);
        let slow = run(400);
        assert!(slow > fast, "latency must matter: {fast} vs {slow}");
    }

    #[test]
    fn fgmt_hides_latency_with_many_slots() {
        // With 64 slots per unit and 400-cycle memory, throughput should be
        // far better than serial execution: 2048 granules * (400*2 loads+stores)
        // serial ≈ 1.6M cycles; FGMT should land well under 100k.
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let spec = Arc::new(vec_double_kernel());
        let granules = 2048u64;
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + granules * 32);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        let t = run_to_completion(&mut engine, &mut mem, 400);
        assert!(t < 100_000, "FGMT failed to overlap latency: {t} cycles");
    }

    #[test]
    fn init_body_fini_sequence_runs_once_per_slot() {
        // init increments a global counter via AMO; body nops; fini likewise.
        let init = assemble("li x4, 1\nli x5, 0x500000\namoadd.d x4, x4, (x5)\nhalt").unwrap();
        let fini = assemble("li x4, 1\nli x5, 0x500008\namoadd.d x4, x4, (x5)\nhalt").unwrap();
        let body = assemble("halt").unwrap();
        let spec = Arc::new(KernelSpec::from_programs(
            "counting",
            Some(init),
            body,
            Some(fini),
            0,
        ));
        let cfg = small_cfg();
        let total_slots = cfg.total_slots() as u64;
        let mut engine = Engine::new(cfg);
        let mut mem = MainMemory::new();
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), 0x10_0000, 0x10_0000 + 32 * 10);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 20);
        assert_eq!(mem.read_u64(0x50_0000), total_slots, "init once per slot");
        assert_eq!(mem.read_u64(0x50_0008), total_slots, "fini once per slot");
    }

    #[test]
    fn multi_iteration_body_respawns_threads() {
        // Each body adds 1 to its granule's first word; 3 iterations → +3.
        let body = assemble(
            "lw x4, (x1)
             addi x4, x4, 1
             sw x4, (x1)
             halt",
        )
        .unwrap();
        let spec = Arc::new(KernelSpec::body_only("inc", body));
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let granules = 64u64;
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + granules * 32)
            .with_iterations(3);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 30);
        for g in 0..granules {
            assert_eq!(mem.read_u32(base + g * 32), 3, "granule {g}");
        }
    }

    #[test]
    fn kernel_args_visible_through_arg_block() {
        // Kernel copies user arg 0 into its granule.
        let body = assemble(
            "ld x4, 40(x3)   // user arg 0 (word 5)
             sd x4, (x1)
             halt",
        )
        .unwrap();
        let spec = Arc::new(KernelSpec::body_only("argcopy", body));
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + 32 * 4)
            .with_args(vec![0xDEAD_BEEF]);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 20);
        for g in 0..4 {
            assert_eq!(mem.read_u64(base + g * 32), 0xDEAD_BEEF);
        }
    }

    #[test]
    fn launch_buffer_full_returns_false() {
        let mut engine = Engine::new(EngineConfig {
            max_concurrent_kernels: 2,
            ..small_cfg()
        });
        let spec = Arc::new(vec_double_kernel());
        for i in 0..2 {
            assert!(engine.launch(
                0,
                KernelInstanceId(i),
                spec.clone(),
                LaunchArgs::new(crate::kernel::KernelId(0), 0x1000, 0x2000)
            ));
        }
        assert!(!engine.launch(
            0,
            KernelInstanceId(9),
            spec,
            LaunchArgs::new(crate::kernel::KernelId(0), 0x1000, 0x2000)
        ));
    }

    #[test]
    fn oversized_context_finishes_at_admission() {
        // A context larger than a unit's register file can never run: the
        // instance is admitted and retired in the same tick.
        let mut engine = Engine::new(EngineConfig {
            regfile_bytes_per_unit: 16,
            ..small_cfg()
        });
        let mut mem = MainMemory::new();
        let id = KernelInstanceId(3);
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), 0x1000, 0x2000);
        assert!(engine.launch(0, id, Arc::new(vec_double_kernel()), launch));
        assert_eq!(engine.status(id), Some(InstanceStatus::Pending));
        assert_eq!(engine.finished_at(id), None);
        engine.tick(5, &mut mem);
        assert_eq!(engine.status(id), Some(InstanceStatus::Finished));
        assert_eq!(engine.finished_at(id), Some(5));
        assert!(engine.is_idle());
        assert_eq!(engine.resident_instances(), 0);
        assert_eq!(engine.status(KernelInstanceId(4)), None);
    }

    #[test]
    fn gpu_mode_completes_and_occupies_tb_granularity() {
        let cfg = EngineConfig::gpu_ndp(2, m2ndp_sim::Frequency::ghz(2.0), 4);
        let mut engine = Engine::new(cfg);
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let n_elems = 4096u64;
        for i in 0..n_elems {
            mem.write_u32(base + i * 4, i as u32);
        }
        let spec = Arc::new(vec_double_kernel());
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + n_elems * 4);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 50);
        for i in 0..n_elems {
            assert_eq!(mem.read_u32(base + i * 4), 2 * i as u32, "elem {i}");
        }
    }

    #[test]
    fn gpu_mode_charges_addr_calc_overhead() {
        let cfg = EngineConfig::gpu_ndp(2, m2ndp_sim::Frequency::ghz(2.0), 4);
        let mut engine = Engine::new(cfg);
        let mut mem = MainMemory::new();
        let spec = Arc::new(vec_double_kernel());
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), 0x10_0000, 0x10_0000 + 4096);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 50);
        assert!(engine.stats.addr_calc_instrs.get() > 0);
    }

    #[test]
    fn ndp_mode_has_no_addr_calc_overhead() {
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let spec = Arc::new(vec_double_kernel());
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), 0x10_0000, 0x10_0000 + 4096);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 50);
        assert_eq!(engine.stats.addr_calc_instrs.get(), 0);
    }

    #[test]
    fn concurrent_kernels_share_the_engine() {
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let spec = Arc::new(vec_double_kernel());
        let a_base = 0x10_0000u64;
        let b_base = 0x20_0000u64;
        for i in 0..256u64 {
            mem.write_u32(a_base + i * 4, 1);
            mem.write_u32(b_base + i * 4, 10);
        }
        engine.launch(
            0,
            KernelInstanceId(0),
            spec.clone(),
            LaunchArgs::new(crate::kernel::KernelId(0), a_base, a_base + 1024),
        );
        engine.launch(
            0,
            KernelInstanceId(1),
            spec,
            LaunchArgs::new(crate::kernel::KernelId(0), b_base, b_base + 1024),
        );
        run_to_completion(&mut engine, &mut mem, 50);
        assert_eq!(mem.read_u32(a_base), 2);
        assert_eq!(mem.read_u32(b_base), 20);
        assert_eq!(
            engine.status(KernelInstanceId(1)),
            Some(InstanceStatus::Finished)
        );
    }

    #[test]
    fn spad_reduction_kernel_accumulates_per_unit_then_globally() {
        // Fig. 8 pattern: init zeroes a per-unit local sum; body reduces its
        // granule into the local sum; fini adds the local sum to the global.
        // Every init thread zeroes its unit's local sum and claim flag
        // (idempotent, so racing initializers are harmless).
        let init = assemble(
            "ld  x4, (x3)        // spad base VA
             sd x0, (x4)
             sd x0, 8(x4)
             halt",
        )
        .unwrap();
        let body = assemble(
            "vsetvli x0, x0, e64, m1
             vle64.v v2, (x1)
             vmv.v.i v1, 0
             vredsum.vs v3, v2, v1
             vmv.x.s x5, v3
             ld x4, (x3)
             amoadd.d x5, x5, (x4)
             halt",
        )
        .unwrap();
        // Exactly one finalizer µthread per unit claims the flush with an
        // atomic swap on the scratchpad flag, then adds the unit-local sum
        // to the global accumulator (user arg 0, arg-block word 5 = byte 40).
        let fini = assemble(
            "ld x4, (x3)
             addi x7, x4, 8
             li x5, 1
             amoswap.d x6, x5, (x7)
             bnez x6, skip
             ld x5, (x4)
             ld x6, 40(x3)
             amoadd.d x5, x5, (x6)
             skip: halt",
        )
        .unwrap();
        let spec = Arc::new(KernelSpec::from_programs(
            "reduce",
            Some(init),
            body,
            Some(fini),
            64,
        ));
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let global_sum = 0x50_0000u64;
        let granules = 128u64;
        let mut expect = 0u64;
        for i in 0..granules * 4 {
            mem.write_u64(base + i * 8, i);
            expect += i;
        }
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + granules * 32)
            .with_args(vec![global_sum]);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 40);
        assert_eq!(mem.read_u64(global_sum), expect);
    }

    #[test]
    fn occupancy_metric_reports_active_contexts() {
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let spec = Arc::new(vec_double_kernel());
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), 0x10_0000, 0x10_0000 + 32 * 4096);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        engine.tick(0, &mut mem);
        assert!(engine.active_contexts() > 0);
        assert!(engine.active_contexts() <= engine.config().total_slots());
    }
}
