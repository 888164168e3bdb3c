//! The CXL-M²NDP device (Fig. 3): CXL port, packet filter, NDP controller
//! and NDP units, connected through on-chip crossbars to memory-side L2
//! slices and the internal LPDDR5 channels.
//!
//! The same structure also serves as a *passive* CXL memory expander (host
//! reads/writes flow CXL port → L2 → DRAM without touching the engine) and,
//! with a GPU-mode engine configuration, as the GPU-NDP device of §IV-A.
//!
//! ## Address map
//!
//! * `0 .. DRAM_TLB_BASE` — workload data in device DRAM (HDM);
//! * [`crate::tlb::DRAM_TLB_BASE`] — the DRAM-TLB;
//! * the scratchpad aperture — never enters the timing path (unit-local);
//! * [`REMOTE_WINDOW_BASE`]`..` — addresses homed in a *remote* memory
//!   across the CXL link (used when this device models a host GPU whose
//!   workload data lives in a passive CXL expander, or P2P to a peer
//!   CXL-M²NDP).

use std::collections::HashMap;

use m2ndp_cache::{Access, CacheResult, SectoredCache};
use m2ndp_cxl::{BackInvalidation, CxlLink, CxlMemPacket, PacketFilter};
use m2ndp_mem::{DramDevice, MainMemory, MemReq, ReqId, ReqIdAllocator, ReqSource};
use m2ndp_noc::{Crossbar, CrossbarConfig};
use m2ndp_sim::trace::{EventKind, Lane, TraceEvent, TraceSink, Tracer};
use m2ndp_sim::{Counter, Cycle, EventQueue, Fingerprint};

use crate::config::M2ndpConfig;
use crate::engine::{Engine, EngineEvent, RequestKind, UnitRequest, SECTOR_BYTES};
use crate::kernel::{KernelId, KernelInstanceId, KernelRegistry, KernelSpec, LaunchArgs};
use crate::m2func::InstanceStatus;

/// Base of the remote CXL window: addresses at or above this route over the
/// device's CXL link to a remote memory model.
pub const REMOTE_WINDOW_BASE: u64 = 0x2000_0000_0000;

/// Where an L2 response routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2Dest {
    /// Back to an engine unit.
    Unit { unit: u16, kind: RequestKind },
    /// Completes a host CXL.mem request.
    Host { id: ReqId, write: bool },
}

/// Routing metadata for one L2-slice access in flight. Carried through the
/// cache's MSHRs, so it holds everything needed to build the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L2Token {
    dest: L2Dest,
    addr: u64,
    bytes: u32,
}

/// Work arriving at an L2 slice.
#[derive(Debug, Clone, Copy)]
struct L2Work {
    addr: u64,
    bytes: u32,
    write: bool,
    token: L2Token,
}

#[derive(Debug)]
struct L2Slice {
    cache: SectoredCache<L2Token>,
    inbox: EventQueue<L2Work>,
    /// Sector fetches waiting for a free DRAM queue slot.
    to_dram: Vec<MemReq>,
}

/// Where a DRAM completion routes.
#[derive(Debug, Clone, Copy)]
enum DramOrigin {
    L2Fill {
        slice: u16,
    },
    /// Write traffic (no response routing needed).
    Drain,
}

/// A memory system: crossbars, L2 slices, DRAM. The device has one local
/// system and optionally a remote one behind the CXL link.
#[derive(Debug)]
struct MemSystem {
    xbar_req: Crossbar,
    xbar_resp: Crossbar,
    slices: Vec<L2Slice>,
    dram: DramDevice,
    dram_origin: HashMap<ReqId, DramOrigin>,
}

impl MemSystem {
    fn new(cfg: &M2ndpConfig, ports: usize) -> Self {
        let channels = cfg.dram.channels as usize;
        let xbar_cfg = CrossbarConfig {
            sources: ports,
            destinations: channels,
            ..CrossbarConfig::device_32x32()
        };
        let xbar_resp_cfg = CrossbarConfig {
            sources: channels,
            destinations: ports,
            ..CrossbarConfig::device_32x32()
        };
        Self {
            xbar_req: Crossbar::new(xbar_cfg),
            xbar_resp: Crossbar::new(xbar_resp_cfg),
            slices: (0..channels)
                .map(|_| L2Slice {
                    cache: SectoredCache::new(cfg.l2_slice.clone()),
                    inbox: EventQueue::new(),
                    to_dram: Vec::new(),
                })
                .collect(),
            dram: DramDevice::new(cfg.dram.clone(), cfg.engine.freq),
            dram_origin: HashMap::new(),
        }
    }
}

/// Aggregate device statistics, the raw material for the energy model and
/// the evaluation figures.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// DRAM data bytes moved (local).
    pub dram_bytes: u64,
    /// DRAM row-hit rate.
    pub dram_row_hit_rate: f64,
    /// Fraction of peak internal DRAM bandwidth achieved.
    pub dram_bw_utilization: f64,
    /// CXL link bytes, host→device.
    pub link_m2s_bytes: u64,
    /// CXL link bytes, device→host.
    pub link_s2m_bytes: u64,
    /// L2 demand accesses.
    pub l2_accesses: u64,
    /// L2 hit rate.
    pub l2_hit_rate: f64,
    /// Engine instructions executed.
    pub instrs: u64,
    /// Engine memory requests.
    pub mem_reqs: u64,
    /// Scratchpad bytes moved.
    pub spad_bytes: u64,
    /// L1D hits inside units.
    pub l1_hits: u64,
    /// Back-invalidation snoops issued.
    pub bi_snoops: u64,
}

/// A scalar statistic value that preserves integer-ness, so counters
/// serialize exactly while rates keep their fractional precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatValue {
    /// An exact event/byte/cycle count.
    U64(u64),
    /// A derived rate or utilization in `[0, 1]`-ish space.
    F64(f64),
}

/// An ordered collection of named statistics — the workspace-wide metrics
/// shape returned by [`DeviceStats::metrics`], `Fleet::metrics`,
/// `ServeReport::metrics`, and `TenantReport::metrics` (the latter two in
/// `m2ndp_host::serve`).
///
/// The set preserves insertion order and iterates exactly like the
/// `Vec<(String, StatValue)>` it replaced, so every serializer that walks
/// it (the `figures` sweep harness, table printers) emits byte-identical
/// output; on top of that it offers keyed lookup ([`MetricSet::get`]) so
/// callers stop writing ad-hoc linear scans over tuples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    entries: Vec<(String, StatValue)>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one named statistic (insertion order is iteration order).
    pub fn push(&mut self, name: impl Into<String>, value: StatValue) {
        self.entries.push((name.into(), value));
    }

    /// The value recorded under `name`, if present. Metric sets are small
    /// (a dozen entries), so lookup is a scan — the point is that callers
    /// ask by key instead of hand-rolling the scan.
    pub fn get(&self, name: &str) -> Option<StatValue> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value under `name` as an `f64` (integer counters widen), if
    /// present.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).map(|v| match v {
            StatValue::U64(u) => u as f64,
            StatValue::F64(f) => f,
        })
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, (String, StatValue)> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl From<Vec<(String, StatValue)>> for MetricSet {
    fn from(entries: Vec<(String, StatValue)>) -> Self {
        Self { entries }
    }
}

impl FromIterator<(String, StatValue)> for MetricSet {
    fn from_iter<T: IntoIterator<Item = (String, StatValue)>>(iter: T) -> Self {
        Self {
            entries: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for MetricSet {
    type Item = (String, StatValue);
    type IntoIter = std::vec::IntoIter<(String, StatValue)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a MetricSet {
    type Item = &'a (String, StatValue);
    type IntoIter = std::slice::Iter<'a, (String, StatValue)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl DeviceStats {
    /// Every statistic as a named entry, in a fixed documented order — the
    /// single source of truth for serializers (the `figures` sweep harness)
    /// and table printers, so adding a field here is the only step needed
    /// to get it into emitted results.
    ///
    /// This is the workspace-wide metrics shape: `Fleet::metrics`,
    /// `ServeReport::metrics`, and `TenantReport::metrics` (in
    /// `m2ndp_host::serve`) return the same [`MetricSet`], so the figure
    /// emitters and the `m2ndp-trace` CLI read one API.
    pub fn metrics(&self) -> MetricSet {
        MetricSet::from(vec![
            ("cycles".to_string(), StatValue::U64(self.cycles)),
            ("dram_bytes".to_string(), StatValue::U64(self.dram_bytes)),
            (
                "dram_row_hit_rate".to_string(),
                StatValue::F64(self.dram_row_hit_rate),
            ),
            (
                "dram_bw_utilization".to_string(),
                StatValue::F64(self.dram_bw_utilization),
            ),
            (
                "link_m2s_bytes".to_string(),
                StatValue::U64(self.link_m2s_bytes),
            ),
            (
                "link_s2m_bytes".to_string(),
                StatValue::U64(self.link_s2m_bytes),
            ),
            ("l2_accesses".to_string(), StatValue::U64(self.l2_accesses)),
            ("l2_hit_rate".to_string(), StatValue::F64(self.l2_hit_rate)),
            ("instrs".to_string(), StatValue::U64(self.instrs)),
            ("mem_reqs".to_string(), StatValue::U64(self.mem_reqs)),
            ("spad_bytes".to_string(), StatValue::U64(self.spad_bytes)),
            ("l1_hits".to_string(), StatValue::U64(self.l1_hits)),
            ("bi_snoops".to_string(), StatValue::U64(self.bi_snoops)),
        ])
    }
}

impl m2ndp_sim::Snapshot for DeviceStats {
    /// Monotone counts subtract; the derived ratios (`dram_row_hit_rate`,
    /// `dram_bw_utilization`, `l2_hit_rate`) cannot be un-averaged, so the
    /// delta keeps the end-of-interval cumulative value.
    fn delta_since(&self, baseline: &Self) -> Self {
        DeviceStats {
            cycles: self.cycles.saturating_sub(baseline.cycles),
            dram_bytes: self.dram_bytes.saturating_sub(baseline.dram_bytes),
            dram_row_hit_rate: self.dram_row_hit_rate,
            dram_bw_utilization: self.dram_bw_utilization,
            link_m2s_bytes: self.link_m2s_bytes.saturating_sub(baseline.link_m2s_bytes),
            link_s2m_bytes: self.link_s2m_bytes.saturating_sub(baseline.link_s2m_bytes),
            l2_accesses: self.l2_accesses.saturating_sub(baseline.l2_accesses),
            l2_hit_rate: self.l2_hit_rate,
            instrs: self.instrs.saturating_sub(baseline.instrs),
            mem_reqs: self.mem_reqs.saturating_sub(baseline.mem_reqs),
            spad_bytes: self.spad_bytes.saturating_sub(baseline.spad_bytes),
            l1_hits: self.l1_hits.saturating_sub(baseline.l1_hits),
            bi_snoops: self.bi_snoops.saturating_sub(baseline.bi_snoops),
        }
    }
}

/// The CXL-M²NDP device.
#[derive(Debug)]
pub struct CxlM2ndpDevice {
    cfg: M2ndpConfig,
    /// The M²µthread engine (public for occupancy sampling, Fig. 6a).
    pub engine: Engine,
    mem: MainMemory,
    registry: KernelRegistry,
    filter: PacketFilter,
    link: CxlLink,
    local: MemSystem,
    remote: Option<MemSystem>,
    bi: BackInvalidation,
    ids: ReqIdAllocator,
    next_instance: u32,
    now: Cycle,
    /// Deliveries scheduled back to engine units.
    unit_deliveries: EventQueue<(usize, RequestKind, u64)>,
    /// Completed host requests awaiting link transmission to the host
    /// (keyed by the cycle the response leaves the device core).
    host_done: EventQueue<MemReq>,
    /// Host-visible completions (after s2m link), popped by host models.
    host_completions: EventQueue<MemReq>,
    /// Host CXL.mem requests travelling m2s (arrival, req).
    host_inbound: EventQueue<MemReq>,
    /// M²func return-value storage per (asid, offset).
    m2func_returns: HashMap<(u16, u64), i64>,
    /// Host reads served per cycle cap bookkeeping.
    pub stats_extra: Counter,
    /// Opt-in trace sink (off by default; see [`m2ndp_sim::trace`]).
    tracer: Tracer,
    /// Device index stamped on emitted trace events.
    trace_dev: u32,
}

impl CxlM2ndpDevice {
    /// Builds a device. `remote_cxl` attaches a remote passive memory
    /// behind the link for [`REMOTE_WINDOW_BASE`] addresses (the GPU-host
    /// configuration).
    pub fn new(cfg: M2ndpConfig) -> Self {
        let units = cfg.engine.units as usize;
        let engine = Engine::new(cfg.engine.clone());
        let local = MemSystem::new(&cfg, units + 1); // +1 = CXL/host port
        let bi = BackInvalidation::new(cfg.dirty_host_ratio, cfg.link.one_way_ns, cfg.engine.freq);
        let link = CxlLink::new(cfg.link, cfg.engine.freq);
        Self {
            engine,
            mem: MainMemory::new(),
            registry: KernelRegistry::new(),
            filter: PacketFilter::new(),
            link,
            local,
            remote: None,
            bi,
            ids: ReqIdAllocator::new(),
            next_instance: 0,
            now: 0,
            unit_deliveries: EventQueue::new(),
            host_done: EventQueue::new(),
            host_completions: EventQueue::new(),
            host_inbound: EventQueue::new(),
            m2func_returns: HashMap::new(),
            stats_extra: Counter::new(),
            tracer: Tracer::off(),
            trace_dev: 0,
            cfg,
        }
    }

    // ----- tracing -----

    /// Attaches a trace sink; events are stamped with device index
    /// `device`. Also turns on the engine's event recording. Attaching a
    /// disabled sink (e.g. [`m2ndp_sim::trace::NullSink`]) leaves tracing
    /// off entirely.
    pub fn set_tracer(&mut self, device: u32, sink: Box<dyn TraceSink>) {
        self.tracer = Tracer::new(sink);
        self.trace_dev = device;
        self.engine.set_trace(self.tracer.on());
    }

    /// Whether tracing is on.
    pub fn tracing(&self) -> bool {
        self.tracer.on()
    }

    /// Direct access to the tracer (fleet/serve layers emit switch and
    /// request events through the owning device's sink).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The device index stamped on this device's trace events.
    pub fn trace_device(&self) -> u32 {
        self.trace_dev
    }

    /// Drains buffered engine events into the sink, then detaches it and
    /// returns everything it recorded (tracing is off afterwards).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.drain_engine_trace();
        self.engine.set_trace(false);
        self.tracer.finish()
    }

    /// Converts queued engine cycle-domain events to wall-ns trace events.
    fn drain_engine_trace(&mut self) {
        if !self.tracer.on() || !self.engine.trace_on() {
            return;
        }
        let freq = self.cfg.engine.freq;
        let dev = self.trace_dev;
        for ev in self.engine.take_trace() {
            let (ts_ns, lane, kind) = match ev {
                EngineEvent::Launched {
                    at,
                    instance,
                    kernel,
                } => (
                    freq.ns_from_cycles(at),
                    Lane::Controller,
                    EventKind::KernelLaunch {
                        instance,
                        kernel,
                        name: self.kernel_name(kernel),
                    },
                ),
                EngineEvent::Retired {
                    at,
                    instance,
                    kernel,
                    started,
                } => (
                    freq.ns_from_cycles(started),
                    Lane::Controller,
                    EventKind::KernelRun {
                        instance,
                        kernel,
                        name: self.kernel_name(kernel),
                        dur_ns: freq.ns_from_cycles(at.saturating_sub(started)),
                    },
                ),
                EngineEvent::WaveSpawn {
                    at,
                    unit,
                    instance,
                    count,
                } => (
                    freq.ns_from_cycles(at),
                    Lane::Unit(unit as u16),
                    EventKind::WaveSpawn { instance, count },
                ),
                EngineEvent::WaveDrain { at, instance } => (
                    freq.ns_from_cycles(at),
                    Lane::Controller,
                    EventKind::WaveDrain { instance },
                ),
            };
            self.tracer.emit(|| TraceEvent {
                ts_ns,
                device: dev,
                lane,
                kind,
            });
        }
    }

    /// Registered kernel name for trace annotation (`k<id>` if the kernel
    /// was unregistered since launch).
    fn kernel_name(&self, kernel: u32) -> String {
        self.registry
            .get(KernelId(kernel))
            .map_or_else(|| format!("k{kernel}"), |s| s.name.clone())
    }

    /// Canonical disassembly of every registered kernel body, in id order:
    /// `(kernel id, name, disassembly)`. Exported alongside traces so kernel
    /// spans can be annotated at instruction level (kernels whose bodies the
    /// disassembler cannot render canonically are skipped).
    pub fn kernel_disassembly(&self) -> Vec<(u32, String, String)> {
        self.registry
            .iter()
            .filter_map(|(id, spec)| {
                m2ndp_riscv::disassemble(&spec.body)
                    .ok()
                    .map(|text| (id.0, spec.name.clone(), text))
            })
            .collect()
    }

    /// Attaches a remote passive CXL memory (its own L2 + DRAM) reached over
    /// the link for addresses at/above [`REMOTE_WINDOW_BASE`].
    pub fn with_remote_cxl(mut self, remote_cfg: M2ndpConfig) -> Self {
        let units = self.cfg.engine.units as usize;
        self.remote = Some(MemSystem::new(&remote_cfg, units + 1));
        self
    }

    /// The functional memory (workload generators populate it here).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// Read-only functional memory access (verification).
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Current device cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &M2ndpConfig {
        &self.cfg
    }

    /// The ingress packet filter (driver-level setup, §III-B).
    pub fn packet_filter_mut(&mut self) -> &mut PacketFilter {
        &mut self.filter
    }

    /// Registers an NDP kernel (the `ndpRegisterKernel` M²func; the code
    /// was previously placed in device memory by the host runtime).
    pub fn register_kernel(&mut self, spec: KernelSpec) -> KernelId {
        self.registry.register(spec)
    }

    /// Unregisters a kernel and flushes instruction caches (§III-F).
    pub fn unregister_kernel(&mut self, id: KernelId) -> bool {
        self.registry.unregister(id)
    }

    /// Launches a kernel instance directly at the NDP controller (the
    /// offload mechanism latencies are composed by the host models).
    ///
    /// # Errors
    /// Returns `Err` when the kernel id is unknown or the launch buffer is
    /// full.
    pub fn launch(&mut self, args: LaunchArgs) -> Result<KernelInstanceId, crate::NdpApiError> {
        let spec = self
            .registry
            .get_shared(args.kernel_id)
            .ok_or(crate::NdpApiError::UnknownKernel)?;
        let id = KernelInstanceId(self.next_instance);
        if !self.engine.launch(self.now, id, spec, args) {
            return Err(crate::NdpApiError::LaunchBufferFull);
        }
        self.next_instance += 1;
        Ok(id)
    }

    /// Kernel instance status (`ndpPollKernelStatus`).
    pub fn poll(&self, id: KernelInstanceId) -> Option<InstanceStatus> {
        self.engine.status(id)
    }

    /// Completion cycle of an instance.
    pub fn finished_at(&self, id: KernelInstanceId) -> Option<Cycle> {
        self.engine.finished_at(id)
    }

    /// Admitted, unfinished kernel instances (bounded by the launch
    /// buffer, `max_concurrent_kernels`).
    pub fn resident_instances(&self) -> usize {
        self.engine.resident_instances()
    }

    /// Dispatches a decoded M²func call (the NDP-controller half of the
    /// Table II protocol): performs the action and stores the return value
    /// at the caller's region offset, where a subsequent CXL.mem read
    /// fetches it (§III-B).
    pub fn handle_m2func_call(
        &mut self,
        asid: u16,
        call: crate::m2func::M2FuncCall,
        privileged: bool,
    ) -> i64 {
        use crate::m2func::{M2Func, M2FuncCall, NdpApiError};
        let (offset, ret) = match call {
            M2FuncCall::LaunchKernel(args) => (
                M2Func::LaunchKernel.offset(),
                match self.launch(args) {
                    Ok(id) => id.0 as i64,
                    Err(e) => e.code(),
                },
            ),
            M2FuncCall::PollKernelStatus(id) => (
                M2Func::PollKernelStatus.offset(),
                match self.poll(id) {
                    Some(s) => s.code(),
                    None => NdpApiError::UnknownInstance.code(),
                },
            ),
            M2FuncCall::UnregisterKernel(id) => (
                M2Func::UnregisterKernel.offset(),
                if self.unregister_kernel(id) {
                    0
                } else {
                    NdpApiError::UnknownKernel.code()
                },
            ),
            M2FuncCall::RegisterKernel { .. } => {
                // The kernel code itself is registered through
                // `register_kernel` (the model's stand-in for code placed in
                // device memory); the packet path only allocates the id.
                (
                    M2Func::RegisterKernel.offset(),
                    NdpApiError::BadArguments.code(),
                )
            }
            M2FuncCall::ShootdownTlbEntry { .. } => (
                M2Func::ShootdownTlbEntry.offset(),
                if privileged {
                    0
                } else {
                    NdpApiError::NotPrivileged.code()
                },
            ),
        };
        self.set_m2func_return(asid, offset, ret);
        ret
    }

    /// Performs a kernel launch through the full M²func wire protocol:
    /// the arguments are encoded into the CXL.mem write payload
    /// ([`crate::m2func::encode_launch`]), the controller decodes and
    /// dispatches the call, and the return value is left at the caller's
    /// region offset (where a subsequent host read fetches it, Table II).
    /// The single implementation behind both the standalone-device and
    /// fleet serving paths, so the wire convention cannot diverge.
    ///
    /// # Errors
    /// Whatever error code the controller returned on the wire.
    pub fn m2func_launch(
        &mut self,
        asid: u16,
        args: LaunchArgs,
    ) -> Result<KernelInstanceId, crate::NdpApiError> {
        let words = crate::m2func::encode_launch(&args);
        let call = crate::m2func::M2FuncCall::LaunchKernel(crate::m2func::decode_launch(&words)?);
        let ret = self.handle_m2func_call(asid, call, false);
        if let Some(err) = crate::NdpApiError::from_code(ret) {
            return Err(err);
        }
        Ok(KernelInstanceId(
            u32::try_from(ret).map_err(|_| crate::NdpApiError::BadArguments)?,
        ))
    }

    /// Stores an M²func return value (visible to subsequent host reads of
    /// the same region offset).
    pub fn set_m2func_return(&mut self, asid: u16, offset: u64, value: i64) {
        self.m2func_returns.insert((asid, offset), value);
    }

    /// Reads back an M²func return value.
    pub fn m2func_return(&self, asid: u16, offset: u64) -> Option<i64> {
        self.m2func_returns.get(&(asid, offset)).copied()
    }

    // ----- host CXL.mem traffic -----

    /// Host submits a CXL.mem request (read or write of ≤64 B). Returns the
    /// request id; the completion surfaces from [`Self::pop_host_completion`]
    /// after the full link + device round trip.
    pub fn host_submit(&mut self, now: Cycle, addr: u64, bytes: u32, write: bool) -> ReqId {
        let id = self.ids.alloc();
        let req = if write {
            MemReq::write(id, addr, bytes, ReqSource::Host)
        } else {
            MemReq::read(id, addr, bytes, ReqSource::Host)
        };
        let pkt = if write {
            CxlMemPacket::write(req)
        } else {
            CxlMemPacket::read(req)
        };
        let arrival = self.link.send_m2s(now, pkt);
        self.host_inbound.schedule(arrival, req);
        id
    }

    /// Pops a host request whose response has arrived back at the host.
    pub fn pop_host_completion(&mut self, now: Cycle) -> Option<MemReq> {
        self.host_completions.pop_due(now).map(|(_, r)| r)
    }

    // ----- simulation -----

    /// Advances the device one cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        self.engine.tick(now, &mut self.mem);
        if self.tracer.on() {
            self.drain_engine_trace();
        }
        self.route_engine_requests(now);
        self.accept_host_packets(now);
        self.run_mem_system(now, /*remote=*/ false);
        if self.remote.is_some() {
            self.run_mem_system(now, true);
        }
        self.deliver_to_units(now);
        self.transmit_host_responses(now);
        self.now += 1;
    }

    /// Runs until the engine is idle and all traffic has drained, returning
    /// the cycle at which everything completed. Fast-forwards across idle
    /// gaps (latency-bound phases).
    pub fn run_until_idle(&mut self) -> Cycle {
        let mut guard = 0u64;
        loop {
            self.tick();
            guard += 1;
            assert!(
                guard < 2_000_000_000,
                "device did not reach idle (cycle {})",
                self.now
            );
            if self.engine.is_idle()
                && self.host_inbound.is_empty()
                && self.host_done.is_empty()
                && self.unit_deliveries.is_empty()
                && self
                    .local
                    .slices
                    .iter()
                    .all(|s| s.inbox.is_empty() && s.to_dram.is_empty())
                && self.local.dram.is_idle()
                && self
                    .remote
                    .as_ref()
                    .is_none_or(|r| r.slices.iter().all(|s| s.inbox.is_empty()) && r.dram.is_idle())
            {
                return self.now;
            }
            self.maybe_fast_forward();
        }
    }

    /// Runs until `instance` finishes (plus drain of its traffic is not
    /// required for the completion stamp). Returns the completion cycle.
    pub fn run_until_finished(&mut self, instance: KernelInstanceId) -> Cycle {
        let mut guard = 0u64;
        loop {
            if let Some(at) = self.engine.finished_at(instance) {
                return at;
            }
            self.tick();
            guard += 1;
            assert!(guard < 2_000_000_000, "instance never finished");
            self.maybe_fast_forward();
        }
    }

    /// Jumps `now` forward to the next scheduled event when the engine has
    /// nothing ready this cycle.
    fn maybe_fast_forward(&mut self) {
        if self.engine.has_ready() {
            return;
        }
        let mut next: Option<Cycle> = None;
        let mut fold = |c: Option<Cycle>| {
            if let Some(c) = c {
                next = Some(next.map_or(c, |n: Cycle| n.min(c)));
            }
        };
        fold(self.engine.next_wake());
        fold(self.unit_deliveries.next_cycle());
        fold(self.host_inbound.next_cycle());
        fold(self.host_completions.next_cycle());
        fold(self.local.dram.next_event_cycle());
        for s in &self.local.slices {
            fold(s.inbox.next_cycle());
            if !s.to_dram.is_empty() {
                return; // work pending this cycle
            }
        }
        if let Some(r) = &self.remote {
            fold(r.dram.next_event_cycle());
            for s in &r.slices {
                fold(s.inbox.next_cycle());
            }
        }
        fold(self.host_done.next_cycle());
        if let Some(next) = next {
            if next > self.now + 1 {
                self.now = next;
            }
        }
    }

    fn route_engine_requests(&mut self, now: Cycle) {
        let units = self.cfg.engine.units as usize;
        for unit in 0..units {
            while let Some(req) = self.engine.pop_outbound(unit) {
                self.route_one(now, unit, req);
            }
        }
    }

    fn route_one(&mut self, now: Cycle, unit: usize, req: UnitRequest) {
        // Back-invalidation check for reads of host-dirty lines: the device
        // snoops the host (S2M BISnp) and the host supplies the line over
        // the link (M2S write), bypassing device DRAM but consuming link
        // bandwidth in both directions (§II-B; Fig. 13b's limit study).
        if !req.write && self.cfg.dirty_host_ratio > 0.0 && req.addr < REMOTE_WINDOW_BASE {
            let outcome = self.bi.on_device_access(req.addr);
            if outcome.host_supplies_data {
                let kind = req.kind;
                let snoop = CxlMemPacket {
                    kind: m2ndp_cxl::PacketKind::BackInvSnoop,
                    req: MemReq::read(self.ids.alloc(), req.addr, req.bytes, ReqSource::Internal),
                };
                let snooped = self.link.send_s2m(now, snoop);
                let supply = CxlMemPacket::write(MemReq::write(
                    self.ids.alloc(),
                    req.addr,
                    64,
                    ReqSource::Host,
                ));
                let supplied = self.link.send_m2s(snooped, supply);
                self.unit_deliveries.schedule(
                    supplied.max(now + outcome.extra_latency),
                    (unit, kind, req.addr),
                );
                return;
            }
        }
        let remote = req.addr >= REMOTE_WINDOW_BASE
            || (self.cfg.workload_data_remote && req.addr < crate::tlb::DRAM_TLB_BASE);
        let sys = if remote {
            self.remote
                .as_mut()
                .expect("remote window access without remote memory")
        } else {
            &mut self.local
        };
        let channel = sys.dram.channel_of(req.addr) as usize;
        let mut arrival = sys.xbar_req.route(now, unit, channel, req.bytes);
        if remote {
            // Crossing the CXL link to the peer/expander memory.
            let id = self.ids.alloc();
            let mreq = MemReq::read(id, req.addr, req.bytes, ReqSource::Peer { device: 0 });
            let pkt = if req.write {
                CxlMemPacket::write(mreq)
            } else {
                CxlMemPacket::read(mreq)
            };
            arrival = self.link.send_m2s(arrival, pkt).max(arrival);
            if self.cfg.charge_remote_responses && !req.write {
                // The returning data shares the pull path's bandwidth (the
                // switch ports in the §III-J configuration). Charged at
                // request time: for the streaming workloads this models,
                // completion is set by the bottleneck gate's serialization,
                // which is order-independent.
                let resp = CxlMemPacket::data_response(MemReq::read(
                    self.ids.alloc(),
                    req.addr,
                    req.bytes,
                    ReqSource::Peer { device: 0 },
                ));
                arrival = self.link.send_s2m(arrival, resp);
            }
        }
        let token = L2Token {
            dest: L2Dest::Unit {
                unit: unit as u16,
                kind: req.kind,
            },
            addr: req.addr,
            bytes: req.bytes,
        };
        let sys = if remote {
            self.remote.as_mut().expect("checked")
        } else {
            &mut self.local
        };
        sys.slices[channel].inbox.schedule(
            arrival,
            L2Work {
                addr: req.addr,
                bytes: req.bytes,
                // AMOs arrive with write=true; the L2 charges them as
                // ordinary writes and the executor applies the atomic.
                write: req.write,
                token,
            },
        );
    }

    fn accept_host_packets(&mut self, now: Cycle) {
        while let Some((_, req)) = self.host_inbound.pop_due(now) {
            // Packet filter: M²func region accesses never reach memory.
            if let Some(m) = self.filter.matches(req.addr) {
                // Reads return the stored value; both directions are acked.
                // (Function decode/dispatch happens at the API layer; the
                // packet path charges the timing.)
                let _ = m;
                self.host_done.schedule(now, req);
                continue;
            }
            let channel = self.local.dram.channel_of(req.addr) as usize;
            let host_port = self.cfg.engine.units as usize;
            let arrival = self
                .local
                .xbar_req
                .route(now, host_port, channel, req.bytes);
            self.local.slices[channel].inbox.schedule(
                arrival,
                L2Work {
                    addr: req.addr,
                    bytes: req.bytes,
                    write: req.write,
                    token: L2Token {
                        dest: L2Dest::Host {
                            id: req.id,
                            write: req.write,
                        },
                        addr: req.addr,
                        bytes: req.bytes,
                    },
                },
            );
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run_mem_system(&mut self, now: Cycle, remote: bool) {
        let host_port = self.cfg.engine.units as usize;
        let sys = if remote {
            self.remote.as_mut().expect("remote")
        } else {
            &mut self.local
        };
        // 1. L2 slices consume due work.
        for slice_idx in 0..sys.slices.len() {
            // Retry DRAM-blocked fetches first.
            let slice = &mut sys.slices[slice_idx];
            let mut still_blocked = Vec::new();
            for r in slice.to_dram.drain(..) {
                if let Err(r) = sys.dram.enqueue(now, r) {
                    still_blocked.push(r);
                }
            }
            sys.slices[slice_idx].to_dram = still_blocked;

            while let Some((_, work)) = sys.slices[slice_idx].inbox.pop_due(now) {
                let slice = &mut sys.slices[slice_idx];
                // Sub-sector and multi-sector host accesses are handled at
                // sector granularity by the sectored cache directly.
                let result = slice.cache.access(
                    now,
                    Access {
                        addr: work.addr,
                        bytes: work.bytes.min(128),
                        write: work.write,
                    },
                    work.token,
                );
                // Stalled accesses retry next cycle; only resolved ones
                // trace (so hit + miss event counts match the stats).
                let resolved_hit = match &result {
                    CacheResult::Hit { .. } | CacheResult::WriteForward { .. } => Some(true),
                    CacheResult::Miss { .. } | CacheResult::MergedMiss => Some(false),
                    CacheResult::Stalled => None,
                };
                if let Some(hit) = resolved_hit {
                    self.tracer.emit(|| TraceEvent {
                        ts_ns: self.cfg.engine.freq.ns_from_cycles(now),
                        device: self.trace_dev,
                        lane: Lane::L2Slice(slice_idx as u16),
                        kind: EventKind::L2Access {
                            hit,
                            addr: work.addr,
                        },
                    });
                }
                match result {
                    CacheResult::Hit { ready_at } | CacheResult::WriteForward { ready_at } => {
                        Self::respond(
                            &mut sys.xbar_resp,
                            &mut self.unit_deliveries,
                            &mut self.host_done,
                            host_port,
                            ready_at,
                            work.token,
                        );
                    }
                    CacheResult::MergedMiss => {}
                    CacheResult::Miss { fetches, writeback } => {
                        for f in fetches {
                            let id = self.ids.alloc();
                            let r = MemReq::read(id, f, SECTOR_BYTES as u32, ReqSource::Internal);
                            sys.dram_origin.insert(
                                id,
                                DramOrigin::L2Fill {
                                    slice: slice_idx as u16,
                                },
                            );
                            if let Err(r) = sys.dram.enqueue(now, r) {
                                sys.slices[slice_idx].to_dram.push(r);
                            }
                        }
                        if let Some((wb_addr, wb_bytes)) = writeback {
                            self.tracer.emit(|| TraceEvent {
                                ts_ns: self.cfg.engine.freq.ns_from_cycles(now),
                                device: self.trace_dev,
                                lane: Lane::L2Slice(slice_idx as u16),
                                kind: EventKind::L2Evict {
                                    addr: wb_addr,
                                    bytes: wb_bytes,
                                },
                            });
                            let id = self.ids.alloc();
                            let r = MemReq::write(id, wb_addr, wb_bytes, ReqSource::Internal);
                            sys.dram_origin.insert(id, DramOrigin::Drain);
                            if let Err(r) = sys.dram.enqueue(now, r) {
                                sys.slices[slice_idx].to_dram.push(r);
                            }
                        }
                        // Write-allocate misses complete locally via the
                        // cache's ready queue (no fetch needed for full-
                        // sector writes) — drained below with fills.
                    }
                    CacheResult::Stalled => {
                        // Retry next cycle.
                        sys.slices[slice_idx].inbox.schedule(now + 1, work);
                    }
                }
            }
            // Drain waiters whose fills (or write-allocates) matured.
            while let Some(token) = sys.slices[slice_idx].cache.pop_ready(now) {
                Self::respond(
                    &mut sys.xbar_resp,
                    &mut self.unit_deliveries,
                    &mut self.host_done,
                    host_port,
                    now,
                    token,
                );
            }
        }

        // 2. DRAM.
        sys.dram.tick(now);
        while let Some(done) = sys.dram.pop_completed(now) {
            self.tracer.emit(|| TraceEvent {
                ts_ns: self.cfg.engine.freq.ns_from_cycles(now),
                device: self.trace_dev,
                lane: Lane::DramChannel(sys.dram.channel_of(done.addr) as u16),
                kind: EventKind::DramTxn {
                    bytes: done.bytes,
                    write: done.write,
                },
            });
            match sys.dram_origin.remove(&done.id) {
                Some(DramOrigin::L2Fill { slice }) => {
                    let s = &mut sys.slices[slice as usize];
                    s.cache.fill(now, done.addr);
                    while let Some(token) = s.cache.pop_ready(now) {
                        Self::respond(
                            &mut sys.xbar_resp,
                            &mut self.unit_deliveries,
                            &mut self.host_done,
                            host_port,
                            now,
                            token,
                        );
                    }
                }
                Some(DramOrigin::Drain) | None => {}
            }
        }
    }

    /// Routes an L2 response to its destination.
    fn respond(
        xbar_resp: &mut Crossbar,
        unit_deliveries: &mut EventQueue<(usize, RequestKind, u64)>,
        host_done: &mut EventQueue<MemReq>,
        host_port: usize,
        ready_at: Cycle,
        token: L2Token,
    ) {
        match token.dest {
            L2Dest::Unit { unit, kind } => {
                if matches!(kind, RequestKind::Posted) {
                    return;
                }
                let arrival = xbar_resp.route(ready_at, 0, unit as usize, token.bytes);
                unit_deliveries.schedule(arrival, (unit as usize, kind, token.addr));
            }
            L2Dest::Host { id, write } => {
                let arrival = xbar_resp.route(ready_at, 0, host_port, token.bytes);
                let req = if write {
                    MemReq::write(id, token.addr, token.bytes, ReqSource::Host)
                } else {
                    MemReq::read(id, token.addr, token.bytes, ReqSource::Host)
                };
                host_done.schedule(arrival, req);
            }
        }
    }

    fn deliver_to_units(&mut self, now: Cycle) {
        while let Some((_, (unit, kind, addr))) = self.unit_deliveries.pop_due(now) {
            self.engine.deliver(now, unit, kind, addr);
        }
    }

    fn transmit_host_responses(&mut self, now: Cycle) {
        while let Some((_, req)) = self.host_done.pop_due(now) {
            let pkt = if req.write {
                CxlMemPacket::ack(req)
            } else {
                CxlMemPacket::data_response(req)
            };
            let arrival = self.link.send_s2m(now, pkt);
            self.host_completions.schedule(arrival, req);
        }
    }

    /// A cheap rolling fingerprint of the device's observable simulation
    /// state: engine occupancy and slot bookkeeping, L1D and L2 line
    /// states, DRAM request queues, and every device-level event-queue
    /// depth. Two devices driven by identical inputs must fingerprint
    /// identically at every cycle — the refactor-equivalence invariant the
    /// hot-path rewrites are held to (see `m2ndp_sim::fingerprint`).
    /// Pair it with [`CxlM2ndpDevice::stats`] snapshots when bisecting a
    /// divergence: statistics tell you *how much* ran, the fingerprint
    /// tells you *whether the state is still the same*.
    pub fn state_fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.mix(self.now);
        self.engine.fingerprint(&mut fp);
        Self::fingerprint_mem_system(&self.local, &mut fp);
        match &self.remote {
            Some(sys) => {
                fp.mix(1);
                Self::fingerprint_mem_system(sys, &mut fp);
            }
            None => fp.mix(0),
        }
        self.unit_deliveries.fingerprint(&mut fp);
        self.host_done.fingerprint(&mut fp);
        self.host_completions.fingerprint(&mut fp);
        self.host_inbound.fingerprint(&mut fp);
        fp.value()
    }

    fn fingerprint_mem_system(sys: &MemSystem, fp: &mut Fingerprint) {
        fp.mix(sys.slices.len() as u64);
        for slice in &sys.slices {
            slice.cache.fingerprint(fp);
            slice.inbox.fingerprint(fp);
            // Retry order is the drain order, so it is observable.
            fp.mix(slice.to_dram.len() as u64);
            for req in &slice.to_dram {
                fp.mix(req.id.0);
            }
        }
        sys.dram.fingerprint(fp);
    }

    /// Snapshot of the statistics used by figures and the energy model.
    pub fn stats(&self) -> DeviceStats {
        let l2_hits: u64 = self
            .local
            .slices
            .iter()
            .map(|s| s.cache.stats().hits.get())
            .sum();
        let l2_total: u64 = self
            .local
            .slices
            .iter()
            .map(|s| {
                let st = s.cache.stats();
                st.hits.get() + st.misses.get() + st.merged.get() + st.write_forwards.get()
            })
            .sum();
        DeviceStats {
            cycles: self.now,
            dram_bytes: self.local.dram.total_bytes(),
            dram_row_hit_rate: self.local.dram.row_hit_rate(),
            dram_bw_utilization: self.local.dram.bw_utilization(self.now),
            link_m2s_bytes: self.link.m2s_bytes(),
            link_s2m_bytes: self.link.s2m_bytes(),
            l2_accesses: l2_total,
            l2_hit_rate: if l2_total == 0 {
                0.0
            } else {
                l2_hits as f64 / l2_total as f64
            },
            instrs: self.engine.stats.instrs.get(),
            mem_reqs: self.engine.stats.mem_reqs.get(),
            spad_bytes: self.engine.spad_traffic_bytes(),
            l1_hits: self.engine.stats.l1_hits.get(),
            bi_snoops: self.bi.snoops.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::M2ndpConfig;
    use m2ndp_riscv::assemble;

    fn small_device() -> CxlM2ndpDevice {
        let mut cfg = M2ndpConfig::default_device();
        cfg.engine.units = 4;
        CxlM2ndpDevice::new(cfg)
    }

    fn vec_double() -> KernelSpec {
        KernelSpec::body_only(
            "vec_double",
            assemble(
                "vsetvli x0, x0, e32, m1
                 vle32.v v1, (x1)
                 vadd.vv v1, v1, v1
                 vse32.v v1, (x1)
                 halt",
            )
            .unwrap(),
        )
    }

    #[test]
    fn end_to_end_kernel_on_device_dram() {
        let mut dev = small_device();
        let base = 0x40_0000u64;
        let elems = 8192u64;
        for i in 0..elems {
            dev.memory_mut().write_u32(base + i * 4, i as u32);
        }
        let kid = dev.register_kernel(vec_double());
        let inst = dev
            .launch(LaunchArgs::new(kid, base, base + elems * 4))
            .unwrap();
        let done = dev.run_until_finished(inst);
        assert!(done > 0);
        for i in 0..elems {
            assert_eq!(dev.memory().read_u32(base + i * 4), 2 * i as u32);
        }
        let stats = dev.stats();
        // Every element is read once from DRAM (writes may legitimately
        // still sit dirty in the 4 MB memory-side L2 at the end of the run).
        assert!(
            stats.dram_bytes >= elems * 4,
            "dram bytes {} too low",
            stats.dram_bytes
        );
        // No host involvement: link stays quiet.
        assert_eq!(stats.link_m2s_bytes, 0);
    }

    #[test]
    fn lockstep_devices_fingerprint_identically() {
        // Two devices driven by identical inputs must agree on the state
        // fingerprint at every cycle; the fingerprint must also actually
        // move once work is in flight (it is not a constant).
        let build = || {
            let mut dev = small_device();
            let base = 0x40_0000u64;
            for i in 0..256u64 {
                dev.memory_mut().write_u32(base + i * 4, i as u32);
            }
            let kid = dev.register_kernel(vec_double());
            dev.launch(LaunchArgs::new(kid, base, base + 256 * 4))
                .unwrap();
            dev
        };
        let mut a = build();
        let mut b = build();
        let idle_fp = a.state_fingerprint();
        assert_eq!(idle_fp, b.state_fingerprint());
        let mut moved = false;
        for _ in 0..2_000 {
            a.tick();
            b.tick();
            let fa = a.state_fingerprint();
            assert_eq!(fa, b.state_fingerprint(), "diverged at cycle {}", a.now());
            moved |= fa != idle_fp;
        }
        assert!(moved, "fingerprint never changed while a kernel ran");
    }

    #[test]
    fn host_read_takes_load_to_use_latency() {
        let mut dev = small_device();
        dev.memory_mut().write_u64(0x1000, 42);
        let submit_at = dev.now();
        dev.host_submit(submit_at, 0x1000, 64, false);
        let mut done_at = None;
        for _ in 0..100_000 {
            dev.tick();
            if dev.pop_host_completion(dev.now()).is_some() {
                done_at = Some(dev.now());
                break;
            }
        }
        let done_at = done_at.expect("host read completed");
        let ltu = done_at - submit_at;
        // 150 ns load-to-use at 2 GHz = 300 cycles, plus device-internal
        // DRAM access; must be ≥ 300 and within a few hundred cycles of it.
        assert!(ltu >= 300, "LtU too small: {ltu}");
        assert!(ltu < 800, "LtU too large: {ltu}");
    }

    #[test]
    fn host_write_gets_ack() {
        let mut dev = small_device();
        dev.host_submit(0, 0x2000, 64, true);
        let mut acked = false;
        for _ in 0..100_000 {
            dev.tick();
            if let Some(r) = dev.pop_host_completion(dev.now()) {
                assert!(r.write);
                acked = true;
                break;
            }
        }
        assert!(acked);
    }

    #[test]
    fn m2func_region_accesses_bypass_memory() {
        let mut dev = small_device();
        dev.packet_filter_mut()
            .insert(m2ndp_cxl::FilterEntry {
                base: 0x10000,
                bound: 0x20000,
                asid: m2ndp_cxl::filter::Asid(7),
            })
            .unwrap();
        dev.host_submit(0, 0x10040, 64, true);
        let mut acked = false;
        for _ in 0..10_000 {
            dev.tick();
            if dev.pop_host_completion(dev.now()).is_some() {
                acked = true;
                break;
            }
        }
        assert!(acked, "m2func write acked");
        // Nothing reached DRAM for the filtered access.
        assert_eq!(dev.stats().dram_bytes, 0);
    }

    #[test]
    fn concurrent_host_traffic_and_kernel() {
        let mut dev = small_device();
        let base = 0x40_0000u64;
        for i in 0..2048u64 {
            dev.memory_mut().write_u32(base + i * 4, 1);
        }
        let kid = dev.register_kernel(vec_double());
        let inst = dev
            .launch(LaunchArgs::new(kid, base, base + 2048 * 4))
            .unwrap();
        // Host keeps reading unrelated memory while the kernel runs.
        let mut completions = 0;
        let mut submitted = 0;
        while dev.poll(inst) != Some(InstanceStatus::Finished) {
            if submitted < 64 {
                dev.host_submit(dev.now(), 0x8_0000 + submitted * 64, 64, false);
                submitted += 1;
            }
            dev.tick();
            if dev.pop_host_completion(dev.now()).is_some() {
                completions += 1;
            }
        }
        for _ in 0..200_000 {
            dev.tick();
            if dev.pop_host_completion(dev.now()).is_some() {
                completions += 1;
            }
            if completions == submitted {
                break;
            }
        }
        assert_eq!(completions, submitted);
        assert_eq!(dev.memory().read_u32(base), 2);
    }

    #[test]
    fn remote_window_routes_over_link() {
        // GPU-host style device: engine + local HBM + remote CXL memory.
        let mut cfg = M2ndpConfig::default_device();
        cfg.engine.units = 2;
        let mut dev = CxlM2ndpDevice::new(cfg.clone()).with_remote_cxl(cfg);
        let base = REMOTE_WINDOW_BASE + 0x10_0000;
        for i in 0..512u64 {
            dev.memory_mut().write_u32(base + i * 4, 5);
        }
        let kid = dev.register_kernel(vec_double());
        let inst = dev
            .launch(LaunchArgs::new(kid, base, base + 512 * 4))
            .unwrap();
        dev.run_until_finished(inst);
        assert_eq!(dev.memory().read_u32(base), 10);
        assert!(
            dev.stats().link_m2s_bytes > 0,
            "remote accesses must cross the link"
        );
    }

    #[test]
    fn dirty_host_cache_slows_kernel_but_stays_correct() {
        let run = |ratio: f64| {
            let mut cfg = M2ndpConfig::default_device();
            cfg.engine.units = 4;
            cfg.dirty_host_ratio = ratio;
            let mut dev = CxlM2ndpDevice::new(cfg);
            let base = 0x40_0000u64;
            for i in 0..4096u64 {
                dev.memory_mut().write_u32(base + i * 4, 3);
            }
            let kid = dev.register_kernel(vec_double());
            let inst = dev
                .launch(LaunchArgs::new(kid, base, base + 4096 * 4))
                .unwrap();
            let t = dev.run_until_finished(inst);
            assert_eq!(dev.memory().read_u32(base), 6);
            (t, dev.stats().bi_snoops)
        };
        let (t_clean, snoops_clean) = run(0.0);
        let (t_dirty, snoops_dirty) = run(0.8);
        assert_eq!(snoops_clean, 0);
        assert!(snoops_dirty > 0);
        // BI adds latency; with FGMT the impact is bounded (Fig. 13b shows
        // ≤26.5% at 80% dirty) but must not be negative.
        assert!(t_dirty >= t_clean, "dirty {t_dirty} vs clean {t_clean}");
    }

    #[test]
    fn launch_unknown_kernel_errors() {
        let mut dev = small_device();
        let err = dev
            .launch(LaunchArgs::new(KernelId(99), 0, 64))
            .unwrap_err();
        assert_eq!(err, crate::NdpApiError::UnknownKernel);
    }
}
