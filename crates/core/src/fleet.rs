//! A simulated multi-device fleet: N real [`CxlM2ndpDevice`] simulators
//! behind a [`CxlSwitch`] (§III-I), plus the M²NDP-in-switch configuration
//! over passive third-party memories (§III-J).
//!
//! Every shard runs on its own cycle-level device, M²func offloads are
//! routed to the owning device through the [`HdmRouter`] at 2 MB page
//! granularity and charged against the switch's per-port
//! [`m2ndp_sim::BandwidthGate`]s, and the tensor-parallel all-reduce crosses
//! the switch as actual P2P traffic ([`CxlSwitch::ring_allreduce`]).
//!
//! As in the paper's methodology (§IV-D), data is partitioned across
//! devices by software: each device's shard is generated directly into that
//! device's memory with device-local addresses (model parallelism for
//! DLRM/OPT), one kernel launch per device, and the fleet runtime is the
//! slowest shard plus any cross-device combining step.
//!
//! Everything is deterministic: each shard's simulation is self-contained
//! (its own device plus its own switch-port lane), so the fleet advances
//! independent devices **concurrently** on the shard-parallel pool
//! ([`m2ndp_sim::par`]) and merges results in index order — bit-identical
//! to the historical sequential execution at any [`Fleet::parallelism`]
//! setting, and reproducible regardless of how many sweep cells run
//! concurrently around it. The `M2NDP_FLEET_JOBS` environment variable
//! sets the default worker count (1 = serial) for every fleet built by
//! benches, examples, and tests; [`Fleet::set_parallelism`] overrides it.

use m2ndp_cxl::{CxlSwitch, HdmRouter, HostLane, SwitchConfig};
use m2ndp_sim::trace::{EventKind, Lane, TraceEvent, TraceSink};
use m2ndp_sim::{par, Cycle, Frequency};

use crate::config::M2ndpConfig;
use crate::device::{CxlM2ndpDevice, DeviceStats, MetricSet};
use crate::kernel::{KernelId, KernelInstanceId, KernelSpec, LaunchArgs};
use crate::NdpApiError;

/// Wire bytes one M²func launch store occupies on its way through the
/// switch (a 64 B CXL.mem RwD flit plus header, as in
/// [`m2ndp_cxl::CxlMemPacket`] accounting).
pub const M2FUNC_OFFLOAD_BYTES: u32 = 80;

// Shard-parallel execution moves whole device simulators (and shards of
// the switch) across pool workers; this pins the `Send` invariant at
// compile time so a future substrate type can't silently serialize the
// fleet again.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CxlM2ndpDevice>();
    assert_send::<Fleet>();
    assert_send::<FleetShard<'_>>();
};

/// Fleet parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of CXL-M²NDP devices behind the switch.
    pub devices: usize,
    /// Per-device configuration (every device is identical, Table IV).
    pub device: M2ndpConfig,
    /// The switch connecting them.
    pub switch: SwitchConfig,
    /// HDM capacity each device contributes (rounded up to 2 MB pages).
    pub hdm_bytes_per_device: u64,
}

impl FleetConfig {
    /// A fleet of `devices` paper-default devices behind the default
    /// switch, 16 GB of HDM each.
    pub fn new(devices: usize) -> Self {
        Self {
            devices,
            device: M2ndpConfig::default_device(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 16 << 30,
        }
    }
}

/// Where a device sits in the elastic add/drain lifecycle.
///
/// The fleet is built at its maximum size; elasticity is a *policy* layer
/// (the serving runtime's autoscaler) that tracks these states itself and
/// hands them to schedulers in a [`FleetView`]. The fleet's launch APIs
/// stay mechanical: the admission policy (never route new work to a
/// non-[`DeviceLifecycle::Active`] device) lives with the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceLifecycle {
    /// Accepting new work.
    Active,
    /// Stopped admitting; in-flight kernels are finishing.
    Draining,
    /// Idle and parked: no queue, no outstanding work. A drained device
    /// keeps its memory contents and statistics (they fold into
    /// [`Fleet::stats`] in index order like every other device's) and can
    /// be re-activated later.
    Drained,
}

/// A point-in-time, policy-facing snapshot of one device: what a serving
/// scheduler (`m2ndp_host::serve::Scheduler`) is allowed to know when
/// routing a request.
#[derive(Debug, Clone, Copy)]
pub struct DeviceView {
    /// Requests queued (admission backlog) on the device.
    pub queue_len: usize,
    /// Kernels currently in flight on the device.
    pub outstanding: u32,
    /// Kernel slots currently free.
    pub free_slots: u32,
    /// Lifecycle state.
    pub lifecycle: DeviceLifecycle,
}

impl DeviceView {
    /// Total pending work: backlog plus in-flight kernels (the
    /// shortest-queue routing load signal).
    pub fn load(&self) -> usize {
        self.queue_len + self.outstanding as usize
    }
}

/// A point-in-time snapshot of the whole fleet, handed to schedulers and
/// the autoscaler. Plain data: building one never perturbs the simulation,
/// and routing decisions derived from it are deterministic functions of
/// its contents.
#[derive(Debug, Clone)]
pub struct FleetView {
    /// One entry per device, in fleet index order.
    pub devices: Vec<DeviceView>,
}

impl FleetView {
    /// The active device with the least pending work (ties break toward
    /// the lowest index, keeping the choice deterministic). `None` only if
    /// no device is active.
    pub fn shortest_active(&self) -> Option<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.lifecycle == DeviceLifecycle::Active)
            .min_by_key(|(i, d)| (d.load(), *i))
            .map(|(i, _)| i)
    }

    /// The active device with the largest admission backlog, if any device
    /// has one (the work-stealing victim). Ties break toward the lowest
    /// index.
    pub fn longest_active_queue(&self) -> Option<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.lifecycle == DeviceLifecycle::Active && d.queue_len > 0)
            .max_by_key(|(i, d)| (d.queue_len, usize::MAX - *i))
            .map(|(i, _)| i)
    }
}

/// Outcome of running every launched shard to completion.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// On-device simulated kernel cycles per shard (bit-identical to what
    /// the same launch would cost on a standalone [`CxlM2ndpDevice`]).
    pub kernel_cycles: Vec<Cycle>,
    /// Per-device completion in fleet cycles: offload delivery skew plus
    /// the device's simulated kernel cycles.
    pub per_device: Vec<Cycle>,
    /// The cycle the slowest device finished (compute barrier).
    pub compute_done: Cycle,
}

/// N real device simulators behind one CXL switch.
#[derive(Debug)]
pub struct Fleet {
    devices: Vec<CxlM2ndpDevice>,
    switch: CxlSwitch,
    router: HdmRouter,
    clock: Frequency,
    /// Fleet cycle at which each device's latest offload arrived.
    offload_arrival: Vec<Cycle>,
    /// Most recent instance launched on each device (what
    /// [`Self::run_launched`] waits for).
    last_instance: Vec<Option<KernelInstanceId>>,
    /// Fleet cycle at which each device last became free (advanced by
    /// [`Self::launch_routed_and_run`] and [`Self::run_launched`]).
    device_done: Vec<Cycle>,
    /// Worker threads the shard-parallel run paths may use (1 = serial).
    parallelism: usize,
}

impl Fleet {
    /// Builds the fleet: one device per switch port, HDM split across them
    /// at 2 MB page granularity.
    ///
    /// # Panics
    /// Panics if `devices` is zero or exceeds the switch's port count.
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.devices > 0, "a fleet needs at least one device");
        assert!(
            cfg.devices <= cfg.switch.device_ports,
            "{} devices exceed the switch's {} ports",
            cfg.devices,
            cfg.switch.device_ports
        );
        let clock = cfg.device.engine.freq;
        Self {
            devices: (0..cfg.devices)
                .map(|_| CxlM2ndpDevice::new(cfg.device.clone()))
                .collect(),
            switch: CxlSwitch::new(cfg.switch, clock),
            router: HdmRouter::even_pages(0, cfg.hdm_bytes_per_device, cfg.devices),
            clock,
            offload_arrival: vec![0; cfg.devices],
            last_instance: vec![None; cfg.devices],
            device_done: vec![0; cfg.devices],
            parallelism: par::env_jobs("M2NDP_FLEET_JOBS").unwrap_or(1),
        }
    }

    /// Worker threads the shard-parallel run paths use (1 = serial). The
    /// default comes from the `M2NDP_FLEET_JOBS` environment variable so
    /// benches, examples, and tests share one knob; results are
    /// bit-identical at every setting — only wall-clock changes.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Overrides the fleet-level worker count (clamped to at least 1).
    pub fn set_parallelism(&mut self, jobs: usize) {
        self.parallelism = jobs.max(1);
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// One device, immutably.
    pub fn device(&self, i: usize) -> &CxlM2ndpDevice {
        &self.devices[i]
    }

    /// One device, mutably (shard generation writes its memory here).
    pub fn device_mut(&mut self, i: usize) -> &mut CxlM2ndpDevice {
        &mut self.devices[i]
    }

    /// The HDM router (fleet-global address → owning device).
    pub fn router(&self) -> &HdmRouter {
        &self.router
    }

    /// The switch (port traffic counters, P2P stats).
    pub fn switch(&self) -> &CxlSwitch {
        &self.switch
    }

    /// The devices' clock domain.
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// Fleet cycle at which device `i`'s *latest* offload store arrived
    /// through the switch (what [`Self::launch_routed`] charged; open-loop
    /// serving reads this back as the per-launch switch skew).
    pub fn offload_arrival(&self, i: usize) -> Cycle {
        self.offload_arrival[i]
    }

    /// Registers `spec` on every device, returning the per-device ids.
    pub fn register_kernel_all(&mut self, spec: &KernelSpec) -> Vec<KernelId> {
        self.devices
            .iter_mut()
            .map(|d| d.register_kernel(spec.clone()))
            .collect()
    }

    /// The device owning fleet-global address `pool_base`.
    fn route(&self, pool_base: u64) -> Result<usize, NdpApiError> {
        self.router
            .local_offset(pool_base)
            .map(|(dev, _offset)| dev)
            .ok_or(NdpApiError::BadArguments)
    }

    /// Routes one M²func kernel offload: the fleet-global `pool_base`
    /// selects the owning device through the 2 MB-page [`HdmRouter`], the
    /// launch store crosses the switch (host port → device port, charged
    /// against both bandwidth gates plus traversal latency), and
    /// device-local `args` launch there ([`FleetShard::launch`]).
    ///
    /// Returns the owning device index and the instance id.
    ///
    /// # Errors
    /// [`NdpApiError::BadArguments`] when `pool_base` routes to no device;
    /// otherwise whatever the device's launch returns.
    pub fn launch_routed(
        &mut self,
        issue: Cycle,
        pool_base: u64,
        args: LaunchArgs,
    ) -> Result<(usize, KernelInstanceId), NdpApiError> {
        let dev = self.route(pool_base)?;
        let (inst, _arrival) = self.lend_shards(|shards| shards[dev].launch(issue, args))?;
        Ok((dev, inst))
    }

    /// The page-aligned fleet-global base address of device `i`'s HDM span
    /// (what shard builders hand to [`Self::launch_routed`]).
    pub fn shard_base(&self, i: usize) -> u64 {
        self.router.span(i).0
    }

    /// Routes one launch like [`Self::launch_routed`], but through the full
    /// M²func wire protocol ([`FleetShard::m2func_launch`]): the launch
    /// arguments are encoded into the CXL.mem write payload
    /// ([`crate::m2func::encode_launch`]), the store crosses the switch to
    /// the owning device, and the device's NDP controller decodes and
    /// dispatches the call ([`CxlM2ndpDevice::handle_m2func_call`]),
    /// leaving the instance id at the caller's M²func region offset as a
    /// real host would read it back.
    ///
    /// Returns the owning device, the instance id, and the fleet cycle the
    /// launch store arrived at the device port.
    ///
    /// # Errors
    /// [`NdpApiError::BadArguments`] when `pool_base` routes to no device;
    /// otherwise whatever error the device's controller returned.
    pub fn m2func_launch_routed(
        &mut self,
        issue: Cycle,
        asid: u16,
        pool_base: u64,
        args: LaunchArgs,
    ) -> Result<(usize, KernelInstanceId, Cycle), NdpApiError> {
        let dev = self.route(pool_base)?;
        let (inst, arrival) =
            self.lend_shards(|shards| shards[dev].m2func_launch(issue, asid, args))?;
        Ok((dev, inst, arrival))
    }

    /// Runs every device until its most recently launched instance
    /// finishes — shards advance concurrently on up to
    /// [`Self::parallelism`] workers (each owns its device and its switch
    /// port lane; results merge in index order, bit-identical to a serial
    /// run) — and returns per-device completion in fleet cycles: the
    /// offload delivery skew plus the device's simulated kernel cycles.
    /// Devices with no launch complete at cycle 0.
    pub fn run_launched(&mut self) -> FleetRun {
        let jobs = self.parallelism;
        let (kernel_cycles, per_device): (Vec<Cycle>, Vec<Cycle>) = self
            .with_shards(jobs, |shard| shard.finish_launched())
            .into_iter()
            .unzip();
        let compute_done = per_device.iter().copied().max().unwrap_or(0);
        FleetRun {
            kernel_cycles,
            per_device,
            compute_done,
        }
    }

    /// The shard-parallel execution core: splits the fleet into
    /// per-device [`FleetShard`]s (see [`Self::lend_shards`]) and runs `f`
    /// once per shard on up to `jobs` pool workers
    /// ([`m2ndp_sim::par::map_ordered_mut`]). Results return in device
    /// index order regardless of completion order, so any `jobs` value is
    /// bit-identical to serial execution.
    pub fn with_shards<R: Send>(
        &mut self,
        jobs: usize,
        f: impl Fn(&mut FleetShard<'_>) -> R + Sync,
    ) -> Vec<R> {
        self.lend_shards(|shards| par::map_ordered_mut(shards, jobs, |_, shard| f(shard)))
    }

    /// Lends every device at once, on the calling thread, as per-device
    /// [`FleetShard`]s (device simulator + switch-port lane + per-device
    /// bookkeeping — no shared mutable state), in device index order. Every
    /// launch goes through a shard; callers that must interleave devices
    /// (a global serving schedule) drive the whole slice, the others take
    /// one shard. Shard-local switch transfer counts are folded back into
    /// the shared counters afterwards (addition commutes).
    pub fn lend_shards<R>(&mut self, f: impl FnOnce(&mut [FleetShard<'_>]) -> R) -> R {
        let clock = self.clock;
        let lanes = self.switch.host_lanes();
        let mut shards: Vec<FleetShard<'_>> = self
            .devices
            .iter_mut()
            .zip(lanes)
            .zip(self.offload_arrival.iter_mut())
            .zip(self.last_instance.iter_mut())
            .zip(self.device_done.iter_mut())
            .enumerate()
            .map(
                |(index, ((((device, lane), offload_arrival), last_instance), device_done))| {
                    FleetShard {
                        index,
                        device,
                        lane,
                        clock,
                        offload_arrival,
                        last_instance,
                        device_done,
                    }
                },
            )
            .collect();
        let out = f(&mut shards);
        let transfers: u64 = shards.iter().map(|s| s.lane.transfers()).sum();
        drop(shards);
        self.switch.absorb_host_transfers(transfers);
        out
    }

    /// Routes each `(pool_base, launches)` sequence to its owning device
    /// and replays it with [`Self::launch_routed_and_run`] semantics —
    /// launches within one sequence stay dependent (each offload issues
    /// the moment the device finished its previous kernel), while
    /// different devices' sequences simulate concurrently on the shard
    /// pool. When every launch succeeds this is bit-identical to calling
    /// [`Self::launch_routed_and_run`] for every launch in sequence order.
    /// Returns each device's completion cycle (its previous
    /// [`Self::completion`] contribution if it received no work).
    ///
    /// # Errors
    /// [`NdpApiError::BadArguments`] when any `pool_base` routes to no
    /// device (checked before anything runs). A launch rejection surfaces
    /// as the lowest-indexed device's error; unlike the serial loop,
    /// sibling shards still run their sequences to completion first (their
    /// device state, `device_done`, and switch counters reflect that
    /// work), so on error the fleet is *valid* but not serially
    /// bit-identical — callers treating launch errors as fatal (the sweep
    /// does) are unaffected.
    pub fn launch_routed_sequences(
        &mut self,
        seqs: Vec<(u64, Vec<LaunchArgs>)>,
    ) -> Result<Vec<Cycle>, NdpApiError> {
        let mut per_device: Vec<Vec<LaunchArgs>> =
            (0..self.devices.len()).map(|_| Vec::new()).collect();
        for (pool_base, launches) in seqs {
            per_device[self.route(pool_base)?].extend(launches);
        }
        let jobs = self.parallelism;
        self.with_shards(jobs, |shard| {
            for args in &per_device[shard.index()] {
                shard.launch_and_run(args.clone())?;
            }
            Ok(shard.device_done())
        })
        .into_iter()
        .collect()
    }

    /// Routes one offload like [`Self::launch_routed`] and immediately runs
    /// the owning device until the instance completes — the building block
    /// for *dependent* launch sequences (e.g. the OPT decode step, where
    /// each kernel consumes the previous one's output). The offload is
    /// issued the moment the device finished its previous work, so the
    /// switch charges every launch store while consecutive kernels on one
    /// device stay back-to-back.
    ///
    /// Returns the owning device index and its fleet-cycle completion time.
    ///
    /// # Errors
    /// [`NdpApiError::BadArguments`] when `pool_base` routes to no device;
    /// otherwise whatever the device's launch returns.
    pub fn launch_routed_and_run(
        &mut self,
        pool_base: u64,
        args: LaunchArgs,
    ) -> Result<(usize, Cycle), NdpApiError> {
        let dev = self.route(pool_base)?;
        let done = self.lend_shards(|shards| shards[dev].launch_and_run(args))?;
        Ok((dev, done))
    }

    /// The fleet cycle at which the slowest device became free (the
    /// compute barrier across every launch so far).
    pub fn completion(&self) -> Cycle {
        self.device_done.iter().copied().max().unwrap_or(0)
    }

    /// Ring all-reduce of `bytes_per_device` across all devices starting at
    /// `start` (normally [`FleetRun::compute_done`]), simulated as actual
    /// P2P switch traffic. Returns the completion cycle.
    pub fn ring_allreduce(&mut self, start: Cycle, bytes_per_device: u64) -> Cycle {
        let n = self.devices.len();
        self.switch.ring_allreduce(start, n, bytes_per_device)
    }

    /// Aggregate fleet statistics: counters summed across devices, derived
    /// rates averaged, `cycles` the slowest device's.
    pub fn stats(&self) -> DeviceStats {
        let n = self.devices.len().max(1) as f64;
        let mut agg = DeviceStats::default();
        for d in &self.devices {
            let s = d.stats();
            agg.cycles = agg.cycles.max(s.cycles);
            agg.dram_bytes += s.dram_bytes;
            agg.dram_row_hit_rate += s.dram_row_hit_rate / n;
            agg.dram_bw_utilization += s.dram_bw_utilization / n;
            agg.link_m2s_bytes += s.link_m2s_bytes;
            agg.link_s2m_bytes += s.link_s2m_bytes;
            agg.l2_accesses += s.l2_accesses;
            agg.l2_hit_rate += s.l2_hit_rate / n;
            agg.instrs += s.instrs;
            agg.mem_reqs += s.mem_reqs;
            agg.spad_bytes += s.spad_bytes;
            agg.l1_hits += s.l1_hits;
            agg.bi_snoops += s.bi_snoops;
        }
        agg
    }

    /// Aggregate fleet statistics in the workspace-wide metrics shape
    /// (same names and order as [`DeviceStats::metrics`]).
    pub fn metrics(&self) -> MetricSet {
        self.stats().metrics()
    }

    /// Attaches one trace sink per device (`make(i)` builds device `i`'s
    /// sink); events are stamped with the fleet device index. Per-device
    /// sinks are what keeps shard-parallel tracing deterministic: each
    /// shard buffers privately and [`Self::take_traces`] merges in device
    /// index order.
    pub fn set_tracers(&mut self, make: impl Fn(usize) -> Box<dyn TraceSink>) {
        for (i, d) in self.devices.iter_mut().enumerate() {
            d.set_tracer(i as u32, make(i));
        }
    }

    /// Detaches every device's sink and returns all recorded events merged
    /// in device index order (deterministic at any parallelism).
    pub fn take_traces(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for d in &mut self.devices {
            out.extend(d.take_trace());
        }
        out
    }

    /// Canonical disassembly of every kernel registered on device 0 (the
    /// fleet registers kernels uniformly), for trace annotation.
    pub fn kernel_disassembly(&self) -> Vec<(u32, String, String)> {
        self.devices
            .first()
            .map(CxlM2ndpDevice::kernel_disassembly)
            .unwrap_or_default()
    }
}

/// One device's slice of the fleet, handed to [`Fleet::with_shards`]
/// workers: the device simulator, the device's host→device switch lane
/// ([`m2ndp_cxl::HostLane`] — per-port state only), and the per-device
/// bookkeeping slots. A shard shares **no** mutable state with its
/// siblings, which is exactly why shard execution order cannot affect
/// results.
#[derive(Debug)]
pub struct FleetShard<'a> {
    index: usize,
    device: &'a mut CxlM2ndpDevice,
    lane: HostLane<'a>,
    clock: Frequency,
    offload_arrival: &'a mut Cycle,
    last_instance: &'a mut Option<KernelInstanceId>,
    device_done: &'a mut Cycle,
}

impl FleetShard<'_> {
    /// This shard's device index in the fleet.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard's device, immutably.
    pub fn device(&self) -> &CxlM2ndpDevice {
        self.device
    }

    /// The shard's device, mutably.
    pub fn device_mut(&mut self) -> &mut CxlM2ndpDevice {
        self.device
    }

    /// Fleet cycle the device's latest offload store arrived
    /// ([`Fleet::offload_arrival`] for this shard).
    pub fn offload_arrival(&self) -> Cycle {
        *self.offload_arrival
    }

    /// Fleet cycle at which this device last became free.
    pub fn device_done(&self) -> Cycle {
        *self.device_done
    }

    /// Charges one M²func launch store on this device's lane, advances the
    /// latest-arrival watermark and returns this store's arrival cycle.
    fn charge_offload(&mut self, issue: Cycle) -> Cycle {
        let arrival = self
            .lane
            .host_to_device_unordered(issue, M2FUNC_OFFLOAD_BYTES);
        *self.offload_arrival = (*self.offload_arrival).max(arrival);
        let (clock, port, id) = (self.clock, self.index as u16, self.device.trace_device());
        self.device.tracer_mut().emit(|| TraceEvent {
            ts_ns: clock.ns_from_cycles(issue),
            device: id,
            lane: Lane::SwitchPort(port),
            kind: EventKind::SwitchHop {
                dst: port,
                bytes: M2FUNC_OFFLOAD_BYTES,
                dur_ns: clock.ns_from_cycles(arrival.saturating_sub(issue)),
            },
        });
        arrival
    }

    /// Launches on this shard's device (routing already decided): charges
    /// the launch store on the lane and launches at the device controller.
    /// Returns the instance and the fleet cycle this launch's store arrived
    /// at the device port.
    ///
    /// # Errors
    /// Whatever the device's launch returns (the store stays charged, as
    /// on the routed path).
    pub fn launch(
        &mut self,
        issue: Cycle,
        args: LaunchArgs,
    ) -> Result<(KernelInstanceId, Cycle), NdpApiError> {
        let arrival = self.charge_offload(issue);
        let inst = self.device.launch(args)?;
        *self.last_instance = Some(inst);
        Ok((inst, arrival))
    }

    /// [`Self::launch`] through the full M²func wire protocol: the launch
    /// store is charged on the lane and the call is decoded and dispatched
    /// by the device's NDP controller. Returns the instance and this
    /// store's arrival cycle.
    ///
    /// # Errors
    /// Whatever the device's controller returns.
    pub fn m2func_launch(
        &mut self,
        issue: Cycle,
        asid: u16,
        args: LaunchArgs,
    ) -> Result<(KernelInstanceId, Cycle), NdpApiError> {
        let arrival = self.charge_offload(issue);
        let inst = self.device.m2func_launch(asid, args)?;
        *self.last_instance = Some(inst);
        Ok((inst, arrival))
    }

    /// Launches and runs to completion on this shard's device: the offload
    /// issues when the device finished its previous work, the store crosses
    /// the lane, and the kernel runs. Returns the device's new free cycle.
    ///
    /// # Errors
    /// Whatever the device's launch returns.
    pub fn launch_and_run(&mut self, args: LaunchArgs) -> Result<Cycle, NdpApiError> {
        let issue = *self.device_done;
        let arrival = self
            .lane
            .host_to_device_unordered(issue, M2FUNC_OFFLOAD_BYTES);
        let inst = self.device.launch(args)?;
        let start = self.device.now();
        let kernel = self.device.run_until_finished(inst) - start;
        *self.device_done = arrival + kernel;
        Ok(*self.device_done)
    }

    /// This shard's half of [`Fleet::run_launched`]: runs the most recent
    /// launch (if any) to completion and returns `(kernel_cycles,
    /// per_device_completion)`.
    fn finish_launched(&mut self) -> (Cycle, Cycle) {
        let kernel = match *self.last_instance {
            Some(inst) => {
                let start = self.device.now();
                self.device.run_until_finished(inst) - start
            }
            None => 0,
        };
        let per_device = if kernel == 0 {
            0
        } else {
            *self.offload_arrival + kernel
        };
        *self.device_done = (*self.device_done).max(per_device);
        (kernel, per_device)
    }
}

/// The M²NDP-in-switch configuration (§III-J, Fig. 9): the NDP complex
/// lives *inside* the switch and processes data pulled from `memories`
/// passive third-party CXL memories, so NDP throughput scales with the
/// populated switch ports independently of any one expander's capacity.
///
/// Modelled as a real device simulation whose workload data is remote: the
/// device's "link" is the switch-internal hop (one traversal instead of a
/// host CXL link), with per-direction bandwidth equal to the aggregate of
/// the `memories` populated ports, and the remote memory system aggregates
/// the passive expanders' DRAM channels.
#[derive(Debug)]
pub struct SwitchNdp {
    device: CxlM2ndpDevice,
    memories: u32,
}

impl SwitchNdp {
    /// Builds the in-switch NDP complex (engine from `device_cfg`) pulling
    /// from `memories` passive expanders through `switch` ports.
    ///
    /// # Panics
    /// Panics if `memories` is zero or exceeds the switch's port count.
    pub fn new(device_cfg: &M2ndpConfig, switch: SwitchConfig, memories: u32) -> Self {
        assert!(memories > 0, "need at least one passive memory");
        assert!(
            memories as usize <= switch.device_ports,
            "{memories} memories exceed the switch's {} ports",
            switch.device_ports
        );
        let mut ndp = device_cfg.clone();
        ndp.workload_data_remote = true;
        ndp.charge_remote_responses = true;
        // The pull path: `memories` populated ports in parallel, one switch
        // traversal of latency.
        ndp.link.bw_per_dir_bytes_per_sec = switch.port_bw_bytes_per_sec * f64::from(memories);
        ndp.link.one_way_ns = switch.traversal_ns;
        // The passive expanders: each brings its own internal DRAM.
        let mut remote = device_cfg.clone();
        remote.dram.channels *= memories;
        remote.dram.peak_bw_bytes_per_sec *= f64::from(memories);
        Self {
            device: CxlM2ndpDevice::new(ndp).with_remote_cxl(remote),
            memories,
        }
    }

    /// Number of passive memories populated.
    pub fn memories(&self) -> u32 {
        self.memories
    }

    /// The in-switch device simulator.
    pub fn device(&self) -> &CxlM2ndpDevice {
        &self.device
    }

    /// The in-switch device simulator, mutably (workload generation and
    /// launches go here; data lands in the remote expanders' address space
    /// automatically because `workload_data_remote` is set).
    pub fn device_mut(&mut self) -> &mut CxlM2ndpDevice {
        &mut self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2ndp_riscv::assemble;

    fn small_cfg() -> M2ndpConfig {
        let mut cfg = M2ndpConfig::default_device();
        cfg.engine.units = 4;
        cfg
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

    fn fleet(n: usize) -> Fleet {
        Fleet::new(FleetConfig {
            devices: n,
            device: small_cfg(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 64 << 20,
        })
    }

    /// Launches `elems` doubled elements on each device's shard and returns
    /// (completion, per-device results verified).
    fn run_sharded(fleet: &mut Fleet, elems: u64) -> FleetRun {
        let base = 0x40_0000u64;
        let kids = fleet.register_kernel_all(&vec_double());
        for (d, &kid) in kids.iter().enumerate() {
            for i in 0..elems {
                fleet
                    .device_mut(d)
                    .memory_mut()
                    .write_u32(base + i * 4, (d as u64 * 1000 + i) as u32);
            }
            let pool = fleet.shard_base(d);
            fleet
                .launch_routed(0, pool, LaunchArgs::new(kid, base, base + elems * 4))
                .expect("launch routes");
        }
        let run = fleet.run_launched();
        for d in 0..fleet.len() {
            for i in 0..elems {
                assert_eq!(
                    fleet.device(d).memory().read_u32(base + i * 4),
                    2 * (d as u32 * 1000 + i as u32),
                    "device {d} elem {i}"
                );
            }
        }
        run
    }

    #[test]
    fn fleet_of_one_matches_single_device_within_one_percent() {
        let elems = 32 << 10;
        // Single-device reference path.
        let mut dev = CxlM2ndpDevice::new(small_cfg());
        let base = 0x40_0000u64;
        for i in 0..elems {
            dev.memory_mut().write_u32(base + i * 4, i as u32);
        }
        let kid = dev.register_kernel(vec_double());
        let inst = dev
            .launch(LaunchArgs::new(kid, base, base + elems * 4))
            .unwrap();
        let single = dev.run_until_finished(inst);

        let mut f = fleet(1);
        let run = run_sharded(&mut f, elems);
        // The fleet's device simulation is the same simulator: bit-exact.
        assert_eq!(run.kernel_cycles[0], single);
        // End-to-end, only the (constant, ~150-cycle) offload delivery
        // through the switch is added; on the evaluation workloads that is
        // far below 1% (gated by the fig14a parity band).
        let skew = run.compute_done - run.kernel_cycles[0];
        assert!(
            (1..=400).contains(&skew),
            "offload skew {skew} out of range"
        );
    }

    #[test]
    fn offload_routing_charges_the_switch() {
        let mut f = fleet(4);
        let _ = run_sharded(&mut f, 512);
        assert_eq!(f.switch().host_transfers.get(), 4);
        // Each offload moved one store's bytes into its own port.
        for d in 0..4 {
            assert_eq!(
                f.switch().port_bytes(d).0,
                u64::from(M2FUNC_OFFLOAD_BYTES),
                "port {d}"
            );
        }
    }

    #[test]
    fn m2func_protocol_launch_routes_and_returns_instance() {
        let mut f = fleet(2);
        let kids = f.register_kernel_all(&vec_double());
        let base = 0x40_0000u64;
        for i in 0..64u64 {
            f.device_mut(1).memory_mut().write_u32(base + i * 4, 21);
        }
        let pool = f.shard_base(1);
        let (dev, inst, arrival) = f
            .m2func_launch_routed(5, 9, pool, LaunchArgs::new(kids[1], base, base + 64 * 4))
            .expect("protocol launch routes");
        assert_eq!(dev, 1);
        assert!(arrival > 5, "switch must add latency to the launch store");
        // The controller left the instance id at the launch offset, like a
        // host CXL.mem read of the M²func region would fetch it.
        assert_eq!(
            f.device(1)
                .m2func_return(9, crate::m2func::M2Func::LaunchKernel.offset()),
            Some(inst.0 as i64)
        );
        let run = f.run_launched();
        assert!(run.kernel_cycles[1] > 0);
        assert_eq!(f.device(1).memory().read_u32(base), 42);
    }

    #[test]
    fn parallel_run_launched_is_bit_identical_to_serial() {
        let run_with = |jobs: usize| {
            let mut f = fleet(4);
            f.set_parallelism(jobs);
            let run = run_sharded(&mut f, 2048);
            (run, f.switch().host_transfers.get())
        };
        let (serial, serial_transfers) = run_with(1);
        for jobs in [2, 4, 16] {
            let (par, transfers) = run_with(jobs);
            assert_eq!(serial.kernel_cycles, par.kernel_cycles, "jobs={jobs}");
            assert_eq!(serial.per_device, par.per_device, "jobs={jobs}");
            assert_eq!(serial.compute_done, par.compute_done, "jobs={jobs}");
            assert_eq!(serial_transfers, transfers, "jobs={jobs}");
        }
    }

    #[test]
    fn routed_sequences_match_serial_launch_routed_and_run() {
        let elems = 1024u64;
        let base = 0x40_0000u64;
        let build = |f: &mut Fleet| -> Vec<(u64, Vec<LaunchArgs>)> {
            let kids = f.register_kernel_all(&vec_double());
            (0..f.len())
                .map(|d| {
                    for i in 0..elems {
                        f.device_mut(d)
                            .memory_mut()
                            .write_u32(base + i * 4, i as u32);
                    }
                    // Two dependent launches per device: the second doubles
                    // the first's output.
                    let args = LaunchArgs::new(kids[d], base, base + elems * 4);
                    (f.shard_base(d), vec![args.clone(), args])
                })
                .collect()
        };

        // Reference: the serial one-call-at-a-time API.
        let mut serial = fleet(4);
        let seqs = build(&mut serial);
        for (pool, launches) in &seqs {
            for args in launches {
                serial
                    .launch_routed_and_run(*pool, args.clone())
                    .expect("routes");
            }
        }

        // Shard-parallel sequences, forced wide.
        let mut par = fleet(4);
        let seqs = build(&mut par);
        par.set_parallelism(4);
        let done = par.launch_routed_sequences(seqs).expect("routes");

        assert_eq!(par.completion(), serial.completion());
        for (d, &done_at) in done.iter().enumerate() {
            assert_eq!(
                par.device(d).memory().read_u32(base),
                0,
                "element 0 is 0 * 4"
            );
            assert_eq!(
                par.device(d).memory().read_u32(base + 4),
                4,
                "element 1 doubled twice"
            );
            assert!(done_at > 0, "device {d} ran");
        }
        assert_eq!(
            par.switch().host_transfers.get(),
            serial.switch().host_transfers.get()
        );
    }

    #[test]
    fn launch_outside_hdm_is_rejected() {
        let mut f = fleet(2);
        let kids = f.register_kernel_all(&vec_double());
        let err = f
            .launch_routed(0, u64::MAX, LaunchArgs::new(kids[0], 0, 64))
            .unwrap_err();
        assert_eq!(err, NdpApiError::BadArguments);
    }

    #[test]
    fn allreduce_traffic_lands_on_switch_counters() {
        let mut f = fleet(4);
        let run = run_sharded(&mut f, 256);
        let done = f.ring_allreduce(run.compute_done, 1 << 20);
        assert!(done > run.compute_done);
        assert_eq!(f.switch().p2p_bytes.get(), 6 * 4 * (1 << 18));
    }

    #[test]
    fn aggregate_stats_sum_counters() {
        let mut f = fleet(2);
        let _ = run_sharded(&mut f, 1024);
        let agg = f.stats();
        let per: u64 = (0..2).map(|d| f.device(d).stats().dram_bytes).sum();
        assert_eq!(agg.dram_bytes, per);
        assert!(agg.dram_bytes >= 2 * 1024 * 4);
    }

    #[test]
    fn switch_ndp_pulls_from_passive_memory() {
        let mut sw = SwitchNdp::new(&small_cfg(), SwitchConfig::default(), 4);
        let base = 0x40_0000u64;
        for i in 0..512u64 {
            sw.device_mut().memory_mut().write_u32(base + i * 4, 7);
        }
        let kid = sw.device_mut().register_kernel(vec_double());
        let inst = sw
            .device_mut()
            .launch(LaunchArgs::new(kid, base, base + 512 * 4))
            .unwrap();
        sw.device_mut().run_until_finished(inst);
        assert_eq!(sw.device().memory().read_u32(base), 14);
        assert!(
            sw.device().stats().link_m2s_bytes > 0,
            "pulls must cross the switch ports"
        );
    }

    #[test]
    fn switch_ndp_scales_until_ndp_saturates() {
        let run = |memories: u32| {
            let mut sw = SwitchNdp::new(&small_cfg(), SwitchConfig::default(), memories);
            let base = 0x40_0000u64;
            let elems = 16 << 10;
            for i in 0..elems {
                sw.device_mut().memory_mut().write_u32(base + i * 4, 1);
            }
            let kid = sw.device_mut().register_kernel(vec_double());
            let inst = sw
                .device_mut()
                .launch(LaunchArgs::new(kid, base, base + elems * 4))
                .unwrap();
            sw.device_mut().run_until_finished(inst)
        };
        let one = run(1);
        let four = run(4);
        assert!(four < one, "4 populated ports must beat 1: {four} vs {one}");
    }
}
