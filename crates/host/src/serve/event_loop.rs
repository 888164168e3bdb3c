//! The serving event loop: routing, admission, launch, verification and
//! recording, written once. [`super::run`] runs it under one of two
//! schedules — one instance per device (partitioned) or one instance over
//! every device (global); see the [module docs](super) for which one a
//! run takes.

use std::collections::VecDeque;

use m2ndp_core::fleet::FleetShard;
use m2ndp_core::{
    CxlM2ndpDevice, DeviceLifecycle, DeviceView, FleetView, KernelInstanceId, LaunchArgs,
    NdpApiError,
};
use m2ndp_sim::trace::ScaleDir;
use m2ndp_sim::{Cycle, FEventQueue, Frequency};

use super::autoscale::{Autoscaler, ScaleDecision, ScaleEvent};
use super::report::ReqRecord;
use super::scheduler::{ReqView, Scheduler};
use super::{Request, ServeConfig, ServeWorkload};
use crate::offload::OffloadMechanism;

/// What the loop launches on: one device simulator plus the path its
/// launch store takes to get there.
pub(super) trait LaunchTarget {
    fn device_mut(&mut self) -> &mut CxlM2ndpDevice;

    /// Launches `args` issued at fleet cycle `issue` — through the M²func
    /// wire protocol as address space `asid` when given, directly at the
    /// controller otherwise — and returns the instance plus the cycle the
    /// launch store reached the device.
    fn launch_at(
        &mut self,
        issue: Cycle,
        asid: Option<u16>,
        args: LaunchArgs,
    ) -> Result<(KernelInstanceId, Cycle), NdpApiError>;
}

/// A standalone device: the store crosses only the device's own link,
/// which the mechanism's `pre_ns` already covers, so it arrives at issue.
impl LaunchTarget for CxlM2ndpDevice {
    fn device_mut(&mut self) -> &mut CxlM2ndpDevice {
        self
    }

    fn launch_at(
        &mut self,
        issue: Cycle,
        asid: Option<u16>,
        args: LaunchArgs,
    ) -> Result<(KernelInstanceId, Cycle), NdpApiError> {
        let inst = match asid {
            Some(asid) => self.m2func_launch(asid, args)?,
            None => self.launch(args)?,
        };
        Ok((inst, issue))
    }
}

/// A fleet shard: the store is charged on the shard's switch-port lane.
impl LaunchTarget for FleetShard<'_> {
    fn device_mut(&mut self) -> &mut CxlM2ndpDevice {
        FleetShard::device_mut(self)
    }

    fn launch_at(
        &mut self,
        issue: Cycle,
        asid: Option<u16>,
        args: LaunchArgs,
    ) -> Result<(KernelInstanceId, Cycle), NdpApiError> {
        match asid {
            Some(asid) => self.m2func_launch(issue, asid, args),
            None => self.launch(issue, args),
        }
    }
}

/// A run's read-only inputs, shared by every loop instance (under the
/// partitioned schedule, by concurrent pool workers).
pub(super) struct LoopCtx<'a, W: ?Sized> {
    pub requests: &'a [Request],
    pub views: &'a [ReqView],
    pub workload: &'a W,
    pub cfg: &'a ServeConfig,
    pub clock: Frequency,
}

/// What one loop instance produced. `records` carry their global
/// arrival index; per-device vectors are in loop-local device order.
pub(super) struct LoopOut {
    pub records: Vec<(usize, ReqRecord)>,
    pub max_outstanding: Vec<u32>,
    pub launches: u64,
    /// Integral of active devices over time, closed at this instance's
    /// makespan.
    pub device_time_ns: f64,
    pub scale_events: Vec<ScaleEvent>,
}

/// Events of the loop. Arrivals are all scheduled before the loop starts,
/// so equal-time ties break the same way on every schedule (arrivals
/// before completions, then insertion order).
enum Ev {
    /// Request `i` (global arrival index) arrives.
    Arrive(usize),
    /// A kernel slot frees on loop-local device `dev`; carries the
    /// finished request's end-to-end latency for the autoscaler.
    SlotFree { dev: usize, latency_ns: f64 },
    /// Autoscaler evaluation tick.
    Tick,
}

/// All mutable state of one loop instance. Loop-local device `d` is
/// global device `base + d`.
struct ServeLoop<'a, W: ?Sized, T> {
    ctx: &'a LoopCtx<'a, W>,
    targets: &'a mut [T],
    base: usize,
    m2func: bool,
    pre: f64,
    post: f64,
    direct: bool,
    slots: u32,
    sched: Box<dyn Scheduler>,
    auto: Option<Autoscaler>,
    queues: Vec<VecDeque<usize>>,
    free: Vec<u32>,
    outstanding: Vec<u32>,
    max_outstanding: Vec<u32>,
    lifecycle: Vec<DeviceLifecycle>,
    active_count: usize,
    /// Start of each device's current active interval (`None` = parked).
    active_since: Vec<Option<f64>>,
    /// Closed active intervals, integrated (ns).
    device_time_ns: f64,
    launches: u64,
    completed: usize,
    records: Vec<(usize, ReqRecord)>,
    scale_events: Vec<ScaleEvent>,
}

impl<W: ServeWorkload + ?Sized> LoopCtx<'_, W> {
    /// Runs one loop instance over `targets` (loop-local device `d` is
    /// global device `base + d`), serving the requests `idxs` (global
    /// arrival indices, in arrival order). Routes each request at arrival
    /// through `cfg.scheduler`, admits against per-device slot pools, and
    /// (when configured) lets the autoscaler grow and shrink the active
    /// set mid-run.
    pub(super) fn run<T: LaunchTarget>(
        &self,
        targets: &mut [T],
        base: usize,
        idxs: &[usize],
    ) -> LoopOut {
        let ndev = targets.len();
        let cfg = self.cfg;
        let slots = cfg.model.max_concurrent().min(cfg.device_slots).max(1);
        // An autoscaled fleet starts at min_devices and earns the rest;
        // without autoscaling every device is active for the whole run.
        let initial_active = cfg.autoscale.map_or(ndev, |a| a.min_devices);
        let mut lifecycle = vec![DeviceLifecycle::Active; ndev];
        let mut active_since = vec![Some(0.0); ndev];
        for d in initial_active..ndev {
            lifecycle[d] = DeviceLifecycle::Drained;
            active_since[d] = None;
        }
        let mechanism = cfg.model.mechanism();
        let mut st = ServeLoop {
            ctx: self,
            targets,
            base,
            m2func: mechanism == OffloadMechanism::M2Func,
            pre: cfg.model.pre_ns(),
            post: cfg.model.post_ns(),
            direct: mechanism == OffloadMechanism::CxlIoDirect,
            slots,
            sched: cfg.scheduler.instantiate(),
            auto: cfg.autoscale.map(Autoscaler::new),
            queues: vec![VecDeque::new(); ndev],
            free: vec![slots; ndev],
            outstanding: vec![0; ndev],
            max_outstanding: vec![0; ndev],
            lifecycle,
            active_count: initial_active,
            active_since,
            device_time_ns: 0.0,
            launches: 0,
            completed: 0,
            records: Vec::with_capacity(idxs.len()),
            scale_events: Vec::new(),
        };

        let mut events: FEventQueue<Ev> = FEventQueue::new();
        for &i in idxs {
            events.schedule(self.requests[i].arrival_ns, Ev::Arrive(i));
        }
        if let Some(auto) = &st.auto {
            events.schedule(auto.interval_ns(), Ev::Tick);
        }

        while let Some((now, ev)) = events.pop() {
            match ev {
                Ev::Arrive(i) => {
                    let dev = st.route(i);
                    st.queues[dev].push_back(i);
                    st.try_admit(dev, now, &mut events);
                }
                Ev::SlotFree { dev, latency_ns } => {
                    st.free[dev] += 1;
                    st.outstanding[dev] -= 1;
                    st.completed += 1;
                    if let Some(auto) = &mut st.auto {
                        auto.observe(latency_ns);
                    }
                    st.finish_drain_if_idle(dev, now);
                    st.try_admit(dev, now, &mut events);
                    st.maybe_steal(dev, now, &mut events);
                }
                Ev::Tick => {
                    let decision = st
                        .auto
                        .as_mut()
                        .and_then(|auto| auto.decide(st.active_count));
                    match decision {
                        Some(ScaleDecision::Up) => st.scale_up(now, &mut events),
                        Some(ScaleDecision::Drain) => st.scale_drain(now, &mut events),
                        None => {}
                    }
                    if st.completed < idxs.len() {
                        if let Some(auto) = &st.auto {
                            events.schedule(now + auto.interval_ns(), Ev::Tick);
                        }
                    }
                }
            }
        }
        assert_eq!(st.completed, idxs.len(), "every request completes");

        // Close the still-open active intervals at the makespan.
        let makespan = st
            .records
            .iter()
            .map(|(_, r)| r.observed_ns)
            .fold(0.0f64, f64::max);
        for since in st.active_since.iter_mut() {
            if let Some(s) = since.take() {
                st.device_time_ns += makespan - s;
            }
        }
        LoopOut {
            records: st.records,
            max_outstanding: st.max_outstanding,
            launches: st.launches,
            device_time_ns: st.device_time_ns,
            scale_events: st.scale_events,
        }
    }
}

impl<W: ServeWorkload + ?Sized, T: LaunchTarget> ServeLoop<'_, W, T> {
    fn view(&self) -> FleetView {
        FleetView {
            devices: (0..self.queues.len())
                .map(|d| DeviceView {
                    queue_len: self.queues[d].len(),
                    outstanding: self.outstanding[d],
                    free_slots: self.free[d],
                    lifecycle: self.lifecycle[d],
                })
                .collect(),
        }
    }

    /// Routes request `i` through the scheduler, falling back to the
    /// least-loaded active device when the policy picks a device that is
    /// parked, draining, or outside this instance. Schedulers answer in
    /// global device indices (`ReqView::home`); only the global schedule
    /// (`base == 0`) hands them more than one device.
    fn route(&mut self, i: usize) -> usize {
        let view = self.view();
        let dev = self.sched.route(&self.ctx.views[i], &view);
        match dev.checked_sub(self.base) {
            Some(d) if d < self.lifecycle.len() && self.lifecycle[d] == DeviceLifecycle::Active => {
                d
            }
            _ => view
                .shortest_active()
                .expect("fleet has at least one active device"),
        }
    }

    /// Admits from device `dev`'s queue while it has free slots: launches
    /// each admitted request's kernel, runs it on the simulator for the
    /// real service time, verifies it functionally, and records it.
    fn try_admit(&mut self, dev: usize, now: f64, events: &mut FEventQueue<Ev>) {
        let ctx = self.ctx;
        let global = self.base + dev;
        while self.free[dev] > 0 && !self.queues[dev].is_empty() {
            let pos = self.sched.select(global, &self.queues[dev], ctx.views, now);
            let i = self.queues[dev]
                .remove(pos)
                .expect("select returned a position inside the queue");
            self.free[dev] -= 1;
            self.outstanding[dev] += 1;
            self.max_outstanding[dev] = self.max_outstanding[dev].max(self.outstanding[dev]);
            let req = ctx.requests[i];
            let args = ctx.workload.launch_args(&req, global);

            // Launch; a fleet shard charges the store on its switch-port
            // lane, and its cycle-level skew converts back to ns.
            let target = &mut self.targets[dev];
            let issue = ctx.clock.cycles_from_ns(now);
            let (inst, arrival) = target
                .launch_at(issue, self.m2func.then_some(req.tenant), args)
                .expect("serving launch must not be rejected");
            let switch_skew_ns = ctx.clock.ns_from_cycles(arrival.saturating_sub(issue));
            let device = target.device_mut();
            let t0 = device.now();
            let done = device.run_until_finished(inst);
            let service_ns = ctx.clock.ns_from_cycles(done - t0);
            self.launches += 1;
            ctx.workload
                .verify(&req, global, device)
                .expect("request must verify functionally");

            let start = now + switch_skew_ns + self.pre;
            let kernel_done = start + service_ns;
            let observed = kernel_done + self.post;
            let slot_free_at = if self.direct { observed } else { kernel_done };
            events.schedule(
                slot_free_at,
                Ev::SlotFree {
                    dev,
                    latency_ns: observed - req.arrival_ns,
                },
            );
            self.records.push((
                i,
                ReqRecord {
                    tenant: req.tenant,
                    seq: req.seq,
                    device: global,
                    arrival_ns: req.arrival_ns,
                    admitted_ns: now,
                    start_ns: start,
                    service_ns,
                    observed_ns: observed,
                },
            ));
        }
    }

    /// One bounded work-steal: if `dev` is active, has a free slot and an
    /// empty queue, ask the scheduler for a victim and move that queue's
    /// newest request over.
    fn maybe_steal(&mut self, dev: usize, now: f64, events: &mut FEventQueue<Ev>) {
        if self.lifecycle[dev] != DeviceLifecycle::Active
            || self.free[dev] == 0
            || !self.queues[dev].is_empty()
        {
            return;
        }
        let view = self.view();
        let Some(victim) = self.sched.steal(dev, &view) else {
            return;
        };
        if victim == dev || victim >= self.queues.len() {
            return;
        }
        let Some(i) = self.queues[victim].pop_back() else {
            return;
        };
        self.queues[dev].push_back(i);
        self.try_admit(dev, now, events);
    }

    /// Activates the lowest-indexed non-active device and rebalances up to
    /// one slot-pool's worth of queued work onto it.
    fn scale_up(&mut self, now: f64, events: &mut FEventQueue<Ev>) {
        let Some(dev) =
            (0..self.lifecycle.len()).find(|&d| self.lifecycle[d] != DeviceLifecycle::Active)
        else {
            return;
        };
        // Re-activating a draining device simply cancels its drain; its
        // active interval never closed, so device-time stays correct.
        if self.active_since[dev].is_none() {
            self.active_since[dev] = Some(now);
        }
        self.lifecycle[dev] = DeviceLifecycle::Active;
        self.active_count += 1;
        self.scale_events.push(ScaleEvent {
            t_ns: now,
            device: self.base + dev,
            dir: ScaleDir::Up,
            active: self.active_count,
        });
        for _ in 0..self.slots {
            let view = self.view();
            let Some(victim) = view.longest_active_queue() else {
                break;
            };
            if victim == dev {
                break;
            }
            let Some(i) = self.queues[victim].pop_back() else {
                break;
            };
            self.queues[dev].push_back(i);
        }
        self.try_admit(dev, now, events);
    }

    /// Starts draining the highest-indexed active device: it stops
    /// admitting, its queued requests re-route, and it parks when its
    /// in-flight kernels finish.
    fn scale_drain(&mut self, now: f64, events: &mut FEventQueue<Ev>) {
        let Some(dev) = (0..self.lifecycle.len())
            .rev()
            .find(|&d| self.lifecycle[d] == DeviceLifecycle::Active)
        else {
            return;
        };
        self.lifecycle[dev] = DeviceLifecycle::Draining;
        self.active_count -= 1;
        self.scale_events.push(ScaleEvent {
            t_ns: now,
            device: self.base + dev,
            dir: ScaleDir::DrainStart,
            active: self.active_count,
        });
        let orphans: Vec<usize> = self.queues[dev].drain(..).collect();
        for i in orphans {
            let target = self.route(i);
            self.queues[target].push_back(i);
            self.try_admit(target, now, events);
        }
        self.finish_drain_if_idle(dev, now);
    }

    /// Parks a draining device once its last in-flight kernel finished,
    /// closing its device-time interval.
    fn finish_drain_if_idle(&mut self, dev: usize, now: f64) {
        if self.lifecycle[dev] != DeviceLifecycle::Draining || self.outstanding[dev] != 0 {
            return;
        }
        self.lifecycle[dev] = DeviceLifecycle::Drained;
        if let Some(since) = self.active_since[dev].take() {
            self.device_time_ns += now - since;
        }
        self.scale_events.push(ScaleEvent {
            t_ns: now,
            device: self.base + dev,
            dir: ScaleDir::DrainDone,
            active: self.active_count,
        });
    }
}
