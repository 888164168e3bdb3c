//! Pluggable request scheduling for the serving runtime.
//!
//! # One loop, two schedules
//!
//! Every run executes the same event loop (route at arrival, admit
//! against per-device slot pools, launch, verify, record). What differs
//! is how many devices one loop instance sees, chosen by
//! [`SchedulerKind::is_dynamic`] and
//! [`ServeConfig::autoscale`](super::ServeConfig::autoscale):
//!
//! * **Partitioned** (placement-pure kinds, fixed fleet): when the
//!   scheduler is a pure function of the request key
//!   ([`SchedulerKind::StaticFifo`], [`SchedulerKind::HdmLocality`]) and
//!   the fleet is not elastic, a request's device is known before
//!   anything runs, so each device gets its own loop instance over its
//!   own requests, and the instances advance concurrently on the fleet's
//!   shard pool (`Fleet::with_shards`).
//! * **Global** (load-aware kinds or autoscaling): load-aware schedulers
//!   ([`SchedulerKind::ShortestQueue`], [`SchedulerKind::PrioritySlo`])
//!   and any autoscaled run route each request when it *arrives*, against
//!   the fleet's live admission state. Placement then depends on the
//!   interleaving of all devices' completions, so one loop instance runs
//!   over every device, serially (`Fleet::lend_shards`) — deterministic
//!   at any `--jobs`/`--fleet-jobs` setting, because those knobs never
//!   touch it.
//!
//! # Determinism rules for scheduler implementations
//!
//! A [`Scheduler`] must be a deterministic function of its inputs: the
//! request views, the [`FleetView`] snapshots it is handed, and its own
//! state evolved through the callbacks. No randomness, no ambient state,
//! no reliance on map iteration order. All tie-breaks must be explicit
//! (the built-ins break ties by lowest device index / queue position).
//!
//! # Data-placement requirement
//!
//! Anything that can place a request off its home device — load-aware
//! routing, work stealing, draining a device that owns data — requires a
//! workload that can serve any key on any device
//! ([`ServeWorkload::replicated`](super::ServeWorkload::replicated)).
//! [`run`](super::run) enforces this up front with a panic rather than
//! letting functional verification fail halfway through a run.

use std::collections::VecDeque;

use m2ndp_core::FleetView;

/// The built-in scheduling policies, selectable via
/// [`ServeConfig::scheduler`](super::ServeConfig::scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Route to the key's home device, FIFO admission — the historical
    /// fig11c behaviour, executed on the partitioned schedule and pinned
    /// bit-identical by the benchmark snapshot.
    #[default]
    StaticFifo,
    /// Route each arrival to the active device with the least load
    /// (queue + outstanding; ties to the lowest index). Load-aware, so it
    /// runs on the global schedule and requires a replicated workload.
    ShortestQueue,
    /// Route to the device owning the key's HDM page (via the fleet's
    /// `HdmRouter`). For key-sharded *and* for home-striped replicated
    /// workloads this is exactly the home device, so without autoscaling
    /// it coincides with [`SchedulerKind::StaticFifo`] — the parity test
    /// pins that — and runs on the partitioned schedule. Under autoscaling
    /// it keeps routing home while the autoscaler reshapes the fleet.
    HdmLocality,
    /// Priority-aware admission with SLO-deadline ordering and bounded
    /// work stealing: arrivals route to the least-loaded device, each
    /// device admits its queued request with the (numerically lowest
    /// [`TenantSpec::priority`](super::TenantSpec::priority), earliest
    /// `arrival + slo` deadline) first, and a device going idle steals one
    /// queued request from the longest active queue. Runs on the global
    /// schedule.
    PrioritySlo,
}

impl SchedulerKind {
    /// All built-in policies, in declaration order.
    pub fn all() -> [SchedulerKind; 4] {
        [
            SchedulerKind::StaticFifo,
            SchedulerKind::ShortestQueue,
            SchedulerKind::HdmLocality,
            SchedulerKind::PrioritySlo,
        ]
    }

    /// Stable CLI/JSON name (`static-fifo`, `shortest-queue`,
    /// `hdm-locality`, `priority-slo`).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::StaticFifo => "static-fifo",
            SchedulerKind::ShortestQueue => "shortest-queue",
            SchedulerKind::HdmLocality => "hdm-locality",
            SchedulerKind::PrioritySlo => "priority-slo",
        }
    }

    /// Parses a [`Self::name`] back into a kind.
    pub fn parse(s: &str) -> Option<Self> {
        Self::all().into_iter().find(|k| k.name() == s)
    }

    /// Whether this policy routes against live fleet state (and therefore
    /// must run on the global schedule). Placement-pure policies keep the
    /// partitioned schedule unless autoscaling makes the fleet itself
    /// dynamic.
    pub fn is_dynamic(self) -> bool {
        matches!(
            self,
            SchedulerKind::ShortestQueue | SchedulerKind::PrioritySlo
        )
    }

    /// Builds the policy's runtime state.
    pub(super) fn instantiate(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::StaticFifo => Box::new(StaticFifo),
            SchedulerKind::ShortestQueue => Box::new(ShortestQueue),
            SchedulerKind::HdmLocality => Box::new(HdmLocality),
            SchedulerKind::PrioritySlo => Box::new(PrioritySlo),
        }
    }
}

/// The scheduler-facing view of one request: everything a routing or
/// admission decision may depend on. Built once per run from the
/// generated [`Request`](super::Request)s and the tenant specs.
#[derive(Debug, Clone, Copy)]
pub struct ReqView {
    /// Issuing tenant.
    pub tenant: u16,
    /// Per-tenant sequence number.
    pub seq: u64,
    /// Arrival time (ns).
    pub arrival_ns: f64,
    /// Workload key.
    pub key: u64,
    /// The key's home device (where the `HdmRouter` would place it).
    pub home: usize,
    /// The tenant's latency SLO (ns); `arrival_ns + slo_ns` is the
    /// request's deadline.
    pub slo_ns: f64,
    /// The tenant's priority (0 = highest).
    pub priority: u8,
}

/// A pluggable routing/admission policy for the serving runtime.
///
/// Only [`Scheduler::route`] is required; the remaining hooks default to
/// FIFO admission and no stealing. Implementations must follow the
/// determinism rules in the [module docs](self).
pub trait Scheduler {
    /// Picks the device for a request at its arrival. Returning a device
    /// that is not currently [`Active`](m2ndp_core::DeviceLifecycle::Active) (or is out of
    /// range) is tolerated: the runtime falls back to the least-loaded
    /// active device, so policies like home routing stay total under
    /// autoscaling.
    fn route(&mut self, req: &ReqView, view: &FleetView) -> usize;

    /// Picks which queued request device `dev` admits next, as a position
    /// into `queue` (whose entries index into `views`). Default: `0`, the
    /// FIFO front.
    fn select(
        &mut self,
        dev: usize,
        queue: &VecDeque<usize>,
        views: &[ReqView],
        now_ns: f64,
    ) -> usize {
        let _ = (dev, queue, views, now_ns);
        0
    }

    /// Called when device `idle` has a free slot and an empty queue:
    /// return a victim device to steal one queued request from (the
    /// runtime takes the newest). Default: no stealing.
    fn steal(&mut self, idle: usize, view: &FleetView) -> Option<usize> {
        let _ = (idle, view);
        None
    }
}

/// [`SchedulerKind::StaticFifo`] — home routing, FIFO admission.
struct StaticFifo;

impl Scheduler for StaticFifo {
    fn route(&mut self, req: &ReqView, _view: &FleetView) -> usize {
        req.home
    }
}

/// [`SchedulerKind::HdmLocality`] — HDM-page-owner routing, FIFO
/// admission. Same placement function as [`StaticFifo`] (the home device
/// *is* the HDM owner); kept distinct so intent is explicit at call
/// sites and the coincidence is a tested property, not an accident.
struct HdmLocality;

impl Scheduler for HdmLocality {
    fn route(&mut self, req: &ReqView, _view: &FleetView) -> usize {
        req.home
    }
}

/// [`SchedulerKind::ShortestQueue`] — least-loaded routing.
struct ShortestQueue;

impl Scheduler for ShortestQueue {
    fn route(&mut self, _req: &ReqView, view: &FleetView) -> usize {
        view.shortest_active()
            .expect("fleet has at least one active device")
    }
}

/// [`SchedulerKind::PrioritySlo`] — least-loaded routing, priority +
/// SLO-deadline admission, bounded work stealing.
struct PrioritySlo;

impl Scheduler for PrioritySlo {
    fn route(&mut self, _req: &ReqView, view: &FleetView) -> usize {
        view.shortest_active()
            .expect("fleet has at least one active device")
    }

    fn select(
        &mut self,
        _dev: usize,
        queue: &VecDeque<usize>,
        views: &[ReqView],
        _now_ns: f64,
    ) -> usize {
        let mut best = 0usize;
        for pos in 1..queue.len() {
            let (b, c) = (&views[queue[best]], &views[queue[pos]]);
            let b_key = (b.priority, b.arrival_ns + b.slo_ns);
            let c_key = (c.priority, c.arrival_ns + c.slo_ns);
            if c_key.0 < b_key.0 || (c_key.0 == b_key.0 && c_key.1.total_cmp(&b_key.1).is_lt()) {
                best = pos;
            }
        }
        best
    }

    fn steal(&mut self, _idle: usize, view: &FleetView) -> Option<usize> {
        view.longest_active_queue()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2ndp_core::{DeviceLifecycle, DeviceView};

    fn view(devs: &[(usize, u32, u32, DeviceLifecycle)]) -> FleetView {
        FleetView {
            devices: devs
                .iter()
                .map(
                    |&(queue_len, outstanding, free_slots, lifecycle)| DeviceView {
                        queue_len,
                        outstanding,
                        free_slots,
                        lifecycle,
                    },
                )
                .collect(),
        }
    }

    fn rv(tenant: u16, arrival_ns: f64, slo_ns: f64, priority: u8) -> ReqView {
        ReqView {
            tenant,
            seq: 0,
            arrival_ns,
            key: 0,
            home: 1,
            slo_ns,
            priority,
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for k in SchedulerKind::all() {
            assert_eq!(SchedulerKind::parse(k.name()), Some(k));
        }
        assert_eq!(SchedulerKind::parse("nope"), None);
    }

    #[test]
    fn shortest_queue_routes_least_loaded_active() {
        use DeviceLifecycle::*;
        let mut s = SchedulerKind::ShortestQueue.instantiate();
        // Device 0 is loaded, device 1 is parked, device 2 is idle.
        let v = view(&[(3, 2, 0, Active), (0, 0, 2, Drained), (0, 1, 1, Active)]);
        assert_eq!(s.route(&rv(0, 0.0, 5e3, 0), &v), 2);
        // Ties break to the lowest index.
        let v = view(&[(1, 1, 1, Active), (1, 1, 1, Active)]);
        assert_eq!(s.route(&rv(0, 0.0, 5e3, 0), &v), 0);
    }

    #[test]
    fn home_schedulers_route_home_even_when_loaded() {
        use DeviceLifecycle::*;
        let v = view(&[(0, 0, 2, Active), (9, 9, 0, Active)]);
        for kind in [SchedulerKind::StaticFifo, SchedulerKind::HdmLocality] {
            let mut s = kind.instantiate();
            assert_eq!(s.route(&rv(0, 0.0, 5e3, 0), &v), 1, "{}", kind.name());
        }
    }

    #[test]
    fn priority_slo_selects_by_priority_then_deadline() {
        let mut s = SchedulerKind::PrioritySlo.instantiate();
        let views = vec![
            rv(0, 100.0, 5_000.0, 1), // deadline 5100, low priority
            rv(1, 200.0, 1_000.0, 0), // deadline 1200, high priority
            rv(2, 0.0, 1_000.0, 0),   // deadline 1000, high priority
        ];
        let queue: VecDeque<usize> = VecDeque::from(vec![0, 1, 2]);
        // Highest priority (0) with the earliest deadline wins: index 2.
        assert_eq!(s.select(0, &queue, &views, 0.0), 2);
        // Equal specs fall back to queue order.
        let views = vec![rv(0, 5.0, 1_000.0, 0), rv(1, 5.0, 1_000.0, 0)];
        let queue: VecDeque<usize> = VecDeque::from(vec![0, 1]);
        assert_eq!(s.select(0, &queue, &views, 0.0), 0);
    }

    #[test]
    fn priority_slo_steals_from_longest_active_queue() {
        use DeviceLifecycle::*;
        let mut s = SchedulerKind::PrioritySlo.instantiate();
        let v = view(&[(0, 0, 2, Active), (4, 1, 0, Active), (7, 1, 0, Draining)]);
        // Device 2 has the longest queue but is draining; device 1 wins.
        assert_eq!(s.steal(0, &v), Some(1));
        // Nothing queued anywhere: no steal.
        let v = view(&[(0, 0, 2, Active), (0, 1, 0, Active)]);
        assert_eq!(s.steal(0, &v), None);
    }
}
