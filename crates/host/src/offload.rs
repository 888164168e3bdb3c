//! NDP offloading mechanisms and their end-to-end cost (Fig. 5), plus the
//! steady-state measurement window the serving runtime ([`crate::serve`])
//! reports throughput over.
//!
//! Three mechanisms launch kernels on the device:
//!
//! * **M²func** (this paper): one CXL.mem write (launch) + one CXL.mem read
//!   (return value) — `z + 2x` end to end, with up to 48 concurrent kernels;
//! * **CXL.io ring buffer**: doorbell, command DMA, launch + error check —
//!   `z + 8y` (5y before, 3y after), concurrent kernels allowed;
//! * **CXL.io direct MMIO**: `z + 3y`, but a *single* outstanding kernel,
//!   since the device registers must not be overwritten (§II-C).

use m2ndp_cxl::{CxlIoModel, CxlLinkConfig};

/// A kernel-offload mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadMechanism {
    /// Memory-mapped functions over CXL.mem (§III-B).
    M2Func,
    /// Conventional ring buffer over CXL.io/PCIe.
    CxlIoRingBuffer,
    /// Direct device-register MMIO over CXL.io/PCIe.
    CxlIoDirect,
}

/// Latency/concurrency model for one mechanism.
#[derive(Debug, Clone)]
pub struct OffloadModel {
    mechanism: OffloadMechanism,
    link: CxlLinkConfig,
    io: CxlIoModel,
    max_concurrent: u32,
}

impl OffloadModel {
    /// Builds the model from the link/IO parameters in play.
    pub fn new(mechanism: OffloadMechanism, link: CxlLinkConfig, io: CxlIoModel) -> Self {
        let max_concurrent = match mechanism {
            OffloadMechanism::M2Func => 48,
            OffloadMechanism::CxlIoRingBuffer => 48,
            OffloadMechanism::CxlIoDirect => 1,
        };
        Self {
            mechanism,
            link,
            io,
            max_concurrent,
        }
    }

    /// Default-parameter model for a mechanism.
    pub fn with_defaults(mechanism: OffloadMechanism) -> Self {
        Self::new(
            mechanism,
            CxlLinkConfig::default_150ns(),
            CxlIoModel::default(),
        )
    }

    /// The mechanism.
    pub fn mechanism(&self) -> OffloadMechanism {
        self.mechanism
    }

    /// Host-side latency before the kernel starts executing (ns).
    pub fn pre_ns(&self) -> f64 {
        match self.mechanism {
            OffloadMechanism::M2Func => self.link.one_way_ns, // x
            OffloadMechanism::CxlIoRingBuffer => self.io.ring_buffer_pre_ns(),
            OffloadMechanism::CxlIoDirect => self.io.direct_pre_ns(),
        }
    }

    /// Latency after kernel completion until the host observes it (ns).
    pub fn post_ns(&self) -> f64 {
        match self.mechanism {
            OffloadMechanism::M2Func => self.link.one_way_ns, // x (sync read return)
            OffloadMechanism::CxlIoRingBuffer => self.io.ring_buffer_post_ns(),
            OffloadMechanism::CxlIoDirect => self.io.direct_post_ns(),
        }
    }

    /// Total communication overhead around one kernel (Fig. 5's totals
    /// minus z).
    pub fn overhead_ns(&self) -> f64 {
        self.pre_ns() + self.post_ns()
    }

    /// End-to-end latency of one kernel of runtime `z_ns`.
    pub fn end_to_end_ns(&self, z_ns: f64) -> f64 {
        z_ns + self.overhead_ns()
    }

    /// Maximum concurrently outstanding kernels.
    pub fn max_concurrent(&self) -> u32 {
        self.max_concurrent
    }
}

/// Default fraction of requests (in arrival order) treated as warm-up and
/// excluded from the steady measurement window
/// ([`crate::serve::ServeConfig::warmup_frac`]).
pub const WARMUP_FRAC: f64 = 0.1;

/// A steady-state measurement window over one open-loop serving run.
#[derive(Debug, Clone, Copy)]
pub struct SteadyWindow {
    /// When the window opens (ns): the first measured request's arrival,
    /// or the last warm-up completion if the empty-system ramp is still
    /// draining (saturation).
    pub open: f64,
    /// When the window closes (ns): the last measured completion.
    pub close: f64,
    /// The measured request range `[start, end)` in arrival order (after
    /// the warm-up prefix, before the drain suffix).
    pub measured: (usize, usize),
    /// Measured completions per second over `[open, close]`; 0.0 when the
    /// window is empty or degenerate.
    pub throughput: f64,
}

/// Computes the steady window over parallel arrival/completion arrays in
/// arrival order: the first `warmup_frac` of requests are warm-up, the
/// last `drain_frac` are drain, and throughput counts the remaining
/// completions over `[open, close]` (see [`SteadyWindow`] field docs for
/// the boundary definitions).
///
/// # Panics
/// Panics if the arrays differ in length.
pub fn steady_window(
    arrivals: &[f64],
    completions: &[f64],
    warmup_frac: f64,
    drain_frac: f64,
) -> SteadyWindow {
    assert_eq!(arrivals.len(), completions.len());
    let n = arrivals.len();
    if n == 0 {
        return SteadyWindow {
            open: 0.0,
            close: 0.0,
            measured: (0, 0),
            throughput: 0.0,
        };
    }
    let warm = (((n as f64) * warmup_frac) as usize).min(n - 1);
    let drain = ((n as f64) * drain_frac) as usize;
    let end = n.saturating_sub(drain).max(warm);
    let warm_done = completions[..warm]
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let open = arrivals[warm].max(warm_done);
    let close = completions[warm..end]
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let throughput = if close > open {
        (end - warm) as f64 / ((close - open) * 1e-9)
    } else {
        0.0
    };
    SteadyWindow {
        open,
        close,
        measured: (warm, end),
        throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_overheads_match_paper_math() {
        // x = 75 ns, y = 500 ns → M²func 150 ns, RB 4000 ns, DR 1500 ns.
        let m2 = OffloadModel::with_defaults(OffloadMechanism::M2Func);
        let rb = OffloadModel::with_defaults(OffloadMechanism::CxlIoRingBuffer);
        let dr = OffloadModel::with_defaults(OffloadMechanism::CxlIoDirect);
        assert!((m2.overhead_ns() - 150.0).abs() < 1e-9);
        assert!((rb.overhead_ns() - 4000.0).abs() < 1e-9);
        assert!((dr.overhead_ns() - 1500.0).abs() < 1e-9);
        // Fig. 5 example: z = 6.4 µs → communication reduced 33–75 %.
        let z = 6400.0;
        assert!(m2.end_to_end_ns(z) < dr.end_to_end_ns(z));
        assert!(dr.end_to_end_ns(z) < rb.end_to_end_ns(z));
        let comm_reduction_vs_rb = 1.0 - m2.overhead_ns() / rb.overhead_ns();
        assert!(comm_reduction_vs_rb > 0.9);
    }

    #[test]
    fn direct_mmio_serializes_kernels() {
        let dr = OffloadModel::with_defaults(OffloadMechanism::CxlIoDirect);
        assert_eq!(dr.max_concurrent(), 1);
        let m2 = OffloadModel::with_defaults(OffloadMechanism::M2Func);
        assert_eq!(m2.max_concurrent(), 48);
    }
}
