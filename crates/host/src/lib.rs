//! Host-side models: the baseline CPU and GPU systems with passive CXL
//! memory, the NDP offloading mechanisms, and the prior-work comparison
//! stand-ins.
//!
//! * [`cpu`] — the Table IV host CPU (64 OoO cores @ 3.2 GHz) as an
//!   MLP-window timing model: streaming phases are bounded by per-core
//!   memory-level parallelism and the CXL link; pointer-chasing phases by
//!   dependent load-to-use chains. Also models CPU-NDP (host-class cores
//!   placed inside the CXL device, §IV-A).
//! * [`offload`] — kernel-offload mechanisms: M²func over CXL.mem versus
//!   the CXL.io ring-buffer and direct-MMIO schemes (Fig. 5), including
//!   their concurrency limits.
//! * [`serve`] — the event-driven multi-tenant serving runtime: open-loop
//!   tenant streams admitted onto *real* device simulators (a standalone
//!   [`m2ndp_core::CxlM2ndpDevice`] or a switched
//!   [`m2ndp_core::fleet::Fleet`]), one actual kernel launch per request
//!   under an offload mechanism's costs (Figs. 10b, 11b, 11c, 15).
//! * [`roofline`] — the Fig. 1a roofline analysis.
//! * [`nsu`] — the NSU prior work \[81\]: host-translated addresses for every
//!   NDP access, bottlenecked on the CXL link.
//! * [`domain_specific`] — Fig. 14a's application-specific NDP processing
//!   elements (CXL-ANNS, CMS, RecNMP, CXL-PNM) as achievable-bandwidth
//!   models.
//!
//! The baseline *GPU* is not here: it reuses the M²NDP execution engine in
//! GPU mode (`m2ndp_core::EngineConfig::gpu_host`) with its data homed in
//! the remote CXL window — see `m2ndp_core::device`.

#![warn(missing_docs)]

pub mod cpu;
pub mod domain_specific;
pub mod nsu;
pub mod offload;
pub mod roofline;
pub mod serve;

pub use cpu::{HostCpu, HostCpuConfig};
pub use offload::OffloadMechanism;
pub use roofline::Roofline;
pub use serve::{ServeBackend, ServeConfig, TenantSpec};
