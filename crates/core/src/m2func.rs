//! M²func: memory-mapped NDP management functions (§III-B, Table II).
//!
//! The host communicates with the NDP controller through normal CXL.mem
//! reads and writes against a reserved, uncacheable *M²func region*. The
//! ingress packet filter recognizes the region; the *offset* of the access
//! selects the function (strided by 32 B so arguments/return values fit),
//! the write data carries the arguments, and a subsequent read to the same
//! offset fetches the return value of the latest call by that process.
//!
//! | function              | offset  | privileged |
//! |-----------------------|---------|------------|
//! | ndpRegisterKernel     | 0 << 5  | no |
//! | ndpUnregisterKernel   | 1 << 5  | no |
//! | ndpLaunchKernel       | 2 << 5  | no |
//! | ndpPollKernelStatus   | 3 << 5  | no |
//! | ndpShootdownTlbEntry  | 4 << 5  | yes |

use crate::kernel::{KernelId, KernelInstanceId, LaunchArgs, Synchronicity};

/// Stride between function offsets (1 << 5 = 32 B, §III-B).
pub const FUNC_STRIDE: u64 = 1 << 5;

/// The NDP management functions of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum M2Func {
    /// Registers a kernel (args: code location, scratchpad size, register
    /// counts). Returns the kernel id.
    RegisterKernel,
    /// Unregisters a kernel (args: kernel id). Returns 0 or error.
    UnregisterKernel,
    /// Launches a kernel instance. Returns the instance id.
    LaunchKernel,
    /// Polls an instance: 0 finished, 1 running, 2 pending.
    PollKernelStatus,
    /// Privileged: invalidates a TLB entry (ASID, VPN).
    ShootdownTlbEntry,
}

impl M2Func {
    /// The byte offset of this function from the region base.
    pub fn offset(&self) -> u64 {
        let idx = match self {
            M2Func::RegisterKernel => 0,
            M2Func::UnregisterKernel => 1,
            M2Func::LaunchKernel => 2,
            M2Func::PollKernelStatus => 3,
            M2Func::ShootdownTlbEntry => 4,
        };
        idx * FUNC_STRIDE
    }

    /// Decodes a region offset into a function; offsets beyond the function
    /// table fall in the kernel-metadata area and are not function calls.
    pub fn from_offset(offset: u64) -> Option<Self> {
        if !offset.is_multiple_of(FUNC_STRIDE) {
            return None;
        }
        match offset / FUNC_STRIDE {
            0 => Some(M2Func::RegisterKernel),
            1 => Some(M2Func::UnregisterKernel),
            2 => Some(M2Func::LaunchKernel),
            3 => Some(M2Func::PollKernelStatus),
            4 => Some(M2Func::ShootdownTlbEntry),
            _ => None,
        }
    }

    /// Whether the function requires a privileged caller (Table II).
    pub fn privileged(&self) -> bool {
        matches!(self, M2Func::ShootdownTlbEntry)
    }
}

/// Errors returned by the user-level API (negative values on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NdpApiError {
    /// Kernel id not registered.
    UnknownKernel,
    /// Instance id not found.
    UnknownInstance,
    /// The launch buffer is full (§III-C: "If the buffer is full, the
    /// kernel launch will return an error code").
    LaunchBufferFull,
    /// Malformed arguments.
    BadArguments,
    /// Privileged function called without privilege.
    NotPrivileged,
    /// The kernel's resource demands exceed the device (registers or
    /// scratchpad).
    ResourceExceeded,
}

impl NdpApiError {
    /// Wire encoding: negative 64-bit values.
    pub fn code(&self) -> i64 {
        match self {
            NdpApiError::UnknownKernel => -1,
            NdpApiError::UnknownInstance => -2,
            NdpApiError::LaunchBufferFull => -3,
            NdpApiError::BadArguments => -4,
            NdpApiError::NotPrivileged => -5,
            NdpApiError::ResourceExceeded => -6,
        }
    }

    /// Decodes a negative wire value back into the error (the host-runtime
    /// half of [`Self::code`]); `None` for non-error (≥ 0) or unknown codes.
    pub fn from_code(code: i64) -> Option<Self> {
        match code {
            -1 => Some(NdpApiError::UnknownKernel),
            -2 => Some(NdpApiError::UnknownInstance),
            -3 => Some(NdpApiError::LaunchBufferFull),
            -4 => Some(NdpApiError::BadArguments),
            -5 => Some(NdpApiError::NotPrivileged),
            -6 => Some(NdpApiError::ResourceExceeded),
            _ => None,
        }
    }
}

impl std::fmt::Display for NdpApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NdpApiError::UnknownKernel => "unknown kernel id",
            NdpApiError::UnknownInstance => "unknown kernel instance id",
            NdpApiError::LaunchBufferFull => "kernel launch buffer full",
            NdpApiError::BadArguments => "malformed arguments",
            NdpApiError::NotPrivileged => "privileged function requires privilege",
            NdpApiError::ResourceExceeded => "kernel resources exceed device limits",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NdpApiError {}

/// Kernel instance status (Table II `ndpPollKernelStatus` return values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceStatus {
    /// 0 — finished.
    Finished,
    /// 1 — running.
    Running,
    /// 2 — pending (buffered behind other kernels).
    Pending,
}

impl InstanceStatus {
    /// Wire encoding.
    pub fn code(&self) -> i64 {
        match self {
            InstanceStatus::Finished => 0,
            InstanceStatus::Running => 1,
            InstanceStatus::Pending => 2,
        }
    }
}

/// An M²func call decoded from a CXL.mem write to the region.
///
/// The write data layout follows Fig. 4: `[sync/async, kernelID, poolBase,
/// poolBound, argSize, args...]` as consecutive u64 words for launches;
/// simpler layouts for the other functions. Encoding/decoding here are the
/// host-runtime and NDP-controller halves of the same contract.
#[derive(Debug, Clone, PartialEq)]
pub enum M2FuncCall {
    /// ndpRegisterKernel(spadBytes, intRegs, floatRegs, vectorRegs).
    /// The code itself is pre-placed in device memory; word 0 carries its
    /// location (unused by the model, which registers programs directly).
    RegisterKernel {
        /// Scratchpad bytes required.
        spad_bytes: u64,
        /// Integer register count.
        int_regs: u8,
        /// Float register count.
        float_regs: u8,
        /// Vector register count.
        vector_regs: u8,
    },
    /// ndpUnregisterKernel(kernelId).
    UnregisterKernel(KernelId),
    /// ndpLaunchKernel(launch arguments).
    LaunchKernel(LaunchArgs),
    /// ndpPollKernelStatus(instanceId).
    PollKernelStatus(KernelInstanceId),
    /// ndpShootdownTlbEntry(asid, vpn).
    ShootdownTlbEntry {
        /// Address-space id.
        asid: u16,
        /// Virtual page number.
        vpn: u64,
    },
}

/// Encodes a launch call into the u64 words carried by the CXL.mem write
/// (Fig. 4's packet data layout).
pub fn encode_launch(args: &LaunchArgs) -> Vec<u64> {
    let mut words = vec![
        match args.synchronicity {
            Synchronicity::Sync => 1,
            Synchronicity::Async => 0,
        },
        args.kernel_id.0 as u64,
        args.pool_base,
        args.pool_bound,
        args.body_iterations as u64,
        args.arg_bytes() as u64,
    ];
    words.extend_from_slice(&args.args);
    words
}

/// Decodes launch-call words (the controller half of [`encode_launch`]).
///
/// # Errors
/// Returns [`NdpApiError::BadArguments`] on truncated payloads, an empty
/// pool region, zero iterations, or a kernel id or iteration count that
/// does not fit the 32-bit field it names.
pub fn decode_launch(words: &[u64]) -> Result<LaunchArgs, NdpApiError> {
    if words.len() < 6 {
        return Err(NdpApiError::BadArguments);
    }
    let arg_bytes = words[5];
    let arg_words = (arg_bytes / 8) as usize;
    if words.len() < 6 + arg_words {
        return Err(NdpApiError::BadArguments);
    }
    if words[3] <= words[2] {
        return Err(NdpApiError::BadArguments);
    }
    let kernel_id = u32::try_from(words[1]).map_err(|_| NdpApiError::BadArguments)?;
    let body_iterations = u32::try_from(words[4]).map_err(|_| NdpApiError::BadArguments)?;
    if body_iterations == 0 {
        return Err(NdpApiError::BadArguments);
    }
    Ok(LaunchArgs {
        synchronicity: if words[0] == 1 {
            Synchronicity::Sync
        } else {
            Synchronicity::Async
        },
        kernel_id: KernelId(kernel_id),
        pool_base: words[2],
        pool_bound: words[3],
        body_iterations,
        args: words[6..6 + arg_words].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_match_table_ii() {
        assert_eq!(M2Func::RegisterKernel.offset(), 0);
        assert_eq!(M2Func::UnregisterKernel.offset(), 1 << 5);
        assert_eq!(M2Func::LaunchKernel.offset(), 2 << 5);
        assert_eq!(M2Func::PollKernelStatus.offset(), 3 << 5);
        assert_eq!(M2Func::ShootdownTlbEntry.offset(), 4 << 5);
    }

    #[test]
    fn offset_decode_round_trips() {
        for f in [
            M2Func::RegisterKernel,
            M2Func::UnregisterKernel,
            M2Func::LaunchKernel,
            M2Func::PollKernelStatus,
            M2Func::ShootdownTlbEntry,
        ] {
            assert_eq!(M2Func::from_offset(f.offset()), Some(f));
        }
        assert_eq!(M2Func::from_offset(7), None); // unaligned
        assert_eq!(M2Func::from_offset(99 << 5), None); // metadata area
    }

    #[test]
    fn only_shootdown_is_privileged() {
        assert!(M2Func::ShootdownTlbEntry.privileged());
        assert!(!M2Func::LaunchKernel.privileged());
    }

    #[test]
    fn launch_encode_decode_round_trip() {
        let args = LaunchArgs::new(KernelId(7), 0xA000, 0xA1FF)
            .with_args(vec![0xB000, 0xC000])
            .with_iterations(2)
            .synchronous();
        let words = encode_launch(&args);
        let back = decode_launch(&words).unwrap();
        assert_eq!(back, args);
    }

    #[test]
    fn fig4_example_decodes() {
        // Fig. 4: Data [0 (async), 1 (kernel), 0xA000, 0xA1FF, ..., 16 (arg
        // size), 0xB000, 0xC000]; iterations word added by our encoding.
        let words = [0u64, 1, 0xA000, 0xA1FF, 1, 16, 0xB000, 0xC000];
        let args = decode_launch(&words).unwrap();
        assert_eq!(args.kernel_id, KernelId(1));
        assert_eq!(args.pool_base, 0xA000);
        assert_eq!(args.pool_bound, 0xA1FF);
        assert_eq!(args.args, vec![0xB000, 0xC000]);
        assert_eq!(args.synchronicity, Synchronicity::Async);
    }

    #[test]
    fn truncated_launch_rejected() {
        assert_eq!(decode_launch(&[0, 1, 2]), Err(NdpApiError::BadArguments));
        // arg size says 16 bytes but none present
        assert_eq!(
            decode_launch(&[0, 1, 0xA000, 0xB000, 1, 16]),
            Err(NdpApiError::BadArguments)
        );
        // empty pool region
        assert_eq!(
            decode_launch(&[0, 1, 0xB000, 0xA000, 1, 0]),
            Err(NdpApiError::BadArguments)
        );
    }

    #[test]
    fn out_of_range_launch_words_rejected() {
        // Kernel 2^32 + 1 must not alias kernel 1.
        assert_eq!(
            decode_launch(&[0, (1 << 32) + 1, 0xA000, 0xB000, 1, 0]),
            Err(NdpApiError::BadArguments)
        );
        // 2^32 iterations must not truncate to a 0-iteration launch.
        assert_eq!(
            decode_launch(&[0, 1, 0xA000, 0xB000, 1 << 32, 0]),
            Err(NdpApiError::BadArguments)
        );
        // The largest in-range values still decode.
        let args = decode_launch(&[
            0,
            u64::from(u32::MAX),
            0xA000,
            0xB000,
            u64::from(u32::MAX),
            0,
        ])
        .unwrap();
        assert_eq!(args.kernel_id, KernelId(u32::MAX));
        assert_eq!(args.body_iterations, u32::MAX);
    }

    #[test]
    fn error_codes_are_negative() {
        for e in [
            NdpApiError::UnknownKernel,
            NdpApiError::UnknownInstance,
            NdpApiError::LaunchBufferFull,
            NdpApiError::BadArguments,
            NdpApiError::NotPrivileged,
            NdpApiError::ResourceExceeded,
        ] {
            assert!(e.code() < 0, "{e}");
            assert_eq!(NdpApiError::from_code(e.code()), Some(e));
        }
        assert_eq!(NdpApiError::from_code(0), None);
        assert_eq!(NdpApiError::from_code(42), None);
        assert_eq!(NdpApiError::from_code(-99), None);
        assert_eq!(InstanceStatus::Finished.code(), 0);
        assert_eq!(InstanceStatus::Running.code(), 1);
        assert_eq!(InstanceStatus::Pending.code(), 2);
    }
}
