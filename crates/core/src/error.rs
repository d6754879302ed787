//! The unified VMM error model.
//!
//! Everything that can go wrong below the architectural surface funnels
//! into [`VmError`]; guest-visible resource exhaustion is described by
//! [`Watchdog`]. Architectural faults stay [`cdvm_x86::Fault`] — they are
//! part of the guest's machine model, not an error in the VMM.
//!
//! The distinction drives the degradation ladder (see DESIGN.md):
//!
//! * a [`VmError`] during *translation* demotes the region to a lower
//!   tier (SBT → BBT → interpreter) and execution continues;
//! * a [`VmError`] during *native execution* (bad fetch, bad encoding,
//!   fault divergence) means the VMM's own invariants broke — the run
//!   stops with [`crate::Status::Broken`] rather than executing wrong
//!   code;
//! * a [`Watchdog`] trip stops a pathological guest with
//!   [`crate::Status::Exhausted`].

use cdvm_cracker::CrackError;
use cdvm_mem::CacheError;
use cdvm_x86::DecodeError;

/// A structured, non-architectural failure inside the VMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// Guest bytes failed to decode during translation.
    Decode {
        /// Address of the undecodable bytes.
        pc: u32,
        /// Underlying decoder error.
        err: DecodeError,
    },
    /// A decoded instruction failed to crack into micro-ops.
    Crack(CrackError),
    /// A code-cache allocation or patch failed.
    Cache(CacheError),
    /// Native execution fetched outside every code cache.
    BadNativeFetch {
        /// The out-of-range native address.
        addr: u32,
    },
    /// Native execution hit an undecodable micro-op encoding.
    BadNativeEncoding {
        /// Address of the bad encoding.
        addr: u32,
    },
    /// An `XLTx86` micro-op executed on a machine without the unit.
    NoXltUnit {
        /// Native PC of the offending micro-op.
        native_pc: u32,
    },
    /// A micro-op fault did not reproduce architecturally when replayed
    /// through the interpreter — a translator bug.
    FaultDivergence {
        /// x86 PC the recovery replayed.
        x86_pc: u32,
    },
    /// A warm-image restore could not be applied (fully or at all); the
    /// system continues from (or falls back to) a clean cold boot.
    Restore(RestoreError),
}

/// Why a warm-image restore was rejected or degraded. Restore is
/// corruption-tolerant by construction: none of these conditions can
/// panic or take the VM down — the worst case is a clean cold boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The image does not start with the warm-image magic.
    BadMagic,
    /// The image's format version is newer than this build understands.
    UnsupportedVersion {
        /// The version field found in the header.
        found: u32,
    },
    /// The image ends before its own header, section table or trailer.
    Truncated,
    /// The header or section table is self-inconsistent (offsets or
    /// lengths point outside the image, absurd section counts, nonzero
    /// reserved header words, …).
    Malformed,
    /// A section's payload failed its checksum or did not parse.
    BadSection {
        /// The section-table id of the damaged section.
        id: u32,
    },
    /// The image was saved under a different machine configuration.
    ConfigMismatch,
    /// The guest's code pages do not hash to the image's fingerprints —
    /// the image belongs to a different workload (or the code was
    /// modified since the save).
    WorkloadMismatch,
    /// The image file could not be read.
    ReadFailed,
    /// Restore was requested on a system that has already executed;
    /// warm images apply only to a fresh boot.
    NotColdBoot,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::BadMagic => write!(f, "not a warm image (bad magic)"),
            RestoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported warm-image format version {found}")
            }
            RestoreError::Truncated => write!(f, "warm image truncated"),
            RestoreError::Malformed => write!(f, "warm-image header or section table malformed"),
            RestoreError::BadSection { id } => {
                write!(f, "warm-image section {id} corrupt (checksum or parse failure)")
            }
            RestoreError::ConfigMismatch => {
                write!(f, "warm image saved under a different machine configuration")
            }
            RestoreError::WorkloadMismatch => {
                write!(f, "warm image does not match the guest's code pages")
            }
            RestoreError::ReadFailed => write!(f, "warm image could not be read"),
            RestoreError::NotColdBoot => {
                write!(f, "restore requires a fresh system (nothing executed yet)")
            }
        }
    }
}

impl From<RestoreError> for VmError {
    fn from(e: RestoreError) -> VmError {
        VmError::Restore(e)
    }
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Decode { pc, err } => write!(f, "decode error at {pc:#x}: {err}"),
            VmError::Crack(e) => write!(f, "crack error: {e}"),
            VmError::Cache(e) => write!(f, "code-cache error: {e}"),
            VmError::BadNativeFetch { addr } => {
                write!(f, "native fetch outside the code caches at {addr:#x}")
            }
            VmError::BadNativeEncoding { addr } => {
                write!(f, "undecodable micro-op encoding at {addr:#x}")
            }
            VmError::NoXltUnit { native_pc } => {
                write!(f, "XLTx86 executed without a unit at {native_pc:#x}")
            }
            VmError::FaultDivergence { x86_pc } => {
                write!(f, "micro-op fault did not reproduce at {x86_pc:#x}")
            }
            VmError::Restore(e) => write!(f, "warm-image restore: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<CrackError> for VmError {
    fn from(e: CrackError) -> VmError {
        VmError::Crack(e)
    }
}

impl From<CacheError> for VmError {
    fn from(e: CacheError) -> VmError {
        VmError::Cache(e)
    }
}

/// A guest resource watchdog that tripped.
///
/// Watchdogs are off by default; embedders arm them on
/// [`crate::System`] to bound pathological guests (runaway loops,
/// translation storms) with a structured, reportable outcome instead of
/// an unbounded simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watchdog {
    /// The retired-instruction fuel budget ran out.
    Fuel {
        /// The armed budget.
        limit: u64,
    },
    /// The translated-region budget (BBT blocks + superblocks) ran out.
    Translations {
        /// The armed budget.
        limit: u64,
    },
    /// Consecutive code-cache flushes with almost no guest progress
    /// between them — a retranslation storm (e.g. a working set that can
    /// never fit the cache, retranslated forever).
    RetranslationStorm {
        /// Consecutive low-progress flushes observed.
        flushes: u32,
    },
}

impl std::fmt::Display for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Watchdog::Fuel { limit } => {
                write!(f, "instruction-fuel budget of {limit} exhausted")
            }
            Watchdog::Translations { limit } => {
                write!(f, "translation budget of {limit} regions exhausted")
            }
            Watchdog::RetranslationStorm { flushes } => {
                write!(f, "retranslation storm: {flushes} low-progress cache flushes")
            }
        }
    }
}

/// Renders a caught panic's payload for a failure record: the message
/// of a `panic!` (a `&str` or a `String`), or else the payload's type
/// id, since `dyn Any` exposes no type name.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        format!("non-string panic payload ({:?})", payload.type_id())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let ce: VmError = CrackError::TempsExhausted { pc: 0x40 }.into();
        assert!(matches!(ce, VmError::Crack(_)));
        let me: VmError = CacheError::TooLarge {
            requested: 10,
            capacity: 5,
        }
        .into();
        assert!(me.to_string().contains("code-cache"));
        assert!(
            Watchdog::Fuel { limit: 100 }.to_string().contains("100"),
            "watchdog display names the budget"
        );
    }
}
