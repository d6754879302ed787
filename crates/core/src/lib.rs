//! The co-designed virtual machine (the paper's primary contribution).
//!
//! This crate implements the staged dynamic binary translation system of
//! Hu & Smith's ISCA 2006 study and the full-system driver used by every
//! experiment:
//!
//! * [`vm::Vm`] — code caches, translation lookup, chaining, hotness
//!   counters, and the **basic-block translator** (BBT) with planted
//!   software-profiling micro-ops;
//! * [`sbt`] — the **superblock translator/optimizer** (SBT): trace
//!   formation from the sampled edge profile, copy folding, dead-flag
//!   elision, and macro-op fusion;
//! * [`System`] — one guest program on one machine configuration
//!   (`Ref: superscalar`, `VM.soft`, `VM.be`, `VM.fe`, `VM.interp`),
//!   co-simulating functional execution and interval-model timing;
//! * [`model`] — the analytical startup models (Eq. 1 and Eq. 2);
//! * [`recorder`] — the startup flight recorder: windowed and
//!   log-spaced time series, phase segments, and translation-latency
//!   histograms, exportable as Perfetto-loadable Chrome traces.
//!
//! # Example
//!
//! ```
//! use cdvm_mem::GuestMem;
//! use cdvm_uarch::MachineKind;
//! use cdvm_core::{System, Status};
//! use cdvm_x86::{Asm, Gpr, AluOp, Cond};
//!
//! // A small guest: sum a counter down to zero, then halt.
//! let mut asm = Asm::new(0x40_0000);
//! asm.mov_ri(Gpr::Eax, 0);
//! asm.mov_ri(Gpr::Ecx, 100);
//! let top = asm.here();
//! asm.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Ecx);
//! asm.dec_r(Gpr::Ecx);
//! asm.jcc(Cond::Ne, top);
//! asm.hlt();
//! let mut mem = GuestMem::new();
//! mem.load(0x40_0000, &asm.finish());
//!
//! let mut sys = System::new(MachineKind::VmSoft, mem, 0x40_0000);
//! let status = sys.run_to_completion(1_000_000_000);
//! assert_eq!(status, Status::Halted);
//! assert_eq!(sys.cpu().gpr[Gpr::Eax as usize], 5050);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod error;
pub mod faultinj;
pub mod model;
mod opt;
mod pcmap;
pub mod profile;
pub mod recorder;
pub mod sbt;
pub mod snapshot;
mod system;
pub mod trace;
mod uasm;
#[cfg(test)]
mod unchain_tests;
pub mod vm;

pub use error::{panic_message, RestoreError, VmError, Watchdog};
pub use faultinj::{FaultInjector, FaultKind, ImageFault, ImageFaultReport, InjectionReport};
pub use opt::{optimize_run, RunStats};
pub use pcmap::{CreditMap, PcCounter, PcSet};
pub use recorder::{
    render_chrome, FlightRecorder, PhaseSegment, RecorderConfig, Telemetry, TelemetryConfig,
    TelemetrySnapshot, WindowSample,
};
pub use snapshot::{
    fnv1a64, image_summary, section_name, write_image_atomic, ImageSummary, SectionInfo,
    FORMAT_VERSION,
};
pub use system::{RestoreOutcome, Status, System, SystemStats, DEFAULT_STACK_TOP};
pub use trace::{Phase, Trace, TraceBuffer, TraceEvent, TraceRecord, NUM_PHASES};
pub use uasm::{UAsm, ULabel, STUB_BYTES};
