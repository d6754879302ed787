//! Running one job through `System` and measuring the layers below it
//! through their public calls.
//!
//! The engine layers are timed in place, slice by slice: a
//! `System::run_slice` call that installed a translation counts as
//! translation time, one that installed nothing as execution time. The
//! translator, decoder, cracker and snapshot layers are timed by replay
//! after the run: the benchmark calls `cdvm_x86::decode`, `crack`,
//! `HwXlt::xlt`, `Vm::translate_bbt` and `sbt::translate_sbt` over the
//! code the run translated, on fresh state, and `snapshot_bytes` /
//! `restore_image_bytes` on the finished system.

use std::hint::black_box;
use std::time::Instant;

use cdvm_core::block::scan_block;
use cdvm_core::sbt::translate_sbt;
use cdvm_core::vm::{TransKind, Vm};
use cdvm_core::{Status, System};
use cdvm_cracker::{crack, HwXlt};
use cdvm_fisa::XltAssist;
use cdvm_mem::Memory;
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::Workload;
use cdvm_x86::{decode, Decoder};

use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;

/// Guest instructions per `run_slice` call (as `run_to_completion`).
pub const SLICE: u64 = 8192;

/// Metric suffix of each machine lane, indexed by [`lane`].
pub const LANES: [&str; 5] = ["ref", "vm_soft", "vm_be", "vm_fe", "vm_interp"];

/// Index of `kind` in [`LANES`].
pub fn lane(kind: MachineKind) -> usize {
    match kind {
        MachineKind::RefSuperscalar => 0,
        MachineKind::VmSoft => 1,
        MachineKind::VmBe => 2,
        MachineKind::VmFe => 3,
        MachineKind::VmInterp => 4,
    }
}

/// Host time inside `run_slice`, split by whether the call installed a
/// translation.
#[derive(Debug, Default, Clone, Copy)]
pub struct SliceTimes {
    /// All `run_slice` calls.
    pub run_ns: u64,
    /// Calls that installed a BBT block or SBT superblock.
    pub xlate_ns: u64,
    /// Calls that installed nothing.
    pub exec_ns: u64,
    /// Guest instructions retired in those calls.
    pub exec_insts: u64,
    /// Guest instructions retired in all calls.
    pub insts: u64,
}

/// A finished job.
pub struct JobRun {
    /// The system at its architected end.
    pub sys: System,
    /// How the run ended.
    pub status: Status,
    /// Host ns from `System` construction to the end.
    pub ns: u64,
    /// Slice split (traced runs only).
    pub slices: SliceTimes,
}

fn installed(sys: &System) -> u64 {
    sys.vm
        .as_ref()
        .map_or(0, |vm| vm.stats.bbt_blocks + vm.stats.sbt_superblocks)
}

/// Runs `wl` on a fresh `kind` system to its architected end. With a
/// tracer, every public call gets a span and the slice split is measured.
pub fn run_job(kind: MachineKind, wl: &Workload, tracer: Option<&mut Tracer>, job: u64) -> JobRun {
    let Some(tr) = tracer else {
        let t0 = Instant::now();
        let mut sys = System::with_config(MachineConfig::preset(kind), wl.mem.clone(), wl.entry);
        let status = loop {
            let st = sys.run_slice(SLICE);
            if st != Status::Running {
                break st;
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        return JobRun {
            sys,
            status,
            ns,
            slices: SliceTimes::default(),
        };
    };
    let root = tr.begin("job", job);
    let t0 = Instant::now();
    let new = tr.begin("core.system_new", job);
    let mut sys = System::with_config(MachineConfig::preset(kind), wl.mem.clone(), wl.entry);
    tr.end(new);
    let mut slices = SliceTimes::default();
    let status = loop {
        let before = (installed(&sys), sys.x86_retired());
        let start = tr.now();
        let st = sys.run_slice(SLICE);
        let end = tr.now();
        let dt = end - start;
        let insts = sys.x86_retired() - before.1;
        slices.run_ns += dt;
        slices.insts += insts;
        if installed(&sys) != before.0 {
            slices.xlate_ns += dt;
            tr.record("core.run_slice.xlate", job, start, end);
        } else {
            slices.exec_ns += dt;
            slices.exec_insts += insts;
            tr.record("core.run_slice.exec", job, start, end);
        }
        if st != Status::Running {
            break st;
        }
    };
    let ns = t0.elapsed().as_nanos() as u64;
    tr.end(root);
    JobRun {
        sys,
        status,
        ns,
        slices,
    }
}

/// Layer measurements accumulated over jobs.
#[derive(Debug, Default)]
pub struct Probe {
    decode_ns: u64,
    crack_ns: u64,
    xlt_ns: u64,
    isa_insts: u64,
    bbt_ns: u64,
    bbt_insts: u64,
    sbt_ns: u64,
    sbt_insts: u64,
    /// Replayed translations that returned an error (reported, not fatal:
    /// a fresh VM has no edge profile, so a few superblocks may not form).
    pub replay_errors: u64,
    snapshot_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    image_kb: Vec<f64>,
    /// Restores of a finished system's own image that fell back to a cold
    /// boot.
    pub restore_failures: u64,
    decoder_hits: u64,
    decoder_decodes: u64,
    interp_insts: u64,
    mode_insts: u64,
    bbt_x86_insts: u64,
    sbt_x86_insts: u64,
    vm_exits: u64,
    chains: u64,
    cache_flushes: u64,
    native_insts: u64,
    decoded_runs: u64,
    l1i: (u64, u64),
    l1d: (u64, u64),
    l2: (u64, u64),
    branches: (u64, u64),
    lane_run: [(u64, u64); 5],
    lane_exec: [(u64, u64); 5],
    xlate_ns: u64,
    run_ns: u64,
}

impl Probe {
    /// Adds a finished system's counters. These are deterministic.
    pub fn add_counts(&mut self, sys: &System) {
        let d = &sys.interp.decoder;
        self.decoder_hits += d.cache_hits();
        self.decoder_decodes += d.decodes();
        self.interp_insts += sys.stats.interp_retired;
        self.mode_insts += sys.stats.x86_mode_retired;
        self.vm_exits += sys.stats.vm_exits;
        self.native_insts += sys.timing.uops_retired();
        self.decoded_runs += sys.decoded_runs() as u64;
        if let Some(vm) = &sys.vm {
            self.bbt_x86_insts += vm.stats.bbt_x86_insts;
            self.sbt_x86_insts += vm.stats.sbt_x86_insts;
            self.chains += vm.stats.chains_applied;
            self.cache_flushes += vm.bbt_cache.stats().flushes + vm.sbt_cache.stats().flushes;
        }
        let h = &sys.timing.hier;
        for (acc, c) in [
            (&mut self.l1i, &h.l1i),
            (&mut self.l1d, &h.l1d),
            (&mut self.l2, &h.l2),
        ] {
            let s = c.stats();
            acc.0 += s.accesses;
            acc.1 += s.misses;
        }
        let p = sys.timing.pred.stats();
        self.branches.0 += p.branches;
        self.branches.1 += p.mispredicts;
    }

    /// Adds one job's slice split to its machine lane.
    pub fn add_slices(&mut self, kind: MachineKind, s: &SliceTimes) {
        let l = lane(kind);
        self.lane_run[l].0 += s.run_ns;
        self.lane_run[l].1 += s.insts;
        self.lane_exec[l].0 += s.exec_ns;
        self.lane_exec[l].1 += s.exec_insts;
        self.xlate_ns += s.xlate_ns;
        self.run_ns += s.run_ns;
    }

    /// Replays the translated code of a finished system through the
    /// decoder, cracker, `XLTx86` unit and both translators, and times a
    /// snapshot of it and a restore into a fresh system.
    pub fn add_replay(&mut self, sys: &mut System, wl: &Workload) {
        let cfg = MachineConfig::preset(sys.kind);
        if let Some(vm) = &sys.vm {
            let mut entries: Vec<(u32, TransKind)> =
                vm.blocks.iter().map(|(e, t)| (*e, t.kind)).collect();
            entries.sort_unstable_by_key(|(e, _)| *e);
            self.replay_isa(&entries, wl);
            self.replay_translators(sys.kind, &cfg, &entries, wl);
        }
        let t = Instant::now();
        let image = sys.snapshot_bytes();
        self.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.image_kb.push(image.len() as f64 / 1024.0);
        let mut fresh = System::with_config(cfg, wl.mem.clone(), wl.entry);
        let t = Instant::now();
        let outcome = fresh.restore_image_bytes(&image);
        self.restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if outcome.is_cold_boot() {
            self.restore_failures += 1;
        }
    }

    /// Times decode, crack and `XLTx86` over every instruction of the
    /// translated entry blocks (best of three passes each).
    fn replay_isa(&mut self, entries: &[(u32, TransKind)], wl: &Workload) {
        let mut mem = wl.mem.clone();
        let mut dec = Decoder::new();
        let mut insts = Vec::new();
        for (entry, _) in entries {
            let Ok(block) = scan_block(&mut dec, &mut mem, *entry) else {
                self.replay_errors += 1;
                continue;
            };
            for (pc, inst) in block.insts {
                let mut bytes = [0u8; 16];
                mem.read_bytes(pc, &mut bytes);
                insts.push((pc, bytes, inst));
            }
        }
        if insts.is_empty() {
            return;
        }
        let best = |f: &mut dyn FnMut()| {
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_nanos() as u64
                })
                .min()
                .unwrap_or(0)
        };
        self.decode_ns += best(&mut || {
            for (pc, bytes, _) in &insts {
                let _ = black_box(decode(black_box(&bytes[..]), *pc));
            }
        });
        self.crack_ns += best(&mut || {
            for (pc, _, inst) in &insts {
                let _ = black_box(crack(black_box(inst), *pc));
            }
        });
        let mut unit = HwXlt::new();
        self.xlt_ns += best(&mut || {
            for (pc, bytes, _) in &insts {
                black_box(unit.xlt(black_box(bytes), *pc));
            }
        });
        self.isa_insts += insts.len() as u64;
    }

    /// Times `translate_bbt` over the run's BBT entries and
    /// `translate_sbt` over its SBT entries, on a fresh `Vm` configured as
    /// `System` configures it for `kind`.
    fn replay_translators(
        &mut self,
        kind: MachineKind,
        cfg: &MachineConfig,
        entries: &[(u32, TransKind)],
        wl: &Workload,
    ) {
        let (threshold, profiling) = match kind {
            MachineKind::VmInterp => (cfg.interp_hot_threshold, false),
            MachineKind::VmFe => (cfg.hot_threshold, false),
            _ => (cfg.hot_threshold, true),
        };
        let mut vm = Vm::new(
            cfg.bbt_cache_bytes,
            cfg.sbt_cache_bytes,
            threshold,
            profiling,
        );
        let mut dec = Decoder::new();
        let mut mem = wl.mem.clone();
        for &(entry, kind) in entries.iter().filter(|(_, k)| *k == TransKind::Bbt) {
            let t = Instant::now();
            let r = vm.translate_bbt(&mut dec, &mut mem, entry);
            let ns = t.elapsed().as_nanos() as u64;
            self.note_translation(kind, ns, r.map(|(o, _)| o));
        }
        for &(entry, kind) in entries.iter().filter(|(_, k)| *k == TransKind::Sbt) {
            let t = Instant::now();
            let r = translate_sbt(&mut vm, &mut dec, &mut mem, entry);
            let ns = t.elapsed().as_nanos() as u64;
            self.note_translation(kind, ns, r.map(|(o, _)| o));
        }
    }

    fn note_translation<E>(
        &mut self,
        kind: TransKind,
        ns: u64,
        r: Result<cdvm_core::vm::TranslateOutcome, E>,
    ) {
        let Ok(o) = r else {
            self.replay_errors += 1;
            return;
        };
        let insts = u64::from(o.simple_insts + o.complex_insts);
        match kind {
            TransKind::Bbt => {
                self.bbt_ns += ns;
                self.bbt_insts += insts;
            }
            TransKind::Sbt => {
                self.sbt_ns += ns;
                self.sbt_insts += insts;
            }
        }
    }

    /// Appends the per-layer metrics this probe measured.
    pub fn metrics(&self, out: &mut Outcome) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        out.metric(
            "x86.decode_ns_per_inst",
            ratio(self.decode_ns, self.isa_insts),
            "ns/inst",
        );
        out.metric(
            "x86.decoder_hit_ratio",
            ratio(self.decoder_hits, self.decoder_decodes),
            "fraction",
        );
        out.metric("x86.interp_insts", self.interp_insts as f64, "count");
        out.metric("x86.mode_insts", self.mode_insts as f64, "count");
        out.metric(
            "cracker.crack_ns_per_inst",
            ratio(self.crack_ns, self.isa_insts),
            "ns/inst",
        );
        out.metric(
            "cracker.xlt_ns_per_inst",
            ratio(self.xlt_ns, self.isa_insts),
            "ns/inst",
        );
        out.metric(
            "core.bbt_ns_per_inst",
            ratio(self.bbt_ns, self.bbt_insts),
            "ns/inst",
        );
        out.metric(
            "core.sbt_ns_per_inst",
            ratio(self.sbt_ns, self.sbt_insts),
            "ns/inst",
        );
        out.metric(
            "core.xlate_share",
            ratio(self.xlate_ns, self.run_ns),
            "fraction",
        );
        out.metric("core.bbt_insts", self.bbt_x86_insts as f64, "count");
        out.metric("core.sbt_insts", self.sbt_x86_insts as f64, "count");
        out.metric("core.vm_exits", self.vm_exits as f64, "count");
        out.metric("core.chains", self.chains as f64, "count");
        out.metric("core.cache_flushes", self.cache_flushes as f64, "count");
        for (l, name) in LANES.iter().enumerate() {
            let (ns, n) = self.lane_run[l];
            out.metric(
                &format!("core.run_ns_per_inst.{name}"),
                ratio(ns, n),
                "ns/inst",
            );
        }
        for (l, name) in LANES.iter().enumerate() {
            let (ns, n) = self.lane_exec[l];
            out.metric(
                &format!("core.exec_ns_per_inst.{name}"),
                ratio(ns, n),
                "ns/inst",
            );
        }
        out.metric("fisa.native_insts", self.native_insts as f64, "count");
        out.metric("fisa.decoded_runs", self.decoded_runs as f64, "count");
        out.metric(
            "uarch.l1i_miss_rate",
            ratio(self.l1i.1, self.l1i.0),
            "fraction",
        );
        out.metric(
            "uarch.l1d_miss_rate",
            ratio(self.l1d.1, self.l1d.0),
            "fraction",
        );
        out.metric(
            "uarch.l2_miss_rate",
            ratio(self.l2.1, self.l2.0),
            "fraction",
        );
        out.metric(
            "uarch.mispredict_rate",
            ratio(self.branches.1, self.branches.0),
            "fraction",
        );
        out.metric("core.snapshot_ms", median(&self.snapshot_ms), "ms");
        out.metric("core.restore_ms", median(&self.restore_ms), "ms");
        out.metric("core.image_kb", median(&self.image_kb), "KiB");
    }
}
