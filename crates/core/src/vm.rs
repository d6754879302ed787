//! The VM translation state and the basic-block translator (BBT).

use std::collections::HashMap;

use cdvm_cracker::{crack, CtiSpec};
use cdvm_fisa::{encoding, regs, ExitCode, Op, SysOp, Uop};
use cdvm_mem::{
    CacheError, ChainRegistry, CodeCache, CodeCacheConfig, GuestMem, LookupOutcome, Memory,
    NativePc, TranslationTable,
};
use cdvm_x86::{Cond, Decoder, Width};

use crate::block::scan_block;
use crate::error::VmError;
use crate::pcmap::{CreditMap, PcSet};
use crate::profile::{CounterFile, EdgeProfile};
use crate::trace::{TierKind, Trace, TraceEvent};
use crate::uasm::{UAsm, ULabel, STUB_BYTES};

/// Which translator produced a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransKind {
    /// Basic-block translator (cold code).
    Bbt,
    /// Superblock translator/optimizer (hotspots).
    Sbt,
}

/// Metadata for one installed translation.
#[derive(Debug, Clone, Copy)]
pub struct Translation {
    /// Entry point in the code cache.
    pub native: NativePc,
    /// Producing translator.
    pub kind: TransKind,
    /// x86 instructions covered.
    pub x86_count: u32,
    /// Micro-ops emitted.
    pub uop_count: u32,
    /// Encoded bytes.
    pub bytes: u32,
    /// Hotness-counter address, when software profiling is planted.
    pub counter_addr: Option<u32>,
    /// Code-cache generation the translation lives in.
    pub generation: u64,
}

/// Counters the evaluation section reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmStats {
    /// BBT blocks translated (including re-translations after flushes).
    pub bbt_blocks: u64,
    /// x86 instructions BBT-translated (M_BBT plus re-translations).
    pub bbt_x86_insts: u64,
    /// x86 instructions BBT-translated again after their previous
    /// translation was lost to a code-cache flush (the §1.1 multitasking
    /// cost).
    pub bbt_retranslated_insts: u64,
    /// x86 instructions re-translated to *add a profiling counter*
    /// (profile upgrades of late-discovered loop heads).
    pub bbt_upgraded_insts: u64,
    /// Superblocks built by the SBT.
    pub sbt_superblocks: u64,
    /// x86 instructions SBT-optimized (M_SBT with duplication).
    pub sbt_x86_insts: u64,
    /// Micro-ops emitted by BBT.
    pub bbt_uops: u64,
    /// Micro-ops emitted by SBT.
    pub sbt_uops: u64,
    /// SBT micro-ops that are part of fused macro-op pairs.
    pub sbt_fused_uops: u64,
    /// Flag-setting micro-ops whose flag writes the optimizer elided.
    pub sbt_flags_elided: u64,
    /// Branch chains applied.
    pub chains_applied: u64,
    /// Chain patches reverted to exit stubs (their target died in a
    /// flush).
    pub unchains: u64,
    /// Complex x86 instructions encountered by the translators.
    pub complex_insts: u64,
}

/// One applied chain patch, remembered so it can be *unchained* when the
/// translation it targets is flushed (stale chained branches into a
/// reused arena would otherwise execute unrelated code).
#[derive(Debug, Clone, Copy)]
struct AppliedChain {
    /// Patched 12-byte stub slot.
    site: u32,
    /// Architected target the stub originally carried.
    x86_target: u32,
    /// Cache holding the site.
    site_kind: TransKind,
    /// Generation the site was created in.
    site_gen: u64,
    /// Cache holding the chain target.
    target_kind: TransKind,
    /// Set for a BBT-entry -> SBT redirect (the slot is the entry of a
    /// whole block; unchaining must also force re-translation).
    redirect_of: Option<u32>,
}

/// Result of translating one region.
#[derive(Debug, Clone, Copy)]
pub struct TranslateOutcome {
    /// The installed translation.
    pub translation: Translation,
    /// Simple (hardware-crackable) x86 instructions translated.
    pub simple_insts: u32,
    /// Complex x86 instructions translated (software path under VM.be).
    pub complex_insts: u32,
    /// Source PC of the first instruction (for translator cache traffic).
    pub src_pc: u32,
}

/// Fetch source for the executor, merging the two code caches (and
/// their retirement credits) by address range.
pub struct VmCode<'a>(&'a Vm);

impl cdvm_fisa::CodeSource for VmCode<'_> {
    fn fetch_hw(&self, addr: u32) -> Option<u16> {
        let cache = if addr >= self.0.sbt_cache.config().base {
            &self.0.sbt_cache
        } else {
            &self.0.bbt_cache
        };
        if cache.contains(NativePc(addr)) {
            Some(cache.read_u16(addr))
        } else {
            None
        }
    }

    /// BBT credit entries store the instruction's x86 PC (credit is
    /// always one per instruction; `u32::MAX` is a tombstone left by
    /// entry redirection); SBT entries store the run's credit count.
    fn credit(&self, addr: u32) -> u32 {
        if addr >= self.0.sbt_cache.config().base {
            self.0.sbt_credits.get(addr).unwrap_or(0)
        } else {
            match self.0.bbt_credits.get(addr) {
                Some(u32::MAX) | None => 0,
                Some(_) => 1,
            }
        }
    }
}

/// The VM translation subsystem: caches, lookup tables, profile state,
/// and both translators.
pub struct Vm {
    /// BBT code cache.
    pub bbt_cache: CodeCache,
    /// SBT code cache.
    pub sbt_cache: CodeCache,
    /// Lookup for BBT translations.
    pub bbt_table: TranslationTable,
    /// Lookup for SBT translations (searched first).
    pub sbt_table: TranslationTable,
    bbt_chains: ChainRegistry,
    sbt_chains: ChainRegistry,
    /// Hotness counters (concealed memory slots).
    pub counters: CounterFile,
    /// Sampled edge profile for superblock formation.
    pub edges: EdgeProfile,
    /// Retired-instruction credit marks for BBT code.
    pub bbt_credits: CreditMap,
    /// Retired-instruction credit marks for SBT code.
    pub sbt_credits: CreditMap,
    /// Installed translations by x86 entry (the freshest per kind wins
    /// through the lookup order).
    pub blocks: HashMap<u32, Translation>,
    /// Entries that should carry software profiling when BBT-translated
    /// (backward-branch / call / indirect targets).
    profile_candidates: PcSet,
    /// Plant software profiling micro-ops in BBT code (off for machines
    /// with hardware hotspot detection).
    pub software_profiling: bool,
    /// Hot threshold loaded into fresh counters.
    pub hot_threshold: u32,
    applied_chains: Vec<AppliedChain>,
    /// Every entry ever BBT-translated (survives flushes; sizes M_BBT and
    /// detects flush-forced re-translations).
    seen_bbt: PcSet,
    /// Statistics.
    pub stats: VmStats,
    /// Observability event trace (disabled by default; the system driver
    /// advances its clock and enables it).
    pub trace: Trace,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("blocks", &self.blocks.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Vm {
    /// Creates the VM translation subsystem.
    pub fn new(
        bbt_bytes: usize,
        sbt_bytes: usize,
        hot_threshold: u32,
        software_profiling: bool,
    ) -> Vm {
        let bbt_cfg = CodeCacheConfig::bbt(bbt_bytes);
        let sbt_cfg = CodeCacheConfig::sbt(sbt_bytes);
        Vm {
            bbt_cache: CodeCache::new(bbt_cfg),
            sbt_cache: CodeCache::new(sbt_cfg),
            bbt_table: TranslationTable::new(),
            sbt_table: TranslationTable::new(),
            bbt_chains: ChainRegistry::new(),
            sbt_chains: ChainRegistry::new(),
            counters: CounterFile::new(),
            edges: EdgeProfile::new(),
            bbt_credits: CreditMap::new(bbt_cfg.base, bbt_cfg.capacity),
            sbt_credits: CreditMap::new(sbt_cfg.base, sbt_cfg.capacity),
            blocks: HashMap::new(),
            profile_candidates: PcSet::new(),
            software_profiling,
            hot_threshold,
            applied_chains: Vec::new(),
            seen_bbt: PcSet::new(),
            stats: VmStats::default(),
            trace: Trace::disabled(),
        }
    }

    /// A [`cdvm_fisa::CodeSource`] view over both code caches.
    pub fn code(&self) -> VmCode<'_> {
        VmCode(self)
    }

    /// Looks up a translation for `x86_pc`, preferring SBT code.
    pub fn lookup(&mut self, x86_pc: u32) -> Option<NativePc> {
        let sbt_gen = self.sbt_cache.generation();
        if let LookupOutcome::Hit(pc) = self.sbt_table.lookup(x86_pc, sbt_gen) {
            return Some(pc);
        }
        let bbt_gen = self.bbt_cache.generation();
        if let LookupOutcome::Hit(pc) = self.bbt_table.lookup(x86_pc, bbt_gen) {
            return Some(pc);
        }
        None
    }

    /// The x86 PC of the instruction whose micro-op starts at
    /// `native_pc`, when known exactly (BBT code only — used for precise
    /// fault recovery).
    pub fn fault_x86_at(&self, native_pc: u32) -> Option<u32> {
        if native_pc >= self.sbt_cache.config().base {
            return None;
        }
        // Walk back to the nearest boundary (micro-ops are 2 or 4 bytes).
        let mut pc = native_pc;
        for _ in 0..64 {
            match self.bbt_credits.get(pc) {
                Some(u32::MAX) => return None,
                Some(x86) => return Some(x86),
                None => pc = pc.wrapping_sub(2),
            }
        }
        None
    }

    /// Marks `x86_pc` as a profile candidate (backward-branch, call or
    /// indirect target).
    pub fn mark_profile_candidate(&mut self, x86_pc: u32) {
        self.profile_candidates.insert(x86_pc);
    }

    fn should_profile(&self, entry: u32) -> bool {
        self.software_profiling && self.profile_candidates.contains(entry)
    }

    /// Translates the basic block at `entry` with the BBT and installs
    /// it. Returns the outcome plus the native addresses whose decoded
    /// forms changed (the caller must invalidate them in the executor).
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] when the guest bytes fail to decode or
    /// crack, or when the translation cannot fit the code cache. The
    /// dispatcher *demotes* on error — the region runs interpreted and
    /// any architectural fault surfaces there, at its precise PC.
    pub fn translate_bbt(
        &mut self,
        decoder: &mut Decoder,
        mem: &mut GuestMem,
        entry: u32,
    ) -> Result<(TranslateOutcome, Vec<u32>), VmError> {
        let block =
            scan_block(decoder, mem, entry).map_err(|err| VmError::Decode { pc: entry, err })?;
        let had_live_translation = matches!(
            self.blocks.get(&entry),
            Some(t) if t.kind == TransKind::Bbt && t.generation == self.bbt_cache.generation()
        );
        // Self-looping blocks (single-block loops) are profile candidates
        // by construction: their backward branch targets their own entry.
        let self_loop = block
            .terminator()
            .and_then(|t| t.direct_target())
            .is_some_and(|t| t == entry);
        if self_loop {
            self.mark_profile_candidate(entry);
        }
        let profiled = self.should_profile(entry);
        let mut ua = UAsm::new();
        let mut complex = 0u32;

        // Software profiling prologue: decrement the block's concealed
        // counter; trap to the VMM when it reaches zero.
        let mut hot_label: Option<ULabel> = None;
        let counter_addr = if profiled {
            let addr = self.counters.slot_addr(entry);
            mem.write_u32(addr, self.hot_threshold);
            let idx = (addr - crate::profile::COUNTER_BASE) as i32;
            let l = ua.label();
            if idx < (1 << 13) {
                // Common case: the counter is addressable straight off
                // the PROF_BASE register (I-form displacement).
                ua.push(Uop::ld(Width::W32, regs::VMM_S1, regs::PROF_BASE, idx));
                ua.push(Uop::alui(Op::Add, regs::VMM_S1, regs::VMM_S1, -1));
                ua.push(Uop::st(Width::W32, regs::VMM_S1, regs::PROF_BASE, idx));
            } else {
                for u in Uop::limm32(regs::VMM_S0, idx as u32) {
                    ua.push(u);
                }
                ua.push(Uop {
                    op: Op::Ld {
                        w: Width::W32,
                        indexed: true,
                        scale: 1,
                    },
                    rd: regs::VMM_S1,
                    rs1: regs::PROF_BASE,
                    rs2: regs::VMM_S0,
                    imm: 0,
                    w: Width::W32,
                    set_flags: false,
                    fusible: false,
                });
                ua.push(Uop::alui(Op::Add, regs::VMM_S1, regs::VMM_S1, -1));
                ua.push(Uop {
                    op: Op::St {
                        w: Width::W32,
                        indexed: true,
                        scale: 1,
                    },
                    rd: regs::VMM_S1,
                    rs1: regs::PROF_BASE,
                    rs2: regs::VMM_S0,
                    imm: 0,
                    w: Width::W32,
                    set_flags: false,
                    fusible: false,
                });
            }
            ua.branch_to(bz(regs::VMM_S1), l);
            hot_label = Some(l);
            Some(addr)
        } else {
            None
        };

        // Body.
        let mut term: Option<(u32, CtiSpec)> = None;
        for (k, (pc, inst)) in block.insts.iter().enumerate() {
            ua.mark_credit(1, *pc);
            let cracked = crack(inst, *pc)?;
            if cracked.complex {
                complex += 1;
                self.stats.complex_insts += 1;
            }
            match cracked.cti {
                Some(CtiSpec::Rep { .. }) => lower_rep(&mut ua, &cracked.uops),
                Some(spec) => {
                    debug_assert_eq!(k, block.insts.len() - 1, "CTI mid-block");
                    ua.extend(cracked.uops.iter().copied());
                    term = Some((*pc, spec));
                }
                None => {
                    if cracked.uops.is_empty() {
                        // Keep boundary offsets unique (exact per-PC
                        // credit): degenerate instructions still occupy
                        // one micro-op.
                        ua.push(Uop::alui(Op::Sys(SysOp::Nop), 0, 0, 0));
                    } else {
                        ua.extend(cracked.uops.iter().copied());
                    }
                }
            }
        }

        // Terminator.
        match term {
            None => {
                // Capped block: continue at the sequential successor.
                ua.exit_stub(ExitCode::TranslateMiss, block.end_pc);
            }
            Some((pc, spec)) => self.lower_bbt_terminator(&mut ua, pc, spec),
        }

        // Hot-trap stub (profiling lands here when the counter expires).
        if let Some(l) = hot_label {
            ua.bind(l);
            ua.push(Uop::alui(
                Op::Limm,
                regs::VMM_ARG,
                0,
                (entry as u16) as i16 as i32,
            ));
            ua.push(Uop::alui(Op::Limmh, regs::VMM_ARG, 0, (entry >> 16) as i32));
            ua.push(Uop::vmexit(ExitCode::HotTrap));
        }

        ua.pad_to(STUB_BYTES);
        let uop_count = ua.uop_count() as u32;
        let outcome = self.install(ua, entry, TransKind::Bbt, block.len() as u32, counter_addr)?;

        self.stats.bbt_blocks += 1;
        self.stats.bbt_x86_insts += block.len() as u64;
        self.stats.bbt_uops += uop_count as u64;
        if !self.seen_bbt.insert(entry) {
            if had_live_translation {
                self.stats.bbt_upgraded_insts += block.len() as u64;
            } else {
                self.stats.bbt_retranslated_insts += block.len() as u64;
            }
        }
        self.trace.record_with(|| TraceEvent::BlockTranslated {
            entry,
            native: outcome.0.native.0,
            x86_count: outcome.0.x86_count,
            uops: outcome.0.uop_count,
        });

        Ok((
            TranslateOutcome {
                translation: outcome.0,
                simple_insts: block.len() as u32 - complex,
                complex_insts: complex,
                src_pc: entry,
            },
            outcome.1,
        ))
    }

    fn lower_bbt_terminator(&mut self, ua: &mut UAsm, pc: u32, spec: CtiSpec) {
        match spec {
            CtiSpec::CondFlags { cond, target, fall } => {
                let l = ua.label();
                ua.branch_to(bcc(cond), l);
                ua.exit_stub(ExitCode::TranslateMiss, fall);
                ua.bind(l);
                ua.exit_stub(ExitCode::TranslateMiss, target);
                if target <= pc {
                    self.mark_profile_candidate(target);
                }
            }
            CtiSpec::CondNz { reg, target, fall } | CtiSpec::CondZ { reg, target, fall } => {
                let l = ua.label();
                let b = if matches!(spec, CtiSpec::CondNz { .. }) {
                    bnz(reg)
                } else {
                    bz(reg)
                };
                ua.branch_to(b, l);
                ua.exit_stub(ExitCode::TranslateMiss, fall);
                ua.bind(l);
                ua.exit_stub(ExitCode::TranslateMiss, target);
                if target <= pc {
                    self.mark_profile_candidate(target);
                }
            }
            CtiSpec::Direct { target } => {
                ua.exit_stub(ExitCode::TranslateMiss, target);
                if target <= pc {
                    self.mark_profile_candidate(target);
                }
            }
            CtiSpec::DirectCall { target, .. } => {
                ua.exit_stub(ExitCode::TranslateMiss, target);
                self.mark_profile_candidate(target);
            }
            CtiSpec::Indirect { reg } => {
                ua.push(Uop::alu(Op::Mov, regs::VMM_ARG, regs::VMM_ARG, reg));
                ua.push(Uop::vmexit(ExitCode::IndirectMiss));
            }
            CtiSpec::Halt => ua.push(Uop::alui(Op::Sys(SysOp::Halt), 0, 0, 0)),
            CtiSpec::Trap { code } => {
                ua.push(Uop::alui(Op::Sys(SysOp::Trap), 0, 0, code as i32))
            }
            CtiSpec::Rep { .. } => unreachable!("REP handled inline"),
        }
    }

    /// Installs an assembled translation, handling code-cache flushes and
    /// chaining. Returns the translation and executor-invalidation list.
    ///
    /// # Errors
    ///
    /// Returns the cache's allocation error when the translation cannot
    /// fit even an empty arena. The allocation happens *before* any VM
    /// state is mutated, so a failed install leaves the subsystem intact.
    pub(crate) fn install(
        &mut self,
        ua: UAsm,
        entry: u32,
        kind: TransKind,
        x86_count: u32,
        counter_addr: Option<u32>,
    ) -> Result<(Translation, Vec<u32>), CacheError> {
        let boundaries: Vec<(u32, u32, u32)> = ua.boundaries().to_vec();
        let stubs: Vec<(u32, u32, ExitCode)> = ua.stubs().to_vec();
        let uop_count = ua.uop_count() as u32;
        let code_bytes = ua.finish();
        let nbytes = code_bytes.len() as u32;

        let mut invalidate = Vec::new();
        let (native, flushed, generation) = {
            let cache = match kind {
                TransKind::Bbt => &mut self.bbt_cache,
                TransKind::Sbt => &mut self.sbt_cache,
            };
            let gen_before = cache.generation();
            let native = cache.alloc(&code_bytes)?;
            (native, cache.generation() != gen_before, cache.generation())
        };
        if flushed {
            // Everything in this cache died: drop credits, stale chains
            // and metadata; the executor must drop its decode cache.
            // Sweeping the lookup table here (instead of waiting for each
            // dead entry to be looked up) keeps table memory proportional
            // to live translations under sustained cache pressure.
            let swept = match kind {
                TransKind::Bbt => {
                    self.bbt_credits.clear();
                    self.bbt_chains.clear();
                    self.bbt_table.sweep_stale(generation)
                }
                TransKind::Sbt => {
                    self.sbt_credits.clear();
                    self.sbt_chains.clear();
                    self.sbt_table.sweep_stale(generation)
                }
            };
            self.blocks.retain(|_, t| t.kind != kind);
            self.unchain_into(kind);
            self.trace.record(TraceEvent::CacheFlush {
                cache: match kind {
                    TransKind::Bbt => TierKind::Bbt,
                    TransKind::Sbt => TierKind::Sbt,
                },
                generation,
                swept_entries: swept as u64,
            });
            invalidate.push(u32::MAX); // sentinel: full invalidation
        }

        // Register credits, the lookup entry and chainable exit stubs.
        let mut prechain: Vec<(u32, u32)> = Vec::new();
        match kind {
            TransKind::Bbt => {
                for (off, credit, tag) in boundaries {
                    debug_assert_eq!(credit, 1, "BBT boundaries are per-instruction");
                    self.bbt_credits.insert(native.0 + off, tag);
                }
                self.bbt_table.insert(entry, native, generation);
                for (off, target, code) in stubs {
                    if code == ExitCode::TranslateMiss {
                        self.bbt_chains
                            .register_at(NativePc(native.0 + off), target, generation);
                        prechain.push((native.0 + off, target));
                    }
                }
            }
            TransKind::Sbt => {
                for (off, credit, _tag) in boundaries {
                    self.sbt_credits.add(native.0 + off, credit);
                }
                self.sbt_table.insert(entry, native, generation);
                for (off, target, code) in stubs {
                    if code == ExitCode::TranslateMiss {
                        self.sbt_chains
                            .register_at(NativePc(native.0 + off), target, generation);
                        prechain.push((native.0 + off, target));
                    }
                }
            }
        }

        // Pre-chain stubs whose targets are already translated.
        for (site, target) in prechain {
            let dest = self
                .sbt_table
                .peek(target, self.sbt_cache.generation())
                .or_else(|| self.bbt_table.peek(target, self.bbt_cache.generation()));
            if let Some(dest) = dest {
                let in_sbt = site >= self.sbt_cache.config().base;
                let dest_sbt = dest.0 >= self.sbt_cache.config().base;
                if in_sbt && !dest_sbt {
                    // Strict trace-linking (see chain_to).
                    continue;
                }
                let cache = if in_sbt {
                    &mut self.sbt_cache
                } else {
                    &mut self.bbt_cache
                };
                patch_chain(cache, site, dest.0);
                self.stats.chains_applied += 1;
                self.trace.record_with(|| TraceEvent::Chained {
                    site,
                    target,
                    dest: dest.0,
                });
                self.applied_chains.push(AppliedChain {
                    site,
                    x86_target: target,
                    site_kind: kind,
                    site_gen: generation,
                    target_kind: if dest.0 >= self.sbt_cache.config().base {
                        TransKind::Sbt
                    } else {
                        TransKind::Bbt
                    },
                    redirect_of: None,
                });
                invalidate.extend([site, site + 4, site + 8]);
            }
        }

        let translation = Translation {
            native,
            kind,
            x86_count,
            uop_count,
            bytes: nbytes,
            counter_addr,
            generation,
        };
        self.blocks.insert(entry, translation);

        // Chain every pending site waiting for this entry.
        invalidate.extend(self.chain_to(entry, native));

        Ok((translation, invalidate))
    }

    /// Patches all pending chain sites targeting `entry` to jump straight
    /// to `native`. Returns patched addresses for executor invalidation.
    pub fn chain_to(&mut self, entry: u32, native: NativePc) -> Vec<u32> {
        let mut patched = Vec::new();
        let bbt_gen = self.bbt_cache.generation();
        let sbt_gen = self.sbt_cache.generation();
        let bbt_sites = self.bbt_chains.take_sites_for(entry, bbt_gen);
        let sbt_sites = self.sbt_chains.take_sites_for(entry, sbt_gen);
        let target_kind = if native.0 >= self.sbt_cache.config().base {
            TransKind::Sbt
        } else {
            TransKind::Bbt
        };
        for site in bbt_sites {
            patch_chain(&mut self.bbt_cache, site.patch_addr, native.0);
            self.stats.chains_applied += 1;
            self.trace.record_with(|| TraceEvent::Chained {
                site: site.patch_addr,
                target: entry,
                dest: native.0,
            });
            self.applied_chains.push(AppliedChain {
                site: site.patch_addr,
                x86_target: entry,
                site_kind: TransKind::Bbt,
                site_gen: bbt_gen,
                target_kind,
                redirect_of: None,
            });
            patched.extend([site.patch_addr, site.patch_addr + 4, site.patch_addr + 8]);
        }
        for site in sbt_sites {
            // Strict trace-linking: optimized code chains only to other
            // optimized code. Exits into BBT code bounce through the VMM
            // dispatcher, which profiles targets and promotes them —
            // entering superblocks at their heads keeps execution inside
            // optimized traces instead of leaking into cold duplicates
            // of their interiors.
            if target_kind != TransKind::Sbt {
                self.sbt_chains.register_at(
                    NativePc(site.patch_addr),
                    site.target_x86_pc,
                    sbt_gen,
                );
                continue;
            }
            patch_chain(&mut self.sbt_cache, site.patch_addr, native.0);
            self.stats.chains_applied += 1;
            self.trace.record_with(|| TraceEvent::Chained {
                site: site.patch_addr,
                target: entry,
                dest: native.0,
            });
            self.applied_chains.push(AppliedChain {
                site: site.patch_addr,
                x86_target: entry,
                site_kind: TransKind::Sbt,
                site_gen: sbt_gen,
                target_kind,
                redirect_of: None,
            });
            patched.extend([site.patch_addr, site.patch_addr + 4, site.patch_addr + 8]);
        }
        patched
    }

    /// Reverts every live chain patch pointing into the freshly flushed
    /// `flushed_kind` cache: the 12-byte slot becomes an exit stub for
    /// its original architected target again, and redirected BBT entries
    /// are dropped so the dispatcher re-translates them.
    fn unchain_into(&mut self, flushed_kind: TransKind) {
        let chains = std::mem::take(&mut self.applied_chains);
        let (bbt_gen, sbt_gen) = (self.bbt_cache.generation(), self.sbt_cache.generation());
        for c in chains {
            // Sites living in the flushed cache died with it.
            if c.site_kind == flushed_kind {
                continue;
            }
            if c.target_kind != flushed_kind {
                self.applied_chains.push(c);
                continue;
            }
            // Cross-cache chain into the flushed arena: revert if the
            // site itself is still live.
            let live = match c.site_kind {
                TransKind::Bbt => c.site_gen == bbt_gen,
                TransKind::Sbt => c.site_gen == sbt_gen,
            };
            if !live {
                continue;
            }
            let cache = match c.site_kind {
                TransKind::Bbt => &mut self.bbt_cache,
                TransKind::Sbt => &mut self.sbt_cache,
            };
            write_exit_stub(cache, c.site, c.x86_target);
            self.stats.unchains += 1;
            self.trace.record_with(|| TraceEvent::Unchained {
                site: c.site,
                target: c.x86_target,
            });
            if let Some(entry) = c.redirect_of {
                // The slot was a whole block entry: force a fresh
                // translation on the next dispatch.
                self.bbt_table.remove(entry);
                self.blocks.remove(&entry);
            } else {
                // An ordinary stub: re-register it for future chaining.
                match c.site_kind {
                    TransKind::Bbt => self.bbt_chains.register_at(
                        NativePc(c.site),
                        c.x86_target,
                        c.site_gen,
                    ),
                    TransKind::Sbt => self.sbt_chains.register_at(
                        NativePc(c.site),
                        c.x86_target,
                        c.site_gen,
                    ),
                }
            }
        }
    }

    /// True when `entry` has a live, *unprofiled* BBT translation that
    /// has since become a profile candidate (e.g. a multi-block loop head
    /// discovered after its first translation) — the dispatcher should
    /// re-translate it with a counter.
    pub fn needs_profile_upgrade(&self, entry: u32) -> bool {
        if !self.software_profiling || !self.profile_candidates.contains(entry) {
            return false;
        }
        matches!(
            self.blocks.get(&entry),
            Some(t) if t.kind == TransKind::Bbt
                && t.generation == self.bbt_cache.generation()
                && t.counter_addr.is_none()
        )
    }

    /// Redirects a stale BBT block entry to a replacement translation at
    /// `new_native` (chained predecessors flow through the patch).
    /// `old` must be the pre-replacement translation. Returns addresses
    /// to invalidate.
    pub fn redirect_old_entry(&mut self, entry: u32, old: Translation, new_native: NativePc) -> Vec<u32> {
        if old.kind != TransKind::Bbt || old.generation != self.bbt_cache.generation() {
            return Vec::new();
        }
        let at = old.native.0;
        patch_chain(&mut self.bbt_cache, at, new_native.0);
        self.applied_chains.push(AppliedChain {
            site: at,
            x86_target: entry,
            site_kind: TransKind::Bbt,
            site_gen: old.generation,
            target_kind: if new_native.0 >= self.sbt_cache.config().base {
                TransKind::Sbt
            } else {
                TransKind::Bbt
            },
            redirect_of: Some(entry),
        });
        self.tombstone_window(at)
    }

    /// Redirects an existing BBT block entry to its new SBT translation
    /// (the VMM patches the BBT entry so chained predecessors reach the
    /// optimized code). Returns addresses to invalidate.
    pub fn redirect_entry_to_sbt(&mut self, entry: u32, sbt_native: NativePc) -> Vec<u32> {
        let Some(t) = self.blocks.get(&entry) else {
            return Vec::new();
        };
        if t.kind != TransKind::Bbt || t.generation != self.bbt_cache.generation() {
            return Vec::new();
        }
        let at = t.native.0;
        let site_gen = t.generation;
        patch_chain(&mut self.bbt_cache, at, sbt_native.0);
        self.applied_chains.push(AppliedChain {
            site: at,
            x86_target: entry,
            site_kind: TransKind::Bbt,
            site_gen,
            target_kind: TransKind::Sbt,
            redirect_of: Some(entry),
        });
        self.tombstone_window(at)
    }

    /// Tombstones the credit marks inside the `STUB_BYTES` window patched
    /// at `at`, so the redirect's `Br` does not double-count retired
    /// instructions, and returns every halfword of the window for the
    /// executor to invalidate: a cached run starting anywhere in it would
    /// otherwise keep the old bytes and the old credits.
    fn tombstone_window(&mut self, at: u32) -> Vec<u32> {
        let window: Vec<u32> = (0..STUB_BYTES).step_by(2).map(|off| at + off).collect();
        for &pc in &window {
            if self.bbt_credits.get(pc).is_some() {
                self.bbt_credits.insert(pc, u32::MAX);
            }
        }
        window
    }

    /// Evicts *everything*: both code caches, lookup tables, chains and
    /// credits — the state after a long context switch or swap-out (the
    /// paper's memory-startup scenario 2 re-entered mid-run). The
    /// `seen_bbt` history survives so the re-translation work is counted
    /// as re-translation.
    pub fn full_flush(&mut self) {
        self.bbt_cache.flush();
        self.sbt_cache.flush();
        self.trace.record(TraceEvent::CacheFlush {
            cache: TierKind::Bbt,
            generation: self.bbt_cache.generation(),
            swept_entries: self.bbt_table.len() as u64,
        });
        self.trace.record(TraceEvent::CacheFlush {
            cache: TierKind::Sbt,
            generation: self.sbt_cache.generation(),
            swept_entries: self.sbt_table.len() as u64,
        });
        self.bbt_table.clear();
        self.sbt_table.clear();
        self.bbt_chains.clear();
        self.sbt_chains.clear();
        self.bbt_credits.clear();
        self.sbt_credits.clear();
        self.blocks.clear();
        self.applied_chains.clear();
    }

    /// Resets a hotness counter after the hotspot has been optimized.
    pub fn reset_counter(&mut self, mem: &mut GuestMem, entry: u32) {
        if let Some(t) = self.blocks.get(&entry) {
            if let Some(addr) = t.counter_addr {
                mem.write_u32(addr, u32::MAX); // effectively disabled
            }
        }
    }
}

/// Warm-image snapshot access to the VM's private state (the chain
/// graph, the BBT-seen history and the profile-candidate set). Only the
/// snapshot writer/reader in [`crate::system`] uses these.
impl Vm {
    /// Exports the chain graph: the applied journal in its stored order
    /// (unchaining replays it verbatim) and both pending registries with
    /// targets sorted but per-target site order preserved (liveness is
    /// generation-checked at use time).
    pub(crate) fn export_chains(&self) -> crate::snapshot::ChainsSection {
        let applied = self
            .applied_chains
            .iter()
            .map(|c| crate::snapshot::AppliedRec {
                site: c.site,
                x86_target: c.x86_target,
                site_kind: kind_code(c.site_kind),
                site_gen: c.site_gen,
                target_kind: kind_code(c.target_kind),
                redirect_of: c.redirect_of,
            })
            .collect();
        let export = |reg: &ChainRegistry| {
            let mut pending: Vec<(u32, Vec<(u32, u64)>)> = reg
                .iter_pending()
                .map(|(target, sites)| {
                    (
                        target,
                        sites.iter().map(|&(s, g)| (s.patch_addr, g)).collect(),
                    )
                })
                .collect();
            pending.sort_by_key(|(t, _)| *t);
            pending
        };
        crate::snapshot::ChainsSection {
            applied,
            bbt_pending: export(&self.bbt_chains),
            sbt_pending: export(&self.sbt_chains),
        }
    }

    /// Re-installs an exported chain graph on a fresh VM.
    pub(crate) fn import_chains(&mut self, s: &crate::snapshot::ChainsSection) {
        for r in &s.applied {
            self.applied_chains.push(AppliedChain {
                site: r.site,
                x86_target: r.x86_target,
                site_kind: kind_from(r.site_kind),
                site_gen: r.site_gen,
                target_kind: kind_from(r.target_kind),
                redirect_of: r.redirect_of,
            });
        }
        for (pending, reg) in [
            (&s.bbt_pending, &mut self.bbt_chains),
            (&s.sbt_pending, &mut self.sbt_chains),
        ] {
            for (target, sites) in pending {
                for &(patch, gen) in sites {
                    reg.register_at(NativePc(patch), *target, gen);
                }
            }
        }
    }

    /// The BBT-seen history, sorted (for the warm-image writer).
    pub(crate) fn export_seen_bbt(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.seen_bbt.iter().collect();
        v.sort_unstable();
        v
    }

    /// The profile-candidate set, sorted (for the warm-image writer).
    pub(crate) fn export_profile_candidates(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.profile_candidates.iter().collect();
        v.sort_unstable();
        v
    }

    /// Re-installs the BBT-seen history.
    pub(crate) fn import_seen_bbt(&mut self, pcs: &[u32]) {
        for &pc in pcs {
            self.seen_bbt.insert(pc);
        }
    }

    /// Re-installs the profile-candidate set.
    pub(crate) fn import_profile_candidates(&mut self, pcs: &[u32]) {
        for &pc in pcs {
            self.profile_candidates.insert(pc);
        }
    }
}

/// Snapshot wire code for a [`TransKind`] (0 = BBT, 1 = SBT).
fn kind_code(k: TransKind) -> u32 {
    match k {
        TransKind::Bbt => 0,
        TransKind::Sbt => 1,
    }
}

/// The [`TransKind`] for a snapshot wire code (parse already rejected
/// anything above 1).
fn kind_from(code: u32) -> TransKind {
    if code == 0 {
        TransKind::Bbt
    } else {
        TransKind::Sbt
    }
}

/// Writes a fresh 12-byte exit stub (`Limm`/`Limmh`/`VmExit`) over a
/// chain slot — the unchaining primitive.
fn write_exit_stub(cache: &mut CodeCache, site_addr: u32, x86_target: u32) {
    let stub = [
        Uop::alui(
            Op::Limm,
            regs::VMM_ARG,
            0,
            (x86_target as u16) as i16 as i32,
        ),
        Uop::alui(Op::Limmh, regs::VMM_ARG, 0, (x86_target >> 16) as i32),
        Uop::vmexit(ExitCode::TranslateMiss),
    ];
    let bytes = encoding::encode(&stub);
    assert_eq!(bytes.len() as u32, STUB_BYTES);
    for (k, chunk) in bytes.chunks(4).enumerate() {
        cache.patch_u32(site_addr + 4 * k as u32, word_of(chunk));
    }
}

/// A little-endian word from an encoder chunk (stub encodings are
/// word-multiples by construction).
fn word_of(chunk: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b[..chunk.len().min(4)].copy_from_slice(&chunk[..chunk.len().min(4)]);
    u32::from_le_bytes(b)
}

/// Patches a chain site (a 12-byte stub slot) to transfer directly to
/// `native_target`: a near `Br` when the offset fits, otherwise the far
/// `Limm`/`Limmh`/`Jr` sequence.
fn patch_chain(cache: &mut CodeCache, site_addr: u32, native_target: u32) {
    let delta_hw = (native_target as i64 - (site_addr + 4) as i64) / 2;
    if (-(1 << 15)..(1 << 15)).contains(&delta_hw) {
        let br = Uop {
            op: Op::Br,
            rd: 0,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: delta_hw as i32,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        };
        let bytes = encoding::encode(&[br]);
        cache.patch_u32(site_addr, word_of(&bytes[..4]));
    } else {
        let far = [
            Uop::alui(
                Op::Limm,
                regs::VMM_S1,
                0,
                (native_target as u16) as i16 as i32,
            ),
            Uop::alui(Op::Limmh, regs::VMM_S1, 0, (native_target >> 16) as i32),
            Uop::alu(Op::Jr, 0, regs::VMM_S1, regs::VMM_SP),
        ];
        let bytes = encoding::encode(&far);
        assert_eq!(bytes.len() as u32, STUB_BYTES, "far chain must fill the stub");
        for (k, chunk) in bytes.chunks(4).enumerate() {
            cache.patch_u32(site_addr + 4 * k as u32, word_of(chunk));
        }
    }
}

/// A conditional-branch micro-op template for [`UAsm::branch_to`].
pub(crate) fn bcc(cond: Cond) -> Uop {
    Uop {
        op: Op::Bcc(cond),
        rd: 0,
        rs1: 0,
        rs2: regs::VMM_SP,
        imm: 0,
        w: Width::W32,
        set_flags: false,
        fusible: false,
    }
}

/// Branch-if-non-zero template.
pub(crate) fn bnz(reg: u8) -> Uop {
    Uop {
        op: Op::Bnz,
        rd: 0,
        rs1: reg,
        rs2: regs::VMM_SP,
        imm: 0,
        w: Width::W32,
        set_flags: false,
        fusible: false,
    }
}

/// Branch-if-zero template.
pub(crate) fn bz(reg: u8) -> Uop {
    Uop {
        op: Op::Bz,
        rd: 0,
        rs1: reg,
        rs2: regs::VMM_SP,
        imm: 0,
        w: Width::W32,
        set_flags: false,
        fusible: false,
    }
}

/// Lowers one REP-string iteration body into its inline microcode loop.
pub(crate) fn lower_rep(ua: &mut UAsm, body: &[Uop]) {
    let skip = ua.label();
    ua.branch_to(bz(regs::ECX), skip);
    let top = ua.here();
    ua.extend(body.iter().copied());
    ua.push(Uop::alui(Op::Add, regs::ECX, regs::ECX, -1));
    ua.branch_to(bnz(regs::ECX), top);
    ua.bind(skip);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use cdvm_x86::{AluOp, Asm, Gpr};

    fn setup(build: impl FnOnce(&mut Asm)) -> (Vm, GuestMem, Decoder) {
        let mut asm = Asm::new(0x40_0000);
        build(&mut asm);
        let code = asm.finish();
        let mut mem = GuestMem::new();
        mem.load(0x40_0000, &code);
        (Vm::new(1 << 20, 1 << 20, 8000, true), mem, Decoder::new())
    }

    #[test]
    fn bbt_installs_and_lookup_hits() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            a.mov_ri(Gpr::Eax, 5);
            a.ret();
        });
        assert!(vm.lookup(0x40_0000).is_none());
        let (out, _) = vm.translate_bbt(&mut dec, &mut mem, 0x40_0000).unwrap();
        assert_eq!(out.translation.x86_count, 2);
        assert_eq!(vm.lookup(0x40_0000), Some(out.translation.native));
        assert_eq!(vm.stats.bbt_blocks, 1);
        assert_eq!(vm.stats.bbt_x86_insts, 2);
    }

    #[test]
    fn credits_cover_every_instruction() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            a.mov_ri(Gpr::Eax, 5);
            a.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Ebx);
            a.nop();
            a.ret();
        });
        let (out, _) = vm.translate_bbt(&mut dec, &mut mem, 0x40_0000).unwrap();
        let marks: Vec<(u32, u32)> = vm
            .bbt_credits
            .iter()
            .filter(|(pc, _)| {
                *pc >= out.translation.native.0
                    && *pc < out.translation.native.0 + 4 * out.translation.uop_count
            })
            .collect();
        assert_eq!(marks.len(), 4, "every x86 instruction is credited exactly once");
        // BBT marks carry the instruction's x86 PC.
        assert!(marks.iter().any(|&(_, x86)| x86 == 0x40_0000));
    }

    #[test]
    fn profiled_block_gets_prologue_and_counter() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            a.mov_ri(Gpr::Eax, 5);
            a.ret();
        });
        vm.mark_profile_candidate(0x40_0000);
        let (out, _) = vm.translate_bbt(&mut dec, &mut mem, 0x40_0000).unwrap();
        let addr = out.translation.counter_addr.expect("counter allocated");
        assert_eq!(mem.read_u32(addr), 8000);
        // Prologue adds micro-ops beyond the bare body (2) + ret crack.
        assert!(out.translation.uop_count >= 7);
    }

    #[test]
    fn unprofiled_block_has_no_counter() {
        let (mut vm, mut mem, mut dec) = setup(|a| a.hlt());
        let (out, _) = vm.translate_bbt(&mut dec, &mut mem, 0x40_0000).unwrap();
        assert!(out.translation.counter_addr.is_none());
    }

    #[test]
    fn conditional_block_emits_two_chainable_stubs() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            let back = a.here();
            a.dec_r(Gpr::Ecx);
            a.jcc(Cond::Ne, back);
            a.hlt();
        });
        vm.translate_bbt(&mut dec, &mut mem, 0x40_0000).unwrap();
        // Backward taken target marked as a profile candidate.
        assert!(vm.profile_candidates.contains(0x40_0000));
        // The self-loop stub was chained at install; the fall-through
        // stub stays pending.
        assert_eq!(vm.bbt_chains.pending_targets(), 1);
        assert!(vm.stats.chains_applied >= 1, "self-loop chained");
    }

    #[test]
    fn chaining_patches_stub_to_branch() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            // block A: jmp B ; block B: hlt
            let b = a.label();
            a.jmp(b);
            a.bind(b);
            a.hlt();
        });
        let (_a_out, _) = vm.translate_bbt(&mut dec, &mut mem, 0x40_0000).unwrap();
        let (b_out, inval) = vm.translate_bbt(&mut dec, &mut mem, 0x40_0005).unwrap();
        assert_eq!(vm.stats.chains_applied, 1);
        assert!(!inval.is_empty());
        let _ = b_out;
    }

    #[test]
    fn flush_drops_metadata() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            a.hlt();
        });
        // Tiny cache to force a flush.
        vm.bbt_cache = CodeCache::new(CodeCacheConfig {
            base: 0x8000_0000,
            capacity: 40,
        });
        vm.translate_bbt(&mut dec, &mut mem, 0x40_0000).unwrap();
        let before = vm.bbt_cache.generation();
        // Translate enough distinct entries to overflow 64 bytes.
        let mut asm = Asm::new(0x40_1000);
        for _ in 0..8 {
            asm.nop();
        }
        asm.hlt();
        let code = asm.finish();
        mem.load(0x40_1000, &code);
        for entry in [0x40_1000u32, 0x40_1002, 0x40_1004] {
            vm.translate_bbt(&mut dec, &mut mem, entry).unwrap();
        }
        assert!(vm.bbt_cache.generation() > before, "flush occurred");
        // Old entry no longer resolvable.
        assert!(vm.lookup(0x40_0000).is_none());
    }

    #[test]
    fn rep_block_loops_inline() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            a.movs(Width::W32, true);
            a.hlt();
        });
        let (out, _) = vm.translate_bbt(&mut dec, &mut mem, 0x40_0000).unwrap();
        // body + bz/bnz wrapper + halt
        assert!(out.translation.uop_count > 8);
        assert_eq!(out.complex_insts, 1);
    }
}
