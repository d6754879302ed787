//! Crash-safe, corruption-tolerant warm-image serialization (DESIGN.md
//! §3.10).
//!
//! A *warm image* captures the VM's translation state — code caches,
//! lookup tables, block metadata, hotness counters, edge profile, chain
//! graph, and the dispatcher's demotion/blacklist sets — so a later boot
//! of the same guest on the same configuration can skip the cold-start
//! re-translation transient (the paper's §1.1 startup cost).
//!
//! # Image layout (format version 1)
//!
//! ```text
//! offset  bytes  field
//!      0      8  magic "CDVMWIMG"
//!      8      4  format version (u32 LE)
//!     12      4  reserved, 0
//!     16      8  reserved, 0
//!     24      4  section count N (≤ 64)
//!     28   28·N  section table: per section
//!                  id (u32), payload offset (u64, absolute),
//!                  payload length (u64), payload FNV-1a 64 (u64)
//!      …      …  section payloads (contiguous, in table order)
//!  end-8      8  whole-image FNV-1a 64 over bytes[0 .. len-8]
//! ```
//!
//! Every multi-byte field is little-endian. Payloads are canonical:
//! map-derived lists are sorted by key before encoding (hash iteration
//! order never leaks into the bytes), while sequences whose order is
//! semantically meaningful — pending chain sites per target, indirect
//! profile targets, the applied-chain journal — keep their stored order.
//! Canonical encoding is what makes save→restore→save byte-identical.
//! A reader refuses an image whose reserved words are not zero: it was
//! written by a format this build does not know.
//!
//! # Corruption tolerance
//!
//! Decoding never panics and never trusts a length field: section counts
//! and payload extents are bounds-checked against the image, and every
//! parse path returns [`RestoreError`]. Sections are independently
//! checksummed, so a flipped bit condemns one section, not the image;
//! the restore path (`System::restore_image_bytes`) salvages what it
//! can and falls back to a clean cold boot when it cannot.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use crate::error::RestoreError;

/// The warm-image format version this build writes and understands.
pub const FORMAT_VERSION: u32 = 1;

pub(crate) const MAGIC: [u8; 8] = *b"CDVMWIMG";
pub(crate) const HEADER_BYTES: usize = 28;
pub(crate) const ENTRY_BYTES: usize = 28;
pub(crate) const TRAILER_BYTES: usize = 8;
const MAX_SECTIONS: u32 = 64;

/// Section id: machine fingerprint, code-page hashes, thresholds.
pub const SEC_META: u32 = 1;
/// Section id: BBT code-cache arena bytes.
pub const SEC_BBT_CACHE: u32 = 2;
/// Section id: SBT code-cache arena bytes.
pub const SEC_SBT_CACHE: u32 = 3;
/// Section id: BBT translation-lookup entries.
pub const SEC_BBT_TABLE: u32 = 4;
/// Section id: SBT translation-lookup entries.
pub const SEC_SBT_TABLE: u32 = 5;
/// Section id: per-entry translation metadata.
pub const SEC_BLOCKS: u32 = 6;
/// Section id: hotness-counter slot allocations and values.
pub const SEC_COUNTERS: u32 = 7;
/// Section id: sampled edge profile.
pub const SEC_EDGES: u32 = 8;
/// Section id: retirement-credit maps.
pub const SEC_CREDITS: u32 = 9;
/// Section id: applied-chain journal and pending chain sites.
pub const SEC_CHAINS: u32 = 10;
/// Section id: demotion/blacklist/profile sets and decode footprints.
pub const SEC_SETS: u32 = 11;

/// Every section id a version-1 image can carry, in canonical order.
pub const SECTION_IDS: [u32; 11] = [
    SEC_META,
    SEC_BBT_CACHE,
    SEC_SBT_CACHE,
    SEC_BBT_TABLE,
    SEC_SBT_TABLE,
    SEC_BLOCKS,
    SEC_COUNTERS,
    SEC_EDGES,
    SEC_CREDITS,
    SEC_CHAINS,
    SEC_SETS,
];

/// Human-readable name for a section id (`"?"` for unknown ids).
pub fn section_name(id: u32) -> &'static str {
    match id {
        SEC_META => "meta",
        SEC_BBT_CACHE => "bbt_cache",
        SEC_SBT_CACHE => "sbt_cache",
        SEC_BBT_TABLE => "bbt_table",
        SEC_SBT_TABLE => "sbt_table",
        SEC_BLOCKS => "blocks",
        SEC_COUNTERS => "counters",
        SEC_EDGES => "edges",
        SEC_CREDITS => "credits",
        SEC_CHAINS => "chains",
        SEC_SETS => "sets",
        _ => "?",
    }
}

/// FNV-1a 64-bit hash (the image's section and whole-image checksum, and
/// the configuration/code-page fingerprint).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Typed section contents (crate-internal; `System` and `Vm` fill them).
// ---------------------------------------------------------------------------

/// Machine fingerprint and workload identity.
#[derive(Debug)]
pub(crate) struct MetaSection {
    /// FNV of the `MachineConfig` debug rendering.
    pub config_hash: u64,
    /// Hot threshold loaded into fresh counters at save time.
    pub hot_threshold: u32,
    /// Whether the saved VM planted software profiling.
    pub software_profiling: bool,
    /// `(page index, page-content FNV)` for every guest code page,
    /// ascending by index.
    pub pages: Vec<(u32, u64)>,
}

/// One code-cache arena.
#[derive(Debug)]
pub(crate) struct CacheSection {
    pub generation: u64,
    pub resident: u32,
    pub bytes: Vec<u8>,
}

/// One translation lookup table (live-generation entries only).
#[derive(Debug)]
pub(crate) struct TableSection {
    /// `(x86 pc, native pc)`, ascending by x86 pc.
    pub entries: Vec<(u32, u32)>,
}

/// One installed translation's metadata.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockRec {
    pub entry: u32,
    pub native: u32,
    /// 0 = BBT, 1 = SBT.
    pub kind: u32,
    pub x86_count: u32,
    pub uop_count: u32,
    pub bytes: u32,
    pub counter_addr: Option<u32>,
    pub generation: u64,
}

/// Per-entry translation metadata, ascending by entry.
#[derive(Debug)]
pub(crate) struct BlocksSection {
    pub blocks: Vec<BlockRec>,
}

/// Hotness-counter allocations with their concealed-memory values,
/// ascending by slot index (slot addresses are baked into translated
/// code, so the exact `entry -> index` mapping must survive).
#[derive(Debug)]
pub(crate) struct CountersSection {
    /// `(x86 entry, slot index, counter value)`.
    pub entries: Vec<(u32, u32, u32)>,
}

/// The sampled edge profile.
#[derive(Debug)]
pub(crate) struct EdgesSection {
    pub sample_tick: u32,
    /// `(pc, taken, not-taken)`, ascending by pc.
    pub cond: Vec<(u32, u32, u32)>,
    /// `(pc, targets)`, ascending by pc; per-pc target order preserved
    /// (it breaks likely-target count ties).
    pub indirect: Vec<(u32, Vec<(u32, u32)>)>,
}

/// Retirement-credit maps (ascending by native pc by construction).
#[derive(Debug)]
pub(crate) struct CreditsSection {
    pub bbt: Vec<(u32, u32)>,
    pub sbt: Vec<(u32, u32)>,
}

/// One applied chain patch (journal order preserved).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AppliedRec {
    pub site: u32,
    pub x86_target: u32,
    /// 0 = BBT, 1 = SBT.
    pub site_kind: u32,
    pub site_gen: u64,
    /// 0 = BBT, 1 = SBT.
    pub target_kind: u32,
    pub redirect_of: Option<u32>,
}

/// The chain graph: the applied journal plus both pending registries.
#[derive(Debug)]
pub(crate) struct ChainsSection {
    pub applied: Vec<AppliedRec>,
    /// Per architected target (ascending), the pending `(patch addr,
    /// generation)` sites in registration order.
    pub bbt_pending: Vec<(u32, Vec<(u32, u64)>)>,
    pub sbt_pending: Vec<(u32, Vec<(u32, u64)>)>,
}

/// Dispatcher sets and interpreter hotness (each list ascending by pc).
///
/// The payload ends with a reserved `(pc, value)` list, written empty.
/// It once carried per-PC crack widths; the decoder's memo is now their
/// only cache, so a reader skips whatever an older image stored there.
#[derive(Debug)]
pub(crate) struct SetsSection {
    pub demoted: Vec<u32>,
    pub blacklist: Vec<u32>,
    pub seen_bbt: Vec<u32>,
    pub candidates: Vec<u32>,
    pub interp_counters: Vec<(u32, u32)>,
}

/// The VM-state sections (absent on the reference machine).
#[derive(Debug)]
pub(crate) struct CodeGroup {
    pub bbt_cache: CacheSection,
    pub sbt_cache: CacheSection,
    pub bbt_table: TableSection,
    pub sbt_table: TableSection,
    pub blocks: BlocksSection,
    pub counters: CountersSection,
    pub credits: CreditsSection,
    pub chains: ChainsSection,
}

/// Everything a full save serializes.
#[derive(Debug)]
pub(crate) struct WarmImage {
    pub meta: MetaSection,
    pub code: Option<CodeGroup>,
    pub edges: Option<EdgesSection>,
    pub sets: SetsSection,
}

// ---------------------------------------------------------------------------
// Little-endian encode helpers.
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_meta(s: &MetaSection) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, s.config_hash);
    put_u32(&mut b, s.hot_threshold);
    put_u32(&mut b, u32::from(s.software_profiling));
    put_u32(&mut b, s.pages.len() as u32);
    for &(idx, hash) in &s.pages {
        put_u32(&mut b, idx);
        put_u64(&mut b, hash);
    }
    b
}

fn encode_cache(s: &CacheSection) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, s.generation);
    put_u32(&mut b, s.resident);
    put_u32(&mut b, s.bytes.len() as u32);
    b.extend_from_slice(&s.bytes);
    b
}

fn encode_table(s: &TableSection) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, s.entries.len() as u32);
    for &(x86, native) in &s.entries {
        put_u32(&mut b, x86);
        put_u32(&mut b, native);
    }
    b
}

fn encode_blocks(s: &BlocksSection) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, s.blocks.len() as u32);
    for r in &s.blocks {
        put_u32(&mut b, r.entry);
        put_u32(&mut b, r.native);
        put_u32(&mut b, r.kind);
        put_u32(&mut b, r.x86_count);
        put_u32(&mut b, r.uop_count);
        put_u32(&mut b, r.bytes);
        put_u32(&mut b, u32::from(r.counter_addr.is_some()));
        put_u32(&mut b, r.counter_addr.unwrap_or(0));
        put_u64(&mut b, r.generation);
    }
    b
}

fn encode_counters(s: &CountersSection) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, s.entries.len() as u32);
    for &(entry, idx, value) in &s.entries {
        put_u32(&mut b, entry);
        put_u32(&mut b, idx);
        put_u32(&mut b, value);
    }
    b
}

fn encode_edges(s: &EdgesSection) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, s.sample_tick);
    put_u32(&mut b, s.cond.len() as u32);
    for &(pc, t, n) in &s.cond {
        put_u32(&mut b, pc);
        put_u32(&mut b, t);
        put_u32(&mut b, n);
    }
    put_u32(&mut b, s.indirect.len() as u32);
    for (pc, targets) in &s.indirect {
        put_u32(&mut b, *pc);
        put_u32(&mut b, targets.len() as u32);
        for &(t, c) in targets {
            put_u32(&mut b, t);
            put_u32(&mut b, c);
        }
    }
    b
}

fn encode_credits(s: &CreditsSection) -> Vec<u8> {
    let mut b = Vec::new();
    for list in [&s.bbt, &s.sbt] {
        put_u32(&mut b, list.len() as u32);
        for &(pc, v) in list {
            put_u32(&mut b, pc);
            put_u32(&mut b, v);
        }
    }
    b
}

fn encode_chains(s: &ChainsSection) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, s.applied.len() as u32);
    for r in &s.applied {
        put_u32(&mut b, r.site);
        put_u32(&mut b, r.x86_target);
        put_u32(&mut b, r.site_kind);
        put_u64(&mut b, r.site_gen);
        put_u32(&mut b, r.target_kind);
        put_u32(&mut b, u32::from(r.redirect_of.is_some()));
        put_u32(&mut b, r.redirect_of.unwrap_or(0));
    }
    for pending in [&s.bbt_pending, &s.sbt_pending] {
        put_u32(&mut b, pending.len() as u32);
        for (target, sites) in pending.iter() {
            put_u32(&mut b, *target);
            put_u32(&mut b, sites.len() as u32);
            for &(patch, gen) in sites {
                put_u32(&mut b, patch);
                put_u64(&mut b, gen);
            }
        }
    }
    b
}

fn encode_sets(s: &SetsSection) -> Vec<u8> {
    let mut b = Vec::new();
    for list in [&s.demoted, &s.blacklist, &s.seen_bbt, &s.candidates] {
        put_u32(&mut b, list.len() as u32);
        for &pc in list.iter() {
            put_u32(&mut b, pc);
        }
    }
    put_u32(&mut b, s.interp_counters.len() as u32);
    for &(pc, v) in &s.interp_counters {
        put_u32(&mut b, pc);
        put_u32(&mut b, v);
    }
    // The reserved list (see `SetsSection`).
    put_u32(&mut b, 0);
    b
}

/// Encodes a full warm image canonically: header, section table,
/// payloads in section-id order, and the whole-image trailer.
pub(crate) fn encode_image(img: &WarmImage) -> Vec<u8> {
    let mut parts = vec![(SEC_META, encode_meta(&img.meta))];
    if let Some(code) = &img.code {
        parts.push((SEC_BBT_CACHE, encode_cache(&code.bbt_cache)));
        parts.push((SEC_SBT_CACHE, encode_cache(&code.sbt_cache)));
        parts.push((SEC_BBT_TABLE, encode_table(&code.bbt_table)));
        parts.push((SEC_SBT_TABLE, encode_table(&code.sbt_table)));
        parts.push((SEC_BLOCKS, encode_blocks(&code.blocks)));
        parts.push((SEC_COUNTERS, encode_counters(&code.counters)));
    }
    if let Some(edges) = &img.edges {
        parts.push((SEC_EDGES, encode_edges(edges)));
    }
    if let Some(code) = &img.code {
        parts.push((SEC_CREDITS, encode_credits(&code.credits)));
        parts.push((SEC_CHAINS, encode_chains(&code.chains)));
    }
    parts.push((SEC_SETS, encode_sets(&img.sets)));
    parts.sort_by_key(|(id, _)| *id);

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, 0); // reserved
    put_u64(&mut out, 0); // reserved
    put_u32(&mut out, parts.len() as u32);
    let mut offset = (HEADER_BYTES + ENTRY_BYTES * parts.len()) as u64;
    for (id, payload) in &parts {
        put_u32(&mut out, *id);
        put_u64(&mut out, offset);
        put_u64(&mut out, payload.len() as u64);
        put_u64(&mut out, fnv1a64(payload));
        offset += payload.len() as u64;
    }
    for (_, payload) in &parts {
        out.extend_from_slice(payload);
    }
    let whole = fnv1a64(&out);
    put_u64(&mut out, whole);
    out
}

// ---------------------------------------------------------------------------
// Bounds-checked decode.
// ---------------------------------------------------------------------------

struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Rd<'a> {
        Rd { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RestoreError> {
        if n > self.remaining() {
            return Err(RestoreError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, RestoreError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, RestoreError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Reads a count and verifies `count * entry_bytes` fits the
    /// remaining payload — a lying count cannot trigger a huge
    /// allocation or an out-of-bounds walk.
    fn count(&mut self, entry_bytes: usize) -> Result<usize, RestoreError> {
        let n = self.u32()? as usize;
        if n.checked_mul(entry_bytes).is_none_or(|sz| sz > self.remaining()) {
            return Err(RestoreError::Malformed);
        }
        Ok(n)
    }

    /// Rejects trailing bytes (keeps encodings canonical).
    fn finish(self) -> Result<(), RestoreError> {
        if self.remaining() != 0 {
            return Err(RestoreError::Malformed);
        }
        Ok(())
    }
}

fn parse_bool(v: u32) -> Result<bool, RestoreError> {
    match v {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(RestoreError::Malformed),
    }
}

fn parse_meta(b: &[u8]) -> Result<MetaSection, RestoreError> {
    let mut r = Rd::new(b);
    let config_hash = r.u64()?;
    let hot_threshold = r.u32()?;
    let software_profiling = parse_bool(r.u32()?)?;
    let n = r.count(12)?;
    let mut pages = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.u32()?;
        // The 32-bit guest address space has 2^20 4 KiB pages; anything
        // larger is damage (and would overflow `idx << 12` downstream).
        if idx >= 1 << 20 {
            return Err(RestoreError::Malformed);
        }
        let hash = r.u64()?;
        pages.push((idx, hash));
    }
    r.finish()?;
    Ok(MetaSection {
        config_hash,
        hot_threshold,
        software_profiling,
        pages,
    })
}

fn parse_cache(b: &[u8]) -> Result<CacheSection, RestoreError> {
    let mut r = Rd::new(b);
    let generation = r.u64()?;
    let resident = r.u32()?;
    let len = r.u32()? as usize;
    let bytes = r.take(len)?.to_vec();
    r.finish()?;
    Ok(CacheSection {
        generation,
        resident,
        bytes,
    })
}

fn parse_table(b: &[u8]) -> Result<TableSection, RestoreError> {
    let mut r = Rd::new(b);
    let n = r.count(8)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let x86 = r.u32()?;
        let native = r.u32()?;
        entries.push((x86, native));
    }
    r.finish()?;
    Ok(TableSection { entries })
}

fn parse_blocks(b: &[u8]) -> Result<BlocksSection, RestoreError> {
    let mut r = Rd::new(b);
    let n = r.count(40)?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let entry = r.u32()?;
        let native = r.u32()?;
        let kind = r.u32()?;
        if kind > 1 {
            return Err(RestoreError::Malformed);
        }
        let x86_count = r.u32()?;
        let uop_count = r.u32()?;
        let bytes = r.u32()?;
        let has_counter = parse_bool(r.u32()?)?;
        let counter_addr = r.u32()?;
        let generation = r.u64()?;
        blocks.push(BlockRec {
            entry,
            native,
            kind,
            x86_count,
            uop_count,
            bytes,
            counter_addr: has_counter.then_some(counter_addr),
            generation,
        });
    }
    r.finish()?;
    Ok(BlocksSection { blocks })
}

fn parse_counters(b: &[u8]) -> Result<CountersSection, RestoreError> {
    let mut r = Rd::new(b);
    let n = r.count(12)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let entry = r.u32()?;
        let idx = r.u32()?;
        // Counter slots are allocated densely from zero; a huge index is
        // damage, and restoring it would scatter writes across guest
        // memory.
        if idx >= 1 << 20 {
            return Err(RestoreError::Malformed);
        }
        let value = r.u32()?;
        entries.push((entry, idx, value));
    }
    r.finish()?;
    Ok(CountersSection { entries })
}

fn parse_edges(b: &[u8]) -> Result<EdgesSection, RestoreError> {
    let mut r = Rd::new(b);
    let sample_tick = r.u32()?;
    let nc = r.count(12)?;
    let mut cond = Vec::with_capacity(nc);
    for _ in 0..nc {
        let pc = r.u32()?;
        let t = r.u32()?;
        let n = r.u32()?;
        cond.push((pc, t, n));
    }
    let ni = r.count(8)?;
    let mut indirect = Vec::with_capacity(ni);
    for _ in 0..ni {
        let pc = r.u32()?;
        let nt = r.count(8)?;
        let mut targets = Vec::with_capacity(nt);
        for _ in 0..nt {
            let t = r.u32()?;
            let c = r.u32()?;
            targets.push((t, c));
        }
        indirect.push((pc, targets));
    }
    r.finish()?;
    Ok(EdgesSection {
        sample_tick,
        cond,
        indirect,
    })
}

fn parse_credits(b: &[u8]) -> Result<CreditsSection, RestoreError> {
    let mut r = Rd::new(b);
    let mut lists = Vec::with_capacity(2);
    for _ in 0..2 {
        let n = r.count(8)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            let pc = r.u32()?;
            let v = r.u32()?;
            list.push((pc, v));
        }
        lists.push(list);
    }
    r.finish()?;
    let sbt = lists.pop().unwrap_or_default();
    let bbt = lists.pop().unwrap_or_default();
    Ok(CreditsSection { bbt, sbt })
}

fn parse_chains(b: &[u8]) -> Result<ChainsSection, RestoreError> {
    let mut r = Rd::new(b);
    let na = r.count(32)?;
    let mut applied = Vec::with_capacity(na);
    for _ in 0..na {
        let site = r.u32()?;
        let x86_target = r.u32()?;
        let site_kind = r.u32()?;
        let site_gen = r.u64()?;
        let target_kind = r.u32()?;
        if site_kind > 1 || target_kind > 1 {
            return Err(RestoreError::Malformed);
        }
        let has_redirect = parse_bool(r.u32()?)?;
        let redirect = r.u32()?;
        applied.push(AppliedRec {
            site,
            x86_target,
            site_kind,
            site_gen,
            target_kind,
            redirect_of: has_redirect.then_some(redirect),
        });
    }
    let mut pendings = Vec::with_capacity(2);
    for _ in 0..2 {
        let nt = r.count(8)?;
        let mut pending = Vec::with_capacity(nt);
        for _ in 0..nt {
            let target = r.u32()?;
            let ns = r.count(12)?;
            let mut sites = Vec::with_capacity(ns);
            for _ in 0..ns {
                let patch = r.u32()?;
                let gen = r.u64()?;
                sites.push((patch, gen));
            }
            pending.push((target, sites));
        }
        pendings.push(pending);
    }
    r.finish()?;
    let sbt_pending = pendings.pop().unwrap_or_default();
    let bbt_pending = pendings.pop().unwrap_or_default();
    Ok(ChainsSection {
        applied,
        bbt_pending,
        sbt_pending,
    })
}

fn parse_sets(b: &[u8]) -> Result<SetsSection, RestoreError> {
    let mut r = Rd::new(b);
    let mut sets = Vec::with_capacity(4);
    for _ in 0..4 {
        let n = r.count(4)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(r.u32()?);
        }
        sets.push(list);
    }
    let n = r.count(8)?;
    let mut interp_counters = Vec::with_capacity(n);
    for _ in 0..n {
        let pc = r.u32()?;
        let v = r.u32()?;
        interp_counters.push((pc, v));
    }
    // The reserved list: skipped, whatever an older image stored in it.
    let reserved = r.count(8)?;
    r.take(reserved * 8)?;
    r.finish()?;
    let candidates = sets.pop().unwrap_or_default();
    let seen_bbt = sets.pop().unwrap_or_default();
    let blacklist = sets.pop().unwrap_or_default();
    let demoted = sets.pop().unwrap_or_default();
    Ok(SetsSection {
        demoted,
        blacklist,
        seen_bbt,
        candidates,
        interp_counters,
    })
}

/// One parsed section-table entry (bounds not yet validated).
pub(crate) struct RawEntry {
    pub id: u32,
    pub offset: u64,
    pub len: u64,
    pub checksum: u64,
}

/// Header + table of an image, parsed without touching payloads.
pub(crate) struct RawHeader {
    pub version: u32,
    pub entries: Vec<RawEntry>,
}

/// Parses the fixed header and section table. Errors here are always
/// total (nothing can be salvaged without a table).
pub(crate) fn parse_header(bytes: &[u8]) -> Result<RawHeader, RestoreError> {
    if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
        return Err(RestoreError::Truncated);
    }
    let mut r = Rd::new(bytes);
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(RestoreError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(RestoreError::UnsupportedVersion { found: version });
    }
    if r.u32()? != 0 || r.u64()? != 0 {
        // The reserved words (once a delta flag and its parent
        // checksum) are zero in every image this format writes.
        return Err(RestoreError::Malformed);
    }
    let count = r.u32()?;
    if count > MAX_SECTIONS {
        return Err(RestoreError::Malformed);
    }
    let table_end = HEADER_BYTES + ENTRY_BYTES * count as usize;
    if table_end + TRAILER_BYTES > bytes.len() {
        return Err(RestoreError::Truncated);
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let id = r.u32()?;
        let offset = r.u64()?;
        let len = r.u64()?;
        let checksum = r.u64()?;
        entries.push(RawEntry {
            id,
            offset,
            len,
            checksum,
        });
    }
    Ok(RawHeader { version, entries })
}

/// Extracts a section's payload bytes, validating table bounds and the
/// per-section checksum.
fn section_payload<'a>(bytes: &'a [u8], e: &RawEntry) -> Result<&'a [u8], RestoreError> {
    let payload_region_end = (bytes.len() - TRAILER_BYTES) as u64;
    let end = e.offset.checked_add(e.len).ok_or(RestoreError::Malformed)?;
    if e.offset < HEADER_BYTES as u64 || end > payload_region_end {
        return Err(RestoreError::Malformed);
    }
    let payload = &bytes[e.offset as usize..end as usize];
    if fnv1a64(payload) != e.checksum {
        return Err(RestoreError::BadSection { id: e.id });
    }
    Ok(payload)
}

/// A lenient decode: header/table failures are total, but each section
/// carries its own verdict so the restore path can salvage.
#[derive(Debug)]
pub(crate) struct DecodedImage {
    /// Whole-image trailer checksum verdict. A mismatch does not abort
    /// the decode — per-section checksums drive salvage — but it marks
    /// the restore as degraded evidence.
    pub whole_ok: bool,
    pub meta: Option<Result<MetaSection, RestoreError>>,
    pub bbt_cache: Option<Result<CacheSection, RestoreError>>,
    pub sbt_cache: Option<Result<CacheSection, RestoreError>>,
    pub bbt_table: Option<Result<TableSection, RestoreError>>,
    pub sbt_table: Option<Result<TableSection, RestoreError>>,
    pub blocks: Option<Result<BlocksSection, RestoreError>>,
    pub counters: Option<Result<CountersSection, RestoreError>>,
    pub edges: Option<Result<EdgesSection, RestoreError>>,
    pub credits: Option<Result<CreditsSection, RestoreError>>,
    pub chains: Option<Result<ChainsSection, RestoreError>>,
    pub sets: Option<Result<SetsSection, RestoreError>>,
}

fn wrap<T>(id: u32, r: Result<T, RestoreError>) -> Result<T, RestoreError> {
    r.map_err(|e| match e {
        RestoreError::BadSection { .. } => e,
        _ => RestoreError::BadSection { id },
    })
}

/// Decodes an image leniently: any section can fail independently.
///
/// # Errors
///
/// Only header/table-level damage is a total error — bad magic, an
/// unsupported version, a truncated table, or an absurd section count.
pub(crate) fn decode_image(bytes: &[u8]) -> Result<DecodedImage, RestoreError> {
    let hdr = parse_header(bytes)?;
    let whole = fnv1a64(&bytes[..bytes.len() - TRAILER_BYTES]);
    let trailer = {
        let t = &bytes[bytes.len() - TRAILER_BYTES..];
        u64::from_le_bytes([t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7]])
    };
    let mut img = DecodedImage {
        whole_ok: whole == trailer,
        meta: None,
        bbt_cache: None,
        sbt_cache: None,
        bbt_table: None,
        sbt_table: None,
        blocks: None,
        counters: None,
        edges: None,
        credits: None,
        chains: None,
        sets: None,
    };
    for e in &hdr.entries {
        let payload = section_payload(bytes, e);
        macro_rules! slot {
            ($field:ident, $parse:expr) => {
                if img.$field.is_none() {
                    img.$field = Some(wrap(e.id, payload.and_then($parse)));
                }
            };
        }
        match e.id {
            SEC_META => slot!(meta, parse_meta),
            SEC_BBT_CACHE => slot!(bbt_cache, parse_cache),
            SEC_SBT_CACHE => slot!(sbt_cache, parse_cache),
            SEC_BBT_TABLE => slot!(bbt_table, parse_table),
            SEC_SBT_TABLE => slot!(sbt_table, parse_table),
            SEC_BLOCKS => slot!(blocks, parse_blocks),
            SEC_COUNTERS => slot!(counters, parse_counters),
            SEC_EDGES => slot!(edges, parse_edges),
            SEC_CREDITS => slot!(credits, parse_credits),
            SEC_CHAINS => slot!(chains, parse_chains),
            SEC_SETS => slot!(sets, parse_sets),
            // Unknown ids are skipped: a future writer may add sections
            // this build does not understand.
            _ => {}
        }
    }
    Ok(img)
}

// ---------------------------------------------------------------------------
// Public inspection and crash-safe write.
// ---------------------------------------------------------------------------

/// One section's summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section id (see the `SEC_*` constants).
    pub id: u32,
    /// Payload length in bytes.
    pub len: u64,
    /// Whether the payload passed its table bounds and checksum.
    pub checksum_ok: bool,
}

impl SectionInfo {
    /// Human-readable section name.
    pub fn name(&self) -> &'static str {
        section_name(self.id)
    }
}

/// A warm image's header and per-section integrity summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageSummary {
    /// Format version.
    pub version: u32,
    /// Whether the whole-image trailer checksum matched.
    pub whole_ok: bool,
    /// Total image size in bytes.
    pub total_bytes: usize,
    /// Sections in table order.
    pub sections: Vec<SectionInfo>,
}

/// Summarizes a warm image without restoring it (the `--resume`
/// walkthrough and the fault-injection campaign use this to show which
/// sections survived).
///
/// # Errors
///
/// Fails only on header/table-level damage; per-section damage is
/// reported through [`SectionInfo::checksum_ok`].
pub fn image_summary(bytes: &[u8]) -> Result<ImageSummary, RestoreError> {
    let hdr = parse_header(bytes)?;
    let whole = fnv1a64(&bytes[..bytes.len() - TRAILER_BYTES]);
    let trailer = {
        let t = &bytes[bytes.len() - TRAILER_BYTES..];
        u64::from_le_bytes([t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7]])
    };
    let sections = hdr
        .entries
        .iter()
        .map(|e| SectionInfo {
            id: e.id,
            len: e.len,
            checksum_ok: section_payload(bytes, e).is_ok(),
        })
        .collect();
    Ok(ImageSummary {
        version: hdr.version,
        whole_ok: whole == trailer,
        total_bytes: bytes.len(),
        sections,
    })
}

/// Writes `bytes` to `path` crash-safely: the image lands in a
/// temporary file in the same directory, is fsynced, and is atomically
/// renamed over the destination — a crash mid-save leaves either the
/// old image or the new one, never a torn file.
///
/// # Errors
///
/// Any I/O error from the temporary write, fsync, or rename (the
/// temporary file is removed on failure).
pub fn write_image_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        // Persist the rename itself; not all filesystems order the
        // metadata update behind the data fsync.
        if let Some(dir) = dir {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn tiny_image() -> Vec<u8> {
        let img = WarmImage {
            meta: MetaSection {
                config_hash: 0xdead_beef,
                hot_threshold: 8000,
                software_profiling: true,
                pages: vec![(0x400, 0x1234)],
            },
            code: None,
            edges: None,
            sets: SetsSection {
                demoted: vec![0x40_0000],
                blacklist: vec![],
                seen_bbt: vec![0x40_0000, 0x40_0010],
                candidates: vec![],
                interp_counters: vec![(0x40_0000, 3)],
            },
        };
        encode_image(&img)
    }

    #[test]
    fn round_trip_preserves_sections() {
        let bytes = tiny_image();
        let d = decode_image(&bytes).unwrap();
        assert!(d.whole_ok);
        let meta = d.meta.unwrap().unwrap();
        assert_eq!(meta.config_hash, 0xdead_beef);
        assert_eq!(meta.pages, vec![(0x400, 0x1234)]);
        let sets = d.sets.unwrap().unwrap();
        assert_eq!(sets.seen_bbt, vec![0x40_0000, 0x40_0010]);
        assert!(d.bbt_cache.is_none(), "absent sections stay absent");
    }

    #[test]
    fn reserved_width_list_is_written_empty_and_skipped_on_read() {
        let sets = SetsSection {
            demoted: vec![0x40_0000],
            blacklist: vec![],
            seen_bbt: vec![],
            candidates: vec![],
            interp_counters: vec![(0x40_0000, 3)],
        };
        let mut b = encode_sets(&sets);
        assert_eq!(b[b.len() - 4..], [0, 0, 0, 0], "written as a zero count");
        // An older image's crack widths in the reserved list are skipped.
        b.truncate(b.len() - 4);
        for v in [2u32, 0x40_0000, 7, 0x40_0002, 3] {
            put_u32(&mut b, v);
        }
        let parsed = parse_sets(&b).unwrap();
        assert_eq!(parsed.demoted, sets.demoted);
        assert_eq!(parsed.interp_counters, sets.interp_counters);
        // A count the payload cannot hold is still malformed.
        b.truncate(b.len() - 4);
        assert_eq!(parse_sets(&b).unwrap_err(), RestoreError::Malformed);
    }

    #[test]
    fn encode_is_deterministic() {
        assert_eq!(tiny_image(), tiny_image());
    }

    #[test]
    fn short_and_alien_inputs_are_rejected() {
        assert_eq!(decode_image(&[]).unwrap_err(), RestoreError::Truncated);
        assert_eq!(
            decode_image(&[0u8; 35]).unwrap_err(),
            RestoreError::Truncated
        );
        let mut alien = tiny_image();
        alien[0] ^= 0xff;
        assert_eq!(decode_image(&alien).unwrap_err(), RestoreError::BadMagic);
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut img = tiny_image();
        img[8] = 99; // version field
        assert_eq!(
            decode_image(&img).unwrap_err(),
            RestoreError::UnsupportedVersion { found: 99 }
        );
        // Either reserved word set (an old delta image's flag or parent).
        for at in [12, 16] {
            let mut img = tiny_image();
            img[at] = 1;
            assert_eq!(
                decode_image(&img).unwrap_err(),
                RestoreError::Malformed,
                "byte {at}"
            );
            assert_eq!(image_summary(&img).unwrap_err(), RestoreError::Malformed);
        }
    }

    #[test]
    fn payload_bit_flip_condemns_one_section_only() {
        let bytes = tiny_image();
        let s = image_summary(&bytes).unwrap();
        // Flip a byte inside the meta payload.
        let meta_off = HEADER_BYTES + ENTRY_BYTES * s.sections.len();
        let mut bad = bytes.clone();
        bad[meta_off] ^= 0x01;
        let d = decode_image(&bad).unwrap();
        assert!(!d.whole_ok);
        assert_eq!(
            d.meta.unwrap().unwrap_err(),
            RestoreError::BadSection { id: SEC_META }
        );
        assert!(d.sets.unwrap().is_ok(), "other sections survive");
    }

    #[test]
    fn section_length_lie_is_contained() {
        let bytes = tiny_image();
        // Lie about the first section's length: table entry 0's len field
        // sits at HEADER_BYTES + 12.
        let mut bad = bytes.clone();
        bad[HEADER_BYTES + 12] = 0xff;
        bad[HEADER_BYTES + 13] = 0xff;
        let d = decode_image(&bad).unwrap();
        assert!(d.meta.unwrap().is_err(), "lying section is condemned");
        assert!(d.sets.unwrap().is_ok());
    }

    #[test]
    fn summary_names_sections() {
        let s = image_summary(&tiny_image()).unwrap();
        assert_eq!(s.version, FORMAT_VERSION);
        assert!(s.whole_ok);
        let names: Vec<&str> = s.sections.iter().map(|i| i.name()).collect();
        assert_eq!(names, vec!["meta", "sets"]);
        assert!(s.sections.iter().all(|i| i.checksum_ok));
    }

    #[test]
    fn atomic_write_round_trips() {
        let dir = std::env::temp_dir().join(format!("cdvm-snap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.cdvmimg");
        let bytes = tiny_image();
        write_image_atomic(&path, &bytes).unwrap();
        assert_eq!(fs::read(&path).unwrap(), bytes);
        // Overwrite is atomic too.
        write_image_atomic(&path, &bytes).unwrap();
        assert_eq!(fs::read(&path).unwrap(), bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
