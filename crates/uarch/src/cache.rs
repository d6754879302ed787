//! Set-associative caches with true LRU replacement.

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Access latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size / (self.ways * self.line)
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One set-associative cache level.
///
/// Timing-only: stores tags, not data (the functional engines own the
/// data). Replacement is true LRU, encoded as a per-line recency rank
/// (0 = MRU .. ways-1 = LRU): ranks carry exactly the same total order
/// as unique timestamps, so victims and miss counts are identical,
/// without a monotonically growing clock.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    tags: Vec<u32>,
    rank: Vec<u8>,
    // Most-recently-used way per set, a pure memo: the interleaved access
    // streams the simulator produces (stack, counters, heap) land in
    // different sets, so each set's MRU way is stable and one tag compare
    // usually replaces the way scan. Never consulted for correctness —
    // a stale entry just falls through to the scan.
    mru: Vec<u8>,
    stats: CacheStats,
    set_shift: u32,
    set_mask: u32,
}

/// Seeds ranks so that on a cold set way 0 is victimised first, matching
/// the timestamp scheme's first-minimum tie-break.
fn reset_ranks(rank: &mut [u8], ways: usize) {
    for (k, r) in rank.iter_mut().enumerate() {
        *r = (ways - 1 - k % ways) as u8;
    }
}

const INVALID: u32 = u32::MAX;

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two line/set count.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(config.line.is_power_of_two(), "line size must be a power of two");
        let mut rank = vec![0u8; sets * config.ways];
        reset_ranks(&mut rank, config.ways);
        Cache {
            config,
            tags: vec![INVALID; sets * config.ways],
            rank,
            mru: vec![0; sets],
            stats: CacheStats::default(),
            set_shift: config.line.trailing_zeros(),
            set_mask: (sets - 1) as u32,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses the line containing `addr`; returns `true` on hit.
    /// Misses allocate (write-allocate for stores).
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        self.stats.accesses += 1;
        let line_addr = addr >> self.set_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr;
        let base = set * self.config.ways;
        // MRU fast path: the MRU way already has rank 0, so a repeat hit
        // needs no state update at all — one compare, zero writes.
        let m = self.mru[set] as usize;
        if self.tags[base + m] == tag {
            return true;
        }
        self.access_scan(base, set, tag)
    }

    #[inline(never)]
    fn access_scan(&mut self, base: usize, set: usize, tag: u32) -> bool {
        let ways = self.config.ways;
        if let Some(i) = self.tags[base..base + ways].iter().position(|&t| t == tag) {
            self.promote(base, i);
            self.mru[set] = i as u8;
            return true;
        }
        self.stats.misses += 1;
        // LRU victim: the way with the maximal rank. A set's ranks are a
        // permutation of `0..ways`, so that is the way ranked `ways - 1`.
        let (mut victim, mut oldest) = (0, 0);
        for (w, &r) in self.rank[base..base + ways].iter().enumerate() {
            if r > oldest {
                (victim, oldest) = (w, r);
            }
        }
        self.tags[base + victim] = tag;
        self.promote(base, victim);
        self.mru[set] = victim as u8;
        false
    }

    /// Moves way `i` to rank 0, aging every way that was more recent.
    #[inline]
    fn promote(&mut self, base: usize, i: usize) {
        let ways = self.config.ways;
        let old = self.rank[base + i];
        for r in &mut self.rank[base..base + ways] {
            *r += u8::from(*r < old);
        }
        self.rank[base + i] = 0;
    }

    /// Invalidates everything (cold-start / context-switch modelling).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        let ways = self.config.ways;
        reset_ranks(&mut self.rank, ways);
    }
}

/// The full Table 2 hierarchy: split L1, unified L2, main memory.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// Main-memory latency in CPU cycles.
    pub mem_latency: u32,
}

/// Outcome of a hierarchy access: total added latency beyond the L1 hit
/// pipeline (0 for an L1 hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCost {
    /// Extra stall cycles caused by misses.
    pub stall: u32,
    /// True if the access missed all the way to memory.
    pub to_memory: bool,
}

impl Hierarchy {
    /// Builds the paper's Table 2 hierarchy.
    pub fn table2(mem_latency: u32) -> Hierarchy {
        Hierarchy {
            l1i: Cache::new(CacheConfig {
                size: 64 << 10,
                ways: 2,
                line: 64,
                latency: 2,
            }),
            l1d: Cache::new(CacheConfig {
                size: 64 << 10,
                ways: 8,
                line: 64,
                latency: 3,
            }),
            l2: Cache::new(CacheConfig {
                size: 2 << 20,
                ways: 8,
                line: 64,
                latency: 12,
            }),
            mem_latency,
        }
    }

    fn miss_cost(&mut self, addr: u32, l1_latency: u32) -> AccessCost {
        if self.l2.access(addr) {
            AccessCost {
                stall: self.l2.config().latency - l1_latency,
                to_memory: false,
            }
        } else {
            AccessCost {
                stall: self.mem_latency,
                to_memory: true,
            }
        }
    }

    /// Instruction fetch of the line containing `addr`.
    pub fn fetch(&mut self, addr: u32) -> AccessCost {
        if self.l1i.access(addr) {
            AccessCost {
                stall: 0,
                to_memory: false,
            }
        } else {
            let lat = self.l1i.config().latency;
            self.miss_cost(addr, lat)
        }
    }

    /// Data access of the line containing `addr`.
    pub fn data(&mut self, addr: u32) -> AccessCost {
        if self.l1d.access(addr) {
            AccessCost {
                stall: 0,
                to_memory: false,
            }
        } else {
            let lat = self.l1d.config().latency;
            self.miss_cost(addr, lat)
        }
    }

    /// Empties every level (the memory-startup scenario begins here).
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            size: 256,
            ways: 2,
            line: 64,
            latency: 1,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 2);
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103f), "same line");
        assert!(!c.access(0x1040), "next line is a different set/line");
    }

    #[test]
    fn lru_replacement() {
        let mut c = tiny();
        // Set 0 holds lines with (line_addr & 1) == 0: 0x000, 0x080, 0x100...
        c.access(0x000);
        c.access(0x080);
        c.access(0x000); // refresh line 0 -> LRU victim is 0x080
        c.access(0x100); // evicts 0x080
        assert!(c.access(0x000), "line 0 retained");
        assert!(!c.access(0x080), "line 0x080 was evicted");
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x1000);
        c.flush();
        assert!(!c.access(0x1000));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.access(64);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.misses, 2);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn hierarchy_miss_costs_order() {
        let mut h = Hierarchy::table2(168);
        let first = h.data(0x10_0000);
        assert!(first.to_memory);
        assert_eq!(first.stall, 168);
        let second = h.data(0x10_0000);
        assert_eq!(second.stall, 0);
        // L1 conflict eviction but L2 retention: touch enough lines to
        // evict from 8-way 64KB L1 set, then re-access -> L2 hit cost.
        let base = 0x10_0000u32;
        for k in 0..9u32 {
            h.data(base + k * (64 << 10) / 8 * 8); // same-set lines 64KB apart? keep simple: distinct lines
        }
        // Regardless of exact mapping, a re-access is at worst an L2 hit.
        let c = h.data(base);
        assert!(c.stall == 0 || c.stall == 12 - 3);
    }

    #[test]
    fn fetch_vs_data_are_separate_l1s() {
        let mut h = Hierarchy::table2(168);
        assert!(h.fetch(0x40_0000).to_memory);
        // Data access to the same line: L1D misses but L2 now hits.
        let c = h.data(0x40_0000);
        assert!(!c.to_memory);
        assert_eq!(c.stall, 12 - 3);
    }
}
