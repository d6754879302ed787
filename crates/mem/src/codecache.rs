//! Concealed-memory code cache arenas.

/// A structured code-cache failure.
///
/// Cache exhaustion is a *recoverable* condition for the VMM: the
/// degradation ladder falls back to a lower translation tier (or the
/// interpreter) instead of aborting the guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// The requested block is larger than the entire arena, so no number
    /// of flushes can ever make it fit (a configuration error surfaced to
    /// the caller rather than an infinite flush loop).
    TooLarge {
        /// Bytes requested.
        requested: usize,
        /// Arena capacity in bytes.
        capacity: usize,
    },
    /// An access touched bytes outside the live region of the arena.
    OutOfRange {
        /// Address of the access.
        addr: u32,
        /// Length of the access in bytes.
        len: usize,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::TooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "translation of {requested} bytes exceeds the {capacity}-byte arena"
            ),
            CacheError::OutOfRange { addr, len } => {
                write!(f, "{len}-byte access at {addr:#x} outside the live arena")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Address of a translation entry point inside a code cache.
///
/// Native PCs live in a distinct region of the simulated physical address
/// space (above [`CodeCacheConfig::base`]), so translated code and guest
/// data contend for the same cache hierarchy in the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NativePc(pub u32);

impl std::fmt::Display for NativePc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n:{:#010x}", self.0)
    }
}

impl std::fmt::LowerHex for NativePc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Configuration of one code-cache arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeCacheConfig {
    /// Simulated base address of the arena.
    pub base: u32,
    /// Arena capacity in bytes.
    pub capacity: usize,
}

impl CodeCacheConfig {
    /// A BBT arena at its conventional base address.
    pub fn bbt(capacity: usize) -> Self {
        CodeCacheConfig {
            base: 0x8000_0000,
            capacity,
        }
    }

    /// An SBT arena at its conventional base address.
    pub fn sbt(capacity: usize) -> Self {
        CodeCacheConfig {
            base: 0xa000_0000,
            capacity,
        }
    }
}

/// Occupancy and eviction statistics for a [`CodeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeCacheStats {
    /// Bytes currently allocated in the live generation.
    pub used_bytes: usize,
    /// Total bytes ever written (across flushes).
    pub total_bytes_written: u64,
    /// Number of translations currently resident.
    pub resident_translations: usize,
    /// Number of whole-arena flushes performed to make room.
    pub flushes: u64,
    /// Translations discarded by flushes (lifetime total).
    pub evicted_translations: u64,
}

/// A bump-allocated arena of translated code with flush-style eviction.
///
/// Real co-designed VMs (and IA-32 EL, DynamoRIO, …) manage code caches
/// with coarse eviction — flushing a generation at a time is both simple
/// and avoids fragmentation. When an allocation does not fit, the arena is
/// flushed, the generation counter bumps, and every outstanding
/// [`NativePc`] from earlier generations becomes stale (callers detect this
/// through [`TranslationTable`](crate::TranslationTable) generation tags).
///
/// # Example
///
/// ```
/// use cdvm_mem::{CodeCache, CodeCacheConfig};
///
/// let mut cc = CodeCache::new(CodeCacheConfig::bbt(1 << 20));
/// let pc = cc.alloc(&[0x12, 0x34]).expect("fits");
/// assert_eq!(cc.read_u16(pc.0), 0x3412);
/// ```
#[derive(Debug, Clone)]
pub struct CodeCache {
    config: CodeCacheConfig,
    bytes: Vec<u8>,
    generation: u64,
    stats: CodeCacheStats,
}

impl CodeCache {
    /// Creates an empty arena, holding no host memory until code arrives.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero.
    pub fn new(config: CodeCacheConfig) -> Self {
        assert!(config.capacity > 0, "code cache capacity must be non-zero");
        CodeCache {
            config,
            bytes: Vec::new(),
            generation: 0,
            stats: CodeCacheStats::default(),
        }
    }

    /// The arena configuration.
    pub fn config(&self) -> CodeCacheConfig {
        self.config
    }

    /// Current generation; bumps on every flush.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> CodeCacheStats {
        CodeCacheStats {
            used_bytes: self.bytes.len(),
            ..self.stats
        }
    }

    /// Fraction of the arena currently allocated, in `[0, 1]` (telemetry
    /// probe: a value near 1.0 means the next translation likely flushes).
    pub fn occupancy(&self) -> f64 {
        if self.config.capacity == 0 {
            0.0
        } else {
            self.bytes.len() as f64 / self.config.capacity as f64
        }
    }

    /// True if `len` more bytes fit without flushing.
    pub fn fits(&self, len: usize) -> bool {
        self.bytes.len() + len <= self.config.capacity
    }

    /// Allocates `code` in the arena, flushing first if necessary.
    ///
    /// Returns the simulated address of the copied code, or
    /// [`CacheError::TooLarge`] if the code is larger than the whole
    /// arena (arena-wrap would otherwise flush forever without making
    /// progress).
    pub fn alloc(&mut self, code: &[u8]) -> Result<NativePc, CacheError> {
        if code.len() > self.config.capacity {
            return Err(CacheError::TooLarge {
                requested: code.len(),
                capacity: self.config.capacity,
            });
        }
        if !self.fits(code.len()) {
            self.flush();
        }
        let offset = self.bytes.len();
        let need = offset + code.len();
        if need > self.bytes.capacity() {
            // Double the reservation, but never past the arena's capacity.
            let target = (2 * self.bytes.capacity()).clamp(need, self.config.capacity);
            self.bytes.reserve_exact(target - offset);
        }
        self.bytes.extend_from_slice(code);
        self.stats.total_bytes_written += code.len() as u64;
        self.stats.resident_translations += 1;
        Ok(NativePc(self.config.base + offset as u32))
    }

    /// Discards every translation and bumps the generation.
    pub fn flush(&mut self) {
        self.bytes.clear();
        self.generation += 1;
        self.stats.flushes += 1;
        self.stats.evicted_translations += self.stats.resident_translations as u64;
        self.stats.resident_translations = 0;
    }

    /// True if `pc` lies inside this arena's address range.
    pub fn contains(&self, pc: NativePc) -> bool {
        pc.0 >= self.config.base && (pc.0 - self.config.base) < self.bytes.len() as u32
    }

    fn offset(&self, addr: u32) -> usize {
        debug_assert!(
            addr >= self.config.base,
            "address {addr:#x} below arena base {:#x}",
            self.config.base
        );
        (addr - self.config.base) as usize
    }

    /// Reads one byte of translated code.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the live region.
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.bytes[self.offset(addr)]
    }

    /// Reads a little-endian halfword of translated code.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the live region.
    pub fn read_u16(&self, addr: u32) -> u16 {
        let o = self.offset(addr);
        u16::from_le_bytes([self.bytes[o], self.bytes[o + 1]])
    }

    /// Reads a little-endian word of translated code.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the live region.
    pub fn read_u32(&self, addr: u32) -> u32 {
        let o = self.offset(addr);
        u32::from_le_bytes([
            self.bytes[o],
            self.bytes[o + 1],
            self.bytes[o + 2],
            self.bytes[o + 3],
        ])
    }

    /// Patches a halfword in place (used by branch chaining).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the live region.
    pub fn patch_u16(&mut self, addr: u32, value: u16) {
        let o = self.offset(addr);
        self.bytes[o..o + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Patches a word in place (used by branch chaining).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the live region.
    pub fn patch_u32(&mut self, addr: u32, value: u32) {
        let o = self.offset(addr);
        self.bytes[o..o + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// A view of the live code bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the live region.
    pub fn slice_from(&self, addr: u32) -> &[u8] {
        &self.bytes[self.offset(addr)..]
    }

    /// The whole live arena (current generation only), base first. Empty
    /// right after a flush — unlike [`CodeCache::slice_from`] this never
    /// panics, so snapshot writers can serialize an arena in any state.
    pub fn live_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Replaces the arena contents wholesale from a warm-image section:
    /// installs `code` at the base address, adopts `generation`, and
    /// resets the statistics as if the `resident` translations had been
    /// allocated into a fresh arena (restore charges no flushes or
    /// evictions). Returns [`CacheError::TooLarge`] — leaving the arena
    /// untouched — when the image section does not fit this arena's
    /// capacity (e.g. an image saved from a larger machine config).
    pub fn restore(
        &mut self,
        code: &[u8],
        generation: u64,
        resident: usize,
    ) -> Result<(), CacheError> {
        if code.len() > self.config.capacity {
            return Err(CacheError::TooLarge {
                requested: code.len(),
                capacity: self.config.capacity,
            });
        }
        self.bytes = code.to_vec();
        self.generation = generation;
        self.stats = CodeCacheStats {
            used_bytes: code.len(),
            total_bytes_written: code.len() as u64,
            resident_translations: resident,
            flushes: 0,
            evicted_translations: 0,
        };
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn small() -> CodeCache {
        CodeCache::new(CodeCacheConfig {
            base: 0x8000_0000,
            capacity: 16,
        })
    }

    #[test]
    fn alloc_returns_sequential_addresses() {
        let mut cc = small();
        let a = cc.alloc(&[1, 2, 3, 4]).unwrap();
        let b = cc.alloc(&[5, 6]).unwrap();
        assert_eq!(a, NativePc(0x8000_0000));
        assert_eq!(b, NativePc(0x8000_0004));
        assert_eq!(cc.stats().used_bytes, 6);
        assert_eq!(cc.stats().resident_translations, 2);
    }

    #[test]
    fn flush_on_overflow_bumps_generation() {
        let mut cc = small();
        cc.alloc(&[0; 12]).unwrap();
        assert_eq!(cc.generation(), 0);
        let pc = cc.alloc(&[0; 8]).unwrap();
        assert_eq!(cc.generation(), 1);
        assert_eq!(pc, NativePc(0x8000_0000));
        assert_eq!(cc.stats().flushes, 1);
        assert_eq!(cc.stats().resident_translations, 1);
        assert_eq!(cc.stats().evicted_translations, 1);
    }

    #[test]
    fn oversized_allocation_rejected() {
        let mut cc = small();
        assert_eq!(
            cc.alloc(&[0; 17]),
            Err(CacheError::TooLarge {
                requested: 17,
                capacity: 16
            })
        );
        assert_eq!(cc.generation(), 0);
    }

    #[test]
    fn patch_and_read_back() {
        let mut cc = small();
        let pc = cc.alloc(&[0; 8]).unwrap();
        cc.patch_u32(pc.0 + 4, 0xdead_beef);
        assert_eq!(cc.read_u32(pc.0 + 4), 0xdead_beef);
        cc.patch_u16(pc.0, 0xabcd);
        assert_eq!(cc.read_u16(pc.0), 0xabcd);
        assert_eq!(cc.read_u8(pc.0), 0xcd);
    }

    #[test]
    fn contains_tracks_live_region() {
        let mut cc = small();
        let pc = cc.alloc(&[1, 2, 3, 4]).unwrap();
        assert!(cc.contains(pc));
        assert!(!cc.contains(NativePc(pc.0 + 4)));
        assert!(!cc.contains(NativePc(0x7fff_ffff)));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = CodeCache::new(CodeCacheConfig {
            base: 0,
            capacity: 0,
        });
    }

    #[test]
    fn arena_grows_with_use_up_to_its_capacity() {
        let mut cc = CodeCache::new(CodeCacheConfig::bbt(1000));
        assert_eq!(cc.bytes.capacity(), 0, "a fresh arena reserves nothing");
        let mut sizes = [3usize, 7, 100, 1, 250, 64].iter().cycle();
        while cc.stats().used_bytes < 1000 {
            let len = (*sizes.next().unwrap()).min(1000 - cc.stats().used_bytes);
            cc.alloc(&vec![0xab; len]).unwrap();
            assert!(cc.bytes.capacity() <= 1000, "over-reserved");
        }
        assert_eq!(cc.stats().used_bytes, 1000);
        assert_eq!(cc.generation(), 0, "filling to the capacity never flushes");
        cc.alloc(&[1]).unwrap();
        assert_eq!(cc.generation(), 1, "the next allocation flushes");
        assert_eq!(cc.stats().used_bytes, 1);
        assert_eq!(cc.bytes.capacity(), 1000);
        cc.restore(&[2; 999], 5, 1).unwrap();
        assert_eq!(cc.bytes.capacity(), 999);

        let mut restored = CodeCache::new(CodeCacheConfig::bbt(1000));
        restored.restore(&[2; 600], 5, 1).unwrap();
        assert_eq!(restored.bytes.capacity(), 600);
        restored.alloc(&[3; 400]).unwrap();
        assert_eq!(restored.bytes.capacity(), 1000);
        assert_eq!(restored.generation(), 5);
    }

    #[test]
    fn total_bytes_written_accumulates_across_flushes() {
        let mut cc = small();
        cc.alloc(&[0; 10]).unwrap();
        cc.alloc(&[0; 10]).unwrap(); // forces flush
        assert_eq!(cc.stats().total_bytes_written, 20);
        assert_eq!(cc.stats().used_bytes, 10);
    }
}
