//! The translation lookup table: architected PC → translation entry point.

use crate::NativePc;

/// Fibonacci multiply-shift slot function shared by the flat hash tables
/// on the execute path (this table, the x86 decoder's cache, and the core
/// crate's PC sets and counters).
/// `mask` must be `capacity - 1` for a power-of-two capacity.
#[inline]
pub fn fib_slot(key: u32, mask: usize) -> usize {
    ((key.wrapping_mul(0x9e37_79b9) as usize) >> 7) & mask
}

/// Result of a translation lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// A live translation exists at this native PC.
    Hit(NativePc),
    /// No translation (never translated, or evicted by a flush).
    Miss,
}

const EMPTY: u32 = 0;
const INITIAL_SLOTS: usize = 256;

/// Maps architected (x86) PCs to code-cache entry points.
///
/// Entries carry the code-cache generation they were allocated in; when the
/// arena flushes, stale entries are filtered lazily on lookup, modelling
/// the re-translation cost a limited code cache imposes on large-working-set
/// workloads (one of the paper's §1.1 motivations).
///
/// Storage is a power-of-two open-addressing table ([`fib_slot`], linear
/// probing, backward-shift deletion) in parallel arrays, so the per-branch
/// lookup on the dispatch path is a multiply, a shift and usually one
/// cache line — no SipHash, no per-entry allocation. Key `0` (never a
/// valid translated PC in practice, but allowed by the API) lives in a
/// side slot so the key array can use `0` as its empty marker.
///
/// # Example
///
/// ```
/// use cdvm_mem::{NativePc, TranslationTable, LookupOutcome};
///
/// let mut tt = TranslationTable::new();
/// tt.insert(0x40_0000, NativePc(0x8000_0000), 0);
/// assert_eq!(tt.lookup(0x40_0000, 0), LookupOutcome::Hit(NativePc(0x8000_0000)));
/// assert_eq!(tt.lookup(0x40_0000, 1), LookupOutcome::Miss); // generation moved on
/// ```
#[derive(Debug, Clone)]
pub struct TranslationTable {
    keys: Vec<u32>,
    natives: Vec<u32>,
    gens: Vec<u64>,
    /// Entries stored in the slot arrays (excludes the zero-key side slot).
    len: usize,
    /// Entry for the reserved key `0`.
    zero: Option<(NativePc, u64)>,
    lookups: u64,
    hits: u64,
    stale_evictions: u64,
}

impl Default for TranslationTable {
    fn default() -> Self {
        TranslationTable {
            keys: vec![EMPTY; INITIAL_SLOTS],
            natives: vec![0; INITIAL_SLOTS],
            gens: vec![0; INITIAL_SLOTS],
            len: 0,
            zero: None,
            lookups: 0,
            hits: 0,
            stale_evictions: 0,
        }
    }
}

impl TranslationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// Probes for `x86_pc` (which must be non-zero); returns the slot
    /// holding it, or the empty slot ending its probe chain.
    #[inline]
    fn probe(&self, x86_pc: u32) -> (usize, bool) {
        let mask = self.mask();
        let mut i = fib_slot(x86_pc, mask);
        loop {
            let k = self.keys[i];
            if k == x86_pc {
                return (i, true);
            }
            if k == EMPTY {
                return (i, false);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_natives = std::mem::replace(&mut self.natives, vec![0; new_cap]);
        let old_gens = std::mem::replace(&mut self.gens, vec![0; new_cap]);
        self.len = 0;
        for (i, k) in old_keys.iter().copied().enumerate() {
            if k != EMPTY {
                self.place(k, old_natives[i], old_gens[i]);
            }
        }
    }

    /// Inserts without growth checks; `x86_pc` must be non-zero and absent.
    fn place(&mut self, x86_pc: u32, native: u32, generation: u64) {
        let (i, _) = self.probe(x86_pc);
        self.keys[i] = x86_pc;
        self.natives[i] = native;
        self.gens[i] = generation;
        self.len += 1;
    }

    /// Removes the entry at slot `i`, back-shifting displaced successors so
    /// probe chains stay intact without tombstones.
    fn erase_slot(&mut self, mut i: usize) {
        self.len -= 1;
        let mask = self.mask();
        let mut j = i;
        loop {
            self.keys[i] = EMPTY;
            loop {
                j = (j + 1) & mask;
                let k = self.keys[j];
                if k == EMPTY {
                    return;
                }
                let home = fib_slot(k, mask);
                // `k` belongs at `i` if its home precedes the vacated slot
                // on the cyclic probe path ending at `j`.
                if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                    break;
                }
            }
            self.keys[i] = self.keys[j];
            self.natives[i] = self.natives[j];
            self.gens[i] = self.gens[j];
            i = j;
        }
    }

    /// Registers a translation for `x86_pc` created in `generation`.
    ///
    /// Re-translation of the same PC overwrites the previous entry.
    pub fn insert(&mut self, x86_pc: u32, native: NativePc, generation: u64) {
        if x86_pc == EMPTY {
            self.zero = Some((native, generation));
            return;
        }
        let (i, found) = self.probe(x86_pc);
        if found {
            self.natives[i] = native.0;
            self.gens[i] = generation;
            return;
        }
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
            self.place(x86_pc, native.0, generation);
        } else {
            self.keys[i] = x86_pc;
            self.natives[i] = native.0;
            self.gens[i] = generation;
            self.len += 1;
        }
    }

    /// Looks up `x86_pc` against the current code-cache `generation`.
    ///
    /// Stale entries (from flushed generations) are removed and reported as
    /// misses.
    #[inline]
    pub fn lookup(&mut self, x86_pc: u32, generation: u64) -> LookupOutcome {
        self.lookups += 1;
        if x86_pc == EMPTY {
            return match self.zero {
                Some((native, gen)) if gen == generation => {
                    self.hits += 1;
                    LookupOutcome::Hit(native)
                }
                Some(_) => {
                    self.zero = None;
                    self.stale_evictions += 1;
                    LookupOutcome::Miss
                }
                None => LookupOutcome::Miss,
            };
        }
        let (i, found) = self.probe(x86_pc);
        if !found {
            return LookupOutcome::Miss;
        }
        if self.gens[i] == generation {
            self.hits += 1;
            LookupOutcome::Hit(NativePc(self.natives[i]))
        } else {
            self.erase_slot(i);
            self.stale_evictions += 1;
            LookupOutcome::Miss
        }
    }

    /// Peeks without mutating statistics or evicting stale entries.
    pub fn peek(&self, x86_pc: u32, generation: u64) -> Option<NativePc> {
        if x86_pc == EMPTY {
            return match self.zero {
                Some((native, gen)) if gen == generation => Some(native),
                _ => None,
            };
        }
        let (i, found) = self.probe(x86_pc);
        if found && self.gens[i] == generation {
            Some(NativePc(self.natives[i]))
        } else {
            None
        }
    }

    /// Removes a single entry (forced re-translation, e.g. after a
    /// redirected block entry is unchained).
    pub fn remove(&mut self, x86_pc: u32) {
        if x86_pc == EMPTY {
            self.zero = None;
            return;
        }
        let (i, found) = self.probe(x86_pc);
        if found {
            self.erase_slot(i);
        }
    }

    /// Removes every entry (e.g. on a full VM reset).
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
        self.zero = None;
    }

    /// Sweeps every entry whose generation is not `generation`, counting
    /// them as stale evictions. Called eagerly when the code cache
    /// flushes, so table memory tracks live translations instead of
    /// accumulating dead entries that are only reclaimed if their PC
    /// happens to be looked up again. Returns the number swept.
    pub fn sweep_stale(&mut self, generation: u64) -> usize {
        let mut swept = 0usize;
        // Rebuild in place: collect survivors, then re-place them. Simpler
        // than interleaving backward-shift deletes with a scan, and flushes
        // are rare relative to lookups.
        let mut live: Vec<(u32, u32, u64)> = Vec::with_capacity(self.len);
        for (i, k) in self.keys.iter().copied().enumerate() {
            if k == EMPTY {
                continue;
            }
            if self.gens[i] == generation {
                live.push((k, self.natives[i], self.gens[i]));
            } else {
                swept += 1;
            }
        }
        self.keys.fill(EMPTY);
        self.len = 0;
        for (k, n, g) in live {
            self.place(k, n, g);
        }
        if let Some((_, gen)) = self.zero {
            if gen != generation {
                self.zero = None;
                swept += 1;
            }
        }
        self.stale_evictions += swept as u64;
        swept
    }

    /// Number of registered (possibly stale) entries.
    pub fn len(&self) -> usize {
        self.len + usize::from(self.zero.is_some())
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that hit a live translation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Stale entries removed because their generation was flushed.
    pub fn stale_evictions(&self) -> u64 {
        self.stale_evictions
    }

    /// Allocated slot capacity of the open-addressing table (telemetry
    /// probe; grows by doubling, never shrinks).
    pub fn slot_capacity(&self) -> usize {
        self.keys.len()
    }

    /// Occupied fraction of the slot array, in `[0, 1]` (telemetry probe
    /// for table growth behaviour; the zero-key side slot is excluded).
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.keys.len() as f64
    }

    /// Iterates over live entries of `generation`.
    pub fn iter_live(&self, generation: u64) -> impl Iterator<Item = (u32, NativePc)> + '_ {
        let zero = match self.zero {
            Some((native, gen)) if gen == generation => Some((EMPTY, native)),
            _ => None,
        };
        zero.into_iter().chain(
            self.keys
                .iter()
                .copied()
                .enumerate()
                .filter(move |&(i, k)| k != EMPTY && self.gens[i] == generation)
                .map(|(i, k)| (k, NativePc(self.natives[i]))),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::Rng64;

    #[test]
    fn miss_then_hit() {
        let mut tt = TranslationTable::new();
        assert_eq!(tt.lookup(100, 0), LookupOutcome::Miss);
        tt.insert(100, NativePc(0x8000_0010), 0);
        assert_eq!(tt.lookup(100, 0), LookupOutcome::Hit(NativePc(0x8000_0010)));
        assert_eq!(tt.lookups(), 2);
        assert_eq!(tt.hits(), 1);
    }

    #[test]
    fn stale_generation_is_miss_and_evicted() {
        let mut tt = TranslationTable::new();
        tt.insert(100, NativePc(0x8000_0000), 0);
        assert_eq!(tt.lookup(100, 1), LookupOutcome::Miss);
        assert_eq!(tt.stale_evictions(), 1);
        assert!(tt.is_empty());
    }

    #[test]
    fn reinsert_overwrites() {
        let mut tt = TranslationTable::new();
        tt.insert(100, NativePc(0x8000_0000), 0);
        tt.insert(100, NativePc(0x8000_0040), 0);
        assert_eq!(tt.peek(100, 0), Some(NativePc(0x8000_0040)));
        assert_eq!(tt.len(), 1);
    }

    #[test]
    fn peek_does_not_count() {
        let mut tt = TranslationTable::new();
        tt.insert(5, NativePc(0x8000_0000), 3);
        assert_eq!(tt.peek(5, 3), Some(NativePc(0x8000_0000)));
        assert_eq!(tt.peek(5, 4), None);
        assert_eq!(tt.lookups(), 0);
    }

    #[test]
    fn sweep_stale_drops_dead_generations() {
        let mut tt = TranslationTable::new();
        tt.insert(1, NativePc(0x8000_0000), 0);
        tt.insert(2, NativePc(0x8000_0010), 0);
        tt.insert(3, NativePc(0x8000_0020), 2);
        let swept = tt.sweep_stale(2);
        assert_eq!(swept, 2);
        assert_eq!(tt.len(), 1);
        assert_eq!(tt.stale_evictions(), 2);
        assert_eq!(tt.peek(3, 2), Some(NativePc(0x8000_0020)));
        // Sweeping again is a no-op.
        assert_eq!(tt.sweep_stale(2), 0);
    }

    #[test]
    fn iter_live_filters_generations() {
        let mut tt = TranslationTable::new();
        tt.insert(1, NativePc(0x8000_0000), 0);
        tt.insert(2, NativePc(0x8000_0010), 1);
        let live: Vec<_> = tt.iter_live(1).collect();
        assert_eq!(live, vec![(2, NativePc(0x8000_0010))]);
    }

    #[test]
    fn zero_pc_round_trips_through_side_slot() {
        let mut tt = TranslationTable::new();
        tt.insert(0, NativePc(0x8000_0100), 7);
        assert_eq!(tt.lookup(0, 7), LookupOutcome::Hit(NativePc(0x8000_0100)));
        assert_eq!(tt.len(), 1);
        assert_eq!(tt.lookup(0, 8), LookupOutcome::Miss);
        assert_eq!(tt.stale_evictions(), 1);
        assert!(tt.is_empty());
    }

    /// Randomized differential against the obvious `HashMap` reference:
    /// same operations, same outcomes, same statistics — including growth
    /// and backward-shift deletion under load.
    #[test]
    fn matches_hashmap_reference_model() {
        use std::collections::HashMap;

        let mut tt = TranslationTable::new();
        let mut model: HashMap<u32, (u32, u64)> = HashMap::new();
        let mut model_stats = (0u64, 0u64, 0u64); // lookups, hits, stale
        let mut rng = Rng64::new(0x5eed_cafe);

        for step in 0..20_000u32 {
            let pc = (rng.next_u64() % 997) as u32; // dense keys force collisions
            let generation = rng.next_u64() % 3;
            match rng.next_u64() % 10 {
                0..=3 => {
                    let native = NativePc(0x8000_0000 + step);
                    tt.insert(pc, native, generation);
                    model.insert(pc, (native.0, generation));
                }
                4..=7 => {
                    model_stats.0 += 1;
                    let want = match model.get(&pc) {
                        Some(&(native, gen)) if gen == generation => {
                            model_stats.1 += 1;
                            LookupOutcome::Hit(NativePc(native))
                        }
                        Some(_) => {
                            model.remove(&pc);
                            model_stats.2 += 1;
                            LookupOutcome::Miss
                        }
                        None => LookupOutcome::Miss,
                    };
                    assert_eq!(tt.lookup(pc, generation), want, "step {step} pc {pc}");
                }
                8 => {
                    tt.remove(pc);
                    model.remove(&pc);
                }
                _ => {
                    let before = model.len();
                    model.retain(|_, &mut (_, gen)| gen == generation);
                    let swept = before - model.len();
                    model_stats.2 += swept as u64;
                    assert_eq!(tt.sweep_stale(generation), swept, "step {step}");
                }
            }
            assert_eq!(tt.len(), model.len(), "step {step}");
        }
        assert_eq!(
            (tt.lookups(), tt.hits(), tt.stale_evictions()),
            model_stats
        );
        for (pc, NativePc(native)) in tt.iter_live(1) {
            assert_eq!(model.get(&pc), Some(&(native, 1)));
        }
    }
}
