//! A fast open-addressing map from 32-bit PCs to small values.
//!
//! The per-micro-op hot path of the system driver consults a map on every
//! retirement (x86-instruction-boundary marks). `std::collections::HashMap`
//! with SipHash is needlessly slow for u32 keys, so this is a minimal
//! power-of-two open-addressing table with multiplicative hashing.

/// Map from `u32` keys to `u32` values. Key 0 is the empty-slot marker,
/// so `get(0)` reads whatever the probe's first empty slot holds; guest
/// code can sit at address 0, so the map stays private to [`PcSet`] and
/// [`PcCounter`], which keep key 0 aside.
#[derive(Debug, Clone)]
pub(crate) struct PcMap {
    keys: Vec<u32>,
    vals: Vec<u32>,
    len: usize,
    mask: usize,
}

impl Default for PcMap {
    fn default() -> Self {
        PcMap::with_capacity(1024)
    }
}

impl PcMap {
    /// Creates a map sized for at least `cap` entries.
    pub fn with_capacity(cap: usize) -> PcMap {
        let n = (cap * 2).next_power_of_two().max(16);
        PcMap {
            keys: vec![0; n],
            vals: vec![0; n],
            len: 0,
            mask: n - 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot(&self, key: u32) -> usize {
        cdvm_mem::fib_slot(key, self.mask)
    }

    /// Inserts or overwrites.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0`.
    pub fn insert(&mut self, key: u32, val: u32) {
        assert_ne!(key, 0, "key 0 is reserved");
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mut i = self.slot(key);
        loop {
            if self.keys[i] == 0 {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            if self.keys[i] == key {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up a key.
    #[inline]
    pub fn get(&self, key: u32) -> Option<u32> {
        let mut i = self.slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.get(key).is_some()
    }

    /// Adds `delta` to the value at `key`, inserting `delta` if absent;
    /// returns the new value. Saturates at `u32::MAX`: values are hotness
    /// and credit counters, and a counter that wrapped past the maximum
    /// would read as cold again — a long-running hot block would silently
    /// lose its promotion eligibility.
    #[inline]
    pub fn add(&mut self, key: u32, delta: u32) -> u32 {
        assert_ne!(key, 0, "key 0 is reserved");
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mut i = self.slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                let v = self.vals[i].saturating_add(delta);
                self.vals[i] = v;
                return v;
            }
            if k == 0 {
                self.keys[i] = key;
                self.vals[i] = delta;
                self.len += 1;
                return delta;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.keys.fill(0);
        self.len = 0;
    }

    /// Iterates over entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(&k, _)| k != 0)
            .map(|(&k, &v)| (k, v))
    }

    fn grow(&mut self) {
        // Note: `insert` below re-checks the load factor, but growth has
        // just made room, so it never recurses.
        let new_len = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_len]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![0; self.keys.len()];
        self.mask = self.keys.len() - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != 0 {
                self.insert(k, v);
            }
        }
    }
}

/// Set of `u32` PCs built on the crate's open-addressing `PcMap`.
///
/// Unlike the raw map, key `0` is allowed (held in a side bit): demotion
/// and blacklist sets must tolerate whatever targets fault-injected or
/// corrupted control flow produces, including address 0.
#[derive(Debug, Clone, Default)]
pub struct PcSet {
    map: PcMap,
    zero: bool,
}

impl PcSet {
    /// Creates an empty set.
    pub fn new() -> PcSet {
        PcSet::default()
    }

    /// Inserts `key`; returns true if it was not already present.
    pub fn insert(&mut self, key: u32) -> bool {
        if key == 0 {
            return !std::mem::replace(&mut self.zero, true);
        }
        if self.map.contains(key) {
            return false;
        }
        self.map.insert(key, 1);
        true
    }

    /// True if `key` is in the set.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        if key == 0 {
            self.zero
        } else {
            self.map.contains(key)
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len() + usize::from(self.zero)
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.map.clear();
        self.zero = false;
    }

    /// Iterates the members (the reserved-zero member last, when present;
    /// hash order otherwise — snapshot writers sort).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.map
            .iter()
            .map(|(k, _)| k)
            .chain(std::iter::once(0).filter(|_| self.zero))
    }
}

/// Flat map from native code-cache PCs to credit values, indexed by
/// halfword offset from the arena base.
///
/// Retirement credit is read once per micro-op the executor decodes into
/// a run (it then travels with the run). Native PCs are confined to one
/// bump-allocated arena (`[base, base + capacity)`) and micro-ops are
/// 2-byte aligned, so a direct-indexed array gives the lookup in one load
/// with no hashing or probing. Each slot packs a presence bit above the
/// 32-bit value so absent (`None`) and stored-zero are distinct — BBT
/// credit tags are x86 PCs, and under fault injection a translated block
/// can legitimately sit at guest address 0.
#[derive(Debug, Clone)]
pub struct CreditMap {
    base: u32,
    /// Maximum slot count (arena capacity / 2); the live vector tracks
    /// the bump allocator's high-water mark instead of being sized for
    /// the whole arena up front (default arenas are megabytes).
    max_slots: usize,
    slots: Vec<u64>,
}

const PRESENT: u64 = 1 << 32;

impl CreditMap {
    /// Creates a map covering `capacity` bytes of arena at `base`.
    pub fn new(base: u32, capacity: usize) -> CreditMap {
        CreditMap {
            base,
            max_slots: capacity.div_ceil(2),
            slots: Vec::new(),
        }
    }

    #[inline]
    fn idx(&self, pc: u32) -> Option<usize> {
        let off = pc.wrapping_sub(self.base);
        let i = (off >> 1) as usize;
        if off & 1 == 0 && i < self.slots.len() {
            Some(i)
        } else {
            None
        }
    }

    /// Like `idx`, but grows the live vector toward the arena capacity
    /// when `pc` lands beyond the current high-water mark.
    fn idx_grow(&mut self, pc: u32) -> Option<usize> {
        let off = pc.wrapping_sub(self.base);
        let i = (off >> 1) as usize;
        if off & 1 != 0 || i >= self.max_slots {
            return None;
        }
        if i >= self.slots.len() {
            let want = (i + 1).next_power_of_two().max(4096).min(self.max_slots);
            self.slots.resize(want, 0);
        }
        Some(i)
    }

    /// Looks up the credit at `pc`; addresses outside the arena are
    /// simply absent.
    #[inline]
    pub fn get(&self, pc: u32) -> Option<u32> {
        match self.idx(pc) {
            Some(i) => {
                let s = self.slots[i];
                if s & PRESENT != 0 {
                    Some(s as u32)
                } else {
                    None
                }
            }
            None => None,
        }
    }

    /// Inserts or overwrites the credit at `pc` (ignored outside the
    /// arena — translation never produces such addresses).
    pub fn insert(&mut self, pc: u32, val: u32) {
        if let Some(i) = self.idx_grow(pc) {
            self.slots[i] = PRESENT | u64::from(val);
        }
    }

    /// Adds `delta` to the credit at `pc` (saturating), inserting `delta`
    /// if absent; mirrors `PcMap::add`.
    pub fn add(&mut self, pc: u32, delta: u32) {
        if let Some(i) = self.idx_grow(pc) {
            let s = self.slots[i];
            let v = if s & PRESENT != 0 {
                (s as u32).saturating_add(delta)
            } else {
                delta
            };
            self.slots[i] = PRESENT | u64::from(v);
        }
    }

    /// Removes every credit (code-cache flush).
    pub fn clear(&mut self) {
        self.slots.fill(0);
    }

    /// Iterates over `(native_pc, credit)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &s)| s & PRESENT != 0)
            .map(|(i, &s)| (self.base + (i as u32) * 2, s as u32))
    }
}

/// Saturating per-PC hit counter built on `PcMap`; key `0` is allowed
/// via a side counter, for the same reason as [`PcSet`].
#[derive(Debug, Clone, Default)]
pub struct PcCounter {
    map: PcMap,
    zero: u32,
}

impl PcCounter {
    /// Creates an empty counter table.
    pub fn new() -> PcCounter {
        PcCounter::default()
    }

    /// Adds one to `key`'s counter and returns the new count.
    #[inline]
    pub fn bump(&mut self, key: u32) -> u32 {
        if key == 0 {
            self.zero = self.zero.saturating_add(1);
            self.zero
        } else {
            self.map.add(key, 1)
        }
    }

    /// Resets every counter.
    pub fn clear(&mut self) {
        self.map.clear();
        self.zero = 0;
    }

    /// Sets `key`'s counter to an absolute count (snapshot restore; a
    /// zero count for a nonzero key is dropped — it is indistinguishable
    /// from absent through [`PcCounter::bump`]).
    pub fn set(&mut self, key: u32, count: u32) {
        if key == 0 {
            self.zero = count;
        } else if count > 0 {
            self.map.insert(key, count);
        }
    }

    /// Iterates `(pc, count)` entries (the reserved key 0 last, when its
    /// counter is nonzero; hash order otherwise).
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.map
            .iter()
            .chain(std::iter::once((0, self.zero)).filter(|&(_, z)| z > 0))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn pcset_insert_contains_zero_key() {
        let mut s = PcSet::new();
        assert!(s.insert(0x40_0000));
        assert!(!s.insert(0x40_0000));
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.contains(0x40_0000));
        assert!(s.contains(0));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(0));
    }

    #[test]
    fn creditmap_round_trips_and_distinguishes_zero_values() {
        let mut m = CreditMap::new(0x8000_0000, 1 << 16);
        assert_eq!(m.get(0x8000_0000), None);
        m.insert(0x8000_0000, 0); // stored zero != absent
        assert_eq!(m.get(0x8000_0000), Some(0));
        m.insert(0x8000_0010, u32::MAX);
        assert_eq!(m.get(0x8000_0010), Some(u32::MAX));
        m.add(0x8000_0010, 5); // saturates
        assert_eq!(m.get(0x8000_0010), Some(u32::MAX));
        m.add(0x8000_0020, 3);
        m.add(0x8000_0020, 4);
        assert_eq!(m.get(0x8000_0020), Some(7));
        // Outside the arena, below base, and at the very end.
        assert_eq!(m.get(0x7fff_fffe), None);
        assert_eq!(m.get(0x8001_0000), None);
        m.insert(0x8000_fffe, 9);
        assert_eq!(m.get(0x8000_fffe), Some(9));
        let mut all: Vec<_> = m.iter().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            vec![
                (0x8000_0000, 0),
                (0x8000_0010, u32::MAX),
                (0x8000_0020, 7),
                (0x8000_fffe, 9),
            ]
        );
        m.clear();
        assert_eq!(m.get(0x8000_0000), None);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn pccounter_bumps_and_allows_zero() {
        let mut c = PcCounter::new();
        assert_eq!(c.bump(8), 1);
        assert_eq!(c.bump(8), 2);
        assert_eq!(c.bump(0), 1);
        assert_eq!(c.bump(0), 2);
        c.clear();
        assert_eq!(c.bump(8), 1);
    }

    #[test]
    fn insert_get_overwrite() {
        let mut m = PcMap::with_capacity(4);
        m.insert(0x1000, 1);
        m.insert(0x2000, 2);
        assert_eq!(m.get(0x1000), Some(1));
        m.insert(0x1000, 9);
        assert_eq!(m.get(0x1000), Some(9));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(0x3000), None);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m = PcMap::with_capacity(4);
        for k in 1..=1000u32 {
            m.insert(k * 4, k);
        }
        assert_eq!(m.len(), 1000);
        for k in 1..=1000u32 {
            assert_eq!(m.get(k * 4), Some(k));
        }
    }

    #[test]
    fn add_accumulates() {
        let mut m = PcMap::default();
        assert_eq!(m.add(8, 5), 5);
        assert_eq!(m.add(8, 3), 8);
    }

    #[test]
    fn add_saturates_at_max() {
        let mut m = PcMap::default();
        m.insert(8, u32::MAX - 1);
        assert_eq!(m.add(8, 1), u32::MAX);
        // One past the boundary: must stay hot, not wrap to cold.
        assert_eq!(m.add(8, 1), u32::MAX);
        assert_eq!(m.add(8, 1000), u32::MAX);
        assert_eq!(m.get(8), Some(u32::MAX));
    }

    #[test]
    fn clear_empties() {
        let mut m = PcMap::default();
        m.insert(4, 1);
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(4), None);
    }

    #[test]
    #[should_panic]
    fn zero_key_rejected() {
        PcMap::default().insert(0, 1);
    }

    #[test]
    fn iter_sees_all() {
        let mut m = PcMap::default();
        m.insert(4, 1);
        m.insert(8, 2);
        let mut got: Vec<_> = m.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(4, 1), (8, 2)]);
    }
}
