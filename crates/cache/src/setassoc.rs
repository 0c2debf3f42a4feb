//! The N-way set-associative cache directory all policies share.
//!
//! §III-B: "KDD adopts the N-way set-associative method to organize the
//! SSD cache. The cache space is divided into many cache sets, each
//! containing a fixed number of pages." Pages carry a state (*free*,
//! *clean*, *old*, *delta*, plus *dirty*/*old-version* for the baseline
//! policies); per-set recency is tracked with an intrusive LRU.
//!
//! Set placement groups pages of the same parity stripe into the same set
//! (hashed), so the cleaner can reclaim them together; DEZ pages are
//! *unmapped* slots allocated "from the cache set which has the least
//! number of DEZ pages" so they spread evenly.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use kdd_util::hash::{mix64, FastMap};
use kdd_util::lru::LruList;
use serde::{Deserialize, Serialize};

/// State of one cache page slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PageState {
    /// Unoccupied.
    Free,
    /// Valid copy of RAID data (parity consistent).
    Clean,
    /// Stale copy: the RAID holds newer data whose parity is pending; the
    /// delta to the current version lives in DEZ/NVRAM (KDD).
    Old,
    /// A compacted page of deltas (KDD's DEZ).
    Delta,
    /// Newer than RAID (write-back only).
    Dirty,
    /// LeavO's retained second version of an updated page.
    OldVersion,
}

/// Number of [`PageState`] variants (the width of the count tables).
const STATES: usize = 6;
const _: () = assert!(PageState::OldVersion as usize + 1 == STATES);

/// How LBAs map to cache sets.
///
/// §III-B: "DAZ pages in the same parity stripe are mapped to the same
/// cache set, and thus they can be reclaimed together during cache
/// cleaning." The reclaim unit of the cleaner is the *parity row* (the
/// page-granular stripe slice), so [`SetGrouping::ParityRow`] co-locates
/// exactly the pages that are freed together while spreading unrelated
/// rows across sets. [`SetGrouping::Pages`] is plain block-range hashing
/// (1 = per-page) for the set-mapping ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SetGrouping {
    /// `lba / n` shares a set.
    Pages(u64),
    /// Members of the same parity row share a set.
    ParityRow {
        /// Pages per chunk (stripe unit).
        chunk_pages: u64,
        /// Data disks per stripe.
        data_disks: u64,
    },
}

impl SetGrouping {
    /// The grouping key for an LBA (hashed to pick the set).
    #[inline]
    pub fn key(&self, lba: u64) -> u64 {
        match *self {
            SetGrouping::Pages(n) => lba / n.max(1),
            SetGrouping::ParityRow { chunk_pages, data_disks } => {
                let stripe = lba / (chunk_pages * data_disks);
                stripe * chunk_pages + lba % chunk_pages
            }
        }
    }
}

/// Cache shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total page slots.
    pub total_pages: u64,
    /// Slots per set.
    pub ways: u32,
    /// Page size in bytes.
    pub page_size: u32,
}

impl CacheGeometry {
    /// Geometry from a byte capacity (ways defaults to 64, clamped so at
    /// least one set exists).
    pub fn from_bytes(capacity_bytes: u64, page_size: u32) -> Self {
        let total_pages = (capacity_bytes / page_size as u64).max(1);
        CacheGeometry { total_pages, ways: 64.min(total_pages as u32).max(1), page_size }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.total_pages / self.ways as u64).max(1) as usize
    }
}

/// Result of inserting a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Inserted into a free slot.
    Inserted {
        /// The slot used.
        slot: u32,
    },
    /// Inserted after evicting a page.
    Evicted {
        /// The slot used.
        slot: u32,
        /// Tag (LBA) of the evicted page.
        victim_lba: u64,
        /// State the victim was in.
        victim_state: PageState,
    },
    /// No free slot and nothing evictable in the set — the caller must
    /// bypass the cache or trigger cleaning.
    NoRoom,
}

const TAG_NONE: u64 = u64::MAX;

/// The shared cache directory.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    sets: usize,
    /// Per-slot tag (LBA) — `TAG_NONE` for free/unmapped (delta) slots.
    tags: Vec<u64>,
    states: Vec<PageState>,
    /// Per-set LRU over *local* slot indices.
    lru: Vec<LruList>,
    /// LBA → global slot.
    map: FastMap<u64, u32>,
    /// Per-set slot counts by state (indexed by [`PageState`]).
    set_counts: Vec<[u32; STATES]>,
    /// Whole-cache slot counts by state.
    counts: [usize; STATES],
    /// Set-placement grouping.
    grouping: SetGrouping,
}

impl SetAssocCache {
    /// Build an empty cache with the given set-placement grouping.
    pub fn new_grouped(geometry: CacheGeometry, grouping: SetGrouping) -> Self {
        let sets = geometry.sets();
        let slots = sets * geometry.ways as usize;
        SetAssocCache {
            geometry,
            sets,
            tags: vec![TAG_NONE; slots],
            states: vec![PageState::Free; slots],
            lru: (0..sets).map(|_| LruList::with_capacity(geometry.ways as usize)).collect(),
            map: FastMap::default(),
            set_counts: vec![free_only(geometry.ways); sets],
            counts: free_only(slots),
            grouping,
        }
    }

    /// Build with simple page-range grouping (`group_pages` consecutive
    /// pages share a set; 1 = per-page hashing).
    pub fn new(geometry: CacheGeometry, group_pages: u64) -> Self {
        Self::new_grouped(geometry, SetGrouping::Pages(group_pages))
    }

    /// The cache shape.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Total slots (sets × ways).
    pub fn slots(&self) -> usize {
        self.tags.len()
    }

    /// Set an LBA maps to.
    #[inline]
    pub fn set_of_lba(&self, lba: u64) -> usize {
        (mix64(self.grouping.key(lba)) % self.sets as u64) as usize
    }

    /// Set that owns a slot.
    #[inline]
    pub fn set_of_slot(&self, slot: u32) -> usize {
        slot as usize / self.geometry.ways as usize
    }

    #[inline]
    fn local(&self, slot: u32) -> usize {
        slot as usize % self.geometry.ways as usize
    }

    #[inline]
    fn global(&self, set: usize, local: usize) -> u32 {
        (set * self.geometry.ways as usize + local) as u32
    }

    /// Slot holding `lba`, if cached (does not touch recency).
    pub fn lookup(&self, lba: u64) -> Option<u32> {
        self.map.get(&lba).copied()
    }

    /// State of a slot.
    pub fn state(&self, slot: u32) -> PageState {
        self.states[slot as usize]
    }

    /// Tag (LBA) of a slot; `None` for unmapped slots.
    pub fn tag(&self, slot: u32) -> Option<u64> {
        let t = self.tags[slot as usize];
        (t != TAG_NONE).then_some(t)
    }

    /// Change a slot's state (keeps mapping and recency).
    pub fn set_state(&mut self, slot: u32, state: PageState) {
        debug_assert_ne!(state, PageState::Free, "use free_slot to free");
        debug_assert_ne!(self.states[slot as usize], PageState::Free, "slot not allocated");
        self.put_state(slot, state);
    }

    /// The one place a slot's state changes, keeping the count tables in
    /// step.
    fn put_state(&mut self, slot: u32, state: PageState) {
        let set = self.set_of_slot(slot);
        let old = std::mem::replace(&mut self.states[slot as usize], state);
        self.set_counts[set][old as usize] -= 1;
        self.set_counts[set][state as usize] += 1;
        self.counts[old as usize] -= 1;
        self.counts[state as usize] += 1;
    }

    /// Mark a slot most-recently-used.
    pub fn touch(&mut self, slot: u32) {
        let set = self.set_of_slot(slot);
        let local = self.local(slot);
        self.lru[set].touch(local);
    }

    /// Remove a slot's LBA mapping while keeping it occupied (LeavO turns
    /// the current copy into a retained *old version* this way; the new
    /// version is then inserted under the same LBA elsewhere). Returns the
    /// detached LBA.
    ///
    /// # Panics
    /// Panics if the slot is unmapped.
    pub fn detach(&mut self, slot: u32) -> u64 {
        let tag = self.tags[slot as usize];
        assert_ne!(tag, TAG_NONE, "slot {slot} has no mapping to detach");
        self.map.remove(&tag);
        self.tags[slot as usize] = TAG_NONE;
        tag
    }

    /// Release a slot back to *free* (removing mapping and recency).
    pub fn free_slot(&mut self, slot: u32) {
        let set = self.set_of_slot(slot);
        let local = self.local(slot);
        debug_assert_ne!(self.states[slot as usize], PageState::Free);
        let tag = self.tags[slot as usize];
        if tag != TAG_NONE {
            self.map.remove(&tag);
            self.tags[slot as usize] = TAG_NONE;
        }
        self.put_state(slot, PageState::Free);
        self.lru[set].remove(local);
    }

    /// Insert `lba` into its set with the given state, evicting the LRU
    /// page whose state satisfies `evictable` if the set is full.
    ///
    /// # Panics
    /// Panics if `lba` is already cached.
    pub fn insert(
        &mut self,
        lba: u64,
        state: PageState,
        evictable: impl Fn(PageState) -> bool,
    ) -> InsertOutcome {
        assert!(!self.map.contains_key(&lba), "lba {lba} already cached");
        let set = self.set_of_lba(lba);
        // Fast path: a free slot. If the free count and the scan ever
        // disagree (an accounting bug), fall through to eviction rather
        // than panicking mid-insert.
        if self.set_counts[set][PageState::Free as usize] > 0 {
            if let Some(slot) = self.find_free_in_set(set) {
                self.occupy(set, slot, lba, state);
                return InsertOutcome::Inserted { slot };
            }
            debug_assert!(false, "free count said so");
        }
        // Evict the LRU page with an evictable state.
        let victim_local = self.lru[set].iter_lru().find(|&l| {
            let s = self.states[self.global(set, l) as usize];
            evictable(s)
        });
        let Some(local) = victim_local else {
            return InsertOutcome::NoRoom;
        };
        let slot = self.global(set, local);
        let victim_lba = self.tags[slot as usize];
        let victim_state = self.states[slot as usize];
        self.free_slot(slot);
        self.occupy(set, slot, lba, state);
        InsertOutcome::Evicted { slot, victim_lba, victim_state }
    }

    /// Allocate an *unmapped* slot (a DEZ page) in the set that currently
    /// holds the fewest delta pages, if any set has a free slot.
    pub fn alloc_delta_slot(&mut self) -> Option<u32> {
        let set = (0..self.sets)
            .filter(|&s| self.set_counts[s][PageState::Free as usize] > 0)
            .min_by_key(|&s| self.set_counts[s][PageState::Delta as usize])?;
        // The filter above guarantees a free slot; if the accounting is
        // broken, report exhaustion instead of panicking.
        let slot = self.find_free_in_set(set)?;
        let local = self.local(slot);
        self.put_state(slot, PageState::Delta);
        self.lru[set].push_front(local);
        Some(slot)
    }

    /// Recovery-path insert: place `lba` at a *specific* slot (the slot
    /// recorded in the persistent metadata log). The slot must be free.
    ///
    /// # Panics
    /// Panics if the slot is occupied or the LBA already mapped.
    pub fn insert_at(&mut self, slot: u32, lba: u64, state: PageState) {
        assert_eq!(self.states[slot as usize], PageState::Free, "slot {slot} occupied");
        assert!(!self.map.contains_key(&lba), "lba {lba} already mapped");
        let set = self.set_of_slot(slot);
        self.occupy(set, slot, lba, state);
    }

    /// Recovery-path DEZ placement: mark a *specific* free slot as a delta
    /// page.
    ///
    /// # Panics
    /// Panics if the slot is occupied.
    pub fn occupy_delta_at(&mut self, slot: u32) {
        assert_eq!(self.states[slot as usize], PageState::Free, "slot {slot} occupied");
        let set = self.set_of_slot(slot);
        let local = self.local(slot);
        self.put_state(slot, PageState::Delta);
        self.lru[set].push_front(local);
    }

    fn find_free_in_set(&self, set: usize) -> Option<u32> {
        let base = set * self.geometry.ways as usize;
        (0..self.geometry.ways as usize)
            .map(|l| (base + l) as u32)
            .find(|&s| self.states[s as usize] == PageState::Free)
    }

    fn occupy(&mut self, set: usize, slot: u32, lba: u64, state: PageState) {
        debug_assert_eq!(self.states[slot as usize], PageState::Free);
        debug_assert_ne!(state, PageState::Free);
        self.tags[slot as usize] = lba;
        self.put_state(slot, state);
        self.map.insert(lba, slot);
        let local = self.local(slot);
        self.lru[set].push_front(local);
    }

    /// Count slots in a given state across the whole cache.
    pub fn count_state(&self, state: PageState) -> usize {
        self.counts[state as usize]
    }

    /// Iterate `(slot, lba, state)` over all occupied, mapped slots.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (u32, u64, PageState)> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|&(_i, &t)| t != TAG_NONE)
            .map(|(i, &t)| (i as u32, t, self.states[i]))
    }

    /// Free slots remaining (whole cache).
    pub fn free_slots(&self) -> u64 {
        self.count_state(PageState::Free) as u64
    }
}

/// A count table with every one of `n` slots free.
fn free_only<T: Copy + Default>(n: T) -> [T; STATES] {
    let mut counts = [T::default(); STATES];
    counts[PageState::Free as usize] = n;
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(pages: u64, ways: u32) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry { total_pages: pages, ways, page_size: 4096 }, 1)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = cache(64, 8);
        match c.insert(42, PageState::Clean, |_| true) {
            InsertOutcome::Inserted { slot } => {
                assert_eq!(c.lookup(42), Some(slot));
                assert_eq!(c.state(slot), PageState::Clean);
                assert_eq!(c.tag(slot), Some(42));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.count_state(PageState::Clean), 1);
    }

    #[test]
    fn lru_eviction_order_within_set() {
        let mut c = cache(4, 4); // one set of 4 ways
                                 // All lbas map to set 0.
        for lba in 0..4 {
            c.insert(lba, PageState::Clean, |_| true);
        }
        // Touch 0 so 1 becomes LRU.
        let s0 = c.lookup(0).unwrap();
        c.touch(s0);
        match c.insert(100, PageState::Clean, |s| s == PageState::Clean) {
            InsertOutcome::Evicted { victim_lba, .. } => assert_eq!(victim_lba, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.lookup(1), None);
        assert!(c.lookup(0).is_some());
    }

    #[test]
    fn non_evictable_states_are_skipped() {
        let mut c = cache(2, 2);
        c.insert(0, PageState::Old, |_| true);
        c.insert(1, PageState::Clean, |_| true);
        // Only Clean evictable: victim must be 1 even though 0 is LRU.
        match c.insert(2, PageState::Clean, |s| s == PageState::Clean) {
            InsertOutcome::Evicted { victim_lba, victim_state, .. } => {
                assert_eq!(victim_lba, 1);
                assert_eq!(victim_state, PageState::Clean);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Now the set holds Old + Clean(2); nothing evictable if only
        // OldVersion allowed.
        assert_eq!(
            c.insert(3, PageState::Clean, |s| s == PageState::OldVersion),
            InsertOutcome::NoRoom
        );
    }

    #[test]
    fn free_slot_recycles() {
        let mut c = cache(2, 2);
        c.insert(0, PageState::Clean, |_| true);
        let s = c.lookup(0).unwrap();
        c.free_slot(s);
        assert_eq!(c.lookup(0), None);
        assert_eq!(c.count_state(PageState::Free), 2);
        assert_eq!(c.free_slots(), 2);
        c.insert(5, PageState::Clean, |_| true);
        assert!(c.lookup(5).is_some());
    }

    #[test]
    fn delta_slots_spread_evenly() {
        let mut c = cache(64, 8); // 8 sets
        let mut per_set = vec![0u32; c.sets()];
        for _ in 0..32 {
            let slot = c.alloc_delta_slot().unwrap();
            per_set[c.set_of_slot(slot)] += 1;
        }
        let max = *per_set.iter().max().unwrap();
        let min = *per_set.iter().min().unwrap();
        assert!(max - min <= 1, "delta pages unbalanced: {per_set:?}");
        assert_eq!(c.count_state(PageState::Delta), 32);
    }

    #[test]
    fn delta_alloc_exhausts_gracefully() {
        let mut c = cache(4, 2);
        for _ in 0..4 {
            assert!(c.alloc_delta_slot().is_some());
        }
        assert!(c.alloc_delta_slot().is_none());
    }

    #[test]
    fn state_transitions_update_delta_counts() {
        let mut c = cache(8, 8);
        c.insert(1, PageState::Clean, |_| true);
        let s = c.lookup(1).unwrap();
        c.set_state(s, PageState::Old);
        assert_eq!(c.state(s), PageState::Old);
        assert_eq!(c.count_state(PageState::Old), 1);
        // Old → freed.
        c.free_slot(s);
        assert_eq!(c.count_state(PageState::Old), 0);
    }

    #[test]
    fn grouping_maps_rows_together() {
        let g = CacheGeometry { total_pages: 1024, ways: 16, page_size: 4096 };
        let c = SetAssocCache::new(g, 64); // 64-page stripes share a set
        for stripe in 0..8u64 {
            let base = stripe * 64;
            let set = c.set_of_lba(base);
            for off in 0..64 {
                assert_eq!(c.set_of_lba(base + off), set, "stripe {stripe} off {off}");
            }
        }
    }

    #[test]
    fn iter_mapped_reports_contents() {
        let mut c = cache(8, 8);
        c.insert(3, PageState::Clean, |_| true);
        c.insert(9, PageState::Old, |_| true);
        c.alloc_delta_slot(); // unmapped, must not appear
        let mut v: Vec<(u64, PageState)> = c.iter_mapped().map(|(_, l, s)| (l, s)).collect();
        v.sort();
        assert_eq!(v, vec![(3, PageState::Clean), (9, PageState::Old)]);
    }

    #[test]
    fn geometry_from_bytes() {
        let g = CacheGeometry::from_bytes(1 << 30, 4096);
        assert_eq!(g.total_pages, 262_144);
        assert_eq!(g.ways, 64);
        assert_eq!(g.sets(), 4096);
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut c = cache(8, 8);
        c.insert(1, PageState::Clean, |_| true);
        c.insert(1, PageState::Clean, |_| true);
    }
}
