//! The Delta Zone (DEZ, §III-B/C): a staging drain packs compressed
//! deltas into log-structured DEZ pages; rewrites invalidate deltas in
//! place, and under space pressure the two emptiest pages merge.
//! [`DeltaZone`] is the one home of that bookkeeping for both
//! [`crate::policy::KddPolicy`] and [`crate::engine::KddEngine`]: it
//! decides, and its owner does the I/O, frees slots and logs mappings.

// Narrowing casts here are bounded by construction: offsets and lengths
// stay below the page size, which `DeltaZone::new` caps at `u16::MAX`.
#![allow(clippy::cast_possible_truncation)]

use kdd_cache::setassoc::{PageState, SetAssocCache};
use kdd_util::hash::{FastMap, FastSet};

/// Where a committed delta lives inside the DEZ: Figure 3's
/// `(lba_dez, off, len)` tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRef {
    /// DEZ cache slot.
    pub slot: u32,
    /// Byte offset within the DEZ page.
    pub off: u16,
    /// Compressed length in bytes.
    pub len: u16,
}

/// Where a page's current delta lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaLoc {
    /// Still in the NVRAM staging buffer.
    Staged,
    /// Packed into a DEZ page.
    Dez(DeltaRef),
}

/// What [`DeltaZone::invalidate`] dropped: no delta, a staged one (the
/// owner removes it from staging), or a DEZ one together with the slot of
/// the page it emptied, if any (the owner releases that slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dropped {
    Nothing,
    Staged,
    Dez(Option<u32>),
}

/// Byte layout of a DEZ page: `header` bytes, then an `entry`-byte
/// directory record per delta, then the payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DezLayout {
    pub header: usize,
    pub entry: usize,
}

impl DezLayout {
    /// The counting model: payload sizes only.
    pub const COUNTING: DezLayout = DezLayout { header: 0, entry: 0 };
    /// The engine's on-flash page: `[count: u16]`, then one
    /// `(lba: u64, off: u16, len: u16)` record per delta.
    pub const DIRECTORY: DezLayout = DezLayout { header: 2, entry: 12 };

    /// Bytes a page holding `n` deltas of `payload` total bytes occupies.
    pub fn footprint(&self, n: usize, payload: usize) -> usize {
        self.header + n * self.entry + payload
    }
}

/// One DEZ page: the pages whose live delta it holds, and their bytes.
#[derive(Debug, Clone, Default)]
struct Page {
    members: FastSet<u64>,
    live: u32,
}

/// The Delta Zone's bookkeeping: the lba → delta-location index and the
/// DEZ pages with their live members.
///
/// The page table is a [`FastMap`] whose iteration order breaks ties in
/// [`DeltaZone::merge_pick`], so the order of page inserts and removals
/// is part of the observable behaviour.
#[derive(Debug, Clone)]
pub struct DeltaZone {
    layout: DezLayout,
    page_size: usize,
    index: FastMap<u64, DeltaLoc>,
    pages: FastMap<u32, Page>,
    /// Live delta bytes across all pages.
    live: u64,
}

impl DeltaZone {
    /// An empty zone of `page_size`-byte pages with the given layout.
    /// Panics if `page_size` overflows a [`DeltaRef`]'s `u16` offsets.
    pub fn new(layout: DezLayout, page_size: u32) -> Self {
        assert!(page_size <= u32::from(u16::MAX), "DEZ offsets are u16: page too large");
        DeltaZone {
            layout,
            page_size: page_size as usize,
            index: FastMap::default(),
            pages: FastMap::default(),
            live: 0,
        }
    }

    /// DEZ pages currently allocated.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Cache slots pinned by delayed parity, tested against the cleaning
    /// trigger: *old* pages plus DEZ pages, counted from the zone because
    /// the fixed-partition ablation keeps its DEZ pages out of the directory.
    pub fn pinned(&self, cache: &SetAssocCache) -> u64 {
        (cache.count_state(PageState::Old) + self.pages.len()) as u64
    }

    /// Where `lba`'s current delta lives.
    pub fn loc(&self, lba: u64) -> Option<DeltaLoc> {
        self.index.get(&lba).copied()
    }

    /// Slots of the allocated DEZ pages, in page-table order.
    pub fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.pages.keys().copied()
    }

    /// Pages whose live delta sits in the DEZ page at `slot`.
    pub fn members(&self, slot: u32) -> impl Iterator<Item = u64> + '_ {
        self.pages.get(&slot).into_iter().flat_map(|p| p.members.iter().copied())
    }

    /// Forget everything (the cache was lost), keeping the tables'
    /// allocations and with them their future iteration order.
    pub fn clear(&mut self) {
        self.index.clear();
        self.pages.clear();
        self.live = 0;
    }

    /// Record that `lba`'s delta is now staged, dropping its DEZ copy if
    /// it had one. Returns the slot of a DEZ page this emptied.
    pub fn stage(&mut self, lba: u64) -> Option<u32> {
        match self.index.insert(lba, DeltaLoc::Staged) {
            Some(DeltaLoc::Dez(r)) => self.release(lba, r),
            _ => None,
        }
    }

    /// Drop `lba`'s delta wherever it lives.
    pub fn invalidate(&mut self, lba: u64) -> Dropped {
        match self.index.remove(&lba) {
            None => Dropped::Nothing,
            Some(DeltaLoc::Staged) => Dropped::Staged,
            Some(DeltaLoc::Dez(r)) => Dropped::Dez(self.release(lba, r)),
        }
    }

    /// "The DEZ page cannot be freed until the valid count reaches zero"
    /// — and then it is.
    fn release(&mut self, lba: u64, r: DeltaRef) -> Option<u32> {
        // A missing page or member is a bookkeeping bug; the index entry
        // is already gone, so skip rather than panic mid-write.
        let Some(page) = self.pages.get_mut(&r.slot) else {
            debug_assert!(false, "DEZ page of a live delta is missing");
            return None;
        };
        if !page.members.remove(&lba) {
            debug_assert!(false, "DEZ member index broken");
            return None;
        }
        page.live -= u32::from(r.len);
        self.live -= u64::from(r.len);
        if !page.members.is_empty() {
            return None;
        }
        self.pages.remove(&r.slot);
        Some(r.slot)
    }

    /// Record that `lba`'s delta now lives at `r`, creating the page on
    /// its first delta. Any page `lba` belonged to before must already
    /// have been released, taken or cleared.
    pub fn place(&mut self, lba: u64, r: DeltaRef) {
        let prev = self.index.insert(lba, DeltaLoc::Dez(r));
        debug_assert!(
            !matches!(prev, Some(DeltaLoc::Dez(p))
                if self.pages.get(&p.slot).is_some_and(|pg| pg.members.contains(&lba))),
            "lba {lba} is still a member of another DEZ page"
        );
        let page = self.pages.entry(r.slot).or_default();
        page.members.insert(lba);
        page.live += u32::from(r.len);
        self.live += u64::from(r.len);
    }

    /// Remove the page at `slot` from the zone and return its members.
    /// Their index entries still point at the page until re-placed.
    pub fn take_page(&mut self, slot: u32) -> FastSet<u64> {
        let page = self.pages.remove(&slot).unwrap_or_default();
        self.live -= u64::from(page.live);
        page.members
    }

    /// Empty the page at `slot` in place (it keeps its page-table
    /// position) so a merge can re-place its members.
    pub fn clear_page(&mut self, slot: u32) {
        if let Some(page) = self.pages.get_mut(&slot) {
            self.live -= u64::from(page.live);
            *page = Page::default();
        }
    }

    /// The compaction pick: while at least four pages exist and their
    /// live bytes fill under 85 % of them, the two emptiest pages as
    /// `(dst, src)` (ties to the first in page-table order), provided
    /// both pages' deltas fit one page.
    pub fn merge_pick(&self) -> Option<(u32, u32)> {
        let n = self.pages.len() as u64;
        if n < 4 || self.live * 100 >= n * self.page_size as u64 * 85 {
            return None;
        }
        let mut first: Option<(u32, &Page)> = None;
        let mut second: Option<(u32, &Page)> = None;
        for (&slot, page) in &self.pages {
            if first.is_none_or(|(_, f)| page.live < f.live) {
                second = first;
                first = Some((slot, page));
            } else if second.is_none_or(|(_, s)| page.live < s.live) {
                second = Some((slot, page));
            }
        }
        let ((dst, d), (src, s)) = (first?, second?);
        let merged =
            self.layout.footprint(d.members.len() + s.members.len(), (d.live + s.live) as usize);
        (merged <= self.page_size).then_some((dst, src))
    }

    /// Greedy page packing: lay out the leading `deltas` (`(lba, len)`,
    /// in order) that fit one page at `slot`, directory first, payloads
    /// after it. `None` when not even the first delta fits.
    pub fn pack(
        &self,
        slot: u32,
        deltas: impl IntoIterator<Item = (u64, usize)>,
    ) -> Option<Vec<(u64, DeltaRef)>> {
        let mut used = self.layout.header;
        let taken: Vec<(u64, usize)> = deltas
            .into_iter()
            .take_while(|&(_, len)| {
                used += self.layout.entry + len;
                used <= self.page_size
            })
            .collect();
        let mut end = self.layout.footprint(taken.len(), 0);
        let refs: Vec<(u64, DeltaRef)> = taken
            .into_iter()
            .map(|(lba, len)| {
                end += len;
                (lba, DeltaRef { slot, off: (end - len) as u16, len: len as u16 })
            })
            .collect();
        (!refs.is_empty()).then_some(refs)
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)] // test-only lookups of known entries
mod tests {
    use super::*;
    use kdd_util::rng::seeded_rng;
    use rand::RngExt;

    const PS: u32 = 4096;

    fn recomputed_live(z: &DeltaZone) -> u64 {
        z.slots()
            .flat_map(|s| z.members(s).map(move |lba| (s, lba)))
            .map(|(s, lba)| match z.loc(lba) {
                Some(DeltaLoc::Dez(r)) if r.slot == s => u64::from(r.len),
                _ => panic!("member {lba} of page {s} is not indexed there"),
            })
            .sum()
    }

    fn page_live(z: &DeltaZone, slot: u32) -> u32 {
        z.pages[&slot].live
    }

    #[test]
    fn tracked_live_bytes_match_a_recount_under_random_ops() {
        let mut rng = seeded_rng(7);
        for layout in [DezLayout::COUNTING, DezLayout::DIRECTORY] {
            let mut z = DeltaZone::new(layout, PS);
            let mut next_slot = 0u32;
            for step in 0..4000 {
                match rng.random_range(0..10u32) {
                    // A staging drain: pack up to a page of fresh deltas.
                    0..=2 => {
                        let lens: Vec<(u64, usize)> = (0..rng.random_range(1..8usize))
                            .map(|_| (rng.random_range(0..300u64), rng.random_range(1..900usize)))
                            .collect();
                        for &(lba, _) in &lens {
                            z.invalidate(lba);
                        }
                        let mut seen = FastSet::default();
                        let lens: Vec<_> =
                            lens.into_iter().filter(|(l, _)| seen.insert(*l)).collect();
                        let refs = z.pack(next_slot, lens).expect("first delta fits");
                        for (lba, r) in refs {
                            z.place(lba, r);
                        }
                        next_slot += 1;
                    }
                    // A rewrite: the delta goes back to staging.
                    3..=5 => {
                        z.stage(rng.random_range(0..300u64));
                    }
                    // Cleaning: the delta goes away.
                    6..=7 => {
                        z.invalidate(rng.random_range(0..300u64));
                    }
                    // A merge, composed as the counting model does it.
                    _ => {
                        if let Some((dst, src)) = z.merge_pick() {
                            for lba in z.take_page(src) {
                                let Some(DeltaLoc::Dez(r)) = z.loc(lba) else { panic!() };
                                z.place(lba, DeltaRef { slot: dst, ..r });
                            }
                        }
                    }
                }
                assert_eq!(z.live, recomputed_live(&z), "step {step}");
                for s in z.slots() {
                    let sum: u32 = z
                        .members(s)
                        .map(|l| match z.loc(l) {
                            Some(DeltaLoc::Dez(r)) => u32::from(r.len),
                            _ => 0,
                        })
                        .sum();
                    assert_eq!(page_live(&z, s), sum, "step {step} page {s}");
                    assert!(z.members(s).next().is_some(), "empty page {s} kept");
                }
            }
        }
    }

    /// The pick the compactor made before this module existed: a stable
    /// sort of the page table by live bytes.
    fn sorted_pick(z: &DeltaZone) -> (u32, u32) {
        let mut pages: Vec<(u32, u32)> = z.pages.iter().map(|(&s, p)| (s, p.live)).collect();
        pages.sort_by_key(|&(_, b)| b);
        (pages[0].0, pages[1].0)
    }

    #[test]
    fn two_minimum_pick_equals_the_stable_sort_ties_included() {
        let mut rng = seeded_rng(11);
        for trial in 0..300 {
            let mut z = DeltaZone::new(DezLayout::COUNTING, PS);
            let pages = rng.random_range(4..40u32);
            let mut lba = 0u64;
            for slot in 0..pages {
                // Few distinct sizes, so ties are common.
                for _ in 0..rng.random_range(1..3u32) {
                    let len = 100 * rng.random_range(1..4u16);
                    z.place(lba, DeltaRef { slot: slot * 7 % 97, off: 0, len });
                    lba += 1;
                }
            }
            if let Some(pick) = z.merge_pick() {
                assert_eq!(pick, sorted_pick(&z), "trial {trial}");
            } else {
                assert!(z.len() < 4 || z.live * 100 >= z.len() as u64 * 4096 * 85);
            }
        }
    }

    #[test]
    fn merge_pick_respects_utilisation_and_fit() {
        let mut z = DeltaZone::new(DezLayout::DIRECTORY, 512);
        for slot in 0..3 {
            z.place(slot as u64, DeltaRef { slot, off: 14, len: 10 });
        }
        assert_eq!(z.merge_pick(), None, "fewer than four pages never merge");
        z.place(3, DeltaRef { slot: 3, off: 14, len: 10 });
        assert!(z.merge_pick().is_some());
        // Two emptiest pages whose directory + payloads overflow a page.
        let mut z = DeltaZone::new(DezLayout::DIRECTORY, 512);
        for slot in 0..4u32 {
            z.place(u64::from(slot), DeltaRef { slot, off: 14, len: 250 });
        }
        assert_eq!(z.merge_pick(), None, "2 + 2*12 + 500 > 512");
        // Full pages are not worth compacting.
        let mut z = DeltaZone::new(DezLayout::COUNTING, 512);
        for slot in 0..4u32 {
            z.place(u64::from(slot), DeltaRef { slot, off: 0, len: 450 });
        }
        assert_eq!(z.merge_pick(), None, "88 % utilisation");
    }

    #[test]
    fn counting_layout_packs_a_staging_drain_into_one_page() {
        let z = DeltaZone::new(DezLayout::COUNTING, PS);
        // A full staging buffer: one page of payload, exactly.
        let drain: Vec<(u64, usize)> = (0..4).map(|l| (l, 1024)).collect();
        let refs = z.pack(9, drain).unwrap();
        assert_eq!(refs.len(), 4);
        assert_eq!(refs.last().unwrap().1, DeltaRef { slot: 9, off: 3072, len: 1024 });
    }

    #[test]
    fn directory_layout_spills_like_the_engine_commit() {
        let z = DeltaZone::new(DezLayout::DIRECTORY, 512);
        // 512 B of staged payload: the 12 B records push the last delta
        // into a second page.
        let drain: Vec<(u64, usize)> = (0..4).map(|l| (l, 128)).collect();
        let refs = z.pack(5, drain.clone()).unwrap();
        assert_eq!(refs.len(), 3, "2 + 3*(12+128) = 422 fits, a fourth does not");
        assert_eq!(refs[0].1, DeltaRef { slot: 5, off: 2 + 3 * 12, len: 128 });
        assert_eq!(refs[2].1.off, 2 + 3 * 12 + 256);
        let rest = z.pack(6, drain[3..].iter().copied()).unwrap();
        assert_eq!(rest, vec![(3, DeltaRef { slot: 6, off: 14, len: 128 })]);
        // A delta that cannot fit even alone is refused, not packed.
        assert!(z.pack(7, [(1, 499)]).is_none());
        assert!(z.pack(7, [(1, 498)]).is_some());
    }

    #[test]
    fn invalidating_the_last_member_frees_the_page() {
        let mut z = DeltaZone::new(DezLayout::DIRECTORY, PS);
        z.place(1, DeltaRef { slot: 4, off: 26, len: 10 });
        z.place(2, DeltaRef { slot: 4, off: 36, len: 20 });
        assert_eq!(z.invalidate(1), Dropped::Dez(None));
        assert_eq!(z.stage(2), Some(4));
        assert_eq!(z.len(), 0);
        assert_eq!(z.live, 0);
        assert_eq!(z.invalidate(2), Dropped::Staged);
        assert_eq!(z.invalidate(2), Dropped::Nothing);
    }
}
