//! KDD as a [`CachePolicy`]: the trace-driven accounting implementation
//! used by the simulation experiments (Figures 4–8).
//!
//! The full §III algorithm, state machine and all:
//!
//! * **DAZ/DEZ dynamic zoning** — data pages hash into cache sets
//!   (stripe-aligned); DEZ pages are allocated on demand from the set with
//!   the fewest delta pages, so the split adapts to the workload;
//! * **write hits** — the data goes to RAID *without* a parity update; the
//!   compressed delta (size drawn from the configured
//!   [`DeltaSizeModel`]) is staged in NVRAM, coalescing per page, and
//!   committed compactly into one DEZ page when the staging buffer fills;
//! * **metadata** — mapping changes feed the circular persistent log
//!   ([`MetaLog`]); write hits log nothing until their delta commits;
//! * **cleaning** — threshold-triggered: each stale row is repaired by
//!   reconstruct-write when every data page of the row is cached, else by
//!   read-modify-write on the stale parity, after which *old* pages are
//!   reclaimed and their deltas invalidated (the paper's "second scheme",
//!   §III-D);
//! * **eviction** — only *clean* pages are evictable; *old* and *delta*
//!   pages leave only through the cleaner.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::config::KddConfig;
use crate::dez::{DeltaLoc, DeltaRef, DeltaZone, DezLayout, Dropped};
use crate::metalog::{KeyEntry, MetaLog};
use crate::staging::StagingBuffer;
use kdd_cache::effects::{AccessOutcome, Effects};
use kdd_cache::nvbuf::ENTRY_BYTES;
use kdd_cache::policies::{CachePolicy, PendingRows, RaidModel};
use kdd_cache::setassoc::{InsertOutcome, PageState, SetAssocCache};
use kdd_cache::stats::CacheStats;
use kdd_delta::model::DeltaSizeModel;
use kdd_trace::record::Op;
use kdd_util::lru::GhostList;

/// Synthetic slot ids for statically-partitioned DEZ pages (kept above
/// any real directory slot).
const FIXED_DEZ_BASE: u32 = u32::MAX / 2;

/// The KDD cache-management policy (accounting mode).
///
/// # Examples
///
/// ```
/// use kdd_cache::policies::{CachePolicy, RaidModel};
/// use kdd_cache::setassoc::CacheGeometry;
/// use kdd_core::{KddConfig, KddPolicy};
/// use kdd_delta::model::FixedDeltaModel;
/// use kdd_trace::Op;
///
/// let geometry = CacheGeometry { total_pages: 128, ways: 16, page_size: 4096 };
/// let raid = RaidModel::paper_default(100_000);
/// let mut kdd = KddPolicy::new(
///     KddConfig::new(geometry),
///     raid,
///     Box::new(FixedDeltaModel::new(0.25)),
/// );
///
/// kdd.access(Op::Write, 7);                 // miss: conventional parity write
/// let hit = kdd.access(Op::Write, 7);       // hit: the KDD delta path
/// assert!(hit.hit);
/// assert_eq!(hit.foreground.raid_writes, 1, "data only — no parity I/O");
/// assert_eq!(hit.foreground.ssd_data_writes, 0, "delta staged in NVRAM");
/// kdd.flush();                              // cleaner repairs stale parity
/// ```
pub struct KddPolicy {
    cache: SetAssocCache,
    raid: RaidModel,
    model: Box<dyn DeltaSizeModel>,
    staging: StagingBuffer<u32>,
    metalog: MetaLog<KeyEntry>,
    pending: PendingRows,
    /// Delta locations (one exists iff the page is *old*) and DEZ pages
    /// (sizes only).
    dez: DeltaZone,
    stats: CacheStats,
    config: KddConfig,
    /// LARC-style ghost list (lazy admission extension).
    ghost: Option<GhostList>,
    /// Fixed-partition mode: remaining reserved DEZ slots and the next
    /// synthetic DEZ id (ids live above the directory's slot range).
    fixed_dez_free: u64,
    next_fixed_dez_id: u32,
}

impl KddPolicy {
    /// Build a KDD cache with the given delta-compressibility model.
    pub fn new(config: KddConfig, raid: RaidModel, model: Box<dyn DeltaSizeModel>) -> Self {
        let grouping = if config.stripe_aligned_sets {
            raid.set_grouping()
        } else {
            kdd_cache::setassoc::SetGrouping::Pages(1)
        };
        let epp = (config.geometry.page_size / ENTRY_BYTES).max(1) as usize;
        // Fixed DEZ partitioning shrinks the directory to the DAZ share
        // and puts the reserved slots in a simple pool.
        let mut geometry = config.geometry;
        let mut fixed_dez = 0u64;
        if let Some(f) = config.fixed_dez_fraction {
            assert!((0.0..1.0).contains(&f), "DEZ fraction must be in [0,1)");
            fixed_dez = (geometry.total_pages as f64 * f) as u64;
            geometry.total_pages = (geometry.total_pages - fixed_dez).max(1);
        }
        KddPolicy {
            cache: SetAssocCache::new_grouped(geometry, grouping),
            raid,
            model,
            staging: StagingBuffer::new(config.geometry.page_size),
            metalog: MetaLog::new(config.meta_partition_pages(), epp),
            pending: PendingRows::default(),
            dez: DeltaZone::new(DezLayout::COUNTING, config.geometry.page_size),
            stats: CacheStats::default(),
            config,
            ghost: config
                .lazy_admission
                .then(|| GhostList::new(config.geometry.total_pages as usize)),
            fixed_dez_free: fixed_dez,
            next_fixed_dez_id: FIXED_DEZ_BASE,
        }
    }

    /// Pages currently in the *old* state.
    pub fn old_pages(&self) -> u64 {
        self.cache.count_state(PageState::Old) as u64
    }

    /// DEZ pages currently allocated.
    pub fn delta_pages(&self) -> u64 {
        self.dez.len() as u64
    }

    /// Metadata-log snapshot (pages written, GC reclaims).
    pub fn metalog_pages_written(&self) -> u64 {
        self.metalog.pages_written()
    }

    // ---- metadata ---------------------------------------------------------

    fn log_alloc(&mut self, lba: u64, fx: &mut Effects) {
        fx.ssd_meta_writes +=
            self.metalog.push(KeyEntry { key: lba, tombstone: false }).len() as u32;
        if !self.config.nvram_batching {
            fx.ssd_meta_writes += self.metalog.flush().len() as u32;
        }
    }

    fn log_free(&mut self, lba: u64, fx: &mut Effects) {
        fx.ssd_meta_writes +=
            self.metalog.push(KeyEntry { key: lba, tombstone: true }).len() as u32;
        if !self.config.nvram_batching {
            fx.ssd_meta_writes += self.metalog.flush().len() as u32;
        }
    }

    // ---- delta plumbing ----------------------------------------------------

    /// Invalidate whatever delta `lba` currently has.
    fn invalidate_delta(&mut self, lba: u64) {
        match self.dez.invalidate(lba) {
            Dropped::Staged => {
                self.staging.remove(lba);
            }
            Dropped::Dez(Some(slot)) => self.free_dez_slot(slot),
            Dropped::Dez(None) | Dropped::Nothing => {}
        }
    }

    fn free_dez_slot(&mut self, slot: u32) {
        if slot >= FIXED_DEZ_BASE {
            self.fixed_dez_free += 1;
        } else {
            self.cache.free_slot(slot);
        }
    }

    /// Pack the staged deltas into one DEZ page and commit it. The commit
    /// also performs log-structured compaction: if the new page has slack
    /// and existing DEZ pages have decayed (rewrites invalidated most of
    /// their deltas), the emptiest pages' live deltas ride along and their
    /// slots are freed — keeping DEZ space utilisation high.
    fn commit_staging(&mut self, fx: &mut Effects) {
        if self.staging.is_empty() {
            return;
        }
        let slot = match self.alloc_dez_slot(fx) {
            Some(s) => s,
            None => {
                // Cache completely pinned even after cleaning — commit is
                // impossible; keep deltas staged (caller's insert will
                // still fit because cleaning drained the staging buffer).
                return;
            }
        };
        let drained = self.staging.drain();
        // The staging buffer holds one page of payload, so a drain always
        // packs into one page.
        let refs = self.dez.pack(slot, drained.iter().map(|&(lba, size)| (lba, size as usize)));
        debug_assert_eq!(refs.as_ref().map(Vec::len), Some(drained.len()));
        fx.ssd_delta_writes += 1;
        // Mapping entries for the affected old pages are logged only now
        // (§III-C): the (lba_dez, off, len) tuple is finally known.
        for (lba, r) in refs.into_iter().flatten() {
            self.dez.place(lba, r);
            self.log_alloc(lba, fx);
        }
    }

    /// Log-structured DEZ garbage collection: rewrites invalidate deltas
    /// in place, so page utilisation decays. Compaction is *pressure
    /// driven*: it only runs when pinned pages approach the cleaning
    /// trigger or a DEZ allocation fails — idle fragmentation is free,
    /// but under space pressure each merge (read two pages, rewrite one,
    /// free the other) buys back a cache slot.
    fn compact_dez(&mut self, fx: &mut Effects) {
        while let Some((dst, src)) = self.dez.merge_pick() {
            fx.ssd_reads += 2; // read both victims
            fx.ssd_delta_writes += 1; // rewrite the merged page
                                      // The source's deltas join the destination page in place.
            for lba in self.dez.take_page(src) {
                if let Some(DeltaLoc::Dez(r)) = self.dez.loc(lba) {
                    self.dez.place(lba, DeltaRef { slot: dst, ..r });
                }
            }
            // Every delta in the merged page moved (new offsets): their
            // mapping entries are re-logged.
            let moved: Vec<u64> = self.dez.members(dst).collect();
            for lba in moved {
                self.log_alloc(lba, fx);
            }
            self.free_dez_slot(src);
        }
    }

    fn alloc_dez_slot(&mut self, fx: &mut Effects) -> Option<u32> {
        if self.config.fixed_dez_fraction.is_some() {
            if self.fixed_dez_free == 0 {
                self.compact_dez(fx); // try to reclaim partition slots
            }
            if self.fixed_dez_free > 0 {
                self.fixed_dez_free -= 1;
                let id = self.next_fixed_dez_id;
                self.next_fixed_dez_id = self.next_fixed_dez_id.wrapping_add(1).max(FIXED_DEZ_BASE);
                return Some(id);
            }
            return None; // the static partition is full — that's the point
        }
        if let Some(slot) = self.cache.alloc_delta_slot() {
            return Some(slot);
        }
        self.compact_dez(fx);
        if let Some(slot) = self.cache.alloc_delta_slot() {
            return Some(slot);
        }
        // No free slot anywhere: evict a clean page to make room (clean
        // pages are always sacrificeable — the data is on RAID).
        let (slot, lba, _) = self.cache.iter_mapped().find(|&(_, _, s)| s == PageState::Clean)?;
        self.cache.free_slot(slot);
        self.stats.evictions += 1;
        self.log_free(lba, fx);
        self.cache.alloc_delta_slot()
    }

    // ---- cleaning -----------------------------------------------------------

    /// Repair every stale row and reclaim old/delta pages (§III-D).
    fn clean_all(&mut self) -> Effects {
        let mut fx = Effects::default();
        while let Some(row) = self.pending.oldest_row() {
            fx += self.clean_row(row);
        }
        self.stats.cleanings += 1;
        fx
    }

    /// Threshold cleaning: work oldest-stale-row first and stop just
    /// under the trigger. Reclaiming only the longest-stale rows keeps the
    /// victims cold (§III-D's premise) while recently-written hot pages
    /// keep their delta path.
    fn clean_some(&mut self) -> Effects {
        let mut fx = Effects::default();
        let low = self.config.clean_trigger_slots() * 7 / 8;
        while self.dez.pinned(&self.cache) > low {
            let Some(row) = self.pending.oldest_row() else { break };
            fx += self.clean_row(row);
        }
        self.stats.cleanings += 1;
        fx
    }

    /// Repair one stale row and reclaim its pages.
    fn clean_row(&mut self, row: u64) -> Effects {
        let mut fx = Effects::default();
        {
            let lpns = self.raid.row_lpns(row);
            // Reconstruct-write only when every data page of the row is in
            // SSD (clean or old+delta).
            let reconstruct = lpns.iter().all(|&l| self.cache.lookup(l).is_some());
            if reconstruct {
                // Read the row's pages from SSD to XOR (cheap, parallel).
                fx.ssd_reads += lpns.len() as u32;
                fx.ssd_read_rounds += 1;
            }
            fx += self.raid.parity_update_effects(reconstruct);
            self.stats.parity_updates += 1;
            for lba in self.pending.take_row(row) {
                // Decompress this page's delta (from NVRAM or DEZ).
                if let Some(DeltaLoc::Dez(_)) = self.dez.loc(lba) {
                    if !reconstruct {
                        fx.ssd_reads += 1;
                    }
                }
                fx.decompressions += 1;
                self.invalidate_delta(lba);
                if let Some(slot) = self.cache.lookup(lba) {
                    if self.cache.state(slot) != PageState::Old {
                        continue; // degraded to write-through meanwhile
                    }
                    if self.config.reclaim_as_clean {
                        // First scheme (§III-D): combine old + delta and
                        // rewrite as a clean page — extra SSD program per
                        // victim, future write hits keep the delta path.
                        self.cache.set_state(slot, PageState::Clean);
                        fx.ssd_data_writes += 1;
                        self.log_alloc(lba, &mut fx);
                    } else {
                        // Second scheme: "simply reclaims the old pages"
                        // — the paper's choice.
                        self.cache.free_slot(slot);
                        self.log_free(lba, &mut fx);
                    }
                }
            }
        }
        fx
    }

    /// Lazy-admission filter (LARC extension): a missed page is admitted
    /// only on its second miss within the ghost window. Always admits
    /// when the extension is off (the paper's configuration).
    fn admit(&mut self, lba: u64) -> bool {
        match &mut self.ghost {
            None => true,
            Some(g) => {
                if g.remove(lba) {
                    true // second miss: admit
                } else {
                    g.insert(lba);
                    false // first miss: remember only
                }
            }
        }
    }

    /// Fold I/O done outside any access (idle cleaning, flush) into the
    /// stats.
    fn account(&mut self, fx: &Effects) {
        self.stats.ssd_meta_writes += fx.ssd_meta_writes as u64;
        self.stats.ssd_data_writes += fx.ssd_data_writes as u64;
        self.stats.ssd_delta_writes += fx.ssd_delta_writes as u64;
        self.stats.ssd_reads += fx.ssd_reads as u64;
        self.stats.raid_reads += fx.raid_reads as u64;
        self.stats.raid_writes += fx.raid_writes as u64;
    }

    fn maybe_clean(&mut self, bg: &mut Effects) {
        let trigger = self.config.clean_trigger_slots();
        // Space pressure builds: first squeeze fragmentation out of the
        // DEZ (cheap, preserves the delta path), then clean rows.
        if self.dez.pinned(&self.cache) * 4 >= trigger * 3 {
            *bg += {
                let mut fx = Effects::default();
                self.compact_dez(&mut fx);
                fx
            };
        }
        if self.dez.pinned(&self.cache) >= trigger {
            *bg += self.clean_some();
        }
    }

    /// Insert a clean page with clean-only eviction. A fully-pinned set is
    /// unpinned one pending row at a time (oldest first) until the insert
    /// fits — minimal reclaim, so hot old pages keep their delta path.
    /// Returns false only when the set is pinned and holds no pending
    /// rows to clean (the fill is then bypassed).
    fn insert_clean_or_bypass(&mut self, lba: u64, fx: &mut Effects, bg: &mut Effects) -> bool {
        loop {
            match self.cache.insert(lba, PageState::Clean, |s| s == PageState::Clean) {
                InsertOutcome::Inserted { .. } => return true,
                InsertOutcome::Evicted { victim_lba, .. } => {
                    self.stats.evictions += 1;
                    self.log_free(victim_lba, fx);
                    return true;
                }
                InsertOutcome::NoRoom => {
                    let set = self.cache.set_of_lba(lba);
                    if !self.clean_one_row_in_set(set, bg) {
                        return false;
                    }
                }
            }
        }
    }

    /// Clean one pending row whose pages map to `set` (the first
    /// [`PendingRows::row_ids`] yields, in its hash-map order). Returns
    /// false when none exists.
    fn clean_one_row_in_set(&mut self, set: usize, bg: &mut Effects) -> bool {
        let row = self.pending.row_ids().into_iter().find(|&row| {
            self.raid.row_lpns(row).first().is_some_and(|&l| self.cache.set_of_lba(l) == set)
        });
        match row {
            Some(row) => {
                *bg += self.clean_row(row);
                self.stats.cleanings += 1;
                true
            }
            None => false,
        }
    }
}

impl CachePolicy for KddPolicy {
    fn name(&self) -> String {
        format!("KDD-{}%", (self.model.mean_ratio() * 100.0).round() as u32)
    }

    fn access(&mut self, op: Op, lba: u64) -> AccessOutcome {
        let mut fx = Effects::default();
        let mut bg = Effects::default();
        let page_size = self.config.geometry.page_size;
        let hit = match (op, self.cache.lookup(lba)) {
            (Op::Read, Some(slot)) => {
                self.cache.touch(slot);
                match self.cache.state(slot) {
                    PageState::Old => {
                        // Combine old data + latest delta. Data and delta
                        // are fetched concurrently over distinct channels.
                        match self.dez.loc(lba) {
                            Some(DeltaLoc::Dez(_)) => {
                                fx.ssd_reads += 2;
                                fx.ssd_read_rounds += 1;
                            }
                            _ => {
                                // Delta still in NVRAM: one flash read.
                                fx.ssd_reads += 1;
                                fx.ssd_read_rounds += 1;
                            }
                        }
                        fx.decompressions += 1;
                    }
                    _ => fx += Effects::ssd_read(),
                }
                true
            }
            (Op::Read, None) => {
                fx += self.raid.read_effects();
                if self.admit(lba) && self.insert_clean_or_bypass(lba, &mut fx, &mut bg) {
                    fx.ssd_data_writes += 1;
                    self.log_alloc(lba, &mut fx);
                }
                false
            }
            (Op::Write, Some(slot)) => {
                // THE KDD WRITE HIT: data to RAID without parity update;
                // compressed delta staged in NVRAM.
                self.cache.touch(slot);
                if self.cache.state(slot) == PageState::Clean {
                    self.cache.set_state(slot, PageState::Old);
                }
                let size = self.model.delta_size(page_size);
                fx.compressions += 1;
                self.invalidate_delta(lba);
                if !self.staging.fits(lba, &size) {
                    self.commit_staging(&mut fx);
                }
                if self.staging.fits(lba, &size) {
                    self.staging.insert(lba, size);
                    self.dez.stage(lba);
                    fx += self.raid.data_write_effects();
                    self.pending.add(self.raid.row_of(lba), lba);
                } else {
                    // Could not commit (cache fully pinned even after
                    // cleaning): degrade this request to write-through —
                    // full parity write, refresh the cached copy, no
                    // pending delta.
                    if let Some(slot) = self.cache.lookup(lba) {
                        self.cache.set_state(slot, PageState::Clean);
                    }
                    self.pending.remove(self.raid.row_of(lba), lba);
                    fx.ssd_data_writes += 1;
                    fx += self.raid.small_write_effects();
                }
                self.maybe_clean(&mut bg);
                true
            }
            (Op::Write, None) => {
                // Conventional write miss: cache in DAZ, parity updated
                // the normal way (§III-A).
                if self.admit(lba) && self.insert_clean_or_bypass(lba, &mut fx, &mut bg) {
                    fx.ssd_data_writes += 1;
                    self.log_alloc(lba, &mut fx);
                }
                fx += self.raid.small_write_effects();
                false
            }
        };
        let mut outcome = AccessOutcome::new(hit, fx);
        outcome.background = bg;
        self.stats.record(op == Op::Read, &outcome);
        outcome
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn idle_tick(&mut self) -> Effects {
        // A bounded batch of oldest-stale rows per idle period: repeated
        // idleness drains the backlog without a latency cliff when load
        // resumes.
        let mut fx = Effects::default();
        for _ in 0..16 {
            let Some(row) = self.pending.oldest_row() else { break };
            fx += self.clean_row(row);
        }
        if self.pending.pending_rows() == 0 {
            self.commit_staging(&mut fx);
        }
        self.stats.cleanings += 1;
        self.account(&fx);
        fx
    }

    fn flush(&mut self) -> Effects {
        let mut fx = self.clean_all();
        // Anything still staged gets committed, then the metadata buffer
        // itself is flushed.
        self.commit_staging(&mut fx);
        fx.ssd_meta_writes += self.metalog.flush().len() as u32;
        self.account(&fx);
        fx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdd_cache::setassoc::CacheGeometry;
    use kdd_delta::model::{FixedDeltaModel, GaussianDeltaModel};

    fn kdd(pages: u64, ratio: f64) -> KddPolicy {
        let g = CacheGeometry { total_pages: pages, ways: 8.min(pages as u32), page_size: 4096 };
        KddPolicy::new(
            KddConfig::new(g),
            RaidModel::paper_default(100_000),
            Box::new(FixedDeltaModel::new(ratio)),
        )
    }

    #[test]
    fn write_hit_skips_parity_and_ssd_data_write() {
        let mut p = kdd(64, 0.25);
        p.access(Op::Write, 5); // miss: conventional
        let w = p.access(Op::Write, 5); // hit: the KDD path
        assert!(w.hit);
        assert_eq!(w.foreground.raid_writes, 1, "data only");
        assert_eq!(w.foreground.raid_reads, 0, "no parity read");
        assert_eq!(w.foreground.ssd_data_writes, 0, "no page program on write hit");
        assert_eq!(w.foreground.compressions, 1);
        assert_eq!(p.old_pages(), 1);
    }

    #[test]
    fn staging_commits_one_dez_page_per_fill() {
        let mut p = kdd(256, 0.25); // 1024-byte deltas, 4 per page
                                    // Warm 8 pages then rewrite them: 8 deltas = 2 DEZ commits.
        for lba in 0..8 {
            p.access(Op::Write, lba);
        }
        let mut delta_writes = 0;
        for lba in 0..8 {
            let w = p.access(Op::Write, lba);
            delta_writes += w.total().ssd_delta_writes;
        }
        // Four 1 KiB deltas fill the 4 KiB staging buffer exactly; the
        // fifth insert forces the one commit, the remaining four stay
        // staged in NVRAM.
        assert_eq!(delta_writes, 1, "one packed DEZ commit");
        assert_eq!(p.delta_pages(), 1);
        assert_eq!(p.staging.len(), 4, "rest still staged");
    }

    #[test]
    fn delta_coalescing_keeps_newest_only() {
        let mut p = kdd(256, 0.12);
        p.access(Op::Write, 7);
        for _ in 0..50 {
            p.access(Op::Write, 7);
        }
        // 12% deltas: 8 fit a page, but coalescing means the staging
        // buffer never fills from one hot page.
        assert_eq!(p.delta_pages(), 0, "coalesced rewrites must not commit");
        assert_eq!(p.old_pages(), 1);
    }

    #[test]
    fn read_hit_on_old_reads_data_plus_delta() {
        let mut p = kdd(256, 0.5); // big deltas: 2 per page
        p.access(Op::Write, 1);
        p.access(Op::Write, 2);
        p.access(Op::Write, 1); // delta staged
        let r = p.access(Op::Read, 1);
        assert!(r.hit);
        assert_eq!(r.foreground.ssd_reads, 1, "delta still in NVRAM");
        assert_eq!(r.foreground.decompressions, 1);
        // Push the delta into DEZ, then read again.
        p.access(Op::Write, 2);
        p.access(Op::Write, 3);
        p.access(Op::Write, 3); // hit → stages; buffer (2×2048) overflows → commit
        let r2 = p.access(Op::Read, 1);
        assert_eq!(r2.foreground.ssd_reads, 2, "data + DEZ delta");
        assert_eq!(r2.foreground.ssd_read_rounds, 1, "fetched in parallel");
    }

    #[test]
    fn cleaning_reclaims_old_and_delta_pages() {
        // One 64-way set so every page is cacheable; explicit threshold
        // of 30% = 19 slots so the hot set crosses it.
        let g = CacheGeometry { total_pages: 64, ways: 64, page_size: 4096 };
        let mut cfg = KddConfig::new(g);
        cfg.clean_threshold = 0.30;
        let mut p = KddPolicy::new(
            cfg,
            RaidModel::paper_default(100_000),
            Box::new(FixedDeltaModel::new(0.25)),
        );
        for lba in 0..32u64 {
            p.access(Op::Write, lba);
        }
        for lba in 0..32u64 {
            p.access(Op::Write, lba); // hits: old pages + deltas accumulate
        }
        assert!(p.stats().cleanings > 0, "threshold cleaning never fired");
        assert!(p.old_pages() + p.delta_pages() <= 20, "cleaner must bound pinned pages");
        assert!(p.stats().parity_updates > 0);
    }

    #[test]
    fn flush_drains_everything() {
        let mut p = kdd(256, 0.25);
        for lba in 0..16 {
            p.access(Op::Write, lba);
            p.access(Op::Write, lba);
        }
        p.flush();
        assert_eq!(p.old_pages(), 0);
        assert_eq!(p.delta_pages(), 0);
        assert!(p.staging.is_empty());
    }

    #[test]
    fn metadata_fraction_is_small() {
        let g = CacheGeometry { total_pages: 4096, ways: 64, page_size: 4096 };
        let mut p = KddPolicy::new(
            KddConfig::new(g),
            RaidModel::paper_default(1_000_000),
            Box::new(GaussianDeltaModel::new(0.25, 1)),
        );
        let mut rng_state = 12345u64;
        for i in 0..60_000u64 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lba = (rng_state >> 33) % 8192;
            let op = if i % 3 == 0 { Op::Read } else { Op::Write };
            p.access(op, lba);
        }
        p.flush();
        let frac = p.stats().metadata_fraction();
        assert!(frac < 0.05, "metadata fraction too high: {frac}");
        assert!(p.metalog_pages_written() > 0);
    }

    #[test]
    fn traffic_scales_with_content_locality() {
        // KDD-12% must write less to the SSD than KDD-50% on the same
        // workload — the Figure 6 ordering.
        let run = |ratio: f64| {
            let mut p = kdd(512, ratio);
            let mut x = 9u64;
            for _ in 0..40_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lba = (x >> 40) % 1024;
                p.access(Op::Write, lba);
            }
            p.flush();
            p.stats().ssd_writes_pages()
        };
        let t12 = run(0.12);
        let t25 = run(0.25);
        let t50 = run(0.50);
        assert!(t12 < t25, "KDD-12 {t12} !< KDD-25 {t25}");
        assert!(t25 < t50, "KDD-25 {t25} !< KDD-50 {t50}");
    }

    #[test]
    fn beats_write_through_on_write_hits() {
        use kdd_cache::policies::WriteThrough;
        let g = CacheGeometry { total_pages: 512, ways: 8, page_size: 4096 };
        let raid = RaidModel::paper_default(100_000);
        let mut kddp =
            KddPolicy::new(KddConfig::new(g), raid, Box::new(FixedDeltaModel::new(0.25)));
        let mut wt = WriteThrough::new(g, raid);
        let mut x = 77u64;
        for _ in 0..30_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lba = (x >> 40) % 600;
            kddp.access(Op::Write, lba);
            wt.access(Op::Write, lba);
        }
        kddp.flush();
        wt.flush();
        let k = kddp.stats().ssd_writes_pages();
        let w = wt.stats().ssd_writes_pages();
        assert!(k < w, "KDD {k} must write less than WT {w}");
        // And hit ratio is close to (slightly below) WT's.
        assert!(kddp.stats().hit_ratio() <= wt.stats().hit_ratio() + 0.02);
        assert!(kddp.stats().hit_ratio() > wt.stats().hit_ratio() - 0.25);
    }

    #[test]
    fn lazy_admission_filters_one_hit_wonders() {
        let g = CacheGeometry { total_pages: 256, ways: 64, page_size: 4096 };
        let raid = RaidModel::paper_default(1_000_000);
        let mut cfg = KddConfig::new(g);
        cfg.lazy_admission = true;
        let mut lazy = KddPolicy::new(cfg, raid, Box::new(FixedDeltaModel::new(0.25)));
        let mut eager = kdd(256, 0.25);
        // A scan of one-hit wonders plus a small hot set accessed twice.
        for i in 0..4000u64 {
            let scan = 1000 + i; // never repeats
            lazy.access(Op::Read, scan);
            eager.access(Op::Read, scan);
            let hot = i % 16;
            lazy.access(Op::Write, hot);
            eager.access(Op::Write, hot);
        }
        lazy.flush();
        eager.flush();
        // The scan never pollutes the lazy cache: far fewer fill writes.
        assert!(
            lazy.stats().ssd_data_writes * 2 < eager.stats().ssd_data_writes,
            "lazy {} vs eager {}",
            lazy.stats().ssd_data_writes,
            eager.stats().ssd_data_writes
        );
        // And the hot set still hits.
        assert!(lazy.stats().write_hits > 3000, "hot set lost: {}", lazy.stats().write_hits);
    }

    #[test]
    fn idle_tick_drains_pending_in_batches() {
        let g = CacheGeometry { total_pages: 256, ways: 64, page_size: 4096 };
        let mut p = KddPolicy::new(
            KddConfig::new(g),
            RaidModel::paper_default(1_000_000),
            Box::new(FixedDeltaModel::new(0.12)),
        );
        // Spread writes over many rows so pending_rows >> one idle batch.
        for i in 0..120u64 {
            let lba = i * 64; // distinct stripes → distinct rows
            p.access(Op::Write, lba);
            p.access(Op::Write, lba);
        }
        let before = p.pending.pending_rows();
        assert!(before > 32, "need a backlog, got {before}");
        let fx = p.idle_tick();
        let after = p.pending.pending_rows();
        assert_eq!(before - after, 16, "one bounded batch per idle period");
        assert!(fx.raid_writes >= 16, "parity repaired for the batch");
        // Enough idle periods drain everything.
        for _ in 0..20 {
            p.idle_tick();
        }
        assert_eq!(p.pending.pending_rows(), 0);
        assert_eq!(p.old_pages(), 0);
    }

    #[test]
    fn name_reflects_locality_level() {
        assert_eq!(kdd(64, 0.12).name(), "KDD-12%");
        assert_eq!(kdd(64, 0.25).name(), "KDD-25%");
        assert_eq!(kdd(64, 0.5).name(), "KDD-50%");
    }
}
