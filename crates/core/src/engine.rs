//! The prototype-style KDD engine: real bytes, real devices, real
//! recovery.
//!
//! Where [`crate::policy::KddPolicy`] *counts* I/O for the trace
//! simulations, `KddEngine` *performs* it, playing the role of the
//! paper's kernel prototype (Linux MD + EnhanceIO, §IV-B1):
//!
//! * data lives on a [`RaidArray`] of in-memory member disks;
//! * the cache lives on an [`SsdDevice`] with a page-mapped FTL, so every
//!   write ages real wear counters;
//! * write hits compute a genuine XOR delta against the cached page,
//!   compress it with [`kdd_delta::codec`], stage it in NVRAM and pack it
//!   into DEZ pages behind an `(lba, off, len)` directory;
//! * the metadata log serialises real entries into the metadata partition
//!   at the front of the SSD (Figure 2's layout), and power-failure
//!   recovery *re-reads those pages from flash* to rebuild the primary
//!   map (§III-E1);
//! * SSD failure recovers by RAID resync; HDD failure by
//!   parity-update-then-rebuild (§III-E2).
//!
//! Operations return the simulated device time they consumed (flash times
//! from the FTL model; member-disk operations charged a flat 8 ms random
//! access — the engine measures correctness and relative cost, the
//! discrete-event simulator in `kdd-sim` owns precise timing).

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::config::KddConfig;
pub use crate::dez::DeltaRef;
use crate::dez::{DeltaLoc, DeltaZone, DezLayout, Dropped};
use crate::metalog::{CommitBatch, LogEntry, MetaLog};
use crate::staging::StagingBuffer;
use kdd_blockdev::error::{DevError, FaultDomain};
use kdd_blockdev::fault::FaultInjector;
use kdd_blockdev::nvram::Nvram;
use kdd_blockdev::ssd::SsdDevice;
use kdd_cache::policies::PendingRows;
use kdd_cache::setassoc::{InsertOutcome, PageState, SetAssocCache, SetGrouping};
use kdd_cache::stats::CacheStats;
use kdd_delta::codec;
use kdd_delta::xor::xor_into;
use kdd_obs::{Completion, HitClass, Recorder, ReqKind, Sample, Stage, StageTimes};
use kdd_raid::array::{RaidArray, RaidCost, RaidError};
use kdd_util::hash::{crc32_update, FastMap};
use kdd_util::units::SimTime;
use kdd_util::PagePool;

/// Flat service time charged per member-disk operation.
const DISK_OP: SimTime = SimTime(8_000_000);

/// Engine-level errors.
#[derive(Debug)]
pub enum EngineError {
    /// SSD-side failure.
    Dev(DevError),
    /// RAID-side failure.
    Raid(RaidError),
    /// Delta decode failure (corrupt DEZ page).
    Codec(codec::CompressError),
    /// Layout problem (SSD too small, corrupt metadata page).
    Layout(String),
    /// Internal bookkeeping contradicted itself (a bug, surfaced as an
    /// error instead of a panic so the engine can fail one request and
    /// keep serving the rest of the array).
    Inconsistent(&'static str),
}

impl From<DevError> for EngineError {
    fn from(e: DevError) -> Self {
        EngineError::Dev(e)
    }
}

impl From<RaidError> for EngineError {
    fn from(e: RaidError) -> Self {
        EngineError::Raid(e)
    }
}

impl From<codec::CompressError> for EngineError {
    fn from(e: codec::CompressError) -> Self {
        EngineError::Codec(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Dev(e) => write!(f, "ssd: {e}"),
            EngineError::Raid(e) => write!(f, "raid: {e}"),
            EngineError::Codec(e) => write!(f, "delta codec: {e}"),
            EngineError::Layout(s) => write!(f, "layout: {s}"),
            EngineError::Inconsistent(s) => write!(f, "internal inconsistency: {s}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Entry state on flash (Figure 3's `state` field, persisted subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Data cached, parity consistent.
    Clean,
    /// Data cached with a pending delta.
    Old,
    /// Mapping removed (tombstone).
    Free,
}

/// One persistent mapping entry (Figure 3's fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapEntry {
    /// RAID address of the cached page (`lba_raid`, the coalescing key).
    pub lba_raid: u64,
    /// Cache slot (`lba_daz` analogue) holding the data.
    pub slot: u32,
    /// Recorded page state.
    pub state: EntryState,
    /// `(lba_dez, off, len)` for *old* pages whose delta is committed.
    pub dez: Option<DeltaRef>,
}

impl LogEntry for MapEntry {
    fn key(&self) -> u64 {
        self.lba_raid
    }

    fn is_tombstone(&self) -> bool {
        self.state == EntryState::Free
    }
}

/// Serialised entry size on flash.
const ENTRY_BYTES: usize = 22;

/// Metadata page header: `[count: u16][seq: u64][crc: u32]`. The CRC
/// covers the whole page except its own field, so a torn or corrupt log
/// page is detected during the recovery scan rather than silently decoded.
const META_HDR: usize = 14;

/// CRC-32 of a metadata page, skipping the CRC field itself.
fn meta_page_crc(page: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &page[..10]), &page[META_HDR..])
}

/// How the engine is currently serving I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Caching through the SSD (the normal KDD path).
    Normal,
    /// The SSD suffered a persistent fault and has no working replacement:
    /// requests pass straight through to the RAID array.
    PassThrough,
}

impl MapEntry {
    fn encode(self) -> [u8; ENTRY_BYTES] {
        let mut b = [0u8; ENTRY_BYTES];
        b[..8].copy_from_slice(&self.lba_raid.to_le_bytes());
        b[8..12].copy_from_slice(&self.slot.to_le_bytes());
        b[12] = match self.state {
            EntryState::Clean => 1,
            EntryState::Old => 2,
            EntryState::Free => 3,
        };
        if let Some(d) = self.dez {
            b[13] = 1;
            b[14..18].copy_from_slice(&d.slot.to_le_bytes());
            b[18..20].copy_from_slice(&d.off.to_le_bytes());
            b[20..22].copy_from_slice(&d.len.to_le_bytes());
        }
        b
    }

    fn decode(b: &[u8]) -> Option<MapEntry> {
        if b.len() < ENTRY_BYTES {
            return None;
        }
        let lba_raid = le_u64(b, 0)?;
        let slot = le_u32(b, 8)?;
        let state = match b.get(12)? {
            1 => EntryState::Clean,
            2 => EntryState::Old,
            3 => EntryState::Free,
            _ => return None,
        };
        let dez = if *b.get(13)? == 1 {
            Some(DeltaRef { slot: le_u32(b, 14)?, off: le_u16(b, 18)?, len: le_u16(b, 20)? })
        } else {
            None
        };
        Some(MapEntry { lba_raid, slot, state, dez })
    }
}

/// Panic-free little-endian field readers for on-flash structures: a short
/// or misaligned page yields `None` (treated as corruption by callers)
/// instead of an indexing panic on the recovery path.
fn le_u64(b: &[u8], at: usize) -> Option<u64> {
    b.get(at..at.checked_add(8)?).and_then(|s| <[u8; 8]>::try_from(s).ok()).map(u64::from_le_bytes)
}

fn le_u32(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at.checked_add(4)?).and_then(|s| <[u8; 4]>::try_from(s).ok()).map(u32::from_le_bytes)
}

fn le_u16(b: &[u8], at: usize) -> Option<u16> {
    b.get(at..at.checked_add(2)?).and_then(|s| <[u8; 2]>::try_from(s).ok()).map(u16::from_le_bytes)
}

/// The cache directory: the pages of one parity row share a set.
fn directory(config: &KddConfig, raid: &RaidArray) -> SetAssocCache {
    let grouping = SetGrouping::ParityRow {
        chunk_pages: raid.layout().chunk_pages,
        data_disks: raid.layout().data_disks() as u64,
    };
    SetAssocCache::new_grouped(config.geometry, grouping)
}

/// An empty metadata log that keeps unconfirmed commits in NVRAM, so
/// recovery can redo a torn tail page instead of failing on it.
fn metadata_log(meta_pages: u64, page_size: u32) -> MetaLog<MapEntry> {
    let mut log = MetaLog::new(meta_pages, (page_size as usize - META_HDR) / ENTRY_BYTES);
    log.enable_inflight_tracking();
    log
}

/// NVRAM-resident state: survives power failure.
#[derive(Debug, Clone)]
struct NvState {
    staging: StagingBuffer<Vec<u8>>,
}

/// One logical page write inside a batched submission
/// ([`KddEngine::write_batch`]).
#[derive(Debug, Clone, Copy)]
pub struct WriteRequest<'a> {
    /// Target RAID address.
    pub lba: u64,
    /// Page-sized payload.
    pub data: &'a [u8],
}

/// The prototype-style engine.
pub struct KddEngine {
    config: KddConfig,
    ssd: SsdDevice,
    raid: RaidArray,
    cache: SetAssocCache,
    nv: Nvram<NvState>,
    metalog: MetaLog<MapEntry>,
    /// Volatile delta index and DEZ pages (rebuilt from the log on
    /// recovery).
    dez: DeltaZone,
    pending_rows: PendingRows,
    stats: CacheStats,
    meta_pages: u64,
    injector: Option<FaultInjector>,
    mode: EngineMode,
    pool: PagePool,
    recorder: Recorder,
    last_class: HitClass,
    last_comp_milli: u32,
    /// Persistent delta compressor: the match-finder scratch is reused
    /// across write hits so the compress path allocates nothing but the
    /// compressed payload itself.
    codec: codec::Compressor,
    /// While true (inside [`KddEngine::write_batch`]), metalog page
    /// commits accumulate in `meta_pending` instead of being persisted
    /// per-entry; the NVRAM inflight copies keep them crash-safe until
    /// the group flush confirms them.
    meta_defer: bool,
    meta_pending: Vec<CommitBatch<MapEntry>>,
    /// Stage-time accumulator for the request currently being dispatched
    /// (`kdd-obs/v2` latency attribution). Reset at the start of every
    /// dispatch attempt so retries report only the acknowledged attempt,
    /// keeping the conservation invariant (stage sum ≤ service time);
    /// background work (cleaner, flush, recovery) swaps it out and
    /// reports through its own span.
    cur_stages: StageTimes,
}

impl KddEngine {
    /// Build an engine: the SSD's first `meta_partition_pages` form the
    /// metadata partition, the rest back the cache slots (Figure 2).
    pub fn new(config: KddConfig, ssd: SsdDevice, raid: RaidArray) -> Result<Self, EngineError> {
        let meta_pages = config.meta_partition_pages();
        let need = meta_pages + config.geometry.total_pages;
        if need > ssd.capacity_pages() {
            return Err(EngineError::Layout(format!(
                "SSD has {} pages; need {need} (meta {meta_pages} + cache {})",
                ssd.capacity_pages(),
                config.geometry.total_pages
            )));
        }
        if config.geometry.page_size != ssd.page_size()
            || config.geometry.page_size != raid.page_size()
        {
            return Err(EngineError::Layout("page sizes must match across devices".into()));
        }
        let ps = config.geometry.page_size;
        Ok(KddEngine {
            cache: directory(&config, &raid),
            nv: Nvram::new(NvState { staging: StagingBuffer::new(ps) }, u64::from(ps) * 2),
            metalog: metadata_log(meta_pages, ps),
            dez: DeltaZone::new(DezLayout::DIRECTORY, ps),
            pending_rows: PendingRows::default(),
            stats: CacheStats::default(),
            meta_pages,
            injector: None,
            mode: EngineMode::Normal,
            pool: PagePool::new(config.geometry.page_size as usize),
            recorder: Recorder::disabled(),
            last_class: HitClass::ReadMiss,
            last_comp_milli: 0,
            codec: codec::Compressor::new(),
            meta_defer: false,
            meta_pending: Vec::new(),
            cur_stages: StageTimes::new(),
            config,
            ssd,
            raid,
        })
    }

    /// Route every SSD and RAID-member I/O through `injector`, and let the
    /// engine consult it for retry/fallback decisions.
    pub fn attach_fault_injector(&mut self, injector: FaultInjector) {
        // kdd-waiver(KDD006): one-time attach; FaultInjector is an Arc handle, clone is a refcount bump.
        self.ssd.attach_injector(injector.clone());
        // kdd-waiver(KDD006): one-time attach; FaultInjector is an Arc handle, clone is a refcount bump.
        self.raid.attach_injector(injector.clone());
        self.injector = Some(injector);
    }

    /// Attach an observability recorder. Every acknowledged request is
    /// recorded as a lifecycle span; periodic samples are drawn on the
    /// recorder's simulated-time clock. The default recorder is the
    /// disabled no-op, which the request path skips with one branch.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The attached recorder handle (disabled unless
    /// [`KddEngine::attach_recorder`] was called).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Export the full `kdd-obs/v2` snapshot: totals, per-stage latency
    /// attribution, timeseries, wear histogram and the span ring. `None`
    /// when no recorder is attached.
    pub fn obs_snapshot(&self) -> Option<kdd_obs::Json> {
        let mut wear = kdd_obs::Log2Hist::new();
        for e in self.ssd.erase_counts() {
            wear.observe(u64::from(e));
        }
        let fin = self.sample_now();
        self.recorder.export(&fin, &wear)
    }

    /// Draw one gauge sample from current engine state at the recorder's
    /// simulated clock.
    fn sample_now(&self) -> Sample {
        let end = self.ssd.endurance();
        let (head, tail) = self.metalog.counters();
        Sample {
            at: self.recorder.now(),
            cache: self.stats.counters(),
            host_written_bytes: end.host_written_bytes,
            nand_written_bytes: end.nand_written_bytes,
            erases: end.erases,
            max_erase: u64::from(end.max_erase_count),
            stale_rows: self.raid.stale_row_count() as u64,
            backlog_rows: self.pending_rows.pending_rows() as u64,
            staged_deltas: self.nv.get().staging.len() as u64,
            metalog_pages_used: tail.saturating_sub(head),
            metalog_pages_total: self.meta_pages,
        }
    }

    /// Finish one acknowledged request: build the completion from the
    /// stats delta, feed the span ring, and draw a sample if one is due.
    fn observe(&mut self, kind: ReqKind, lba: u64, before: &CacheStats, service: SimTime) {
        let class = if self.mode == EngineMode::PassThrough {
            HitClass::PassThrough
        } else {
            self.last_class
        };
        let after = self.stats;
        let stages = std::mem::take(&mut self.cur_stages);
        self.observe_span(kind, lba, before, &after, class, self.last_comp_milli, service, stages);
    }

    /// Charge `dt` of simulated time to both the caller's clock and the
    /// in-flight span's stage breakdown — the one call every costed
    /// dispatch site makes, so the conservation invariant (stage sum ≤
    /// service time) holds by construction.
    #[inline]
    fn charge_stage(&mut self, stage: Stage, dt: SimTime, t: &mut SimTime) {
        *t += dt;
        self.cur_stages.add(stage, dt);
    }

    /// Record finished background work (cleaner pass, group-commit
    /// flush, failure recovery) as a first-class span on the ring.
    fn note_background(&mut self, stage: Stage, dur: SimTime, used: StageTimes) {
        if dur == SimTime::ZERO && used.is_zero() {
            return;
        }
        if self.recorder.record_background(stage, dur, used) {
            let s = self.sample_now();
            self.recorder.push_sample(s);
        }
    }

    /// Span emission with explicit before/after stats: batched submissions
    /// snapshot both at dispatch time and emit all spans after the group
    /// flush, so each span's counter deltas cover exactly its own request.
    #[allow(clippy::too_many_arguments)]
    fn observe_span(
        &mut self,
        kind: ReqKind,
        lba: u64,
        before: &CacheStats,
        after: &CacheStats,
        class: HitClass,
        comp_milli: u32,
        service: SimTime,
        stages: StageTimes,
    ) {
        let d32 = |now: u64, was: u64| u32::try_from(now.saturating_sub(was)).unwrap_or(u32::MAX);
        let mut c = Completion::new(kind, lba, class, service);
        c.stages = stages;
        c.ssd_reads = d32(after.ssd_reads, before.ssd_reads);
        c.ssd_writes = d32(after.ssd_writes_pages(), before.ssd_writes_pages());
        c.raid_reads = d32(after.raid_reads, before.raid_reads);
        c.raid_writes = d32(after.raid_writes, before.raid_writes);
        c.faults = d32(after.faults_observed, before.faults_observed);
        c.retries = d32(after.fault_retries, before.fault_retries);
        if kind == ReqKind::Write {
            c.comp_milli = comp_milli;
        }
        if self.recorder.record(c) {
            let s = self.sample_now();
            self.recorder.push_sample(s);
        }
    }

    /// Current serving mode (normal caching vs. pass-through after a
    /// persistent SSD fault).
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Cumulative cache statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The SSD backing the cache (endurance inspection).
    pub fn ssd(&self) -> &SsdDevice {
        &self.ssd
    }

    /// The RAID array underneath (stale-row inspection).
    pub fn raid(&self) -> &RaidArray {
        &self.raid
    }

    /// Mutable RAID access for fault injection in tests and examples.
    pub fn raid_mut(&mut self) -> &mut RaidArray {
        &mut self.raid
    }

    /// Rows with delayed parity.
    pub fn pending_row_count(&self) -> usize {
        self.pending_rows.pending_rows()
    }

    /// Deltas currently staged in NVRAM.
    pub fn staged_deltas(&self) -> usize {
        self.nv.get().staging.len()
    }

    /// Cache-page size in bytes (every request payload must match it).
    pub fn page_size(&self) -> usize {
        self.config.geometry.page_size as usize
    }

    #[inline]
    fn slot_lpn(&self, slot: u32) -> u64 {
        self.meta_pages + slot as u64
    }

    // ---- metadata persistence -------------------------------------------

    fn persist_batches(
        &mut self,
        batches: Vec<CommitBatch<MapEntry>>,
        t: &mut SimTime,
    ) -> Result<(), EngineError> {
        for batch in batches {
            let mut page = self.pool.acquire();
            page[..2].copy_from_slice(&(batch.entries.len() as u16).to_le_bytes());
            page[2..10].copy_from_slice(&batch.seq.to_le_bytes());
            for (i, e) in batch.entries.iter().enumerate() {
                let off = META_HDR + i * ENTRY_BYTES;
                page[off..off + ENTRY_BYTES].copy_from_slice(&e.encode());
            }
            let crc = meta_page_crc(&page);
            page[10..14].copy_from_slice(&crc.to_le_bytes());
            let dt = self.ssd.write_page(batch.slot, &page)?;
            self.charge_stage(Stage::MetalogCommit, dt, t);
            self.pool.release(page);
            self.stats.ssd_meta_writes += 1;
            // Only now is the page durable; recovery no longer needs the
            // NVRAM in-flight copy.
            self.metalog.confirm(batch.seq);
        }
        Ok(())
    }

    /// Persist page commits now, or park them for the group flush while a
    /// batched submission is in flight. Deferred batches stay crash-safe:
    /// their entries live in the metalog's NVRAM buffer/inflight list until
    /// [`KddEngine::flush_group`] confirms the flash writes.
    fn queue_batches(
        &mut self,
        batches: Vec<CommitBatch<MapEntry>>,
        t: &mut SimTime,
    ) -> Result<(), EngineError> {
        if self.meta_defer {
            self.meta_pending.extend(batches);
            Ok(())
        } else {
            self.persist_batches(batches, t)
        }
    }

    /// Write every parked metalog page to flash — the group-commit flush
    /// ending a batched submission.
    fn flush_group(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        if self.meta_pending.is_empty() {
            return Ok(());
        }
        let batches = std::mem::take(&mut self.meta_pending);
        self.persist_batches(batches, t)
    }

    fn log_entry(&mut self, e: MapEntry, t: &mut SimTime) -> Result<(), EngineError> {
        let batches = self.metalog.push(e);
        self.queue_batches(batches, t)
    }

    // ---- delta plumbing ---------------------------------------------------

    /// Give an emptied DEZ page's slot back to the directory. The slot is
    /// freed before the trim, which is only a hint to the FTL: a failed
    /// trim must not leak the slot.
    fn free_dez_page(&mut self, slot: u32) -> Result<(), EngineError> {
        self.cache.free_slot(slot);
        self.ssd.trim_page(self.slot_lpn(slot))?;
        Ok(())
    }

    fn invalidate_delta(&mut self, lba: u64) -> Result<(), EngineError> {
        match self.dez.invalidate(lba) {
            Dropped::Staged => {
                self.nv.get_mut().staging.remove(lba);
            }
            Dropped::Dez(Some(slot)) => self.free_dez_page(slot)?,
            Dropped::Dez(None) | Dropped::Nothing => {}
        }
        Ok(())
    }

    /// Write one DEZ page at `slot`: the directory of `(lba, off, len)`
    /// records laid out by [`DeltaZone::pack`], then the payloads.
    /// `deltas` holds at least the payloads `refs` packs, in order.
    fn write_dez_page(
        &mut self,
        slot: u32,
        refs: &[(u64, DeltaRef)],
        deltas: &[(u64, Vec<u8>)],
        t: &mut SimTime,
    ) -> Result<(), EngineError> {
        let layout = DezLayout::DIRECTORY;
        let mut page = self.pool.acquire();
        page[..2].copy_from_slice(&(refs.len() as u16).to_le_bytes());
        for (i, ((lba, r), (_, payload))) in refs.iter().zip(deltas).enumerate() {
            let dir = layout.header + i * layout.entry;
            page[dir..dir + 8].copy_from_slice(&lba.to_le_bytes());
            page[dir + 8..dir + 10].copy_from_slice(&r.off.to_le_bytes());
            page[dir + 10..dir + 12].copy_from_slice(&r.len.to_le_bytes());
            let off = r.off as usize;
            page[off..off + payload.len()].copy_from_slice(payload);
        }
        let written = self.ssd.write_page(self.slot_lpn(slot), &page);
        self.pool.release(page);
        self.charge_stage(Stage::StagingCommit, written?, t);
        self.stats.ssd_delta_writes += 1;
        Ok(())
    }

    /// Pack the staged deltas into DEZ pages. Usually one page suffices
    /// (the staging buffer is one page of *payload*); the directory
    /// overhead can spill a few deltas into a second page.
    fn commit_staging(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        if self.nv.get().staging.is_empty() {
            return Ok(());
        }
        // Snapshot instead of draining: a delta leaves NVRAM only once the
        // DEZ page holding it is durably on flash and logged, so a crash
        // mid-commit never loses an acknowledged write.
        let queue: Vec<(u64, Vec<u8>)> =
            // kdd-waiver(KDD006): NVRAM payloads must outlive the borrow on `self.nv` while the DEZ writes mutate the engine.
            self.nv.get().staging.snapshot().map(|(lba, payload)| (lba, payload.clone())).collect();
        let mut next = 0;
        while let Some(rest) = queue.get(next..).filter(|r| !r.is_empty()) {
            let Some(slot) = self.alloc_dez_slot(t)? else {
                // Fully pinned cache: the rest simply stays staged.
                return Ok(());
            };
            let refs = self
                .dez
                .pack(slot, rest.iter().map(|(lba, payload)| (*lba, payload.len())))
                .ok_or(EngineError::Inconsistent("a staged delta must fit one DEZ page"))
                .and_then(|refs| self.write_dez_page(slot, &refs, rest, t).map(|()| refs))
                // Nothing refers to the slot until its page is written.
                .inspect_err(|_| self.cache.free_slot(slot))?;
            next += refs.len();
            // Log the whole DEZ page's mappings as one metalog group, then
            // drop the NVRAM copies. Logging precedes every removal: if the
            // crash lands in between, recovery sees both and the staged
            // copies (same bytes) simply supersede the DEZ references.
            let entries = refs
                .iter()
                .map(|&(lba, r)| self.old_entry(lba, r))
                .collect::<Result<Vec<_>, _>>()?;
            let batches = self.metalog.push_group(entries);
            // Once pushed, the entries are NVRAM-durable even if their
            // page write fails, so the DEZ page is committed either way.
            let logged = self.queue_batches(batches, t);
            for (lba, r) in refs {
                self.nv.get_mut().staging.remove(lba);
                self.dez.place(lba, r);
            }
            logged?;
        }
        Ok(())
    }

    /// The mapping entry of an *old* page whose delta lives at `r`.
    fn old_entry(&self, lba: u64, r: DeltaRef) -> Result<MapEntry, EngineError> {
        let slot =
            self.cache.lookup(lba).ok_or(EngineError::Inconsistent("old page must be cached"))?;
        Ok(MapEntry { lba_raid: lba, slot, state: EntryState::Old, dez: Some(r) })
    }

    fn alloc_dez_slot(&mut self, t: &mut SimTime) -> Result<Option<u32>, EngineError> {
        if let Some(slot) = self.cache.alloc_delta_slot() {
            return Ok(Some(slot));
        }
        let victim = self
            .cache
            .iter_mapped()
            .find(|&(_, _, s)| s == PageState::Clean)
            .map(|(slot, lba, _)| (slot, lba));
        if let Some((slot, lba)) = victim {
            self.uncache(lba, slot, t)?;
            self.stats.evictions += 1;
            return Ok(self.cache.alloc_delta_slot());
        }
        Ok(None)
    }

    /// Drop a cached page: its tombstone is logged before anything is
    /// trimmed (recovery must never map a trimmed page), then its delta
    /// and its slot go.
    fn uncache(&mut self, lba: u64, slot: u32, t: &mut SimTime) -> Result<(), EngineError> {
        self.log_entry(MapEntry { lba_raid: lba, slot, state: EntryState::Free, dez: None }, t)?;
        self.invalidate_delta(lba)?;
        self.ssd.trim_page(self.slot_lpn(slot))?;
        self.cache.free_slot(slot);
        Ok(())
    }

    /// Fetch the staged or committed compressed delta for an *old* page.
    fn read_delta(&mut self, lba: u64, t: &mut SimTime) -> Result<Vec<u8>, EngineError> {
        match self.dez.loc(lba) {
            Some(DeltaLoc::Staged) => Ok(self
                .nv
                .get()
                .staging
                .get(lba)
                .ok_or(EngineError::Inconsistent("staged delta index broken"))?
                // kdd-waiver(KDD006): the compressed payload is returned to the caller by value; a copy is inherent to the API.
                .clone()),
            Some(DeltaLoc::Dez(r)) => {
                let mut page = self.pool.acquire();
                let dt = self.ssd.read_page(self.slot_lpn(r.slot), &mut page)?;
                self.charge_stage(Stage::SsdRead, dt, t);
                // kdd-waiver(KDD006): sub-page payload handed to the caller.
                let payload = page[r.off as usize..r.off as usize + r.len as usize].to_vec();
                self.pool.release(page);
                Ok(payload)
            }
            None => Err(EngineError::Inconsistent("old page has no delta")),
        }
    }

    /// Current content of a cached page: for *old* pages, base ⊕ delta —
    /// §III-A's read-hit combine.
    fn read_cached(
        &mut self,
        lba: u64,
        slot: u32,
        t: &mut SimTime,
    ) -> Result<Vec<u8>, EngineError> {
        // kdd-waiver(KDD006): the page is returned to the caller by value.
        let mut data = vec![0u8; self.page_size()];
        let dt = self.ssd.read_page(self.slot_lpn(slot), &mut data)?;
        self.charge_stage(Stage::SsdRead, dt, t);
        if self.cache.state(slot) == PageState::Old {
            let comp = self.read_delta(lba, t)?;
            let delta = codec::decompress(&comp)?;
            // "it takes only tens of microseconds to decompress the delta
            // and combine it with the data" (§IV-B2).
            self.charge_stage(Stage::DeltaDecode, SimTime::from_micros(20), t);
            xor_into(&mut data, &delta);
        }
        Ok(data)
    }

    // ---- public I/O -------------------------------------------------------

    /// The device fault underlying an engine error, if any.
    fn fault_dev(e: &EngineError) -> Option<&DevError> {
        match e {
            EngineError::Dev(d) => Some(d),
            EngineError::Raid(RaidError::Dev(d)) => Some(d),
            _ => None,
        }
    }

    /// Fall back after a persistent SSD fault: resync the RAID (member
    /// data is always current — RPO 0), swap in a spare, and if the
    /// injector says even the spare is dead, serve pass-through from RAID.
    fn ssd_fault_fallback(&mut self) -> Result<(), EngineError> {
        self.recover_from_ssd_failure()?;
        let dead = self.injector.as_ref().is_some_and(|inj| inj.is_dead(FaultDomain::Ssd));
        if dead {
            self.mode = EngineMode::PassThrough;
        }
        self.stats.fault_fallbacks += 1;
        Ok(())
    }

    /// Whether `e` warrants one retry (a transient device fault). Power
    /// loss is never retried: the machine is notionally off.
    fn retryable(e: &EngineError) -> bool {
        Self::fault_dev(e).is_some_and(|d| d.is_transient())
    }

    /// Whether `e` is a persistent SSD-side fault that the engine should
    /// survive by falling back to pass-through RAID.
    fn ssd_persistent(e: &EngineError) -> bool {
        matches!(
            Self::fault_dev(e),
            Some(DevError::Failed { device: FaultDomain::Ssd, transient: false })
        )
    }

    /// Whether `e` is a member-disk death. One retry suffices: the array
    /// folds injector-declared drops into its failure state on entry and
    /// the retried operation runs degraded (RAID-5/6 reconstruction).
    fn disk_persistent(e: &EngineError) -> bool {
        matches!(
            Self::fault_dev(e),
            Some(DevError::Failed { device: FaultDomain::Disk(_), transient: false })
        ) || matches!(e, EngineError::Raid(RaidError::DiskFailed { .. }))
    }

    /// Read one page: `(data, simulated service time)`.
    ///
    /// Fault policy: a transient device fault is retried once; a
    /// persistent SSD fault triggers [`KddEngine::recover_from_ssd_failure`]
    /// and, when no working spare exists, pass-through mode. Power loss is
    /// surfaced unchanged — only [`KddEngine::power_cycle`] recovers it.
    pub fn read(&mut self, lba: u64) -> Result<(Vec<u8>, SimTime), EngineError> {
        let before = self.recorder.is_enabled().then_some(self.stats);
        let result = self.with_fault_policy(|e| e.read_inner(lba), |e| e.raid_read(lba));
        if let (Some(before), Ok((_, t))) = (before, &result) {
            self.observe(ReqKind::Read, lba, &before, *t);
        }
        result
    }

    /// The fault policy around one request: `cached` serves it through
    /// the SSD, `raid` in pass-through mode. A transient fault or a
    /// member-disk death is retried once; a persistent SSD fault falls
    /// back to a spare (or pass-through) and re-dispatches.
    fn with_fault_policy<T>(
        &mut self,
        mut cached: impl FnMut(&mut Self) -> Result<T, EngineError>,
        mut raid: impl FnMut(&mut Self) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        if self.mode == EngineMode::PassThrough {
            return raid(self);
        }
        let e = match cached(self) {
            Ok(out) => return Ok(out),
            Err(e) => e,
        };
        self.stats.faults_observed += 1;
        if Self::retryable(&e) || Self::disk_persistent(&e) {
            self.stats.fault_retries += 1;
            cached(self)
        } else if Self::ssd_persistent(&e) {
            self.ssd_fault_fallback()?;
            if self.mode == EngineMode::PassThrough {
                raid(self)
            } else {
                cached(self)
            }
        } else {
            Err(e)
        }
    }

    /// Write one page; returns the simulated service time. Same fault
    /// policy as [`KddEngine::read`].
    pub fn write(&mut self, lba: u64, data: &[u8]) -> Result<SimTime, EngineError> {
        let before = self.recorder.is_enabled().then_some(self.stats);
        let result = self.write_dispatch(lba, data);
        if let (Some(before), Ok(t)) = (before, &result) {
            self.observe(ReqKind::Write, lba, &before, *t);
        }
        result
    }

    /// Submit a vector of writes as one **group commit**: every request
    /// runs the normal write path (delta staging, fault retry policy, and
    /// NVRAM durability are identical to [`KddEngine::write`]), but metalog
    /// page persistence is deferred and flushed once at the end of the
    /// batch, so one flash write can cover mapping updates from many
    /// requests. Returns the per-request simulated service times; the
    /// group flush's cost is charged to the final request (it is the
    /// batch's "fsync").
    ///
    /// Crash safety is unchanged: entries are NVRAM-durable from the
    /// moment their request is acknowledged (metalog buffer + inflight
    /// redo list), so a power cut mid-batch loses nothing acknowledged —
    /// recovery heals unwritten or torn pages from the inflight copies.
    /// On error the group flush still runs for the already-dispatched
    /// prefix before the error is surfaced; requests after the failing one
    /// are not attempted.
    pub fn write_batch(&mut self, reqs: &[WriteRequest<'_>]) -> Result<Vec<SimTime>, EngineError> {
        struct PendingSpan {
            lba: u64,
            before: CacheStats,
            after: CacheStats,
            class: HitClass,
            comp_milli: u32,
            stages: StageTimes,
        }
        let observing = self.recorder.is_enabled();
        let mut times: Vec<SimTime> = Vec::with_capacity(reqs.len());
        let mut spans: Vec<PendingSpan> =
            Vec::with_capacity(if observing { reqs.len() } else { 0 });
        self.meta_defer = true;
        let mut failure = None;
        for r in reqs {
            let before = self.stats;
            match self.write_dispatch(r.lba, r.data) {
                Ok(t) => {
                    times.push(t);
                    if observing {
                        let class = if self.mode == EngineMode::PassThrough {
                            HitClass::PassThrough
                        } else {
                            self.last_class
                        };
                        spans.push(PendingSpan {
                            lba: r.lba,
                            before,
                            after: self.stats,
                            class,
                            comp_milli: self.last_comp_milli,
                            stages: std::mem::take(&mut self.cur_stages),
                        });
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.meta_defer = false;
        let mut tg = SimTime::ZERO;
        self.cur_stages = StageTimes::new();
        let flush = self.flush_group(&mut tg);
        let flush_stages = std::mem::take(&mut self.cur_stages);
        if let Some(e) = failure {
            // The dispatch failure is the actionable error; a flush failure
            // here is a second symptom of the same fault (the pages stay on
            // the inflight redo list either way).
            return Err(e);
        }
        flush?;
        if let Some(last) = times.last_mut() {
            *last += tg;
        }
        if let Some(last) = spans.last_mut() {
            // The group flush's meta writes belong to the batch; fold them
            // (counters and stage times alike) into the final request's
            // span, whose service time already carries the flush cost.
            last.after = self.stats;
            last.stages.merge(&flush_stages);
        }
        for (s, t) in spans.iter().zip(times.iter()) {
            let (before, after) = (s.before, s.after);
            self.observe_span(
                ReqKind::Write,
                s.lba,
                &before,
                &after,
                s.class,
                s.comp_milli,
                *t,
                s.stages,
            );
        }
        Ok(times)
    }

    fn write_dispatch(&mut self, lba: u64, data: &[u8]) -> Result<SimTime, EngineError> {
        self.with_fault_policy(|e| e.write_inner(lba, data), |e| e.raid_write(lba, data))
    }

    /// Pass-through read straight from the RAID array.
    fn raid_read(&mut self, lba: u64) -> Result<(Vec<u8>, SimTime), EngineError> {
        self.cur_stages = StageTimes::new();
        let mut t = SimTime::ZERO;
        // kdd-waiver(KDD006): the page is returned to the caller by value.
        let mut buf = vec![0u8; self.page_size()];
        let cost = self.raid.read_page(lba, &mut buf)?;
        self.charge_raid(&cost);
        self.bump(true, false);
        self.charge_stage(Stage::RaidRead, DISK_OP * cost.reads().max(1) as u64, &mut t);
        Ok((buf, t))
    }

    /// Pass-through write straight to the RAID array (full parity update).
    fn raid_write(&mut self, lba: u64, data: &[u8]) -> Result<SimTime, EngineError> {
        self.cur_stages = StageTimes::new();
        let mut t = SimTime::ZERO;
        let cost = self.raid.write_page(lba, data)?;
        self.charge_raid(&cost);
        self.bump(false, false);
        self.charge_stage(Stage::RaidWrite, DISK_OP * 2 * cost.writes().max(1) as u64, &mut t);
        Ok(t)
    }

    fn read_inner(&mut self, lba: u64) -> Result<(Vec<u8>, SimTime), EngineError> {
        self.cur_stages = StageTimes::new();
        let mut t = SimTime::ZERO;
        let (hit, data) = match self.cache.lookup(lba) {
            Some(slot) => {
                self.cache.touch(slot);
                self.stats.ssd_reads += 1;
                (true, self.read_cached(lba, slot, &mut t)?)
            }
            None => {
                // kdd-waiver(KDD006): the page is the read's return value.
                let mut buf = vec![0u8; self.page_size()];
                let cost = self.raid.read_page(lba, &mut buf)?;
                self.charge_raid(&cost);
                self.charge_stage(Stage::RaidRead, DISK_OP * cost.reads().max(1) as u64, &mut t);
                self.fill_clean(lba, &buf, &mut t)?;
                (false, buf)
            }
        };
        self.bump(true, hit);
        Ok((data, t))
    }

    fn write_inner(&mut self, lba: u64, data: &[u8]) -> Result<SimTime, EngineError> {
        assert_eq!(data.len(), self.page_size(), "writes are page-granular");
        self.cur_stages = StageTimes::new();
        let mut t = SimTime::ZERO;
        self.last_comp_milli = 0;
        let hit = match self.cache.lookup(lba) {
            Some(slot) => {
                // THE KDD WRITE HIT: delta to NVRAM, data to RAID without
                // a parity update.
                self.last_class = HitClass::WriteHit;
                self.cache.touch(slot);
                let mut delta = self.pool.acquire();
                let dt = self.ssd.read_page(self.slot_lpn(slot), &mut delta)?;
                self.charge_stage(Stage::SsdRead, dt, &mut t);
                xor_into(&mut delta, data); // base ⊕ new
                let comp = self.codec.compress(&delta);
                self.last_comp_milli = ((comp.len() * 1000) / self.page_size()) as u32;
                self.pool.release(delta);
                // Compression CPU cost.
                self.charge_stage(Stage::DeltaEncode, SimTime::from_micros(30), &mut t);
                // A delta must fit a DEZ page alongside its directory
                // record; pages that XOR-compress worse than that are
                // treated as incompressible (full write-through below).
                let compressible =
                    DezLayout::DIRECTORY.footprint(1, comp.len()) <= self.page_size();
                if compressible && !self.nv.get().staging.fits(lba, &comp) {
                    self.commit_staging(&mut t)?;
                }
                // Committing the staged deltas may allocate DEZ pages by
                // evicting *clean* cache pages — and this page is still
                // clean while its first delta is only being prepared, so
                // the victim can be the very page being written. The delta
                // path needs the cached base (reads combine base ⊕ delta),
                // so when the base is gone, finish as a conventional miss.
                let Some(slot) = self.cache.lookup(lba) else {
                    self.write_conventional_miss(lba, data, &mut t)?;
                    self.bump(false, false);
                    return Ok(t);
                };
                // The delta path needs the target member alive: the data
                // half of "data + delta" lives on exactly that disk. When
                // it is dead (or dies mid-dispatch), fall through to the
                // conventional write, whose reconstruct-write stores the
                // data in the surviving members' parity.
                let dispatched = if compressible && self.nv.get().staging.fits(lba, &comp) {
                    // Dispatch the data to the member disk *before*
                    // touching any NVRAM/volatile state: if the write is
                    // cut short, the previous delta still matches the
                    // previous member content and recovery stays
                    // consistent.
                    match self.raid.write_no_parity_update(lba, data) {
                        Ok(cost) => {
                            self.charge_raid(&cost);
                            self.last_class = HitClass::WriteHitDelta;
                            self.charge_stage(
                                Stage::RaidWrite,
                                DISK_OP * cost.writes() as u64,
                                &mut t,
                            );
                            if self.cache.state(slot) == PageState::Clean {
                                self.cache.set_state(slot, PageState::Old);
                            }
                            // Insert the new delta (coalescing replaces the
                            // staged one in place) before releasing any
                            // committed copy, so at every instant one valid
                            // delta exists.
                            let freed = self.dez.stage(lba);
                            self.nv.get_mut().staging.insert(lba, comp);
                            if let Some(slot) = freed {
                                self.free_dez_page(slot)?;
                            }
                            let row = self.raid.layout().row_of(lba);
                            self.pending_rows.add(row, lba);
                            true
                        }
                        Err(RaidError::DiskFailed { .. })
                        | Err(RaidError::Dev(DevError::Failed { transient: false, .. })) => false,
                        Err(e) => return Err(e.into()),
                    }
                } else {
                    false
                };
                if !dispatched {
                    // Incompressible delta or fully pinned cache: fall
                    // back to a conventional parity write. Detach this
                    // page from the pending set first (its delta is gone),
                    // resolve any *other* pending deltas of the row, then
                    // write through.
                    let row = self.raid.layout().row_of(lba);
                    let mut rest = self.pending_rows.take_row(row);
                    rest.retain(|&l| l != lba);
                    for &l in &rest {
                        self.pending_rows.add(row, l);
                    }
                    // On a stale row the array reconstructs parity from
                    // current member data, absorbing every pending delta
                    // of the row — clean_row afterwards only reclaims
                    // (its parity step is skipped once staleness cleared).
                    let cost = self.raid.write_page(lba, data)?;
                    self.charge_raid(&cost);
                    self.last_class = HitClass::WriteHitThrough;
                    self.charge_stage(
                        Stage::RaidWrite,
                        DISK_OP * 2 * cost.writes().max(1) as u64,
                        &mut t,
                    );
                    // Drop the old mapping, then re-insert the new version
                    // clean. A crash in between leaves the lba uncached
                    // with the data already safe on RAID.
                    self.uncache(lba, slot, &mut t)?;
                    self.fill_clean(lba, data, &mut t)?;
                    self.clean_row(row, &mut t)?;
                }
                self.maybe_clean(&mut t)?;
                true
            }
            None => {
                self.write_conventional_miss(lba, data, &mut t)?;
                false
            }
        };
        self.bump(false, hit);
        Ok(t)
    }

    /// Conventional write miss (§III-A): cache in DAZ, write to RAID with
    /// the normal parity update. If this row has delayed parity, the
    /// array's write would reconstruct it from current member data and
    /// silently absorb the pending deltas — repair and reclaim the row
    /// *first* so the pending bookkeeping cannot double-apply them later.
    fn write_conventional_miss(
        &mut self,
        lba: u64,
        data: &[u8],
        t: &mut SimTime,
    ) -> Result<(), EngineError> {
        let row = self.raid.layout().row_of(lba);
        self.clean_row(row, t)?;
        let cost = self.raid.write_page(lba, data)?;
        self.charge_raid(&cost);
        // Read round + write round.
        self.charge_stage(Stage::RaidWrite, DISK_OP * 2, t);
        self.fill_clean(lba, data, t)
    }

    fn fill_clean(&mut self, lba: u64, data: &[u8], t: &mut SimTime) -> Result<(), EngineError> {
        let slot = loop {
            match self.cache.insert(lba, PageState::Clean, |s| s == PageState::Clean) {
                InsertOutcome::Inserted { slot } => break slot,
                InsertOutcome::Evicted { slot, victim_lba, .. } => {
                    self.stats.evictions += 1;
                    let tombstone =
                        MapEntry { lba_raid: victim_lba, slot, state: EntryState::Free, dez: None };
                    self.log_entry(tombstone, t).inspect_err(|_| self.cache.free_slot(slot))?;
                    break slot;
                }
                InsertOutcome::NoRoom => {
                    // Unpin one pending row of this set and retry; bypass
                    // when nothing in the set can be cleaned.
                    let set = self.cache.set_of_lba(lba);
                    if !self.clean_one_row_in_set(set, t)? {
                        return Ok(()); // bypass the cache
                    }
                }
            }
        };
        // The slot is mapped before its flash holds `data`: if that fails,
        // unmap it, or the retry would find `lba` cached and serve (or
        // build a delta against) the slot's stale page.
        let dt = self
            .ssd
            .write_page(self.slot_lpn(slot), data)
            .inspect_err(|_| self.cache.free_slot(slot))?;
        self.charge_stage(Stage::SsdWrite, dt, t);
        self.stats.ssd_data_writes += 1;
        self.log_entry(MapEntry { lba_raid: lba, slot, state: EntryState::Clean, dez: None }, t)
    }

    /// Clean one pending row whose pages map to `set` (the first
    /// [`PendingRows::row_ids`] yields, in its hash-map order); false when
    /// none exists.
    fn clean_one_row_in_set(&mut self, set: usize, t: &mut SimTime) -> Result<bool, EngineError> {
        let row = self.pending_rows.row_ids().into_iter().find(|&row| {
            self.raid
                .layout()
                .row_lpns(row)
                .first()
                .is_some_and(|&l| self.cache.set_of_lba(l) == set)
        });
        match row {
            Some(row) => {
                self.clean_row(row, t)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn bump(&mut self, is_read: bool, hit: bool) {
        match (is_read, hit) {
            (true, true) => {
                self.stats.read_hits += 1;
                self.last_class = HitClass::ReadHit;
            }
            (true, false) => {
                self.stats.read_misses += 1;
                self.last_class = HitClass::ReadMiss;
            }
            // Write hits refine themselves into delta/through inside
            // `write_inner`; don't clobber that here.
            (false, true) => self.stats.write_hits += 1,
            (false, false) => {
                self.stats.write_misses += 1;
                self.last_class = HitClass::WriteMiss;
            }
        }
    }

    /// Fold one RAID operation's member-disk cost into the counters.
    fn charge_raid(&mut self, cost: &RaidCost) {
        self.stats.raid_reads += cost.reads() as u64;
        self.stats.raid_writes += cost.writes() as u64;
    }

    fn maybe_clean(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        debug_assert_eq!(
            self.cache.count_state(PageState::Delta),
            self.dez.len(),
            "every DEZ slot in the directory is a page of the zone"
        );
        let trigger = self.config.clean_trigger_slots();
        if self.dez.pinned(&self.cache) * 4 >= trigger * 3 {
            self.compact_dez(t)?;
        }
        if self.dez.pinned(&self.cache) >= trigger {
            self.clean_some(t)?;
        }
        Ok(())
    }

    /// Threshold cleaning: repair and reclaim oldest-stale rows first,
    /// stopping just under the trigger so recently-written hot pages keep
    /// their delta path (mirrors the accounting policy).
    fn clean_some(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        let low = self.config.clean_trigger_slots() * 7 / 8;
        while self.dez.pinned(&self.cache) > low {
            let Some(row) = self.pending_rows.oldest_row() else { break };
            self.clean_row(row, t)?;
        }
        self.stats.cleanings += 1;
        Ok(())
    }

    /// Log-structured DEZ compaction (pressure-driven, as in the
    /// accounting policy): while [`DeltaZone::merge_pick`] finds two
    /// pages to merge, read both, repack their live deltas into the
    /// destination slot and free the source.
    fn compact_dez(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        while let Some((dst, src)) = self.dez.merge_pick() {
            // Gather live deltas from both pages, destination first.
            let lbas: Vec<u64> = self.dez.members(dst).chain(self.dez.members(src)).collect();
            let mut deltas: Vec<(u64, Vec<u8>)> = Vec::with_capacity(lbas.len());
            for lba in lbas {
                let payload = self.read_delta(lba, t)?;
                deltas.push((lba, payload));
            }
            let refs = self
                .dez
                .pack(dst, deltas.iter().map(|(lba, payload)| (*lba, payload.len())))
                .filter(|refs| refs.len() == deltas.len())
                .ok_or(EngineError::Inconsistent("merged deltas must fit one DEZ page"))?;
            // The index moves to the new offsets only once they are on
            // flash.
            self.write_dez_page(dst, &refs, &deltas, t)?;
            self.dez.take_page(src);
            self.dez.clear_page(dst);
            for &(lba, r) in &refs {
                self.dez.place(lba, r);
            }
            self.free_dez_page(src)?;
            // Re-log the moved mappings (offsets changed).
            for (lba, r) in refs {
                let entry = self.old_entry(lba, r)?;
                self.log_entry(entry, t)?;
            }
        }
        Ok(())
    }

    /// The cleaning pass (§III-D): repair every stale row (reconstruct-
    /// write when the whole row is cached, read-modify-write otherwise),
    /// then reclaim *old* pages and invalidate their deltas. Recorded as
    /// a first-class background span (`cleaner_pass`) with its own stage
    /// breakdown, isolated from any in-flight request's accumulator.
    pub fn clean(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        let saved = std::mem::take(&mut self.cur_stages);
        let t0 = *t;
        let result = self.clean_pass(t);
        let used = std::mem::replace(&mut self.cur_stages, saved);
        self.note_background(Stage::CleanerPass, t.saturating_sub(t0), used);
        result
    }

    fn clean_pass(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        let rows: Vec<u64> = self.pending_rows.row_ids();
        for row in rows {
            self.clean_row(row, t)?;
        }
        self.stats.cleanings += 1;
        Ok(())
    }

    /// Repair one row and reclaim its old/delta pages.
    fn clean_row(&mut self, row: u64, t: &mut SimTime) -> Result<(), EngineError> {
        if !self.pending_rows.contains_row(row) {
            return Ok(());
        }
        if self.raid.is_stale(row) {
            let lpns = self.raid.layout().row_lpns(row);
            let all_cached = lpns.iter().all(|&l| self.cache.lookup(l).is_some());
            if all_cached {
                // Reconstruct-write from cached current versions.
                let mut datas = Vec::with_capacity(lpns.len());
                for &l in &lpns {
                    let slot = self
                        .cache
                        .lookup(l)
                        .ok_or(EngineError::Inconsistent("row member vanished from cache"))?;
                    datas.push(self.read_cached(l, slot, t)?);
                }
                let refs: Vec<&[u8]> = datas.iter().map(|d| d.as_slice()).collect();
                let cost = self.raid.parity_update_with_data(row, &refs)?;
                self.charge_raid(&cost);
                self.charge_stage(Stage::ParityRmw, DISK_OP * cost.writes() as u64, t);
            } else {
                // RMW: fold each pending page's decompressed delta.
                let pend: Vec<u64> = self.pending_rows.take_row(row).into_iter().collect();
                for &l in &pend {
                    self.pending_rows.add(row, l); // peek semantics
                }
                let mut deltas = Vec::new();
                for &lba in &pend {
                    let comp = self.read_delta(lba, t)?;
                    let full = codec::decompress(&comp)?;
                    debug_assert_eq!(full.len(), self.page_size());
                    let loc = self.raid.layout().locate(lba);
                    deltas.push((loc.data_index, full));
                }
                let refs: Vec<(usize, &[u8])> =
                    deltas.iter().map(|(d, v)| (*d, v.as_slice())).collect();
                let cost = match self.raid.parity_update_rmw(row, &refs) {
                    Ok(c) => c,
                    // The parity member of this row is dead, so there is
                    // nothing to fold deltas into. Resync instead: it
                    // recomputes from the live data members (all current —
                    // the deltas' data halves were dispatched at write
                    // time), skips the dead disk, and clears the stale
                    // mark so a later rebuild can re-derive the parity.
                    Err(RaidError::DiskFailed { .. }) => self.raid.resync(Some(&[row]))?,
                    Err(e) => return Err(e.into()),
                };
                self.charge_raid(&cost);
                self.charge_stage(Stage::ParityRmw, DISK_OP * cost.ops.len() as u64, t);
            }
            self.stats.parity_updates += 1;
        }
        // Reclaim: free old pages, invalidate deltas (§III-D's "second
        // scheme"). A crash mid-reclaim can only leak flash pages, never
        // leave the log pointing at reclaimed ones.
        for lba in self.pending_rows.take_row(row) {
            if let Some(slot) = self.cache.lookup(lba) {
                debug_assert_eq!(self.cache.state(slot), PageState::Old);
                self.uncache(lba, slot, t)?;
            } else {
                self.invalidate_delta(lba)?;
            }
        }
        Ok(())
    }

    /// Flush everything: clean all rows, commit staged deltas, flush the
    /// metadata buffer to flash. The cleaning pass records its own
    /// background span; the staging + metalog tail is recorded as a
    /// `group_commit_flush` background span.
    pub fn flush(&mut self) -> Result<SimTime, EngineError> {
        let mut t = SimTime::ZERO;
        self.clean(&mut t)?;
        let saved = std::mem::take(&mut self.cur_stages);
        let t0 = t;
        let result = self.flush_tail(&mut t);
        let used = std::mem::replace(&mut self.cur_stages, saved);
        self.note_background(Stage::GroupCommitFlush, t.saturating_sub(t0), used);
        result?;
        Ok(t)
    }

    fn flush_tail(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        self.commit_staging(t)?;
        let batches = self.metalog.flush();
        self.persist_batches(batches, t)
    }

    // ---- failure handling (§III-E) ----------------------------------------

    /// Simulate a power failure and recover (§III-E1): every volatile
    /// structure is discarded; the primary map is rebuilt by replaying the
    /// metadata-log pages *read back from flash* between the NVRAM head
    /// and tail counters, then patched with the NVRAM metadata buffer and
    /// the NVRAM staging buffer.
    pub fn power_cycle(mut self) -> Result<KddEngine, EngineError> {
        // Power is back: clear any injected power-loss state first, or the
        // recovery reads below would fail too.
        if let Some(inj) = &self.injector {
            inj.restore_power();
        }
        let config = self.config;
        let meta_pages = self.meta_pages;
        let ps = config.geometry.page_size as usize;
        let epp = (ps - META_HDR) / ENTRY_BYTES;

        // 1. Flash replay between the NVRAM-preserved counters. A page
        //    that is torn, corrupt, or missing is tolerated — and redone
        //    from the NVRAM in-flight copy — exactly when its commit was
        //    never confirmed durable; anything else is real corruption.
        let (head, tail) = self.metalog.counters();
        let inflight: FastMap<u64, CommitBatch<MapEntry>> =
            // kdd-waiver(KDD006): crash-recovery replay, not a hot path.
            self.metalog.unconfirmed().iter().map(|b| (b.seq, b.clone())).collect();
        let mut torn_detected = 0u64;
        let mut heal: Vec<CommitBatch<MapEntry>> = Vec::new();
        let mut recovered: FastMap<u64, MapEntry> = FastMap::default();
        let apply = |recovered: &mut FastMap<u64, MapEntry>, e: MapEntry| {
            if e.is_tombstone() {
                recovered.remove(&e.key());
            } else {
                recovered.insert(e.key(), e);
            }
        };
        for seq in head..tail {
            let slot = seq % meta_pages;
            // kdd-waiver(KDD006): crash-recovery replay, not a hot path.
            let mut page = vec![0u8; ps];
            let valid = match self.ssd.read_page(slot, &mut page) {
                // A page too short for its header is as torn as a bad CRC.
                Ok(_) => match (le_u16(&page, 0), le_u64(&page, 2), le_u32(&page, 10)) {
                    (Some(count), Some(page_seq), Some(crc)) => {
                        count as usize <= epp && page_seq == seq && crc == meta_page_crc(&page)
                    }
                    _ => false,
                },
                // The tail page of an unconfirmed commit may never have
                // been written at all.
                Err(DevError::Unmapped { .. }) => false,
                Err(e) => return Err(e.into()),
            };
            let entries: Vec<MapEntry> = if valid {
                let count = le_u16(&page, 0).map_or(0, |c| c as usize);
                (0..count)
                    .map(|i| {
                        let off = META_HDR + i * ENTRY_BYTES;
                        MapEntry::decode(&page[off..off + ENTRY_BYTES])
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| EngineError::Layout("corrupt metadata entry".into()))?
            } else if let Some(batch) = inflight.get(&seq) {
                torn_detected += 1;
                // kdd-waiver(KDD006): crash-recovery replay, not a hot path.
                heal.push(batch.clone());
                // kdd-waiver(KDD006): crash-recovery replay, not a hot path.
                batch.entries.clone()
            } else {
                return Err(EngineError::Layout(format!(
                    "metadata page {slot} (seq {seq}) torn or corrupt with no in-flight copy"
                )));
            };
            entries.into_iter().for_each(|e| apply(&mut recovered, e));
        }
        // Redo the torn/lost pages from NVRAM so the flash log is whole
        // again before normal operation resumes.
        if !heal.is_empty() {
            let mut t = SimTime::ZERO;
            self.persist_batches(heal, &mut t)?;
        }
        // 2. Apply the NVRAM metadata buffer (newer than anything logged).
        self.metalog.buffered_snapshot().into_iter().for_each(|e| apply(&mut recovered, e));

        // 3. Rebuild the directory, DEZ accounting and pending rows.
        let mut cache = directory(&config, &self.raid);
        let mut dez = DeltaZone::new(DezLayout::DIRECTORY, config.geometry.page_size);
        let mut pending_rows = PendingRows::default();
        for e in recovered.values() {
            match e.state {
                EntryState::Clean => cache.insert_at(e.slot, e.lba_raid, PageState::Clean),
                EntryState::Old => {
                    cache.insert_at(e.slot, e.lba_raid, PageState::Old);
                    pending_rows.add(self.raid.layout().row_of(e.lba_raid), e.lba_raid);
                    if let Some(r) = e.dez {
                        dez.place(e.lba_raid, r);
                    }
                }
                EntryState::Free => {}
            }
        }
        // 4. Deltas still in the NVRAM staging buffer supersede DEZ copies
        //    and imply the page is old with pending parity. A DEZ page
        //    left without live deltas is not re-occupied: its slot may
        //    already hold a newer clean page.
        let staged: Vec<u64> = self.nv.get().staging.snapshot().map(|(l, _)| l).collect();
        for lba in staged {
            let Some(slot) = cache.lookup(lba) else {
                // The mapping was tombstoned (an incompressible
                // write-through or reclaim crashed between its log entry
                // and the NVRAM cleanup): RAID already holds the current
                // data, so the orphan delta is dead — drop it.
                self.nv.get_mut().staging.remove(lba);
                continue;
            };
            dez.stage(lba);
            if cache.state(slot) != PageState::Old {
                cache.set_state(slot, PageState::Old);
            }
            pending_rows.add(self.raid.layout().row_of(lba), lba);
        }
        for slot in dez.slots() {
            cache.occupy_delta_at(slot);
        }

        // 5. Rows whose parity update was in flight when power failed are
        //    re-synchronised (§III-E1: "the parity of these rows is
        //    re-synchronized"). The crash may have interrupted a member
        //    write after its delta staging (or vice versa), so the cache
        //    view — which is what was acknowledged — is first written back
        //    to the members; the resync then recomputes parity over that.
        //    This also restores the delta-RMW invariant that a cached base
        //    equals the member content at the last parity sync.
        //    If the array is *also* degraded (a member died before the
        //    cut), rows with a data member on the dead disk cannot be
        //    written back or resynced here; they stay stale — their
        //    acknowledged data lives in the cache (base ⊕ delta), the
        //    array refuses unsafe degraded reads of stale rows, and the
        //    next clean/rebuild repairs them via delta-RMW.
        let mut engine = KddEngine {
            cache,
            dez,
            pending_rows,
            stats: CacheStats { torn_pages_detected: torn_detected, ..CacheStats::default() },
            pool: PagePool::new(ps),
            last_class: HitClass::ReadMiss,
            last_comp_milli: 0,
            codec: codec::Compressor::new(),
            meta_defer: false,
            meta_pending: Vec::new(),
            cur_stages: StageTimes::new(),
            ..self
        };
        let stale: Vec<u64> = engine.raid.stale_rows().collect();
        let failed = engine.raid.failed_disks();
        let mut resyncable: Vec<u64> = Vec::new();
        let mut t = SimTime::ZERO;
        for &row in &stale {
            let lpns = engine.raid.layout().row_lpns(row);
            let live: Vec<u64> = lpns
                .iter()
                .copied()
                .filter(|&l| !failed.contains(&engine.raid.layout().locate(l).disk))
                .collect();
            if live.len() == lpns.len() {
                resyncable.push(row);
            }
            for lba in live {
                let Some(slot) = engine.cache.lookup(lba) else { continue };
                let data = engine.read_cached(lba, slot, &mut t)?;
                engine.raid.write_no_parity_update(lba, &data)?;
            }
        }
        if !resyncable.is_empty() {
            engine.raid.resync(Some(&resyncable))?;
        }
        // Recovery is not a request: drop what the reads above charged.
        engine.cur_stages = StageTimes::new();
        Ok(engine)
    }

    /// SSD failure (§III-E2): the cache is lost; the RAID re-synchronises
    /// stale parity by reconstruct-write (data blocks were always
    /// dispatched to RAID), and a fresh SSD comes up empty. No data loss:
    /// RPO 0.
    pub fn recover_from_ssd_failure(&mut self) -> Result<SimTime, EngineError> {
        let saved = std::mem::take(&mut self.cur_stages);
        let mut t = SimTime::ZERO;
        let result = self.rebuild_after_ssd_loss(&mut t);
        let used = std::mem::replace(&mut self.cur_stages, saved);
        self.note_background(Stage::RaidReconstruct, t, used);
        result?;
        Ok(t)
    }

    fn rebuild_after_ssd_loss(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        self.ssd.fail();
        let cost = self.raid.resync(None)?;
        self.charge_raid(&cost);
        self.charge_stage(Stage::RaidReconstruct, DISK_OP * cost.ops.len() as u64, t);
        self.ssd.replace();
        self.cache = directory(&self.config, &self.raid);
        self.nv.get_mut().staging.drain();
        self.metalog = metadata_log(self.meta_pages, self.config.geometry.page_size);
        // Any pages parked by an in-flight batch belonged to the lost
        // cache's log; the fresh SSD starts from an empty mapping.
        self.meta_pending.clear();
        self.dez.clear();
        self.pending_rows = PendingRows::default();
        Ok(())
    }

    /// HDD failure (§III-E2): "KDD first updates all parity blocks using
    /// the parity_update interface and then triggers the rebuilding
    /// process at the RAID layer."
    pub fn recover_from_hdd_failure(&mut self, disk: usize) -> Result<SimTime, EngineError> {
        let mut t = SimTime::ZERO;
        self.raid.fail_disk(disk);
        self.clean(&mut t)?;
        let saved = std::mem::take(&mut self.cur_stages);
        let t0 = t;
        let result = self.rebuild_failed_disk(&mut t);
        let used = std::mem::replace(&mut self.cur_stages, saved);
        self.note_background(Stage::RaidReconstruct, t.saturating_sub(t0), used);
        result?;
        Ok(t)
    }

    fn rebuild_failed_disk(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        let cost = self.raid.rebuild()?;
        self.charge_raid(&cost);
        let dt = DISK_OP * (cost.ops.len() as u64 / self.raid.layout().disks as u64).max(1);
        self.charge_stage(Stage::RaidReconstruct, dt, t);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdd_cache::setassoc::CacheGeometry;
    use kdd_raid::layout::{Layout, RaidLevel};
    use kdd_util::rng::seeded_rng;
    use rand::RngExt;

    const PS: u32 = 512;

    fn engine(cache_pages: u64) -> KddEngine {
        let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 32);
        let raid = RaidArray::new(layout, PS);
        let ssd = SsdDevice::with_logical_capacity((cache_pages + 64) * PS as u64, PS, 0.1);
        let g = CacheGeometry {
            total_pages: cache_pages,
            ways: 8.min(cache_pages as u32),
            page_size: PS,
        };
        KddEngine::new(KddConfig::new(g), ssd, raid).unwrap()
    }

    fn page(tag: u64) -> Vec<u8> {
        (0..PS as usize).map(|i| (tag as u8) ^ (i as u8).wrapping_mul(13)).collect()
    }

    fn similar_page(base: &[u8], tag: u8) -> Vec<u8> {
        // Change ~10% of bytes, clustered.
        let mut p = base.to_vec();
        for i in 0..PS as usize / 10 {
            p[(i * 7) % PS as usize] = tag ^ i as u8;
        }
        p
    }

    #[test]
    fn write_read_roundtrip_with_deltas() {
        let mut e = engine(64);
        let p0 = page(1);
        e.write(10, &p0).unwrap(); // miss
        let p1 = similar_page(&p0, 0xAA);
        e.write(10, &p1).unwrap(); // hit → delta path
        let (got, _) = e.read(10).unwrap();
        assert_eq!(got, p1, "old ⊕ delta must equal the latest version");
        // A third version (delta coalescing).
        let p2 = similar_page(&p1, 0xBB);
        e.write(10, &p2).unwrap();
        let (got2, _) = e.read(10).unwrap();
        assert_eq!(got2, p2);
        assert_eq!(e.staged_deltas(), 1, "one coalesced delta");
    }

    #[test]
    fn write_hit_leaves_parity_stale_until_clean() {
        let mut e = engine(64);
        let p0 = page(2);
        e.write(0, &p0).unwrap();
        let row = e.raid().layout().row_of(0);
        assert!(!e.raid().is_stale(row));
        e.write(0, &similar_page(&p0, 1)).unwrap();
        assert!(e.raid().is_stale(row), "parity must be delayed");
        let mut t = SimTime::ZERO;
        e.clean(&mut t).unwrap();
        assert!(!e.raid().is_stale(row));
        assert_eq!(e.pending_row_count(), 0);
        // And the raid content is the latest version.
        let mut buf = vec![0u8; PS as usize];
        e.raid_mut().read_page(0, &mut buf).unwrap();
        assert_eq!(buf, similar_page(&page(2), 1));
    }

    #[test]
    fn dez_commit_and_read_back() {
        let mut e = engine(256);
        // Fill many pages and rewrite them until the staging buffer
        // (512B) commits DEZ pages.
        // 8 LBAs per 16-page stripe group so no 8-way set overflows.
        let lbas: Vec<u64> = (0..24u64).map(|i| (i / 8) * 16 + i % 8).collect();
        let mut versions = FastMap::default();
        for &lba in &lbas {
            let p = page(lba);
            e.write(lba, &p).unwrap();
            versions.insert(lba, p);
        }
        for &lba in &lbas {
            let next = similar_page(&versions[&lba], (lba as u8).wrapping_mul(37) | 1);
            e.write(lba, &next).unwrap();
            versions.insert(lba, next);
        }
        assert!(e.stats().ssd_delta_writes > 0, "staging must have committed");
        for &lba in &lbas {
            let (got, _) = e.read(lba).unwrap();
            assert_eq!(got, versions[&lba], "lba {lba}");
        }
    }

    #[test]
    fn power_failure_recovers_exact_state() {
        let mut e = engine(128);
        let mut rng = seeded_rng(42);
        let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
        for _ in 0..600 {
            // 8 LBAs per stripe group so the 8-way sets can hold them all.
            let i = rng.random_range(0..40u64);
            let lba = (i / 8) * 16 + i % 8;
            if rng.random_bool(0.6) {
                let next = match versions.get(&lba) {
                    Some(v) => similar_page(v, rng.random()),
                    None => page(lba),
                };
                e.write(lba, &next).unwrap();
                versions.insert(lba, next);
            } else {
                let (got, _) = e.read(lba).unwrap();
                if let Some(v) = versions.get(&lba) {
                    assert_eq!(&got, v);
                }
            }
        }
        let hits_before = e.stats().read_hits + e.stats().write_hits;
        assert!(hits_before > 0);
        // Pull the plug.
        let mut e2 = e.power_cycle().expect("recovery");
        for (lba, v) in &versions {
            let (got, _) = e2.read(*lba).unwrap();
            assert_eq!(&got, v, "lba {lba} wrong after power cycle");
        }
        // The recovered cache must be warm: the verification reads above
        // should mostly hit.
        assert!(
            e2.stats().read_hits > e2.stats().read_misses,
            "cache came back cold: {} hits vs {} misses",
            e2.stats().read_hits,
            e2.stats().read_misses
        );
    }

    #[test]
    fn ssd_failure_recovers_with_rpo_zero() {
        let mut e = engine(64);
        let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
        for lba in 0..8u64 {
            let p = page(lba);
            e.write(lba, &p).unwrap();
            let p2 = similar_page(&p, 3);
            e.write(lba, &p2).unwrap(); // leaves stale parity
            versions.insert(lba, p2);
        }
        assert!(e.raid().stale_row_count() > 0, "writes must have left stale parity");
        e.recover_from_ssd_failure().unwrap();
        assert_eq!(e.raid().stale_row_count(), 0, "resync must repair parity");
        // All data still present and correct (served from RAID now).
        for (lba, v) in &versions {
            let (got, _) = e.read(*lba).unwrap();
            assert_eq!(&got, v, "lba {lba} lost after SSD failure");
        }
        // And redundancy is real again: degrade a disk and re-check.
        e.raid_mut().fail_disk(2);
        for (lba, v) in versions.iter().take(8) {
            let mut buf = vec![0u8; PS as usize];
            e.raid_mut().read_page(*lba, &mut buf).unwrap();
            assert_eq!(&buf, v, "degraded read of {lba}");
        }
    }

    #[test]
    fn hdd_failure_parity_update_then_rebuild() {
        let mut e = engine(64);
        let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
        for lba in 0..32u64 {
            let p = page(lba ^ 7);
            e.write(lba, &p).unwrap();
            let p2 = similar_page(&p, 9);
            e.write(lba, &p2).unwrap();
            versions.insert(lba, p2);
        }
        assert!(e.raid().stale_row_count() > 0);
        e.recover_from_hdd_failure(1).unwrap();
        assert!(e.raid().failed_disks().is_empty());
        assert_eq!(e.raid().stale_row_count(), 0);
        for (lba, v) in &versions {
            let mut buf = vec![0u8; PS as usize];
            e.raid_mut().read_page(*lba, &mut buf).unwrap();
            assert_eq!(&buf, v, "lba {lba} wrong after rebuild");
        }
    }

    #[test]
    fn dez_compaction_preserves_deltas_under_pressure() {
        // Many hot pages rewritten with small deltas: invalidations decay
        // DEZ pages; once pinned pages push past 3/4 of the cleaning
        // trigger the compactor must merge pages without corrupting any
        // delta.
        // Small pages (512 B) shrink the metadata partition floor, so give
        // this test a roomier one: 96 live mappings need ~5 pages at 22
        // entries/page.
        let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 32);
        let raid = RaidArray::new(layout, PS);
        let ssd = SsdDevice::with_logical_capacity((128 + 64) * PS as u64, PS, 0.1);
        let g = CacheGeometry { total_pages: 128, ways: 8, page_size: PS };
        let mut cfg = KddConfig::new(g);
        cfg.meta_partition_frac = 0.08; // 10 pages
        let mut e = KddEngine::new(cfg, ssd, raid).unwrap();
        let lbas: Vec<u64> = (0..96u64).map(|i| (i / 8) * 16 + i % 8).collect();
        let mut versions = FastMap::default();
        for &lba in &lbas {
            let p = page(lba);
            e.write(lba, &p).unwrap();
            versions.insert(lba, p);
        }
        for round in 0..3u8 {
            for &lba in &lbas {
                let next = similar_page(&versions[&lba], round.wrapping_mul(91) | 1);
                e.write(lba, &next).unwrap();
                versions.insert(lba, next);
            }
        }
        // Every page must still combine to its latest version.
        for &lba in &lbas {
            let (got, _) = e.read(lba).unwrap();
            assert_eq!(got, versions[&lba], "lba {lba} corrupted");
        }
        // DEZ footprint must stay bounded relative to its live bytes.
        let dez_pages = e.cache.count_state(PageState::Delta);
        assert!(dez_pages <= 96, "DEZ blew up: {dez_pages} pages");
    }

    #[test]
    fn endurance_counters_age_with_traffic() {
        let mut e = engine(64);
        for lba in 0..32u64 {
            e.write(lba, &page(lba)).unwrap();
        }
        let rep = e.ssd().endurance();
        assert!(rep.host_written_bytes > 0);
        assert!(rep.waf() >= 1.0);
    }

    #[test]
    fn too_small_ssd_rejected() {
        let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 8);
        let raid = RaidArray::new(layout, PS);
        let ssd = SsdDevice::with_logical_capacity(16 * PS as u64, PS, 0.1);
        // Ask for a cache far larger than any geometry the tiny request
        // could have produced.
        let g = CacheGeometry { total_pages: 10_000_000, ways: 8, page_size: PS };
        assert!(matches!(
            KddEngine::new(KddConfig::new(g), ssd, raid),
            Err(EngineError::Layout(_))
        ));
    }

    #[test]
    fn cleaning_threshold_bounds_pinned_pages() {
        let mut e = engine(64); // trigger ≈ 12 slots
        for round in 0..4u8 {
            for lba in 0..40u64 {
                let base = match e.read(lba) {
                    Ok((d, _)) => d,
                    Err(_) => page(lba),
                };
                e.write(lba, &similar_page(&base, round)).unwrap();
            }
        }
        let pinned = e.cache.count_state(PageState::Old) + e.cache.count_state(PageState::Delta);
        let trigger = KddConfig::new(CacheGeometry { total_pages: 64, ways: 8, page_size: PS })
            .clean_trigger_slots() as usize;
        assert!(pinned <= trigger, "pinned pages unbounded: {pinned} > {trigger}");
        assert!(e.stats().parity_updates > 0);
    }

    #[test]
    fn recovery_drops_dez_pages_whose_deltas_are_all_restaged() {
        let mut e = engine(64);
        let lbas: Vec<u64> = (0..8u64).collect();
        for &lba in &lbas {
            e.write(lba, &page(lba)).unwrap();
        }
        // Rewrites with ~100-byte deltas fill the 512-byte staging buffer
        // and commit a DEZ page; its mappings are logged.
        for &lba in &lbas {
            e.write(lba, &similar_page(&page(lba), 7)).unwrap();
        }
        let slot = e.dez.slots().next().expect("a DEZ page was committed");
        let members: Vec<u64> = e.dez.members(slot).collect();
        // Writing the base content back stages an all-zero delta for each
        // member, which empties (and frees) the page without logging.
        for &lba in &members {
            e.write(lba, &page(lba)).unwrap();
        }
        assert!(e.dez.members(slot).next().is_none());
        // The log still places every member in that page; recovery must
        // see that the staged copies supersede all of them.
        let mut e2 = e.power_cycle().expect("recovery");
        assert_eq!(e2.cache.count_state(PageState::Delta), e2.dez.len());
        assert!(e2.dez.members(slot).next().is_none(), "emptied page re-occupied");
        for &lba in &lbas {
            let want = if members.contains(&lba) { page(lba) } else { similar_page(&page(lba), 7) };
            assert_eq!(e2.read(lba).unwrap().0, want, "lba {lba}");
        }
    }
}
