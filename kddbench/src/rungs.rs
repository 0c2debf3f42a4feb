//! Rungs: each lower layer's public functions timed alone on the
//! workload's own inputs, and the layer budget built from them.
//!
//! The budget multiplies each layer's call count — read off the change
//! in `stats()` across the replay, never from inside the engine — by
//! its rung cost, and compares the sum with the host time of the engine
//! calls. What the rungs do not cover is `engine.unexplained_frac`.

use std::hint::black_box;
use std::time::Instant;

use kdd_cache::{CacheStats, PageState, SetAssocCache};
use kdd_core::engine::{EntryState, MapEntry};
use kdd_core::{KddConfig, MetaLog};
use kdd_delta::codec::{decompress, Compressor};
use kdd_delta::content::PageMutator;
use kdd_delta::xor::{xor_pages, xor_pages_into};
use kdd_raid::{gf256, RaidArray};

use crate::engine_run::{Call, Span};
use crate::inputs::{EngineInputs, Step, PAGE};
use crate::report::Report;
use crate::stats::{mean, median, ratio};

/// Minimum host time one rung measurement accumulates.
const MIN_RUNG_NS: f64 = 20e6;
/// Cap on the inputs one rung consumes.
const MAX_RUNG_ITEMS: usize = 4_000;
/// Metalog entry size and page header of the engine's on-flash format.
const ENTRY_BYTES: usize = 22;
const META_HDR: usize = 14;

/// Repeat `pass` (which returns the items it processed) until
/// [`MIN_RUNG_NS`] has accumulated; returns ns per item.
fn per_item(mut pass: impl FnMut() -> usize) -> f64 {
    let (mut ns, mut items) = (0.0, 0usize);
    while ns < MIN_RUNG_NS || items == 0 {
        let t0 = Instant::now();
        let n = pass();
        ns += t0.elapsed().as_nanos() as f64;
        items += n;
        if n == 0 {
            return 0.0;
        }
    }
    ns / items as f64
}

/// Every rung's result.
#[derive(Debug, Clone, Default)]
pub struct Rungs {
    /// `SetAssocCache::lookup`, ns.
    pub lookup_ns: f64,
    /// `SetAssocCache::insert` (with eviction when the set is full), ns.
    pub insert_ns: f64,
    /// `SetAssocCache::count_state` over the workload's cache, ns.
    pub count_state_ns: f64,
    /// `xor_pages_into` on a version pair, ns.
    pub xor_ns: f64,
    /// `Compressor::compress` of a version-pair delta, ns.
    pub compress_ns: f64,
    /// `decompress` of a compressed delta, ns.
    pub decompress_ns: f64,
    /// Mean compressed size / page size.
    pub ratio: f64,
    /// Share of deltas that do not fit a DEZ page (written through).
    pub incompressible_frac: f64,
    /// Version pairs the delta rungs used.
    pub pairs: u64,
    /// `RaidArray::write_page` (small write), µs.
    pub rmw_us: f64,
    /// `RaidArray::write_no_parity_update`, µs.
    pub no_parity_us: f64,
    /// `RaidArray::parity_update_rmw` of one row with one delta, µs.
    pub parity_row_us: f64,
    /// `RaidArray::read_page`, µs.
    pub raid_read_us: f64,
    /// `gf256::mul_slice_into` over one page, ns.
    pub gf_ns: f64,
    /// Distinct addresses the RAID rungs wrote.
    pub raid_pages: u64,
    /// `SsdDevice::read_page`, µs.
    pub ssd_read_us: f64,
    /// `SsdDevice::write_page` at steady-state GC, µs.
    pub ssd_write_us: f64,
    /// NAND bytes / host bytes over the timed SSD writes.
    pub ssd_waf: f64,
    /// Block erases per 1000 timed SSD writes.
    pub ssd_erases_per_kop: f64,
    /// Timed SSD writes.
    pub ssd_writes: u64,
    /// `MetaLog::push_group` of one write batch's entries, ns.
    pub push_group_ns: f64,
    /// Mean entries per pushed group.
    pub group_size: f64,
    /// Groups per measurement pass.
    pub groups: u64,
    /// Failed rung self-checks.
    pub problems: Vec<String>,
    /// Observations printed with the report.
    pub notes: Vec<String>,
}

impl Rungs {
    /// Set the rung metrics.
    pub fn apply(&self, rep: &mut Report) {
        let n = MAX_RUNG_ITEMS as u64;
        rep.set("cache.lookup_ns", self.lookup_ns, n);
        rep.set("cache.insert_ns", self.insert_ns, n);
        rep.set("cache.count_state_ns", self.count_state_ns, n);
        rep.set("delta.xor_ns", self.xor_ns, self.pairs);
        rep.set("delta.compress_ns", self.compress_ns, self.pairs);
        rep.set("delta.decompress_ns", self.decompress_ns, self.pairs);
        rep.set("delta.ratio", self.ratio, self.pairs);
        rep.set("delta.incompressible_frac", self.incompressible_frac, self.pairs);
        rep.set("raid.write_rmw_us", self.rmw_us, self.raid_pages);
        rep.set("raid.write_no_parity_us", self.no_parity_us, self.raid_pages);
        rep.set("raid.parity_update_row_us", self.parity_row_us, self.raid_pages);
        rep.set("raid.read_us", self.raid_read_us, self.raid_pages);
        rep.set("raid.gf256_mul_4k_ns", self.gf_ns, self.raid_pages);
        rep.set("ssd.read_us", self.ssd_read_us, self.ssd_writes);
        rep.set("ssd.write_us", self.ssd_write_us, self.ssd_writes);
        rep.set("ssd.waf", self.ssd_waf, self.ssd_writes);
        rep.set("ssd.erases_per_kop", self.ssd_erases_per_kop, self.ssd_writes);
        rep.set("metalog.push_group_ns", self.push_group_ns, self.groups);
        for p in &self.problems {
            rep.problem(p.clone());
        }
        rep.lines.extend(self.notes.iter().cloned());
    }
}

/// Run every rung on `inputs`.
pub fn run(inputs: &EngineInputs) -> Rungs {
    let mut r = Rungs::default();
    cache_rung(inputs, &mut r);
    delta_rung(inputs, &mut r);
    raid_rung(inputs, &mut r);
    ssd_rung(inputs, &mut r);
    metalog_rung(inputs, &mut r);
    r
}

/// `SetAssocCache` of the workload's geometry on its LBA stream.
fn cache_rung(inputs: &EngineInputs, r: &mut Rungs) {
    let lbas: Vec<u64> = inputs.stream.iter().map(|p| p.lba).collect();
    let shape = inputs.shape;
    let (mut full, mut lookup, mut misses) = (vec![], vec![], 0usize);
    let mut cache = SetAssocCache::new_grouped(shape.geometry(), shape.grouping());
    for _ in 0..3 {
        cache = SetAssocCache::new_grouped(shape.geometry(), shape.grouping());
        let t0 = Instant::now();
        misses = 0;
        for &lba in &lbas {
            match cache.lookup(lba) {
                Some(slot) => cache.touch(slot),
                None => {
                    misses += 1;
                    black_box(cache.insert(lba, PageState::Clean, |s| s == PageState::Clean));
                }
            }
        }
        full.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        for &lba in &lbas {
            black_box(cache.lookup(black_box(lba)));
        }
        lookup.push(t0.elapsed().as_nanos() as f64);
    }
    let (full, lookup) = (median(&full), median(&lookup));
    r.lookup_ns = ratio(lookup, lbas.len() as f64);
    r.insert_ns = ratio(full - lookup, misses as f64);
    r.count_state_ns = per_item(|| {
        for _ in 0..64 {
            black_box(cache.count_state(black_box(PageState::Old)));
        }
        64
    });
}

/// The codec and XOR on the workload's own rewrite pairs.
fn delta_rung(inputs: &EngineInputs, r: &mut Rungs) {
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = inputs
        .version_pairs
        .iter()
        .take(MAX_RUNG_ITEMS)
        .map(|&(a, b)| (inputs.payload(a).to_vec(), inputs.payload(b).to_vec()))
        .collect();
    if pairs.len() < 64 {
        // Too few rewrites in the stream: add pairs from the same
        // content generator the workload uses.
        let mut m = PageMutator::new(PAGE, 0.15, 64, 0x5eed);
        while pairs.len() < 64 {
            let a = m.initial_page();
            let b = m.mutate(&a);
            pairs.push((a, b));
        }
    }
    let deltas: Vec<Vec<u8>> = pairs.iter().map(|(a, b)| xor_pages(a, b)).collect();
    let mut out = vec![0u8; PAGE];
    r.xor_ns = per_item(|| {
        for (a, b) in &pairs {
            xor_pages_into(&mut out, a, b);
            black_box(&out);
        }
        pairs.len()
    });
    let mut comp = Compressor::new();
    let compressed: Vec<Vec<u8>> = deltas.iter().map(|d| comp.compress(d)).collect();
    r.compress_ns = per_item(|| {
        for d in &deltas {
            black_box(comp.compress(black_box(d)));
        }
        deltas.len()
    });
    r.decompress_ns = per_item(|| {
        for c in &compressed {
            black_box(decompress(black_box(c)).ok());
        }
        compressed.len()
    });
    let bad = compressed
        .iter()
        .zip(&deltas)
        .filter(|(c, d)| decompress(c).ok().as_ref() != Some(*d))
        .count();
    if bad > 0 {
        r.problems.push(format!("delta rung: {bad} deltas did not round-trip through the codec"));
    }
    let sizes: Vec<f64> = compressed.iter().map(|c| c.len() as f64 / PAGE as f64).collect();
    r.ratio = mean(&sizes);
    // The engine's write-through rule: the delta plus its 14-byte
    // directory record must fit one DEZ page.
    r.incompressible_frac = ratio(
        compressed.iter().filter(|c| c.len() + 14 > PAGE).count() as f64,
        compressed.len() as f64,
    );
    r.pairs = pairs.len() as u64;
}

/// A fresh `RaidArray` of the workload's layout, written at the
/// workload's addresses with its payloads. Also checks the small-write
/// I/O identity: 4 member I/Os on RAID-5, 6 on RAID-6.
fn raid_rung(inputs: &EngineInputs, r: &mut Rungs) {
    let shape = inputs.shape;
    let mut seen = std::collections::BTreeSet::new();
    let mut pages: Vec<(u64, &[u8], &[u8])> = Vec::new();
    let all = &inputs.writes;
    for (k, &(lba, idx)) in all.iter().enumerate() {
        if pages.len() >= MAX_RUNG_ITEMS.min(2_000) {
            break;
        }
        if seen.insert(lba) {
            let other = all[(k + 1) % all.len()].1;
            let b = if other == idx {
                inputs.payload(all[(k + 2) % all.len()].1)
            } else {
                inputs.payload(other)
            };
            pages.push((lba, inputs.payload(idx), b));
        }
    }
    if pages.is_empty() {
        r.problems.push("raid rung: the workload writes nothing".into());
        return;
    }
    let deltas: Vec<Vec<u8>> = pages.iter().map(|(_, a, b)| xor_pages(a, b)).collect();
    let mut array = RaidArray::new(shape.layout, PAGE as u32);
    let want = shape.small_write_ios();
    let parity = shape.layout.level.parity_count();

    let t0 = Instant::now();
    let mut bad_ios = 0;
    for &(lba, a, _) in &pages {
        match array.write_page(lba, a) {
            Ok(cost) if cost.ops.len() == want && cost.reads() == want / 2 => {}
            Ok(_) => bad_ios += 1,
            Err(e) => {
                r.problems.push(format!("raid rung: write_page({lba}) failed: {e}"));
                return;
            }
        }
    }
    r.rmw_us = t0.elapsed().as_nanos() as f64 / pages.len() as f64 / 1e3;
    if bad_ios > 0 {
        r.problems.push(format!(
            "raid rung: {bad_ios} small writes did not cost {want} member I/Os ({:?}, {} disks)",
            shape.layout.level, shape.layout.disks
        ));
    }

    let (mut np_ns, mut pu_ns) = (0.0, 0.0);
    for (&(lba, _, b), delta) in pages.iter().zip(&deltas) {
        let loc = shape.layout.locate(lba);
        let t0 = Instant::now();
        let np = array.write_no_parity_update(lba, b);
        let t1 = Instant::now();
        let pu = array.parity_update_rmw(loc.row, &[(loc.data_index, delta.as_slice())]);
        let t2 = Instant::now();
        np_ns += (t1 - t0).as_nanos() as f64;
        pu_ns += (t2 - t1).as_nanos() as f64;
        match (np, pu) {
            (Ok(c1), Ok(c2)) if c1.ops.len() == 1 && c2.ops.len() == 2 * parity => {}
            (Ok(c1), Ok(c2)) => r.problems.push(format!(
                "raid rung: delayed-parity write cost {} + {} member I/Os, want 1 + {}",
                c1.ops.len(),
                c2.ops.len(),
                2 * parity
            )),
            (Err(e), _) | (_, Err(e)) => {
                r.problems.push(format!("raid rung: delayed-parity write of {lba} failed: {e}"));
                return;
            }
        }
    }
    r.no_parity_us = np_ns / pages.len() as f64 / 1e3;
    r.parity_row_us = pu_ns / pages.len() as f64 / 1e3;
    for &(lba, _, _) in pages.iter().step_by(97) {
        let row = shape.layout.locate(lba).row;
        if !matches!(array.verify_row(row), Ok(true)) {
            r.problems.push(format!("raid rung: parity row {row} inconsistent after repair"));
        }
    }

    let mut buf = vec![0u8; PAGE];
    let mut wrong = 0;
    let t0 = Instant::now();
    for &(lba, _, b) in &pages {
        if array.read_page(lba, &mut buf).is_err() || buf != b {
            wrong += 1;
        }
    }
    r.raid_read_us = t0.elapsed().as_nanos() as f64 / pages.len() as f64 / 1e3;
    if wrong > 0 {
        r.problems.push(format!("raid rung: {wrong} reads returned the wrong bytes"));
    }
    let mut dst = vec![0u8; PAGE];
    let src = pages[0].1;
    r.gf_ns = per_item(|| {
        for _ in 0..256 {
            gf256::mul_slice_into(black_box(&mut dst), black_box(src), gf256::pow_g(3));
        }
        256
    });
    r.raid_pages = pages.len() as u64;
}

/// An `SsdDevice` of the workload's cache size at steady-state garbage
/// collection: a share of its logical pages filled and churned once,
/// then timed on the workload's addresses and payloads. The share starts
/// at the cache's 90% cleaning threshold and steps down while the FTL's
/// collector gives up ("no reclaimable space"); the steps taken are
/// reported.
fn ssd_rung(inputs: &EngineInputs, r: &mut Rungs) {
    let payloads: Vec<(u64, &[u8])> = inputs
        .writes
        .iter()
        .take(2 * MAX_RUNG_ITEMS)
        .map(|&(lba, idx)| (lba, inputs.payload(idx)))
        .collect();
    let Some(&(_, fill)) = payloads.first() else {
        r.problems.push("ssd rung: the workload writes nothing".into());
        return;
    };
    let mut gave_up = Vec::new();
    let mut steady = None;
    for pct in [90u64, 80, 70, 60, 50] {
        let mut ssd = inputs.shape.ssd();
        let live = (ssd.capacity_pages() * pct / 100).max(1);
        let churn = (0..live).chain((0..live).map(|k| k.wrapping_mul(0x9e37_79b9) % live));
        let mut ok = true;
        for lpn in churn {
            if ssd.write_page(lpn, fill).is_err() {
                ok = false;
                break;
            }
        }
        if ok {
            steady = Some((ssd, live, pct));
            break;
        }
        gave_up.push(pct);
    }
    let Some((mut ssd, live, pct)) = steady else {
        r.problems.push("ssd rung: the FTL gives up even at 50% logical use".into());
        return;
    };
    r.notes.push(format!(
        "ssd rung: steady state at {pct}% of {} logical pages; the FTL's collector gave up at {gave_up:?}%",
        ssd.capacity_pages()
    ));
    let writes: Vec<(u64, &[u8])> = payloads.into_iter().map(|(lba, d)| (lba % live, d)).collect();
    let e0 = ssd.endurance();
    let t0 = Instant::now();
    for &(lpn, data) in &writes {
        if let Err(e) = ssd.write_page(lpn, data) {
            r.problems.push(format!("ssd rung: write failed: {e}"));
            return;
        }
    }
    r.ssd_write_us = t0.elapsed().as_nanos() as f64 / writes.len() as f64 / 1e3;
    let e1 = ssd.endurance();
    r.ssd_waf = ratio(
        (e1.nand_written_bytes - e0.nand_written_bytes) as f64,
        (e1.host_written_bytes - e0.host_written_bytes) as f64,
    );
    r.ssd_erases_per_kop = ratio((e1.erases - e0.erases) as f64 * 1e3, writes.len() as f64);
    let mut last = std::collections::BTreeMap::new();
    for &(lpn, data) in &writes {
        last.insert(lpn, data);
    }
    let mut buf = vec![0u8; PAGE];
    let mut wrong = 0;
    let t0 = Instant::now();
    for &(lpn, _) in &writes {
        if ssd.read_page(lpn, &mut buf).is_err() || last.get(&lpn) != Some(&buf.as_slice()) {
            wrong += 1;
        }
    }
    r.ssd_read_us = t0.elapsed().as_nanos() as f64 / writes.len() as f64 / 1e3;
    if wrong > 0 {
        r.problems.push(format!("ssd rung: {wrong} reads returned the wrong bytes"));
    }
    r.ssd_writes = writes.len() as u64;
}

/// `MetaLog::push_group` of each write batch's mapping entries, with the
/// engine's partition size and NVRAM in-flight tracking.
fn metalog_rung(inputs: &EngineInputs, r: &mut Rungs) {
    let geometry = inputs.shape.geometry();
    let pages = KddConfig::new(geometry).meta_partition_pages();
    let slots = geometry.total_pages.max(1);
    let per_page = (PAGE - META_HDR) / ENTRY_BYTES;
    // The engine's cache bounds the live mappings; fold the keys onto
    // what the partition can hold live (with room for GC), since
    // `MetaLog` panics when live entries outgrow it.
    let live_keys = ((pages.saturating_sub(1)) * per_page as u64 * 3 / 4).max(1);
    let groups: Vec<Vec<MapEntry>> = inputs
        .steps
        .iter()
        .filter_map(|s| match *s {
            Step::Batch { start, len } => Some(
                inputs.writes[start as usize..(start + len) as usize]
                    .iter()
                    .map(|&(lba, _)| MapEntry {
                        lba_raid: lba % live_keys,
                        slot: (lba % slots) as u32,
                        state: EntryState::Clean,
                        dez: None,
                    })
                    .collect(),
            ),
            Step::Read { .. } => None,
        })
        .take(MAX_RUNG_ITEMS)
        .collect();
    if groups.is_empty() {
        r.problems.push("metalog rung: the workload writes nothing".into());
        return;
    }
    let mut log: MetaLog<MapEntry> = MetaLog::new(pages, per_page);
    log.enable_inflight_tracking();
    r.push_group_ns = per_item(|| {
        for g in &groups {
            for b in log.push_group(g.iter().copied()) {
                log.confirm(b.seq);
            }
        }
        groups.len()
    });
    r.group_size = mean(&groups.iter().map(|g| g.len() as f64).collect::<Vec<_>>());
    r.groups = groups.len() as u64;
}

/// One budget row: a layer's call count times its rung cost.
#[derive(Debug, Clone)]
pub struct Row {
    /// Layer.
    pub layer: &'static str,
    /// What is counted, and where the count comes from.
    pub what: &'static str,
    /// Calls.
    pub count: f64,
    /// Rung cost per call, ns.
    pub unit_ns: f64,
}

impl Row {
    fn ns(&self) -> f64 {
        self.count * self.unit_ns
    }
}

/// The outside-in layer budget of one replay.
#[derive(Debug, Clone)]
pub struct Budget {
    /// The rows, outside in.
    pub rows: Vec<Row>,
}

impl Budget {
    /// Counts from the replay's counter change `d` and its spans; costs
    /// from the rungs.
    pub fn new(r: &Rungs, d: &CacheStats, spans: &[Span], inputs: &EngineInputs) -> Budget {
        let ops = inputs.page_ops() as f64;
        // A read hit on an *old* page reads the data page and its DEZ page.
        let old_reads = spans
            .iter()
            .filter(|s| s.call == Call::Read && s.d.read_hits > 0 && s.d.ssd_reads >= 2)
            .count() as f64;
        let hits = d.write_hits as f64;
        let row = |layer, what, count: f64, unit_ns: f64| Row { layer, what, count, unit_ns };
        Budget {
            rows: vec![
                row("cache", "lookup x page ops", ops, r.lookup_ns),
                row(
                    "cache",
                    "insert x SSD data-page writes (fills)",
                    d.ssd_data_writes as f64,
                    r.insert_ns,
                ),
                row(
                    "cache",
                    "count_state x 4 per write hit (maybe_clean)",
                    4.0 * hits,
                    r.count_state_ns,
                ),
                row("delta", "xor x write hits", hits, r.xor_ns),
                row("delta", "compress x write hits", hits, r.compress_ns),
                row(
                    "delta",
                    "decompress x (old-page read hits + write hits)",
                    old_reads + hits,
                    r.decompress_ns,
                ),
                row("raid", "small write x write misses", d.write_misses as f64, r.rmw_us * 1e3),
                row("raid", "write_no_parity x write hits", hits, r.no_parity_us * 1e3),
                row(
                    "raid",
                    "parity update x rows repaired",
                    d.parity_updates as f64,
                    r.parity_row_us * 1e3,
                ),
                row("raid", "read x read misses", d.read_misses as f64, r.raid_read_us * 1e3),
                row("ssd", "read x SSD page reads", d.ssd_reads as f64, r.ssd_read_us * 1e3),
                row(
                    "ssd",
                    "write x SSD page writes",
                    d.ssd_writes_pages() as f64,
                    r.ssd_write_us * 1e3,
                ),
                row(
                    "metalog",
                    "push x (written pages + evictions)",
                    (inputs.written_pages() + d.evictions) as f64,
                    ratio(r.push_group_ns, r.group_size),
                ),
            ],
        }
    }

    /// Host ns the rows explain.
    pub fn explained_ns(&self) -> f64 {
        self.rows.iter().map(Row::ns).sum()
    }

    /// Share of `engine_ns` the rows do not explain.
    pub fn unexplained_frac(&self, engine_ns: f64) -> f64 {
        ratio(engine_ns - self.explained_ns(), engine_ns)
    }

    /// The printed budget table, per row and per layer.
    pub fn table(&self, engine_ns: f64) -> Vec<String> {
        let mut out = vec![format!(
            "## layer budget: count x rung cost vs {:.1} ms of engine-call host time",
            engine_ns / 1e6
        )];
        out.push(format!(
            "{:<8} {:<50} {:>10} {:>10} {:>10} {:>7}",
            "layer", "count source", "count", "ns/call", "ms", "share"
        ));
        for row in &self.rows {
            out.push(format!(
                "{:<8} {:<50} {:>10.0} {:>10.1} {:>10.2} {:>6.1}%",
                row.layer,
                row.what,
                row.count,
                row.unit_ns,
                row.ns() / 1e6,
                100.0 * ratio(row.ns(), engine_ns)
            ));
        }
        let mut layers: Vec<&str> = self.rows.iter().map(|r| r.layer).collect();
        layers.dedup();
        for layer in layers {
            let ns: f64 = self.rows.iter().filter(|r| r.layer == layer).map(Row::ns).sum();
            out.push(format!(
                "{:<8} {:<50} {:>10} {:>10} {:>10.2} {:>6.1}%",
                layer,
                "(layer total)",
                "",
                "",
                ns / 1e6,
                100.0 * ratio(ns, engine_ns)
            ));
        }
        let un = engine_ns - self.explained_ns();
        out.push(format!(
            "{:<8} {:<50} {:>10} {:>10} {:>10.2} {:>6.1}%",
            "engine",
            "unexplained (engine time no rung covers)",
            "",
            "",
            un / 1e6,
            100.0 * ratio(un, engine_ns)
        ));
        out
    }
}
