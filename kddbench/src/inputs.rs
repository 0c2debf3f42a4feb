//! Workload definitions and seeded input generation.
//!
//! Every input a replay consumes — the page-op stream, every write
//! payload, and the expected content of every read — is generated here,
//! before any clock starts. Rewrites are [`PageMutator`] mutations of the
//! page's previous version, so the delta path sees real content locality.

use std::collections::BTreeMap;
use std::time::Instant;

use kdd_blockdev::SsdDevice;
use kdd_cache::policies::RaidModel;
use kdd_cache::setassoc::SetGrouping;
use kdd_cache::CacheGeometry;
use kdd_core::engine::EngineError;
use kdd_core::{KddConfig, KddEngine};
use kdd_delta::content::PageMutator;
use kdd_raid::{Layout, RaidArray, RaidLevel};
use kdd_trace::fio::{FioConfig, FioWorkload};
use kdd_trace::{Op, PaperTrace, Trace, TraceStats};
use kdd_util::hash::mix64;
use kdd_util::units::SimTime;

/// Page size of every device and payload.
pub const PAGE: usize = 4096;
/// Read expectation for an address that was never written: all zeros.
pub const UNWRITTEN: u32 = u32::MAX;
/// Write-queue depth of the closed-loop Zipf workload.
pub const ZIPF_QUEUE_DEPTH: usize = 16;
/// Fin1 scale divisor of the `fig9-model` workload (Table I counts / 100).
pub const FIG9_SCALE: u64 = 100;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fin1 (81% writes) on RAID-5 with a 2 MiB cache: misses, RMW and
    /// evictions.
    Fin1Miss,
    /// Fin2 (80% reads) on the same engine: the read path.
    Fin2Read,
    /// Zipf(1.0001), 25% reads, 16-deep write batches on RAID-6 with a
    /// warm cache larger than the working set: the delta path.
    ZipfHotR6,
    /// The counting model (`KddPolicy`, Kdd(0.25)) replaying Fin1 open
    /// loop at the Figure 9 geometry.
    Fig9Model,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Fin1Miss, Workload::Fin2Read, Workload::ZipfHotR6, Workload::Fig9Model];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fin1Miss => "fin1-miss",
            Workload::Fin2Read => "fin2-read",
            Workload::ZipfHotR6 => "zipf-hot-r6",
            Workload::Fig9Model => "fig9-model",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: `Full` for measurements, `Smoke` for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Tiny inputs that finish in well under a second.
    Smoke,
}

/// Engine geometry: RAID layout plus cache shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// RAID layout of the member disks.
    pub layout: Layout,
    /// Cache slots.
    pub cache_pages: u64,
    /// Cache associativity.
    pub ways: u32,
}

impl Shape {
    /// RAID-5 over 5 disks (16-page chunks, 8192 data pages) in front of
    /// a `cache_pages` cache.
    fn raid5(cache_pages: u64) -> Shape {
        Shape { layout: Layout::new(RaidLevel::Raid5, 5, 16, 16 * 128), cache_pages, ways: 64 }
    }

    /// The Figure 9 geometry for a trace: cache = 15% of its unique
    /// pages, RAID-5 sized to its address space.
    pub fn fig9(trace: &Trace) -> Shape {
        let unique = TraceStats::compute(trace).unique_total;
        let cache_pages = (unique * 15 / 100).max(256);
        let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));
        Shape { layout: raid.layout, cache_pages, ways: 64.min(cache_pages as u32) }
    }

    /// Logical data pages of the array.
    pub fn capacity(&self) -> u64 {
        self.layout.capacity_pages()
    }

    /// Cache shape as the engine and the counting model take it.
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry { total_pages: self.cache_pages, ways: self.ways, page_size: PAGE as u32 }
    }

    /// The engine's set placement (one parity row per group).
    pub fn grouping(&self) -> SetGrouping {
        SetGrouping::ParityRow {
            chunk_pages: self.layout.chunk_pages,
            data_disks: self.layout.data_disks() as u64,
        }
    }

    /// Logical bytes of the cache SSD: the cache plus room for the
    /// metadata partition.
    pub fn ssd_bytes(&self) -> u64 {
        (self.cache_pages + 64) * PAGE as u64
    }

    /// A fresh SSD of this shape.
    pub fn ssd(&self) -> SsdDevice {
        SsdDevice::with_logical_capacity(self.ssd_bytes(), PAGE as u32, 0.07)
    }

    /// A fresh engine of this shape with the paper's defaults.
    pub fn build_engine(&self) -> Result<KddEngine, EngineError> {
        self.build_engine_with(KddConfig::new(self.geometry()))
    }

    /// A fresh engine of this shape whose cleaner wakes when old and
    /// delta pages fill `clean_threshold` of the cache.
    pub fn build_engine_cleaning_at(&self, clean_threshold: f64) -> Result<KddEngine, EngineError> {
        self.build_engine_with(KddConfig { clean_threshold, ..KddConfig::new(self.geometry()) })
    }

    fn build_engine_with(&self, config: KddConfig) -> Result<KddEngine, EngineError> {
        KddEngine::new(config, self.ssd(), RaidArray::new(self.layout, PAGE as u32))
    }

    /// Member-disk I/Os of one small write: read old data and parity,
    /// write new data and parity (Thomasian: 4 on RAID-5, 6 on RAID-6).
    pub fn small_write_ios(&self) -> usize {
        2 * (1 + self.layout.level.parity_count())
    }
}

/// One host call of an engine replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `read(lba)`, expected to return payload `expect` (or zeros for
    /// [`UNWRITTEN`]).
    Read {
        /// Logical page.
        lba: u64,
        /// Payload index of the last acknowledged version.
        expect: u32,
    },
    /// `write_batch` over `writes[start..start + len]`.
    Batch {
        /// First entry in [`EngineInputs::writes`].
        start: u32,
        /// Pages in the batch.
        len: u32,
    },
}

/// One page op of the stream, for the rungs and the counting model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageOp {
    /// Read or write.
    pub op: Op,
    /// Logical page.
    pub lba: u64,
    /// Arrival time in the source trace (zero for closed-loop streams).
    pub at: SimTime,
}

/// Everything an engine replay consumes, generated from the seed.
#[derive(Debug)]
pub struct EngineInputs {
    /// Engine geometry.
    pub shape: Shape,
    /// Set-up writes issued before the clock (a warm working set).
    pub prefill: Vec<(u64, u32)>,
    /// Host calls in order.
    pub steps: Vec<Step>,
    /// `(lba, payload)` entries the batches refer to.
    pub writes: Vec<(u64, u32)>,
    /// Page ops in order (reads and written pages).
    pub stream: Vec<PageOp>,
    /// Payload pages, back to back.
    pub payloads: Vec<u8>,
    /// `(prev, next)` payload pairs of rewrites: the delta path's inputs.
    pub version_pairs: Vec<(u32, u32)>,
    /// Last version of every written address, in address order.
    pub final_versions: Vec<(u64, u32)>,
    /// Seconds spent generating the trace / op stream.
    pub trace_s: f64,
    /// Seconds spent generating payloads.
    pub payload_s: f64,
}

impl EngineInputs {
    /// Payload page `idx`.
    pub fn payload(&self, idx: u32) -> &[u8] {
        let at = idx as usize * PAGE;
        &self.payloads[at..at + PAGE]
    }

    /// Whether `data` is what a read expecting `expect` must return.
    pub fn matches(&self, data: &[u8], expect: u32) -> bool {
        if expect == UNWRITTEN {
            data.len() == PAGE && data.iter().all(|&b| b == 0)
        } else {
            data == self.payload(expect)
        }
    }

    /// Page ops in the measured replay.
    pub fn page_ops(&self) -> u64 {
        self.stream.len() as u64
    }

    /// Written pages in the measured replay.
    pub fn written_pages(&self) -> u64 {
        self.writes.len() as u64
    }

    /// A digest of every generated input: equal seeds must give equal
    /// digests.
    pub fn digest(&self) -> u64 {
        let mut h = 0x243f_6a88_85a3_08d3_u64;
        let mut feed = |x: u64| h = mix64(h ^ x).wrapping_add(0x9e37_79b9_7f4a_7c15);
        for s in &self.steps {
            match *s {
                Step::Read { lba, expect } => {
                    feed(lba);
                    feed(u64::from(expect));
                }
                Step::Batch { start, len } => feed(u64::from(start) << 32 | u64::from(len)),
            }
        }
        for &(lba, idx) in self.prefill.iter().chain(&self.writes) {
            feed(lba ^ u64::from(idx) << 40);
        }
        for w in self.payloads.chunks_exact(8) {
            feed(u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]));
        }
        h
    }
}

/// Builder that appends payloads and tracks each address's current
/// version.
struct Versions {
    mutator: PageMutator,
    payloads: Vec<u8>,
    current: BTreeMap<u64, u32>,
    pairs: Vec<(u32, u32)>,
}

impl Versions {
    fn new(seed: u64, pages: usize) -> Versions {
        Versions {
            mutator: PageMutator::new(PAGE, 0.15, 64, seed ^ 0x9e37),
            payloads: Vec::with_capacity(pages * PAGE),
            current: BTreeMap::new(),
            pairs: Vec::new(),
        }
    }

    fn expect(&self, lba: u64) -> u32 {
        self.current.get(&lba).copied().unwrap_or(UNWRITTEN)
    }

    /// Next version of `lba`: a mutation of its current version, or a
    /// fresh page on first write.
    fn write(&mut self, lba: u64) -> u32 {
        let idx = (self.payloads.len() / PAGE) as u32;
        let next = match self.current.get(&lba) {
            Some(&prev) => {
                self.pairs.push((prev, idx));
                let at = prev as usize * PAGE;
                self.mutator.mutate(&self.payloads[at..at + PAGE])
            }
            None => self.mutator.initial_page(),
        };
        self.payloads.extend_from_slice(&next);
        self.current.insert(lba, idx);
        idx
    }
}

/// Caps on one replay's size.
struct Caps {
    page_ops: usize,
    written_pages: usize,
}

/// Generate the inputs of an engine replay of `w` (for `fig9-model`, the
/// engine replay of its trace prefix that the traced run uses).
pub fn engine_inputs(w: Workload, seed: u64, size: Size) -> EngineInputs {
    let smoke = size == Size::Smoke;
    match w {
        Workload::Fin1Miss | Workload::Fin2Read => {
            let (pt, scale) = if w == Workload::Fin1Miss {
                (PaperTrace::Fin1, if smoke { 2000 } else { 50 })
            } else {
                (PaperTrace::Fin2, if smoke { 1000 } else { 25 })
            };
            let caps = if smoke {
                Caps { page_ops: 2_000, written_pages: 1_000 }
            } else {
                Caps { page_ops: 120_000, written_pages: 24_000 }
            };
            let t0 = Instant::now();
            let trace = pt.generate_scaled(scale, seed);
            let trace_s = t0.elapsed().as_secs_f64();
            from_trace(&trace, Shape::raid5(512), &caps, seed, trace_s)
        }
        Workload::ZipfHotR6 => zipf_inputs(seed, smoke),
        Workload::Fig9Model => {
            let t0 = Instant::now();
            let trace = fig9_trace(seed, size);
            let shape = Shape::fig9(&trace);
            let trace_s = t0.elapsed().as_secs_f64();
            let caps = if smoke {
                Caps { page_ops: 1_000, written_pages: 800 }
            } else {
                Caps { page_ops: 12_000, written_pages: 10_000 }
            };
            from_trace(&trace, shape, &caps, seed, trace_s)
        }
    }
}

/// The Fin1 trace `fig9-model` replays.
pub fn fig9_trace(seed: u64, size: Size) -> Trace {
    let scale = if size == Size::Smoke { 2000 } else { FIG9_SCALE };
    PaperTrace::Fin1.generate_scaled(scale, seed)
}

/// Replay a timestamped trace prefix: one `write_batch` per write record.
fn from_trace(trace: &Trace, shape: Shape, caps: &Caps, seed: u64, trace_s: f64) -> EngineInputs {
    let t0 = Instant::now();
    let cap = shape.capacity();
    let mut v = Versions::new(seed, caps.written_pages);
    let mut steps = Vec::new();
    let mut writes = Vec::new();
    let mut stream = Vec::new();
    for rec in &trace.records {
        if stream.len() >= caps.page_ops || writes.len() >= caps.written_pages {
            break;
        }
        match rec.op {
            Op::Read => {
                for page in rec.pages() {
                    let lba = page % cap;
                    steps.push(Step::Read { lba, expect: v.expect(lba) });
                    stream.push(PageOp { op: Op::Read, lba, at: rec.time });
                }
            }
            Op::Write => {
                let start = writes.len() as u32;
                for page in rec.pages() {
                    let lba = page % cap;
                    writes.push((lba, v.write(lba)));
                    stream.push(PageOp { op: Op::Write, lba, at: rec.time });
                }
                steps.push(Step::Batch { start, len: writes.len() as u32 - start });
            }
        }
    }
    finish(shape, Vec::new(), steps, writes, stream, v, trace_s, t0)
}

/// Zipf(1.0001) closed loop on RAID-6: the working set (¾ of the cache)
/// is prefilled during set-up, then writes queue 16 deep and a read acts
/// as a barrier, as in `kdd_sim::run_closed_loop_engine`.
fn zipf_inputs(seed: u64, smoke: bool) -> EngineInputs {
    let (cache_pages, requests) = if smoke { (512, 1_500) } else { (5_120, 32_000) };
    let wss = cache_pages * 3 / 4;
    let shape =
        Shape { layout: Layout::new(RaidLevel::Raid6, 6, 16, 16 * 128), cache_pages, ways: 64 };
    let t0 = Instant::now();
    let cfg = FioConfig {
        wss_pages: wss,
        zipf_alpha: 1.0001,
        read_rate: 0.25,
        total_pages: requests,
        threads: 16,
    };
    let mut fio = FioWorkload::new(cfg, seed);
    let mut draws = Vec::with_capacity(requests as usize);
    while let Some(r) = fio.next_request() {
        draws.push(r);
    }
    let trace_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut v = Versions::new(seed, (wss + requests) as usize);
    let prefill: Vec<(u64, u32)> = (0..wss).map(|lba| (lba, v.write(lba))).collect();
    v.pairs.clear();
    let mut steps = Vec::new();
    let mut writes: Vec<(u64, u32)> = Vec::new();
    let mut stream = Vec::with_capacity(draws.len());
    let mut pending = 0u32;
    let close = |steps: &mut Vec<Step>, writes: &Vec<(u64, u32)>, pending: &mut u32| {
        if *pending > 0 {
            steps.push(Step::Batch { start: writes.len() as u32 - *pending, len: *pending });
            *pending = 0;
        }
    };
    for (op, lba) in draws {
        let lba = lba % shape.capacity();
        stream.push(PageOp { op, lba, at: SimTime::ZERO });
        match op {
            Op::Read => {
                close(&mut steps, &writes, &mut pending);
                steps.push(Step::Read { lba, expect: v.expect(lba) });
            }
            Op::Write => {
                writes.push((lba, v.write(lba)));
                pending += 1;
                if pending as usize >= ZIPF_QUEUE_DEPTH {
                    close(&mut steps, &writes, &mut pending);
                }
            }
        }
    }
    close(&mut steps, &writes, &mut pending);
    let payload_t0 = t1;
    finish(shape, prefill, steps, writes, stream, v, trace_s, payload_t0)
}

#[allow(clippy::too_many_arguments)]
fn finish(
    shape: Shape,
    prefill: Vec<(u64, u32)>,
    steps: Vec<Step>,
    writes: Vec<(u64, u32)>,
    stream: Vec<PageOp>,
    v: Versions,
    trace_s: f64,
    payload_t0: Instant,
) -> EngineInputs {
    let final_versions = v.current.iter().map(|(&l, &i)| (l, i)).collect();
    EngineInputs {
        shape,
        prefill,
        steps,
        writes,
        stream,
        payloads: v.payloads,
        version_pairs: v.pairs,
        final_versions,
        trace_s,
        payload_s: payload_t0.elapsed().as_secs_f64(),
    }
}
