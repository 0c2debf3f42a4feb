//! The three engine workloads: closed-loop replay through the real-byte
//! `KddEngine`, with outside-in spans in the traced run.

use std::time::Instant;

use kdd_cache::CacheStats;
use kdd_core::engine::EngineError;
use kdd_core::{KddEngine, WriteRequest};
use kdd_util::units::SimTime;

use crate::inputs::{engine_inputs, EngineInputs, Step, PAGE};
use crate::report::Report;
use crate::stats::{latency_pcts, mean, median, ratio, tail_mean_sorted, TAIL_SHARE};
use crate::{alloc, model_run, rungs, Opts};

/// The change in `stats()` across a call or a replay: `after - before`,
/// field by field.
pub fn stats_change(before: &CacheStats, after: &CacheStats) -> CacheStats {
    let d = |a: u64, b: u64| a.saturating_sub(b);
    CacheStats {
        read_hits: d(after.read_hits, before.read_hits),
        read_misses: d(after.read_misses, before.read_misses),
        write_hits: d(after.write_hits, before.write_hits),
        write_misses: d(after.write_misses, before.write_misses),
        ssd_data_writes: d(after.ssd_data_writes, before.ssd_data_writes),
        ssd_delta_writes: d(after.ssd_delta_writes, before.ssd_delta_writes),
        ssd_meta_writes: d(after.ssd_meta_writes, before.ssd_meta_writes),
        ssd_reads: d(after.ssd_reads, before.ssd_reads),
        raid_reads: d(after.raid_reads, before.raid_reads),
        raid_writes: d(after.raid_writes, before.raid_writes),
        evictions: d(after.evictions, before.evictions),
        parity_updates: d(after.parity_updates, before.parity_updates),
        cleanings: d(after.cleanings, before.cleanings),
        faults_observed: d(after.faults_observed, before.faults_observed),
        fault_retries: d(after.fault_retries, before.fault_retries),
        fault_fallbacks: d(after.fault_fallbacks, before.fault_fallbacks),
        torn_pages_detected: d(after.torn_pages_detected, before.torn_pages_detected),
    }
}

/// The public engine call a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `KddEngine::read`.
    Read,
    /// `KddEngine::write_batch`.
    WriteBatch,
    /// `KddEngine::clean`.
    Clean,
    /// `KddEngine::flush`.
    Flush,
    /// `KddEngine::power_cycle`.
    PowerCycle,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Read => "read",
            Call::WriteBatch => "write_batch",
            Call::Clean => "clean",
            Call::Flush => "flush",
            Call::PowerCycle => "power_cycle",
        }
    }
}

/// One outside-in span: a public engine call, its host time, and the
/// change in `stats()` across it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call.
    pub call: Call,
    /// Pages the call carried.
    pub pages: u32,
    /// Host ns from the start of the replay to the call.
    pub start_ns: f64,
    /// Host nanoseconds.
    pub ns: f64,
    /// Counter change across the call.
    pub d: CacheStats,
}

/// Span classes, by the counters that moved (a call can be in several).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A read that hit, with no cleaning pass.
    ReadHit,
    /// A read that missed, with no cleaning pass.
    ReadMiss,
    /// A batch of write hits, with no cleaning pass.
    WriteHit,
    /// A batch with at least one write miss, with no cleaning pass.
    WriteMiss,
    /// A write-hit batch (as [`Class::WriteHit`]) that also wrote DEZ
    /// pages: a staging commit or a DEZ compaction ran inside it.
    WriteHitDez,
    /// Any call that ran a cleaning pass (inline or explicit).
    Clean,
    /// Any call that evicted, with no cleaning pass.
    Evict,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 7] = [
        Class::ReadHit,
        Class::ReadMiss,
        Class::WriteHit,
        Class::WriteMiss,
        Class::WriteHitDez,
        Class::Clean,
        Class::Evict,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::ReadHit => "read_hit",
            Class::ReadMiss => "read_miss",
            Class::WriteHit => "write_hit",
            Class::WriteMiss => "write_miss",
            Class::WriteHitDez => "write_hit+dez",
            Class::Clean => "clean",
            Class::Evict => "evict",
        }
    }

    /// Whether `s` belongs to this class.
    pub fn holds(self, s: &Span) -> bool {
        let cleaned = s.d.cleanings > 0;
        match self {
            Class::ReadHit => s.call == Call::Read && !cleaned && s.d.read_hits > 0,
            Class::ReadMiss => s.call == Call::Read && !cleaned && s.d.read_misses > 0,
            Class::WriteHit => s.call == Call::WriteBatch && !cleaned && s.d.write_misses == 0,
            Class::WriteMiss => s.call == Call::WriteBatch && !cleaned && s.d.write_misses > 0,
            Class::WriteHitDez => Class::WriteHit.holds(s) && s.d.ssd_delta_writes > 0,
            Class::Clean => cleaned,
            Class::Evict => !cleaned && s.d.evictions > 0,
        }
    }
}

/// Calls, pages and host time of one span class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassSum {
    /// Calls.
    pub calls: u64,
    /// Pages carried.
    pub pages: u64,
    /// Host nanoseconds.
    pub ns: f64,
}

impl ClassSum {
    /// Sum the spans of `class`.
    pub fn of(spans: &[Span], class: Class) -> ClassSum {
        let mut c = ClassSum::default();
        for s in spans.iter().filter(|s| class.holds(s)) {
            c.calls += 1;
            c.pages += u64::from(s.pages);
            c.ns += s.ns;
        }
        c
    }

    fn add(&mut self, o: ClassSum) {
        self.calls += o.calls;
        self.pages += o.pages;
        self.ns += o.ns;
    }

    /// Mean microseconds per call.
    pub fn us_per_call(&self) -> f64 {
        ratio(self.ns, self.calls as f64) / 1e3
    }

    /// Mean microseconds per page.
    pub fn us_per_page(&self) -> f64 {
        ratio(self.ns, self.pages as f64) / 1e3
    }
}

/// What one measured replay produced.
#[derive(Debug)]
pub struct Replay {
    /// Host seconds of the replay loop.
    pub wall_s: f64,
    /// Page ops issued.
    pub page_ops: u64,
    /// Host ns of every call, in step order.
    pub call_ns: Vec<f64>,
    /// Simulated service time of every acknowledged page op.
    pub sim_ns: Vec<u64>,
    /// Counter change over the replay.
    pub d: CacheStats,
    /// Bytes the engine wrote to the SSD during the replay (data, delta
    /// and metadata pages).
    pub ssd_host_bytes: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Reads compared with the expected version.
    pub checks: u64,
    /// Reads that returned the wrong bytes.
    pub mismatches: u64,
    /// Spans (traced repeats only).
    pub spans: Vec<Span>,
}

impl Replay {
    /// The figures that must repeat exactly for a fixed seed.
    fn deterministic(&self) -> (u64, u64, CacheStats, u64) {
        let mut sorted = self.sim_ns.clone();
        sorted.sort_unstable();
        let p99 = sorted.get((sorted.len() * 99).div_ceil(100).saturating_sub(1)).copied();
        (self.sim_ns.iter().sum(), p99.unwrap_or(0), self.d, self.ssd_host_bytes)
    }

    /// Mean simulated response and the mean of its slowest 5%, in
    /// microseconds.
    pub fn sim_us(&self) -> (f64, f64) {
        let mut v: Vec<f64> = self.sim_ns.iter().map(|&n| n as f64 / 1e3).collect();
        v.sort_by(f64::total_cmp);
        (mean(&v), tail_mean_sorted(&v, 1.0 - TAIL_SHARE))
    }
}

/// Take a freshly built engine and issue the set-up writes (a warm
/// working set) before the clock.
pub fn set_up(
    built: Result<KddEngine, EngineError>,
    inputs: &EngineInputs,
) -> Result<KddEngine, String> {
    let mut engine = built.map_err(|e| format!("engine build failed: {e}"))?;
    for chunk in inputs.prefill.chunks(crate::inputs::ZIPF_QUEUE_DEPTH) {
        let reqs: Vec<WriteRequest<'_>> = chunk
            .iter()
            .map(|&(lba, idx)| WriteRequest { lba, data: inputs.payload(idx) })
            .collect();
        engine.write_batch(&reqs).map_err(|e| format!("prefill write failed: {e}"))?;
    }
    Ok(engine)
}

/// The harness's own buffers for one replay: the borrowed write
/// requests and the per-call sample vectors, sized up front. They are
/// allocated before the engine is built, so the heap peak that
/// `mem_mb` reads over build, prefill and replay is the engine's alone.
pub struct Buffers<'a> {
    traced: bool,
    reqs: Vec<WriteRequest<'a>>,
    call_ns: Vec<f64>,
    sim_ns: Vec<u64>,
    spans: Vec<Span>,
}

impl<'a> Buffers<'a> {
    /// Buffers for a replay of `inputs`; `traced` also reserves one span
    /// per call.
    pub fn new(inputs: &'a EngineInputs, traced: bool) -> Buffers<'a> {
        // Every request borrows a pre-generated payload: nothing is built
        // in the timed loop.
        let reqs = inputs
            .writes
            .iter()
            .map(|&(lba, idx)| WriteRequest { lba, data: inputs.payload(idx) })
            .collect();
        Buffers {
            traced,
            reqs,
            call_ns: Vec::with_capacity(inputs.steps.len()),
            sim_ns: Vec::with_capacity(inputs.stream.len()),
            spans: Vec::with_capacity(if traced { inputs.steps.len() } else { 0 }),
        }
    }
}

/// Replay `inputs` through `engine`, timing every public call; a traced
/// replay also records one [`Span`] per call.
pub fn replay(engine: &mut KddEngine, inputs: &EngineInputs, buf: Buffers<'_>) -> Replay {
    let Buffers { traced, reqs, mut call_ns, mut sim_ns, mut spans } = buf;
    let (mut failed, mut checks, mut mismatches) = (0u64, 0u64, 0u64);
    let stats0 = *engine.stats();

    let t0 = Instant::now();
    for step in &inputs.steps {
        let before = traced.then(|| *engine.stats());
        let (call, pages, ns) = match *step {
            Step::Read { lba, expect } => {
                let c0 = Instant::now();
                let r = engine.read(lba);
                let ns = c0.elapsed().as_nanos() as f64;
                match r {
                    Ok((data, t)) => {
                        sim_ns.push(t.as_nanos());
                        checks += 1;
                        if !inputs.matches(&data, expect) {
                            mismatches += 1;
                        }
                    }
                    Err(_) => failed += 1,
                }
                (Call::Read, 1, ns)
            }
            Step::Batch { start, len } => {
                let batch = &reqs[start as usize..(start + len) as usize];
                let c0 = Instant::now();
                let r = engine.write_batch(batch);
                let ns = c0.elapsed().as_nanos() as f64;
                match r {
                    Ok(times) => sim_ns.extend(times.iter().map(|t| t.as_nanos())),
                    Err(_) => failed += u64::from(len),
                }
                (Call::WriteBatch, len, ns)
            }
        };
        call_ns.push(ns);
        if let Some(before) = before {
            let start_ns = (t0.elapsed().as_nanos() as f64 - ns).max(0.0);
            spans.push(Span {
                call,
                pages,
                start_ns,
                ns,
                d: stats_change(&before, engine.stats()),
            });
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let d = stats_change(&stats0, engine.stats());

    Replay {
        wall_s,
        page_ops: inputs.page_ops(),
        call_ns,
        sim_ns,
        d,
        ssd_host_bytes: d.ssd_writes_pages() * PAGE as u64,
        failed,
        checks,
        mismatches,
        spans,
    }
}

/// After the replay: `clean` + `flush` + `power_cycle`, then read back
/// every written address and compare it with its last acknowledged
/// version. Errors and wrong bytes are counted, never fatal. The three
/// maintenance calls are appended to `spans`.
pub fn post_run_checks(
    mut engine: KddEngine,
    inputs: &EngineInputs,
    spans: &mut Vec<Span>,
    rep: &mut Report,
) {
    let timed = |engine: &mut KddEngine, call: Call, f: &mut dyn FnMut(&mut KddEngine) -> bool| {
        let before = *engine.stats();
        let c0 = Instant::now();
        let ok = f(engine);
        let ns = c0.elapsed().as_nanos() as f64;
        (ok, Span { call, pages: 0, start_ns: 0.0, ns, d: stats_change(&before, engine.stats()) })
    };
    rep.attempted += 3;
    let (ok, s) = timed(&mut engine, Call::Clean, &mut |e| {
        let mut t = SimTime::ZERO;
        e.clean(&mut t).is_ok()
    });
    spans.push(s);
    rep.failed += u64::from(!ok);
    let (ok, s) = timed(&mut engine, Call::Flush, &mut |e| e.flush().is_ok());
    spans.push(s);
    rep.failed += u64::from(!ok);
    let c0 = Instant::now();
    let mut engine = match engine.power_cycle() {
        Ok(e) => e,
        Err(e) => {
            rep.failed += 1;
            rep.problem(format!("power_cycle failed: {e}"));
            return;
        }
    };
    let ns = c0.elapsed().as_nanos() as f64;
    spans.push(Span {
        call: Call::PowerCycle,
        pages: 0,
        start_ns: 0.0,
        ns,
        d: CacheStats::default(),
    });
    for &(lba, idx) in &inputs.final_versions {
        rep.attempted += 1;
        match engine.read(lba) {
            Ok((data, _)) => {
                rep.checks += 1;
                if data != inputs.payload(idx) {
                    rep.mismatches += 1;
                }
            }
            Err(_) => rep.failed += 1,
        }
    }
}

/// Host-time latency samples of a replay: a read's sample is its call,
/// a written page's sample is the call of the batch that acknowledged it.
pub fn latency_samples<'a>(
    inputs: &'a EngineInputs,
    call_ns: &'a [f64],
) -> impl Iterator<Item = (bool, f64, u32)> + 'a {
    inputs.steps.iter().zip(call_ns).map(|(step, &ns)| match *step {
        Step::Read { .. } => (true, ns, 1),
        Step::Batch { len, .. } => (false, ns, len),
    })
}

/// Host-time figures of a run: ops/s and the four call latencies, each
/// the median over the untraced repeats. They are printed in every
/// report and are per-layer metrics of the traced run, but not
/// end-to-end metrics: on a shared host their run-to-run spread exceeds
/// any usable regression bound (see the README).
pub fn set_host_figures(rep: &mut Report, ops_per_s: &[f64], per_repeat: &[[f64; 4]]) {
    let n = ops_per_s.len() as u64;
    let col = |k: usize| median(&per_repeat.iter().map(|p| p[k]).collect::<Vec<_>>());
    let figures = [
        ("host.ops_per_s", median(ops_per_s), "1/s"),
        ("host.read_p50_us", col(0), "us"),
        ("host.read_tail_us", col(1), "us"),
        ("host.write_p50_us", col(2), "us"),
        ("host.write_tail_us", col(3), "us"),
    ];
    for (name, value, unit) in figures {
        if rep.traced {
            rep.set(name, value, n);
        } else {
            rep.lines.push(format!("{name:<30} {value:>16.6} {unit:<6} n={n}"));
        }
    }
}

/// Run an engine workload: plain (end-to-end metrics) or traced (spans,
/// rungs, budget).
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(opts.workload, opts.trace);
    let t_start = Instant::now();
    let (mut setup_s, mut trace_s, mut payload_s, mut build_s) = (vec![], vec![], vec![], vec![]);
    let mut pcts: Vec<[f64; 4]> = Vec::new();
    let (mut plain_ops, mut traced_ops) = (Vec::new(), Vec::new());
    let mut first: Option<(u64, u64, CacheStats, u64)> = None;
    let mut first_replay: Option<Replay> = None;
    let mut post_spans: Vec<Span> = Vec::new();
    let mut mem_mb = 0.0;
    let mut held: Option<EngineInputs> = None;
    let mut digest0 = None;

    loop {
        let i = plain_ops.len() + traced_ops.len();
        // Every repeat sets up from scratch, so each one is a `setup_s`
        // sample; the input digest (outside the timed set-up) must repeat.
        drop(held.take());
        let g0 = Instant::now();
        let g = engine_inputs(opts.workload, opts.seed, opts.size);
        let gen_s = g0.elapsed().as_secs_f64();
        trace_s.push(g.trace_s);
        payload_s.push(g.payload_s);
        let digest = g.digest();
        if *digest0.get_or_insert(digest) != digest {
            rep.problem(format!("repeat {i}: the same seed generated different inputs"));
        }
        let inputs: &EngineInputs = held.insert(g);

        // Traced runs alternate traced and plain repeats, so the span
        // overhead is measured in the same process.
        let is_traced = opts.trace && i % 2 == 0;
        let buf = Buffers::new(inputs, is_traced);
        let live0 = alloc::live_bytes();
        alloc::reset_peak();
        let b0 = Instant::now();
        let mut engine = match set_up(inputs.shape.build_engine(), inputs) {
            Ok(e) => e,
            Err(e) => {
                rep.failed += 1;
                rep.attempted += 1;
                rep.problem(e);
                return rep;
            }
        };
        let built_s = b0.elapsed().as_secs_f64();
        build_s.push(built_s);
        setup_s.push(gen_s + built_s);

        let r = replay(&mut engine, inputs, buf);
        if i == 0 {
            mem_mb = alloc::peak_bytes().saturating_sub(live0) as f64 / (1u64 << 20) as f64;
        }
        rep.attempted += r.page_ops;
        rep.failed += r.failed;
        rep.checks += r.checks;
        rep.mismatches += r.mismatches;
        let det = r.deterministic();
        match &first {
            None => first = Some(det),
            Some(f) if *f != det => {
                rep.problem(format!("repeat {i} differs from repeat 0 for the same seed"));
            }
            Some(_) => {}
        }
        let ops_per_s = r.page_ops as f64 / r.wall_s;
        if is_traced {
            traced_ops.push(ops_per_s);
        } else {
            plain_ops.push(ops_per_s);
            pcts.push(latency_pcts(latency_samples(inputs, &r.call_ns)));
        }
        if i == 0 {
            post_run_checks(engine, inputs, &mut post_spans, &mut rep);
            first_replay = Some(r);
        }
        let done = t_start.elapsed().as_secs_f64() >= opts.seconds;
        if done && (!opts.trace || !plain_ops.is_empty()) {
            break;
        }
    }
    rep.repeats = (plain_ops.len() + traced_ops.len()) as u64;
    if let Some(r0) = &first_replay {
        rep.lines.push(fault_line(&r0.d));
    }
    let (Some(r0), Some(inputs)) = (first_replay, held) else {
        rep.problem("no repeat completed");
        return rep;
    };

    set_host_figures(&mut rep, &plain_ops, &pcts);
    if !opts.trace {
        let (sim_mean, sim_tail) = r0.sim_us();
        rep.set("sim_resp_mean_us", sim_mean, r0.sim_ns.len() as u64);
        rep.set("sim_resp_tail_us", sim_tail, r0.sim_ns.len() as u64);
        let user_bytes = (inputs.written_pages() * PAGE as u64) as f64;
        rep.set(
            "ssd_bytes_per_user_byte",
            ratio(r0.ssd_host_bytes as f64, user_bytes),
            inputs.written_pages(),
        );
        let ios = (r0.d.raid_reads + r0.d.raid_writes) as f64;
        rep.set("raid_ios_per_op", ratio(ios, r0.page_ops as f64), r0.page_ops);
        rep.set("setup_s", median(&setup_s), setup_s.len() as u64);
        rep.set("mem_mb", mem_mb, 1);
        return rep;
    }

    // ---- traced run: spans, rungs, budget --------------------------------
    let n = setup_s.len() as u64;
    rep.set("trace.generate_s", median(&trace_s), n);
    rep.set("bench.payload_gen_s", median(&payload_s), n);
    rep.set("engine.build_s", median(&build_s), n);
    let overhead = 1.0 - ratio(median(&traced_ops), median(&plain_ops));
    rep.set("bench.trace_overhead_frac", overhead, plain_ops.len() as u64);

    let mut all_spans = r0.spans.clone();
    all_spans.extend_from_slice(&post_spans);
    engine_span_metrics(&mut rep, &r0, &post_spans);

    let rung = rungs::run(&inputs);
    rung.apply(&mut rep);
    cleaner_rung(&mut rep, &inputs);
    let pol = model_run::policy_rung(&inputs, opts.seed);
    pol.apply(&mut rep);

    let span_ns: f64 = r0.spans.iter().map(|s| s.ns).sum();
    let budget = rungs::Budget::new(&rung, &r0.d, &r0.spans, &inputs);
    rep.set("engine.unexplained_frac", budget.unexplained_frac(span_ns), r0.spans.len() as u64);
    rep.lines.extend(class_table(&r0.spans, &post_spans));
    rep.lines.extend(budget.table(span_ns));
    rep.lines.extend(write_spans(opts, &all_spans));
    rep
}

/// The `engine.*` span metrics of one traced replay plus its post-run
/// maintenance calls (the explicit `clean` counts as a cleaning call).
pub fn engine_span_metrics(rep: &mut Report, r: &Replay, post: &[Span]) {
    let class = |c| ClassSum::of(&r.spans, c);
    let (read_hit, read_miss) = (class(Class::ReadHit), class(Class::ReadMiss));
    let (write_hit, write_miss) = (class(Class::WriteHit), class(Class::WriteMiss));
    let inline_cleans = class(Class::Clean);
    let mut cleans = inline_cleans;
    cleans.add(ClassSum::of(post, Class::Clean));
    let evict = class(Class::Evict);
    rep.set("engine.read_hit_us", read_hit.us_per_call(), read_hit.calls);
    rep.set("engine.read_miss_us", read_miss.us_per_call(), read_miss.calls);
    rep.set("engine.write_hit_us", write_hit.us_per_page(), write_hit.pages);
    rep.set("engine.write_miss_us", write_miss.us_per_page(), write_miss.pages);
    rep.set("engine.clean_call_us", cleans.us_per_call(), cleans.calls);
    let per_kop = ratio(inline_cleans.calls as f64 * 1e3, r.page_ops as f64);
    rep.set("engine.clean_calls_per_kop", per_kop, inline_cleans.calls);
    rep.set("engine.evict_call_us", evict.us_per_call(), evict.calls);
    layer_ratios(rep, &r.d, r.page_ops);
}

/// The cleaner rung's `clean_threshold`. At the paper's 0.9 no engine
/// workload runs an inline cleaning pass (see the README), so the rung
/// replays the same inputs with the cleaner waking at half the cache.
pub const CLEANER_RUNG_THRESHOLD: f64 = 0.5;

/// The cleaner rung: replay `inputs` on an engine whose cleaner wakes at
/// [`CLEANER_RUNG_THRESHOLD`] and time the calls that ran an inline
/// cleaning pass (on RAID-6 their row repair includes the Q parity).
/// Its reads are checked like the measured replay's.
pub fn cleaner_rung(rep: &mut Report, inputs: &EngineInputs) {
    let built = inputs.shape.build_engine_cleaning_at(CLEANER_RUNG_THRESHOLD);
    let mut engine = match set_up(built, inputs) {
        Ok(e) => e,
        Err(e) => {
            rep.failed += 1;
            rep.attempted += 1;
            rep.problem(format!("cleaner rung: {e}"));
            return;
        }
    };
    let r = replay(&mut engine, inputs, Buffers::new(inputs, true));
    rep.attempted += r.page_ops;
    rep.failed += r.failed;
    rep.checks += r.checks;
    rep.mismatches += r.mismatches;
    let passes = ClassSum::of(&r.spans, Class::Clean);
    let rows: u64 =
        r.spans.iter().filter(|s| Class::Clean.holds(s)).map(|s| s.d.parity_updates).sum();
    rep.set("cleaner.inline_call_us", passes.us_per_call(), passes.calls);
    let per_kop = ratio(passes.calls as f64 * 1e3, r.page_ops as f64);
    rep.set("cleaner.calls_per_kop", per_kop, passes.calls);
    rep.set("cleaner.rows_per_call", ratio(rows as f64, passes.calls as f64), passes.calls);
}

/// Device faults the engine met in a fault-free configuration: each SSD
/// fallback drops the whole cache (`recover_from_ssd_failure`).
fn fault_line(d: &CacheStats) -> String {
    format!(
        "engine faults during repeat 0: {} observed, {} SSD fallbacks (cache dropped and rebuilt)",
        d.faults_observed, d.fault_fallbacks
    )
}

/// Counting ratios shared by the engine workloads and the model.
pub fn layer_ratios(rep: &mut Report, d: &CacheStats, page_ops: u64) {
    let ops = page_ops as f64;
    rep.set(
        "cache.read_hit_ratio",
        ratio(d.read_hits as f64, (d.read_hits + d.read_misses) as f64),
        d.read_hits + d.read_misses,
    );
    rep.set(
        "cache.write_hit_ratio",
        ratio(d.write_hits as f64, (d.write_hits + d.write_misses) as f64),
        d.write_hits + d.write_misses,
    );
    rep.set("cache.evictions_per_op", ratio(d.evictions as f64, ops), page_ops);
    rep.set("raid.member_reads_per_op", ratio(d.raid_reads as f64, ops), page_ops);
    rep.set("raid.member_writes_per_op", ratio(d.raid_writes as f64, ops), page_ops);
    rep.set("raid.parity_rows_per_kop", ratio(d.parity_updates as f64 * 1e3, ops), page_ops);
    rep.set("ssd.data_pages_per_op", ratio(d.ssd_data_writes as f64, ops), page_ops);
    rep.set("ssd.delta_pages_per_op", ratio(d.ssd_delta_writes as f64, ops), page_ops);
    rep.set("ssd.meta_pages_per_op", ratio(d.ssd_meta_writes as f64, ops), page_ops);
    rep.set(
        "engine.ssd_fallbacks_per_kop",
        ratio(d.fault_fallbacks as f64 * 1e3, ops),
        d.fault_fallbacks,
    );
    rep.set(
        "staging.hits_per_dez_page",
        ratio(d.write_hits as f64, d.ssd_delta_writes as f64),
        d.ssd_delta_writes,
    );
}

/// Host time by span class, replay plus the post-run maintenance calls.
pub fn class_table(spans: &[Span], post: &[Span]) -> Vec<String> {
    let total: f64 = spans.iter().map(|s| s.ns).sum();
    let mut out = vec![format!(
        "## spans by class (repeat 0; classes overlap): {} calls, {:.1} ms engine time",
        spans.len(),
        total / 1e6
    )];
    out.push(format!(
        "{:<12} {:>8} {:>8} {:>12} {:>12} {:>7}",
        "class", "calls", "pages", "us/call", "us/page", "share"
    ));
    for c in Class::ALL {
        let s = ClassSum::of(spans, c);
        out.push(format!(
            "{:<12} {:>8} {:>8} {:>12.2} {:>12.2} {:>6.1}%",
            c.name(),
            s.calls,
            s.pages,
            s.us_per_call(),
            s.us_per_page(),
            100.0 * ratio(s.ns, total)
        ));
    }
    for s in post {
        out.push(format!("{:<12} {:>8} {:>8} {:>12.2}", s.call.name(), 1, 0, s.ns / 1e3));
    }
    out
}

/// Write the spans of repeat 0 as TSV under `.bench_out/` (kept in
/// memory during the run, written once at the end).
fn write_spans(opts: &Opts, spans: &[Span]) -> Vec<String> {
    if opts.size != crate::Size::Full {
        return Vec::new();
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{}.tsv", opts.workload.name(), opts.seed));
    let mut text = String::from(
        "call\tpages\tstart_ns\tns\tread_hits\tread_misses\twrite_hits\twrite_misses\tevictions\tcleanings\tparity_updates\tssd_reads\tssd_writes\traid_reads\traid_writes\n",
    );
    for s in spans {
        let d = &s.d;
        text.push_str(&format!(
            "{}\t{}\t{:.0}\t{:.0}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.call.name(),
            s.pages,
            s.start_ns,
            s.ns,
            d.read_hits,
            d.read_misses,
            d.write_hits,
            d.write_misses,
            d.evictions,
            d.cleanings,
            d.parity_updates,
            d.ssd_reads,
            d.ssd_writes_pages(),
            d.raid_reads,
            d.raid_writes
        ));
    }
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => vec![format!("spans written to {}", path.display())],
        Err(e) => vec![format!("spans not written ({}): {e}", path.display())],
    }
}
